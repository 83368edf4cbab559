"""Accessibility index components and normalization."""

import pytest

from chainforge.accessibility import (AccessibilitySnapshot,
                                      accessible_nutrition, affordability,
                                      default_scales, link_effort, normalize,
                                      quality_index, resolve_scales, snapshot,
                                      transportation_effort)
from chainforge.errors import ConfigError, DomainError
from chainforge.model import NormalizationScales, Nutrient
from chainforge.stochastic import PeriodTemplate


def test_affordability_is_cost_over_income(tiny):
    assert affordability(tiny.regions[0]) == 20.0 / 2000.0
    assert affordability(tiny.regions[1]) == 25.0 / 1800.0


def test_affordability_requires_positive_income(tiny):
    region = tiny.regions[0]
    bad = type(region)(**{**region.__dict__, "average_income": 0.0})
    with pytest.raises(DomainError):
        affordability(bad)


def test_transportation_effort_hand_value(tiny, tiny_design):
    # R1's customers C1, C2, C3: C1 sits sqrt(2) km from D1, C3 sqrt(2)
    # km from D2.
    effort = link_effort(tiny, tiny_design)[:3]
    assert transportation_effort(effort, [10.0, 0.0, 4.0]) == \
        pytest.approx(14.0 * 2.0 ** 0.5)


def test_transportation_ignores_other_regions(tiny, tiny_design):
    # A period's deliveries cover every customer; a region's effort reads
    # only its own span of them.  C4 belongs to R2.
    template = PeriodTemplate(tiny, tiny_design, 0.2)
    shipments = [0.0, 0.0, 0.0, 50.0, 0.0]
    r1, r2 = template.region_customers
    assert transportation_effort(template.effort[r1], shipments[r1]) == 0.0
    assert transportation_effort(template.effort[r2], shipments[r2]) == \
        pytest.approx(50.0 * 2.0 ** 0.5)


def test_transportation_uses_path_weight_factor(tiny_design):
    from chainforge.model import instance_from_dict
    from conftest import tiny_dict

    data = tiny_dict()
    data["path_weights"] = [{"dc": "D1", "customer": "C1", "factor": 3.0}]
    instance = instance_from_dict(data)
    effort = link_effort(instance, tiny_design)[:3]
    assert transportation_effort(effort, [1.0, 0.0, 0.0]) == \
        pytest.approx(3.0 * 2.0 ** 0.5)


def test_negative_shipment_rejected(tiny, tiny_design):
    with pytest.raises(DomainError):
        transportation_effort(link_effort(tiny, tiny_design)[:3],
                              [-2.0, 0.0, 0.0])


def test_accessible_nutrition(tiny):
    nutrition = accessible_nutrition(50.0, tiny.nutrients)
    assert nutrition == {"protein": 10.0, "iron": 0.2}
    with pytest.raises(DomainError):
        accessible_nutrition(-1.0, tiny.nutrients)


def test_quality_index_clamps_shortfalls(tiny):
    region = tiny.regions[0]  # population 400
    # protein requires 200, iron requires 0.4
    nutrition = {"protein": 250.0, "iron": 0.1}
    assert quality_index(region, nutrition, tiny.nutrients) == \
        pytest.approx(2.0 * 50.0)
    nutrition = {"protein": 100.0, "iron": 0.1}
    assert quality_index(region, nutrition, tiny.nutrients) == 0.0


def test_normalize_clamps_into_unit_interval():
    assert normalize(5.0, 10.0) == 0.5
    assert normalize(-1.0, 10.0) == 0.0
    assert normalize(15.0, 10.0) == 1.0


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
def test_normalize_rejects_bad_scale(scale):
    with pytest.raises(ConfigError):
        normalize(1.0, scale)


def test_default_scales(tiny, tiny_design):
    scales = default_scales(tiny, tiny_design)
    assert scales.affordability == pytest.approx(25.0 / 1800.0)
    total_capacity = 150.0 + 120.0 + 100.0
    weighted_content = 2.0 * 0.2 + 1.0 * 0.004
    assert scales.quality == pytest.approx(weighted_content * total_capacity)
    assert scales.transportation > 0.0


def test_resolve_scales_prefers_file_values(qatar, qatar_design):
    scales = resolve_scales(qatar, qatar_design)
    assert scales.affordability == 1e-4
    assert scales.transportation == 2e6
    assert scales.quality == 1.2e8


def test_resolve_scales_falls_back_to_defaults(tiny, tiny_design):
    assert tiny.normalization_scales is None
    assert resolve_scales(tiny, tiny_design) == default_scales(tiny, tiny_design)


def test_snapshot_contribution(tiny, tiny_design):
    scales = NormalizationScales(affordability=0.02, transportation=100.0,
                                 quality=60.0)
    snap = snapshot(tiny.regions[0], 0, tiny, region_inventory=150.0,
                    effort=link_effort(tiny, tiny_design)[:3],
                    shipments=[10.0, 0.0, 0.0], scales=scales)
    assert snap.affordability == pytest.approx(0.5)
    assert snap.raw_transportation == pytest.approx(10.0 * 2.0 ** 0.5)
    # protein surplus: 0.2 * 150 - 200 < 0, iron: 0.004 * 150 - 0.4 = 0.2
    assert snap.raw_quality == pytest.approx(0.2)
    weights = tiny.regions[0].weights
    expected = (weights.affordability * snap.affordability
                - weights.transportation * snap.transportation
                + weights.quality * snap.quality)
    assert snap.contribution(tiny.regions[0]) == pytest.approx(expected)


def test_indices_stay_in_unit_interval(tiny, tiny_design):
    import random

    rng = random.Random(7)
    scales = default_scales(tiny, tiny_design)
    region = tiny.regions[0]
    effort = link_effort(tiny, tiny_design)[:3]  # C1, C2, C3
    for _ in range(200):
        inventory = rng.uniform(0.0, 270.0)
        shipments = [rng.uniform(0.0, 80.0) for _ in effort]
        snap = snapshot(region, 0, tiny, inventory, effort, shipments, scales)
        for value in (snap.affordability, snap.transportation, snap.quality):
            assert 0.0 <= value <= 1.0
