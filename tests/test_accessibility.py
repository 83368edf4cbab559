"""Accessibility index components and normalization."""

from dataclasses import replace

import numpy as np
import pytest

from chainforge import stochastic
from chainforge.accessibility import (affordability, default_scales,
                                      link_effort, resolve_scales, snapshot)
from chainforge.errors import DomainError, ParseError, ValidationError
from chainforge.model import NormalizationScales, instance_from_dict
from chainforge.stochastic import (PeriodTemplate, StochasticConfig,
                                   run_replication)
from conftest import raw_quality, reference_z1, tiny_dict


def _z1(instance, design, opening, deliveries):
    """The accessibility of one period extracted from given flows: the
    opening stock per DC, no orders, and the deliveries per customer,
    each customer's demand equal to its delivery.  A DC that ships more
    than it holds ends below zero, so its region counts as empty."""
    template = PeriodTemplate(instance, design, 0.0)
    D, C = template.num_dcs, template.num_customers
    x = np.zeros(len(template.c))
    x[D:D + C] = deliveries
    return stochastic._extract_period(template, x, opening, deliveries,
                                      [1.0] * D, 0).accessibility


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
    # km from D2.  Every DC stays empty, so only transport moves Z1.
    scale = default_scales(tiny, tiny_design).transportation
    idle = _z1(tiny, tiny_design, [0.0] * 3, [0.0] * 5)
    busy = _z1(tiny, tiny_design, [0.0] * 3, [10.0, 0.0, 4.0, 0.0, 0.0])
    assert idle - busy == pytest.approx(14.0 * 2.0 ** 0.5 / scale)


def test_transportation_ignores_other_regions(tiny_design):
    # C4 belongs to R2.  With R1's transport weight at zero, a delivery
    # to C4 still costs R2's full term.
    data = tiny_dict()
    data["regions"][0]["accessibility_weights"]["transportation"] = 0.0
    instance = instance_from_dict(data)
    scale = default_scales(instance, tiny_design).transportation
    idle = _z1(instance, tiny_design, [0.0] * 3, [0.0] * 5)
    busy = _z1(instance, tiny_design, [0.0] * 3, [0.0, 0.0, 0.0, 50.0, 0.0])
    assert idle - busy == pytest.approx(50.0 * 2.0 ** 0.5 / scale)


def test_transportation_uses_path_weight_factor(tiny_design):
    data = tiny_dict()
    data["path_weights"] = [{"dc": "D1", "customer": "C1", "factor": 3.0}]
    instance = instance_from_dict(data)
    scale = default_scales(instance, tiny_design).transportation
    idle = _z1(instance, tiny_design, [0.0] * 3, [0.0] * 5)
    busy = _z1(instance, tiny_design, [0.0] * 3, [1.0, 0.0, 0.0, 0.0, 0.0])
    assert idle - busy == pytest.approx(3.0 * 2.0 ** 0.5 / scale)


def test_quality_index_clamps_shortfalls(tiny, tiny_design):
    # R1 (population 400) requires 200 protein and 0.4 iron.  At 150 kg
    # it holds 30 protein (a shortfall, worth zero) and 0.6 iron (a
    # surplus of 0.2); at 50 kg both fall short.
    scale = default_scales(tiny, tiny_design).quality
    empty = _z1(tiny, tiny_design, [0.0] * 3, [0.0] * 5)
    assert _z1(tiny, tiny_design, [150.0, 0.0, 0.0], [0.0] * 5) - empty == \
        pytest.approx(0.2 / scale)
    assert _z1(tiny, tiny_design, [50.0, 0.0, 0.0], [0.0] * 5) == empty


def test_normalize_clamps_into_unit_interval():
    scales = NormalizationScales(affordability=10.0, transportation=10.0,
                                 quality=10.0)
    raw = np.array([[5.0, -1.0, 15.0]] * 3)
    for index in snapshot(raw, scales):
        assert index.tolist() == [0.5, 0.0, 1.0]


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
def test_normalize_rejects_bad_scale(scale):
    # Scales come from the instance file or from default_scales, which
    # derives positive finite ones; the file's are checked on load.
    data = tiny_dict()
    data["normalization_scales"] = {"affordability": 0.02,
                                    "transportation": scale, "quality": 60.0}
    with pytest.raises((ParseError, ValidationError),
                       match="normalization_scales.transportation"):
        instance_from_dict(data)


def test_default_scales(tiny, tiny_design):
    scales = default_scales(tiny, tiny_design)
    assert scales.affordability == pytest.approx(25.0 / 1800.0)
    total_capacity = 150.0 + 120.0 + 100.0
    weighted_content = 2.0 * 0.2 + 1.0 * 0.004
    assert scales.quality == pytest.approx(weighted_content * total_capacity)
    assert scales.transportation > 0.0


def test_default_scales_ignore_the_design_key_order(qatar, qatar_design):
    # A design read back from design.json has its keys sorted.  Summed
    # in reversed key order, Qatar's transport scale moves in its last
    # digit, so this pins the instance-order sum.
    reordered = replace(qatar_design, customer_dc=dict(
        reversed(list(qatar_design.customer_dc.items()))))
    assert (default_scales(qatar, reordered)
            == default_scales(qatar, qatar_design))


def test_resolve_scales_prefers_file_values(qatar, qatar_design):
    scales = resolve_scales(qatar, qatar_design)
    assert scales.affordability == 1e-4
    assert scales.transportation == 2e6
    assert scales.quality == 1.2e8


def test_resolve_scales_falls_back_to_defaults(tiny, tiny_design):
    assert tiny.normalization_scales is None
    assert resolve_scales(tiny, tiny_design) == default_scales(tiny, tiny_design)


def test_snapshot_contribution(tiny_design):
    data = tiny_dict()
    data["normalization_scales"] = {"affordability": 0.02,
                                    "transportation": 100.0, "quality": 60.0}
    instance = instance_from_dict(data)
    # D1 opens at 160 kg and ships 10 to C1, so R1 closes at 150 kg;
    # R2 stays empty.
    z1 = _z1(instance, tiny_design, [160.0, 0.0, 0.0],
             [10.0, 0.0, 0.0, 0.0, 0.0])
    # R1: affordability 0.01 / 0.02, transport 10 * sqrt(2) km, quality
    # the iron surplus 0.004 * 150 - 0.4 = 0.2.  R2: affordability only.
    r1 = 0.5 - 10.0 * 2.0 ** 0.5 / 100.0 + 0.2 / 60.0
    r2 = 25.0 / 1800.0 / 0.02
    assert z1 == pytest.approx(r1 + r2)


def test_indices_stay_in_unit_interval(tiny, tiny_design):
    import random

    rng = random.Random(7)
    scales = default_scales(tiny, tiny_design)
    region = tiny.regions[0]
    effort = link_effort(tiny, tiny_design)[:3]  # C1, C2, C3
    states = []
    for _ in range(200):
        inventory = rng.uniform(0.0, 270.0)
        shipments = [rng.uniform(0.0, 80.0) for _ in effort]
        states.append((affordability(region),
                       sum(e * q for e, q in zip(effort, shipments)),
                       raw_quality(tiny, region, inventory)))
    for index in snapshot(np.array(states).T, scales):
        assert ((0.0 <= index) & (index <= 1.0)).all()


@pytest.mark.parametrize("safety_stock", [0.0, 0.4, 0.9])
@pytest.mark.parametrize("name", ["tiny", "qatar"])
def test_period_z1_equals_the_scalar_reference(request, name, safety_stock):
    # Every period of a seed's chained sweep, bit for bit.
    instance = request.getfixturevalue(name)
    design = request.getfixturevalue(f"{name}_design")
    scales = resolve_scales(instance, design)
    config = StochasticConfig(safety_stock=safety_stock)
    for seed in (3, 4):
        previous = None
        for epsilon in (0.001, 0.01, 0.1, 1.0):
            previous = run_replication(instance, design, epsilon, seed,
                                       config=config, previous=previous)
            for decision in previous.periods:
                assert decision.accessibility == reference_z1(
                    instance, design, scales, decision)
