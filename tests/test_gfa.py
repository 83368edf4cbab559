"""Placement stage: Weiszfeld iteration, location-allocation, linkages."""

import dataclasses
import json
import math

import numpy as np
import pytest

from chainforge.errors import (InfeasibleConfigError, ParseError,
                               ValidationError)
from chainforge.gfa import (GfaConfig, assign_linkages, load_design,
                            locate_region, overloaded_warehouses, run_gfa,
                            save_design, weiszfeld_single)
from chainforge.model import euclidean_distance, instance_from_dict
from conftest import reference_weiszfeld, tiny_dict


def grid_search_effort(points, weights, step=0.1):
    """Brute-force reference: best weighted effort on a coordinate grid."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    gx = np.arange(min(xs) - 1.0, max(xs) + 1.0 + step / 2, step)
    gy = np.arange(min(ys) - 1.0, max(ys) + 1.0 + step / 2, step)
    best = float("inf")
    pts = np.asarray(points)
    wts = np.asarray(weights)
    for x in gx:
        d = np.hypot(pts[:, 0] - x, pts[:, 1] - gy[:, None])
        totals = d @ wts
        best = min(best, float(totals.min()))
    return best


def effort(points, weights, location):
    """Weighted effort: sum of weight times distance to the location."""
    return sum(w * math.dist(location, p) for p, w in zip(points, weights))


def test_single_point_is_its_own_median():
    assert weiszfeld_single([(3.0, 4.0)], [2.0]) == (3.0, 4.0)
    location, efforts = reference_weiszfeld([(3.0, 4.0)], [2.0])
    assert location == (3.0, 4.0)
    assert efforts == [0.0, 0.0]


def test_dominant_weight_pulls_to_that_point():
    # One customer outweighs all others combined, so the weighted median
    # sits on it.
    points = [(0.0, 0.0), (10.0, 0.0), (5.0, 8.0)]
    weights = [1.0, 1.0, 10.0]
    location = weiszfeld_single(points, weights)
    assert location[0] == pytest.approx(5.0, abs=1e-3)
    assert location[1] == pytest.approx(8.0, abs=1e-3)


def test_symmetric_square_median_is_center():
    points = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0)]
    location = weiszfeld_single(points, [1.0] * 4)
    assert location[0] == pytest.approx(1.0, abs=1e-6)
    assert location[1] == pytest.approx(1.0, abs=1e-6)


def test_objective_trace_descends():
    # The test-side loop lands on weiszfeld_single's location bit for
    # bit, from the centroid and from a given start, and its weighted
    # effort never rises from one iterate to the next.
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        points = [tuple(p) for p in rng.uniform(0, 50, size=(n, 2))]
        weights = list(rng.uniform(0.5, 20.0, size=n))
        for initial in (None, tuple(rng.uniform(0, 50, size=2))):
            location = weiszfeld_single(points, weights, initial=initial)
            replayed, trace = reference_weiszfeld(points, weights, initial)
            assert replayed == location
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
            assert trace[-1] == pytest.approx(
                effort(points, weights, location))


def test_matches_grid_search():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        points = [tuple(p) for p in rng.uniform(0, 30, size=(n, 2))]
        weights = list(rng.uniform(1.0, 10.0, size=n))
        location = weiszfeld_single(points, weights)
        reference = grid_search_effort(points, weights)
        assert effort(points, weights, location) <= reference * 1.005 + 1e-9


def test_weiszfeld_input_validation():
    with pytest.raises(ValidationError):
        weiszfeld_single([], [])
    with pytest.raises(ValidationError):
        weiszfeld_single([(0.0, 0.0)], [1.0, 2.0])


def test_locate_region_single_center_matches_weiszfeld(tiny):
    region = tiny.regions[1]    # one DC
    config = GfaConfig(restarts=3)
    placement = locate_region(region, config, np.random.default_rng(0))
    points = [c.location for c in region.customers]
    weights = [c.demand.mean for c in region.customers]
    direct = weiszfeld_single(points, weights)
    assert placement.objective == pytest.approx(
        effort(points, weights, direct), rel=1e-3)
    assert len(placement.locations) == 1


def test_locate_region_rejects_bad_counts(tiny):
    region = tiny.regions[0]    # two DCs, three customers
    crowded = dataclasses.replace(region, dcs=region.dcs * 2)
    with pytest.raises(InfeasibleConfigError):
        locate_region(crowded, GfaConfig(), np.random.default_rng(0))


def test_the_first_start_is_the_declared_sites(qatar):
    # One start is the declared DC sites, whatever the seed; a second
    # one, from customer sites the seed draws, wins on some seed.
    def located(restarts, seed):
        return run_gfa(qatar, GfaConfig(restarts=restarts,
                                        rng_seed=seed)).design.dc_locations

    seeds = (0, 7, 99)
    assert all(located(1, s) == located(1, 0) for s in seeds)
    assert len({tuple(located(2, s).values()) for s in seeds}) > 1


def test_assign_linkages_nearest(tiny, tiny_design):
    assert tiny_design.customer_dc == {
        "C1": "D1", "C2": "D1", "C3": "D2", "C4": "D3", "C5": "D3"}
    assert tiny_design.dc_warehouse == {"D1": "W1", "D2": "W1", "D3": "W2"}


def test_assign_linkages_tie_breaks_on_lower_id():
    data = tiny_dict()
    # C2 exactly between D1 (2,1) and D2 (8,1); DC equidistant from both
    # warehouses.
    data["regions"][0]["customers"][1]["location"] = [5.0, 1.0]
    data["regions"][1]["dcs"][0]["location"] = [15.0, 0.0]
    instance = instance_from_dict(data)
    design = assign_linkages(
        instance, {dc.id: dc.location for dc in instance.dcs()})
    assert design.customer_dc["C2"] == "D1"
    assert design.dc_warehouse["D3"] == "W1"


def test_assign_linkages_keeps_one_distance_per_link(
        tiny, tiny_design, qatar, qatar_design):
    assert tiny_design.distances["D1"]["C1"] == pytest.approx(2.0 ** 0.5)
    assert tiny_design.distances["D2"]["C3"] == pytest.approx(2.0 ** 0.5)
    for instance, design in ((tiny, tiny_design), (qatar, qatar_design)):
        # Every DC has a row, and each customer one entry, under its DC.
        assert list(design.distances) == [dc.id for dc in instance.dcs()]
        entries = [(h, c) for h, row in design.distances.items() for c in row]
        assert sorted(entries) == sorted(
            (h, c) for c, h in design.customer_dc.items())
        region = {dc.id: dc.region_id for dc in instance.dcs()}
        for customer in instance.customers():
            dc = design.customer_dc[customer.id]
            assert region[dc] == customer.region_id    # none across regions
            assert design.distances[dc][customer.id] == euclidean_distance(
                design.dc_locations[dc], customer.location)


def test_run_gfa_converges_and_covers_all_dcs(tiny):
    result = run_gfa(tiny, GfaConfig(rng_seed=1))
    assert result.converged
    assert set(result.design.dc_locations) == {"D1", "D2", "D3"}
    assert set(result.region_objectives) == {"R1", "R2"}
    assert all(v >= 0.0 for v in result.region_objectives.values())


@pytest.mark.parametrize("name", ["tiny", "qatar"])
def test_design_round_trip(name, request, tmp_path):
    instance = request.getfixturevalue(name)
    result = run_gfa(instance, GfaConfig(rng_seed=3))
    path = tmp_path / "design.json"
    save_design(result, str(path))
    assert load_design(str(path)) == result
    # Design files written before mean_local_demand was dropped still load.
    data = json.loads(path.read_text())
    data["mean_local_demand"] = {dc.id: 1.0 for dc in instance.dcs()}
    path.write_text(json.dumps(data))
    assert load_design(str(path)) == result


@pytest.mark.parametrize("field, value", [
    ("dc_locations", []),
    ("dc_locations", {"D1": []}),
    ("distances", {"D1": []}),
    ("z", 5),
    ("iterations_used", {"R1": 1e400}),
    # Values of the wrong JSON type that a bare float() or bool() accepts.
    ("dc_locations", {"D1": "12"}),
    ("converged", "no"),
    # A distance below zero, which would price transport as a gain.
    ("distances", {"D1": {"C1": -40.0}}),
])
def test_malformed_design_file_is_a_parse_error(tiny, tmp_path, field, value):
    path = tmp_path / "design.json"
    save_design(run_gfa(tiny, GfaConfig(rng_seed=3)), str(path))
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match="not a valid design file"):
        load_design(str(path))


def test_run_gfa_is_deterministic(tiny):
    a = run_gfa(tiny, GfaConfig(rng_seed=9))
    b = run_gfa(tiny, GfaConfig(rng_seed=9))
    assert a.design.dc_locations == b.design.dc_locations
    assert a.region_objectives == b.region_objectives


def test_run_gfa_beats_declared_locations(tiny):
    # The optimizer is free to keep the declared sites, so its weighted
    # effort can only match or beat them.
    declared = assign_linkages(tiny, {dc.id: dc.location for dc in tiny.dcs()})
    placed = run_gfa(tiny, GfaConfig(rng_seed=2))
    for region in tiny.regions:
        declared_effort = sum(
            c.demand.mean * declared.distances[declared.customer_dc[c.id]][c.id]
            for c in region.customers)
        assert (placed.region_objectives[region.id]
                <= declared_effort + 1e-9)


def test_overloaded_warehouses_on_the_packaged_instance(qatar):
    # R1's four DCs all link to W1 (9,000 kg).  Their 26 customers draw
    # 14,560 kg per period, 18,200 kg of shipments at the lowest
    # retention 0.8; W2 and W3 carry less than their 50,000 kg.
    design = run_gfa(qatar, GfaConfig(rng_seed=0)).design
    [(warehouse, figures)] = overloaded_warehouses(qatar, design).items()
    assert warehouse == "W1"
    assert figures == pytest.approx((14_560.0, 18_200.0, 9_000.0))
