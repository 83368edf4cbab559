"""Scenario sampling, per-period models, replication runs, and plans."""

import copy
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import chainforge
from chainforge import stochastic
from chainforge.errors import (ConfigError, DomainError, ParseError,
                               ValidationError)
from chainforge.milp import Status, solve_milp
from chainforge.pareto import sweep
from chainforge.stochastic import (OperationalPlan, PeriodTemplate,
                                   StochasticConfig, audit_replication,
                                   build_period_model,
                                   default_initial_inventory,
                                   linked_retention, load_plan,
                                   plan_from_estimate,
                                   quality_curves, replication_seed,
                                   replication_seeds, run_replication,
                                   sample_scenario, save_plan)
from conftest import index, raw_quality, same_record


# ---------------------------------------------------------------- seeds

def test_replication_seed_frozen_values():
    # The derivation convention is part of the file format of matched
    # runs, so the exact integers are pinned.
    assert replication_seed(0, 0) == 6471241595694517897
    assert replication_seed(0, 1) == 3799108769564693748
    assert replication_seed(123, 7) == 7396029080526399486
    assert replication_seed(0, 0, stream="events") == 5414182734145101458


def test_replication_seed_convention():
    # 63-bit value from the first eight digest bytes.
    digest = hashlib.sha256(b"5:2:scenario").digest()
    expected = int.from_bytes(digest[:8], "big") >> 1
    assert replication_seed(5, 2) == expected
    assert 0 <= replication_seed(5, 2) < 2 ** 63


def test_replication_seed_streams_differ():
    assert replication_seed(1, 0) != replication_seed(1, 0, stream="events")
    assert replication_seed(1, 0) != replication_seed(0, 1)


# ------------------------------------------------------------- sampling

def test_sample_scenario_covers_everything(tiny):
    scenario = sample_scenario(tiny, 42)
    assert scenario.demand.shape == (len(tiny.customers()), tiny.horizon)
    assert scenario.retention.shape == (
        len(tiny.warehouses), len(tiny.dcs()), tiny.horizon)


def test_sample_scenario_bounds(tiny):
    scenario = sample_scenario(tiny, 7)
    assert (scenario.demand >= 0.0).all()
    low, high = tiny.supply_loss.low, tiny.supply_loss.high
    assert ((low <= scenario.retention) & (scenario.retention <= high)).all()


def test_sample_scenario_deterministic(tiny):
    a = sample_scenario(tiny, 99)
    b = sample_scenario(tiny, 99)
    c = sample_scenario(tiny, 100)
    assert np.array_equal(a.demand, b.demand)
    assert np.array_equal(a.retention, b.retention)
    assert not np.array_equal(a.demand, c.demand)


def test_sample_scenario_frozen_values(qatar):
    # Matched runs rely on the draws, so some exact values are pinned:
    # demand[customer, period] in instance.customers() order and
    # retention[warehouse, dc, period] in warehouses x dcs() order.
    scenario = sample_scenario(qatar, replication_seed(0, 0))
    customers = [c.id for c in qatar.customers()]
    dcs = [dc.id for dc in qatar.dcs()]
    warehouses = [w.id for w in qatar.warehouses]
    demand = {(customers[c], t): scenario.demand[c, t]
              for c, t in ((0, 0), (0, 1), (5, 3), (37, 4))}
    assert demand == {("C1", 0): 565.8329010822481,
                      ("C1", 1): 572.30659817502,
                      ("C6", 3): 553.7603927031741,
                      ("C38", 4): 556.8828573444097}
    retention = {(warehouses[w], dcs[d], t): scenario.retention[w, d, t]
                 for w, d, t in ((0, 0, 0), (1, 3, 2), (2, 7, 4))}
    assert retention == {("W1", "DC1", 0): 0.8162623346717675,
                         ("W2", "DC4", 2): 0.814037287401573,
                         ("W3", "DC8", 4): 0.8231908986455124}


def test_zero_std_customers_hold_their_mean():
    from chainforge.model import instance_from_dict
    from conftest import tiny_dict

    # Only C5 has a positive std.  The others hold their mean and draw
    # nothing, so C5's demands are the stream's first three normals.
    data = tiny_dict()
    data["stochastic"]["demand"]["variance"] = 0.0
    instance = instance_from_dict(data)
    held = sample_scenario(instance, 3)
    assert (held.demand[:4] == 40.0).all()
    rng = np.random.default_rng(3)
    c5 = [max(0.0, float(rng.normal(25.0, 4.0))) for _ in range(3)]
    assert held.demand[4].tolist() == c5


def test_demand_truncation_at_zero():
    from chainforge.model import instance_from_dict
    from conftest import tiny_dict

    data = tiny_dict()
    # Deeply negative mean draws are clamped, not redrawn.
    data["stochastic"]["demand"] = {"family": "normal", "mean": 1.0,
                                    "std": 30.0}
    instance = instance_from_dict(data)
    scenario = sample_scenario(instance, 4)
    assert scenario.demand.min() == 0.0
    assert scenario.demand.max() > 0.0


# -------------------------------------------------------- quality terms

def test_quality_terms_tiny(tiny):
    r1, r2 = quality_curves(tiny, tiny.safety_stock_fraction)
    # Protein needs more stock than either region can hold, so it adds
    # no breakpoint and no slope.  Iron's threshold (100 kg in R1, 50 kg
    # in R2) lies inside each band [0.2 * capacity, capacity] and is its
    # one breakpoint: flat below it, 0.004 per kg above.
    assert r1.points.tolist() == pytest.approx([54.0, 100.0, 270.0])
    assert r2.points.tolist() == pytest.approx([20.0, 50.0, 100.0])
    for curve in (r1, r2):
        assert curve.points.size == 3  # one breakpoint
        assert curve.slopes.tolist() == pytest.approx([0.0, 0.004])


def test_quality_terms_always_active_when_floor_covers_threshold(tiny):
    # With the floor at 80% of capacity the iron threshold is guaranteed:
    # no breakpoint is left, and the index is linear over the band.
    r1, r2 = quality_curves(tiny, 0.8)
    assert r1.points.tolist() == pytest.approx([216.0, 270.0])
    assert r1.slopes.size == 1  # no breakpoint
    assert r1.slopes.tolist() == pytest.approx([0.004])
    # At safety stock 1 each band is one point.
    for curve in quality_curves(tiny, 1.0):
        assert curve.points[0] == curve.points[-1]
        assert curve.slopes.size == 1


def test_quality_terms_qatar_counts(qatar):
    curves = quality_curves(qatar, qatar.safety_stock_fraction)
    # Breakpoints: the points strictly between floor and capacity.
    assert [curve.points.size - 2 for curve in curves] == [2, 3, 2, 2]
    for curve in curves:
        # Each breakpoint starts one more nutrient's surplus: convex.
        assert (np.diff(curve.points) > 0).all()
        assert (np.diff(curve.slopes) > 0).all()
    # R4's vitamin D threshold is its whole storage: no surplus is
    # reachable, so it adds no breakpoint.
    region = qatar.regions[3]
    [vitamin_d] = [nt for nt in qatar.nutrients if nt.id == "D"]
    threshold = (vitamin_d.min_requirement * region.population
                 / vitamin_d.per_kg_content)
    assert threshold >= curves[3].points[-1]


# ---------------------------------------------------------- period model

def _solve_period(instance, design, opening, demand, epsilon, safety_stock):
    template = PeriodTemplate(instance, design, safety_stock)
    retention = [0.85] * len(instance.dcs())
    model = build_period_model(
        template, epsilon, [opening[dc.id] for dc in instance.dcs()], demand,
        retention)
    result = solve_milp(model)
    assert result.status is Status.OPTIMAL
    return template, result


def _order_and_delivery_columns(instance, design, dc_id):
    """A DC's order column and its deliveries' columns in the template's
    layout: orders in dcs() order, then deliveries in customers() order."""
    dcs = instance.dcs()
    order_col = [dc.id for dc in dcs].index(dc_id)
    deliveries = [len(dcs) + i for i, c in enumerate(instance.customers())
                  if design.customer_dc[c.id] == dc_id]
    return order_col, deliveries


def test_period_model_surplus_matches_plus_form(tiny, tiny_design):
    # Fill R1 well above the iron threshold.  The model prices the closing
    # stock through the clamped plus-form, so its optimum plus the terms
    # that the opening stock and demand fix alone equals the period
    # objective evaluated from the extracted flows: accessibility without
    # its constant affordability part, less epsilon * cost.
    opening = {"D1": 140.0, "D2": 110.0, "D3": 20.0}
    demand = [10.0] * len(tiny.customers())
    template, result = _solve_period(
        tiny, tiny_design, opening, demand, 0.01, tiny.safety_stock_fraction)
    decision = stochastic._extract_period(
        template, result.values, list(opening.values()), demand,
        [0.85] * 3, 0)
    closing = decision.inventory[0] + decision.inventory[1]
    assert closing > 100.0
    assert decision.aux[0, 1] == pytest.approx(0.004 * closing - 0.4)
    constant = sum(r.weights.affordability * index(
        r.local_food_cost / r.average_income, template.scales.affordability)
        for r in tiny.regions)
    cost = (decision.inventory_cost + decision.unfulfilled_cost
            + decision.order_cost)
    # The fixed terms: each region's quality value at the stock its columns
    # start from (the band floor for a curve with breakpoints, the opening
    # total for a linear one), less epsilon times the cost of holding the
    # opening stock and of leaving all demand unmet.
    fixed = 0.0
    for region, curve in zip(tiny.regions, quality_curves(
            tiny, tiny.safety_stock_fraction)):
        start = (curve.points[0] if len(curve.slopes) > 1
                 else sum(opening[dc.id] for dc in region.dcs))
        fixed += region.weights.quality / template.scales.quality * raw_quality(
            tiny, region, start)
    fixed -= 0.01 * (template.holding @ list(opening.values())
                     + template.unmet_cost @ demand)
    assert result.objective + fixed == pytest.approx(
        decision.accessibility - constant - 0.01 * cost, abs=1e-9)


def test_period_model_needs_a_value_per_customer_and_dc(tiny, tiny_design):
    template = PeriodTemplate(tiny, tiny_design, 0.2)
    opening = [20.0] * 3
    with pytest.raises(ConfigError, match="one demand per customer"):
        build_period_model(template, 0.01, opening, [10.0] * 3, [0.85] * 3)
    with pytest.raises(ConfigError, match="one retention per DC"):
        build_period_model(template, 0.01, opening, [10.0] * 5, [0.85] * 4)
    with pytest.raises(ConfigError, match="one opening stock per DC"):
        build_period_model(template, 0.01, opening[:2], [10.0] * 5, [0.85] * 3)


def test_period_model_rejects_nan_demand_or_retention(tiny, tiny_design,
                                                      monkeypatch):
    # A NaN draw must stop the replication with the model check's error,
    # not reach the solver.
    real_sample = stochastic.sample_scenario
    for axis, entry in (("demand", (0, 0)), ("retention", (..., 0))):
        def poisoned(instance, seed, axis=axis, entry=entry):
            scenario = real_sample(instance, seed)
            getattr(scenario, axis)[entry] = np.nan
            return scenario

        monkeypatch.setattr(stochastic, "sample_scenario", poisoned)
        with pytest.raises(ValidationError):
            run_replication(tiny, tiny_design, 0.02, 1234)


def test_period_model_respects_inventory_band(tiny, tiny_design):
    opening = default_initial_inventory(tiny, 0.2)
    demand = [30.0] * len(tiny.customers())
    template, result = _solve_period(
        tiny, tiny_design, opening, demand, 0.05, tiny.safety_stock_fraction)
    for region in tiny.regions:
        for dc in region.dcs:
            order_col, delivery_cols = _order_and_delivery_columns(
                tiny, tiny_design, dc.id)
            delivered = sum(result.values[c] for c in delivery_cols)
            closing = (opening[dc.id] + 0.85 * result.values[order_col]
                       - delivered)
            assert 0.2 * dc.capacity - 1e-6 <= closing <= dc.capacity + 1e-6


def test_qatar_period_zero_model_bits_are_pinned(qatar, qatar_design):
    # sha256 of the dense arrays of Qatar's period 0 model,
    # taken from the piecewise-linear quality form once it had matched the
    # optimum of the per-term indicator form it replaced on over 870 cold
    # period models.
    expected = {
        0.0: ((73, 100), {
            "A": "5f46d5a0bf83c5bec0f91f323759f539e410661c23898a901ecc6182d1e0d4c8",
            "c": "3ed5c9ef3401a47c06cd048f9035dde544195990c08be1ebe54a67601646b116",
            "ub": "b2ece0ae27938a125f43ed25c4425e950547a1bbd2a644bab6fdd12024ddd4d3",
            "b": "1464e5fab29ee518325243023378b0c0cb4ac998f343d3f364acf642f878937c"}),
        0.4: ((41, 68), {
            "A": "6227ae42c7cc11604e7bc422af031c2f5cb09ba973df2bc57077e09540d616f8",
            "c": "ee066f35d52b1f6530fd334c414422eb5888f8ef0d9a21a157fb651ee50cc1c0",
            "ub": "53d925c2bf28faf129f2b0a39a8113baeafe3ad1a8543c1f9f8b18cbd8624573",
            "b": "ece2b40d7e723dd4189cabec7b4c4253851268e47134af2bdd2bcec76dd34516"}),
    }
    scenario = sample_scenario(qatar, replication_seed(0, 0))
    retention = linked_retention(qatar, qatar_design, scenario)
    for safety_stock, (shape, digests) in expected.items():
        template = PeriodTemplate(qatar, qatar_design, safety_stock)
        opening = default_initial_inventory(qatar, safety_stock)
        model = build_period_model(
            template, 0.01, [opening[dc.id] for dc in qatar.dcs()],
            scenario.demand[:, 0].tolist(), retention[:, 0].tolist())
        assert model.A.shape == shape
        found = {name: hashlib.sha256(getattr(model, name).tobytes()).hexdigest()
                 for name in ("A", "c", "ub", "b")}
        assert found == digests


@pytest.mark.parametrize("safety_stock", [0.0, 0.4])
def test_template_holds_a_few_copies_of_its_rows(generated, safety_stock):
    # A row is built from the columns it touches, not picked out of an
    # n x n identity, so building the template of a network with 1,500
    # customers peaks at a few copies of its constraint matrix.
    PeriodTemplate(*generated, safety_stock)    # lazy imports and caches
    tracemalloc.start()
    try:
        template = PeriodTemplate(*generated, safety_stock)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert template.A.shape[1] > 1500
    assert peak < 3 * template.A.nbytes


def test_safety_stock_one_leaves_only_flows(tiny, tiny_design, qatar,
                                            qatar_design):
    # At safety stock 1 every band is one point, so each region's quality
    # value is a constant: the model has no quality column, no binary,
    # and every DC closes full.
    config = StochasticConfig(replications=1, safety_stock=1.0)
    for instance, design in ((tiny, tiny_design), (qatar, qatar_design)):
        template = PeriodTemplate(instance, design, 1.0)
        dcs = instance.dcs()
        assert template.A.shape[1] == len(dcs) + len(instance.customers())
        assert template.binary.size == 0
        result = run_replication(instance, design, 0.01, 7, config=config)
        assert audit_replication(instance, design, result) == []
        for period in result.periods:
            assert period.inventory.tolist() == pytest.approx(
                [dc.capacity for dc in dcs])


# ----------------------------------------------------------- replication

def test_run_replication_audit_clean(qatar, qatar_design):
    result = run_replication(qatar, qatar_design, 0.01,
                             replication_seed(0, 0))
    assert audit_replication(qatar, qatar_design, result) == []
    assert len(result.periods) == qatar.horizon
    assert result.total_cost == pytest.approx(
        result.inventory_cost + result.unfulfilled_cost + result.order_cost)


def test_run_replication_deterministic(tiny, tiny_design):
    a = run_replication(tiny, tiny_design, 0.02, 1234)
    b = run_replication(tiny, tiny_design, 0.02, 1234)
    assert a.accessibility == b.accessibility
    for pa, pb in zip(a.periods, b.periods):
        assert pa.orders.tolist() == pb.orders.tolist()
        assert pa.deliveries.tolist() == pb.deliveries.tolist()
        assert pa.inventory.tolist() == pb.inventory.tolist()
    assert same_record(a, b)
    assert same_record(a.scenario, b.scenario)
    other = run_replication(tiny, tiny_design, 0.02, 1235)
    assert not same_record(a, other)
    assert not same_record(a.scenario, other.scenario)
    # A replication chained on another epsilon's result is deterministic
    # too, and reuses that result's scenario.
    c = run_replication(tiny, tiny_design, 0.05, 1234, previous=a)
    assert same_record(
        c, run_replication(tiny, tiny_design, 0.05, 1234, previous=b))
    assert c.scenario is a.scenario


def test_chained_replications_audit_clean_and_price_round_off_as_none(
        qatar, qatar_design):
    # At safety stock 0 DCs run empty, where solver round-off leaves
    # stock of about 1e-12 that moves with the start basis.  It is priced
    # as none, so the chained and the independent costs agree exactly.
    config = StochasticConfig(safety_stock=0.0)
    seed = replication_seed(0, 0)
    previous = None
    for epsilon in (0.001, 0.01, 0.1, 1.0):
        result = run_replication(qatar, qatar_design, epsilon, seed,
                                 config=config, previous=previous)
        alone = run_replication(qatar, qatar_design, epsilon, seed,
                                config=config)
        assert audit_replication(qatar, qatar_design, result) == []
        assert same_record(result.scenario, alone.scenario)
        assert result.inventory_cost == alone.inventory_cost
        assert result.accessibility == pytest.approx(alone.accessibility,
                                                      rel=1e-12)
        previous = result


def test_run_replication_tiny_audit_clean(tiny, tiny_design):
    for seed in (replication_seed(3, r) for r in range(4)):
        result = run_replication(tiny, tiny_design, 0.05, seed)
        assert audit_replication(tiny, tiny_design, result) == []


def test_audit_reports_each_corruption_once(tiny, tiny_design):
    # Each corruption breaks one checked constraint and keeps the others
    # whole, so the audit must report it exactly once.
    clean = run_replication(tiny, tiny_design, 0.02, 1234)
    assert audit_replication(tiny, tiny_design, clean) == []
    retention = linked_retention(tiny, tiny_design, clean.scenario)
    D2, D3, C2, C5 = 1, 2, 1, 4  # positions in dcs() and customers()
    last = len(clean.periods) - 1

    def restock(result, j, level):
        # Move DC j's closing stock to level; ordering the difference
        # keeps the balance.
        period = result.periods[last]
        period.orders[j] += (level - period.inventory[j]) / retention[j, last]
        period.inventory[j] = level

    def unbalance(result):
        result.periods[last].orders[D2] += 1.0

    # D3 is R2's one DC: its safety level is 20 kg, its capacity 100 kg,
    # and R2's iron surplus is 0.004 * stock - 0.2, or 0 below 50 kg.
    def below_floor(result):
        restock(result, D3, 19.0)
        result.periods[last].aux[1, 1] = 0.0

    def above_capacity(result):
        restock(result, D3, 101.0)
        result.periods[last].aux[1, 1] = 0.004 * 101.0 - 0.001 * 200.0

    def overship(result):
        # W2 (400 kg) supplies only D3.  Period 0 opens that much lower,
        # so the balance holds.
        result.periods[0].orders[D3] += 400.0
        result.initial_inventory[D3] -= retention[D3, 0] * 400.0

    def overcount(result):
        result.periods[last].unmet[C2] += 1.0

    def negative(result):
        # C5's unmet demand becomes -0.5: D3 delivers, and orders, the
        # difference.
        period = result.periods[last]
        extra = period.unmet[C5] + 0.5
        period.unmet[C5] = -0.5
        period.deliveries[C5] += extra
        period.orders[D3] += extra / retention[D3, last]

    def surplus(result):  # R1 protein is unreachable: its surplus is 0
        result.periods[last].aux[0, 0] = 1.0

    cases = [
        (unbalance, last, "DC D2: balance off"),
        (below_floor, last, "DC D3: inventory 19 below safety level 20"),
        (above_capacity, last, "DC D3: inventory 101 above capacity 100"),
        (overship, 0, "warehouse W2: shipped"),
        (overcount, last, "customer C2: served + unmet"),
        (negative, last, "customer C5: negative flow"),
        (surplus, last, "region R1 nutrient protein: surplus 1, expected 0"),
    ]
    for corrupt, period, message in cases:
        result = copy.deepcopy(clean)
        corrupt(result)
        issues = audit_replication(tiny, tiny_design, result)
        assert len(issues) == 1, (corrupt.__name__, issues)
        assert issues[0].startswith(f"period {period} {message}"), issues


def test_expensive_ordering_goes_idle(tiny_design):
    # With ordering dearer than the unfulfilled penalty at any retained
    # fraction, a cost-dominated planner orders only to hold the floor.
    from chainforge.model import instance_from_dict
    from conftest import tiny_dict

    data = tiny_dict()
    for region in data["regions"]:
        region["unfulfilled_unit_cost"] = 0.1
    for warehouse in data["warehouses"]:
        warehouse["order_unit_cost"] = 50.0
    instance = instance_from_dict(data)
    result = run_replication(instance, tiny_design, 1000.0, 77)
    for period in result.periods:
        for qty in period.deliveries:
            assert qty == pytest.approx(0.0, abs=1e-6)


def test_accessibility_includes_constant_affordability(tiny, tiny_design):
    # The period objectives are the scalarized solver objective, which
    # drops the constant affordability part; the reported Z1 restores it.
    from chainforge.accessibility import resolve_scales

    result = run_replication(tiny, tiny_design, 0.01, 5)
    scales = resolve_scales(tiny, tiny_design)
    base = sum(
        region.weights.affordability
        * index(region.local_food_cost / region.average_income,
                scales.affordability)
        for region in tiny.regions) * tiny.horizon
    transport_and_quality = sum(
        p.accessibility - sum(
            r.weights.affordability * index(
                r.local_food_cost / r.average_income, scales.affordability)
            for r in tiny.regions)
        for p in result.periods)
    assert result.accessibility == pytest.approx(
        base + transport_and_quality, rel=1e-9)


# ------------------------------------------------------------- estimates

def _estimate(instance, design, epsilon, config):
    """The sweep's estimate on a one-point grid."""
    [estimate] = sweep(instance, design, (epsilon,), config).solutions
    return estimate


def test_estimate_single_replication_has_zero_se(tiny, tiny_design):
    estimate = _estimate(tiny, tiny_design, 0.02,
                         StochasticConfig(replications=1))
    assert estimate.z1_se == 0.0
    assert estimate.z2_se == 0.0
    # The one replication is the estimate.
    only = run_replication(tiny, tiny_design, 0.02, replication_seed(0, 0))
    assert (estimate.z1, estimate.z2) == (only.accessibility, only.total_cost)


def test_estimate_matched_seeds_reproducible(tiny, tiny_design):
    config = StochasticConfig(replications=5, master_seed=11)
    a = _estimate(tiny, tiny_design, 0.03, config)
    b = _estimate(tiny, tiny_design, 0.03, config)
    assert a.z1 == b.z1
    assert a.z2 == b.z2
    assert replication_seeds(config) == [replication_seed(11, r)
                                         for r in range(5)]


def test_worker_payload_survives_pickling(qatar, qatar_design):
    # Each work item of the sweep's process pool carries the instance,
    # design and config pickled.
    import pickle

    config = StochasticConfig(
        replications=2, master_seed=4, safety_stock=0.4, jobs=2)
    payload = (qatar, qatar_design, config)
    assert pickle.loads(pickle.dumps(payload)) == payload


def test_cost_weight_lowers_cost(tiny, tiny_design):
    # Same scenarios, stronger cost pricing: expected cost cannot rise.
    config = StochasticConfig(replications=6, master_seed=21)
    cheap, dear = sweep(tiny, tiny_design, (0.001, 5.0), config).solutions
    assert dear.z2 <= cheap.z2 + 1e-6


def test_config_validation():
    with pytest.raises(DomainError):
        StochasticConfig(replications=0)
    with pytest.raises(DomainError):
        StochasticConfig(safety_stock=-0.1)
    with pytest.raises(DomainError):
        StochasticConfig(jobs=0)
    # Above 1 the floor exceeds every DC's capacity; the config refuses
    # it before any grid point is built.
    with pytest.raises(DomainError, match=r"\[0, 1\]"):
        StochasticConfig(safety_stock=1.5)
    for edge in (0.0, 1.0):
        assert StochasticConfig(safety_stock=edge).safety_stock == edge


# ------------------------------------------------------------------ plans

def test_plan_round_trip(tiny, tiny_design, tmp_path):
    config = StochasticConfig(replications=2, master_seed=6)
    estimate = _estimate(tiny, tiny_design, 0.04, config)
    plan = plan_from_estimate(estimate, tiny, config)
    assert plan.safety_stock == tiny.safety_stock_fraction
    assert plan.initial_inventory == default_initial_inventory(
        tiny, tiny.safety_stock_fraction)
    seed = replication_seeds(config)[0]
    assert list(plan.initial_inventory.values()) == run_replication(
        tiny, tiny_design, 0.04, seed, config=config).initial_inventory.tolist()
    path = str(tmp_path / "plan.json")
    save_plan(plan, path)
    assert load_plan(path) == plan


def test_plan_load_rejects_bad_files(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text("[1, 2]")
    with pytest.raises(ParseError, match="JSON object"):
        load_plan(str(path))
    path.write_text("{}")
    with pytest.raises(ParseError, match="missing keys"):
        load_plan(str(path))
    good = {
        "epsilon": 0.1, "safety_stock": 0.2,
        "initial_inventory": {"D1": 10.0}, "z1": 1.0, "z1_se": 0.0,
        "z2": 2.0, "z2_se": 0.0, "inventory_cost": 1.0,
        "unfulfilled_cost": 0.5, "order_cost": 0.5, "master_seed": 0,
        "replications": 2}
    import json

    path.write_text(json.dumps({**good, "bonus": 1}))
    with pytest.raises(ParseError, match="unknown keys"):
        load_plan(str(path))
    # Plans written while a second balance form existed carry its key.
    path.write_text(json.dumps({**good, "balance_form": "delivered"}))
    with pytest.raises(ParseError, match="unknown keys balance_form"):
        load_plan(str(path))
    for key, value in (("master_seed", 1.9), ("replications", True)):
        path.write_text(json.dumps({**good, key: value}))
        with pytest.raises(ParseError, match=f"{key} must be an integer"):
            load_plan(str(path))
    path.write_text(json.dumps({**good, "initial_inventory": {"D1": True}}))
    with pytest.raises(ParseError, match="initial_inventory"):
        load_plan(str(path))
    for key, value, problem in (
            ("initial_inventory", {"D1": float("nan")},
             r"initial_inventory\.D1: must be finite"),
            ("epsilon", "0.1", "epsilon: expected a number"),
            ("z1", True, "z1: expected a number")):
        path.write_text(json.dumps({**good, key: value}))
        with pytest.raises(ParseError, match=problem):
            load_plan(str(path))
    with pytest.raises(ParseError, match="cannot read"):
        load_plan(str(tmp_path / "absent.json"))


# Run in a fresh interpreter that imports chainforge before numpy, as
# the command line does; prints each sweep worker's OS thread count
# after a solve and a product large enough for BLAS to share out.
_WORKER_THREADS = """
import json, os, sys
from chainforge import stochastic
from chainforge.gfa import assign_linkages
from chainforge.model import instance_from_dict
import numpy as np

def threads_after(*args):
    [outcome] = real(*args)
    assert isinstance(outcome, stochastic.ReplicationSummary)
    np.linalg.solve(np.eye(400) + 1.0, np.ones((400, 400)))
    return len(os.listdir("/proc/self/task"))

real, stochastic.summarize_seed = stochastic.summarize_seed, threads_after
instance = instance_from_dict(json.loads(sys.argv[1]))
design = assign_linkages(instance, {dc.id: dc.location for dc in instance.dcs()})
config = stochastic.StochasticConfig(replications=2, jobs=2)
print(stochastic.map_replications(instance, design, config, [0.01]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in Linux's /proc/self/task")
def test_sweep_workers_run_one_blas_thread():
    from conftest import tiny_dict
    env = {k: v for k, v in os.environ.items() if k not in chainforge._BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    result = subprocess.run(
        [sys.executable, "-c", _WORKER_THREADS, json.dumps(tiny_dict())],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[1, 1]\n"


def test_a_chosen_blas_thread_count_is_kept():
    env = {k: v for k, v in os.environ.items() if k not in chainforge._BLAS_VARS}
    env.update(OMP_NUM_THREADS="3", PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, "-c", "import os, chainforge; "
         "print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.stdout == "None\n", result.stderr
