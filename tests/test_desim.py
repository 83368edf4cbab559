"""Discrete-event replay: policies, conservation, and the validation file."""

import itertools
import math
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest

from chainforge import desim
from chainforge.desim import (KINDS, SimConfig, SimReport, run_validation,
                              service_level, simulate, write_validation_csv)
from chainforge.errors import ConfigError
from chainforge.gfa import assign_linkages
from chainforge.model import instance_from_dict, running_sum
from chainforge.stochastic import (OperationalPlan, default_initial_inventory,
                                   replication_seed, sample_scenario)

from conftest import (reference_simulate, replayed_inventory_cost, same_log,
                      tiny_dict)



def make_plan(instance, safety_stock=None, inventory=None):
    v = instance.safety_stock_fraction if safety_stock is None else safety_stock
    opening = (default_initial_inventory(instance, v)
               if inventory is None else dict(inventory))
    return OperationalPlan(
        epsilon=0.01, safety_stock=v, initial_inventory=opening,
        z1=1.0, z1_se=0.0, z2=1000.0, z2_se=0.0, inventory_cost=500.0,
        unfulfilled_cost=300.0, order_cost=200.0, master_seed=0,
        replications=10)


def test_service_level_definition():
    assert service_level(3.0, 4.0) == 0.75
    assert service_level(0.0, 0.0) == 1.0
    assert service_level(0.0, 5.0) == 0.0


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(run_index=-1)
    with pytest.raises(ConfigError):
        SimConfig(backlog="maybe")


def test_plan_must_cover_dcs(tiny, tiny_design):
    plan = make_plan(tiny, inventory={"D1": 10.0})
    with pytest.raises(ConfigError, match="plan inventories"):
        simulate(tiny, tiny_design, plan)


def test_safety_stock_range_checked(tiny, tiny_design):
    plan = make_plan(tiny, safety_stock=1.2)
    with pytest.raises(ConfigError, match="outside"):
        simulate(tiny, tiny_design, plan)


def test_initial_stock_capped_by_capacity(tiny, tiny_design):
    plan = make_plan(tiny, inventory={"D1": 500.0, "D2": 24.0, "D3": 20.0})
    with pytest.raises(ConfigError):
        simulate(tiny, tiny_design, plan)
    plan = make_plan(tiny, inventory={"D1": math.nan, "D2": 24.0, "D3": 20.0})
    with pytest.raises(ConfigError, match="initial inventory nan outside"):
        simulate(tiny, tiny_design, plan)


def test_conservation_exact_per_dc(tiny, tiny_design):
    # Replaying the log from the plan's opening stock ships nothing a DC
    # does not hold, and the stock at each boundary books the reported
    # holding cost bit for bit.
    starved = {"D1": 5.0, "D2": 5.0, "D3": 5.0}
    for plan in (make_plan(tiny), make_plan(tiny, safety_stock=0.0,
                                            inventory=starved)):
        for backlog in ("wait", "drop"):
            report = simulate(tiny, tiny_design, plan,
                              SimConfig(rng_seed=5, backlog=backlog))
            assert replayed_inventory_cost(
                tiny, plan, report.events) == report.inventory_cost


def test_orders_are_all_or_nothing(tiny, tiny_design):
    plan = make_plan(tiny)
    config = SimConfig(rng_seed=3)
    report = simulate(tiny, tiny_design, plan, config)
    placed = {}
    for event in report.events:
        if event.kind == "order":
            placed.setdefault(event.customer, []).append(event.quantity)
    # A shipment may serve a queued order from an earlier period, but it
    # always matches one placed quantity in full.
    for event in report.events:
        if event.kind == "ship":
            sizes = placed[event.customer]
            assert any(abs(event.quantity - q) < 1e-12 for q in sizes)


def test_order_sizes_match_scenario_demands(tiny, tiny_design):
    plan = make_plan(tiny)
    config = SimConfig(rng_seed=6, run_index=2)
    report = simulate(tiny, tiny_design, plan, config)
    scenario = sample_scenario(tiny, replication_seed(6, 2))
    ordered = {}
    for event in report.events:
        if event.kind == "order":
            key = (event.customer, event.period)
            ordered[key] = ordered.get(key, 0.0) + event.quantity
    row = {c.id: i for i, c in enumerate(tiny.customers())}
    for (customer, period), total in ordered.items():
        assert total == pytest.approx(scenario.demand[row[customer], period])


def test_first_orders_frozen(tiny, tiny_design):
    # Event times and order sizes follow the seeded streams exactly.
    report = simulate(tiny, tiny_design, make_plan(tiny),
                      SimConfig(rng_seed=6, run_index=2))
    orders = [(e.time, e.customer, e.quantity) for e in report.events
              if e.kind == "order"][:4]
    assert orders == [(0.08967129929243856, "C4", 44.353247016829656),
                      (0.3713508152685979, "C3", 38.03153715933704),
                      (0.48427075011877496, "C5", 24.12877120178456),
                      (0.728211202770426, "C1", 39.57280866513592)]


def test_each_stream_is_drawn_in_one_call(tiny, tiny_design, monkeypatch):
    # sample_scenario draws all demands in one call and all retention in
    # another; simulate draws every event time in a third.
    calls = []
    real = np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self._rng = real(seed)

        def __getattr__(self, name):
            calls.append(name)
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    simulate(tiny, tiny_design, make_plan(tiny))
    assert calls == ["normal", "uniform", "uniform"]


def test_starved_network_reports_unmet_demand(tiny, tiny_design):
    # No reorders ever fire at v=0 and the shelves start almost empty.
    plan = make_plan(tiny, safety_stock=0.0,
                     inventory={"D1": 5.0, "D2": 5.0, "D3": 5.0})
    report = simulate(tiny, tiny_design, plan, SimConfig(rng_seed=2))
    assert report.unfulfilled_cost > 0.0
    assert report.service_level < 1.0
    assert report.orders_expired > 0
    assert report.orders_dropped == 0


def test_drop_mode_rejects_immediately(tiny, tiny_design):
    plan = make_plan(tiny, safety_stock=0.0,
                     inventory={"D1": 5.0, "D2": 5.0, "D3": 5.0})
    report = simulate(tiny, tiny_design, plan,
                      SimConfig(rng_seed=2, backlog="drop"))
    assert report.orders_dropped > 0
    assert report.orders_expired == 0
    assert all(e.kind != "wait" for e in report.events)


def test_wait_mode_queues_behind(tiny, tiny_design):
    plan = make_plan(tiny, safety_stock=0.0,
                     inventory={"D1": 5.0, "D2": 5.0, "D3": 5.0})
    report = simulate(tiny, tiny_design, plan, SimConfig(rng_seed=2))
    waits = [e for e in report.events if e.kind == "wait"]
    assert waits
    # Expiry only at the very end of the horizon.
    for event in report.events:
        if event.kind == "expire":
            assert event.time == pytest.approx(float(tiny.horizon))


def test_service_levels_bounded_and_consistent(tiny, tiny_design):
    # Each region's ordered and shipped volumes, summed from the log in
    # event order, give the reported service levels exactly.
    order, ship = KINDS.index("order"), KINDS.index("ship")
    regions = [r.id for r in tiny.regions]
    region_of = {c.id: c.region_id for c in tiny.customers()}
    starved = {"D1": 5.0, "D2": 5.0, "D3": 5.0}
    for plan in (make_plan(tiny), make_plan(tiny, safety_stock=0.0,
                                            inventory=starved)):
        for backlog in ("wait", "drop"):
            report = simulate(tiny, tiny_design, plan,
                              SimConfig(rng_seed=12, backlog=backlog))
            log = report.events
            ordered = dict.fromkeys(regions, 0.0)
            served = dict.fromkeys(regions, 0.0)
            for kind, customer, quantity in zip(log.kind.tolist(),
                                                log.customer.tolist(),
                                                log.quantity.tolist()):
                if kind in (order, ship):
                    totals = ordered if kind == order else served
                    totals[region_of[log.customer_ids[customer]]] += quantity
            for region_id, level in report.service_levels.items():
                assert 0.0 <= level <= 1.0
                assert level == service_level(served[region_id],
                                              ordered[region_id])
            assert report.service_level == service_level(
                running_sum(served.values()), running_sum(ordered.values()))


def test_total_cost_property(tiny, tiny_design):
    plan = make_plan(tiny)
    report = simulate(tiny, tiny_design, plan, SimConfig(rng_seed=4))
    assert report.total_cost == pytest.approx(
        report.inventory_cost + report.unfulfilled_cost + report.order_cost)


def test_simulation_deterministic(tiny, tiny_design):
    plan = make_plan(tiny)
    a = simulate(tiny, tiny_design, plan, SimConfig(rng_seed=10))
    b = simulate(tiny, tiny_design, plan, SimConfig(rng_seed=10))
    assert same_log(a.events, b.events)
    assert a.total_cost == b.total_cost


def test_run_index_changes_the_draws(tiny, tiny_design):
    plan = make_plan(tiny)
    a = simulate(tiny, tiny_design, plan, SimConfig(rng_seed=10, run_index=0))
    b = simulate(tiny, tiny_design, plan, SimConfig(rng_seed=10, run_index=1))
    assert not same_log(a.events, b.events)


def test_run_validation_and_csv(tiny, tiny_design, tmp_path):
    plan = make_plan(tiny)
    reports = list(run_validation(tiny, tiny_design, plan,
                                  SimConfig(rng_seed=14), runs=5))
    assert len(reports) == 5
    path = str(tmp_path / "validation.csv")
    write_validation_csv(path, tiny, reports)
    lines = open(path).read().splitlines()
    assert lines[0] == ("run,inventory_cost,unfulfilled_cost,order_cost,"
                        "total_cost,service_R1,service_R2,service_total")
    assert len(lines) == 1 + 5 + 2
    assert lines[-2].startswith("mean,")
    assert lines[-1].startswith("se,")


def test_run_validation_needs_runs(tiny, tiny_design):
    plan = make_plan(tiny)
    with pytest.raises(ConfigError):
        run_validation(tiny, tiny_design, plan, SimConfig(), runs=0)


@pytest.mark.parametrize("backlog", ["wait", "drop"])
def test_validation_holds_one_run_at_a_time(tiny, tiny_design, tmp_path,
                                            monkeypatch, backlog):
    # Each run is simulated when write_validation_csv reads it and is
    # reduced to its row before the next starts: when run r starts, no
    # earlier report or event log is still alive.
    plan = make_plan(tiny)
    config = SimConfig(rng_seed=14, backlog=backlog)
    real = desim.simulate
    earlier = []
    alive_at_start = []

    def simulate_and_watch(*args):
        alive_at_start.append(sum(ref() is not None for ref in earlier))
        report = real(*args)
        earlier.extend((weakref.ref(report), weakref.ref(report.events)))
        return report

    monkeypatch.setattr(desim, "simulate", simulate_and_watch)
    lazy, listed = tmp_path / "lazy.csv", tmp_path / "listed.csv"
    write_validation_csv(str(lazy), tiny,
                         run_validation(tiny, tiny_design, plan, config, 4))
    assert alive_at_start == [0, 0, 0, 0]
    write_validation_csv(str(listed), tiny, list(
        run_validation(tiny, tiny_design, plan, config, 4)))
    assert lazy.read_bytes() == listed.read_bytes()


def test_merge_writes_each_event_into_its_slot():
    # Three orders; a refill laid in before the first pair (at 0), a
    # two-event ship run between the second and third pairs (at 4) and
    # an expiry run after the last pair (at 2n = 6), with the pool in run
    # order.
    order, ship, wait, receive, expire = map(
        KINDS.index, ("order", "ship", "wait", "receive", "expire"))
    orders = [np.array([0.25, 0.5, 1.75]),
              np.array([ship, wait, ship], dtype=np.int8),
              np.array([0, 0, 1], dtype=np.int32),
              np.array([0, 1, 0], dtype=np.int32),
              np.array([0, 1, 2], dtype=np.int32),
              np.array([1.0, 2.0, 3.0])]
    pool = [np.array([-1, 10, 11, 12, 13], dtype=np.int32),
            np.array([9.0, 1.5, 2.5, 3.5, 4.5])]
    runs = [(0, 0, receive, 0, 1, 1),
            (4, 1, ship, 1, 1, 2),
            (6, 2, expire, 1, 1, 2)]
    inputs = [weakref.ref(column) for column in orders + pool]
    time, kind, period, dc, customer, quantity = desim._merge(
        orders, runs, pool)
    # The merge owns its inputs: once it returns, none is left alive.
    assert orders == [None] * 6 and pool == [None] * 2 and runs == []
    assert [ref() for ref in inputs] == [None] * 8
    assert time.tolist() == [0, 0.25, 0.25, 0.5, 0.5, 1, 1, 1.75, 1.75, 2, 2]
    assert kind.tolist() == [receive, order, ship, order, wait, ship, ship,
                             order, ship, expire, expire]
    assert period.tolist() == [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
    assert dc.tolist() == [1, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1]
    assert customer.tolist() == [-1, 0, 0, 1, 1, 10, 11, 2, 2, 12, 13]
    assert quantity.tolist() == [9.0, 1.0, 1.0, 2.0, 2.0, 1.5, 2.5, 3.0, 3.0,
                                 3.5, 4.5]


def test_event_log_is_29_bytes_per_event(tiny, tiny_design):
    report = simulate(tiny, tiny_design, make_plan(tiny), SimConfig())
    columns = report.events.columns
    assert [c.dtype for c in columns] == [np.float64, np.int8, np.int32,
                                          np.int32, np.int32, np.float64]
    assert sum(c.itemsize for c in columns) == 29


@pytest.fixture(scope="module")
def generated_network(generated):
    """The generated network and a plan that opens every DC at its
    safety level."""
    instance, design = generated
    return instance, design, make_plan(instance)


@pytest.mark.parametrize("backlog", ["wait", "drop"])
def test_event_log_is_read_a_chunk_at_a_time(generated_network, backlog):
    report = simulate(*generated_network, SimConfig(rng_seed=1,
                                                    backlog=backlog))
    log = report.events
    assert len(log) > 80_000
    tracemalloc.start()
    try:
        waits = sum(event.kind == "wait" for event in log)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert waits == np.count_nonzero(log.kind == KINDS.index("wait"))
    assert peak < sum(column.nbytes for column in log.columns)
    # The events are those of one tolist() over each whole column.
    customers = log.customer_ids + (None,)
    whole = (desim.SimEvent(t, KINDS[k], p, log.dc_ids[d], customers[c], q)
             for t, k, p, d, c, q in zip(*(column.tolist()
                                          for column in log.columns)))
    assert all(a == b for a, b in itertools.zip_longest(log, whole))


@pytest.mark.parametrize("backlog", ["wait", "drop"])
def test_replay_holds_little_beyond_its_log(generated_network, backlog):
    # The merge takes the order columns, the pool and the runs, and
    # releases each as the log column it feeds is written, and the
    # per-region tallies are one bincount each, so a replay's traced peak
    # is its log and under 1 MB more.
    config = SimConfig(rng_seed=1, backlog=backlog)
    simulate(*generated_network, config)    # lazy imports and caches
    tracemalloc.start()
    try:
        report = simulate(*generated_network, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    log = sum(column.nbytes for column in report.events.columns)
    assert peak - log < 1_000_000


def assert_same_replay(report, oracle):
    for name in (f.name for f in fields(SimReport)):
        if name != "events":
            assert getattr(report, name) == getattr(oracle, name), name
    assert len(report.events) == len(oracle.events)
    assert list(report.events) == oracle.events


@pytest.mark.parametrize("backlog", ["wait", "drop"])
@pytest.mark.parametrize("network, safety_stock", [
    *(pytest.param(network, v, id=f"{network}-{v}")
      for network in ("tiny", "qatar") for v in (0.0, 0.4, 0.9)),
    pytest.param("generated_network", None, id="generated")])
def test_replay_equals_the_scalar_reference(request, network, safety_stock,
                                            backlog):
    # Every report field and every event (time, kind, period, DC,
    # customer, quantity) equals the one-event-at-a-time loop's, and the
    # log conserves stock.  Qatar's W1 and the generated network's
    # warehouses are asked for more than they hold, so refills get
    # scaled down; the generated network's 45,000 orders a run, with
    # thousands waiting at once, run under one seed.
    if network == "generated_network":
        instance, design, plan = request.getfixturevalue(network)
        seeds = [(1, 0)]
    else:
        instance = request.getfixturevalue(network)
        design = request.getfixturevalue(f"{network}_design")
        plan = make_plan(instance, safety_stock=safety_stock)
        seeds = [(0, 0), (5, 1), (11, 4)]
    for seed, run_index in seeds:
        config = SimConfig(rng_seed=seed, run_index=run_index,
                           backlog=backlog)
        report = simulate(instance, design, plan, config)
        assert_same_replay(report,
                           reference_simulate(instance, design, plan, config))
        assert replayed_inventory_cost(
            instance, plan, report.events) == report.inventory_cost


@pytest.mark.parametrize("backlog", ["wait", "drop"])
def test_starved_replay_equals_the_scalar_reference(tiny, tiny_design,
                                                    backlog):
    plan = make_plan(tiny, safety_stock=0.0,
                     inventory={"D1": 5.0, "D2": 5.0, "D3": 5.0})
    for seed in (2, 3):
        config = SimConfig(rng_seed=seed, backlog=backlog)
        assert_same_replay(simulate(tiny, tiny_design, plan, config),
                           reference_simulate(tiny, tiny_design, plan, config))


@pytest.mark.parametrize("backlog", ["wait", "drop"])
def test_replay_runs_in_instance_order(backlog):
    # With D1 renamed D9 the instance order (D9, D2, D3) is not id
    # order.  Boundaries serve, review and refill the DCs in instance
    # order, as the planner indexes them.
    data = tiny_dict()
    data["regions"][0]["dcs"][0]["id"] = "D9"
    instance = instance_from_dict(data)
    design = assign_linkages(instance,
                             {dc.id: dc.location for dc in instance.dcs()})
    for safety_stock in (0.0, 0.4, 0.9):
        plan = make_plan(instance, safety_stock=safety_stock)
        for seed, run_index in [(0, 0), (5, 1)]:
            config = SimConfig(rng_seed=seed, run_index=run_index,
                               backlog=backlog)
            report = simulate(instance, design, plan, config)
            assert report.events.dc_ids == ("D9", "D2", "D3")
            assert_same_replay(
                report, reference_simulate(instance, design, plan, config))
