"""The benchmark tracer's seams: every name it wraps still exists.

bench/trace_cli.py times each layer by replacing a function on the
module that calls it, looked up by name, so a renamed or inlined
function would otherwise break only the slow traced benchmark runs.
"""

import importlib
import os

import pytest

from chainforge.desim import SimConfig, simulate
from chainforge.stochastic import OperationalPlan, default_initial_inventory

from conftest import reference_simulate

BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


def test_every_wrapped_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    trace_cli = importlib.import_module("trace_cli")
    seams = [*trace_cli.LAYER_WRAPPERS, trace_cli.SWEEP_WRAPPER,
             ("chainforge.stochastic", "audit_replication", "audit")]
    missing = [f"{module}.{attribute}" for module, attribute, _ in seams
               if not callable(getattr(importlib.import_module(module),
                                       attribute, None))]
    assert missing == []
    # The I/O wrappers know where each call's file path sits.
    assert set(trace_cli.IO_PATH_ARG) <= {
        attribute for _, attribute, layer in trace_cli.LAYER_WRAPPERS
        if layer == "io"}


def test_accessibility_seams_are_called(monkeypatch, tiny, tiny_design):
    # The traced accessibility layer is these two calls: one
    # resolve_scales per template, one snapshot per period.
    from chainforge import stochastic

    calls = {"resolve_scales": 0, "snapshot": 0}
    for name in calls:
        def counted(*args, inner=getattr(stochastic, name), name=name):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(stochastic, name, counted)
    first = stochastic.run_replication(tiny, tiny_design, 0.01, 5)
    assert calls == {"resolve_scales": 1, "snapshot": tiny.horizon}
    stochastic.run_replication(tiny, tiny_design, 0.1, 5, previous=first)
    assert calls == {"resolve_scales": 1, "snapshot": 2 * tiny.horizon}


@pytest.mark.parametrize("backlog", ["wait", "drop"])
def test_desim_counters_read_the_event_log(monkeypatch, tiny, tiny_design,
                                           backlog):
    # The traced desim.* counters come from the report's event log; they
    # must count what the one-event-at-a-time replay logs.
    monkeypatch.syspath_prepend(BENCH)
    trace_cli = importlib.import_module("trace_cli")
    plan = OperationalPlan(
        epsilon=0.01, safety_stock=0.4,
        initial_inventory=default_initial_inventory(tiny, 0.4),
        z1=1.0, z1_se=0.0, z2=1000.0, z2_se=0.0, inventory_cost=500.0,
        unfulfilled_cost=300.0, order_cost=200.0, master_seed=0,
        replications=10)
    config = SimConfig(rng_seed=2, backlog=backlog)
    tracer = trace_cli.Tracer()
    tracer._observe_desim("simulate", (tiny, tiny_design, plan, config),
                          simulate(tiny, tiny_design, plan, config))
    oracle = reference_simulate(tiny, tiny_design, plan, config)
    kinds = [event.kind for event in oracle.events]
    assert {name: tracer.desim[name] for name in
            ("orders", "events", "waited", "dropped", "expired")} == {
        "orders": kinds.count("order"), "events": len(kinds),
        "waited": kinds.count("wait"), "dropped": kinds.count("drop"),
        "expired": kinds.count("expire")}
    assert tracer.desim["waited" if backlog == "wait" else "dropped"] > 0
