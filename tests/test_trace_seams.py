"""The benchmark tracer's seams: every name it wraps still exists.

bench/trace_cli.py times each layer by replacing a function on the
module that calls it, looked up by name, so a renamed or inlined
function would otherwise break only the slow traced benchmark runs.
"""

import importlib
import os

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
