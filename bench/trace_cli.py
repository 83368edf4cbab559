"""Run one ``chainforge`` command in-process and time its layers from outside.

    PYTHONPATH=src python3 bench/trace_cli.py --report spans.json \\
        --start <time.monotonic() before the process was started> \\
        [--only-sweep] -- run instance.json --out results ...

The package modules import functions by name, so each wrapper goes on
the name the caller looks up (``chainforge.stochastic.solve_milp``,
``chainforge.cli.sweep``, ...).  Every wrapped call records a span
(layer, start, end, parent span) in memory.  After ``cli.main`` returns,
the spans are reduced to per-layer call counts and self times (a span's
duration minus the durations of the spans it directly contains), the
replications the sweep produced are audited, and one JSON report is
written.  ``--only-sweep`` installs just the ``sweep()`` boundary, which
gives an almost untraced run with the sweep's wall time.

``wall_s`` runs from ``--start``, taken by the parent just before it
started this process, to the return of ``cli.main``; both sides read
``time.monotonic()``, which on Linux is the system-wide
``CLOCK_MONOTONIC``.  The wall therefore includes interpreter start-up
and imports, like the untraced command it stands in for.

Spans are kept on a per-thread stack, but the layer attribution assumes
one thread: trace with ``--jobs 1``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, attribute looked up by the caller, layer)
LAYER_WRAPPERS = (
    ("chainforge.cli", "load_instance", "model"),
    ("chainforge.cli", "run_gfa", "gfa"),
    ("chainforge.cli", "sweep", "pareto.sweep"),
    ("chainforge.cli", "extract_front", "pareto.front"),
    ("chainforge.cli", "write_front_csv", "pareto.front"),
    ("chainforge.cli", "render_front_svg", "pareto.front"),
    ("chainforge.cli", "save_design", "io"),
    ("chainforge.cli", "load_design", "io"),
    ("chainforge.cli", "write_solutions_csv", "io"),
    ("chainforge.cli", "read_solutions_csv", "io"),
    ("chainforge.cli", "save_plan", "io"),
    ("chainforge.cli", "load_plan", "io"),
    ("chainforge.cli", "write_validation_csv", "io"),
    ("chainforge.stochastic", "run_replication", "stochastic.replication"),
    ("chainforge.stochastic", "sample_scenario", "stochastic.sample"),
    ("chainforge.stochastic", "build_period_model", "stochastic.build"),
    ("chainforge.stochastic", "solve_milp", "milp"),
    ("chainforge.stochastic", "resolve_scales", "accessibility"),
    ("chainforge.stochastic", "snapshot", "accessibility"),
    ("chainforge.desim", "sample_scenario", "stochastic.sample"),
    ("chainforge.desim", "simulate", "desim"),
)
SWEEP_WRAPPER = ("chainforge.cli", "sweep", "pareto.sweep")

# Position of the file path among the positional arguments of each I/O call.
IO_PATH_ARG = {"save_design": 1, "save_plan": 1, "load_design": 0,
               "write_solutions_csv": 0, "read_solutions_csv": 0,
               "load_plan": 0, "write_validation_csv": 0}


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int | None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    milp_iterations: int = 0
    milp_nodes: int = 0
    milp_node_limit: int = 0
    desim: dict[str, float] = field(default_factory=lambda: {
        "orders": 0, "events": 0, "waited": 0, "dropped": 0, "expired": 0,
        "service_sum": 0.0})
    io_bytes: int = 0
    replications: list = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, module, attribute: str, layer: str) -> None:
        inner = getattr(module, attribute)
        observe = getattr(self, f"_observe_{layer.replace('.', '_')}", None)

        def traced(*args, **kwargs):
            stack = self._stack()
            index = len(self.spans)
            self.spans.append(Span(layer, time.perf_counter(), 0.0,
                                   stack[-1] if stack else None))
            stack.append(index)
            try:
                result = inner(*args, **kwargs)
            finally:
                self.spans[index].end = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(attribute, args, result)
            return result

        traced.__wrapped__ = inner
        setattr(module, attribute, traced)

    def _observe_milp(self, attribute, args, result) -> None:
        self.milp_iterations += result.iterations
        self.milp_nodes += result.nodes
        self.milp_node_limit += result.status.value == "node_limit"

    def _observe_desim(self, attribute, args, report) -> None:
        self.desim["orders"] += report.orders_placed
        self.desim["events"] += len(report.events)
        self.desim["waited"] += sum(e.kind == "wait" for e in report.events)
        self.desim["dropped"] += report.orders_dropped
        self.desim["expired"] += report.orders_expired
        self.desim["service_sum"] += report.service_level

    def _observe_io(self, attribute, args, result) -> None:
        self.io_bytes += os.path.getsize(args[IO_PATH_ARG[attribute]])

    def _observe_stochastic_replication(self, attribute, args, result) -> None:
        instance, design = args[0], args[1]
        self.replications.append((instance, design, result))

    def summary(self) -> dict:
        """Per-layer calls and self times, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        layers: dict[str, dict[str, float]] = {}
        milp_ms = []
        for span, inner in zip(self.spans, child_time):
            duration = span.end - span.start
            entry = layers.setdefault(span.layer, {"calls": 0, "self_s": 0.0,
                                                   "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += duration - inner
            entry["total_s"] += duration
            if span.layer == "milp":
                milp_ms.append(duration * 1e3)
        return {
            "layers": layers,
            # Time inside any span, summed without the self-time arithmetic.
            "root_s": sum(span.end - span.start for span in self.spans
                          if span.parent is None),
            "milp_ms": milp_ms,
            "counters": {
                "milp.iterations": self.milp_iterations,
                "milp.nodes": self.milp_nodes,
                "milp.node_limit": self.milp_node_limit,
                "desim.orders": self.desim["orders"],
                "desim.events": self.desim["events"],
                "desim.waited": self.desim["waited"],
                "desim.dropped": self.desim["dropped"],
                "desim.expired": self.desim["expired"],
                "io.bytes": self.io_bytes,
            },
            "desim_service_sum": self.desim["service_sum"],
        }

    def audit_violations(self) -> int:
        from chainforge.stochastic import audit_replication

        return sum(len(audit_replication(instance, design, result))
                   for instance, design, result in self.replications)


def install(tracer: Tracer, wrappers) -> None:
    for module_name, attribute, layer in wrappers:
        tracer.wrap(importlib.import_module(module_name), attribute, layer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True,
                        help="JSON file for the span summary")
    parser.add_argument("--start", type=float, required=True,
                        help="time.monotonic() just before this process started")
    parser.add_argument("--only-sweep", action="store_true",
                        help="wrap only the sweep() boundary")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="chainforge arguments, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    from chainforge import cli

    tracer = Tracer()
    install(tracer, [SWEEP_WRAPPER] if args.only_sweep else LAYER_WRAPPERS)
    try:
        code = cli.main(command)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    wall = time.monotonic() - args.start

    report = tracer.summary()
    report["wall_s"] = wall
    report["audit_violations"] = tracer.audit_violations()
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
