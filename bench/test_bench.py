"""Self-tests of the benchmark.  From the repository root:

    PYTHONPATH=src python3 -m pytest bench -q

They run the real generated network and a short Qatar grid: a few
seconds in all.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import gen_network  # noqa: E402
import run as bench  # noqa: E402
from trace_cli import Span, Tracer  # noqa: E402

def test_generator_is_deterministic(tmp_path):
    text = gen_network.dumps(gen_network.generate(7))
    assert gen_network.dumps(gen_network.generate(7)) == text
    assert gen_network.dumps(gen_network.generate(8)) != text
    written = []
    for name in ("a", "b"):
        instance, plan = tmp_path / f"{name}.json", tmp_path / f"{name}-plan.json"
        gen_network.write(7, str(instance), str(plan))
        written.append((instance.read_bytes(), plan.read_bytes()))
    assert written[0] == written[1]


def test_generated_network_loads_with_the_documented_sizes(tmp_path):
    from chainforge.model import load_instance
    from chainforge.stochastic import load_plan

    instance_path, plan_path = tmp_path / "net.json", tmp_path / "plan.json"
    gen_network.write(5, str(instance_path), str(plan_path))
    instance = load_instance(str(instance_path))
    assert len(instance.regions) == gen_network.REGIONS
    assert len(instance.customers()) == (gen_network.REGIONS
                                         * gen_network.CUSTOMERS_PER_REGION)
    assert len(instance.dcs()) == gen_network.REGIONS * gen_network.DCS_PER_REGION
    assert instance.horizon == gen_network.HORIZON
    plan = load_plan(str(plan_path))
    assert plan.master_seed == 5
    assert set(plan.initial_inventory) == {dc.id for dc in instance.dcs()}


def test_self_times_exclude_nested_spans():
    tracer = Tracer()
    tracer.spans = [
        Span("pareto.sweep", 0.0, 10.0, None),
        Span("stochastic.replication", 1.0, 9.0, 0),
        Span("milp", 2.0, 5.0, 1),
        Span("milp", 5.0, 7.0, 1),
        Span("io", 11.0, 12.5, None),
    ]
    summary = tracer.summary()
    layers = summary["layers"]
    assert layers["pareto.sweep"]["self_s"] == pytest.approx(2.0)
    assert layers["pareto.sweep"]["total_s"] == pytest.approx(10.0)
    assert layers["stochastic.replication"]["self_s"] == pytest.approx(3.0)
    assert layers["milp"] == pytest.approx({"calls": 2, "self_s": 5.0,
                                            "total_s": 5.0})
    assert summary["root_s"] == pytest.approx(11.5)
    assert sum(e["self_s"] for e in layers.values()) == pytest.approx(11.5)


def test_percentile_is_nearest_rank():
    assert bench.percentile([], 0.5) == 0.0
    values = [float(v) for v in range(1, 101)]
    assert bench.percentile(values, 0.50) == 50.0
    assert bench.percentile(values, 0.99) == 99.0
    assert bench.percentile([3.0], 0.99) == 3.0


def test_missing_run_outputs_fail_every_grid_point(tmp_path):
    problems: list[str] = []
    ok = bench.Child(code=0, wall_s=1.0, rss_mb=1.0, stderr="")
    assert bench.check_run_output(str(tmp_path), ok, problems) == bench.GRID_POINTS
    assert problems and "solutions.csv" in problems[0]


def traced_run(args: list[str], log_dir) -> dict:
    child = bench.run_traced(args, str(log_dir), only_sweep=False)
    assert child.code == 0, child.stderr
    return child.report


def assert_accounting_adds_up(report: dict) -> None:
    """Layer self times plus the time outside every span give the wall."""
    self_total = sum(e["self_s"] for e in report["layers"].values())
    outside = report["wall_s"] - report["root_s"]
    assert outside > 0.0
    assert self_total + outside == pytest.approx(report["wall_s"], abs=1e-6)


@pytest.mark.parametrize("safety_stock, branches", [("0.9", False),
                                                    ("0.4", True)])
def test_traced_qatar_run_touches_the_milp_layers(tmp_path, safety_stock,
                                                  branches):
    report = traced_run(
        ["run", bench.QATAR, "--out", str(tmp_path / "out"),
         "--epsilon-grid", "0.01:1:2", "--replications", "1", "--runs", "1",
         "--safety-stock", safety_stock, "--jobs", "1"], tmp_path / "log")
    layers, counters = report["layers"], report["counters"]
    assert_accounting_adds_up(report)
    calls = layers["milp"]["calls"]
    assert calls == layers["stochastic.build"]["calls"] == 2 * 5
    assert layers["stochastic.replication"]["calls"] == 2
    assert layers["pareto.sweep"]["calls"] == 1
    assert layers["desim"]["calls"] == 1
    if branches:
        assert counters["milp.nodes"] > calls
    else:
        assert counters["milp.nodes"] == calls
    assert report["audit_violations"] == 0


def test_traced_replay_never_calls_the_milp(tmp_path):
    instance, plan = str(tmp_path / "net.json"), str(tmp_path / "plan.json")
    gen_network.write(3, instance, plan)
    gfa = bench.run_child(bench.cli_argv(["gfa", instance, "--out", str(tmp_path),
                                          "--seed", "3"]), str(tmp_path / "gfa"))
    assert gfa.code == 0, gfa.stderr
    report = traced_run(
        ["validate", instance, "--design", str(tmp_path / "design.json"),
         "--solution", plan, "--out", str(tmp_path / "out"), "--runs", "2",
         "--backlog", "drop", "--seed", "3"], tmp_path / "log")
    layers, counters = report["layers"], report["counters"]
    assert_accounting_adds_up(report)
    assert "milp" not in layers and counters["milp.nodes"] == 0
    assert layers["desim"]["calls"] == 2
    assert layers["stochastic.sample"]["calls"] == 2
    assert counters["desim.orders"] == (2 * gen_network.REGIONS
                                        * gen_network.CUSTOMERS_PER_REGION
                                        * gen_network.HORIZON)
    assert counters["desim.waited"] == 0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, exit non-zero, no result."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qatar-bnb", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""
    assert "no chainforge sources" in result.stderr
