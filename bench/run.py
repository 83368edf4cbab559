"""chainforge benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root; the package runs from ``src/`` and nothing
is built or installed:

    python3 bench/run.py --workload qatar-bnb --seed 1 --seconds 30 --trace 0

``bench/README.md`` describes the workloads, the metrics, what each layer
metric should move and the output checks.  In short: the set-up repeats
for ``SETUP_SECONDS`` (at least ``MIN_SETUP_REPS`` times), then the
measured ``chainforge`` commands repeat, each a process of its own in
fresh output directories, until ``--seconds`` is used up (at least
``MIN_REPS`` times); times are medians over repetitions.  ``--trace 1``
runs the commands through ``trace_cli.py`` instead and reports per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
QATAR = os.path.join(SRC, "chainforge", "data", "qatar_beef.json")
WORK_ROOT = os.path.join(ROOT, ".bench_out")
STATE = os.path.join(WORK_ROOT, "state")

WORKLOADS = ("qatar-bnb", "qatar-lp-j2", "replay-large")
GRID = "0.001:1:10"
GRID_POINTS = 10
QATAR_SIM_RUNS = 5
REPLAY_RUNS = 2
# Qatar workloads: replications, --jobs, extra flags.
QATAR_FLAGS = {
    "qatar-bnb": (2, 1, []),
    "qatar-lp-j2": (10, 2, ["--safety-stock", "0.9"]),
}
SETUP_SECONDS = 3.0
MIN_SETUP_REPS = 5
MIN_REPS = 3
MIN_TRACE_REPS = 2
CHILD_TIMEOUT_S = 150.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Layer -> name of its self-time metric.  Self time excludes the spans a
# layer's calls contain, so these add up with cli.self_s to the wall.
SELF_TIME_METRIC = {
    "model": "model.load_s",
    "gfa": "gfa.busy_s",
    "stochastic.sample": "stochastic.sample.busy_s",
    "stochastic.build": "stochastic.build.busy_s",
    "stochastic.replication": "stochastic.replication.self_s",
    "accessibility": "accessibility.busy_s",
    "milp": "milp.busy_s",
    "pareto.sweep": "pareto.sweep.self_s",
    "pareto.front": "pareto.front.busy_s",
    "desim": "desim.busy_s",
    "io": "io.busy_s",
}
# Counters that must repeat exactly for the same code and seed.
EXACT_COUNTERS = tuple(f"{layer}.calls" for layer in SELF_TIME_METRIC) + (
    "milp.iterations", "milp.nodes", "milp.node_limit", "desim.orders",
    "desim.events", "desim.waited", "desim.dropped", "desim.expired",
    "io.bytes")


class BenchError(Exception):
    """The benchmark cannot run here, for example without the sources."""


# ---------------------------------------------------------------- processes

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CHAINFORGE_LOG", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stderr: str
    report: dict = field(default_factory=dict)


def run_child(argv: list[str], log_dir: str) -> Child:
    """Run one process to completion; wall time and peak RSS from wait4."""
    os.makedirs(log_dir, exist_ok=True)
    out_path = os.path.join(log_dir, "stdout.txt")
    err_path = os.path.join(log_dir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, stderr)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "chainforge.cli"] + args


def trace_argv(report: str, start: float, args: list[str],
               only_sweep: bool) -> list[str]:
    return ([sys.executable, os.path.join(BENCH, "trace_cli.py"),
             "--report", report, "--start", repr(start)]
            + (["--only-sweep"] if only_sweep else []) + ["--"] + args)


def run_traced(args: list[str], log_dir: str, only_sweep: bool) -> Child:
    """Run one command through trace_cli.py; its report lands on the Child."""
    report = os.path.join(log_dir, "report.json")
    # The start stamp is taken here, just before run_child starts the
    # process, so the traced wall covers interpreter start-up too.
    child = run_child(trace_argv(report, time.monotonic(), args, only_sweep),
                      log_dir)
    if os.path.exists(report):
        with open(report, encoding="utf-8") as fh:
            child.report = json.load(fh)
    return child


def environment() -> dict:
    """Python, numpy, BLAS and cores as the benchmark's children see them."""
    probe = ("import json, sys, numpy, chainforge\n"
             "try:\n"
             "    blas = numpy.show_config(mode='dicts')['Build Dependencies']"
             "['blas']\n"
             "    blas = f\"{blas.get('name')} {blas.get('version')}\"\n"
             "except Exception:\n"
             "    blas = 'unknown'\n"
             "print(json.dumps({'python': sys.version.split()[0],"
             " 'numpy': numpy.__version__, 'blas': blas,"
             " 'chainforge': chainforge.__file__}))\n")
    result = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                            env=child_env(), capture_output=True, text=True,
                            timeout=CHILD_TIMEOUT_S)
    if result.returncode != 0:
        raise BenchError(f"cannot import chainforge from {SRC}: "
                         f"{result.stderr.strip().splitlines()[-1:]}")
    env = json.loads(result.stdout)
    if not os.path.abspath(env["chainforge"]).startswith(SRC + os.sep):
        raise BenchError(f"chainforge resolves to {env['chainforge']}, "
                         f"not to the sources under {SRC}")
    env["nproc"] = len(os.sched_getaffinity(0))
    env["blas_threads"] = 1
    return env


def code_fingerprint(env: dict) -> str:
    """Digest of the sources, the benchmark and the toolchain versions."""
    digest = hashlib.sha256(
        f"{env['python']} {env['numpy']} {env['blas']}".encode())
    for top in (os.path.join(SRC, "chainforge"), BENCH):
        for base, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith((".py", ".json")):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()[:16]


# ------------------------------------------------------------------ checks

def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def artifact_digests(out: str) -> dict[str, str]:
    """sha256 of every artifact except manifest.json, by relative path."""
    digests = {}
    for base, dirs, files in os.walk(out):
        dirs.sort()
        for name in sorted(files):
            if name == "manifest.json":
                continue
            path = os.path.join(base, name)
            digests[os.path.relpath(path, out)] = sha256(path)
    return digests


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_validation(path: str, runs: int, problems: list[str]) -> int:
    """Problems in validation.csv; returns how many runs are missing."""
    if not os.path.exists(path):
        problems.append(f"{path} missing")
        return runs
    rows = read_csv(path)
    labels = [row["run"] for row in rows]
    if labels != [str(r) for r in range(runs)] + ["mean", "se"]:
        problems.append(f"{path}: rows {labels}, expected {runs} runs + mean, se")
    present = sum(label.isdigit() for label in labels)
    for row in rows:
        if row["run"] == "se":
            continue
        for column, text in row.items():
            if column.startswith("service_"):
                level = float(text)
                if not 0.0 <= level <= 1.0:
                    problems.append(
                        f"{path}: {column} = {text} outside [0, 1]")
    return max(0, runs - present)


def check_run_output(out: str, child: Child, problems: list[str]) -> int:
    """Output checks for one ``chainforge run``; returns failed grid points."""
    if child.code != 0:
        problems.append(f"chainforge run exited {child.code}: "
                        f"{child.stderr.strip()[-300:]}")
        return GRID_POINTS
    reported = [line for line in child.stderr.splitlines() if " failed: " in line]
    problems.extend(f"stderr: {line}" for line in reported)
    missing = [name for name in ("solutions.csv", "plans")
               if not os.path.exists(os.path.join(out, name))]
    if missing:
        problems.append(f"chainforge run exited 0 but wrote no {missing}")
        return GRID_POINTS
    rows = read_csv(os.path.join(out, "solutions.csv"))
    good = 0
    for row in rows:
        z1, z2 = float(row["Z1"]), float(row["Z2"])
        if math.isfinite(z1) and math.isfinite(z2):
            good += 1
        else:
            problems.append(f"solutions.csv: epsilon {row['epsilon']} has "
                            f"Z1={row['Z1']} Z2={row['Z2']}")
    if len(rows) != GRID_POINTS:
        problems.append(f"solutions.csv has {len(rows)} rows, "
                        f"expected {GRID_POINTS}")
    plans = os.listdir(os.path.join(out, "plans"))
    if len(plans) != len(rows):
        problems.append(f"{len(plans)} plan files for {len(rows)} solutions")
    check_validation(os.path.join(out, "validation.csv"), QATAR_SIM_RUNS,
                     problems)
    return max(len(reported), GRID_POINTS - good)


# --------------------------------------------------------------- workloads

@dataclass
class Prepared:
    """Inputs made by one set-up."""

    instance: str
    horizon: int
    customers: int
    design: str = ""
    plan: str = ""


@dataclass
class Workload:
    name: str
    seed: int

    def setup(self, directory: str, problems: list[str]) -> Prepared:
        os.makedirs(directory, exist_ok=True)
        if self.name == "replay-large":
            instance = os.path.join(directory, "network.json")
            plan = os.path.join(directory, "plan.json")
            steps = [
                [sys.executable, os.path.join(BENCH, "gen_network.py"),
                 "--seed", str(self.seed), "--instance", instance,
                 "--plan", plan],
                cli_argv(["gfa", instance, "--out", directory,
                          "--seed", str(self.seed)]),
            ]
            design = os.path.join(directory, "design.json")
        else:
            instance = os.path.join(directory, "qatar_beef.json")
            shutil.copyfile(QATAR, instance)
            steps = [[sys.executable, "-c",
                      "import sys\n"
                      "from chainforge.model import load_instance\n"
                      "load_instance(sys.argv[1])\n", instance]]
            design = plan = ""
        for index, argv in enumerate(steps):
            child = run_child(argv, os.path.join(directory, f"log{index}"))
            if child.code != 0:
                problems.append(f"set-up step {argv[1:3]} exited {child.code}: "
                                f"{child.stderr.strip()[-300:]}")
        with open(instance, encoding="utf-8") as fh:
            document = json.load(fh)
        customers = sum(len(r["customers"]) for r in document["regions"])
        return Prepared(instance, document["horizon"], customers, design, plan)

    def commands(self, prepared: Prepared, base: str, jobs: int | None = None
                 ) -> list[tuple[list[str], str]]:
        """(chainforge arguments, output directory) of the measured part."""
        seed = str(self.seed)
        if self.name == "replay-large":
            # --seed equals the plan's master_seed, so the simulator sees
            # the plan's own demand stream.
            return [(["validate", prepared.instance, "--design", prepared.design,
                      "--solution", prepared.plan, "--out", os.path.join(base, mode),
                      "--runs", str(REPLAY_RUNS), "--backlog", mode,
                      "--seed", seed], os.path.join(base, mode))
                    for mode in ("wait", "drop")]
        replications, default_jobs, extra = QATAR_FLAGS[self.name]
        out = os.path.join(base, "out")
        return [(["run", prepared.instance, "--out", out, "--seed", seed,
                  "--epsilon-grid", GRID, "--runs", str(QATAR_SIM_RUNS),
                  "--replications", str(replications),
                  "--jobs", str(jobs or default_jobs)] + extra, out)]

    def ops(self, prepared: Prepared) -> int:
        """Period MILPs, or simulated customer orders, per repetition."""
        if self.name == "replay-large":
            return 2 * REPLAY_RUNS * prepared.customers * prepared.horizon
        return GRID_POINTS * QATAR_FLAGS[self.name][0] * prepared.horizon

    def check(self, out: str, child: Child,
              problems: list[str]) -> tuple[int, int]:
        """(attempted, failed) operations of one command, after checks."""
        if self.name != "replay-large":
            return GRID_POINTS, check_run_output(out, child, problems)
        if child.code != 0:
            problems.append(f"chainforge validate exited {child.code}: "
                            f"{child.stderr.strip()[-300:]}")
            return REPLAY_RUNS, REPLAY_RUNS
        return REPLAY_RUNS, check_validation(
            os.path.join(out, "validation.csv"), REPLAY_RUNS, problems)


# ---------------------------------------------------------------- the run

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] | None = None

    def check_digests(self, digests: dict[str, str], what: str) -> None:
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = sorted(k for k in set(digests) | set(self.digests)
                             if digests.get(k) != self.digests.get(k))
            self.problems.append(f"artifacts differ in {what}: {changed[:5]}")


def remember(kind: str, workload: Workload, fingerprint: str, value,
             tally: Tally) -> None:
    """Compare with an earlier run of the same code and seed, else store."""
    os.makedirs(STATE, exist_ok=True)
    path = os.path.join(
        STATE, f"{workload.name}-{workload.seed}-{fingerprint}-{kind}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier != value:
            tally.problems.append(
                f"{kind} differ from an earlier run of the same code and seed")
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh, sort_keys=True)


def run_setups(workload: Workload, work: str, tally: Tally) -> tuple[Prepared, float]:
    walls: list[float] = []
    inputs = None
    begin = time.monotonic()
    while keep_going(begin, walls, SETUP_SECONDS, MIN_SETUP_REPS):
        directory = os.path.join(work, f"setup{len(walls)}")
        start = time.monotonic()
        prepared = workload.setup(directory, tally.problems)
        walls.append(time.monotonic() - start)
        made = {name: sha256(os.path.join(directory, name))
                for name in sorted(os.listdir(directory))
                if name.endswith(".json")}
        if inputs is None:
            inputs = made
        elif made != inputs:
            tally.problems.append("set-up inputs differ between repetitions "
                                  "of the same seed")
    return prepared, statistics.median(walls)


def keep_going(start: float, walls: list[float], seconds: float,
               minimum: int) -> bool:
    if len(walls) < minimum:
        return True
    # Start another repetition if at least half of it fits in the time left.
    return time.monotonic() - start + statistics.median(walls) / 2 <= seconds


def run_commands(workload: Workload, prepared: Prepared, base: str,
                 what: str, tally: Tally, runner, jobs: int | None = None
                 ) -> list[Child]:
    """Run and check the measured commands with outputs under ``base``."""
    children, digests = [], {}
    for index, (args, out) in enumerate(workload.commands(prepared, base, jobs)):
        child = runner(args, os.path.join(base, f"log{index}"))
        attempted, failed = workload.check(out, child, tally.problems)
        tally.attempted += attempted
        tally.failed += failed
        digests.update({f"{index}/{name}": digest
                        for name, digest in artifact_digests(out).items()})
        children.append(child)
    tally.check_digests(digests, what)
    return children


def measure(workload: Workload, prepared: Prepared, work: str,
            seconds: float, tally: Tally) -> dict[str, float]:
    walls, rss = [], []
    start = time.monotonic()
    while keep_going(start, walls, seconds, MIN_REPS):
        children = run_commands(
            workload, prepared, os.path.join(work, f"rep{len(walls)}"),
            f"repetition {len(walls)}", tally,
            lambda args, log: run_child(cli_argv(args), log))
        walls.append(sum(child.wall_s for child in children))
        rss.append(max(child.rss_mb for child in children))
    print(f"measured {len(walls)} repetitions: "
          + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    run_s = statistics.median(walls)
    return {"run_s": run_s, "ops_per_s": workload.ops(prepared) / run_s,
            "peak_rss_mb": statistics.median(rss)}


def trace(workload: Workload, prepared: Prepared, work: str, seconds: float,
          tally: Tally) -> dict[str, float]:
    """Per-layer metrics from traced repetitions at --jobs 1."""
    # (label, --jobs, only the sweep() boundary wrapped)
    passes = [("traced", 1, False), ("base", 1, True)]
    if workload.name != "replay-large":
        passes.append(("jobs2", 2, True))
    reps: list[dict[str, dict]] = []
    rep_s: list[float] = []
    start = time.monotonic()
    while keep_going(start, rep_s, seconds, MIN_TRACE_REPS):
        began = time.monotonic()
        rep = {}
        for label, jobs, only_sweep in passes:
            children = run_commands(
                workload, prepared, os.path.join(work, f"trace{len(reps)}", label),
                f"trace repetition {len(reps)} ({label})", tally,
                lambda args, log: run_traced(args, log, only_sweep), jobs)
            if not all(child.report for child in children):
                tally.problems.append(f"trace report missing ({label})")
            rep[label] = combine([child.report for child in children])
        reps.append(rep)
        rep_s.append(time.monotonic() - began)

    traced = [rep["traced"] for rep in reps]
    counters = traced[0]["counters"]
    for index, report in enumerate(traced[1:], start=1):
        moved = [n for n in EXACT_COUNTERS
                 if report["counters"][n] != counters[n]]
        if moved:
            tally.problems.append(
                f"counters changed in trace repetition {index}: {moved}")
    violations = [report["audit_violations"] for report in traced]
    if any(violations):
        tally.problems.append(f"audit_replication found violations: {violations}")

    def med(reports: list[dict], value) -> float:
        return statistics.median(value(report) for report in reports)

    def layer_time(layer: str, key: str):
        return lambda report: report["layers"].get(layer, {}).get(key, 0.0)

    metrics: dict[str, float] = dict(counters)
    for layer, name in SELF_TIME_METRIC.items():
        metrics[name] = med(traced, layer_time(layer, "self_s"))
    wall = med(traced, lambda report: report["wall_s"])
    metrics["trace.wall_s"] = wall
    metrics["cli.self_s"] = med(
        traced, lambda report: report["wall_s"] - report["root_s"])
    metrics["trace.overhead"] = wall / med(
        [rep["base"] for rep in reps], lambda report: report["wall_s"]) - 1.0
    sweep_wall = layer_time("pareto.sweep", "total_s")
    metrics["pareto.sweep.wall_s"] = med(traced, sweep_wall)
    if "jobs2" in reps[0]:
        metrics["pareto.sweep.efficiency"] = (
            med([rep["base"] for rep in reps], sweep_wall)
            / (2 * med([rep["jobs2"] for rep in reps], sweep_wall)))
    else:
        metrics["pareto.sweep.efficiency"] = 0.0
    milp_ms = sorted(ms for report in traced for ms in report["milp_ms"])
    metrics["milp.call_ms.p50"] = percentile(milp_ms, 0.50)
    metrics["milp.call_ms.p99"] = percentile(milp_ms, 0.99)
    calls, sims = counters["milp.calls"], counters["desim.calls"]
    metrics["milp.iters_per_call"] = counters["milp.iterations"] / calls if calls else 0.0
    metrics["milp.nodes_per_call"] = counters["milp.nodes"] / calls if calls else 0.0
    metrics["desim.service_level"] = (
        traced[0]["desim_service_sum"] / sims if sims else 0.0)
    metrics["stochastic.audit.violations"] = violations[0]
    # ops_per_s counts operations from the inputs; the program's own counts
    # must agree, or the end-to-end rate means something else.
    performed = counters["desim.orders" if workload.name == "replay-large"
                         else "milp.calls"]
    if performed != workload.ops(prepared):
        tally.problems.append(
            f"the traced run performed {performed} operations, ops_per_s "
            f"assumes {workload.ops(prepared)}")
    return metrics


def combine(reports: list[dict]) -> dict:
    """One report for a repetition's commands: times and counters summed."""
    total = {"wall_s": 0.0, "root_s": 0.0, "audit_violations": 0,
             "desim_service_sum": 0.0, "layers": {}, "milp_ms": [],
             "counters": {name: 0 for name in EXACT_COUNTERS}}
    for report in filter(None, reports):
        for key in ("wall_s", "root_s", "audit_violations", "desim_service_sum"):
            total[key] += report[key]
        total["milp_ms"] += report["milp_ms"]
        for layer, entry in report["layers"].items():
            into = total["layers"].setdefault(
                layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in into:
                into[key] += entry[key]
            total["counters"][f"{layer}.calls"] += entry["calls"]
        for name, value in report["counters"].items():
            total["counters"][name] += value
    return total


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted values; 0 when there are none."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


# ------------------------------------------------------------------- main

def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(args: argparse.Namespace) -> int:
    if not os.path.isfile(os.path.join(SRC, "chainforge", "cli.py")):
        raise BenchError(f"no chainforge sources under {SRC}; run from the "
                         "repository root")
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    env = environment()
    fingerprint = code_fingerprint(env)
    print("environment: " + json.dumps(env, sort_keys=True))

    workload = Workload(args.workload, args.seed)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    try:
        prepared, setup_s = run_setups(workload, work, tally)
        if args.trace:
            metrics = trace(workload, prepared, work, args.seconds, tally)
        else:
            metrics = measure(workload, prepared, work, args.seconds, tally)
            metrics["setup_s"] = setup_s
        # Only a run that passed every other check becomes the reference.
        if not tally.problems and tally.failed == 0:
            if args.trace:
                remember("counters", workload, fingerprint,
                         {name: metrics[name] for name in EXACT_COUNTERS},
                         tally)
            remember("artifacts", workload, fingerprint, tally.digests, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    for name in wanted:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not tally.problems and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in wanted},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="chainforge benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced runs")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
