"""Check that the working tree writes the same outputs as a commit.

    python3 scripts/same_outputs.py REV

Exports REV (any commit, branch or tag) with ``git archive`` into a
temporary directory, then runs the same commands there and in this
working tree, each with its own ``src`` on PYTHONPATH:

* the pinned ``chainforge run`` on the packaged Qatar instance (seed 0,
  grid ``0.001:1:10``, 10 replications, 5 simulation runs) at safety
  stock 0, 0.4 and 0.9, each with ``--jobs`` 1 and 2;
* for the ``bench/gen_network.py`` networks of seeds 1 and 3: ``gfa``,
  then ``validate --runs 2`` in both backlog modes, and a sha256 of
  every simulated run's event log (``events.sha256``).

Every file written, except manifest.json (which holds wall-clock
times), is compared by sha256.  Each file that differs, or that only
one tree wrote, is printed; a JSON file that both wrote is printed
with the top-level keys whose values differ, and a CSV file that both
wrote with the largest relative change in each numeric column and the
row where it occurs.  The exit status is 1 if any file is printed, 0
if none is, and 2 if a command fails.
Exporting REV reads the repository but writes nothing under .git.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PINNED = ["--seed", "0", "--epsilon-grid", "0.001:1:10",
          "--replications", "10", "--runs", "5"]
RUNS = [["--safety-stock", stock, "--jobs", jobs]
        for stock in ("0", "0.4", "0.9") for jobs in ("1", "2")]
NETWORK_SEEDS = (1, 3)
REPLAY_RUNS = 2

# Replays a validate command's runs and writes one sha256 per run over
# the repr of each event, in event order.
_EVENTS = """
import hashlib, sys
from chainforge.desim import SimConfig, run_validation
from chainforge.gfa import load_design
from chainforge.model import load_instance
from chainforge.stochastic import load_plan
instance, design, plan, backlog, runs, out = sys.argv[1:]
plan = load_plan(plan)
reports = run_validation(
    load_instance(instance), load_design(design).design, plan,
    SimConfig(rng_seed=plan.master_seed, backlog=backlog), int(runs))
with open(out, "w", encoding="utf-8") as fh:
    for report in reports:
        digest = hashlib.sha256()
        for event in report.events:
            digest.update(repr(tuple(event)).encode())
        fh.write(digest.hexdigest() + "\\n")
"""


def _call(tree: str, argv: list[str]) -> None:
    """Run argv with tree's package first on the path; exit 2 if it fails."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    child = subprocess.run([sys.executable] + argv, env=env, cwd=tree,
                           capture_output=True, text=True)
    if child.returncode != 0:
        print(f"{' '.join(argv)} failed in {tree}:\n{child.stderr}",
              file=sys.stderr)
        raise SystemExit(2)


def write_outputs(tree: str, out: str, runs: list[list[str]], pinned: list[str],
                  network_seeds: tuple[int, ...]) -> None:
    """Run every command in tree, each writing under its own part of out."""
    cli = ["-m", "chainforge.cli"]
    qatar = os.path.join(tree, "src", "chainforge", "data", "qatar_beef.json")
    for flags in runs:
        name = "run" + "".join(flags).replace("--", "_")
        _call(tree, cli + ["run", qatar, "--out", os.path.join(out, name)]
              + pinned + flags)
    for seed in network_seeds:
        base = os.path.join(out, f"network{seed}")
        os.makedirs(base)
        instance, plan = (os.path.join(base, name)
                          for name in ("network.json", "plan.json"))
        design = os.path.join(base, "design.json")
        _call(tree, [os.path.join("bench", "gen_network.py"), "--seed",
                     str(seed), "--instance", instance, "--plan", plan])
        _call(tree, cli + ["gfa", instance, "--out", base, "--seed", str(seed)])
        for backlog in ("wait", "drop"):
            where = os.path.join(base, backlog)
            _call(tree, cli + ["validate", instance, "--design", design,
                               "--solution", plan, "--out", where,
                               "--runs", str(REPLAY_RUNS),
                               "--backlog", backlog])
            _call(tree, ["-c", _EVENTS, instance, design, plan, backlog,
                         str(REPLAY_RUNS), os.path.join(where, "events.sha256")])


def digests(directory: str) -> dict[str, str]:
    """sha256 of every file under directory but manifest.json, by its
    path relative to directory."""
    found = {}
    for parent, _, names in os.walk(directory):
        for name in names:
            if name != "manifest.json":
                path = os.path.join(parent, name)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                found[os.path.relpath(path, directory)] = digest
    return found


def differing_keys(path_a: str, path_b: str) -> list[str]:
    """The top-level keys of two JSON objects whose values differ or that
    only one holds."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        a, b = json.load(fa), json.load(fb)
    absent = object()
    return sorted(key for key in a.keys() | b.keys()
                  if a.get(key, absent) != b.get(key, absent))


def _relative_change(x: float, y: float) -> float:
    """|y - x| / |x|: 0 when the two are equal or both NaN, inf from 0."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(y - x) / abs(x) if x else math.inf


def csv_changes(path_a: str, path_b: str) -> str:
    """The largest relative change from CSV file a to CSV file b in each
    numeric column, as "change c1 1e-09 at row 3, c2 inf at row 1".

    Rows count from 1 after the header.  A column is numeric when every
    cell of it in both files reads as a float; a change from 0 is inf.
    Only columns that change are named."""
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        a, b = list(csv.reader(fa)), list(csv.reader(fb))
    if a[:1] != b[:1] or len(a) != len(b):
        return "header or row count differs"
    changes = []
    for k, column in enumerate(a[0]):
        try:
            pairs = [(float(ra[k]), float(rb[k]))
                     for ra, rb in zip(a[1:], b[1:])]
        except (ValueError, IndexError):
            continue
        relative = [_relative_change(x, y) for x, y in pairs]
        largest = max(relative, default=0.0)
        if largest > 0.0:
            changes.append(f"{column} {largest:.3g} at row "
                           f"{relative.index(largest) + 1}")
    return "change " + (", ".join(changes) or "(none in numeric columns)")


def compare(tree_a: str, tree_b: str, work: str,
            runs: list[list[str]] = RUNS, pinned: list[str] = PINNED,
            network_seeds: tuple[int, ...] = NETWORK_SEEDS) -> list[str]:
    """The outputs, relative to each tree's output directory under work,
    that differ between the two source trees or exist in only one.  A
    JSON file both wrote is followed by its differing top-level keys, as
    "name: keys k1, k2", and a CSV file both wrote by csv_changes."""
    outs = [os.path.join(os.path.abspath(work), side) for side in ("a", "b")]
    for tree, out in zip((tree_a, tree_b), outs):
        write_outputs(tree, out, runs, pinned, network_seeds)
    a, b = map(digests, outs)
    differ = []
    for name in sorted(a.keys() | b.keys()):
        if a.get(name) == b.get(name):
            continue
        if name.endswith(".json") and name in a and name in b:
            keys = differing_keys(*(os.path.join(out, name) for out in outs))
            name += ": keys " + (", ".join(keys) or "(none)")
        elif name.endswith(".csv") and name in a and name in b:
            name += ": " + csv_changes(*(os.path.join(out, name)
                                         for out in outs))
        differ.append(name)
    return differ


def export(rev: str, directory: str) -> None:
    """The files of rev, as committed, in directory."""
    archive = os.path.join(directory, "rev.tar")
    with open(archive, "wb") as fh:
        if subprocess.run(["git", "-C", ROOT, "archive", rev],
                          stdout=fh).returncode != 0:
            raise SystemExit(2)
    tree = os.path.join(directory, "rev")
    with tarfile.open(archive) as tar:
        tar.extractall(tree)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        export(argv[0], work)
        differ = compare(os.path.join(work, "rev"), ROOT, work)
    for name in differ:
        print(name)
    print(f"{len(differ)} files differ" if differ else "same outputs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
