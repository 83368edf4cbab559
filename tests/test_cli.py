"""Command line stages, artifacts, exit codes, and determinism."""

import argparse
import csv
import json
import multiprocessing
import os
import pathlib
import re
import subprocess
import sys

import pytest

import chainforge
from chainforge.cli import _build_parser, _sweep_config, main
from chainforge.gfa import load_design
from chainforge.model import (design_mismatches, euclidean_distance,
                              instance_from_dict)
from chainforge.stochastic import StochasticConfig
from conftest import QATAR_PATH, branching_tiny_dict, tiny_dict

ARTIFACTS = ["design.json", "solutions.csv", "front.csv", "front.svg",
             "validation.csv", "manifest.json"]


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_dict()))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def quick_run(tiny_file, out, seed=1):
    return run_cli("run", tiny_file, "--out", out, "--seed", str(seed),
                   "--replications", "2", "--runs", "3",
                   "--epsilon-grid", "0.01:1:4")


def test_run_produces_all_artifacts(tiny_file, tmp_path):
    out = str(tmp_path / "out")
    assert quick_run(tiny_file, out) == 0
    for name in ARTIFACTS:
        assert os.path.isfile(os.path.join(out, name)), name
    plans = sorted(os.listdir(os.path.join(out, "plans")))
    assert plans == [f"plan_{i:03d}.json" for i in range(4)]


def test_manifest_records_run(tiny_file, tmp_path):
    out = str(tmp_path / "out")
    assert quick_run(tiny_file, out, seed=7) == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["tool"] == "chainforge"
    assert manifest["master_seed"] == 7
    assert manifest["instance"]["path"] == tiny_file
    assert len(manifest["instance"]["sha256"]) == 64
    assert manifest["flags"]["epsilon_grid"] == "0.01:1:4"
    assert set(ARTIFACTS) - {"manifest.json"} <= set(manifest["artifacts"])
    assert manifest["started"] <= manifest["finished"]
    assert manifest["warehouse_overloads"] == {}
    assert manifest["environment"] == {
        var: os.environ.get(var) for var in chainforge._BLAS_VARS}


def test_pinned_run_reports_no_negative_cost(tmp_path):
    # At safety stock 0 the solver leaves some DCs' closing stock a hair
    # below zero; the priced stock is clamped, so every cost is >= 0.
    out = str(tmp_path / "out")
    assert run_cli("run", QATAR_PATH, "--out", out, "--seed", "0",
                   "--epsilon-grid", "0.001:1:10", "--replications", "10",
                   "--runs", "5", "--safety-stock", "0", "--jobs", "2") == 0
    with open(os.path.join(out, "solutions.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    for row in rows:
        for key in ("inventory_cost", "unfulfilled_cost", "order_cost"):
            assert float(row[key]) >= 0.0, (key, row[key])


def test_outputs_carry_no_timestamps(tiny_file, tmp_path):
    out = str(tmp_path / "out")
    assert quick_run(tiny_file, out) == 0
    year = "20"  # any ISO date would contain the century
    for name in ("solutions.csv", "front.csv", "validation.csv", "front.svg"):
        text = open(os.path.join(out, name)).read()
        assert ":" not in text or name == "front.svg"
        assert "T" + year not in text


def test_rerun_is_byte_identical(tiny_file, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert quick_run(tiny_file, out_a, seed=5) == 0
    assert quick_run(tiny_file, out_b, seed=5) == 0
    for name in ("solutions.csv", "front.csv", "validation.csv",
                 "front.svg", "design.json"):
        a = open(os.path.join(out_a, name), "rb").read()
        b = open(os.path.join(out_b, name), "rb").read()
        assert a == b, name


def test_seed_changes_solutions(tiny_file, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert quick_run(tiny_file, out_a, seed=5) == 0
    assert quick_run(tiny_file, out_b, seed=6) == 0
    a = open(os.path.join(out_a, "solutions.csv")).read()
    b = open(os.path.join(out_b, "solutions.csv")).read()
    assert a != b


def test_solver_failure_stays_in_its_grid_point(tiny_file, tmp_path,
                                                monkeypatch, capsys):
    import chainforge.stochastic as stochastic
    from chainforge.errors import NumericalError

    real_build = stochastic.build_period_model
    real_solve = stochastic.solve_milp

    def tagged_build(template, epsilon, opening, demands, factors):
        model = real_build(template, epsilon, opening, demands, factors)
        model.name = f"epsilon={epsilon:g}"
        return model

    def flaky_solve(model, **kwargs):
        if model.name == "epsilon=0.1":
            raise NumericalError("simplex iteration limit reached")
        return real_solve(model, **kwargs)

    monkeypatch.setattr(stochastic, "build_period_model", tagged_build)
    monkeypatch.setattr(stochastic, "solve_milp", flaky_solve)
    out = str(tmp_path / "out")
    assert run_cli("run", tiny_file, "--out", out, "--replications", "1",
                   "--runs", "2", "--epsilon-grid", "0.01:1:3") == 0
    assert ("optimize: epsilon 0.1 failed: simplex iteration limit reached"
            in capsys.readouterr().err)
    rows = open(os.path.join(out, "solutions.csv")).read().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["0.01", "1"]


def test_artifacts_do_not_depend_on_jobs(tiny_file, tmp_path):
    outs = []
    for jobs in ("1", "2"):
        out = str(tmp_path / f"jobs{jobs}")
        assert run_cli("run", tiny_file, "--out", out, "--seed", "3",
                       "--replications", "3", "--runs", "2",
                       "--epsilon-grid", "0.01:1:4", "--jobs", jobs) == 0
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    names.remove("manifest.json")
    names.remove("plans")
    names += [os.path.join("plans", name)
              for name in sorted(os.listdir(os.path.join(outs[0], "plans")))]
    for name in names:
        a = pathlib.Path(outs[0], name).read_bytes()
        b = pathlib.Path(outs[1], name).read_bytes()
        assert a == b, name


def _design(tiny_file, tmp_path):
    out = str(tmp_path / "design")
    assert run_cli("gfa", tiny_file, "--out", out) == 0
    return os.path.join(out, "design.json")


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the monkeypatch only when forked")
def test_worker_failure_reported_as_inline(tiny_file, tmp_path,
                                           monkeypatch, capsys):
    import chainforge.stochastic as stochastic
    from chainforge.errors import NumericalError

    real = stochastic.run_replication
    failing = stochastic.replication_seed(0, 1)

    def flaky(instance, design, epsilon, seed, **kwargs):
        if epsilon == 0.1 and seed == failing:
            raise NumericalError(f"no progress on seed {seed}")
        return real(instance, design, epsilon, seed, **kwargs)

    monkeypatch.setattr(stochastic, "run_replication", flaky)
    reports = []
    for jobs in ("1", "2"):
        out = str(tmp_path / f"jobs{jobs}")
        assert run_cli("optimize", tiny_file, "--out", out,
                       "--design", _design(tiny_file, tmp_path),
                       "--replications", "3", "--epsilon-grid", "0.01:1:3",
                       "--jobs", jobs) == 0
        reports.append((capsys.readouterr().err,
                        pathlib.Path(out, "solutions.csv").read_text()))
    assert reports[0] == reports[1]
    assert (f"optimize: epsilon 0.1 failed: no progress on seed {failing}"
            in reports[0][0])


def test_overloaded_warehouses_are_flagged(tmp_path, capsys):
    # The packaged instance's W1 cannot cover R1: gfa says so on stderr,
    # in a line the benchmark does not count as a failure.
    assert run_cli("gfa", QATAR_PATH, "--out", str(tmp_path / "q")) == 0
    assert capsys.readouterr().err.splitlines() == [
        "gfa: warehouse W1 is overloaded: its customers draw 14560 kg per "
        "period, 18200 kg of shipments at the lowest retention, capacity "
        "9000 kg"]
    # run repeats the line and records the figures in its manifest.  The
    # tiny network's R1 draws 120 kg a period from W1, 150 kg of
    # shipments at retention 0.8.
    data = tiny_dict()
    data["warehouses"][0]["capacity"] = 100.0
    short = tmp_path / "short.json"
    short.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert quick_run(str(short), str(out)) == 0
    assert "gfa: warehouse W1 is overloaded" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["warehouse_overloads"] == {"W1": {
        "demand_kg": 120.0, "shipments_kg": pytest.approx(150.0),
        "capacity_kg": 100.0}}


def test_node_limit_incumbents_are_reported(tmp_path, monkeypatch, capsys):
    import functools

    import chainforge.cli as cli
    from chainforge.pareto import epsilon_grid
    from chainforge.stochastic import StochasticConfig

    # These period models branch, so one node cannot finish.
    monkeypatch.setattr(cli, "StochasticConfig",
                        functools.partial(StochasticConfig, node_limit=1))
    branching = tmp_path / "branching.json"
    branching.write_text(json.dumps(branching_tiny_dict()))
    out = str(tmp_path / "o")
    assert quick_run(str(branching), out) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"optimize: epsilon {eps:g}: 2 of 2 replications stopped at the "
        f"node limit; their best incumbents are averaged into the estimate"
        for eps in epsilon_grid(0.01, 1, 4)]


def test_validate_seed_defaults_to_the_plans(tiny_file, tmp_path, capsys):
    whole = str(tmp_path / "whole")
    assert quick_run(tiny_file, whole, seed=4) == 0
    plan = os.path.join(whole, "plans", "plan_000.json")
    args = ["validate", tiny_file, "--out", str(tmp_path / "v"),
            "--design", os.path.join(whole, "design.json"),
            "--solution", plan, "--runs", "3"]
    assert run_cli(*args) == 0
    assert run_cli(*args, "--seed", "4") == 0
    capsys.readouterr()
    assert run_cli(*args, "--seed", "5") == 2
    assert "master seed 4" in capsys.readouterr().err


def test_stages_reject_flags_they_do_not_read(tiny_file, tmp_path):
    out = str(tmp_path / "o")
    for argv in (["validate", tiny_file, "--out", out,
                  "--solution", str(tmp_path / "plan.json"), "--jobs", "4"],
                 ["pareto", "--out", out, "--seed", "1"],
                 ["pareto", "--out", out, "--jobs", "2"],
                 ["gfa", tiny_file, "--out", out, "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2, argv


def test_missing_instance_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert run_cli("run", missing, "--out", str(tmp_path / "o")) == 2
    assert missing in capsys.readouterr().err


def test_zero_replications_exits_2(tiny_file, tmp_path):
    code = run_cli("run", tiny_file, "--out", str(tmp_path / "o"),
                   "--replications", "0")
    assert code == 2


def test_zero_runs_exits_2(tiny_file, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert run_cli("run", tiny_file, "--out", out, "--runs", "0") == 2
    assert run_cli("validate", tiny_file, "--out", out, "--solution",
                   str(tmp_path / "plan.json"), "--runs", "0") == 2
    assert capsys.readouterr().err.count("runs must be at least 1") == 2


def test_shared_flags_parse_alike_in_every_stage():
    parser = _build_parser()
    planning = ["--seed", "3", "--jobs", "2", "--epsilon-grid", "0.01:0.5:3",
                "--replications", "7", "--safety-stock", "0.25"]
    for flags in ([], planning):
        optimize = parser.parse_args(["optimize", "i.json", *flags])
        run = parser.parse_args(["run", "i.json", *flags])
        for name in ("epsilon_grid", "replications", "safety_stock",
                     "seed", "jobs"):
            assert getattr(optimize, name) == getattr(run, name), name
        assert _sweep_config(optimize) == _sweep_config(run)
    assert _sweep_config(run) == StochasticConfig(
        replications=7, master_seed=3, safety_stock=0.25, jobs=2)
    for flags in ([], ["--runs", "4", "--backlog", "drop"]):
        validate = parser.parse_args(
            ["validate", "i.json", "--solution", "p.json", *flags])
        run = parser.parse_args(["run", "i.json", *flags])
        assert (validate.runs, validate.backlog) == (run.runs, run.backlog)
    for flags in ([], ["--restarts", "3"]):
        gfa = parser.parse_args(["gfa", "i.json", *flags])
        run = parser.parse_args(["run", "i.json", *flags])
        assert gfa.restarts == run.restarts


def test_bad_grid_exits_2(tiny_file, tmp_path, capsys):
    code = run_cli("run", tiny_file, "--out", str(tmp_path / "o"),
                   "--epsilon-grid", "nope")
    assert code == 2
    assert "low:high:steps" in capsys.readouterr().err
    code = run_cli("optimize", tiny_file, "--out", str(tmp_path / "o"),
                   "--epsilon-grid", "nan:1:3")
    assert code == 2
    assert "finite" in capsys.readouterr().err


def test_restarts_below_one_exits_2(tiny_file, tmp_path, capsys):
    out = tmp_path / "o"
    for stage in ("gfa", "run"):
        assert run_cli(stage, tiny_file, "--out", str(out),
                       "--restarts", "0") == 2
        assert "restarts must be at least 1" in capsys.readouterr().err
    assert not (out / "design.json").exists()


def test_negative_seed_exits_2(tiny_file, tmp_path, capsys):
    out = tmp_path / "o"
    for stage in ("gfa", "run"):
        assert run_cli(stage, tiny_file, "--out", str(out),
                       "--seed", "-1") == 2
        assert "seed must be at least 0" in capsys.readouterr().err
    assert not out.exists()


def test_readme_flag_table_matches_parser():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    table = set(re.findall(r"^\| `(--[a-z-]+)` \|", readme.read_text(),
                           re.MULTILINE))
    parser = _build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    declared = {option
                for sub in [parser, *commands.choices.values()]
                for action in sub._actions
                for option in action.option_strings
                if option.startswith("--")}
    # Described in the prose under the table, or standard.
    prose = {"--design", "--solution", "--help", "--version"}
    assert table == declared - prose


def test_bad_backlog_rejected_by_parser(tiny_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", tiny_file, "--out", str(tmp_path / "o"),
                "--backlog", "sometimes")
    assert exc.value.code == 2


def test_stage_failure_exits_1_and_names_stage(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    (out / "solutions.csv").write_text("epsilon,bad\n1,2\n")
    assert run_cli("pareto", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("pareto:")


def test_optimize_without_design_exits_2(tiny_file, tmp_path, capsys):
    code = run_cli("optimize", tiny_file, "--out", str(tmp_path / "o"),
                   "--replications", "1", "--epsilon-grid", "0.01:1:2")
    assert code == 2
    assert "gfa stage" in capsys.readouterr().err


def test_stages_compose_like_run(tiny_file, tmp_path):
    whole = str(tmp_path / "whole")
    staged = str(tmp_path / "staged")
    assert quick_run(tiny_file, whole, seed=4) == 0
    assert run_cli("gfa", tiny_file, "--out", staged, "--seed", "4") == 0
    assert run_cli("optimize", tiny_file, "--out", staged, "--seed", "4",
                   "--replications", "2", "--epsilon-grid", "0.01:1:4") == 0
    assert run_cli("pareto", "--out", staged) == 0
    assert run_cli("validate", tiny_file, "--out", staged, "--seed", "4",
                   "--solution", os.path.join(staged, "plans",
                                              "plan_000.json"),
                   "--runs", "3") == 0
    for name in ("design.json", "solutions.csv", "front.csv", "front.svg"):
        a = open(os.path.join(whole, name), "rb").read()
        b = open(os.path.join(staged, name), "rb").read()
        assert a == b, name


def test_design_for_another_instance_exits_2(tiny_file, tmp_path, capsys):
    design = _design(tiny_file, tmp_path)
    plan = tmp_path / "plan.json"
    plan.write_text("{}")
    for argv in (["optimize", QATAR_PATH, "--replications", "1",
                  "--epsilon-grid", "0.01:1:2"],
                 ["validate", QATAR_PATH, "--solution", str(plan)]):
        assert run_cli(*argv, "--out", str(tmp_path / "o"),
                       "--design", design) == 2, argv
        err = capsys.readouterr().err
        assert "missing DCs DC1, DC2, DC3" in err
        assert "unknown DCs D1, D2, D3" in err
        assert "missing customers C6, C7" in err
    original = pathlib.Path(design).read_text()
    edited = json.loads(original)
    edited["z"]["D3"] = "W9"
    edited["y"]["CX"] = edited["y"].pop("C5")
    pathlib.Path(design).write_text(json.dumps(edited))
    assert run_cli("optimize", tiny_file, "--out", str(tmp_path / "o"),
                   "--design", design) == 2
    err = capsys.readouterr().err
    assert ("unknown warehouses W9; missing customers C5; "
            "unknown customers CX") in err
    # C4 lives in R2; D1 is a DC of R1.
    edited = json.loads(original)
    edited["y"]["C4"] = "D1"
    pathlib.Path(design).write_text(json.dumps(edited))
    assert run_cli("optimize", tiny_file, "--out", str(tmp_path / "o"),
                   "--design", design) == 2
    err = capsys.readouterr().err
    assert "customers linked to a DC outside their region: C4 to D1" in err
    # C4 is linked to D3, which needs their distance.
    edited = json.loads(original)
    del edited["distances"]["D3"]["C4"]
    pathlib.Path(design).write_text(json.dumps(edited))
    assert run_cli("optimize", tiny_file, "--out", str(tmp_path / "o"),
                   "--design", design) == 2
    err = capsys.readouterr().err
    assert "links without a finite distance: C4 to D3" in err
    # D3 is linked to W2, which prices only the DCs of R1.
    data = tiny_dict()
    data["warehouses"][1]["order_unit_cost"] = {"D1": 3.0, "D2": 3.0}
    unpriced = tmp_path / "unpriced.json"
    unpriced.write_text(json.dumps(data))
    pathlib.Path(design).write_text(original)
    sweeping = ["--replications", "1", "--epsilon-grid", "0.01:1:2"]
    for argv in (["optimize", str(unpriced), "--design", design, *sweeping],
                 ["validate", str(unpriced), "--design", design,
                  "--solution", str(plan)]):
        out = tmp_path / argv[0]
        assert run_cli(*argv, "--out", str(out)) == 2, argv
        assert "lanes without an order cost: D3 to W2" in capsys.readouterr().err
        assert not (out / "solutions.csv").exists()


def test_full_matrix_design_runs_like_links_only(tiny_file, tmp_path):
    # Older versions of gfa wrote every DC's distance to every customer,
    # across regions too.  Such a file still loads and fits, and the
    # stages read only its links' entries.
    tiny = instance_from_dict(tiny_dict())
    links_only = _design(tiny_file, tmp_path)
    data = json.loads(pathlib.Path(links_only).read_text())
    full = {dc: {c.id: euclidean_distance(tuple(loc), c.location)
                 for c in tiny.customers()}
            for dc, loc in data["dc_locations"].items()}
    # gfa writes one distance per customer, the full matrix's own value.
    assert sum(map(len, data["distances"].values())) == len(data["y"])
    for dc, row in data["distances"].items():
        assert row.items() <= full[dc].items()
    data["distances"] = full
    full_matrix = tmp_path / "full" / "design.json"
    full_matrix.parent.mkdir()
    full_matrix.write_text(json.dumps(data))
    assert design_mismatches(
        tiny, load_design(str(full_matrix)).design) == []
    for design in (links_only, str(full_matrix)):
        out = os.path.dirname(design)
        assert run_cli("optimize", tiny_file, "--out", out, "--design", design,
                       "--seed", "4", "--replications", "2",
                       "--epsilon-grid", "0.01:1:3") == 0
        assert run_cli("validate", tiny_file, "--out", out, "--design", design,
                       "--solution", os.path.join(out, "plans", "plan_001.json"),
                       "--runs", "3") == 0
    names = ["solutions.csv", "validation.csv"] + [
        os.path.join("plans", name) for name in
        sorted(os.listdir(os.path.join(os.path.dirname(links_only), "plans")))]
    for name in names:
        a = (pathlib.Path(links_only).parent / name).read_bytes()
        b = (full_matrix.parent / name).read_bytes()
        assert a == b, name


def test_run_links_dcs_to_warehouses_that_price_them(tmp_path):
    # W2 is D3's nearest warehouse but prices only the DCs of R1, so gfa
    # links D3 to W1, the nearest one that prices it.
    data = tiny_dict()
    data["warehouses"][1]["order_unit_cost"] = {"D1": 3.0, "D2": 3.0}
    unpriced = tmp_path / "unpriced.json"
    unpriced.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert run_cli("run", str(unpriced), "--out", str(out),
                   "--replications", "1", "--epsilon-grid", "0.01:1:2",
                   "--runs", "1") == 0
    design = json.loads((out / "design.json").read_text())
    assert design["z"] == {"D1": "W1", "D2": "W1", "D3": "W1"}


def test_validate_rejects_foreign_plan(tiny_file, tmp_path, capsys):
    staged = str(tmp_path / "s")
    assert run_cli("gfa", tiny_file, "--out", staged) == 0
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "epsilon": 0.1, "safety_stock": 0.2,
        "initial_inventory": {"DX": 5.0}, "z1": 1.0, "z1_se": 0.0,
        "z2": 1.0, "z2_se": 0.0, "inventory_cost": 1.0,
        "unfulfilled_cost": 0.0, "order_cost": 0.0, "master_seed": 0,
        "replications": 1}))
    code = run_cli("validate", tiny_file, "--out", staged,
                   "--solution", str(plan), "--runs", "2")
    assert code == 1
    assert capsys.readouterr().err.startswith("validate:")


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0


def test_log_env_variable_controls_verbosity(tiny_file, tmp_path):
    out = str(tmp_path / "o")
    env = dict(os.environ, CHAINFORGE_LOG="info",
               PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, "-m", "chainforge.cli", "gfa", tiny_file,
         "--out", out],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "INFO" in result.stderr
    assert result.stdout == ""
