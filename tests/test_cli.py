"""Command line stages, artifacts, exit codes, and determinism."""

import json
import os
import subprocess
import sys

import pytest

from chainforge.cli import main
from conftest import QATAR_PATH, tiny_dict

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

    def tagged_build(instance, design, opening, demands, factors, epsilon,
                     period, **kwargs):
        model, index = real_build(instance, design, opening, demands,
                                  factors, epsilon, period, **kwargs)
        model.name = f"epsilon={epsilon:g}"
        return model, index

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


def test_missing_instance_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert run_cli("run", missing, "--out", str(tmp_path / "o")) == 2
    assert missing in capsys.readouterr().err


def test_zero_replications_exits_2(tiny_file, tmp_path):
    code = run_cli("run", tiny_file, "--out", str(tmp_path / "o"),
                   "--replications", "0")
    assert code == 2


def test_zero_runs_exits_2(tiny_file, tmp_path):
    code = run_cli("run", tiny_file, "--out", str(tmp_path / "o"),
                   "--runs", "0")
    assert code == 2


def test_bad_grid_exits_2(tiny_file, tmp_path, capsys):
    code = run_cli("run", tiny_file, "--out", str(tmp_path / "o"),
                   "--epsilon-grid", "nope")
    assert code == 2
    assert "low:high:steps" in capsys.readouterr().err


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


def test_validate_rejects_foreign_plan(tiny_file, tmp_path, capsys):
    staged = str(tmp_path / "s")
    assert run_cli("gfa", tiny_file, "--out", staged) == 0
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "epsilon": 0.1, "safety_stock": 0.2,
        "initial_inventory": {"DX": 5.0}, "z1": 1.0, "z1_se": 0.0,
        "z2": 1.0, "z2_se": 0.0, "inventory_cost": 1.0,
        "unfulfilled_cost": 0.0, "order_cost": 0.0, "master_seed": 0,
        "replications": 1, "balance_form": "delivered"}))
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
