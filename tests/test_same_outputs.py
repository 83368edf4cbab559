"""scripts/same_outputs.py on two source trees, at a reduced grid."""

import importlib.util
import os
import shutil

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_spec = importlib.util.spec_from_file_location(
    "same_outputs", os.path.join(ROOT, "scripts", "same_outputs.py"))
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

# Two grid points, two replications and one simulation run, at a safety
# stock where every period model is a root LP.
REDUCED = dict(runs=[["--safety-stock", "0.9", "--jobs", "1"]],
               pinned=["--seed", "0", "--epsilon-grid", "0.001:1:2",
                       "--replications", "2", "--runs", "1"],
               network_seeds=())


def test_compare_finds_only_what_a_tree_changes(tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(os.path.join(ROOT, "src"), copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert same_outputs.compare(ROOT, str(copy), str(tmp_path / "same"),
                                **REDUCED) == []

    # Eight significant digits in every CSV cell instead of nine.  A CSV
    # file is listed with each numeric column's largest relative change,
    # at most about half a unit in the eighth digit.
    pareto = copy / "src" / "chainforge" / "pareto.py"
    text = pareto.read_text()
    pareto.write_text(text.replace('format(v, ".9g")', 'format(v, ".8g")'))
    run = "run_safety-stock0.9_jobs1"
    differ = same_outputs.compare(ROOT, str(copy), str(tmp_path / "changed"),
                                  **REDUCED)
    assert [name.split(": change ")[0] for name in differ] == [
        f"{run}/front.csv", f"{run}/solutions.csv", f"{run}/validation.csv"]
    for name in differ:
        changes = name.split(": change ")[1].split(", ")
        assert changes and all(
            0.0 < float(change.split()[1]) < 1e-7 for change in changes)

    # Two keys of the design file change; a JSON file is listed with the
    # top-level keys that differ.
    pareto.write_text(text)
    gfa = copy / "src" / "chainforge" / "gfa.py"
    gfa.write_text(gfa.read_text().replace(
        '"iterations_used": result.iterations_used,', '"iterations_used": {},'
    ).replace('"converged": result.converged,',
              '"converged": not result.converged,'))
    assert same_outputs.compare(ROOT, str(copy), str(tmp_path / "design"),
                                **REDUCED) == [
        f"{run}/design.json: keys converged, iterations_used"]


def test_csv_changes_names_each_columns_largest_relative_change(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("run,cost,service,zero,label\n"
                 "0,100,0.5,0,x\n"
                 "1,200,0.25,0,y\n"
                 "mean,150,0.375,0,z\n")
    b.write_text("run,cost,service,zero,label\n"
                 "0,100,0.5,1e-12,x\n"
                 "1,202,0.25,0,w\n"
                 "mean,151,0.375,0,z\n")
    # run and label hold text; service does not change.
    assert same_outputs.csv_changes(str(a), str(b)) == (
        "change cost 0.01 at row 2, zero inf at row 1")
    assert same_outputs.csv_changes(str(a), str(a)) == (
        "change (none in numeric columns)")
    b.write_text("run,cost,service,zero,label\n0,100,0.5,0,x\n")
    assert same_outputs.csv_changes(str(a), str(b)) == (
        "header or row count differs")
