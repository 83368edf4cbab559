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

    # Eight significant digits in every CSV cell instead of nine.
    pareto = copy / "src" / "chainforge" / "pareto.py"
    text = pareto.read_text()
    pareto.write_text(text.replace('format(v, ".9g")', 'format(v, ".8g")'))
    run = "run_safety-stock0.9_jobs1"
    assert same_outputs.compare(ROOT, str(copy), str(tmp_path / "changed"),
                                **REDUCED) == [
        f"{run}/front.csv", f"{run}/solutions.csv", f"{run}/validation.csv"]

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
