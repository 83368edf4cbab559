"""The runtime stays numpy-only; scipy is a test-side oracle."""

import json
import os
import re
import subprocess
import sys

import pytest

import chainforge

SRC = os.path.dirname(os.path.dirname(chainforge.__file__))
PYPROJECT = os.path.join(os.path.dirname(SRC), "pyproject.toml")

# Imports every chainforge module and reports what that pulled in
# beyond the standard library.
_PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import chainforge
for info in pkgutil.iter_modules(chainforge.__path__):
    importlib.import_module("chainforge." + info.name)
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps({
    "scipy": "scipy" in sys.modules,
    "third_party": sorted(added - set(sys.stdlib_module_names)),
}))
"""


def test_modules_import_numpy_only():
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    assert report["scipy"] is False
    assert report["third_party"] == ["chainforge", "numpy"]


def test_declared_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.split(r"[\s\[<>=!~;]", dep, maxsplit=1)[0]
             for dep in project["dependencies"]]
    assert names == ["numpy"]
