"""The runtime stays numpy-only; scipy is a test-side oracle; src holds
only code the program runs."""

import ast
import json
import os
import re
import subprocess
import sys

import pytest

import chainforge

PACKAGE = os.path.dirname(chainforge.__file__)
SRC = os.path.dirname(PACKAGE)
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


def test_model_loads_without_numpy():
    # Loading an instance needs only chainforge.model; keeping numpy out
    # of it keeps that process's start-up short.
    probe = "import sys, chainforge.model; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_declared_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.split(r"[\s\[<>=!~;]", dep, maxsplit=1)[0]
             for dep in project["dependencies"]]
    assert names == ["numpy"]


def _package():
    """(module name, syntax tree) of every module in the package."""
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                yield name[:-3], ast.parse(fh.read())


def _calls_getattr(node):
    return any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
               and call.func.id == "getattr" for call in ast.walk(node))


# audit_replication is a documented library check: the tests and the
# benchmark tracer call it, and ROADMAP.md plans to run it on every
# replication in the pipeline worker.
_CALLED_OUTSIDE_SRC = {"stochastic.audit_replication"}

# bench/trace_cli.py counts the replay's orders and events from these
# report fields; nothing in src reads them yet.
_READ_OUTSIDE_SRC = {"desim.SimReport.orders_placed",
                     "desim.SimReport.orders_dropped",
                     "desim.SimReport.orders_expired",
                     "desim.SimReport.events"}


def test_every_definition_in_src_is_used_in_src():
    # Every top-level function or class, and every method, is named
    # somewhere in the package besides its definition, so nothing in src
    # exists only for the tests.  Dunder methods are called implicitly.
    defined, used = [], set()
    for module, tree in _package():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{item.name}", item.name)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {qualified for qualified, name in defined if name not in used}
    assert sorted(unused - _CALLED_OUTSIDE_SRC) == []
    # An exemption names a definition that src still does not use.
    assert sorted(_CALLED_OUTSIDE_SRC - unused) == []


def test_every_field_in_src_is_read_in_src():
    # Every annotated class field (dataclass and NamedTuple fields) is
    # read somewhere in the package: loaded as an attribute, or named by
    # a string in a statement that calls getattr, as audit_replication
    # reads PeriodDecision's arrays.  A field only written is state that
    # is computed but never read.
    fields, read = [], set()
    for module, tree in _package():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                fields += [(f"{module}.{node.name}.{item.target.id}",
                            item.target.id) for item in node.body
                           if isinstance(item, ast.AnnAssign)
                           and isinstance(item.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.stmt) and not hasattr(node, "body")
                  and _calls_getattr(node)):
                read.update(constant.value for constant in ast.walk(node)
                            if isinstance(constant, ast.Constant)
                            and isinstance(constant.value, str))
    unread = {qualified for qualified, name in fields if name not in read}
    assert sorted(unread - _READ_OUTSIDE_SRC) == []
    # An exemption names a field that src still does not read.
    assert sorted(_READ_OUTSIDE_SRC - unread) == []
