"""Generated plans and designs through save, load and the field checks."""

import json
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainforge.errors import ParseError
from chainforge.gfa import GfaResult, load_design, save_design
from chainforge.model import NetworkDesign
from chainforge.stochastic import OperationalPlan, load_plan, save_plan

# Fixed examples on every run; each one rewrites the same file.
EXAMPLES = settings(derandomize=True, database=None, max_examples=60,
                    deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

ids = st.text(min_size=1, max_size=6)
finite = st.floats(allow_nan=False, allow_infinity=False)
km = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)

plans = st.builds(
    OperationalPlan,
    initial_inventory=st.dictionaries(ids, finite, max_size=4),
    **{f.name: finite if f.type == "float" else st.integers()
       for f in fields(OperationalPlan) if f.name != "initial_inventory"})


@st.composite
def designs(draw, full_matrix):
    """A GfaResult whose distances hold each customer's link only, or
    every DC-by-customer entry, as older versions wrote them."""
    dcs = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    customers = draw(st.lists(ids, max_size=6, unique=True))
    warehouses = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    regions = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    customer_dc = {c: draw(st.sampled_from(dcs)) for c in customers}
    distances = {dc: {c: draw(km) for c in customers
                      if full_matrix or customer_dc[c] == dc} for dc in dcs}
    design = NetworkDesign(
        dc_locations={dc: (draw(finite), draw(finite)) for dc in dcs},
        dc_warehouse={dc: draw(st.sampled_from(warehouses)) for dc in dcs},
        customer_dc=customer_dc, distances=distances)
    return GfaResult(
        design=design,
        region_objectives={r: draw(finite) for r in regions},
        iterations_used={r: draw(st.integers(0, 10**6)) for r in regions},
        converged=draw(st.booleans()))


@EXAMPLES
@given(plan=plans)
def test_generated_plan_round_trips(tmp_path, plan):
    path = str(tmp_path / "plan.json")
    save_plan(plan, path)
    assert load_plan(path) == plan


@pytest.mark.parametrize("full_matrix", [False, True],
                         ids=["links-only", "full-matrix"])
@EXAMPLES
@given(data=st.data())
def test_generated_design_round_trips(tmp_path, full_matrix, data):
    result = data.draw(designs(full_matrix))
    path = str(tmp_path / "design.json")
    save_design(result, path)
    assert load_design(path) == result


_JSON_TYPES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.integers() | finite,
    "string": st.text(),
    "array": st.lists(st.integers(), max_size=2),
    "object": st.dictionaries(ids, st.integers(), max_size=2),
}


def _json_type(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def _places(document, path=()):
    """The path of every value below the root of a JSON document."""
    if isinstance(document, dict):
        items = document.items()
    elif isinstance(document, list):
        items = enumerate(document)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _places(value, path + (key,))


@pytest.mark.parametrize("save, load, documents", [
    (save_plan, load_plan, plans),
    (save_design, load_design, st.booleans().flatmap(designs)),
], ids=["plan", "design"])
@EXAMPLES
@given(data=st.data())
def test_one_value_of_another_json_type_is_rejected(tmp_path, save, load,
                                                    documents, data):
    path = str(tmp_path / "file.json")
    save(data.draw(documents), path)
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    *parents, key = data.draw(st.sampled_from(list(_places(document))))
    holder = document
    for step in parents:
        holder = holder[step]
    kind = data.draw(st.sampled_from(
        [kind for kind in _JSON_TYPES if kind != _json_type(holder[key])]))
    holder[key] = data.draw(_JSON_TYPES[kind])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
    with pytest.raises(ParseError):
        load(path)
