"""Generated plans and designs through save, load and the field checks."""

import copy
import json
import math
import re
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainforge.desim import simulate
from chainforge.errors import ConfigError, DomainError, ParseError
from chainforge.gfa import (GfaResult, assign_linkages, load_design,
                            save_design)
from chainforge.model import (DEFAULT_PERSONS_PER_AREA, AccessibilityWeights,
                              Customer, DemandSpec, DistributionCenter,
                              NetworkDesign, NetworkInstance,
                              NormalizationScales, Nutrient, Region,
                              SupplyLossSpec, Warehouse, design_mismatches,
                              instance_from_dict)
from chainforge.pareto import sweep
from chainforge.stochastic import (OperationalPlan, StochasticConfig,
                                   default_initial_inventory, load_plan,
                                   save_plan)

from conftest import tiny_dict

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


@st.composite
def networks(draw):
    """An instance on the tiny network's template: two or three regions
    of one or two DCs and one to three customers each, at drawn sites.
    W1 prices every DC and W2 a drawn strict subset of them."""
    data = tiny_dict()
    template = data["regions"][0]
    site = st.lists(st.floats(0.0, 50.0), min_size=2, max_size=2)
    dcs, customers, regions = [], [], []
    for r in range(draw(st.integers(2, 3))):
        first_dc, first_customer = len(dcs), len(customers)
        dcs += [{"id": f"D{len(dcs) + i + 1}", "location": draw(site),
                 "capacity": 150.0, "inventory_unit_cost": 10.0}
                for i in range(draw(st.integers(1, 2)))]
        customers += [{"id": f"C{len(customers) + i + 1}",
                       "location": draw(site)}
                      for i in range(draw(st.integers(1, 3)))]
        regions.append({**template, "id": f"R{r + 1}",
                        "dcs": dcs[first_dc:], "customers":
                        customers[first_customer:]})
    priced = draw(st.lists(st.sampled_from([dc["id"] for dc in dcs]),
                           min_size=1, max_size=len(dcs) - 1, unique=True))
    data["warehouses"][1]["order_unit_cost"] = dict.fromkeys(priced, 3.0)
    data["regions"] = regions
    return instance_from_dict(data)


@st.composite
def misfits(draw, defect):
    """(instance, design, problem): a design that fits the instance but
    for one defect, and the problem design_mismatches must name."""
    instance = draw(networks())
    fit = assign_linkages(instance,
                          {dc.id: dc.location for dc in instance.dcs()})
    assert design_mismatches(instance, fit) == []
    design = copy.deepcopy(fit)
    dc_region = {dc.id: dc.region_id for dc in instance.dcs()}
    customer = draw(st.sampled_from(instance.customers()))
    serving = design.customer_dc[customer.id]
    if defect in ("missing DC", "unknown DC"):
        links, kind = draw(st.sampled_from([
            (design.dc_warehouse, "DCs"),
            (design.dc_locations, "DC locations")]))
        if defect == "missing DC":
            h = draw(st.sampled_from(sorted(links)))
            del links[h]
            return instance, design, f"missing {kind} {h}"
        links["X1"] = "W1" if kind == "DCs" else (0.0, 0.0)
        return instance, design, f"unknown {kind} X1"
    if defect == "missing customer":
        del design.customer_dc[customer.id]
        return instance, design, f"missing customers {customer.id}"
    if defect == "unknown customer":
        design.customer_dc["X1"] = serving
        design.distances[serving]["X1"] = 1.0
        return instance, design, "unknown customers X1"
    if defect == "linked outside its region":
        h = draw(st.sampled_from([h for h, region in dc_region.items()
                                  if region != customer.region_id]))
        design.customer_dc[customer.id] = h
        design.distances[h][customer.id] = draw(st.floats(0.0, 100.0))
        return instance, design, ("customers linked to a DC outside their "
                                  f"region: {customer.id} to {h}")
    if defect == "no finite distance":
        row = design.distances[serving]
        value = draw(st.sampled_from([None, math.nan, math.inf, -math.inf]))
        if value is None:
            del row[customer.id]
        else:
            row[customer.id] = value
        return instance, design, ("links without a finite distance: "
                                  f"{customer.id} to {serving}")
    assert defect == "unpriced lane"
    w2 = instance.warehouses[1]
    h = draw(st.sampled_from([h for h in dc_region if not w2.prices(h)]))
    design.dc_warehouse[h] = w2.id
    return instance, design, f"lanes without an order cost: {h} to {w2.id}"


@pytest.mark.parametrize("defect", [
    "missing DC", "unknown DC", "missing customer", "unknown customer",
    "linked outside its region", "no finite distance", "unpriced lane"])
@settings(EXAMPLES, max_examples=15)
@given(data=st.data())
def test_a_design_with_one_defect_is_named_and_refused(defect, data):
    instance, design, problem = data.draw(misfits(defect))
    assert design_mismatches(instance, design) == [problem]
    plan = OperationalPlan(
        epsilon=0.01, safety_stock=0.2,
        initial_inventory=default_initial_inventory(instance, 0.2),
        z1=0.0, z1_se=0.0, z2=0.0, z2_se=0.0, inventory_cost=0.0,
        unfulfilled_cost=0.0, order_cost=0.0, master_seed=0, replications=1)
    with pytest.raises(ConfigError, match="design does not fit") as refused:
        simulate(instance, design, plan)
    assert problem in str(refused.value)
    with pytest.raises(DomainError, match="design does not fit") as refused:
        sweep(instance, design, [0.01], StochasticConfig(replications=1))
    assert problem in str(refused.value)


positive = st.integers(1, 10**6) | st.floats(1e-3, 1e6)
nonnegative = st.integers(0, 10**6) | st.floats(0.0, 1e6)
fraction = st.floats(0.0, 1.0)
sites = st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2)
SCALES = ("affordability", "transportation", "quality")


@st.composite
def demand_specs(draw):
    """A normal demand spec with its spread given as variance or std."""
    return {"family": "normal", "mean": draw(positive),
            draw(st.sampled_from(["variance", "std"])): draw(nonnegative)}


@st.composite
def instance_documents(draw):
    """An instance document on the tiny network's template: one to three
    regions of one or two DCs and one to three customers each, with each
    optional key drawn in or left out.  Per-customer demand, accessibility
    weights, persons per area (per region and instance-wide),
    normalization scales and path weights are drawn.  W1 prices every DC,
    uniformly or one by one, and W2 uniformly or a drawn subset."""
    data = tiny_dict()
    template = data["regions"][0]
    dcs, customers, regions = [], [], []
    for r in range(draw(st.integers(1, 3))):
        region = {**template, "id": f"R{r + 1}",
                  "residential_areas": draw(st.integers(1, 10)),
                  "unfulfilled_unit_cost": draw(nonnegative)}
        del region["accessibility_weights"]
        if draw(st.booleans()):
            region["accessibility_weights"] = draw(
                st.dictionaries(st.sampled_from(SCALES), nonnegative))
        if draw(st.booleans()):
            region["persons_per_area"] = draw(positive)
        region["dcs"] = [
            {"id": f"D{len(dcs) + i + 1}", "location": draw(sites),
             "capacity": draw(positive), "inventory_unit_cost": draw(nonnegative)}
            for i in range(draw(st.integers(1, 2)))]
        region["customers"] = [
            {"id": f"C{len(customers) + i + 1}", "location": draw(sites)}
            for i in range(draw(st.integers(1, 3)))]
        for customer in region["customers"]:
            if draw(st.booleans()):
                customer["demand"] = draw(demand_specs())
        dcs += region["dcs"]
        customers += region["customers"]
        regions.append(region)
    data["regions"] = regions
    dc_ids = [dc["id"] for dc in dcs]
    for warehouse, every in zip(data["warehouses"], (True, False)):
        if draw(st.booleans()):
            warehouse["order_unit_cost"] = draw(nonnegative)
        else:
            priced = dc_ids if every else draw(st.lists(
                st.sampled_from(dc_ids), unique=True))
            warehouse["order_unit_cost"] = {h: draw(nonnegative) for h in priced}
    data["stochastic"]["demand"] = draw(demand_specs())
    low, high = sorted(draw(st.lists(fraction, min_size=2, max_size=2)))
    data["stochastic"]["supply_loss"].update(low=low, high=high)
    data["horizon"] = draw(st.integers(1, 12))
    data["safety_stock_fraction"] = draw(fraction)
    del data["persons_per_area"]
    if draw(st.booleans()):
        data["persons_per_area"] = draw(positive)
    if draw(st.booleans()):
        data["normalization_scales"] = {key: draw(positive) for key in SCALES}
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(st.sampled_from(dc_ids), st.sampled_from(
            [c["id"] for c in customers])), unique=True, max_size=4))
        data["path_weights"] = [{"dc": h, "customer": c,
                                 "factor": draw(nonnegative)} for h, c in pairs]
    return data


def expected_instance(document):
    """The NetworkInstance that keeps every value of an instance
    document, with the documented defaults where a key is left out."""
    def demand(spec):
        return DemandSpec(mean=spec["mean"], std=spec["std"] if "std" in spec
                          else math.sqrt(spec["variance"]))

    def location(obj):
        return tuple(map(float, obj["location"]))

    def cost(value):
        return ({h: float(v) for h, v in value.items()}
                if isinstance(value, dict) else float(value))

    default = demand(document["stochastic"]["demand"])
    persons = document.get("persons_per_area", DEFAULT_PERSONS_PER_AREA)
    scales = document.get("normalization_scales")
    return NetworkInstance(
        warehouses=tuple(Warehouse(
            id=w["id"], location=location(w), capacity=w["capacity"],
            order_unit_cost=cost(w["order_unit_cost"]))
            for w in document["warehouses"]),
        regions=tuple(Region(
            id=r["id"], local_food_cost=r["local_food_cost"],
            average_income=r["average_income"],
            residential_areas=r["residential_areas"],
            persons_per_area=r.get("persons_per_area", persons),
            unfulfilled_unit_cost=r["unfulfilled_unit_cost"],
            weights=AccessibilityWeights(**r.get("accessibility_weights", {})),
            dcs=tuple(DistributionCenter(
                id=dc["id"], region_id=r["id"], location=location(dc),
                capacity=dc["capacity"],
                inventory_unit_cost=dc["inventory_unit_cost"])
                for dc in r["dcs"]),
            customers=tuple(Customer(
                id=c["id"], region_id=r["id"], location=location(c),
                demand=demand(c["demand"]) if "demand" in c else default)
                for c in r["customers"]))
            for r in document["regions"]),
        nutrients=tuple(Nutrient(**n) for n in document["nutrients"]),
        demand=default,
        supply_loss=SupplyLossSpec(
            low=document["stochastic"]["supply_loss"]["low"],
            high=document["stochastic"]["supply_loss"]["high"]),
        safety_stock_fraction=document["safety_stock_fraction"],
        horizon=document["horizon"],
        path_weights={(p["dc"], p["customer"]): p["factor"]
                      for p in document.get("path_weights", [])},
        normalization_scales=scales and NormalizationScales(**scales))


@EXAMPLES
@given(document=instance_documents())
def test_generated_instance_document_loads_every_value(document):
    assert instance_from_dict(document) == expected_instance(document)


@EXAMPLES
@given(data=st.data())
def test_instance_value_of_another_json_type_is_named(data):
    # A warehouse's order_unit_cost is a number or an object; every
    # other value has one JSON type.  An element of an [x, y] location
    # is reported as the location.
    document = data.draw(instance_documents())
    place = data.draw(st.sampled_from(list(_places(document))))
    *parents, key = place
    holder = document
    for step in parents:
        holder = holder[step]
    accepted = ({"number", "object"} if key == "order_unit_cost"
                else {_json_type(holder[key])})
    kind = data.draw(st.sampled_from(
        [kind for kind in _JSON_TYPES if kind not in accepted]))
    holder[key] = data.draw(_JSON_TYPES[kind])
    if parents and parents[-1] == "location":
        place = place[:-1]
    named = "instance" + "".join(f"[{step}]" if isinstance(step, int)
                                 else f".{step}" for step in place)
    with pytest.raises(ParseError, match="^" + re.escape(named) + "[: ]"):
        instance_from_dict(document)
