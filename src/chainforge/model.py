"""Core network types, instance loading, and shared geometry.

An instance file is a single JSON object with the following keys (unknown
keys are rejected at every level):

    warehouses            list of {id, location, capacity, order_unit_cost}
                          order_unit_cost is either a number (uniform over
                          DCs) or a mapping of DC id to number
    regions               list of {id, local_food_cost, average_income,
                          residential_areas, unfulfilled_unit_cost,
                          dcs, customers} plus optional persons_per_area,
                          accessibility_weights {affordability,
                          transportation, quality}
    regions[].dcs         list of {id, location, capacity,
                          inventory_unit_cost}; the listed location is the
                          initial placement refined by the green field stage
    regions[].customers   list of {id, location} plus optional demand
                          overriding the instance-wide demand spec
    nutrients             list of {id, weight, min_requirement,
                          per_kg_content}
    path_weights          optional list of {dc, customer, factor}
    stochastic            {demand: {family: "normal", mean, variance|std},
                          supply_loss: {family: "uniform", low, high}}
                          supply_loss parameterizes the retained fraction
                          (1 - loss) applied to each shipment
    safety_stock_fraction fraction of each DC's capacity kept as a floor
    horizon               number of planning periods
    persons_per_area      default population per residential area
    normalization_scales  optional {affordability, transportation, quality}

Distances are Euclidean on the coordinate plane, in kilometres.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from .errors import ParseError, ValidationError

DEFAULT_PERSONS_PER_AREA = 50_000.0


def euclidean_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Straight-line distance between two coordinates."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def running_sum(values: Iterable[float]) -> float:
    """0.0 plus each value in turn, left to right.

    The built-in sum() compensates float sums from Python 3.12 on, so
    its result depends on the Python version; this one does not.
    """
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class DemandSpec:
    """Per-period demand draw: normal, truncated at zero when sampled.

    The file may give the spread as ``variance`` or ``std``; both are held
    here as a standard deviation.
    """

    mean: float
    std: float


@dataclass(frozen=True)
class SupplyLossSpec:
    """Uniform distribution of the retained shipment fraction."""

    low: float
    high: float


@dataclass(frozen=True)
class AccessibilityWeights:
    affordability: float = 1.0
    transportation: float = 1.0
    quality: float = 1.0


@dataclass(frozen=True)
class Warehouse:
    id: str
    location: tuple[float, float]
    capacity: float
    order_unit_cost: Any  # float, or mapping of DC id -> float

    def prices(self, dc_id: str) -> bool:
        """Whether this warehouse has an order cost for the DC."""
        return (not isinstance(self.order_unit_cost, Mapping)
                or dc_id in self.order_unit_cost)

    def order_cost(self, dc_id: str) -> float:
        if not self.prices(dc_id):
            raise ValidationError(
                f"warehouse {self.id} has no order cost for DC {dc_id}")
        if isinstance(self.order_unit_cost, Mapping):
            return float(self.order_unit_cost[dc_id])
        return float(self.order_unit_cost)


@dataclass(frozen=True)
class DistributionCenter:
    id: str
    region_id: str
    location: tuple[float, float]
    capacity: float
    inventory_unit_cost: float


@dataclass(frozen=True)
class Customer:
    id: str
    region_id: str
    location: tuple[float, float]
    demand: DemandSpec


@dataclass(frozen=True)
class Region:
    id: str
    local_food_cost: float
    average_income: float
    residential_areas: int
    persons_per_area: float
    unfulfilled_unit_cost: float
    weights: AccessibilityWeights
    dcs: tuple[DistributionCenter, ...]
    customers: tuple[Customer, ...]

    @property
    def population(self) -> float:
        return self.residential_areas * self.persons_per_area


@dataclass(frozen=True)
class Nutrient:
    id: str
    weight: float
    min_requirement: float  # per person per period
    per_kg_content: float


@dataclass(frozen=True)
class NormalizationScales:
    affordability: float
    transportation: float
    quality: float


@dataclass(frozen=True)
class NetworkInstance:
    warehouses: tuple[Warehouse, ...]
    regions: tuple[Region, ...]
    nutrients: tuple[Nutrient, ...]
    demand: DemandSpec
    supply_loss: SupplyLossSpec
    safety_stock_fraction: float
    horizon: int
    path_weights: dict[tuple[str, str], float] = field(default_factory=dict)
    normalization_scales: NormalizationScales | None = None

    def dcs(self) -> list[DistributionCenter]:
        return [dc for region in self.regions for dc in region.dcs]

    def customers(self) -> list[Customer]:
        return [c for region in self.regions for c in region.customers]

    def path_weight(self, dc_id: str, customer_id: str) -> float:
        return self.path_weights.get((dc_id, customer_id), 1.0)


@dataclass(frozen=True)
class NetworkDesign:
    """Single-channel network produced by the green field stage.

    dc_warehouse maps each DC to its sole supplying warehouse (the z
    linkage) and customer_dc maps each customer to its sole DC (the y
    linkage), so the exactly-one structure holds by construction.
    distances[dc][customer] is each link's length in kilometres, one
    entry per customer under its DC; every DC has a row, empty when it
    serves no customer.  A file may hold more entries (older versions
    wrote the full DC-by-customer matrix); only the links' are read.
    """

    dc_locations: dict[str, tuple[float, float]]
    dc_warehouse: dict[str, str]
    customer_dc: dict[str, str]
    distances: dict[str, dict[str, float]]


def id_mismatches(kind: str, expected: Iterable[str],
                  found: Iterable[str]) -> list[str]:
    """The ids of expected that found lacks, and those found adds, as
    ["missing <kind> a, b", "unknown <kind> c"]; empty when they agree."""
    expected = list(expected)
    found = set(found)
    problems = []
    missing = [i for i in expected if i not in found]
    unknown = sorted(found - set(expected))
    if missing:
        problems.append(f"missing {kind} " + ", ".join(missing))
    if unknown:
        problems.append(f"unknown {kind} " + ", ".join(unknown))
    return problems


def design_mismatches(instance: NetworkInstance,
                      design: NetworkDesign) -> list[str]:
    """What keeps design from running on instance; empty when it fits.

    The design must locate and supply exactly the instance's DCs from
    the instance's warehouses (it need not order from every one), and
    link exactly the instance's customers, each to a DC of its own
    region at a finite distance.  A warehouse that prices its DCs one by
    one must price every DC the design links to it.
    """
    dc_region = {dc.id: dc.region_id for dc in instance.dcs()}
    customers = instance.customers()
    used = set(design.dc_warehouse.values())
    problems = (
        id_mismatches("DCs", dc_region, design.dc_warehouse)
        + id_mismatches("DC locations", dc_region, design.dc_locations)
        + id_mismatches("warehouses", [w.id for w in instance.warehouses
                                       if w.id in used], used)
        + id_mismatches("customers", [c.id for c in customers],
                        design.customer_dc))
    astray = [f"{c.id} to {design.customer_dc[c.id]}" for c in customers
              if c.id in design.customer_dc
              and dc_region.get(design.customer_dc[c.id]) != c.region_id]
    if astray:
        problems.append("customers linked to a DC outside their region: "
                        + ", ".join(astray))
    unmeasured = [
        f"{c} to {h}" for c, h in design.customer_dc.items()
        if not math.isfinite(design.distances.get(h, {}).get(c, math.nan))]
    if unmeasured:
        problems.append("links without a finite distance: "
                        + ", ".join(unmeasured))
    warehouses = {w.id: w for w in instance.warehouses}
    unpriced = [f"{h} to {w}" for h, w in design.dc_warehouse.items()
                if w in warehouses and not warehouses[w].prices(h)]
    if unpriced:
        problems.append("lanes without an order cost: " + ", ".join(unpriced))
    return problems


# ---------------------------------------------------------------------------
# parsing helpers

_NUMERIC = (int, float)


def _require_keys(obj: Any, where: str, required: Iterable[str],
                  optional: Iterable[str] = ()) -> None:
    """obj is a JSON object holding every required key and no key beyond
    required and optional."""
    if not isinstance(obj, Mapping):
        raise ParseError(f"{where}: expected a JSON object")
    optional = set(optional)
    problems = id_mismatches("keys", required,
                             [k for k in obj if k not in optional])
    if problems:
        raise ParseError(f"{where}: " + "; ".join(problems))


def _number(obj: Mapping[str, Any], where: str, key: str, *,
            ge: float | None = None, gt: float | None = None) -> float:
    """obj[key] as a finite float, at least ge and above gt when given."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, _NUMERIC):
        raise ParseError(f"{where}.{key}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ParseError(f"{where}.{key}: must be finite")
    if ge is not None and value < ge:
        raise ValidationError(f"{where}.{key}: must be >= {ge:g}")
    if gt is not None and value <= gt:
        raise ValidationError(f"{where}.{key}: must be > {gt:g}")
    return value


def _string(obj: Mapping[str, Any], where: str, key: str) -> str:
    value = obj[key]
    if not isinstance(value, str) or not value:
        raise ParseError(f"{where}.{key}: expected a non-empty string")
    return value


def _integer(obj: Mapping[str, Any], where: str, key: str) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}.{key} must be an integer")
    return value


def _object(obj: Mapping[str, Any], where: str, key: str) -> Mapping[str, Any]:
    value = obj[key]
    if not isinstance(value, Mapping):
        raise ParseError(f"{where}.{key}: expected a JSON object")
    return value


def _location(obj: Mapping[str, Any], where: str,
              key: str = "location") -> tuple[float, float]:
    value = obj[key]
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, _NUMERIC) for v in value)):
        raise ParseError(f"{where}.{key}: expected [x, y]")
    x, y = float(value[0]), float(value[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ParseError(f"{where}.{key}: coordinates must be finite")
    return (x, y)


def _parse_demand(obj: Mapping[str, Any], where: str) -> DemandSpec:
    _require_keys(obj, where, ["family", "mean"], ["variance", "std"])
    if obj["family"] != "normal":
        raise ParseError(f"{where}.family: only 'normal' is supported")
    if ("variance" in obj) == ("std" in obj):
        raise ParseError(f"{where}: give exactly one of 'variance' or 'std'")
    mean = _number(obj, where, "mean", gt=0)
    if "variance" in obj:
        std = math.sqrt(_number(obj, where, "variance", ge=0))
    else:
        std = _number(obj, where, "std", ge=0)
    return DemandSpec(mean=mean, std=std)


def _parse_supply_loss(obj: Mapping[str, Any], where: str) -> SupplyLossSpec:
    _require_keys(obj, where, ["family", "low", "high"])
    if obj["family"] != "uniform":
        raise ParseError(f"{where}.family: only 'uniform' is supported")
    low = _number(obj, where, "low")
    high = _number(obj, where, "high")
    if not (0.0 <= low <= high <= 1.0):
        raise ValidationError(f"{where}: need 0 <= low <= high <= 1, got [{low}, {high}]")
    return SupplyLossSpec(low=low, high=high)


def _parse_weights(obj: Mapping[str, Any] | None, where: str) -> AccessibilityWeights:
    if obj is None:
        return AccessibilityWeights()
    _require_keys(obj, where, [], ["affordability", "transportation", "quality"])
    return AccessibilityWeights(**{key: _number(obj, where, key, ge=0)
                                   for key in obj})


def _parse_warehouse(obj: Mapping[str, Any], where: str) -> Warehouse:
    _require_keys(obj, where, ["id", "location", "capacity", "order_unit_cost"])
    wid = _string(obj, where, "id")
    capacity = _number(obj, where, "capacity", gt=0)
    cost = obj["order_unit_cost"]
    if isinstance(cost, Mapping):
        parsed: Any = {dc_id: _number(cost, f"{where}.order_unit_cost", dc_id, ge=0)
                       for dc_id in cost}
    else:
        parsed = _number(obj, where, "order_unit_cost", ge=0)
    return Warehouse(id=wid, location=_location(obj, where), capacity=capacity,
                     order_unit_cost=parsed)


def _parse_dc(obj: Mapping[str, Any], region_id: str, where: str) -> DistributionCenter:
    _require_keys(obj, where, ["id", "location", "capacity", "inventory_unit_cost"])
    return DistributionCenter(
        id=_string(obj, where, "id"), region_id=region_id,
        location=_location(obj, where),
        capacity=_number(obj, where, "capacity", gt=0),
        inventory_unit_cost=_number(obj, where, "inventory_unit_cost", ge=0))


def _parse_customer(obj: Mapping[str, Any], region_id: str, default_demand: DemandSpec,
                    where: str) -> Customer:
    _require_keys(obj, where, ["id", "location"], ["demand"])
    demand = default_demand
    if "demand" in obj:
        demand = _parse_demand(obj["demand"], f"{where}.demand")
    return Customer(id=_string(obj, where, "id"), region_id=region_id,
                    location=_location(obj, where), demand=demand)


def _parse_region(obj: Mapping[str, Any], default_demand: DemandSpec,
                  default_persons: float, where: str) -> Region:
    _require_keys(
        obj, where,
        ["id", "local_food_cost", "average_income", "residential_areas",
         "unfulfilled_unit_cost", "dcs", "customers"],
        ["persons_per_area", "accessibility_weights"],
    )
    region_id = _string(obj, where, "id")
    cost = _number(obj, where, "local_food_cost", ge=0)
    income = _number(obj, where, "average_income", gt=0)
    areas = obj["residential_areas"]
    if isinstance(areas, bool) or not isinstance(areas, int) or areas < 1:
        raise ValidationError(f"{where}.residential_areas: must be an integer >= 1")
    rho = _number(obj, where, "unfulfilled_unit_cost", ge=0)
    persons = default_persons
    if "persons_per_area" in obj:
        persons = _number(obj, where, "persons_per_area", gt=0)
    if not isinstance(obj["dcs"], list) or not obj["dcs"]:
        raise ParseError(f"{where}.dcs: expected a non-empty list")
    if not isinstance(obj["customers"], list) or not obj["customers"]:
        raise ParseError(f"{where}.customers: expected a non-empty list")
    dcs = tuple(_parse_dc(d, region_id, f"{where}.dcs[{i}]")
                for i, d in enumerate(obj["dcs"]))
    customers = tuple(_parse_customer(c, region_id, default_demand, f"{where}.customers[{i}]")
                      for i, c in enumerate(obj["customers"]))
    weights = _parse_weights(obj.get("accessibility_weights"), f"{where}.accessibility_weights")
    return Region(id=region_id, local_food_cost=cost, average_income=income,
                  residential_areas=areas, persons_per_area=persons,
                  unfulfilled_unit_cost=rho, weights=weights, dcs=dcs,
                  customers=customers)


def _parse_nutrient(obj: Mapping[str, Any], where: str) -> Nutrient:
    _require_keys(obj, where, ["id", "weight", "min_requirement", "per_kg_content"])
    return Nutrient(
        id=_string(obj, where, "id"),
        weight=_number(obj, where, "weight", ge=0),
        min_requirement=_number(obj, where, "min_requirement", ge=0),
        per_kg_content=_number(obj, where, "per_kg_content", gt=0))


def _parse_scales(obj: Mapping[str, Any], where: str) -> NormalizationScales:
    _require_keys(obj, where, ["affordability", "transportation", "quality"])
    return NormalizationScales(**{k: _number(obj, where, k, gt=0) for k in obj})


def instance_from_dict(data: Mapping[str, Any]) -> NetworkInstance:
    """Build and validate a NetworkInstance from parsed JSON data."""
    _require_keys(
        data, "instance",
        ["warehouses", "regions", "nutrients", "stochastic",
         "safety_stock_fraction", "horizon"],
        ["path_weights", "persons_per_area", "normalization_scales"],
    )
    stochastic = data["stochastic"]
    _require_keys(stochastic, "instance.stochastic", ["demand", "supply_loss"])
    demand = _parse_demand(stochastic["demand"], "instance.stochastic.demand")
    supply_loss = _parse_supply_loss(stochastic["supply_loss"],
                                     "instance.stochastic.supply_loss")

    v = _number(data, "instance", "safety_stock_fraction")
    if not 0.0 <= v <= 1.0:
        raise ValidationError(f"instance.safety_stock_fraction: must be in [0, 1], got {v}")
    horizon = data["horizon"]
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1:
        raise ValidationError("instance.horizon: must be an integer >= 1")

    persons = DEFAULT_PERSONS_PER_AREA
    if "persons_per_area" in data:
        persons = _number(data, "instance", "persons_per_area", gt=0)

    if not isinstance(data["warehouses"], list) or not data["warehouses"]:
        raise ParseError("instance.warehouses: expected a non-empty list")
    if not isinstance(data["regions"], list) or not data["regions"]:
        raise ParseError("instance.regions: expected a non-empty list")
    if not isinstance(data["nutrients"], list) or not data["nutrients"]:
        raise ParseError("instance.nutrients: expected a non-empty list")

    warehouses = tuple(_parse_warehouse(w, f"instance.warehouses[{i}]")
                       for i, w in enumerate(data["warehouses"]))
    regions = tuple(_parse_region(r, demand, persons, f"instance.regions[{i}]")
                    for i, r in enumerate(data["regions"]))
    nutrients = tuple(_parse_nutrient(n, f"instance.nutrients[{i}]")
                      for i, n in enumerate(data["nutrients"]))

    scales = None
    if "normalization_scales" in data:
        scales = _parse_scales(data["normalization_scales"], "instance.normalization_scales")

    instance = NetworkInstance(
        warehouses=warehouses, regions=regions, nutrients=nutrients,
        demand=demand, supply_loss=supply_loss, safety_stock_fraction=v,
        horizon=horizon, normalization_scales=scales,
    )
    _check_unique_ids(instance)

    if "path_weights" in data:
        if not isinstance(data["path_weights"], list):
            raise ParseError("instance.path_weights: expected a list")
        dc_ids = {dc.id for dc in instance.dcs()}
        customer_ids = {c.id for c in instance.customers()}
        weights: dict[tuple[str, str], float] = {}
        for i, entry in enumerate(data["path_weights"]):
            where = f"instance.path_weights[{i}]"
            _require_keys(entry, where, ["dc", "customer", "factor"])
            dc = _string(entry, where, "dc")
            customer = _string(entry, where, "customer")
            factor = _number(entry, where, "factor", ge=0)
            if dc not in dc_ids:
                raise ValidationError(f"{where}.dc: unknown DC {dc!r}")
            if customer not in customer_ids:
                raise ValidationError(f"{where}.customer: unknown customer {customer!r}")
            if (dc, customer) in weights:
                raise ValidationError(f"{where}: duplicate pair ({dc}, {customer})")
            weights[(dc, customer)] = factor
        instance.path_weights.update(weights)

    for w in warehouses:
        if isinstance(w.order_unit_cost, Mapping):
            known = {dc.id for dc in instance.dcs()}
            for dc_id in w.order_unit_cost:
                if dc_id not in known:
                    raise ValidationError(
                        f"warehouse {w.id}: order_unit_cost names unknown DC {dc_id!r}")
    for dc in instance.dcs():
        if not any(w.prices(dc.id) for w in warehouses):
            raise ValidationError(
                f"instance.warehouses: no order_unit_cost prices DC {dc.id}")
    return instance


def _check_unique_ids(instance: NetworkInstance) -> None:
    for label, ids in (
        ("warehouse", [w.id for w in instance.warehouses]),
        ("region", [r.id for r in instance.regions]),
        ("DC", [dc.id for dc in instance.dcs()]),
        ("customer", [c.id for c in instance.customers()]),
        ("nutrient", [n.id for n in instance.nutrients]),
    ):
        seen: set[str] = set()
        for i in ids:
            if i in seen:
                raise ValidationError(f"duplicate {label} id {i!r}")
            seen.add(i)


def read_json(path: str) -> Any:
    """The decoded contents of the JSON file at path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # a JSON or UTF-8 decoding error
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def write_json(path: str, payload: Any) -> None:
    """Write payload as indented JSON with sorted keys at every level, so
    equal payloads give equal bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(path: str) -> NetworkInstance:
    """Load, parse, and validate an instance file."""
    return instance_from_dict(read_json(path))

