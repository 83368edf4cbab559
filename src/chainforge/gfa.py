"""Green field analysis: demand-weighted center-of-gravity placement.

Each region gets one center per DC it declares.  A single center is the
weighted geometric median of its customers, found by Weiszfeld fixed-point
iteration; more centers come from alternating nearest-center assignment
with per-cluster Weiszfeld refinement, started from the declared DC sites
and restarted from random customer subsets to escape poor local
partitions.  Warehouses then link to their nearest DC choices: every DC
gets the nearest warehouse that prices it and every customer its nearest
DC within the region, keeping the single-channel structure.  The design
keeps one distance per customer, that of its link, which is all the
transportation term reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, InfeasibleConfigError, ParseError, ValidationError
from .model import (NetworkDesign, NetworkInstance, Region, _integer,
                    _location, _number, _object, _require_keys, _string,
                    euclidean_distance, read_json, running_sum,
                    write_json)

# Guard against division by zero when an iterate lands on a demand point.
_SINGULARITY_EPS = 1e-9
# Iteration cap and convergence step, in coordinate units, of both the
# Weiszfeld update and the location-allocation loop.
_MAX_ITERATIONS = 200
_TOLERANCE = 1e-4


@dataclass(frozen=True)
class GfaConfig:
    """Knobs for the placement stage: the number of starts per region,
    the first from its declared DC sites and the rest from distinct
    customer sites drawn with rng_seed.

    The number of centers is not a knob: every region gets one per DC
    it declares, since those carry the capacities the later stages use.
    """

    restarts: int = 8
    rng_seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ConfigError("restarts must be at least 1")
        if self.rng_seed < 0:
            raise ConfigError("seed must be at least 0")


def weiszfeld_single(points: Sequence[tuple[float, float]],
                     weights: Sequence[float],
                     *, initial: tuple[float, float] | None = None
                     ) -> tuple[float, float]:
    """Weighted geometric median by Weiszfeld fixed-point iteration.

    Starts from the weighted centroid (or ``initial``) and repeats the
    inverse-distance-weighted update until the step is below _TOLERANCE
    or _MAX_ITERATIONS updates are made, and returns the last (x, y).
    The update is a descent step for the weighted effort, which the
    tests assert with a copy of this loop that records it.
    """
    if len(points) == 0:
        raise ValidationError("weiszfeld_single needs at least one point")
    if len(points) != len(weights):
        raise ValidationError("points and weights must have equal length")
    if any(w < 0 for w in weights):
        raise ValidationError("weights must be >= 0")
    total_weight = float(running_sum(weights))
    if total_weight <= 0:
        raise ValidationError("at least one weight must be positive")

    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    ws = np.array(weights, dtype=float)

    if initial is None:
        px = float(np.dot(ws, xs) / total_weight)
        py = float(np.dot(ws, ys) / total_weight)
    else:
        px, py = float(initial[0]), float(initial[1])

    for _ in range(_MAX_ITERATIONS):
        dist = np.hypot(xs - px, ys - py)
        safe = np.maximum(dist, _SINGULARITY_EPS)
        pull = ws / safe
        denom = float(pull.sum())
        nx = float(np.dot(pull, xs) / denom)
        ny = float(np.dot(pull, ys) / denom)
        step = math.hypot(nx - px, ny - py)
        px, py = nx, ny
        if step <= _TOLERANCE:
            break
    return px, py


@dataclass(frozen=True)
class RegionPlacement:
    locations: tuple[tuple[float, float], ...]
    objective: float
    iterations: int
    converged: bool


def locate_region(region: Region, config: GfaConfig,
                  rng: np.random.Generator) -> RegionPlacement:
    """Place the region's DCs, one center each in region.dcs order, by
    location-allocation.

    Runs ``config.restarts`` starts: the first from the DCs' declared
    sites, the rest from random distinct customer sites.  Each start
    alternates nearest-center assignment with per-cluster Weiszfeld
    until the assignment stops changing.  The best start by weighted
    effort wins.
    """
    customers = region.customers
    n, k = len(customers), len(region.dcs)
    if k > n:
        raise InfeasibleConfigError(
            f"region {region.id}: {k} DCs requested for {n} customers")
    points = [c.location for c in customers]
    weights = [c.demand.mean for c in customers]

    best: RegionPlacement | None = None
    for restart in range(config.restarts):
        if restart == 0:
            locations = [dc.location for dc in region.dcs]
        else:
            chosen = rng.choice(n, size=k, replace=False)
            locations = [points[int(i)] for i in chosen]

        # Each customer's nearest center; min keeps the first of a tie.
        assignment = [min(range(k), key=lambda s: euclidean_distance(
            p, locations[s])) for p in points]
        iterations = 0
        converged = False
        for iterations in range(1, _MAX_ITERATIONS + 1):
            # Re-center every cluster on its weighted geometric median.
            new_locations = list(locations)
            for slot in range(k):
                members = [i for i in range(n) if assignment[i] == slot]
                if not members:
                    # Re-seed an empty cluster on the customer farthest
                    # from its current center.
                    far = max(range(n),
                              key=lambda i: euclidean_distance(
                                  points[i], locations[assignment[i]]))
                    new_locations[slot] = points[far]
                    assignment[far] = slot
                    continue
                new_locations[slot] = weiszfeld_single(
                    [points[i] for i in members], [weights[i] for i in members],
                    initial=locations[slot])
            moved = max(euclidean_distance(a, b)
                        for a, b in zip(locations, new_locations))
            locations = new_locations
            new_assignment = [min(range(k), key=lambda s: euclidean_distance(
                p, locations[s])) for p in points]
            if new_assignment == assignment and moved <= _TOLERANCE:
                converged = True
                break
            assignment = new_assignment

        objective = running_sum(
            weights[i] * euclidean_distance(points[i], locations[assignment[i]])
            for i in range(n))
        placement = RegionPlacement(
            locations=tuple(locations), objective=objective,
            iterations=iterations, converged=converged)
        if best is None or placement.objective < best.objective - 1e-12:
            best = placement
    assert best is not None
    return best


@dataclass(frozen=True)
class GfaResult:
    design: NetworkDesign
    region_objectives: dict[str, float]
    iterations_used: dict[str, int]
    converged: bool


def assign_linkages(instance: NetworkInstance,
                    dc_locations: Mapping[str, tuple[float, float]]) -> NetworkDesign:
    """Minimum-distance single-channel linkages for fixed DC locations.

    Every DC links to the nearest warehouse that prices it (the instance
    parser ensures one does) and every customer to the nearest DC inside
    its own region; distance ties break on the lower id.  A customer is
    measured only against its own region's DCs, and only its link's
    distance is kept: distances[dc] holds the DC's customers, and is
    empty for a DC that serves none.
    """
    dc_warehouse: dict[str, str] = {}
    customer_dc: dict[str, str] = {}
    distances: dict[str, dict[str, float]] = {}
    for dc in instance.dcs():
        loc = dc_locations[dc.id]
        dc_warehouse[dc.id] = min(
            (w for w in instance.warehouses if w.prices(dc.id)),
            key=lambda w: (euclidean_distance(loc, w.location), w.id)).id
        distances[dc.id] = {}
    for region in instance.regions:
        for customer in region.customers:
            km, dc_id = min((euclidean_distance(dc_locations[dc.id],
                                                customer.location), dc.id)
                            for dc in region.dcs)
            customer_dc[customer.id] = dc_id
            distances[dc_id][customer.id] = km
    return NetworkDesign(
        dc_locations={dc.id: tuple(dc_locations[dc.id]) for dc in instance.dcs()},
        dc_warehouse=dc_warehouse, customer_dc=customer_dc, distances=distances)


def overloaded_warehouses(instance: NetworkInstance, design: NetworkDesign,
                          ) -> dict[str, tuple[float, float, float]]:
    """Warehouses that cannot ship what their DCs' customers draw.

    For each warehouse whose linked customers' mean demand, divided by
    the lowest retention, exceeds its capacity: warehouse id -> (that
    demand, the shipments it takes, capacity), in kg per period.
    """
    demand = dict.fromkeys((w.id for w in instance.warehouses), 0.0)
    for customer in instance.customers():
        warehouse = design.dc_warehouse[design.customer_dc[customer.id]]
        demand[warehouse] += customer.demand.mean
    low = instance.supply_loss.low
    return {w.id: (demand[w.id], demand[w.id] / low, w.capacity)
            for w in instance.warehouses if demand[w.id] / low > w.capacity}


def run_gfa(instance: NetworkInstance, config: GfaConfig | None = None) -> GfaResult:
    """Place all regions' DCs and wire up the network linkages."""
    config = config or GfaConfig()
    rng = np.random.default_rng(config.rng_seed)
    dc_locations: dict[str, tuple[float, float]] = {}
    objectives: dict[str, float] = {}
    iterations: dict[str, int] = {}
    all_converged = True
    for region in instance.regions:
        placement = locate_region(region, config, rng)
        for slot, dc in enumerate(region.dcs):
            dc_locations[dc.id] = placement.locations[slot]
        objectives[region.id] = placement.objective
        iterations[region.id] = placement.iterations
        all_converged = all_converged and placement.converged
    design = assign_linkages(instance, dc_locations)
    return GfaResult(design=design, region_objectives=objectives,
                     iterations_used=iterations, converged=all_converged)


def save_design(result: GfaResult, path: str) -> None:
    """Write a GfaResult as JSON."""
    design = result.design
    write_json(path, {
        "dc_locations": {k: list(v) for k, v in design.dc_locations.items()},
        "z": design.dc_warehouse,
        "y": design.customer_dc,
        "distances": design.distances,
        "region_objectives": result.region_objectives,
        "iterations_used": result.iterations_used,
        "converged": result.converged,
    })


_DESIGN_KEYS = ("dc_locations", "z", "y", "distances", "region_objectives",
                "iterations_used", "converged")


def _entries(obj: Mapping, where: str, key: str, read) -> dict:
    """obj[key], a JSON object, with read(it, its name, k) for each key k."""
    value = _object(obj, where, key)
    return {k: read(value, f"{where}.{key}", k) for k in value}


def _distance(row: Mapping, where: str, customer: str) -> float:
    """row[customer], a distance in km: a finite number, at least 0."""
    return _number(row, where, customer, ge=0)


def load_design(path: str) -> GfaResult:
    """Read a design file written by save_design.

    The file holds save_design's keys, each value of the JSON type it
    writes: [x, y] locations, id strings, finite numbers, nonnegative
    distances, integer iteration counts and a true or false converged
    flag.  Per-DC demand totals that older versions wrote, under
    mean_local_demand, are ignored; a full DC-by-customer distance
    matrix, which they also wrote, loads as it is.
    """
    data = read_json(path)
    try:
        _require_keys(data, path, _DESIGN_KEYS, ("mean_local_demand",))
        if not isinstance(data["converged"], bool):
            raise ParseError(f"{path}.converged: expected true or false")
        design = NetworkDesign(
            dc_locations=_entries(data, path, "dc_locations", _location),
            dc_warehouse=_entries(data, path, "z", _string),
            customer_dc=_entries(data, path, "y", _string),
            distances=_entries(
                data, path, "distances",
                lambda row, where, dc: _entries(row, where, dc, _distance)))
        return GfaResult(
            design=design,
            region_objectives=_entries(data, path, "region_objectives", _number),
            iterations_used=_entries(data, path, "iterations_used", _integer),
            converged=data["converged"])
    except (ParseError, ValidationError) as exc:
        raise ParseError(f"{path}: not a valid design file ({exc})") from exc
