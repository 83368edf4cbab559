"""Scenario sampling and the per-period planning model.

One replication draws a full scenario (demand[customer, period] and
retention[warehouse, dc, period], axes in instance file order), then
walks the horizon solving a small mixed-binary model for every period,
from its demand and its linked lanes' retention, with the closing
inventory threaded forward.  Averaging many replications gives Monte
Carlo estimates of the two objectives:

* Z1, food accessibility: affordability, transport effort, and nutrition
  surplus indices summed over regions and periods;
* Z2, operating cost: inventory holding, unfulfilled demand, and order
  costs.

The scalarization weight epsilon prices cost against accessibility
inside each period's objective (maximize accessibility - epsilon * cost).

Model assembly notes (this shapes every coefficient below):

* unfulfilled demand g and closing inventory Inv are substituted out:
  g = demand - delivered, Inv = opening + retained orders - deliveries.
  Their costs land on the delivery/order columns; the parts that depend
  only on opening stock and demand are left out, since they move every
  solution's objective alike.  The inventory band [v*S, Cap] becomes two
  inequality rows per DC;
* a region's nutrition plus-terms max(0, content * S - requirement) all
  depend on one scalar, its total closing stock S, which the band rows
  keep in [v * Cap, Cap].  So its quality value is one convex
  piecewise-linear function of S (a QualityCurve), with a breakpoint at
  each threshold requirement / content strictly inside the band.  A
  curve without a breakpoint is linear and needs no column: its slope
  prices the flows.  A curve with breakpoints takes the incremental
  form S = point_0 + sum(length_k * delta_k), delta_k in [0, 1], with
  binaries z_k and delta_k <= z_k <= delta_{k-1}, which is locally ideal
  (Vielma, Ahmed & Nemhauser, Oper. Res. 58(2), 2010), so the root
  relaxation is usually integral;
* a seed's period models differ only in opening stock, demand,
  retention and epsilon, so a PeriodTemplate holds the dense arrays and
  each period's model patches a copy, epsilon's prices included.
  Columns, with D DCs and C customers: orders [0, D) in instance.dcs()
  order, deliveries [D, D + C) in instance.customers() order, then for
  each region with breakpoints, in instance order, its deltas and then
  its binaries.  A PeriodDecision keeps the flows in the same layout:
  per-DC vectors (each order on the DC's one linked lane) and
  per-customer vectors (each delivery on the customer's one link).  Its
  surpluses, [region, nutrient], are evaluated at the region's stock;
* the sweep walks each replication seed over the epsilon grid in order,
  and epsilon changes only the objective.  So a seed's scenario is
  sampled and its template built once, and each period's root LP at one
  grid point starts from the same period's optimal root basis at the
  previous one, which usually needs a few dual and primal pivots where
  the previous period's basis needs many more (Gass & Saaty, Naval Res.
  Logist. Q. 2, 1955, on parametric costs; Bixby, Oper. Res. 50(1),
  2002, on warm-started dual simplex).  A tie may then pick another
  optimal vertex, which moves a result only in its last digits.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from .accessibility import affordability, link_effort, resolve_scales, snapshot
from .errors import ConfigError, DomainError, NumericalError
from .milp import FEASIBILITY_TOL, Basis, DenseModel, Status, solve_milp
from .model import (NetworkDesign, NetworkInstance, _integer, _number,
                    _object, _require_keys, read_json, running_sum,
                    write_json)


def replication_seed(master_seed: int, replication: int,
                     stream: str = "scenario") -> int:
    """Derive an independent 63-bit seed for one replication.

    The seed is the first 8 bytes of sha256("master:replication:stream"),
    so replications are decorrelated and reproducible in any execution
    order.  The stream label separates draws with different purposes
    (scenario sampling vs. simulation event timing) that share the same
    master seed.
    """
    text = f"{master_seed}:{replication}:{stream}"
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True, eq=False)
class Scenario:
    """One realization of every uncertain quantity over the horizon.

    demand[customer, period] is in kg, customers in instance.customers()
    order.  retention[warehouse, dc, period] is the retained fraction of
    a shipment on that lane, warehouses in instance.warehouses order and
    DCs in instance.dcs() order.  Every lane is drawn, linked or not, so
    the same seed yields the same scenario under any design.
    """

    demand: np.ndarray
    retention: np.ndarray


def sample_scenario(instance: NetworkInstance, seed: int) -> Scenario:
    """Draw a scenario. Demands are normal truncated at zero; retention
    is uniform on the instance's supply-loss interval.

    Two generator calls, in this order: one normal draw over the
    customers with a positive std, customer-major in file order (a
    zero-std customer holds its mean and draws nothing), then one
    uniform draw over every lane, warehouse-major.
    """
    rng = np.random.default_rng(seed)
    horizon = instance.horizon
    spec = np.array([(c.demand.mean, c.demand.std) for c in instance.customers()])
    mean, std = spec[:, :1], spec[:, 1:]
    demand = np.repeat(mean, horizon, axis=1)
    drawn = std[:, 0] > 0
    demand[drawn] = rng.normal(mean[drawn], std[drawn],
                               size=(int(drawn.sum()), horizon))
    loss = instance.supply_loss
    retention = rng.uniform(loss.low, loss.high, size=(
        len(instance.warehouses), len(instance.dcs()), horizon))
    return Scenario(demand=np.maximum(0.0, demand), retention=retention)


def linkage(instance: NetworkInstance,
            design: NetworkDesign) -> tuple[np.ndarray, np.ndarray]:
    """The design's two linkages as index vectors: for each DC in dcs()
    order, its warehouse's position in instance.warehouses; for each
    customer in customers() order, its DC's position in dcs().  The
    planner and the simulator both index the design's links by these."""
    warehouse = {w.id: i for i, w in enumerate(instance.warehouses)}
    dc = {h.id: j for j, h in enumerate(instance.dcs())}
    return (np.array([warehouse[design.dc_warehouse[h]] for h in dc], dtype=int),
            np.array([dc[design.customer_dc[c.id]]
                      for c in instance.customers()], dtype=int))


def linked_retention(instance: NetworkInstance, design: NetworkDesign,
                     scenario: Scenario) -> np.ndarray:
    """Each DC's linked-lane retention, [dc, period] in dcs() order."""
    supplier, _ = linkage(instance, design)
    return scenario.retention[supplier, np.arange(len(supplier))]


@dataclass(frozen=True)
class StochasticConfig:
    replications: int = 50
    master_seed: int = 0
    safety_stock: float | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError("replications must be at least 1")
        if self.jobs < 1:
            raise DomainError("jobs must be at least 1")
        if self.safety_stock is not None and not 0.0 <= self.safety_stock <= 1.0:
            raise DomainError("safety stock fraction must lie in [0, 1]")


@dataclass(frozen=True)
class QualityCurve:
    """One region's raw quality component as a function of its total
    stock S on the band [floor, capacity].

    The component sums weight * max(0, content * S - requirement) over the
    nutrients, so it is convex and piecewise linear, with a breakpoint at
    each threshold requirement / content.  points holds the floor, the
    distinct thresholds strictly inside the band in increasing order, and
    the capacity.  slopes[k] is the slope from points[k] to points[k + 1].
    """

    points: np.ndarray
    slopes: np.ndarray


def quality_curves(instance: NetworkInstance,
                   safety_fraction: float) -> list[QualityCurve]:
    """Each region's QualityCurve, in instance order, with the floor at
    safety_fraction of the region's storage capacity.  A nutrient whose
    threshold lies at or below the floor is active on every piece; one at
    or above the capacity on none."""
    weight = np.array([nt.weight for nt in instance.nutrients])
    content = np.array([nt.per_kg_content for nt in instance.nutrients])
    curves = []
    for region in instance.regions:
        capacity = running_sum(dc.capacity for dc in region.dcs)
        floor = safety_fraction * capacity
        requirement = np.array([nt.min_requirement * region.population
                                for nt in instance.nutrients])
        threshold = requirement / content
        # sorted(set()), not np.unique, which would load numpy.ma.
        inside = sorted(set(threshold[(floor < threshold) & (threshold < capacity)]))
        points = np.array([floor, *inside, capacity])
        active = threshold <= points[:-1, None]  # [piece, nutrient]
        curves.append(QualityCurve(points=points,
                                   slopes=active @ (weight * content)))
    return curves


class PeriodTemplate:
    """The arrays one seed's period models share at every epsilon, in the
    module notes' column layout, and the per-DC and per-customer vectors
    that price, index and evaluate a period's decision.

    A holds the order columns at unit retention; rows from warehouse_rows
    on scale them by the period's retention.  Row i's right-hand side is
    k[i] * stock[src[i]] - req[i], where stock is each DC's opening stock,
    then each region's total.  The objective leaves out every term fixed
    by the opening stock and demand alone.  Only the objective depends on
    epsilon, and c holds only the entries that epsilon does not price:
    build_period_model sets the rest."""

    def __init__(self, instance: NetworkInstance, design: NetworkDesign,
                 safety_stock: float):
        self.scales = scales = resolve_scales(instance, design)
        curves = quality_curves(instance, safety_stock)
        dcs, customers = instance.dcs(), instance.customers()
        D, C = self.num_dcs, self.num_customers = len(dcs), len(customers)
        self.num_regions = len(instance.regions)
        self.content = np.array([nt.per_kg_content for nt in instance.nutrients])
        self.nutrient_weight = np.array([nt.weight for nt in instance.nutrients])
        self.requirement = np.array([[nt.min_requirement * r.population
                                      for nt in instance.nutrients]
                                     for r in instance.regions])

        supplier, self.serving = linkage(instance, design)
        linked = [instance.warehouses[i] for i in supplier]
        self.order_cost = np.array([w.order_cost(dc.id)
                                    for w, dc in zip(linked, dcs)])
        self.holding = np.array([dc.inventory_unit_cost for dc in dcs])
        self.unmet_cost = np.array([region.unfulfilled_unit_cost
                                    for region in instance.regions
                                    for _ in region.customers])
        self.effort = np.array(link_effort(instance, design))
        # Each region's raw affordability, and its index weights as
        # [affordability, transportation, quality] rows.
        self.affordability = np.array([affordability(r) for r in instance.regions])
        self.weights = np.array([(r.weights.affordability, r.weights.transportation,
                                  r.weights.quality) for r in instance.regions]).T

        # Each DC's and each customer's region.
        regions = np.arange(self.num_regions)
        self.dc_region = np.repeat(regions, [len(r.dcs) for r in instance.regions])
        self.customer_region = np.repeat(
            regions, [len(r.customers) for r in instance.regions])

        # A region's quality term is its curve times this weight.  A
        # one-piece curve is linear in the flows: its slope prices them.
        # A curve with breakpoints gets its incremental form's columns.
        weight = self.weights[2] / scales.quality
        curved = [r for r, curve in enumerate(curves) if len(curve.slopes) > 1]
        self.dc_slope = np.array([
            0.0 if r in curved else w * curve.slopes[0]
            for r, (w, curve) in enumerate(zip(weight, curves))])[self.dc_region]
        n = D + C + sum(2 * len(curves[r].slopes) - 1 for r in curved)

        self.lb = np.zeros(n)
        self.ub = np.ones(n)
        self.ub[:D] = [w.capacity for w in linked]
        self.ub[D:D + C] = math.inf
        self.c = np.zeros(n)  # the entries no epsilon prices
        self.transport = (self.weights[1][self.customer_region] * self.effort
                          / scales.transportation)

        # Each DC's closing stock less its opening stock, at unit retention:
        # its order, less its customers' deliveries.
        stock = np.eye(D, n)
        stock[self.serving, range(D, D + C)] = -1.0
        rows, rhs, relations = [], [], []  # coefficients; (k, src, req)

        def row(columns, values=1.0):
            coeffs = np.zeros(n)
            coeffs[columns] = values
            return coeffs

        def add_row(coeffs, k=0.0, src=0, req=0.0, relation="<="):
            rows.append(coeffs)
            rhs.append((k, src, req))
            relations.append(relation)

        for i, warehouse in enumerate(instance.warehouses):
            supplied = np.flatnonzero(supplier == i)
            if supplied.size:
                add_row(row(supplied), req=-warehouse.capacity)
        self.warehouse_rows = len(rows)

        for j, dc in enumerate(dcs):
            add_row(stock[j], k=-1.0, src=j, req=-dc.capacity)
            add_row(-stock[j], k=1.0, src=j, req=safety_stock * dc.capacity)

        # Incremental form: closing stock = points[0] + lengths @ delta,
        # delta in [0, 1], and binaries z with delta[k] <= z[k - 1] <=
        # delta[k - 1] fill the pieces in order.  delta[k] earns piece k.
        column = D + C
        self.binary = []
        for r in curved:
            curve = curves[r]
            lengths = np.diff(curve.points)
            delta = column + np.arange(len(lengths))
            z = delta[-1] + np.arange(1, len(lengths))
            column = z[-1] + 1
            self.binary.extend(z)
            self.c[delta] = weight[r] * curve.slopes * lengths
            add_row(stock[self.dc_region == r].sum(axis=0) - row(delta, lengths),
                    k=-1.0, src=D + r, req=-curve.points[0], relation="=")
            for k in range(1, len(lengths)):
                add_row(row([delta[k], z[k - 1]], [1.0, -1.0]))
                add_row(row([z[k - 1], delta[k - 1]], [1.0, -1.0]))

        self.binary = np.array(self.binary, dtype=int)
        self.A = np.array(rows) + 0.0  # + 0.0 clears negation's -0.0
        self.relations = np.array(relations)
        self.k, src, self.req = np.array(rhs).T
        self.src = src.astype(int)


def build_period_model(template: PeriodTemplate, epsilon: float,
                       opening: Sequence[float], demand: Sequence[float],
                       retention: Sequence[float]) -> DenseModel:
    """The single-period model of a template priced at epsilon for
    realized stock, demand and supply: opening stock and linked-lane
    retention per DC in instance.dcs() order, demand per customer in
    instance.customers() order."""
    D, C = template.num_dcs, template.num_customers
    if (len(opening), len(demand), len(retention)) != (D, C, D):
        raise ConfigError("need one opening stock per DC, one demand per "
                          "customer and one retention per DC")
    factor = np.array(retention, dtype=float)
    A = template.A.copy()
    A[template.warehouse_rows:, :D] *= factor
    c = template.c.copy()
    c[D:D + C] = (epsilon * template.unmet_cost - template.transport
                  + epsilon * template.holding[template.serving]
                  - template.dc_slope[template.serving])
    c[:D] = (template.dc_slope * factor - epsilon
             * (template.order_cost + template.holding * factor))
    ub = template.ub.copy()
    ub[D:D + C] = demand
    # Region totals are float sums taken one term at a time, in dcs() order.
    stock = np.concatenate([opening, np.bincount(
        template.dc_region, opening, minlength=template.num_regions)])
    b = template.k * stock[template.src] - template.req
    return DenseModel(A, b, c, template.lb, ub, relations=template.relations,
                      binary=template.binary)


@dataclass(eq=False)
class PeriodDecision:
    """Solved flows and derived state for one period of one replication,
    in the module notes' layout: orders and closing inventory per DC,
    deliveries and unmet demand per customer, aux per (region, nutrient)."""

    period: int
    orders: np.ndarray
    deliveries: np.ndarray
    unmet: np.ndarray
    inventory: np.ndarray
    aux: np.ndarray
    accessibility: float
    inventory_cost: float
    unfulfilled_cost: float
    order_cost: float


@dataclass(eq=False)
class ReplicationResult:
    scenario: Scenario
    periods: list[PeriodDecision]
    accessibility: float
    inventory_cost: float
    unfulfilled_cost: float
    order_cost: float
    safety_stock: float
    initial_inventory: np.ndarray  # per DC, instance.dcs() order
    nodes: int
    limit_hit: bool
    # What the next grid point of this seed starts from: the unpriced
    # template the whole seed shares, and each period's optimal root basis.
    template: PeriodTemplate = field(compare=False, repr=False)
    bases: list[Basis] = field(compare=False, repr=False)

    @property
    def total_cost(self) -> float:
        return self.inventory_cost + self.unfulfilled_cost + self.order_cost


def default_initial_inventory(instance: NetworkInstance,
                              safety_fraction: float) -> dict[str, float]:
    """Opening stock: every DC at its safety level."""
    return {dc.id: safety_fraction * dc.capacity for dc in instance.dcs()}


def planned_safety_stock(instance: NetworkInstance,
                         config: StochasticConfig) -> float:
    """The safety-stock fraction a config plans with: its own, or the
    instance's when it sets none."""
    return (instance.safety_stock_fraction if config.safety_stock is None
            else config.safety_stock)


def run_replication(instance: NetworkInstance, design: NetworkDesign,
                    epsilon: float, seed: int, *,
                    config: StochasticConfig = StochasticConfig(),
                    previous: ReplicationResult | None = None,
                    ) -> ReplicationResult:
    """Sample one scenario and solve the horizon period by period, from
    every DC at its safety level.

    previous is this seed's result at another epsilon, under the same
    instance, design and config, such as the previous grid point's.  Its
    scenario and template are reused, so nothing is sampled or built
    again, and each period's root LP starts from the optimal root basis
    of the same period in previous.  Without it, period 0 starts from the
    slack basis and each later period from the one before it.  The start
    changes only which optimal vertex a tie picks.
    """
    v = planned_safety_stock(instance, config)
    if previous is None:
        scenario = sample_scenario(instance, seed)
        template = PeriodTemplate(instance, design, v)
    else:
        scenario, template = previous.scenario, previous.template
    capacity = np.array([dc.capacity for dc in instance.dcs()])
    floor = v * capacity
    opening = floor.tolist()

    periods: list[PeriodDecision] = []
    bases: list[Basis] = []
    nodes = 0
    limit_hit = False
    # Each root LP after the first starts from the previous period's
    # optimal root basis: consecutive periods differ only in demand,
    # retention and the opening inventory.  With previous, each starts
    # from the same period's basis there instead, which has the same rows
    # and columns and, at t = 0, differs only in its costs.
    start = None
    # Python floats, period-major, so each entry's arithmetic is scalar.
    demands = scenario.demand.T.tolist()
    retentions = linked_retention(instance, design, scenario).T.tolist()
    for t, (demand, retention) in enumerate(zip(demands, retentions)):
        model = build_period_model(template, epsilon, opening, demand,
                                   retention)
        if previous is not None:
            start = previous.bases[t]
        result = solve_milp(model, start=start)
        start = result.basis
        bases.append(start)
        nodes += result.nodes
        if result.status is Status.NODE_LIMIT:
            limit_hit = True
        if result.values is None:
            raise DomainError(
                f"period {t} model is {result.status.value} "
                f"(seed {seed}, epsilon {epsilon:g})")

        decision = _extract_period(template, result.values, opening, demand,
                                   retention, t)
        periods.append(decision)
        opening = np.minimum(np.maximum(decision.inventory, floor),
                             capacity).tolist()

    return ReplicationResult(
        scenario=scenario,
        periods=periods,
        accessibility=running_sum(p.accessibility for p in periods),
        inventory_cost=running_sum(p.inventory_cost for p in periods),
        unfulfilled_cost=running_sum(p.unfulfilled_cost for p in periods),
        order_cost=running_sum(p.order_cost for p in periods),
        safety_stock=v,
        initial_inventory=floor,
        nodes=nodes,
        limit_hit=limit_hit,
        template=template,
        bases=bases,
    )


def _extract_period(template, x, opening, demand, retention, t):
    D, C = template.num_dcs, template.num_customers
    orders = np.maximum(x[:D], 0.0)
    deliveries = np.minimum(np.maximum(x[D:D + C], 0.0), demand)
    unmet = np.maximum(np.subtract(demand, deliveries), 0.0)
    # Each DC's outflow sums its customers' deliveries in customers()
    # order.
    inventory = (np.add(opening, np.multiply(retention, orders))
                 - np.bincount(template.serving, deliveries, minlength=D))

    # Solver arithmetic can leave a DC a hair below zero.  Stock within
    # the solver's tolerance of zero is priced as none, so that
    # round-off, which moves with the start basis, costs nothing.  The
    # per-DC values stay raw for the audit.
    R = template.num_regions
    region_stock = np.bincount(template.dc_region, inventory, minlength=R)
    # Each nutrient's surplus at the region's stock.  Content is positive
    # and requirements are at least zero, so a region a hair below zero
    # has no surplus.
    aux = np.maximum(np.multiply.outer(region_stock, template.content)
                     - template.requirement, 0.0)

    # Costs and the index are float sums taken one term at a time: DCs,
    # customers and nutrients in instance order (a cumsum along a row is
    # one), regions in file order.
    transport = np.bincount(template.customer_region,
                            template.effort * deliveries, minlength=R)
    quality = np.cumsum(aux * template.nutrient_weight, axis=1)[:, -1]
    weighted = template.weights * snapshot(
        np.array([template.affordability, transport, quality]), template.scales)
    return PeriodDecision(
        period=t, orders=orders, deliveries=deliveries, unmet=unmet,
        inventory=inventory, aux=aux,
        accessibility=running_sum(
            (weighted[0] - weighted[1] + weighted[2]).tolist()),
        inventory_cost=running_sum((template.holding * np.where(
            inventory > FEASIBILITY_TOL, inventory, 0.0)).tolist()),
        unfulfilled_cost=running_sum((template.unmet_cost * unmet).tolist()),
        order_cost=running_sum((template.order_cost * orders).tolist()))


@dataclass(frozen=True)
class ReplicationSummary:
    """The part of a ReplicationResult that an estimate reads.

    Small enough to send back from a worker process, where the full
    result would carry the whole scenario and every period's flows.
    """

    accessibility: float
    inventory_cost: float
    unfulfilled_cost: float
    order_cost: float
    nodes: int
    limit_hit: bool

    @property
    def total_cost(self) -> float:
        return self.inventory_cost + self.unfulfilled_cost + self.order_cost


# What a replication gives back: its summary, or the error it raised.
Outcome = ReplicationSummary | DomainError | NumericalError

def map_replications(instance: NetworkInstance, design: NetworkDesign,
                     config: StochasticConfig, grid: Sequence[float],
                     ) -> list[list[Outcome]]:
    """summarize_seed(instance, design, config, grid, seed) for every
    seed of replication_seeds(config), in order: one work item per
    replication seed, each the seed's outcomes in grid order.

    With one worker (config.jobs == 1, or a single replication) the
    calls run inline.  Otherwise a process pool of min(jobs,
    replications) workers maps them, so workers beyond the number of
    seeds are never started.  Each work item pickles its own instance,
    design, config and grid: on the packaged Qatar instance that is
    under 6 KB, a fraction of a millisecond each way.
    """
    seeds = replication_seeds(config)
    run = functools.partial(summarize_seed, instance, design, config, grid)
    workers = min(config.jobs, len(seeds))
    if workers <= 1:
        return list(map(run, seeds))
    # Imported here so that single-process commands do not load
    # multiprocessing (about 1.3 MB of resident memory).
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, seeds))


def summarize_seed(instance: NetworkInstance, design: NetworkDesign,
                   config: StochasticConfig, grid: Sequence[float],
                   seed: int) -> list[Outcome]:
    """One replication seed walked over the grid in order: each epsilon's
    summary, or the error its replication raised.

    Each replication after the first good one reuses the last good result
    (run_replication's previous), so the seed's scenario is sampled and
    its template built once.  An error is returned, not raised, so it
    spoils only its own grid point and the chain goes on.
    """
    outcomes: list[Outcome] = []
    previous = None
    for epsilon in grid:
        try:
            result = run_replication(instance, design, epsilon, seed,
                                     config=config, previous=previous)
        except (DomainError, NumericalError) as exc:
            outcomes.append(exc)
            continue
        previous = result
        outcomes.append(ReplicationSummary(
            accessibility=result.accessibility,
            inventory_cost=result.inventory_cost,
            unfulfilled_cost=result.unfulfilled_cost,
            order_cost=result.order_cost,
            nodes=result.nodes,
            limit_hit=result.limit_hit))
    return outcomes


@dataclass(frozen=True)
class EstimateResult:
    """One epsilon's Monte Carlo estimate of (Z1, Z2).

    The first eight fields are the pareto.CSV_COLUMNS in order, so a
    solutions.csv row reads back positionally.  The solver effort behind
    the estimate follows; it is not written to the CSV.
    """

    epsilon: float
    z1: float
    z1_se: float
    z2: float
    z2_se: float
    inventory_cost: float
    unfulfilled_cost: float
    order_cost: float
    nodes: int = 0           # branch-and-bound nodes over all replications
    limit_hits: int = 0      # replications with a node-limit incumbent


def replication_seeds(config: StochasticConfig) -> list[int]:
    return [replication_seed(config.master_seed, s)
            for s in range(config.replications)]


def aggregate(epsilon: float, replications: Sequence[ReplicationSummary],
              ) -> EstimateResult:
    """Sample means and standard errors over replications in seed order.

    Every estimate goes through here, whether its replications ran
    inline or in worker processes, so the floats do not depend on jobs.
    """
    z1_samples = np.array([r.accessibility for r in replications])
    z2_samples = np.array([r.total_cost for r in replications])

    def se(samples: np.ndarray) -> float:
        if len(samples) < 2:
            return 0.0
        return float(np.std(samples, ddof=1) / math.sqrt(len(samples)))

    return EstimateResult(
        epsilon=epsilon,
        z1=float(z1_samples.mean()),
        z1_se=se(z1_samples),
        z2=float(z2_samples.mean()),
        z2_se=se(z2_samples),
        inventory_cost=float(np.mean([r.inventory_cost for r in replications])),
        unfulfilled_cost=float(np.mean([r.unfulfilled_cost
                                        for r in replications])),
        order_cost=float(np.mean([r.order_cost for r in replications])),
        nodes=sum(r.nodes for r in replications),
        limit_hits=sum(r.limit_hit for r in replications),
    )


_AUDIT_TOL = 1e-6


def audit_replication(instance: NetworkInstance, design: NetworkDesign,
                      result: ReplicationResult) -> list[str]:
    """Re-check every stored period against the model's constraints.

    Pure arithmetic on the stored flows, independent of the solver:
    inventory balance, the [v*S, Cap] band, warehouse capacity, the
    delivered/unfulfilled split, nonnegative flows, and the nutrition
    surplus values, each to within _AUDIT_TOL.  Returns human-readable
    violations, one per failing entry; empty means the replication is
    consistent.
    """
    supplier, serving = linkage(instance, design)
    dcs, regions, warehouses = instance.dcs(), instance.regions, instance.warehouses
    dc_region = np.repeat(np.arange(len(regions)), [len(r.dcs) for r in regions])
    content = np.array([nt.per_kg_content for nt in instance.nutrients])
    required = np.array([[nt.min_requirement * r.population
                          for nt in instance.nutrients] for r in regions])

    # Every stored period at once, as [period, entry] in instance order.
    # Products with 0/1 matrices sum each DC's deliveries, each
    # warehouse's orders and each region's stock.
    periods = [decision.period for decision in result.periods]
    orders, deliveries, unmet, stored, aux = (
        np.array([getattr(decision, name) for decision in result.periods]
                 ).reshape(len(periods), -1)
        for name in ("orders", "deliveries", "unmet", "inventory", "aux"))
    previous = np.vstack([result.initial_inventory, stored[:-1]])
    retention = linked_retention(instance, design, result.scenario)[:, periods].T
    balance = stored - (previous + retention * orders
                        - deliveries @ np.eye(len(dcs))[serving])
    capacity = np.broadcast_to([dc.capacity for dc in dcs], stored.shape)
    floor = result.safety_stock * capacity
    shipped = orders @ np.eye(len(warehouses))[supplier]
    limit = np.broadcast_to([w.capacity for w in warehouses], shipped.shape)
    served = deliveries + unmet
    demand = result.scenario.demand[:, periods].T
    stock = stored @ np.eye(len(regions))[dc_region]
    surplus = np.maximum(stock[:, :, None] * content - required, 0.0
                         ).reshape(aux.shape)

    dc_ids = [f"DC {dc.id}" for dc in dcs]
    customer_ids = [f"customer {c.id}" for c in instance.customers()]
    checks = (  # entries, failing mask, message, its values
        (dc_ids, np.abs(balance) > _AUDIT_TOL, "balance off by {:.3e}",
         balance),
        (dc_ids, stored < floor - _AUDIT_TOL,
         "inventory {:.6g} below safety level {:.6g}", stored, floor),
        (dc_ids, stored > capacity + _AUDIT_TOL,
         "inventory {:.6g} above capacity {:.6g}", stored, capacity),
        ([f"warehouse {w.id}" for w in warehouses], shipped > limit + _AUDIT_TOL,
         "shipped {:.6g} above capacity {:.6g}", shipped, limit),
        (customer_ids, np.minimum(deliveries, unmet) < -_AUDIT_TOL,
         "negative flow"),
        (customer_ids, np.abs(served - demand) > _AUDIT_TOL,
         "served + unmet = {:.6g}, demand {:.6g}", served, demand),
        ([f"region {r.id} nutrient {nt.id}"
          for r in regions for nt in instance.nutrients],
         np.abs(aux - surplus) > _AUDIT_TOL,
         "surplus {:.6g}, expected {:.6g}", aux, surplus),
    )
    return [f"period {periods[h]} {ids[i]}: "
            + message.format(*(v[h, i] for v in values))
            for ids, failing, message, *values in checks
            for h, i in np.argwhere(failing)]


@dataclass(frozen=True)
class OperationalPlan:
    """Deployable summary of one sweep solution.

    Carries everything the simulator needs to replay the solution: the
    epsilon it came from, the safety-stock fraction the planner ran
    with, the opening inventories, and the expected objective estimates
    for cross-model comparison.
    """

    epsilon: float
    safety_stock: float
    initial_inventory: dict[str, float]
    z1: float
    z1_se: float
    z2: float
    z2_se: float
    inventory_cost: float
    unfulfilled_cost: float
    order_cost: float
    master_seed: int
    replications: int


def plan_from_estimate(estimate: EstimateResult, instance: NetworkInstance,
                       config: StochasticConfig) -> OperationalPlan:
    """The plan for one estimate under the config it was made with, from
    every DC at its safety level."""
    v = planned_safety_stock(instance, config)
    return OperationalPlan(
        epsilon=estimate.epsilon,
        safety_stock=v,
        initial_inventory=default_initial_inventory(instance, v),
        z1=estimate.z1, z1_se=estimate.z1_se,
        z2=estimate.z2, z2_se=estimate.z2_se,
        inventory_cost=estimate.inventory_cost,
        unfulfilled_cost=estimate.unfulfilled_cost,
        order_cost=estimate.order_cost,
        master_seed=config.master_seed,
        replications=config.replications,
    )


_PLAN_FIELDS = tuple(f.name for f in fields(OperationalPlan))
_PLAN_INTEGERS = ("master_seed", "replications")


def save_plan(plan: OperationalPlan, path: str) -> None:
    write_json(path, asdict(plan))


def load_plan(path: str) -> OperationalPlan:
    """Read a plan file written by save_plan.

    The file holds exactly the plan's fields.  master_seed and
    replications are integers; every other value, opening inventories
    included, is a finite JSON number.
    """
    data = read_json(path)
    _require_keys(data, path, _PLAN_FIELDS)
    integers = {name: _integer(data, path, name) for name in _PLAN_INTEGERS}
    inventory = _object(data, path, "initial_inventory")
    where = f"{path}.initial_inventory"
    numbers = {name: _number(data, path, name) for name in _PLAN_FIELDS
               if name not in _PLAN_INTEGERS and name != "initial_inventory"}
    return OperationalPlan(
        initial_inventory={dc: _number(inventory, where, dc) for dc in inventory},
        **integers, **numbers)
