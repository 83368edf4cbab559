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
  Their costs land on the delivery/order columns and a constant offset,
  and the inventory band [v*S, Cap] becomes two inequality rows per DC;
* the nutrition plus-terms max(0, n - requirement) are linearized with
  one auxiliary and (when needed) one indicator per (region, nutrient).
  Pairs whose threshold exceeds the region's storage capacity are
  dropped; pairs whose threshold sits below the safety-stock floor are
  always active and need no indicator.  Indicators within a region are
  ordered by threshold, which lets branch and bound cut entire threshold
  ranges at once instead of enumerating subsets;
* period models differ only in opening stock, demand and retention, so
  a PeriodTemplate holds the dense arrays and each period patches a copy.
  Columns, with D DCs and C customers: orders [0, D) in instance.dcs()
  order, deliveries [D, D + C) in instance.customers() order, then one
  indicator per switched and one surplus per surviving quality term.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, fields
from functools import reduce
from operator import add, sub
from typing import Mapping, Sequence

import numpy as np

from .accessibility import resolve_scales, snapshot
from .errors import ConfigError, DomainError, NumericalError, ParseError
from .milp import DEFAULT_NODE_LIMIT, DenseModel, Status, solve_milp
from .model import (NetworkDesign, NetworkInstance, _number, _require_keys,
                    read_json, write_json)


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


@dataclass(frozen=True)
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

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Scenario)
                and np.array_equal(self.demand, other.demand)
                and np.array_equal(self.retention, other.retention))


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


def linked_retention(instance: NetworkInstance, design: NetworkDesign,
                     scenario: Scenario) -> np.ndarray:
    """Each DC's linked-lane retention, [dc, period] in dcs() order."""
    row = {w.id: i for i, w in enumerate(instance.warehouses)}
    rows = [row[design.dc_warehouse[dc.id]] for dc in instance.dcs()]
    return scenario.retention[rows, np.arange(len(rows))]


@dataclass(frozen=True)
class StochasticConfig:
    replications: int = 50
    master_seed: int = 0
    safety_stock: float | None = None
    node_limit: int = DEFAULT_NODE_LIMIT
    jobs: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError("replications must be at least 1")
        if self.jobs < 1:
            raise DomainError("jobs must be at least 1")
        if self.safety_stock is not None and not 0.0 <= self.safety_stock <= 1.0:
            raise DomainError("safety stock fraction must lie in [0, 1]")


@dataclass(frozen=True)
class QualityTerm:
    """One surviving (region, nutrient) plus-term of the quality index."""

    region_id: str
    nutrient_id: str
    requirement: float       # nutrient units the region's population needs
    content: float           # nutrient units per kg of stored product
    big_m: float
    aux_cap: float           # upper bound on the surplus auxiliary
    switched: bool           # True when an indicator variable is needed


def quality_terms(instance: NetworkInstance,
                  safety_fraction: float) -> list[QualityTerm]:
    """Classify every (region, nutrient) pair of the quality index.

    threshold = requirement / content is the region inventory at which
    the surplus turns positive.  Pairs unreachable within regional
    storage capacity are dropped (surplus identically zero); pairs whose
    threshold lies below the guaranteed safety-stock floor are always
    active; the rest need an indicator.
    """
    terms: list[QualityTerm] = []
    for region in instance.regions:
        capacity = sum(dc.capacity for dc in region.dcs)
        floor = safety_fraction * capacity
        population = region.population
        for nutrient in instance.nutrients:
            requirement = nutrient.min_requirement * population
            threshold = requirement / nutrient.per_kg_content
            if threshold >= capacity:
                continue
            terms.append(QualityTerm(
                region_id=region.id,
                nutrient_id=nutrient.id,
                requirement=requirement,
                content=nutrient.per_kg_content,
                big_m=nutrient.per_kg_content * capacity + requirement,
                aux_cap=nutrient.per_kg_content * capacity - requirement,
                switched=threshold > floor,
            ))
    return terms


class PeriodTemplate:
    """The arrays one replication's period models share, in the module
    notes' column layout; aux_columns maps (region, nutrient) to a column.

    A holds the order columns at unit retention; rows from warehouse_rows
    on scale them by the period's retention.  Row i's right-hand side is
    k[i] * stock[src[i]] - req[i] + big_m[i], in that order, where stock
    is each DC's opening stock, then each region's total."""

    def __init__(self, instance: NetworkInstance, design: NetworkDesign,
                 epsilon: float, safety_stock: float):
        self.instance, self.design, self.epsilon = instance, design, epsilon
        self.scales = scales = resolve_scales(instance, design)
        terms = quality_terms(instance, safety_stock)
        dcs, customers = instance.dcs(), instance.customers()
        D, C = self.num_dcs, self.num_customers = len(dcs), len(customers)
        switched = [(t.region_id, t.nutrient_id) for t in terms if t.switched]
        flags = {key: D + C + i for i, key in enumerate(switched)}
        aux = D + C + len(switched)
        self.aux_columns = {(t.region_id, t.nutrient_id): aux + i
                            for i, t in enumerate(terms)}
        n = aux + len(terms)

        position = {dc.id: j for j, dc in enumerate(dcs)}
        linked = [instance.warehouse(design.dc_warehouse[dc.id]) for dc in dcs]
        self.order_cost = np.array([w.order_cost(dc.id)
                                    for w, dc in zip(linked, dcs)])
        self.holding = np.array([dc.inventory_unit_cost for dc in dcs])
        self.lb = np.zeros(n)
        self.ub = np.full(n, math.inf)
        self.ub[:D] = [w.capacity for w in linked]
        self.ub[D + C:aux] = 1.0
        self.ub[aux:] = [t.aux_cap for t in terms]
        self.binary = np.arange(D + C, aux)
        weight = {nt.id: nt.weight for nt in instance.nutrients}
        self.c = np.zeros(n)
        self.c[aux:] = [instance.region(t.region_id).weights.quality
                        * weight[t.nutrient_id] / scales.quality for t in terms]

        # The objective's constant subtracts offset_weight * [opening,
        # demand] one product at a time in offset_order: region by region,
        # its DCs, then its customers.
        self.region_dcs = [[position[dc.id] for dc in region.dcs]
                           for region in instance.regions]
        weights, order = list(epsilon * self.holding), []
        for region, region_dcs in zip(instance.regions, self.region_dcs):
            order += region_dcs
            rho = region.unfulfilled_unit_cost
            for customer in region.customers:
                col = len(weights)  # D + the customer's position
                dc_id = design.customer_dc[customer.id]
                effort = (instance.path_weight(dc_id, customer.id)
                          * design.distances[dc_id][customer.id])
                order.append(col)
                self.c[col] = (
                    epsilon * rho
                    - region.weights.transportation * effort
                    / scales.transportation
                    + epsilon * self.holding[position[dc_id]])
                weights.append(epsilon * rho)
        self.offset_weight, self.offset_order = np.array(weights), np.array(order)

        unit = np.eye(n)
        # Each DC's closing stock less its opening stock, at unit retention:
        # its order, less its customers' deliveries.
        stock = np.eye(D, n)
        stock[[position[design.customer_dc[c.id]] for c in customers],
              range(D, D + C)] = -1.0
        rows, rhs = [], []  # coefficients; (k, src, req, big_m)

        def add_row(coeffs, k=0.0, src=0, req=0.0, big_m=0.0):
            rows.append(coeffs)
            rhs.append((k, src, req, big_m))

        for warehouse in instance.warehouses:
            supplied = [j for j, w in enumerate(linked) if w.id == warehouse.id]
            if supplied:
                add_row(unit[supplied].sum(axis=0), req=-warehouse.capacity)
        self.warehouse_rows = len(rows)

        for j, dc in enumerate(dcs):
            add_row(stock[j], k=-1.0, src=j, req=-dc.capacity)
            add_row(-stock[j], k=1.0, src=j, req=safety_stock * dc.capacity)

        for r, region in enumerate(instance.regions):
            group = [t for t in terms if t.region_id == region.id]
            total = stock[self.region_dcs[r]].sum(axis=0)
            capacity = sum(dc.capacity for dc in region.dcs)
            for term in group:
                a = unit[self.aux_columns[(region.id, term.nutrient_id)]]
                surplus = a - term.content * total
                if not term.switched:
                    add_row(surplus, k=term.content, src=D + r,
                            req=term.requirement)
                    continue
                on = unit[flags[(region.id, term.nutrient_id)]]
                add_row(a - term.big_m * on)
                add_row(surplus + term.big_m * on, k=term.content, src=D + r,
                        req=term.requirement, big_m=term.big_m)
                # Secant of the surplus over [0, capacity].  Valid because
                # the plus-term is convex, and it pins the relaxation to
                # the hull instead of the loose big-M midpoint, so each
                # indicator resolves after a single branching.
                slope = term.aux_cap / capacity
                add_row(a - slope * total, k=slope, src=D + r)
            # Threshold-ordered indicators: a nutrient reachable only at
            # high inventory implies every lower-threshold nutrient is
            # reachable.
            ordered = sorted((t for t in group if t.switched),
                             key=lambda t: t.requirement / t.content)
            for low, high in zip(ordered, ordered[1:]):
                add_row(unit[flags[(region.id, high.nutrient_id)]]
                        - unit[flags[(region.id, low.nutrient_id)]])

        self.A = np.array(rows) + 0.0  # + 0.0 clears negation's -0.0
        self.relations = np.full(len(rows), "<=")
        self.k, src, self.req, self.big_m = np.array(rhs).T
        self.src = src.astype(int)


def build_period_model(template: PeriodTemplate, opening: Sequence[float],
                       demand: Sequence[float], retention: Sequence[float],
                       ) -> DenseModel:
    """The single-period model for realized stock, demand and supply:
    opening stock and linked-lane retention per DC in instance.dcs()
    order, demand per customer in instance.customers() order."""
    D, C = template.num_dcs, template.num_customers
    if (len(opening), len(demand), len(retention)) != (D, C, D):
        raise ConfigError("need one opening stock per DC, one demand per "
                          "customer and one retention per DC")
    factor = np.array(retention, dtype=float)
    A = template.A.copy()
    A[template.warehouse_rows:, :D] *= factor
    c = template.c.copy()
    c[:D] = -template.epsilon * (template.order_cost + template.holding * factor)
    ub = template.ub.copy()
    ub[D:D + C] = demand
    # Region totals and the offset are float sums taken one term at a
    # time, in the order the template lists them.
    stock = np.array([*opening, *(reduce(add, (opening[j] for j in dcs), 0.0)
                                  for dcs in template.region_dcs)])
    b = template.k * stock[template.src] - template.req + template.big_m
    products = template.offset_weight * np.concatenate([opening, demand])
    offset = reduce(sub, products[template.offset_order].tolist(), 0.0)
    return DenseModel(A, b, c, template.lb, ub, relations=template.relations,
                      binary=template.binary, offset=offset)


@dataclass
class PeriodDecision:
    """Solved flows and derived state for one period of one replication."""

    period: int
    orders: dict[tuple[str, str], float]
    deliveries: dict[tuple[str, str], float]
    unmet: dict[tuple[str, str], float]
    inventory: dict[str, float]
    aux: dict[tuple[str, str], float]
    objective: float
    accessibility: float
    inventory_cost: float
    unfulfilled_cost: float
    order_cost: float


@dataclass
class ReplicationResult:
    scenario: Scenario
    periods: list[PeriodDecision]
    accessibility: float
    inventory_cost: float
    unfulfilled_cost: float
    order_cost: float
    safety_stock: float
    initial_inventory: dict[str, float]
    nodes: int
    limit_hit: bool

    @property
    def total_cost(self) -> float:
        return self.inventory_cost + self.unfulfilled_cost + self.order_cost


def default_initial_inventory(instance: NetworkInstance,
                              safety_fraction: float) -> dict[str, float]:
    """Opening stock: every DC at its safety level."""
    return {dc.id: safety_fraction * dc.capacity for dc in instance.dcs()}


def opening_state(instance: NetworkInstance, config: StochasticConfig,
                  ) -> tuple[float, dict[str, float]]:
    """The safety-stock fraction a config plans with, and the opening
    inventory: every DC at its safety level."""
    v = (instance.safety_stock_fraction if config.safety_stock is None
         else config.safety_stock)
    return v, default_initial_inventory(instance, v)


def run_replication(instance: NetworkInstance, design: NetworkDesign,
                    epsilon: float, seed: int, *,
                    config: StochasticConfig = StochasticConfig(),
                    ) -> ReplicationResult:
    """Sample one scenario and solve the horizon period by period."""
    v, initial = opening_state(instance, config)
    scenario = sample_scenario(instance, seed)
    template = PeriodTemplate(instance, design, epsilon, v)
    dcs = instance.dcs()
    opening = [initial[dc.id] for dc in dcs]

    periods: list[PeriodDecision] = []
    nodes = 0
    limit_hit = False
    # Consecutive periods differ only in demand, retention and the
    # opening inventory, so each root LP after the first starts from the
    # previous period's optimal root basis.
    start = None
    # Python floats, period-major, so each entry's arithmetic is scalar.
    demands = scenario.demand.T.tolist()
    retentions = linked_retention(instance, design, scenario).T.tolist()
    for t, (demand, retention) in enumerate(zip(demands, retentions)):
        model = build_period_model(template, opening, demand, retention)
        result = solve_milp(model, node_limit=config.node_limit, start=start)
        start = result.basis
        nodes += result.nodes
        if result.status is Status.NODE_LIMIT:
            limit_hit = True
        if result.values is None:
            raise DomainError(
                f"period {t} model is {result.status.value} "
                f"(seed {seed}, epsilon {epsilon:g})")

        decision = _extract_period(template, result, opening, demand,
                                   retention, t)
        periods.append(decision)
        opening = [min(max(decision.inventory[dc.id], v * dc.capacity),
                       dc.capacity) for dc in dcs]

    return ReplicationResult(
        scenario=scenario,
        periods=periods,
        accessibility=sum(p.accessibility for p in periods),
        inventory_cost=sum(p.inventory_cost for p in periods),
        unfulfilled_cost=sum(p.unfulfilled_cost for p in periods),
        order_cost=sum(p.order_cost for p in periods),
        safety_stock=v,
        initial_inventory=initial,
        nodes=nodes,
        limit_hit=limit_hit,
    )


def _extract_period(template, result, opening, demand, retention, t):
    instance, design = template.instance, template.design
    dcs = instance.dcs()
    x = result.values.tolist()
    orders = {(design.dc_warehouse[dc.id], dc.id): max(0.0, value)
              for dc, value in zip(dcs, x)}
    deliveries, unmet = {}, {}
    for customer, value, amount in zip(instance.customers(), x[len(dcs):],
                                       demand):
        key = (design.customer_dc[customer.id], customer.id)
        qty = min(max(0.0, value), amount)
        deliveries[key] = qty
        unmet[key] = max(0.0, amount - qty)

    inventory = {
        dc.id: stock + factor * ordered
        - sum(qty for (h, _), qty in deliveries.items() if h == dc.id)
        for dc, factor, stock, ordered in zip(dcs, retention, opening,
                                              orders.values())}

    # Auxiliaries: report the canonical surplus whenever the solver's
    # value agrees to within big-M conditioning noise; a material gap is
    # kept raw so the feasibility audit exposes it.
    aux: dict[tuple[str, str], float] = {}
    # Solver arithmetic can leave a DC a hair below zero; physical stock
    # is nonnegative, so clamp the regional sums used downstream.  The
    # per-DC values stay raw for the audit.
    region_stock = {
        region.id: max(0.0, sum(inventory[dc.id] for dc in region.dcs))
        for region in instance.regions}
    for region in instance.regions:
        for nutrient in instance.nutrients:
            key = (region.id, nutrient.id)
            if key not in template.aux_columns:
                aux[key] = 0.0  # a dropped term's surplus is identically zero
                continue
            canonical = max(0.0, nutrient.per_kg_content * region_stock[region.id]
                            - nutrient.min_requirement * region.population)
            solved = x[template.aux_columns[key]]
            tol = 1e-4 * (1.0 + abs(canonical))
            aux[key] = canonical if abs(solved - canonical) <= tol else solved

    inventory_cost = sum(dc.inventory_unit_cost * inventory[dc.id]
                         for dc in dcs)
    # Regions, then customers: the order unmet was filled in.
    unfulfilled_cost = sum(
        region.unfulfilled_unit_cost * unmet[(design.customer_dc[c.id], c.id)]
        for region in instance.regions for c in region.customers)
    order_cost = sum(instance.warehouse(w_id).order_cost(dc_id) * qty
                     for (w_id, dc_id), qty in orders.items())

    acc_total = 0.0
    for region in instance.regions:
        # transportation_effort skips the pairs outside the region.
        snap = snapshot(region, t, design, instance,
                        region_stock[region.id], deliveries, template.scales)
        acc_total += snap.contribution(region)

    return PeriodDecision(
        period=t, orders=orders, deliveries=deliveries, unmet=unmet,
        inventory=inventory, aux=aux, objective=result.objective,
        accessibility=acc_total,
        inventory_cost=inventory_cost, unfulfilled_cost=unfulfilled_cost,
        order_cost=order_cost)


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


WorkItem = tuple[float, int]  # (epsilon, replication seed)
# What a work item gives back: its summary, or the error it raised.
Outcome = ReplicationSummary | DomainError | NumericalError

# Set once in each worker process by the pool initializer, so the
# instance and design cross the process boundary once per worker
# instead of once per work item.
_worker_inputs: tuple[NetworkInstance, NetworkDesign, StochasticConfig] | None = None


def _init_worker(instance: NetworkInstance, design: NetworkDesign,
                 config: StochasticConfig) -> None:
    global _worker_inputs
    _worker_inputs = (instance, design, config)


def _run_item(item: WorkItem) -> Outcome:
    return summarize_replication(*_worker_inputs, item)


def map_replications(instance: NetworkInstance, design: NetworkDesign,
                     config: StochasticConfig,
                     items: Sequence[WorkItem]) -> list[Outcome]:
    """summarize_replication(instance, design, config, item) for every
    item, in order.

    With one worker (config.jobs == 1, or a single item) the calls run
    inline.  Otherwise a process pool of min(jobs, items) workers runs
    them.  The platform's default start method is used, so on spawn and
    forkserver platforms the initializer pickles (instance, design,
    config).
    """
    workers = min(config.jobs, len(items))
    if workers <= 1:
        return [summarize_replication(instance, design, config, item)
                for item in items]
    # Imported here so that single-process commands do not load
    # multiprocessing (about 1.3 MB of resident memory).
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(instance, design, config)) as pool:
        return list(pool.map(_run_item, items))


def summarize_replication(instance: NetworkInstance, design: NetworkDesign,
                          config: StochasticConfig, item: WorkItem) -> Outcome:
    """One (epsilon, seed) replication's summary, or the error it raised.

    The error is returned, not raised, so a failing replication leaves
    the other work items running and its caller decides what it spoils.
    """
    epsilon, seed = item
    try:
        result = run_replication(instance, design, epsilon, seed,
                                 config=config)
    except (DomainError, NumericalError) as exc:
        return exc
    return ReplicationSummary(
        accessibility=result.accessibility,
        inventory_cost=result.inventory_cost,
        unfulfilled_cost=result.unfulfilled_cost,
        order_cost=result.order_cost,
        nodes=result.nodes,
        limit_hit=result.limit_hit)


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


def audit_replication(instance: NetworkInstance, design: NetworkDesign,
                      result: ReplicationResult,
                      tolerance: float = 1e-6) -> list[str]:
    """Re-check every stored period against the model's constraints.

    Pure arithmetic on the stored flows, independent of the solver:
    inventory balance, the [v*S, Cap] band, warehouse capacity, the
    delivered/unfulfilled split, link activity, and the nutrition
    surplus values.  Returns human-readable violations; empty means the
    replication is consistent.
    """
    issues: list[str] = []
    v = result.safety_stock
    demands = result.scenario.demand.T.tolist()
    retentions = linked_retention(instance, design, result.scenario).T.tolist()
    previous = result.initial_inventory
    for decision in result.periods:
        t = decision.period
        for dc, factor in zip(instance.dcs(), retentions[t]):
            w_id = design.dc_warehouse[dc.id]
            if (w_id, dc.id) not in decision.orders:
                issues.append(f"period {t}: no order lane for DC {dc.id}")
                continue
            received = factor * decision.orders[(w_id, dc.id)]
            outflow = sum(qty for (h, _), qty
                          in decision.deliveries.items() if h == dc.id)
            expected = previous[dc.id] + received - outflow
            stored = decision.inventory[dc.id]
            if abs(stored - expected) > tolerance:
                issues.append(
                    f"period {t} DC {dc.id}: balance off by "
                    f"{stored - expected:.3e}")
            if stored < v * dc.capacity - tolerance:
                issues.append(
                    f"period {t} DC {dc.id}: inventory {stored:.6g} below "
                    f"safety level {v * dc.capacity:.6g}")
            if stored > dc.capacity + tolerance:
                issues.append(
                    f"period {t} DC {dc.id}: inventory {stored:.6g} above "
                    f"capacity {dc.capacity:.6g}")
        for warehouse in instance.warehouses:
            shipped = sum(qty for (w_id, _), qty in decision.orders.items()
                          if w_id == warehouse.id)
            if shipped > warehouse.capacity + tolerance:
                issues.append(
                    f"period {t} warehouse {warehouse.id}: shipped "
                    f"{shipped:.6g} above capacity {warehouse.capacity:.6g}")
        for customer, demand in zip(instance.customers(), demands[t]):
            dc_id = design.customer_dc[customer.id]
            delivered = decision.deliveries.get((dc_id, customer.id))
            missing = decision.unmet.get((dc_id, customer.id))
            if delivered is None or missing is None:
                issues.append(
                    f"period {t} customer {customer.id}: no flow on its link")
                continue
            if delivered < -tolerance or missing < -tolerance:
                issues.append(
                    f"period {t} customer {customer.id}: negative flow")
            if abs(delivered + missing - demand) > tolerance:
                issues.append(
                    f"period {t} customer {customer.id}: served + unmet = "
                    f"{delivered + missing:.6g}, demand {demand:.6g}")
        for (dc_id, cust_id) in decision.deliveries:
            if design.customer_dc[cust_id] != dc_id:
                issues.append(
                    f"period {t}: delivery on inactive link {dc_id}->{cust_id}")
        for region in instance.regions:
            stock = sum(decision.inventory[dc.id] for dc in region.dcs)
            for nutrient in instance.nutrients:
                available = nutrient.per_kg_content * stock
                required = nutrient.min_requirement * region.population
                expected_aux = max(0.0, available - required)
                stored_aux = decision.aux.get((region.id, nutrient.id), 0.0)
                if abs(stored_aux - expected_aux) > tolerance:
                    issues.append(
                        f"period {t} region {region.id} nutrient {nutrient.id}: "
                        f"surplus {stored_aux:.6g}, expected {expected_aux:.6g}")
        previous = decision.inventory
    return issues


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
    """The plan for one estimate under the config it was made with."""
    v, opening = opening_state(instance, config)
    return OperationalPlan(
        epsilon=estimate.epsilon,
        safety_stock=v,
        initial_inventory=opening,
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
    for name in _PLAN_INTEGERS:
        if not isinstance(data[name], int) or isinstance(data[name], bool):
            raise ParseError(f"{path}: {name} must be an integer")
    where = f"{path}.initial_inventory"
    inventory = data["initial_inventory"]
    if not isinstance(inventory, Mapping):
        raise ParseError(f"{where}: expected a JSON object")
    numbers = {name: _number(data, path, name) for name in _PLAN_FIELDS
               if name not in _PLAN_INTEGERS and name != "initial_inventory"}
    return OperationalPlan(
        initial_inventory={dc: _number(inventory, where, dc) for dc in inventory},
        master_seed=data["master_seed"], replications=data["replications"],
        **numbers)
