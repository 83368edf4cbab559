"""Discrete-event validation of a planned solution.

Replays one sweep solution under randomly timed customer orders with one
fixed (S, s) replenishment policy: S is the DC's capacity and s = v * S.
Each customer places one order per period, of that period's demand, at
a uniform random time within it.  Orders are all-or-nothing: a DC ships
the full quantity or none of it.  Reviews happen at period boundaries
and refill a DC to S whenever its stock has fallen below s, subject to
warehouse capacity; the supply-loss factor applies on the way, and the
replenishment arrives at the boundary that dispatches it.

Order sizes and replenishment retention reuse the optimizer's scenario
stream (same master seed and run index give the same draws), so
simulated costs compare against the planner's expectations without
sampling bias.  Only the arrival times come from a separate stream,
laid out [customer, period] like the scenario's demand.

The replay runs on arrays.  DCs share nothing but warehouse capacity,
and only at the boundaries, so between two boundaries each DC runs on
its own.  With backlog "wait", a DC whose queue is empty ships the
longest prefix of the period's orders that its stock covers and queues
the rest; a DC with a queue queues them all; a boundary drains each
queue by the same prefix rule.  With backlog "drop", a loop over
floats ships or drops each order.  Stock levels, costs and volumes are
added up in event order, so they are the floats a one-event-at-a-time
loop gets.  The event log is an EventLog of six columns (time, kind
code, period, DC, customer, quantity), 29 bytes an event; iterating it
gives SimEvent records.  Each event is written once, straight into its
slot of the preallocated columns.  The merge that lays the log out
takes over the order columns, the runs of other events and the pool of
customers and quantities those runs read, and releases each input as
soon as the log column it feeds is written; its slots and sources are
32-bit integers.  So while the log is laid out a replay holds the log,
the inputs not yet consumed and a few 4-byte index arrays, and once it
returns, only the log.  run_validation simulates each run when it is
read, so a validation that reduces each report to its row holds one
log at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError
from .model import NetworkDesign, NetworkInstance, design_mismatches
from .pareto import csv_cells, write_csv
from .stochastic import (OperationalPlan, linkage, linked_retention,
                         replication_seed, sample_scenario)

_BACKLOG_MODES = ("wait", "drop")


@dataclass(frozen=True)
class SimConfig:
    """Simulation knobs.

    rng_seed is the master seed and run_index picks the replication, so
    run r sees exactly the demand quantities of optimizer replication r.
    backlog says whether an order the DC cannot cover waits or is
    dropped.  The policy itself is fixed and mirrors the planning model:
    the instance's horizon, one order per customer per period, S = DC
    capacity, s = v * S, and replenishment delivered at the boundary that
    dispatches it.
    """

    rng_seed: int = 0
    run_index: int = 0
    backlog: str = "wait"

    def __post_init__(self) -> None:
        if self.run_index < 0:
            raise ConfigError("run_index must be >= 0")
        if self.backlog not in _BACKLOG_MODES:
            raise ConfigError(
                f"backlog must be one of {', '.join(_BACKLOG_MODES)}, "
                f"got {self.backlog!r}")


class SimEvent(NamedTuple):
    """One line of the simulation log, as EventLog reads it out."""

    time: float
    kind: str                # one of KINDS
    period: int
    dc: str
    customer: str | None
    quantity: float


KINDS = ("order", "ship", "wait", "drop", "receive", "dispatch", "expire")
_ORDER, _SHIP, _WAIT, _DROP, _RECEIVE, _DISPATCH, _EXPIRE = range(len(KINDS))
# Events an EventLog converts to Python values at a time when it is
# read, so a reader holds one chunk's values, not the whole log's.
_READ_CHUNK = 4096


class EventLog:
    """The simulation log in event order, kept as six columns.

    time and quantity are floats, kind a code into KINDS, period an int,
    dc an index into dc_ids and customer an index into customer_ids (-1
    for an event without one).  Iteration reads it as SimEvent objects
    with the string ids, built only when read.
    """

    def __init__(self, columns: tuple[np.ndarray, ...],
                 dc_ids: tuple[str, ...], customer_ids: tuple[str, ...]):
        (self.time, self.kind, self.period, self.dc, self.customer,
         self.quantity) = columns
        self.dc_ids = dc_ids
        self.customer_ids = customer_ids

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.time, self.kind, self.period, self.dc, self.customer,
                self.quantity)

    def __len__(self) -> int:
        return len(self.kind)

    def __iter__(self) -> Iterator[SimEvent]:
        customers = self.customer_ids + (None,)    # -1 reads as None
        for start in range(0, len(self), _READ_CHUNK):
            for time, kind, period, dc, customer, quantity in zip(
                    *(column[start:start + _READ_CHUNK].tolist()
                      for column in self.columns)):
                yield SimEvent(time, KINDS[kind], period, self.dc_ids[dc],
                               customers[customer], quantity)


@dataclass
class SimReport:
    """One run: its three costs, the service level of each region and
    of the whole network, the counts of orders placed, dropped and
    expired, and the event log.

    events is an EventLog: iterate it for SimEvent objects in event
    order, or read its columns directly.
    """

    inventory_cost: float
    unfulfilled_cost: float
    order_cost: float
    service_levels: dict[str, float]
    service_level: float
    orders_placed: int
    orders_dropped: int
    orders_expired: int
    events: EventLog = field(repr=False)

    @property
    def total_cost(self) -> float:
        return self.inventory_cost + self.unfulfilled_cost + self.order_cost


def service_level(successful_volume: float, total_volume: float) -> float:
    """Fraction of ordered product shipped; no demand counts as fully served.

    Served and ordered volumes are the same quantities accumulated in
    different event orders, so the ratio is clamped to absorb the odd
    ulp of float drift when everything ships.
    """
    if total_volume <= 0.0:
        return 1.0
    return min(1.0, successful_volume / total_volume)


def _covered(stock: float, quantities: np.ndarray) -> tuple[int, float]:
    """How many leading orders the stock covers one after another, and
    the stock left after shipping them.

    np.subtract.accumulate subtracts left to right, so every level is
    the float a loop shipping while stock >= quantity would reach.
    """
    levels = np.subtract.accumulate(np.concatenate(([stock], quantities)))
    short = levels[:-1] < quantities
    n = int(short.argmax())
    if not short[n]:
        n = len(quantities)
    return n, float(levels[n])


def _running_sum(values: np.ndarray) -> float:
    """0.0 plus each value in turn, the order a loop adds them in
    (np.sum adds pairwise)."""
    return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


def _merge(orders: list[np.ndarray | None], runs: list[tuple[int, ...]],
           pool: list[np.ndarray | None]) -> tuple[np.ndarray, ...]:
    """The log's six columns: an order/outcome pair of events per order,
    with each run of other events laid in after its `at` pair events.

    orders holds the orders' six columns in time order, with each
    order's outcome as its kind; its order event gets kind order.  A run
    (at, time, kind, period, dc, first, size) is size events whose
    customers and quantities are pool[0] and pool[1] [first:first + size].
    Runs come in log order, so their `at` never decreases.  Each event
    is written once, straight into its slot: order i's pair goes to 2i
    plus the events laid in before it.

    The merge owns its inputs: it empties runs once it has read them and
    sets each entry of orders and pool to None once the log column it
    feeds is written, customer and quantity first, so a caller that
    keeps no other reference to them holds only the log when the merge
    returns.  Slots and sources are counted in 32-bit integers unless
    the log is too long for them.
    """
    placed = len(orders[0])
    count = sum(run[-1] for run in runs)
    length = 2 * placed + count
    index = np.int32 if length <= np.iinfo(np.int32).max else np.int64
    at, time, kind, period, dc, first, size = np.array(
        runs, dtype=index).reshape(-1, 7).T
    runs.clear()
    # Run event e goes to slot at + e and comes from pool position
    # first + e - before, where before counts the run events ahead of
    # its run.
    before = np.cumsum(size, dtype=index)
    before -= size
    slot = np.arange(count, dtype=index)
    source = slot + np.repeat(first - before, size)
    slot += np.repeat(at, size)
    # Pair i goes after the run events whose at is at most 2i.
    pair = np.zeros(placed + 1, dtype=index)
    np.add.at(pair, (at + 1) // 2, size)
    np.cumsum(pair, out=pair)
    pair = pair[:placed]
    pair += np.arange(0, 2 * placed, 2, dtype=index)
    log: list = [None] * 6

    def paired(i: int) -> np.ndarray:
        """Log column i with order column i in its pairs; the order
        column is released."""
        column, orders[i] = orders[i], None
        out = np.empty(length, dtype=column.dtype)
        out[pair] = column
        out[pair + 1] = column
        return out

    for i, p in ((4, 0), (5, 1)):       # customer and quantity
        log[i] = paired(i)
        log[i][slot] = pool[p][source]
        pool[p] = None
    del source
    for i, values in enumerate((time, kind, period, dc)):
        log[i] = paired(i)
        log[i][slot] = np.repeat(values, size)
    log[1][pair] = _ORDER
    return tuple(log)


def _orders(instance: NetworkInstance, design: NetworkDesign,
            serving: np.ndarray, dcs: int, config: SimConfig
            ) -> tuple[list[list[float]], tuple[np.ndarray, ...],
                       tuple[np.ndarray, ...]]:
    """One run's draws as the replay reads them: each DC's retention by
    period, the orders taken by time, and the same orders grouped by DC.

    There is one order per customer and period, customer-major, then
    taken by time; the sort is stable, so equal times keep draw order.
    The orders are (time, period, DC, customer, quantity) arrays.
    Grouped position p is order by_dc[p], in time order within each DC,
    and DC j's orders of block k are grouped positions cut[j][k] to
    cut[j][k + 1]; the grouped (by_dc, cut, customer, quantity) are
    returned.  The scenario, the arrival offsets and the sort index are
    freed on return.
    """
    horizon = int(instance.horizon)
    scenario = sample_scenario(
        instance, replication_seed(config.rng_seed, config.run_index))
    retention = linked_retention(instance, design, scenario).tolist()
    times_rng = np.random.default_rng(
        replication_seed(config.rng_seed, config.run_index, stream="events"))
    offsets = times_rng.uniform(size=scenario.demand.shape)
    customer = np.repeat(np.arange(len(serving), dtype=np.int32), horizon)
    time = (np.arange(horizon) + offsets).ravel()
    order = np.argsort(time, kind="stable")
    time, customer = time[order], customer[order]
    quantity = scenario.demand.ravel()[order]
    dc = serving.astype(np.int32)[customer]
    block = np.minimum(time.astype(np.int64), horizon)
    period = np.minimum(block, horizon - 1).astype(np.int32)
    by_dc = np.argsort(dc, kind="stable")
    blocks = horizon + 1
    cut = np.searchsorted(dc[by_dc].astype(np.int64) * blocks + block[by_dc],
                          np.arange(dcs)[:, None] * blocks
                          + np.arange(blocks + 1)).tolist()
    return (retention, (time, period, dc, customer, quantity),
            (by_dc, cut, customer[by_dc], quantity[by_dc]))


def simulate(instance: NetworkInstance, design: NetworkDesign,
             plan: OperationalPlan,
             config: SimConfig = SimConfig()) -> SimReport:
    """Run one simulation of the plan over the instance horizon.

    DCs and customers go in instance order (instance.dcs() and
    instance.customers()), linked by stochastic.linkage as the planner
    links them; the log's dc and customer columns index that order.
    Orders are taken by time, and orders at equal times in customer
    order.  Event order per period boundary: book holding cost
    on the closing stock, serve waiting orders, review and dispatch
    replenishments, then receive them and serve waiting orders again.
    Customer orders in between are served immediately when stock covers
    them, otherwise queued or dropped; each order event is followed by
    its ship, wait or drop event.
    """
    horizon = int(instance.horizon)
    problems = design_mismatches(instance, design)
    if problems:
        raise ConfigError("design does not fit the instance: "
                          + "; ".join(problems))
    dcs = instance.dcs()
    dc_ids = tuple(dc.id for dc in dcs)
    if set(plan.initial_inventory) != set(dc_ids):
        raise ConfigError("plan inventories do not match the design's DCs")
    if not 0.0 <= plan.safety_stock <= 1.0:
        raise ConfigError(
            f"plan safety stock {plan.safety_stock} outside [0, 1]")

    capacity = [dc.capacity for dc in dcs]
    reorder_point = [plan.safety_stock * cap for cap in capacity]
    holding = [dc.inventory_unit_cost for dc in dcs]
    supplier, serving = linkage(instance, design)
    order_unit_cost = [instance.warehouses[w].order_cost(h)
                       for w, h in zip(supplier.tolist(), dc_ids)]
    members = [np.flatnonzero(supplier == w).tolist()
               for w in range(len(instance.warehouses))]

    stock = [float(plan.initial_inventory[h]) for h in dc_ids]
    for h, level, cap in zip(dc_ids, stock, capacity):
        if not 0.0 <= level <= cap + 1e-9:
            raise ConfigError(
                f"DC {h}: initial inventory {level:.6g} outside "
                f"[0, {cap:.6g}]")

    retention, (time, period, dc, customer, quantity), (
        by_dc, cut, dc_customer, dc_quantity) = _orders(
            instance, design, serving, len(dc_ids), config)
    customers = instance.customers()
    customer_ids = tuple(c.id for c in customers)
    region_index = {r.id: i for i, r in enumerate(instance.regions)}
    customer_region = np.array([region_index[c.region_id] for c in customers],
                               dtype=np.int32)
    # Block k holds the orders between boundaries k and k + 1: boundary b
    # goes before every order whose time is at least b.
    bounds = np.searchsorted(time, np.arange(horizon + 2)).tolist()
    blocks = horizon + 1
    # DC j's queue runs from grouped position head[j] to the end of the
    # blocks served so far.
    head = [row[0] for row in cut]
    wait = config.backlog == "wait"
    placed = len(time)
    outcome = np.full(placed, _WAIT if wait else _DROP, dtype=np.int8)

    # Every other event is one of a run of events with one time, kind,
    # period and DC: the (at, time, kind, period, DC, first, size) of a
    # run puts it after `at` pair events, with the customers and
    # quantities of the grouped orders [first, first + size), or of one
    # refill quantity, which goes to the end of that pool.
    runs: list[tuple[int, ...]] = []
    refills: list[float] = []

    def refill(kind: int, b: int, j: int, qty: float) -> None:
        runs.append((2 * bounds[b], b, kind, b, j,
                     placed + len(refills), 1))
        refills.append(qty)

    def drain(j: int, b: int) -> None:
        first, end = head[j], cut[j][b]
        if first < end:
            n, stock[j] = _covered(stock[j], dc_quantity[first:end])
            if n:
                head[j] = first + n
                runs.append((2 * bounds[b], b, _SHIP, b, j, first, n))

    inventory_cost = 0.0
    order_cost = 0.0
    for k in range(blocks):
        if k:
            # Period boundary k.
            for unit_cost, level in zip(holding, stock):
                inventory_cost += unit_cost * level
            if wait:
                for j in range(len(dc_ids)):
                    drain(j, k)
            if k < horizon:
                arrivals = []
                for warehouse, linked in zip(instance.warehouses, members):
                    requests = [(j, capacity[j] - stock[j]) for j in linked
                                if stock[j] < reorder_point[j]]
                    total = sum(q for _, q in requests)
                    scale = (1.0 if total <= warehouse.capacity
                             else warehouse.capacity / total)
                    for j, req in requests:
                        dispatch = req * scale
                        if dispatch <= 0.0:
                            continue
                        order_cost += order_unit_cost[j] * dispatch
                        refill(_DISPATCH, k, j, dispatch)
                        arrivals.append((j, dispatch * retention[j][k]))
                for j, qty in arrivals:
                    stock[j] += qty
                    refill(_RECEIVE, k, j, qty)
                    if wait:
                        drain(j, k)
        # The orders of block k.
        if wait:
            for j in range(len(dc_ids)):
                first, end = cut[j][k], cut[j][k + 1]
                if first < end and head[j] == first:
                    n, stock[j] = _covered(stock[j], dc_quantity[first:end])
                    head[j] = first + n
                    outcome[by_dc[first:first + n]] = _SHIP
        else:
            first, end = bounds[k], bounds[k + 1]
            shipped = []
            for i, j, qty in zip(range(first, end), dc[first:end].tolist(),
                                 quantity[first:end].tolist()):
                if stock[j] >= qty:
                    stock[j] -= qty
                    shipped.append(i)
            outcome[shipped] = _SHIP
    if wait:
        for j in range(len(dc_ids)):
            first, end = head[j], cut[j][blocks]
            if first < end:
                runs.append((2 * placed, horizon, _EXPIRE, horizon - 1, j,
                             first, end - first))

    # The ordered volumes go first, summed in time order, which is the
    # order events' order.  Then the merge takes the order columns, the
    # pool and the runs, and simulate keeps no other reference to them,
    # so the log is the one large thing left when it returns.
    region = customer_region[customer]
    region_volume = {r.id: _running_sum(quantity[region == i])
                     for i, r in enumerate(instance.regions)}
    pool = [np.concatenate((dc_customer, np.full(len(refills), -1, np.int32))),
            np.concatenate((dc_quantity, refills))]
    orders = [time, outcome, period, dc, customer, quantity]
    del (by_dc, dc_customer, dc_quantity, refills, region, time, outcome,
         period, dc, customer, quantity)
    events = EventLog(_merge(orders, runs, pool), dc_ids, customer_ids)

    # Served volumes and unmet costs, each summed in event order.
    shipped = events.kind == _SHIP
    served = events.quantity[shipped]
    served_region = customer_region[events.customer[shipped]]
    lost = (events.kind == _DROP) | (events.kind == _EXPIRE)
    rho = np.array([r.unfulfilled_unit_cost for r in instance.regions])
    unfulfilled_cost = _running_sum(
        rho[customer_region[events.customer[lost]]] * events.quantity[lost])
    region_served = {r.id: _running_sum(served[served_region == i])
                     for i, r in enumerate(instance.regions)}
    levels = {r.id: service_level(region_served[r.id], region_volume[r.id])
              for r in instance.regions}
    overall = service_level(sum(region_served.values()),
                            sum(region_volume.values()))
    return SimReport(
        inventory_cost=inventory_cost,
        unfulfilled_cost=unfulfilled_cost,
        order_cost=order_cost,
        service_levels=levels,
        service_level=overall,
        orders_placed=placed,
        orders_dropped=int(np.count_nonzero(events.kind == _DROP)),
        orders_expired=int(np.count_nonzero(events.kind == _EXPIRE)),
        events=events,
    )


def run_validation(instance: NetworkInstance, design: NetworkDesign,
                   plan: OperationalPlan, config: SimConfig,
                   runs: int) -> Iterator[SimReport]:
    """Simulate the plan `runs` times with run indices 0..runs-1.

    The runs come lazily: each is simulated when the iterator reaches
    it, so a reader that drops each report before taking the next holds
    one run at a time.  Wrap the result in list() to read it twice.
    runs < 1 raises ConfigError here, at the call.
    """
    if runs < 1:
        raise ConfigError("need at least one simulation run")
    return (simulate(instance, design, plan, replace(config, run_index=r))
            for r in range(runs))


def write_validation_csv(path: str, instance: NetworkInstance,
                         reports: Iterable[SimReport]) -> None:
    """Per-run costs and service levels, with mean and SE summary rows.

    Each report is reduced to its row before the next one is read, so
    with run_validation's iterator one run is simulated and held at a
    time.
    """
    regions = [r.id for r in instance.regions]
    header = (["run", "inventory_cost", "unfulfilled_cost", "order_cost",
               "total_cost"]
              + [f"service_{r}" for r in regions] + ["service_total"])

    def numbers(report: SimReport) -> list[float]:
        return ([report.inventory_cost, report.unfulfilled_cost,
                 report.order_cost, report.total_cost]
                + [report.service_levels[r] for r in regions]
                + [report.service_level])

    # map, not a comprehension: its loop variable would keep run r - 1
    # alive while run r is simulated.
    rows = list(map(numbers, reports))
    table = np.array(rows)
    means = table.mean(axis=0)
    if len(rows) > 1:
        ses = table.std(axis=0, ddof=1) / math.sqrt(len(rows))
    else:
        ses = np.zeros(table.shape[1])

    write_csv(path, header,
              [[str(i)] + csv_cells(row) for i, row in enumerate(rows)]
              + [["mean"] + csv_cells(means), ["se"] + csv_cells(ses)])
