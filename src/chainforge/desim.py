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

The replay is one walk over the orders in time order, the same in both
backlog modes.  An order ships if its DC has no queue and the DC's
stock covers it; otherwise it joins the DC's FIFO queue (backlog
"wait") or is dropped (backlog "drop", where the queues stay empty).
At each period boundary a DC ships its waiting orders, first to last,
while its stock covers the next one.  Stock levels, costs and
volumes are added up one term at a time in event order, so they are
the floats of a loop that handles one event at a time.  The event log
is an EventLog of six columns (time, kind code, period, DC, customer,
quantity), 29 bytes an event; iterating it gives SimEvent records.
The walk keeps each order's outcome in one column and every other
event as a run (boundary ships, refills, expiries) whose customers and
quantities go to a pool in run order; the merge then writes each event
once, straight into its slot of the preallocated columns.  It takes
over the order columns, the runs and the pool and releases each input
as soon as the log column it feeds is written; its slots are 32-bit
integers.  So while the log is laid out a replay holds the log, the
inputs not yet consumed and a few 4-byte index arrays, and once it
returns, only the log.  run_validation simulates each run when it is
read, so a validation that reduces each report to its row holds one
log at a time.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError
from .model import (NetworkDesign, NetworkInstance, design_mismatches,
                    running_sum)
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


def _merge(orders: list[np.ndarray | None], runs: list[tuple[int, ...]],
           pool: list[np.ndarray | array | None]
           ) -> tuple[np.ndarray, ...]:
    """The log's six columns: an order/outcome pair of events per order,
    with each run of other events laid in after its `at` pair events.

    orders holds the orders' six columns in time order, with each
    order's outcome as its kind; its order event gets kind order.  A run
    (at, time, kind, period, dc, size) is size events; runs come in log
    order, so their `at` never decreases, and pool[0] and pool[1] hold
    the customers and quantities of every run's events in that order.
    Each event is written once, straight into its slot: run event e (of
    all runs, counted in order) goes to slot at + e, and order i's pair
    to 2i plus the run events laid in before it.

    The merge owns its inputs: it empties runs once it has read them and
    sets each entry of orders and pool to None once the log column it
    feeds is written, customer and quantity first, so a caller that
    keeps no other reference to them holds only the log when the merge
    returns.  Slots are counted in 32-bit integers unless the log is too
    long for them.
    """
    placed, count = len(orders[0]), len(pool[0])
    length = 2 * placed + count
    index = np.int32 if length <= np.iinfo(np.int32).max else np.int64
    at, time, kind, period, dc, size = np.array(
        runs, dtype=index).reshape(-1, 6).T
    runs.clear()
    slot = np.arange(count, dtype=index)
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
        log[i][slot] = pool[p]
        pool[p] = None
    for i, values in enumerate((time, kind, period, dc)):
        log[i] = paired(i)
        log[i][slot] = np.repeat(values, size)
    log[1][pair] = _ORDER
    return tuple(log)


def _orders(instance: NetworkInstance, design: NetworkDesign,
            serving: np.ndarray, config: SimConfig
            ) -> tuple[list[list[float]], tuple[np.ndarray, ...]]:
    """One run's draws as the replay reads them: each DC's retention by
    period, and the orders taken by time as (time, period, DC, customer,
    quantity) arrays.

    There is one order per customer and period, customer-major, then
    taken by time; the sort is stable, so equal times keep draw order.
    An order's period is its time's, and the last period's for a time
    that rounds up to the horizon.  The scenario, the arrival offsets
    and the sort index are freed on return.
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
    period = np.minimum(time, horizon - 1).astype(np.int32)
    return retention, (time, period, dc, customer, quantity)


def simulate(instance: NetworkInstance, design: NetworkDesign,
             plan: OperationalPlan,
             config: SimConfig = SimConfig()) -> SimReport:
    """Run one simulation of the plan over the instance horizon.

    DCs and customers go in instance order (instance.dcs() and
    instance.customers()), linked by stochastic.linkage as the planner
    links them; the log's dc and customer columns index that order.
    Orders are taken by time, and orders at equal times in customer
    order.  Event order per period boundary: book holding cost on the
    closing stock, drain every DC's queue, review and dispatch
    replenishments, then receive them, draining each receiving DC's
    queue again.  An order in between ships at once if its DC has no
    queue and enough stock, and otherwise waits in the DC's queue or is
    dropped; each order event is followed by its ship, wait or drop
    event.  Orders still waiting at the horizon expire, DC by DC.
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

    retention, (time, period, dc, customer, quantity) = _orders(
        instance, design, serving, config)
    customers = instance.customers()
    customer_ids = tuple(c.id for c in customers)
    region_index = {r.id: i for i, r in enumerate(instance.regions)}
    customer_region = np.array([region_index[c.region_id] for c in customers],
                               dtype=np.int32)
    # Block k holds the orders between boundaries k and k + 1: boundary b
    # goes before every order whose time is at least b.
    bounds = np.searchsorted(time, np.arange(horizon + 2)).tolist()
    wait = config.backlog == "wait"
    placed = len(time)
    outcome = np.full(placed, _WAIT if wait else _DROP, dtype=np.int8)

    # Each DC's queue holds its waiting orders in time order (in drop
    # mode it stays empty); owed reads order i's quantity as a float.
    # Every other event is one of a run of events with one time, kind,
    # period and DC: the run (at, time, kind, period, DC, size) goes after
    # `at` pair events, where the loop sets `at` to 2 * bounds[k] at
    # boundary k and to 2 * placed for the expiries, and its events'
    # orders (-1 for a refill) and quantities are appended to the pool in
    # run order.
    queues: list[list[int]] = [[] for _ in dc_ids]
    owed = memoryview(quantity)
    runs: list[tuple[int, ...]] = []
    pool_order, pool_quantity = array("i"), array("d")

    def run(kind: int, b: int, period: int, j: int,
            orders: Sequence[int], quantities: Sequence[float]) -> None:
        runs.append((at, b, kind, period, j, len(quantities)))
        pool_order.extend(orders)
        pool_quantity.extend(quantities)

    def drain(j: int, b: int) -> None:
        """Ship DC j's waiting orders at boundary b, first to last, while
        its stock covers the next one."""
        queue, level, shipped = queues[j], stock[j], []
        for i in queue:
            qty = owed[i]
            if level < qty:
                break
            level -= qty
            shipped.append(qty)
        if shipped:
            stock[j] = level
            run(_SHIP, b, b, j, queue[:len(shipped)], shipped)
            del queue[:len(shipped)]

    inventory_cost = 0.0
    order_cost = 0.0
    for k in range(horizon + 1):
        at = 2 * bounds[k]
        if k:
            # Period boundary k.
            for unit_cost, level in zip(holding, stock):
                inventory_cost += unit_cost * level
            for j in range(len(dc_ids)):
                drain(j, k)
            if k < horizon:
                arrivals = []
                for warehouse, linked in zip(instance.warehouses, members):
                    requests = [(j, capacity[j] - stock[j]) for j in linked
                                if stock[j] < reorder_point[j]]
                    total = running_sum(q for _, q in requests)
                    scale = (1.0 if total <= warehouse.capacity
                             else warehouse.capacity / total)
                    for j, req in requests:
                        dispatch = req * scale
                        if dispatch <= 0.0:
                            continue
                        order_cost += order_unit_cost[j] * dispatch
                        run(_DISPATCH, k, k, j, (-1,), (dispatch,))
                        arrivals.append((j, dispatch * retention[j][k]))
                for j, qty in arrivals:
                    stock[j] += qty
                    run(_RECEIVE, k, k, j, (-1,), (qty,))
                    drain(j, k)
        # The orders of block k.
        first, end = bounds[k], bounds[k + 1]
        shipped = []
        for i, j, qty in zip(range(first, end), dc[first:end].tolist(),
                             quantity[first:end].tolist()):
            if not queues[j] and stock[j] >= qty:
                stock[j] -= qty
                shipped.append(i)
            elif wait:
                queues[j].append(i)
        outcome[shipped] = _SHIP
    at = 2 * placed
    for j, queue in enumerate(queues):
        if queue:
            run(_EXPIRE, horizon, horizon - 1, j, queue,
                [owed[i] for i in queue])

    # The ordered volumes go first: bincount adds each region's in turn,
    # here in time order, which is the order events' order.  Then the
    # merge takes the order columns, the pool and the runs, and simulate
    # keeps no other reference to them, so the log is the one large
    # thing left when it returns.
    regions = len(instance.regions)
    ordered = np.bincount(customer_region[customer], quantity,
                          minlength=regions).tolist()
    # A pool event's customer is its order's; -1 reads the appended -1.
    pool = [np.append(customer, np.int32(-1))[np.asarray(pool_order)],
            pool_quantity]
    orders = [time, outcome, period, dc, customer, quantity]
    del (queues, owed, pool_order, pool_quantity, time, outcome, period, dc,
         customer, quantity)
    events = EventLog(_merge(orders, runs, pool), dc_ids, customer_ids)

    # Served volumes and unmet costs, each summed in event order.
    shipped = events.kind == _SHIP
    served = np.bincount(customer_region[events.customer[shipped]],
                         events.quantity[shipped], minlength=regions).tolist()
    lost = (events.kind == _DROP) | (events.kind == _EXPIRE)
    rho = np.array([r.unfulfilled_unit_cost for r in instance.regions])
    unfulfilled_cost = running_sum((
        rho[customer_region[events.customer[lost]]]
        * events.quantity[lost]).tolist())
    levels = {r.id: service_level(s, o)
              for r, s, o in zip(instance.regions, served, ordered)}
    overall = service_level(running_sum(served), running_sum(ordered))
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
