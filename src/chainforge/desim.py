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
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .model import NetworkDesign, NetworkInstance, design_mismatches
from .pareto import csv_cells
from .stochastic import (OperationalPlan, linked_retention, replication_seed,
                         sample_scenario)

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


@dataclass(frozen=True)
class SimEvent:
    """One line of the simulation log."""

    time: float
    kind: str                # order | ship | wait | drop | receive | dispatch | expire
    period: int
    dc: str
    customer: str | None
    quantity: float


@dataclass
class SimReport:
    """Costs, service levels, and the full event trace of one run."""

    inventory_cost: float
    unfulfilled_cost: float
    order_cost: float
    service_levels: dict[str, float]
    service_level: float
    orders_placed: int
    orders_dropped: int
    orders_expired: int
    region_volume: dict[str, float]
    region_served: dict[str, float]
    dc_initial: dict[str, float]
    dc_final: dict[str, float]
    events: list[SimEvent] = field(repr=False)

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


@dataclass(frozen=True)
class _Order:
    time: float
    customer: str
    dc: str
    region: str
    quantity: float


def simulate(instance: NetworkInstance, design: NetworkDesign,
             plan: OperationalPlan,
             config: SimConfig = SimConfig()) -> SimReport:
    """Run one simulation of the plan over the instance horizon.

    Event order per period boundary: book holding cost on the closing
    stock, serve waiting orders, review and dispatch replenishments, then
    receive them and serve waiting orders again.  Customer orders in
    between are served immediately when stock covers them, otherwise
    queued or dropped.
    """
    horizon = int(instance.horizon)
    problems = design_mismatches(instance, design)
    if problems:
        raise ConfigError("design does not fit the instance: "
                          + "; ".join(problems))
    dcs = list(instance.dcs())
    dc_ids = {dc.id for dc in dcs}
    if set(plan.initial_inventory) != dc_ids:
        raise ConfigError("plan inventories do not match the design's DCs")
    if not 0.0 <= plan.safety_stock <= 1.0:
        raise ConfigError(
            f"plan safety stock {plan.safety_stock} outside [0, 1]")

    capacity = {dc.id: dc.capacity for dc in dcs}
    reorder_point = {h: plan.safety_stock * capacity[h] for h in capacity}

    dc_holding = {dc.id: dc.inventory_unit_cost for dc in dcs}
    region_rho = {r.id: r.unfulfilled_unit_cost for r in instance.regions}

    scenario = sample_scenario(
        instance, replication_seed(config.rng_seed, config.run_index))
    retention = dict(zip((dc.id for dc in dcs),
                         linked_retention(instance, design, scenario).tolist()))
    times_rng = np.random.default_rng(
        replication_seed(config.rng_seed, config.run_index, stream="events"))
    offsets = times_rng.uniform(size=scenario.demand.shape).tolist()

    orders: list[_Order] = []
    for customer, amounts, within in zip(instance.customers(),
                                         scenario.demand.tolist(), offsets):
        dc_id = design.customer_dc[customer.id]
        for p, (amount, u) in enumerate(zip(amounts, within)):
            orders.append(_Order(p + u, customer.id, dc_id,
                                 customer.region_id, amount))
    # A stable sort keeps draw order among equal (time, customer) keys.
    orders.sort(key=lambda o: (o.time, o.customer))

    stock = {h: float(plan.initial_inventory[h]) for h in sorted(dc_ids)}
    for h, level in stock.items():
        if level < 0.0 or level > capacity[h] + 1e-9:
            raise ConfigError(
                f"DC {h}: initial inventory {level:.6g} outside "
                f"[0, {capacity[h]:.6g}]")
    initial = dict(stock)
    waiting: dict[str, deque[_Order]] = {h: deque() for h in stock}
    events: list[SimEvent] = []

    inventory_cost = 0.0
    unfulfilled_cost = 0.0
    order_cost = 0.0
    region_volume = {r.id: 0.0 for r in instance.regions}
    region_served = {r.id: 0.0 for r in instance.regions}
    dropped = expired = 0

    def ship(order: _Order, at: float, period: int) -> None:
        stock[order.dc] -= order.quantity
        region_served[order.region] += order.quantity
        events.append(SimEvent(at, "ship", period, order.dc,
                               order.customer, order.quantity))

    def drain(dc_id: str, at: float, period: int) -> None:
        queue = waiting[dc_id]
        while queue and stock[dc_id] >= queue[0].quantity:
            ship(queue.popleft(), at, period)

    def boundary(b: int) -> None:
        nonlocal inventory_cost, order_cost
        for h in stock:
            inventory_cost += dc_holding[h] * stock[h]
        for h in stock:
            drain(h, float(b), b)
        if b > horizon - 1:
            return
        arrivals = []
        for warehouse in instance.warehouses:
            requests = []
            for h in stock:
                if design.dc_warehouse[h] != warehouse.id:
                    continue
                if stock[h] < reorder_point[h]:
                    requests.append((h, capacity[h] - stock[h]))
            total = sum(q for _, q in requests)
            scale = 1.0 if total <= warehouse.capacity else warehouse.capacity / total
            for h, req in requests:
                dispatch = req * scale
                if dispatch <= 0.0:
                    continue
                order_cost += warehouse.order_cost(h) * dispatch
                events.append(SimEvent(float(b), "dispatch", b, h,
                                       None, dispatch))
                arrivals.append((h, dispatch * retention[h][b]))
        for h, qty in arrivals:
            stock[h] += qty
            events.append(SimEvent(float(b), "receive", b, h, None, qty))
            drain(h, float(b), b)

    next_boundary = 1
    for order in orders:
        while next_boundary <= horizon and next_boundary <= order.time:
            boundary(next_boundary)
            next_boundary += 1
        period = min(int(order.time), horizon - 1)
        region_volume[order.region] += order.quantity
        events.append(SimEvent(order.time, "order", period, order.dc,
                               order.customer, order.quantity))
        if config.backlog == "wait":
            if waiting[order.dc] or stock[order.dc] < order.quantity:
                waiting[order.dc].append(order)
                events.append(SimEvent(order.time, "wait", period, order.dc,
                                       order.customer, order.quantity))
            else:
                ship(order, order.time, period)
        else:
            if stock[order.dc] >= order.quantity:
                ship(order, order.time, period)
            else:
                dropped += 1
                unfulfilled_cost += region_rho[order.region] * order.quantity
                events.append(SimEvent(order.time, "drop", period, order.dc,
                                       order.customer, order.quantity))
    while next_boundary <= horizon:
        boundary(next_boundary)
        next_boundary += 1

    for h in stock:
        for order in waiting[h]:
            expired += 1
            unfulfilled_cost += region_rho[order.region] * order.quantity
            events.append(SimEvent(float(horizon), "expire", horizon - 1,
                                   order.dc, order.customer, order.quantity))
        waiting[h].clear()

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
        orders_placed=len(orders),
        orders_dropped=dropped,
        orders_expired=expired,
        region_volume=region_volume,
        region_served=region_served,
        dc_initial=initial,
        dc_final=dict(stock),
        events=events,
    )


def run_validation(instance: NetworkInstance, design: NetworkDesign,
                   plan: OperationalPlan, config: SimConfig,
                   runs: int) -> list[SimReport]:
    """Simulate the plan `runs` times with run indices 0..runs-1."""
    if runs < 1:
        raise ConfigError("need at least one simulation run")
    return [simulate(instance, design, plan, replace(config, run_index=r))
            for r in range(runs)]


def write_validation_csv(path: str, instance: NetworkInstance,
                         reports: Sequence[SimReport]) -> None:
    """Per-run costs and service levels, with mean and SE summary rows."""
    regions = [r.id for r in instance.regions]
    header = (["run", "inventory_cost", "unfulfilled_cost", "order_cost",
               "total_cost"]
              + [f"service_{r}" for r in regions] + ["service_total"])

    def numbers(report: SimReport) -> list[float]:
        return ([report.inventory_cost, report.unfulfilled_cost,
                 report.order_cost, report.total_cost]
                + [report.service_levels[r] for r in regions]
                + [report.service_level])

    table = np.array([numbers(rep) for rep in reports])
    means = table.mean(axis=0)
    if len(reports) > 1:
        ses = table.std(axis=0, ddof=1) / math.sqrt(len(reports))
    else:
        ses = np.zeros(table.shape[1])

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, rep in enumerate(reports):
            writer.writerow([str(i)] + csv_cells(numbers(rep)))
        writer.writerow(["mean"] + csv_cells(means))
        writer.writerow(["se"] + csv_cells(ses))
