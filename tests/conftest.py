"""Shared fixtures: a small hand-checkable network and the packaged one."""

import copy
import math
import os
from collections import deque
from dataclasses import dataclass, fields, is_dataclass

import numpy as np
import pytest

import chainforge
from chainforge.gfa import assign_linkages
from chainforge.model import instance_from_dict, load_instance, running_sum

QATAR_PATH = os.path.join(os.path.dirname(chainforge.__file__),
                          "data", "qatar_beef.json")

# Two regions on a flat grid.  R1 has two DCs and three customers, R2 is
# a single-DC satellite served by the second warehouse.  The numbers are
# small enough to check balance and index arithmetic by hand: D1 serves
# C1 and C2 (mean demand 80), D2 serves C3 (40), D3 serves C4 and C5 (65).
TINY = {
    "horizon": 3,
    "safety_stock_fraction": 0.2,
    "persons_per_area": 100,
    "stochastic": {
        "demand": {"family": "normal", "mean": 40.0, "variance": 25.0},
        "supply_loss": {"family": "uniform", "low": 0.8, "high": 0.9},
    },
    "warehouses": [
        {"id": "W1", "location": [0.0, 0.0], "capacity": 500.0,
         "order_unit_cost": 3.0},
        {"id": "W2", "location": [30.0, 0.0], "capacity": 400.0,
         "order_unit_cost": 3.0},
    ],
    "regions": [
        {
            "id": "R1", "local_food_cost": 20.0, "average_income": 2000.0,
            "residential_areas": 4, "unfulfilled_unit_cost": 5.0,
            "accessibility_weights": {"affordability": 1.0,
                                      "transportation": 1.0,
                                      "quality": 1.0},
            "dcs": [
                {"id": "D1", "location": [2.0, 1.0], "capacity": 150.0,
                 "inventory_unit_cost": 10.0},
                {"id": "D2", "location": [8.0, 1.0], "capacity": 120.0,
                 "inventory_unit_cost": 10.0},
            ],
            "customers": [
                {"id": "C1", "location": [1.0, 2.0]},
                {"id": "C2", "location": [3.0, 0.0]},
                {"id": "C3", "location": [9.0, 2.0]},
            ],
        },
        {
            "id": "R2", "local_food_cost": 25.0, "average_income": 1800.0,
            "residential_areas": 2, "unfulfilled_unit_cost": 6.0,
            "dcs": [
                {"id": "D3", "location": [31.0, 2.0], "capacity": 100.0,
                 "inventory_unit_cost": 8.0},
            ],
            "customers": [
                {"id": "C4", "location": [32.0, 1.0]},
                {"id": "C5", "location": [30.0, 3.0],
                 "demand": {"family": "normal", "mean": 25.0, "std": 4.0}},
            ],
        },
    ],
    "nutrients": [
        {"id": "protein", "weight": 2.0, "min_requirement": 0.5,
         "per_kg_content": 0.2},
        {"id": "iron", "weight": 1.0, "min_requirement": 0.001,
         "per_kg_content": 0.004},
    ],
}


def tiny_dict():
    return copy.deepcopy(TINY)


def branching_tiny_dict():
    """The tiny network with W1 cut to 160 kg a period and a quality
    scale so small that the quality reward outweighs every cost on the
    usual epsilon grids.  R1 then wants its stock above what W1 can
    ship, and the root relaxation of its piecewise-linear quality value
    takes part of the steeper piece: the period models branch."""
    data = tiny_dict()
    data["warehouses"][0]["capacity"] = 160.0
    data["normalization_scales"] = {"affordability": 0.02,
                                    "transportation": 1000.0,
                                    "quality": 1e-4}
    return data


@pytest.fixture
def tiny():
    return instance_from_dict(tiny_dict())


@pytest.fixture
def tiny_design(tiny):
    return assign_linkages(tiny, {dc.id: dc.location for dc in tiny.dcs()})


@pytest.fixture(scope="session")
def qatar():
    return load_instance(QATAR_PATH)


@pytest.fixture(scope="session")
def qatar_design():
    instance = load_instance(QATAR_PATH)
    return assign_linkages(instance,
                           {dc.id: dc.location for dc in instance.dcs()})


# A scalar reference for the accessibility index Z1, in plain Python
# floats, one region, customer and nutrient at a time in instance order.

def index(raw, scale):
    """A raw component C scaled to its index, clamp(C / scale, 0, 1)."""
    return min(max(raw / scale, 0.0), 1.0)


def raw_quality(instance, region, stock):
    """A region's raw quality at total stock S: weight * max(0, content
    * S - min_requirement * population), summed over the nutrients."""
    total = 0.0
    for nt in instance.nutrients:
        total += nt.weight * max(0.0, nt.per_kg_content * stock
                                 - nt.min_requirement * region.population)
    return total


def reference_z1(instance, design, scales, decision):
    """A PeriodDecision's accessibility from its deliveries and closing
    stock: each region's w_a * I(cost / income) - w_t * I(sum of path
    weight * km * delivery over its customers) + w_q * I(raw quality at
    its total stock, clamped at zero), summed over the regions."""
    delivered = dict(zip((c.id for c in instance.customers()),
                         decision.deliveries.tolist()))
    closing = dict(zip((dc.id for dc in instance.dcs()),
                       decision.inventory.tolist()))
    contributions = []
    for region in instance.regions:
        stock = 0.0
        for dc in region.dcs:
            stock += closing[dc.id]
        transport = 0.0
        for customer in region.customers:
            dc = design.customer_dc[customer.id]
            transport += (instance.path_weight(dc, customer.id)
                          * design.distances[dc][customer.id]
                          * delivered[customer.id])
        quality = raw_quality(instance, region, max(stock, 0.0))
        w = region.weights
        contributions.append(
            w.affordability * index(region.local_food_cost
                                    / region.average_income,
                                    scales.affordability)
            - w.transportation * index(transport, scales.transportation)
            + w.quality * index(quality, scales.quality))
    return running_sum(contributions)


def reference_weiszfeld(points, weights, initial=None):
    """gfa.weiszfeld_single's loop, which records the weighted effort at
    the start and after every update: (the last iterate, the efforts).
    It does the same float operations in the same order, so its last
    iterate is weiszfeld_single's location bit for bit.  It skips the
    input checks."""
    from chainforge.gfa import _MAX_ITERATIONS, _SINGULARITY_EPS, _TOLERANCE

    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    ws = np.array(weights, dtype=float)
    if initial is None:
        total_weight = float(running_sum(weights))
        px = float(np.dot(ws, xs) / total_weight)
        py = float(np.dot(ws, ys) / total_weight)
    else:
        px, py = float(initial[0]), float(initial[1])
    efforts = [float(np.dot(ws, np.hypot(xs - px, ys - py)))]
    for _ in range(_MAX_ITERATIONS):
        pull = ws / np.maximum(np.hypot(xs - px, ys - py), _SINGULARITY_EPS)
        denom = float(pull.sum())
        nx = float(np.dot(pull, xs) / denom)
        ny = float(np.dot(pull, ys) / denom)
        step = math.hypot(nx - px, ny - py)
        px, py = nx, ny
        efforts.append(float(np.dot(ws, np.hypot(xs - px, ys - py))))
        if step <= _TOLERANCE:
            break
    return (px, py), efforts


def same_log(a, b):
    """Whether two EventLogs hold the same events: equal ids and equal
    columns."""
    return (a.dc_ids == b.dc_ids and a.customer_ids == b.customer_ids
            and all(np.array_equal(x, y)
                    for x, y in zip(a.columns, b.columns)))


def same_record(a, b):
    """Whether two of stochastic's records (a Scenario, PeriodDecision or
    ReplicationResult) hold the same values: the same type and every
    field equal but compare=False ones, with arrays compared by value
    and records and lists of records by this rule."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            same_record(getattr(a, f.name), getattr(b, f.name))
            for f in fields(a) if f.compare)
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(map(same_record, a, b)))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def replayed_inventory_cost(instance, plan, events):
    """The holding cost a replay books, re-derived from its event log.

    Replays the events in order from plan.initial_inventory: a receive
    adds its quantity to its DC's stock and a ship takes it away, and no
    ship may take more than the DC holds.  At each boundary k = 1 ..
    horizon, the stock after every event before time k is booked at each
    DC's holding cost, DCs in instance order, as simulate books it.
    """
    dcs = instance.dcs()
    stock = {dc.id: float(plan.initial_inventory[dc.id]) for dc in dcs}
    cost = 0.0
    boundary = 1

    def book_until(time):
        nonlocal cost, boundary
        while boundary <= instance.horizon and boundary <= time:
            for dc in dcs:
                cost += dc.inventory_unit_cost * stock[dc.id]
            boundary += 1

    for event in events:
        book_until(event.time)
        if event.kind == "receive":
            stock[event.dc] += event.quantity
        elif event.kind == "ship":
            assert stock[event.dc] >= event.quantity, event
            stock[event.dc] -= event.quantity
    book_until(math.inf)
    return cost


# A scalar reference for the discrete-event replay: the event loop that
# desim.simulate replaced, one order object and one SimEvent at a time.
# It skips simulate's input checks and returns a SimReport whose events
# are a plain list of SimEvent.

@dataclass(frozen=True)
class _Order:
    time: float
    customer: str
    dc: str
    region: str
    quantity: float


def reference_simulate(instance, design, plan, config):
    from chainforge.desim import SimEvent, SimReport, service_level
    from chainforge.stochastic import (linked_retention, replication_seed,
                                       sample_scenario)

    horizon = int(instance.horizon)
    dcs = list(instance.dcs())
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

    orders = []
    for customer, amounts, within in zip(instance.customers(),
                                         scenario.demand.tolist(), offsets):
        dc_id = design.customer_dc[customer.id]
        for p, (amount, u) in enumerate(zip(amounts, within)):
            orders.append(_Order(p + u, customer.id, dc_id,
                                 customer.region_id, amount))
    orders.sort(key=lambda o: o.time)

    stock = {h: float(plan.initial_inventory[h]) for h in capacity}
    waiting = {h: deque() for h in stock}
    events = []

    inventory_cost = 0.0
    unfulfilled_cost = 0.0
    order_cost = 0.0
    region_volume = {r.id: 0.0 for r in instance.regions}
    region_served = {r.id: 0.0 for r in instance.regions}
    dropped = expired = 0

    def ship(order, at, period):
        stock[order.dc] -= order.quantity
        region_served[order.region] += order.quantity
        events.append(SimEvent(at, "ship", period, order.dc,
                               order.customer, order.quantity))

    def drain(dc_id, at, period):
        queue = waiting[dc_id]
        while queue and stock[dc_id] >= queue[0].quantity:
            ship(queue.popleft(), at, period)

    def boundary(b):
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
            total = running_sum(q for _, q in requests)
            scale = (1.0 if total <= warehouse.capacity
                     else warehouse.capacity / total)
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
    overall = service_level(running_sum(region_served.values()),
                            running_sum(region_volume.values()))
    return SimReport(
        inventory_cost=inventory_cost,
        unfulfilled_cost=unfulfilled_cost,
        order_cost=order_cost,
        service_levels=levels,
        service_level=overall,
        orders_placed=len(orders),
        orders_dropped=dropped,
        orders_expired=expired,
        events=events,
    )
