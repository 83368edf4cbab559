"""Generate the bundled qatar_beef instance.

Deterministic: rerunning writes byte-identical JSON.  The layout keeps
three warehouses with fixed sites and four customer regions, with the
central region holding most of the customers but the smallest warehouse,
so its service is structurally short.  Three customers carry large
path-weight factors; their delivery break-even points fall inside the
default epsilon grid and give the sweep several distinct regimes.

The assertions at the bottom freeze the properties the test suite
relies on (warehouse linkage, quality-curve breakpoints, break-even
windows).  If you edit any constant, rerun this script and let the
assertions tell you what drifted.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from chainforge.gfa import assign_linkages
from chainforge.model import instance_from_dict
from chainforge.stochastic import quality_curves

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "chainforge",
                   "data", "qatar_beef.json")

SEED = 20240817

WAREHOUSES = [
    ("W1", (50.0, 42.0), 9_000.0),
    ("W2", (44.0, 85.0), 50_000.0),
    ("W3", (39.0, 33.0), 50_000.0),
]
ORDER_UNIT_COST = 3.0
INVENTORY_UNIT_COST = 10.0
UNFULFILLED_UNIT_COST = 5.0
WEIGHTS = {"affordability": 60.0, "transportation": 300.0, "quality": 1.0}

#           id    food cost  income     areas  customers  boxes (x, y)
REGIONS = [
    ("R1", 21.77, 275_626.0, 22, 26, (48.0, 56.0), (36.0, 45.0)),
    ("R2", 21.77, 241_036.0, 5, 5, (43.0, 47.0), (87.0, 92.0)),
    ("R3", 21.77, 241_036.0, 2, 2, (48.0, 51.0), (68.0, 72.0)),
    ("R4", 21.77, 241_036.0, 4, 5, (36.0, 43.0), (32.0, 38.0)),
]

DCS = {
    "R1": [("DC1", (50.5, 38.5), 4_000.0), ("DC2", (53.5, 38.5), 4_000.0),
           ("DC3", (50.5, 42.5), 4_000.0), ("DC4", (53.5, 42.5), 4_000.0)],
    "R2": [("DC5", (45.0, 89.0), 5_000.0)],
    "R3": [("DC6", (49.5, 70.0), 3_000.0)],
    "R4": [("DC7", (38.5, 34.5), 4_000.0), ("DC8", (41.5, 36.5), 4_000.0)],
}

# (q_j, r_j, beta_j): weight, daily per-person requirement met by beef,
# and content per kg of product.
NUTRIENTS = [
    ("Zn", 1.0, 0.24, 22.0),
    ("Ca", 1.0, 24.0, 240.0),
    ("Fe", 1.0, 0.0876, 25.0),
    ("A", 1.0, 48.0, 660.0),
    ("B1", 1.0, 0.024, 1.0),
    ("B2", 1.0, 0.036, 2.0),
    ("B3", 1.0, 0.48, 56.0),
    ("B6", 1.0, 0.012, 5.0),
    ("B9", 1.0, 7.8, 80.0),
    ("B12", 1.0, 0.048, 13.0),
    ("C", 1.0, 4.8, 5.0),
    ("D", 1.0, 1.2, 30.0),
]

DEMAND_MEAN = 560.0
DEMAND_VARIANCE = 50.0
SUPPLY_LOW = 0.8
SUPPLY_HIGH = 0.9
SAFETY_STOCK = 0.4
HORIZON = 5

SCALE_AFFORDABILITY = 1.0e-4
SCALE_TRANSPORTATION = 2.0e6
SCALE_QUALITY = 1.2e8

# Transport effort (factor * distance) targets for the three customers
# whose delivery profitability flips inside the default epsilon grid
# [0.001, 1].  Break-even: epsilon = w_T * effort / (C1_T * (rho - o/sf)).
SPECIAL_EFFORT = {"C27": 350.0, "C32": 1_600.0, "C34": 120.0}

EPSILON_GRID = [0.001 * (1000.0 ** (k / 9.0)) for k in range(10)]


def build() -> dict:
    rng = np.random.default_rng(SEED)
    regions = []
    customer_count = 0
    for rid, food, income, areas, n_customers, (x0, x1), (y0, y1) in REGIONS:
        customers = []
        for _ in range(n_customers):
            customer_count += 1
            x = round(float(rng.uniform(x0, x1)), 3)
            y = round(float(rng.uniform(y0, y1)), 3)
            customers.append({"id": f"C{customer_count}", "location": [x, y]})
        regions.append({
            "id": rid,
            "local_food_cost": food,
            "average_income": income,
            "residential_areas": areas,
            "unfulfilled_unit_cost": UNFULFILLED_UNIT_COST,
            "accessibility_weights": dict(WEIGHTS),
            "dcs": [{"id": d, "location": list(loc), "capacity": cap,
                     "inventory_unit_cost": INVENTORY_UNIT_COST}
                    for d, loc, cap in DCS[rid]],
            "customers": customers,
        })

    data = {
        "warehouses": [{"id": w, "location": list(loc), "capacity": cap,
                        "order_unit_cost": ORDER_UNIT_COST}
                       for w, loc, cap in WAREHOUSES],
        "regions": regions,
        "nutrients": [{"id": n, "weight": q, "min_requirement": r,
                       "per_kg_content": b} for n, q, r, b in NUTRIENTS],
        "stochastic": {
            "demand": {"family": "normal", "mean": DEMAND_MEAN,
                       "variance": DEMAND_VARIANCE},
            "supply_loss": {"family": "uniform", "low": SUPPLY_LOW,
                            "high": SUPPLY_HIGH},
        },
        "safety_stock_fraction": SAFETY_STOCK,
        "horizon": HORIZON,
        "normalization_scales": {
            "affordability": SCALE_AFFORDABILITY,
            "transportation": SCALE_TRANSPORTATION,
            "quality": SCALE_QUALITY,
        },
    }

    # Path-weight factors: chosen so factor * distance hits the target
    # effort exactly for the three special customers.
    instance = instance_from_dict(data)
    design = assign_linkages(instance,
                             {dc.id: dc.location for dc in instance.dcs()})
    path_weights = []
    for cust, effort in sorted(SPECIAL_EFFORT.items()):
        dc_id = design.customer_dc[cust]
        distance = design.distances[dc_id][cust]
        path_weights.append({"dc": dc_id, "customer": cust,
                             "factor": round(effort / distance, 6)})
    data["path_weights"] = path_weights
    return data


def verify(data: dict) -> None:
    instance = instance_from_dict(data)
    design = assign_linkages(instance,
                             {dc.id: dc.location for dc in instance.dcs()})

    wanted_wh = {"DC1": "W1", "DC2": "W1", "DC3": "W1", "DC4": "W1",
                 "DC5": "W2", "DC6": "W2", "DC7": "W3", "DC8": "W3"}
    assert design.dc_warehouse == wanted_wh, design.dc_warehouse

    # W1 cannot cover region 1: the dense region stays short of supply.
    r1_demand = 26 * DEMAND_MEAN
    assert WAREHOUSES[0][2] < r1_demand * SUPPLY_LOW

    # Each region's quality curve has a breakpoint at every nutrient
    # threshold strictly inside its safety-stock band.  R4's vitamin D
    # threshold equals its storage, so it adds none.
    curves = quality_curves(instance, SAFETY_STOCK)
    breakpoints = {region.id: curve.points.size - 2
                   for region, curve in zip(instance.regions, curves)}
    assert breakpoints == {"R1": 2, "R2": 3, "R3": 2, "R4": 2}, breakpoints

    # Delivery break-even windows: the three special links flip strictly
    # between grid points; every other link stays below the grid.
    grid = EPSILON_GRID
    margins = (SUPPLY_HIGH, SUPPLY_LOW)
    gaps = {"C27": (grid[4], grid[5]), "C32": (grid[6], grid[7]),
            "C34": (grid[3], grid[4])}
    w_t = WEIGHTS["transportation"]
    for region in instance.regions:
        rho = region.unfulfilled_unit_cost
        for customer in region.customers:
            dc_id = design.customer_dc[customer.id]
            effort = (instance.path_weight(dc_id, customer.id)
                      * design.distances[dc_id][customer.id])
            lo, hi = (w_t * effort / (SCALE_TRANSPORTATION
                                      * (rho - ORDER_UNIT_COST / sf))
                      for sf in margins)
            if customer.id in gaps:
                g0, g1 = gaps[customer.id]
                assert g0 < lo and hi < g1, (customer.id, lo, hi, g0, g1)
            else:
                assert hi < grid[0], (customer.id, hi)

    assert sum(dc.capacity for dc in instance.dcs()) == 32_000.0
    total_beta = sum(n.per_kg_content for n in instance.nutrients)
    assert total_beta == 1_139.0
    # The quality scale clears the largest possible raw surplus, so the
    # normalized index never saturates, and the per-unit surplus reward
    # stays far above the solver's reduced-cost tolerance.
    assert SCALE_QUALITY > total_beta * 32_000.0
    assert 1.0 / SCALE_QUALITY > 5e-9
    print(f"fixture verified: {len(list(instance.customers()))} customers, "
          f"{len(list(instance.dcs()))} DCs, "
          f"{sum(breakpoints.values())} quality breakpoints")


def main() -> None:
    data = build()
    verify(data)
    path = os.path.normpath(OUT)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
