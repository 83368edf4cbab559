"""Seeded network generator for the ``replay-large`` workload.

Writes an instance JSON and an operational plan for it.  The same seed
gives byte-identical files.  Run from the repository root:

    PYTHONPATH=src python3 bench/gen_network.py --seed 3 --instance net.json --plan plan.json

Sizes, and why each was chosen:

* 6 regions x 250 customers (1,500 customers), 30 periods: 45,000
  customer orders per simulated run, about 90k events with
  ``--backlog drop`` and 135k with ``--backlog wait``, so ``simulate``
  holds about three quarters of a ``validate`` process and the fixed
  costs (interpreter start-up, instance parsing, the 1.3 MB design
  file) stay a minor share.
* 4 DCs per region (24 DCs): enough queues that the per-DC wait and
  drain paths run many times per period, and few enough that ``gfa``
  placement (location-allocation with restarts) stays a set-up cost
  under a second.
* 4 warehouses on a line across the middle of the map: each serves the
  DCs nearest to it, so the warehouse-capacity scaling of refills runs
  on every review.
* Warehouse capacity is ``SUPPLY_SHARE`` of the mean demand of the DCs
  it would serve if linkage were even.  With supply retention of 0.8 to
  0.9 this leaves the network short, so the service level lands mid
  range (about 0.72): both the ship path and the queue (or drop) path
  carry work.
* DC capacity holds about 1.5 periods of the mean demand routed to a DC
  with even assignment, so most DCs fall below the reorder point at
  every review and ask for a refill.

The plan carries the instance's safety stock and opens every DC at its
safety level, like the planner's default; its objective estimates are
zero, because no optimize stage runs for this workload.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

REGIONS = 6
CUSTOMERS_PER_REGION = 250
DCS_PER_REGION = 4
WAREHOUSES = 4
HORIZON = 30

REGION_SIDE_KM = 100.0
DEMAND_MEAN = 100.0
DEMAND_VARIANCE = 900.0
SUPPLY_LOW = 0.8
SUPPLY_HIGH = 0.9
SAFETY_STOCK = 0.4
DC_PERIODS_OF_DEMAND = 1.5
SUPPLY_SHARE = 0.85

NUTRIENTS = [("Zn", 1.0, 0.24, 22.0), ("Fe", 1.0, 0.0876, 25.0),
             ("A", 1.0, 48.0, 660.0), ("B12", 1.0, 0.048, 13.0)]


def generate(seed: int) -> dict:
    """Instance document for ``seed``."""
    rng = np.random.default_rng(seed)
    columns = (REGIONS + 1) // 2
    dc_capacity = round(DC_PERIODS_OF_DEMAND * DEMAND_MEAN
                        * CUSTOMERS_PER_REGION / DCS_PER_REGION, 1)
    total_demand = DEMAND_MEAN * CUSTOMERS_PER_REGION * REGIONS
    warehouse_capacity = round(SUPPLY_SHARE * total_demand / WAREHOUSES, 1)

    region_docs = []
    for r in range(REGIONS):
        x0 = (r % columns) * REGION_SIDE_KM
        y0 = (r // columns) * REGION_SIDE_KM
        # Declared DC sites sit on a grid inside the region; gfa refines them.
        side = int(np.ceil(np.sqrt(DCS_PER_REGION)))
        dcs = []
        for k in range(DCS_PER_REGION):
            gx = (k % side + 0.5) / side
            gy = (k // side + 0.5) / side
            dcs.append({
                "id": f"R{r + 1}D{k + 1}",
                "location": [x0 + gx * REGION_SIDE_KM, y0 + gy * REGION_SIDE_KM],
                "capacity": dc_capacity,
                "inventory_unit_cost": 1.0,
            })
        customers = []
        for c in range(CUSTOMERS_PER_REGION):
            x, y = rng.uniform(0.0, REGION_SIDE_KM, size=2)
            customers.append({"id": f"R{r + 1}C{c + 1}",
                              "location": [round(x0 + float(x), 3),
                                           round(y0 + float(y), 3)]})
        region_docs.append({
            "id": f"R{r + 1}",
            "local_food_cost": round(float(rng.uniform(18.0, 26.0)), 2),
            "average_income": round(float(rng.uniform(200_000.0, 300_000.0)), 0),
            "residential_areas": int(rng.integers(10, 40)),
            "unfulfilled_unit_cost": 5.0,
            "dcs": dcs,
            "customers": customers,
        })

    width = columns * REGION_SIDE_KM
    height = 2 * REGION_SIDE_KM
    warehouse_docs = [
        {"id": f"W{w + 1}",
         "location": [round((w + 0.5) * width / WAREHOUSES, 3), height / 2],
         "capacity": warehouse_capacity, "order_unit_cost": 3.0}
        for w in range(WAREHOUSES)]

    return {
        "horizon": HORIZON,
        "safety_stock_fraction": SAFETY_STOCK,
        "stochastic": {
            "demand": {"family": "normal", "mean": DEMAND_MEAN,
                       "variance": DEMAND_VARIANCE},
            "supply_loss": {"family": "uniform", "low": SUPPLY_LOW,
                            "high": SUPPLY_HIGH},
        },
        "warehouses": warehouse_docs,
        "regions": region_docs,
        "nutrients": [{"id": n, "weight": q, "min_requirement": r,
                       "per_kg_content": b} for n, q, r, b in NUTRIENTS],
    }


def dumps(document: dict) -> str:
    """Canonical JSON text, so equal documents give equal bytes."""
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def write(seed: int, instance_path: str, plan_path: str) -> None:
    """Write the instance and a plan; both pass the package's loaders."""
    from chainforge.model import load_instance
    from chainforge.stochastic import (OperationalPlan,
                                       default_initial_inventory, save_plan)

    with open(instance_path, "w", encoding="utf-8") as fh:
        fh.write(dumps(generate(seed)))
    instance = load_instance(instance_path)
    v = instance.safety_stock_fraction
    save_plan(OperationalPlan(
        epsilon=0.0, safety_stock=v,
        initial_inventory=default_initial_inventory(instance, v),
        z1=0.0, z1_se=0.0, z2=0.0, z2_se=0.0, inventory_cost=0.0,
        unfulfilled_cost=0.0, order_cost=0.0, master_seed=seed,
        replications=0), plan_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--instance", required=True, help="instance JSON to write")
    parser.add_argument("--plan", required=True, help="plan JSON to write")
    args = parser.parse_args(argv)
    write(args.seed, args.instance, args.plan)
    return 0


if __name__ == "__main__":
    sys.exit(main())
