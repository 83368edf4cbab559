"""Food accessibility index: raw components and min-max normalization.

Three raw components are evaluated per region and period:

* affordability: local food cost over average income,
* transportation effort: path-weighted shipment volume times distance,
  over each customer's one link,
* quality: weighted surplus of accessible nutrition over the population
  requirement, where accessible nutrition is regional DC inventory mass
  converted through nutrient content.

Each raw component C is scaled to an index by clamp(C / scale, 0, 1).
The per-region accessibility contribution combines the indices as
``w_a * I_a - w_t * I_t + w_q * I_q``.  The period extraction in
stochastic sums every region's raw transport and quality at once, from
the period's deliveries and nutrient surpluses, and snapshot scales them.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .model import (NetworkDesign, NetworkInstance, NormalizationScales,
                    Region, running_sum)


def affordability(region: Region) -> float:
    """Raw affordability: local food cost relative to average income."""
    if region.average_income <= 0:
        raise DomainError(f"region {region.id}: average income must be positive")
    return region.local_food_cost / region.average_income


def link_effort(instance: NetworkInstance,
                design: NetworkDesign) -> list[float]:
    """Transport effort per shipped kg on each customer's one link, path
    weight times km, in instance.customers() order."""
    return [instance.path_weight(design.customer_dc[c.id], c.id)
            * design.distances[design.customer_dc[c.id]][c.id]
            for c in instance.customers()]


def default_scales(instance: NetworkInstance,
                   design: NetworkDesign) -> NormalizationScales:
    """Scales derived from the instance when the file does not give any.

    * affordability: the largest cost/income ratio over regions, so the
      worst region maps to exactly 1;
    * transportation: the effort if every active link carried its DC's
      full capacity;
    * quality: the weighted nutrition content of the network-wide DC
      capacity, an upper bound on any region's accessible nutrition.
    """
    afford = max(affordability(r) for r in instance.regions)
    # Summed DC by DC in dcs() order, each DC's customers in customers()
    # order, so the sum does not depend on the design's key order.
    efforts: dict[str, list[float]] = {dc.id: [] for dc in instance.dcs()}
    for customer, effort in zip(instance.customers(),
                                link_effort(instance, design)):
        efforts[design.customer_dc[customer.id]].append(effort)
    transport = 0.0
    for dc in instance.dcs():
        for effort in efforts[dc.id]:
            transport += effort * dc.capacity
    total_capacity = running_sum(dc.capacity for dc in instance.dcs())
    quality = running_sum(n.weight * n.per_kg_content
                          for n in instance.nutrients) * total_capacity
    if afford <= 0.0:
        afford = 1.0
    if transport <= 0.0:
        transport = 1.0
    if quality <= 0.0:
        quality = 1.0
    return NormalizationScales(affordability=afford, transportation=transport,
                               quality=quality)


def resolve_scales(instance: NetworkInstance,
                   design: NetworkDesign) -> NormalizationScales:
    """File-supplied scales when present, computed defaults otherwise."""
    if instance.normalization_scales is not None:
        return instance.normalization_scales
    return default_scales(instance, design)


def snapshot(raw: np.ndarray, scales: NormalizationScales) -> np.ndarray:
    """Indices from raw components: raw holds affordability,
    transportation and quality rows, a column per region, and each entry
    C becomes clamp(C / scale, 0, 1) with its row's scale."""
    scale = np.array([[scales.affordability], [scales.transportation],
                      [scales.quality]])
    return np.minimum(np.maximum(raw / scale, 0.0), 1.0)
