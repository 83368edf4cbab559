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
``w_a * I_a - w_t * I_t + w_q * I_q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import ConfigError, DomainError
from .model import (NetworkDesign, NetworkInstance, NormalizationScales,
                    Nutrient, Region)


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


def transportation_effort(effort: Sequence[float],
                          shipments: Sequence[float]) -> float:
    """Raw transport effort of one region: each customer's link effort
    (see link_effort) times the kg shipped to it, summed one customer at
    a time in the region's order."""
    total = 0.0
    for unit, qty in zip(effort, shipments):
        if qty < 0.0:
            raise DomainError(f"negative shipment {qty:g}")
        total += unit * qty
    return total


def accessible_nutrition(region_inventory: float,
                         nutrients: tuple[Nutrient, ...]) -> dict[str, float]:
    """Nutrition made accessible by the region's total DC inventory (kg)."""
    if region_inventory < 0:
        raise DomainError("region inventory must be >= 0")
    return {n.id: region_inventory * n.per_kg_content for n in nutrients}


def quality_index(region: Region, nutrition: Mapping[str, float],
                  nutrients: tuple[Nutrient, ...]) -> float:
    """Raw quality: weighted surplus of nutrition over the requirement.

    The requirement per nutrient is min_requirement times the region
    population; shortfalls contribute zero (the surplus is clamped below
    at zero per nutrient).
    """
    total = 0.0
    population = region.population
    for n in nutrients:
        surplus = nutrition[n.id] - n.min_requirement * population
        if surplus > 0.0:
            total += n.weight * surplus
    return total


def normalize(raw: float, scale: float) -> float:
    """Min-max scale a raw component into [0, 1]."""
    if not (scale > 0.0) or scale != scale or scale == float("inf"):
        raise ConfigError(f"normalization scale must be positive and finite, got {scale}")
    value = raw / scale
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


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
    effort = dict(zip((c.id for c in instance.customers()),
                      link_effort(instance, design)))
    transport = 0.0
    for region in instance.regions:
        for dc in region.dcs:
            for customer_id in design.customers_of(dc.id):
                transport += effort[customer_id] * dc.capacity
    total_capacity = sum(dc.capacity for dc in instance.dcs())
    quality = sum(n.weight * n.per_kg_content for n in instance.nutrients) * total_capacity
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


@dataclass(frozen=True)
class AccessibilitySnapshot:
    """Evaluated index state for one region in one period."""

    region_id: str
    period: int
    raw_transportation: float
    raw_quality: float
    affordability: float
    transportation: float
    quality: float

    def contribution(self, region: Region) -> float:
        """Weighted accessibility contribution of this region-period."""
        w = region.weights
        return (w.affordability * self.affordability
                - w.transportation * self.transportation
                + w.quality * self.quality)


def snapshot(region: Region, period: int, instance: NetworkInstance,
             region_inventory: float, effort: Sequence[float],
             shipments: Sequence[float],
             scales: NormalizationScales) -> AccessibilitySnapshot:
    """Evaluate all three indices for one region-period state; effort
    and shipments hold one entry per customer of the region."""
    raw_a = affordability(region)
    raw_t = transportation_effort(effort, shipments)
    nutrition = accessible_nutrition(region_inventory, instance.nutrients)
    raw_q = quality_index(region, nutrition, instance.nutrients)
    return AccessibilitySnapshot(
        region_id=region.id, period=period,
        raw_transportation=raw_t, raw_quality=raw_q,
        affordability=normalize(raw_a, scales.affordability),
        transportation=normalize(raw_t, scales.transportation),
        quality=normalize(raw_q, scales.quality),
    )
