"""Epsilon sweep over the cost weight and Pareto front extraction.

Each grid value of epsilon prices cost against accessibility in the
period models, yielding one (Z1, Z2) estimate.  The front keeps the
solutions where accessibility cannot improve without cost worsening
(maximize Z1, minimize Z2).  Dominance is decided on the point
estimates; standard errors ride along so fragile dominance is visible
to the caller.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ChainforgeError, DomainError, ParseError
from .model import NetworkDesign, NetworkInstance, design_mismatches
from .stochastic import (EstimateResult, StochasticConfig, aggregate,
                         map_replications, replication_seeds)

CSV_COLUMNS = ("epsilon", "Z1", "Z1_se", "Z2", "Z2_se",
               "inventory_cost", "unfulfilled_cost", "order_cost")


@dataclass(frozen=True)
class SweepFailure:
    """A grid point whose estimation raised; the sweep carries on."""

    epsilon: float
    error: str


@dataclass
class SolutionPool:
    """Sweep output: solutions in grid order plus any per-point failures."""

    solutions: list[EstimateResult]
    failures: list[SweepFailure]


def epsilon_grid(low: float, high: float, steps: int) -> tuple[float, ...]:
    """Geometrically spaced epsilon values from low to high inclusive."""
    if steps < 1:
        raise DomainError("epsilon grid needs at least one point")
    if low <= 0:
        raise DomainError("epsilon grid must start above zero")
    if high < low:
        raise DomainError("epsilon grid must not decrease")
    # Also catches a NaN or infinite bound, which the comparisons pass.
    if not math.isfinite(high / low):
        raise DomainError("epsilon grid bounds and their ratio must be finite")
    if steps == 1:
        return (low,)
    ratio = (high / low) ** (1.0 / (steps - 1))
    values = [low * ratio ** k for k in range(steps)]
    values[-1] = high
    return tuple(values)


def sweep(instance: NetworkInstance, design: NetworkDesign,
          grid: Sequence[float], config: StochasticConfig) -> SolutionPool:
    """Estimate (Z1, Z2) for every epsilon on the grid.

    All grid points share config.master_seed, so every epsilon sees the
    same demand and supply draws and the comparison between solutions is
    free of sampling noise.  One work item is one replication seed,
    walked over the whole grid in grid order (stochastic.summarize_seed),
    so its scenario is sampled once and each replication warm-starts from
    the seed's previous grid point; config.jobs workers run the items.
    Each grid point is then aggregated in seed order, so the estimates do
    not depend on jobs.  A grid point whose replication raised is
    recorded with the first such error in seed order and the remaining
    points still run.  A design that does not fit the instance is
    rejected before any replication runs.
    """
    if not grid:
        raise DomainError("epsilon grid is empty")
    for eps in grid:
        if not (math.isfinite(eps) and eps >= 0):
            raise DomainError(f"epsilon must be finite and >= 0, got {eps}")
    problems = design_mismatches(instance, design)
    if problems:
        raise DomainError("design does not fit the instance: "
                          + "; ".join(problems))

    chains = map_replications(instance, design, config, grid,
                              replication_seeds(config))
    solutions: list[EstimateResult] = []
    failures: list[SweepFailure] = []
    for k, eps in enumerate(grid):
        point = [chain[k] for chain in chains]
        errors = [o for o in point if isinstance(o, ChainforgeError)]
        if errors:
            failures.append(SweepFailure(epsilon=eps, error=str(errors[0])))
        else:
            solutions.append(aggregate(eps, point))
    return SolutionPool(solutions=solutions, failures=failures)


def extract_front(solutions: Iterable[EstimateResult]) -> list[EstimateResult]:
    """Non-dominated subset, sorted by cost ascending.

    A solution survives iff no other has Z1 >= it and Z2 <= it with at
    least one strict.  Exact ties on both coordinates keep only the
    lowest-epsilon representative.
    """
    pool = list(solutions)
    if not pool:
        raise DomainError("cannot extract a front from an empty pool")
    # In this order a solution is dominated, or an exact tie of a kept
    # one, iff an earlier solution has at least its Z1.
    front: list[EstimateResult] = []
    best_z1 = -math.inf
    for s in sorted(pool, key=lambda s: (s.z2, -s.z1, s.epsilon)):
        if s.z1 > best_z1:
            front.append(s)
            best_z1 = s.z1
    return front


def csv_cells(values: Iterable[float]) -> list[str]:
    """CSV cells for numbers, nine significant digits; every CSV the
    package writes formats its numbers here."""
    return [format(v, ".9g") for v in values]


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence[str]]) -> None:
    """A header line and rows of cells; every CSV the package writes
    goes through here."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _row(s: EstimateResult) -> list[str]:
    """The CSV_COLUMNS cells of one solution."""
    return csv_cells((s.epsilon, s.z1, s.z1_se, s.z2, s.z2_se,
                      s.inventory_cost, s.unfulfilled_cost, s.order_cost))


def write_solutions_csv(path: str, solutions: Sequence[EstimateResult]) -> None:
    write_csv(path, CSV_COLUMNS, map(_row, solutions))


def read_solutions_csv(path: str) -> list[EstimateResult]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise ParseError(f"{path}: expected header {','.join(CSV_COLUMNS)}")
    solutions = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(CSV_COLUMNS):
            raise ParseError(f"{path}:{lineno}: expected "
                             f"{len(CSV_COLUMNS)} fields, got {len(row)}")
        try:
            values = [float(cell) for cell in row]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise ParseError(f"{path}:{lineno}: values must be finite")
        solutions.append(EstimateResult(*values))
    return solutions


def write_front_csv(path: str, solutions: Sequence[EstimateResult]) -> None:
    """All solutions with a 0/1 front-membership column appended."""
    front = set(map(id, extract_front(solutions)))
    write_csv(path, CSV_COLUMNS + ("on_front",),
              (_row(s) + ["1" if id(s) in front else "0"] for s in solutions))


_SVG_WIDTH = 640
_SVG_HEIGHT = 480
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 24
_MARGIN_TOP = 32
_MARGIN_BOTTOM = 56


def _ticks(low: float, high: float, target: int = 5) -> list[float]:
    if high <= low:
        return [low]
    raw = (high - low) / target
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * power
        if raw <= step:
            break
    first = math.ceil(low / step) * step
    # The count is fixed first: below half an ulp of t, t += step stops
    # moving t.
    count = max(0, math.floor((high - first) / step + 1e-9) + 1)
    ticks = []
    t = first
    for _ in range(count):
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _axis_range(low: float, high: float) -> tuple[float, float]:
    """low and high, widened by 1 each way when the range is too narrow
    for distinct ticks: a tick step of a fifth of it would fall within
    a few ulps of the values."""
    if high - low <= 16 * math.ulp(max(abs(low), abs(high))):
        return low - 1.0, high + 1.0
    return low, high


def _tick_labels(ticks: list[float]) -> list[str]:
    """The ticks' labels, with the fewest significant digits, 6 or more,
    that tell distinct ticks apart; 17 tell any two floats apart."""
    digits = 6
    while len({format(t, f".{digits}g") for t in ticks}) < len(set(ticks)):
        digits += 1
    return [format(t, f".{digits}g") for t in ticks]


def render_front_svg(path: str, solutions: Sequence[EstimateResult]) -> None:
    """Scatter of every solution with the front highlighted.

    Deterministic output: same solutions give byte-identical SVG.  Front
    members are filled and joined by a dashed polyline in cost order;
    dominated solutions are hollow.
    """
    if not solutions:
        raise DomainError("nothing to plot")
    front = extract_front(solutions)
    member = set(map(id, front))

    z2s = [s.z2 for s in solutions]
    z1s = [s.z1 for s in solutions]
    x_lo, x_hi = _axis_range(min(z2s), max(z2s))
    y_lo, y_hi = _axis_range(min(z1s), max(z1s))
    x_pad = 0.05 * (x_hi - x_lo)
    y_pad = 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(z2: float) -> float:
        return _MARGIN_LEFT + (z2 - x_lo) / (x_hi - x_lo) * plot_w

    def py(z1: float) -> float:
        return _MARGIN_TOP + (y_hi - z1) / (y_hi - y_lo) * plot_h

    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">')
    parts.append(f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
                 f'fill="white"/>')
    parts.append(
        f'<text x="{_SVG_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">'
        f'Accessibility vs total cost</text>')

    axis_y = _SVG_HEIGHT - _MARGIN_BOTTOM
    parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" '
                 f'x2="{_SVG_WIDTH - _MARGIN_RIGHT}" y2="{axis_y}" '
                 f'stroke="black"/>')
    parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" '
                 f'x2="{_MARGIN_LEFT}" y2="{axis_y}" stroke="black"/>')
    x_ticks = _ticks(x_lo, x_hi)
    for t, label in zip(x_ticks, _tick_labels(x_ticks)):
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{axis_y}" x2="{x:.2f}" '
                     f'y2="{axis_y + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{axis_y + 20}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    y_ticks = _ticks(y_lo, y_hi)
    for t, label in zip(y_ticks, _tick_labels(y_ticks)):
        y = py(t)
        parts.append(f'<line x1="{_MARGIN_LEFT - 5}" y1="{y:.2f}" '
                     f'x2="{_MARGIN_LEFT}" y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.2f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" '
        f'y="{_SVG_HEIGHT - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">Z2 (total cost)</text>')
    parts.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.1f}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.1f})">'
        f'Z1 (accessibility)</text>')

    if len(front) > 1:
        points = " ".join(f"{px(s.z2):.2f},{py(s.z1):.2f}" for s in front)
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="#c0392b" stroke-width="1.5" '
                     f'stroke-dasharray="6 4"/>')
    for s in solutions:
        if id(s) in member:
            continue
        parts.append(f'<circle cx="{px(s.z2):.2f}" cy="{py(s.z1):.2f}" '
                     f'r="4" fill="none" stroke="#7f8c8d" '
                     f'stroke-width="1.2"/>')
    for s in front:
        parts.append(f'<circle cx="{px(s.z2):.2f}" cy="{py(s.z1):.2f}" '
                     f'r="4.5" fill="#c0392b"/>')
    parts.append("</svg>")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
