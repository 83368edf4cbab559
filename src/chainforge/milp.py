"""Self-contained linear and mixed-binary optimizer.

The solver is deliberately small and dependency-free: a dense-tableau
primal simplex with native variable bounds (nonbasic variables may sit at
either bound, so capacity-style upper bounds never become extra rows),
two phases when a starting basis is not obvious, and a best-first branch
and bound over binary variables on top.

Only the root relaxation is solved from scratch.  Every branch-and-bound
child, and the rounding heuristic, starts from a copy of its parent's
final tableau with the branched binaries fixed.  Fixing a bound keeps
the parent basis dual feasible but can make it primal infeasible, so a
bounded-variable dual simplex restores feasibility, usually in a few
pivots; an empty dual ratio test proves the child infeasible without a
phase 1.

Conventions:

* the objective sense is always maximize;
* every variable needs a finite lower bound (flows, inventories, and
  indicator variables all have one naturally);
* binary variables are continuous [0, 1] columns that branch and bound
  drives to integrality within INTEGRALITY_TOL.

Anti-cycling: the entering rule is steepest reduced cost; when the
objective stalls for as many iterations as there are rows, pivoting
falls back to Bland's smallest-index rule until progress resumes.  The
dual simplex falls back to the dual Bland rule the same way.
"""

from __future__ import annotations

import copy
import heapq
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .errors import NumericalError, ValidationError

FEASIBILITY_TOL = 1e-7
INTEGRALITY_TOL = 1e-6
_RC_TOL = 1e-9          # reduced cost significance
_PIVOT_TOL = 1e-9       # ratio-test denominator cutoff
_FIXED_TOL = 1e-12      # span below which a variable cannot move
_PRUNE_TOL = 1e-9       # branch-and-bound incumbent margin


class Status(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NODE_LIMIT = "node_limit"


@dataclass
class SolveResult:
    status: Status
    objective: float
    values: np.ndarray | None
    iterations: int
    nodes: int = 0
    limit_hit: bool = False

    def value(self, index: int) -> float:
        if self.values is None:
            raise ValueError("no solution available")
        return float(self.values[index])


class LinearModel:
    """A maximize-objective model built incrementally.

    Variables are referenced by the integer index add_variable returns.
    Constraints take a sparse mapping of variable index to coefficient.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.variable_names: list[str] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.objective: list[float] = []
        self.is_binary: list[bool] = []
        self.rows: list[dict[int, float]] = []
        self.relations: list[str] = []
        self.rhs: list[float] = []
        self.row_names: list[str] = []
        self.objective_offset: float = 0.0

    @property
    def num_variables(self) -> int:
        return len(self.lower)

    @property
    def num_constraints(self) -> int:
        return len(self.rows)

    def add_variable(self, name: str, lb: float = 0.0, ub: float = math.inf,
                     *, objective: float = 0.0, binary: bool = False) -> int:
        if binary:
            lb = max(lb, 0.0)
            ub = min(ub, 1.0)
        self.variable_names.append(name)
        self.lower.append(float(lb))
        self.upper.append(float(ub))
        self.objective.append(float(objective))
        self.is_binary.append(binary)
        return len(self.lower) - 1

    def add_constraint(self, coeffs: Mapping[int, float], relation: str,
                       rhs: float, name: str = "") -> int:
        if relation not in ("<=", "=", ">="):
            raise ValidationError(f"unknown relation {relation!r}")
        row = {int(j): float(a) for j, a in coeffs.items() if a != 0.0}
        self.rows.append(row)
        self.relations.append(relation)
        self.rhs.append(float(rhs))
        self.row_names.append(name)
        return len(self.rows) - 1

    def validate(self) -> None:
        n = self.num_variables
        for j in range(n):
            name = self.variable_names[j]
            lb, ub = self.lower[j], self.upper[j]
            if not math.isfinite(lb):
                raise ValidationError(f"variable {name}: lower bound must be finite")
            if math.isnan(ub):
                raise ValidationError(f"variable {name}: upper bound is NaN")
            if lb > ub + _FIXED_TOL:
                raise ValidationError(f"variable {name}: lower bound {lb} exceeds upper {ub}")
            if not math.isfinite(self.objective[j]):
                raise ValidationError(f"variable {name}: objective must be finite")
        for i, row in enumerate(self.rows):
            for j, a in row.items():
                if j < 0 or j >= n:
                    raise ValidationError(f"constraint {i}: unknown variable index {j}")
                if not math.isfinite(a):
                    raise ValidationError(f"constraint {i}: coefficient must be finite")
            if not math.isfinite(self.rhs[i]):
                raise ValidationError(f"constraint {i}: right-hand side must be finite")


class _Canon:
    """Dense arrays extracted once from a LinearModel."""

    def __init__(self, model: LinearModel):
        model.validate()
        self.n = model.num_variables
        self.c = np.array(model.objective, dtype=float)
        self.lb = np.array(model.lower, dtype=float)
        self.ub = np.array(model.upper, dtype=float)
        m = model.num_constraints
        A = np.zeros((m, self.n))
        for i, row in enumerate(model.rows):
            for j, a in row.items():
                A[i, j] = a
        self.A = A
        self.relations = list(model.relations)
        self.b = np.array(model.rhs, dtype=float)
        self.binary = np.array(
            [j for j in range(self.n) if model.is_binary[j]], dtype=int)
        self.offset = model.objective_offset


class _Tableau:
    """Bounded-variable simplex working state.

    Column j of T holds structural variable u_j = x_j - lb_j in [0, U_j]
    (slacks and artificials follow the structural columns); rhs is the
    basic solution with every nonbasic variable at zero, and at_ub marks
    nonbasic variables sitting at their upper bound instead.
    """

    def __init__(self, canon: _Canon, lb: np.ndarray, ub: np.ndarray):
        self.canon = canon
        self.lb = lb
        self.iterations = 0
        span = ub - lb
        self.infeasible_bounds = bool(np.any(span < -1e-9))
        self.trivially_infeasible = False
        if self.infeasible_bounds:
            return
        span = np.maximum(span, 0.0)

        A = canon.A.copy()
        b = canon.b - canon.A @ lb
        eq = np.array([r == "=" for r in canon.relations], dtype=bool)
        flip = np.array([r == ">=" for r in canon.relations], dtype=bool)
        if flip.any():
            A[flip] *= -1.0
            b[flip] *= -1.0

        # Drop empty rows, catching trivial infeasibility.
        scale = np.abs(A).max(axis=1, initial=0.0)
        keep: list[int] = []
        for i in range(A.shape[0]):
            if scale[i] < 1e-12:
                bad = abs(b[i]) > FEASIBILITY_TOL if eq[i] else b[i] < -FEASIBILITY_TOL
                if bad:
                    self.trivially_infeasible = True
                    return
                continue
            keep.append(i)
        A = A[keep] / scale[keep, None]
        b = b[keep] / scale[keep]
        eq = eq[keep]

        neg = b < 0
        A[neg] *= -1.0
        b[neg] *= -1.0
        m = A.shape[0]

        slack_rows = np.nonzero(~eq)[0]
        n_slack = len(slack_rows)
        S = np.zeros((m, n_slack))
        slack_ok = np.zeros(m, dtype=bool)
        for k, i in enumerate(slack_rows):
            S[i, k] = -1.0 if neg[i] else 1.0
            slack_ok[i] = not neg[i]

        art_rows = np.nonzero(~slack_ok)[0]
        n_art = len(art_rows)
        R = np.zeros((m, n_art))
        for k, i in enumerate(art_rows):
            R[i, k] = 1.0

        self.n_struct = canon.n + n_slack
        self.n_art = n_art
        self.T = np.hstack([A, S, R]) if m else np.zeros((0, self.n_struct + n_art))
        self.A0 = self.T[:, :self.n_struct].copy()
        self.b0 = b.copy()
        self.rhs = b.copy()
        self.U = np.concatenate([
            span, np.full(n_slack, math.inf), np.full(n_art, math.inf)])
        self.at_ub = np.zeros(self.n_struct + n_art, dtype=bool)
        self.is_basic = np.zeros(self.n_struct + n_art, dtype=bool)
        self.basis = np.full(m, -1, dtype=int)
        for k, i in enumerate(slack_rows):
            if slack_ok[i]:
                self.basis[i] = canon.n + k
        for k, i in enumerate(art_rows):
            self.basis[i] = self.n_struct + k
        self.is_basic[self.basis] = True
        self.needs_phase1 = n_art > 0

    # -- pivot mechanics ---------------------------------------------------

    def basic_values(self) -> np.ndarray:
        idx = np.nonzero(self.at_ub)[0]
        if len(idx) == 0:
            return self.rhs.copy()
        return self.rhs - self.T[:, idx] @ self.U[idx]

    def current_point(self) -> np.ndarray:
        u = np.where(self.at_ub, np.where(np.isfinite(self.U), self.U, 0.0), 0.0)
        u[self.basis] = self.basic_values()
        return u

    def _pivot(self, r: int, j: int) -> None:
        T, rhs = self.T, self.rhs
        piv = T[r, j]
        if abs(piv) < 1e-12:
            raise NumericalError("pivot element vanished")
        T[r] /= piv
        rhs[r] /= piv
        col = T[:, j].copy()
        col[r] = 0.0
        mask = col != 0.0
        if mask.any():
            T[mask] -= np.outer(col[mask], T[r])
            rhs[mask] -= col[mask] * rhs[r]
        for d in self._drows:
            d -= d[j] * T[r]
        leaving = self.basis[r]
        self.is_basic[leaving] = False
        self.at_ub[leaving] = self._leaving_to_ub
        self.at_ub[j] = False
        self.is_basic[j] = True
        self.basis[r] = j

    def run(self, d: np.ndarray, extra_drows: list[np.ndarray],
            allow: np.ndarray, max_iter: int) -> str:
        """Pivot until optimal or unbounded for the reduced-cost row d.

        Returns "optimal" or "unbounded".  d and every array in
        extra_drows receive the same row operations.
        """
        self._drows = [d] + extra_drows
        m = self.T.shape[0]
        stall = 0
        bland = False
        while True:
            if self.iterations >= max_iter:
                raise NumericalError("simplex iteration limit reached")
            self.iterations += 1
            x_B = self.basic_values()

            movable = (~self.is_basic) & allow & (self.U > _FIXED_TOL)
            up = movable & ~self.at_ub & (d > _RC_TOL)
            down = movable & self.at_ub & (d < -_RC_TOL)
            candidates = np.nonzero(up | down)[0]
            if len(candidates) == 0:
                return "optimal"
            if bland:
                j = int(candidates[0])
            else:
                j = int(candidates[np.argmax(np.abs(d[candidates]))])
            direction = -1.0 if self.at_ub[j] else 1.0

            col = self.T[:, j]
            denom = direction * col
            t_best = math.inf
            rows: list[tuple[int, bool]] = []  # (row, leaving goes to ub)
            for i in range(m):
                dn = denom[i]
                if dn > _PIVOT_TOL:
                    t = max(x_B[i], 0.0) / dn
                    to_ub = False
                elif dn < -_PIVOT_TOL:
                    cap = self.U[self.basis[i]]
                    if not math.isfinite(cap):
                        continue
                    t = max(cap - x_B[i], 0.0) / -dn
                    to_ub = True
                else:
                    continue
                if t < t_best - 1e-9:
                    t_best = t
                    rows = [(i, to_ub)]
                elif t <= t_best + 1e-9:
                    rows.append((i, to_ub))
            t_own = self.U[j]

            if not math.isfinite(t_best) and not math.isfinite(t_own):
                return "unbounded"
            if t_own <= t_best + 1e-12:
                # The entering variable traverses to its other bound.
                self.at_ub[j] = not self.at_ub[j]
                gained = abs(d[j]) * t_own
                if gained > 1e-12:
                    stall = 0
                    bland = False
                else:
                    stall += 1
            else:
                if bland:
                    r, to_ub = min(rows, key=lambda rc: self.basis[rc[0]])
                else:
                    r, to_ub = max(rows, key=lambda rc: abs(col[rc[0]]))
                self._leaving_to_ub = to_ub
                gained = abs(d[j]) * max(t_best, 0.0)
                self._pivot(r, j)
                if gained > 1e-12:
                    stall = 0
                    bland = False
                else:
                    stall += 1
            if stall > max(m, 10):
                bland = True

    # -- phases ------------------------------------------------------------

    def solve(self, max_iter: int) -> str:
        """Cold two-phase solve: "optimal", "infeasible" or "unbounded"."""
        ntot = self.n_struct + self.n_art
        canon = self.canon
        c_full = np.zeros(ntot)
        c_full[:canon.n] = canon.c
        d2 = c_full.copy()
        # Price out the (cost-free) initial basis: nothing to do, every
        # starting basic column has zero objective coefficient.

        allow = np.ones(ntot, dtype=bool)
        allow[self.n_struct:] = False  # artificials never re-enter

        if self.needs_phase1:
            c1 = np.zeros(ntot)
            c1[self.n_struct:] = -1.0
            art_basic_rows = [i for i in range(len(self.basis))
                              if self.basis[i] >= self.n_struct]
            d1 = c1.copy()
            for i in art_basic_rows:
                d1 += self.T[i]
            d1[self.basis] = 0.0
            outcome = self.run(d1, [d2], allow, max_iter)
            if outcome == "unbounded":
                raise NumericalError("phase 1 reported unbounded")
            infeas = float(np.sum(self.current_point()[self.n_struct:]))
            if infeas > FEASIBILITY_TOL * (1.0 + float(np.abs(self.b0).max(initial=0.0))):
                return "infeasible"
            self._drive_out_artificials(d2)

        if self.T.shape[1] > self.n_struct:
            self.T = self.T[:, :self.n_struct]
            self.A0 = self.A0[:, :self.n_struct]
            self.U = self.U[:self.n_struct]
            self.at_ub = self.at_ub[:self.n_struct]
            self.is_basic = self.is_basic[:self.n_struct]
            d2 = d2[:self.n_struct]
            allow = allow[:self.n_struct]
        d2[self.basis] = 0.0
        self.d = d2  # kept up to date by run(); read by reoptimize()
        return self.run(d2, [], allow, max_iter)

    # -- warm start --------------------------------------------------------

    def copy(self) -> "_Tableau":
        """An independent copy of a solved tableau; A0 and canon are shared."""
        twin = copy.copy(self)
        for name in ("lb", "T", "b0", "rhs", "U", "at_ub", "is_basic",
                     "basis", "d"):
            setattr(twin, name, getattr(self, name).copy())
        twin.iterations = 0
        return twin

    def fix(self, j: int, value: float) -> None:
        """Fix structural variable j at value, a point of its current range.

        Moving the lower bound by delta is the substitution
        u_j = u'_j + delta, which shifts the right-hand side by delta times
        column j; a zero span then pins u'_j at zero, where its lower and
        upper bound coincide, so at_ub no longer matters.
        """
        delta = value - self.lb[j]
        if delta:
            self.lb[j] = value
            self.rhs -= delta * self.T[:, j]
            self.b0 -= delta * self.A0[:, j]
        self.U[j] = 0.0

    def reoptimize(self, max_iter: int) -> str:
        """Bounded dual simplex back to primal feasibility after fix().

        The basis is still dual feasible, so each pivot takes the basic
        variable furthest outside its bounds out of the basis and brings
        in the nonbasic column whose reduced cost reaches zero first.  A
        final primal pass clears any reduced cost that rounding left on
        the wrong side.  Returns "optimal", "infeasible" or "unbounded".
        """
        self._drows = [self.d]
        m = len(self.basis)
        stall = 0
        bland = False
        while m:
            x_B = self.basic_values()
            excess = np.maximum(-x_B, x_B - self.U[self.basis])
            rows = np.nonzero(excess > FEASIBILITY_TOL)[0]
            if len(rows) == 0:
                break
            if self.iterations >= max_iter:
                raise NumericalError("simplex iteration limit reached")
            self.iterations += 1
            if bland:
                r = int(rows[np.argmin(self.basis[rows])])
            else:
                r = int(rows[np.argmax(excess[rows])])
            to_ub = bool(x_B[r] > 0.0)
            # Entering x_j moves x_B[r] back toward the bound it broke.
            alpha = self.T[r] if to_ub else -self.T[r]
            movable = ~self.is_basic & (self.U > _FIXED_TOL)
            up = movable & ~self.at_ub & (alpha > _PIVOT_TOL)
            down = movable & self.at_ub & (alpha < -_PIVOT_TOL)
            candidates = np.nonzero(up | down)[0]
            if len(candidates) == 0:
                return "infeasible"
            d = self.d[candidates]
            slack = np.maximum(np.where(self.at_ub[candidates], d, -d), 0.0)
            ratio = slack / np.abs(alpha[candidates])
            t = float(ratio.min())
            ties = candidates[ratio <= t + 1e-12]
            if bland:
                j = int(ties[0])
            else:
                j = int(ties[np.argmax(np.abs(alpha[ties]))])
            self._leaving_to_ub = to_ub
            self._pivot(r, j)
            if t * excess[r] > 1e-12:
                stall = 0
                bland = False
            else:
                stall += 1
                bland = stall > max(m, 10)
        return self.run(self.d, [], np.ones(len(self.U), dtype=bool), max_iter)

    def _drive_out_artificials(self, d2: np.ndarray) -> None:
        self._drows = [d2]
        drop_rows: list[int] = []
        for r in range(len(self.basis)):
            if self.basis[r] < self.n_struct:
                continue
            row = self.T[r, :self.n_struct]
            pivots = np.nonzero(np.abs(row) > 1e-7)[0]
            usable = [j for j in pivots if not self.is_basic[j]]
            if usable:
                self._leaving_to_ub = False
                self._pivot(r, int(usable[0]))
            else:
                drop_rows.append(r)
        if drop_rows:
            keep = [i for i in range(len(self.basis)) if i not in set(drop_rows)]
            for r in drop_rows:
                self.is_basic[self.basis[r]] = False
            self.T = self.T[keep]
            self.A0 = self.A0[keep]
            self.b0 = self.b0[keep]
            self.rhs = self.rhs[keep]
            self.basis = self.basis[keep]

    def _extract(self) -> np.ndarray:
        u = np.where(self.at_ub, np.where(np.isfinite(self.U), self.U, 0.0), 0.0)
        x_B = self.basic_values()
        m = len(self.basis)
        if m:
            # Refinement: recompute the basic values from the untouched
            # canonical rows so rounding from thousands of row operations
            # does not leak into reported flows.
            B = self.A0[:, self.basis]
            idx = np.nonzero(self.at_ub[:self.n_struct])[0]
            rhs = self.b0.copy()
            if len(idx):
                rhs = rhs - self.A0[:, idx] @ self.U[idx]
            try:
                refined = np.linalg.solve(B, rhs)
                if np.all(np.isfinite(refined)):
                    x_B = refined
            except np.linalg.LinAlgError:
                pass
            caps = self.U[self.basis]
            x_B = np.clip(x_B, 0.0, np.where(np.isfinite(caps), caps, np.inf))
        u[self.basis] = x_B
        resid = self.A0 @ u - self.b0 if m else np.zeros(0)
        if m and float(np.abs(resid).max(initial=0.0)) > 1e-6 * (
                1.0 + float(np.abs(self.b0).max(initial=0.0))):
            raise NumericalError("solution failed the feasibility audit")
        return self.lb + u[:self.canon.n]


def _iteration_limit(tab: _Tableau, max_iter: int) -> int:
    return max_iter if max_iter else 2000 + 200 * max(tab.T.shape)


def _result(tab: _Tableau, status: str) -> SolveResult:
    if status != "optimal":
        return SolveResult(Status(status), math.nan, None, tab.iterations)
    x = tab._extract()
    obj = float(tab.canon.c @ x) + tab.canon.offset
    return SolveResult(Status.OPTIMAL, obj, x, tab.iterations)


def _solve_canon(canon: _Canon, lb: np.ndarray, ub: np.ndarray,
                 max_iter: int) -> tuple[SolveResult, _Tableau]:
    """Cold two-phase solve; the final tableau seeds warm starts."""
    tab = _Tableau(canon, lb, ub)
    if tab.infeasible_bounds or tab.trivially_infeasible:
        return SolveResult(Status.INFEASIBLE, math.nan, None, 0), tab
    return _result(tab, tab.solve(_iteration_limit(tab, max_iter))), tab


def _resolve(parent: _Tableau, cols: Iterable[int], values: Iterable[float],
             max_iter: int) -> tuple[SolveResult, _Tableau]:
    """Warm solve from a copy of the parent's optimal tableau, with each
    column in cols fixed at the matching entry of values.  A value outside
    the column's current range, such as 0 for a binary whose lower bound is
    0.3, makes the node infeasible."""
    tab = parent.copy()
    for j, value in zip(cols, values):
        low, high = tab.lb[j], tab.lb[j] + tab.U[j]
        if not low - 1e-9 <= value <= high + 1e-9:
            return SolveResult(Status.INFEASIBLE, math.nan, None, 0), tab
        tab.fix(int(j), min(max(float(value), low), high))
    return _result(tab, tab.reoptimize(_iteration_limit(tab, max_iter))), tab


def solve_lp(model: LinearModel, *, max_iterations: int = 0) -> SolveResult:
    """Solve the continuous relaxation of the model."""
    canon = _Canon(model)
    return _solve_canon(canon, canon.lb, canon.ub, max_iterations)[0]


def solve_milp(model: LinearModel, *, node_limit: int = 100_000,
               max_iterations: int = 0) -> SolveResult:
    """Solve the model with binary variables driven to integrality.

    Best-first branch and bound: nodes are ordered on their relaxation
    bound, branching picks the most fractional binary, and a rounding
    pass at the root supplies an early incumbent.  Only the root LP is
    solved cold; each child, and the rounding pass, re-optimizes a copy
    of its parent's final tableau with the dual simplex, so a queued node
    carries that tableau.  iterations counts the simplex iterations of
    every LP solved, dual pivots included, and max_iterations (0 picks a
    default from the model size) caps each LP.  Hitting node_limit
    returns the best incumbent found, flagged via limit_hit.
    """
    canon = _Canon(model)
    root, root_tab = _solve_canon(canon, canon.lb, canon.ub, max_iterations)
    root.nodes = 1
    bins = canon.binary
    if len(bins) == 0 or root.status != Status.OPTIMAL:
        return root

    def fractionality(x: np.ndarray) -> np.ndarray:
        return np.abs(x[bins] - np.round(x[bins]))

    if float(fractionality(root.values).max(initial=0.0)) <= INTEGRALITY_TOL:
        return root

    total_iter = root.iterations
    nodes = 1
    incumbent_obj = -math.inf
    incumbent_x: np.ndarray | None = None

    # Rounding heuristic: snap the relaxation's binaries and re-solve.
    heur, _ = _resolve(root_tab, bins, np.round(root.values[bins]),
                       max_iterations)
    total_iter += heur.iterations
    if heur.status == Status.OPTIMAL:
        incumbent_obj = heur.objective
        incumbent_x = heur.values

    seq = 0
    heap: list[tuple[float, int, np.ndarray, _Tableau]] = [
        (-root.objective, seq, root.values, root_tab)]
    limit_hit = False
    while heap:
        neg_bound, _, x_n, tab_n = heapq.heappop(heap)
        if -neg_bound <= incumbent_obj + _PRUNE_TOL:
            break  # best-first: every remaining node is no better
        j = bins[int(np.argmax(fractionality(x_n)))]
        for fix in (0.0, 1.0):
            if nodes >= node_limit:
                limit_hit = True
                break
            child, tab_c = _resolve(tab_n, [j], [fix], max_iterations)
            nodes += 1
            total_iter += child.iterations
            if child.status != Status.OPTIMAL:
                continue
            if child.objective <= incumbent_obj + _PRUNE_TOL:
                continue
            if float(fractionality(child.values).max(initial=0.0)) <= INTEGRALITY_TOL:
                incumbent_obj = child.objective
                incumbent_x = child.values
            else:
                seq += 1
                heapq.heappush(heap, (-child.objective, seq, child.values, tab_c))
        if limit_hit:
            break

    if limit_hit:
        return SolveResult(Status.NODE_LIMIT, incumbent_obj, incumbent_x,
                           total_iter, nodes, limit_hit=True)
    if incumbent_x is None:
        return SolveResult(Status.INFEASIBLE, math.nan, None, total_iter, nodes)
    return SolveResult(Status.OPTIMAL, incumbent_obj, incumbent_x, total_iter, nodes)
