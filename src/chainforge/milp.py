"""Self-contained linear and mixed-binary optimizer.

The solver is deliberately small and dependency-free: a dense-tableau
simplex with native variable bounds (nonbasic variables may sit at either
bound, so capacity-style upper bounds never become extra rows) and a
best-first branch and bound over binary variables on top.

Every LP is solved by the same two passes: a bounded dual simplex to
primal feasibility, then a primal simplex to optimality.  Only where they
start differs, and there are two starts:

* the slack basis, for a root relaxation solved cold;
* a given basis of a model with the same rows and columns, such as the
  previous period's optimal root basis, the same period's at the previous
  epsilon, or, for a branch-and-bound child or the rounding heuristic,
  the parent's optimal basis with the branched binaries' bounds fixed.

The start is made dual feasible by bound flipping and cost modification
(a column that gains from rising moves to its upper bound, or is priced
at zero while it has none; one that gains from falling moves back to its
lower bound), so no artificial columns or phase 1 are needed.  An empty
dual ratio test is the one proof that an LP is infeasible: every row is
kept, an empty one with its slack basic for the dual pass to judge.

A model is a DenseModel, the arrays the solver reads, whose constructor
is the one model check.

Conventions:

* the objective sense is always maximize;
* every variable needs a finite lower bound (flows, inventories, and
  indicator variables all have one naturally);
* binary variables are continuous [0, 1] columns that branch and bound
  drives to integrality within INTEGRALITY_TOL.

Both limits are constants: branch and bound stops at NODE_LIMIT nodes
with its best incumbent, and an LP raises NumericalError past the
iteration cap its size sets (_iteration_cap).

Anti-cycling: the entering rule is steepest reduced cost; when the
objective stalls for as many iterations as there are rows, pivoting
falls back to Bland's smallest-index rule until progress resumes.  The
dual simplex falls back to the dual Bland rule the same way.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import NumericalError, ValidationError

FEASIBILITY_TOL = 1e-7
INTEGRALITY_TOL = 1e-6
NODE_LIMIT = 100_000    # branch-and-bound nodes per solve_milp call
_RC_TOL = 1e-9          # reduced cost significance
_PIVOT_TOL = 1e-9       # ratio-test denominator cutoff
_FIXED_TOL = 1e-12      # span below which a variable cannot move
_PRUNE_TOL = 1e-9       # branch-and-bound incumbent margin


def _stall_limit(rows: int) -> int:
    """Pivots without progress after which a simplex pass on a model
    with this many rows takes Bland's rule, until progress resumes."""
    return max(rows, 10)


def _iteration_cap(rows: int, columns: int) -> int:
    """Simplex iterations, dual and primal together, after which an LP
    whose tableau has this many rows and columns raises NumericalError."""
    return 2000 + 200 * max(rows, columns)


class Status(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NODE_LIMIT = "node_limit"


# A simplex basis: the basic column of each row, and the flags of
# the nonbasic columns that sit at their upper bound.
Basis = tuple[np.ndarray, np.ndarray]


@dataclass
class SolveResult:
    status: Status
    objective: float
    values: np.ndarray | None
    iterations: int
    nodes: int = 0
    basis: Basis | None = None  # an optimal LP's; solve_milp: the root's


class DenseModel:
    """Maximize c @ x subject to A[i] @ x <relations[i]> b[i] and
    lb <= x <= ub, with the columns in binary driven to 0 or 1.

    Construction is the one model check: A a matrix, b and relations one
    entry per row, c, lb and ub one per column, binary column indices in
    range, lb finite, ub not NaN, lb <= ub, c, A and b finite, and each
    relation "<=", "=" or ">=", else ValidationError names the first bad
    array, variable or constraint.  The solver only reads the arrays, so
    models may share them."""

    def __init__(self, A: np.ndarray, b: np.ndarray, c: np.ndarray,
                 lb: np.ndarray, ub: np.ndarray, *, relations: Iterable[str],
                 binary: np.ndarray):
        relations = np.asarray(relations, dtype=str)
        binary = np.asarray(binary, dtype=int)
        if np.ndim(A) != 2:
            raise ValidationError(f"A must be a matrix, got shape {np.shape(A)}")
        m, n = np.shape(A)
        for name, array, size in (("b", b, m), ("relations", relations, m),
                                  ("c", c, n), ("lb", lb, n), ("ub", ub, n)):
            if np.shape(array) != (size,):
                raise ValidationError(f"{name} has shape {np.shape(array)}, "
                                      f"A is {m} x {n}")
        outside = (binary < 0) | (binary >= n)
        if outside.any():
            raise ValidationError(f"binary column {int(binary[outside][0])} "
                                  f"outside the {n} columns")
        for kind, bad, what in (
                ("variable", ~np.isfinite(lb), "lower bound must be finite"),
                ("variable", np.isnan(ub), "upper bound is NaN"),
                ("variable", lb > ub + _FIXED_TOL, "lower bound exceeds upper"),
                ("variable", ~np.isfinite(c), "objective must be finite"),
                ("constraint", ~np.isfinite(A).all(axis=1),
                 "coefficient must be finite"),
                ("constraint", ~np.isfinite(b),
                 "right-hand side must be finite"),
                ("constraint", (relations != "<=") & (relations != "=")
                 & (relations != ">="), "relation must be <=, = or >=")):
            if bad.any():
                raise ValidationError(f"{kind} {int(np.argmax(bad))}: {what}")
        self.n = n
        self.A, self.b, self.c, self.lb, self.ub = A, b, c, lb, ub
        self.relations, self.binary = relations, binary


class _Tableau:
    """Bounded-variable simplex working state.

    Column j of T holds structural variable u_j = x_j - lb_j in [0, U_j]
    (one slack per row follows the structural columns); rhs is the basic
    solution with every nonbasic variable at zero, at_ub marks nonbasic
    variables sitting at their upper bound instead, and d holds the
    reduced costs.  Every row of the model is a row of T, scaled to a
    largest coefficient of 1; an empty row stays zero and unscaled, for
    the dual pass to judge.
    """

    def __init__(self, canon: DenseModel):
        self.canon = canon
        lb = canon.lb
        self.iterations = 0
        span = np.maximum(canon.ub - lb, 0.0)

        eq = canon.relations == "="
        sign = np.where(canon.relations == ">=", -1.0, 1.0)
        A = canon.A * sign[:, None]
        b = (canon.b - canon.A @ lb) * sign

        scale = np.abs(A).max(axis=1, initial=0.0)
        empty = scale < 1e-12
        scale[empty] = 1.0
        A = np.where(empty[:, None], 0.0, A / scale[:, None])
        b = b / scale
        m = A.shape[0]

        # One slack per row: [0, inf) on an inequality, [0, 0] on an
        # equality.  The slack basis is the start even where b < 0; the dual
        # simplex in solve() restores primal feasibility.
        self.T = np.hstack([A, np.eye(m)])
        self.cap = _iteration_cap(*self.T.shape)
        self.A0 = self.T.copy()
        self.b0 = b
        self.rhs = b.copy()
        self.U = np.concatenate([span, np.where(eq, 0.0, math.inf)])
        self.at_ub = np.zeros(canon.n + m, dtype=bool)
        self.is_basic = np.zeros(canon.n + m, dtype=bool)
        self.basis = np.arange(canon.n, canon.n + m)
        self.is_basic[self.basis] = True

    # -- pivot mechanics ---------------------------------------------------

    def basic_values(self) -> np.ndarray:
        idx = np.nonzero(self.at_ub)[0]
        if len(idx) == 0:
            return self.rhs.copy()
        return self.rhs - self.T[:, idx] @ self.U[idx]

    def _pivot(self, r: int, j: int, leaving_to_ub: bool) -> None:
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
        self.d -= self.d[j] * T[r]
        leaving = self.basis[r]
        self.is_basic[leaving] = False
        self.at_ub[leaving] = leaving_to_ub
        self.at_ub[j] = False
        self.is_basic[j] = True
        self.basis[r] = j

    def run(self) -> Status:
        """Primal simplex from a primal feasible basis until the reduced
        costs d are optimal: OPTIMAL or UNBOUNDED.

        Each blocking row's step is x_B over the denominator for a
        falling basic variable, its room below a finite upper bound for a
        rising one.  Rows within 1e-9 of the smallest step tie, and the
        largest pivot among them leaves."""
        d = self.d
        m = self.T.shape[0]
        stall = 0
        bland = stall > _stall_limit(m)
        while True:
            if self.iterations >= self.cap:
                raise NumericalError("simplex iteration limit reached")
            self.iterations += 1
            movable = (~self.is_basic) & (self.U > _FIXED_TOL)
            up = movable & ~self.at_ub & (d > _RC_TOL)
            down = movable & self.at_ub & (d < -_RC_TOL)
            candidates = np.nonzero(up | down)[0]
            if len(candidates) == 0:
                return Status.OPTIMAL
            if bland:
                j = int(candidates[0])
            else:
                j = int(candidates[np.argmax(np.abs(d[candidates]))])

            x_B = self.basic_values()
            # A positive denominator lowers x_B toward 0, a negative one
            # raises it toward its upper bound, where that is finite.
            denom = self.T[:, j] if not self.at_ub[j] else -self.T[:, j]
            caps = self.U[self.basis]
            rows = np.nonzero((denom > _PIVOT_TOL) | (
                (denom < -_PIVOT_TOL) & np.isfinite(caps)))[0]
            dn = denom[rows]
            room = np.where(dn > 0.0, x_B[rows], caps[rows] - x_B[rows])
            steps = np.maximum(room, 0.0) / np.abs(dn)
            t_best = float(steps.min(initial=math.inf))
            rows = rows[steps <= t_best + 1e-9]
            t_own = self.U[j]

            if not math.isfinite(t_best) and not math.isfinite(t_own):
                return Status.UNBOUNDED
            if t_own <= t_best + 1e-12:
                # The entering variable traverses to its other bound.
                self.at_ub[j] = not self.at_ub[j]
                gained = abs(d[j]) * t_own
            else:
                if bland:
                    r = int(rows[np.argmin(self.basis[rows])])
                else:
                    r = int(rows[np.argmax(np.abs(denom[rows]))])
                gained = abs(d[j]) * t_best
                self._pivot(r, j, bool(denom[r] < 0.0))
            stall = 0 if gained > 1e-12 else stall + 1
            bland = stall > _stall_limit(m)

    def dual(self) -> bool:
        """Bounded dual simplex from a dual feasible basis to a primal
        feasible one; False when an empty ratio test proves the LP
        infeasible.

        Each pivot takes the basic variable furthest outside its bounds out
        of the basis and brings in the nonbasic column whose reduced cost
        reaches zero first.
        """
        m = len(self.basis)
        stall = 0
        bland = stall > _stall_limit(m)
        while True:
            x_B = self.basic_values()
            excess = np.maximum(-x_B, x_B - self.U[self.basis])
            rows = np.nonzero(excess > FEASIBILITY_TOL)[0]
            if len(rows) == 0:
                return True
            if self.iterations >= self.cap:
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
                return False
            d = self.d[candidates]
            slack = np.maximum(np.where(self.at_ub[candidates], d, -d), 0.0)
            ratio = slack / np.abs(alpha[candidates])
            t = float(ratio.min())
            ties = candidates[ratio <= t + 1e-12]
            if bland:
                j = int(ties[0])
            else:
                j = int(ties[np.argmax(np.abs(alpha[ties]))])
            self._pivot(r, j, to_ub)
            stall = 0 if t * excess[r] > 1e-12 else stall + 1
            bland = stall > _stall_limit(m)

    # -- root and warm solves -----------------------------------------------

    def _refactor(self, basis: np.ndarray, at_ub: np.ndarray) -> None:
        """Move from the slack basis to the given one: T = B^-1 [A I] and
        rhs = B^-1 b, with B the basis columns of A0.  A basis that does
        not fit (another row or column count, a repeated column, a
        singular B or a non-finite result) leaves the slack basis."""
        m, width = self.A0.shape
        if len(basis) != m or len(at_ub) != width:
            return
        is_basic = np.zeros(width, dtype=bool)
        is_basic[basis] = True
        if np.count_nonzero(is_basic) != m:
            return
        try:
            solved = np.linalg.solve(self.A0[:, basis],
                                     np.column_stack([self.A0, self.b0]))
        except np.linalg.LinAlgError:
            return
        if not np.all(np.isfinite(solved)):
            return
        self.T = np.ascontiguousarray(solved[:, :width])
        self.rhs = solved[:, width].copy()
        self.basis = np.array(basis, dtype=int)
        self.is_basic = is_basic
        self.at_ub = at_ub & ~is_basic & np.isfinite(self.U)

    def solve(self, start: Basis | None = None) -> Status:
        """Solve the LP: OPTIMAL, INFEASIBLE or UNBOUNDED.

        It starts from the slack basis, or from start when that basis
        fits this model, such as the previous period's optimal root basis
        or a branch-and-bound parent's optimal basis.
        The reduced costs d = c - c_B T are made dual feasible: a nonbasic
        column that gains from rising moves to its upper bound, or is
        priced at zero for the dual pass while that bound is infinite, and
        one at its upper bound that gains from falling moves back to its
        lower bound.  The bounded dual simplex then restores primal
        feasibility, the true reduced costs are restored, and the primal
        simplex finishes.  From the slack basis B = I and c_B = 0, so
        d = c.
        """
        if start is not None:
            self._refactor(*start)
        c = np.zeros(len(self.U))
        c[:self.canon.n] = self.canon.c
        d = c - c[self.basis] @ self.T
        d[self.basis] = 0.0
        finite = np.isfinite(self.U)
        gains = ~self.is_basic & ~self.at_ub & (d > _RC_TOL)
        self.at_ub = (self.at_ub & (d >= -_RC_TOL)) | (gains & finite)
        self.d = np.where(gains & ~finite, 0.0, d)
        if not self.dual():
            return Status.INFEASIBLE
        self.d = c - c[self.basis] @ self.T
        self.d[self.basis] = 0.0
        return self.run()

    def _extract(self) -> np.ndarray:
        u = np.where(self.at_ub, np.where(np.isfinite(self.U), self.U, 0.0), 0.0)
        x_B = self.basic_values()
        # Refinement: recompute the basic values from the untouched
        # canonical rows so rounding from thousands of row operations
        # does not leak into reported flows.
        B = self.A0[:, self.basis]
        idx = np.nonzero(self.at_ub)[0]
        rhs = self.b0 - self.A0[:, idx] @ self.U[idx]
        try:
            refined = np.linalg.solve(B, rhs)
            if np.all(np.isfinite(refined)):
                x_B = refined
        except np.linalg.LinAlgError:
            pass
        caps = self.U[self.basis]
        x_B = np.clip(x_B, 0.0, np.where(np.isfinite(caps), caps, np.inf))
        u[self.basis] = x_B
        resid = self.A0 @ u - self.b0
        if float(np.abs(resid).max(initial=0.0)) > 1e-6 * (
                1.0 + float(np.abs(self.b0).max(initial=0.0))):
            raise NumericalError("solution failed the feasibility audit")
        return self.canon.lb + u[:self.canon.n]


def _solve_canon(canon: DenseModel, start: Basis | None = None) -> SolveResult:
    """Solve the LP relaxation from the slack basis, or from start where
    it fits, within an iteration cap set by the tableau's size."""
    tab = _Tableau(canon)
    status = tab.solve(start)
    if status is not Status.OPTIMAL:
        return SolveResult(status, math.nan, None, tab.iterations)
    x = tab._extract()
    return SolveResult(status, float(canon.c @ x), x, tab.iterations,
                       basis=(tab.basis, tab.at_ub))


def _resolve(parent: DenseModel, start: Basis, cols: Iterable[int],
             values: Iterable[float]) -> tuple[SolveResult, DenseModel]:
    """Solve parent with each column in cols fixed at the matching entry
    of values, starting from start, the parent's optimal basis; returns
    the result and the bound-fixed model.  A value outside the column's
    current range, such as 0 for a binary whose lower bound is 0.3, makes
    the node infeasible."""
    lb, ub = parent.lb.copy(), parent.ub.copy()
    for j, value in zip(cols, values):
        if not lb[j] - 1e-9 <= value <= ub[j] + 1e-9:
            return SolveResult(Status.INFEASIBLE, math.nan, None, 0), parent
        lb[j] = ub[j] = min(max(float(value), lb[j]), ub[j])
    child = DenseModel(parent.A, parent.b, parent.c, lb, ub,
                       relations=parent.relations, binary=parent.binary)
    return _solve_canon(child, start), child


def solve_milp(model: DenseModel, *, start: Basis | None = None) -> SolveResult:
    """Solve the model with binary variables driven to integrality.

    Best-first branch and bound: nodes are ordered on their relaxation
    bound, branching picks the most fractional binary, and a rounding pass
    at the root supplies an early incumbent.  The root LP starts from the
    slack basis, or from start: the basis of another model with the same
    rows and columns, such as the previous period's or the same period's
    at another epsilon, which the result's basis field carries on.  A
    start that does not fit falls back to the slack basis.  Each child,
    and the rounding pass, solves its parent's model with the branched
    binaries fixed, starting from the parent's optimal basis, so a queued
    node carries its LP result and model.  iterations counts the simplex
    iterations of every LP solved, dual pivots included, and a cap set by
    the model size bounds each LP.  A search that reaches NODE_LIMIT
    nodes, read at each call, stops and returns the best incumbent found,
    if any, with status NODE_LIMIT; a result without values has objective
    NaN.
    """
    root = _solve_canon(model, start)
    root.nodes = 1
    bins = model.binary
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
    heur, _ = _resolve(model, root.basis, bins, np.round(root.values[bins]))
    total_iter += heur.iterations
    if heur.status == Status.OPTIMAL:
        incumbent_obj = heur.objective
        incumbent_x = heur.values

    seq = 0
    heap: list[tuple[float, int, SolveResult, DenseModel]] = [
        (-root.objective, seq, root, model)]
    limit_hit = False
    while heap:
        neg_bound, _, node, model_n = heapq.heappop(heap)
        if -neg_bound <= incumbent_obj + _PRUNE_TOL:
            break  # best-first: every remaining node is no better
        j = bins[int(np.argmax(fractionality(node.values)))]
        for fix in (0.0, 1.0):
            if nodes >= NODE_LIMIT:
                limit_hit = True
                break
            child, model_c = _resolve(model_n, node.basis, [j], [fix])
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
                heapq.heappush(heap, (-child.objective, seq, child, model_c))
        if limit_hit:
            break

    found = incumbent_x is not None
    status = (Status.NODE_LIMIT if limit_hit
              else Status.OPTIMAL if found else Status.INFEASIBLE)
    return SolveResult(status, incumbent_obj if found else math.nan,
                       incumbent_x, total_iter, nodes, root.basis)
