"""Simplex and branch-and-bound kernel against closed forms, enumeration,
and scipy."""

import inspect
import itertools
import math
import sys

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from chainforge import milp as solver
from chainforge import stochastic
from chainforge.errors import NumericalError, ValidationError
from chainforge.gfa import assign_linkages
from chainforge.milp import FEASIBILITY_TOL, DenseModel, Status, solve_milp
from chainforge.model import instance_from_dict
from chainforge.pareto import sweep
from chainforge.stochastic import (PeriodTemplate, StochasticConfig,
                                   audit_replication, build_period_model,
                                   default_initial_inventory,
                                   linked_retention, run_replication,
                                   sample_scenario)


def _model(A, b, c, *, lb=None, ub=None, relations=None, binary=()):
    """A DenseModel from lists, by default with every column in [0, inf)
    and every row "<="."""
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    return DenseModel(
        np.asarray(A, dtype=float).reshape(len(b), len(c)), b, c,
        np.zeros(len(c)) if lb is None else np.asarray(lb, dtype=float),
        np.full(len(c), math.inf) if ub is None else np.asarray(ub, dtype=float),
        relations=["<="] * len(b) if relations is None else relations,
        binary=binary)


def _row(coeffs, n):
    """A dense constraint row from a mapping of column to coefficient."""
    row = np.zeros(n)
    row[list(coeffs)] = list(coeffs.values())
    return row


def test_two_variable_lp_known_vertex():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    m = _model([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]], [4.0, 12.0, 18.0],
               [3.0, 5.0])
    result = solve_milp(m)
    assert result.status is Status.OPTIMAL
    assert result.objective == pytest.approx(36.0)
    assert result.values == pytest.approx([2.0, 6.0])


def test_equality_and_geq_rows():
    # max x + y s.t. x + y = 10, x >= 3, y <= 4
    m = _model([[1.0, 1.0], [1.0, 0.0]], [10.0, 3.0], [1.0, 1.0],
               ub=[math.inf, 4.0], relations=["=", ">="])
    result = solve_milp(m)
    assert result.status is Status.OPTIMAL
    assert result.objective == pytest.approx(10.0)
    assert result.values[1] <= 4.0 + 1e-9


def test_infeasible_detected():
    m = _model([[1.0]], [2.0], [0.0], ub=[1.0], relations=[">="])
    assert solve_milp(m).status is Status.INFEASIBLE


def test_unbounded_detected():
    assert solve_milp(_model([], [], [1.0])).status is Status.UNBOUNDED


def test_bounded_lp_without_rows():
    # max x with 0 <= x <= 3: no rows, so extraction solves a 0 x 0 system.
    result = solve_milp(_model([], [], [1.0], ub=[3.0]))
    assert result.status is Status.OPTIMAL
    assert result.values == pytest.approx([3.0])


@pytest.mark.parametrize("b, relation", [(-1.0, "<="), (0.5, "=")])
def test_violated_empty_row_is_infeasible(b, relation):
    # 0 x <= -1 and 0 x = 0.5: the dual pass finds no column to fix them.
    m = _model([[0.0, 0.0]], [b], [1.0, 1.0], ub=[1.0, 1.0],
               relations=[relation])
    assert solve_milp(m).status is Status.INFEASIBLE


def test_satisfied_empty_row_changes_nothing():
    # max x + 2y s.t. x + y <= 1.5, with and without 0 x <= 1.
    plain = solve_milp(_model([[1.0, 1.0]], [1.5], [1.0, 2.0], ub=[1.0, 1.0]))
    padded = solve_milp(_model([[1.0, 1.0], [0.0, 0.0]], [1.5, 1.0],
                               [1.0, 2.0], ub=[1.0, 1.0]))
    assert padded.status is plain.status is Status.OPTIMAL
    assert padded.objective == plain.objective == pytest.approx(2.5)
    assert np.array_equal(padded.values, plain.values)


def test_degenerate_fixed_variable():
    m = _model([[1.0, 1.0]], [6.0], [2.0, 1.0], lb=[3.0, 0.0], ub=[3.0, 5.0])
    result = solve_milp(m)
    assert result.objective == pytest.approx(9.0)
    assert result.values[0] == pytest.approx(3.0)


def test_validation_rejects_bad_models():
    with pytest.raises(ValidationError, match="variable 0"):
        _model([], [], [0.0], lb=[-np.inf])
    with pytest.raises(ValidationError, match="variable 0"):
        _model([], [], [0.0], lb=[2.0], ub=[1.0])
    # max x s.t. x <= 5, x <?> 2: an unknown relation is neither read as
    # another one nor cut to fit.
    for relation in ("<>", ">=="):
        with pytest.raises(ValidationError, match="constraint 1: relation"):
            _model([[1.0], [1.0]], [5.0, 2.0], [1.0],
                   relations=["<=", relation])
    # Arrays that disagree in shape, built and solved: a relation short, a
    # right-hand side or a cost too many, a binary past the last column.
    fits = {"A": np.ones((2, 2)), "b": np.full(2, 5.0), "c": np.ones(2),
            "lb": np.zeros(2), "ub": np.ones(2), "relations": ["<="] * 2,
            "binary": []}
    for changed, match in (({"relations": ["<="]}, "relations has shape"),
                           ({"b": np.full(3, 5.0)}, "b has shape"),
                           ({"c": np.ones(3)}, "c has shape"),
                           ({"binary": [5]}, "binary column 5")):
        with pytest.raises(ValidationError, match=match):
            solve_milp(DenseModel(**{**fits, **changed}))


def test_binary_knapsack_matches_enumeration():
    values = [6.0, 10.0, 12.0, 7.0]
    weights = [1.0, 2.0, 3.0, 2.0]
    m = _model([weights], [5.0], values, ub=[1.0] * 4, binary=np.arange(4))
    result = solve_milp(m)
    best = max(
        sum(v for v, pick in zip(values, picks) if pick)
        for picks in itertools.product([0, 1], repeat=4)
        if sum(w for w, pick in zip(weights, picks) if pick) <= 5.0)
    assert result.status is Status.OPTIMAL
    assert result.objective == pytest.approx(best)
    for value in result.values:
        assert value in (pytest.approx(0.0), pytest.approx(1.0))


def test_mixed_integer_with_continuous_part():
    # max 4b + x s.t. x <= 3 + 2b, x <= 4; enumeration over b.
    m = _model([[-2.0, 1.0]], [3.0], [4.0, 1.0], ub=[1.0, 4.0], binary=[0])
    result = solve_milp(m)
    assert result.objective == pytest.approx(8.0)  # b=1, x=4
    assert result.values[0] == pytest.approx(1.0)


def _random_model(rng, max_binaries=4, max_continuous=4):
    nb = int(rng.integers(0, max_binaries + 1))
    nc = int(rng.integers(0, max_continuous + 1))
    if nb + nc == 0:
        nc = 1
    n = nb + nc
    c = [float(rng.normal(0, 5)) for _ in range(nb)]
    ub = [1.0] * nb
    for _ in range(nc):
        ub.append(float(rng.uniform(0.5, 4.0)))
        c.append(float(rng.normal(0, 5)))
    rows, rhs, relations = [], [], []
    for _ in range(int(rng.integers(1, 5))):
        coeffs = {j: float(rng.normal(0, 2)) for j in range(n)
                  if rng.random() < 0.7}
        relation = str(rng.choice(["<=", ">=", "="])) if coeffs else "<="
        b = float(rng.uniform(-2.0, 6.0))
        if relation == "=":
            # Keep equalities satisfiable: pin them near a feasible point.
            b = sum(a * 0.5 for a in coeffs.values())
        rows.append(_row(coeffs, n))
        rhs.append(b)
        relations.append(relation)
    return (_model(rows, rhs, c, ub=ub, relations=relations,
                   binary=np.arange(nb)), nb, nc)


def _linprog_rows(model):
    """The model's rows as linprog's A_ub/b_ub/A_eq/b_eq keywords."""
    sign = np.where(model.relations == ">=", -1.0, 1.0)
    ub, eq = model.relations != "=", model.relations == "="
    return {"A_ub": (sign[:, None] * model.A)[ub] if ub.any() else None,
            "b_ub": (sign * model.b)[ub] if ub.any() else None,
            "A_eq": model.A[eq] if eq.any() else None,
            "b_eq": model.b[eq] if eq.any() else None}


def _enumerate_milp(model):
    """Reference optimum: enumerate binaries, solve the rest with scipy."""
    best = None
    for combo in itertools.product([0.0, 1.0], repeat=len(model.binary)):
        lower, upper = model.lb.copy(), model.ub.copy()
        lower[model.binary] = upper[model.binary] = combo
        res = linprog(-model.c, **_linprog_rows(model),
                      bounds=list(zip(lower, upper)), method="highs")
        if res.status == 0:
            value = -res.fun
            if best is None or value > best:
                best = value
    return best


def test_random_models_match_enumeration():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(60):
        model, nb, nc = _random_model(rng)
        result = solve_milp(model)
        reference = _enumerate_milp(model)
        if reference is None:
            assert result.status in (Status.INFEASIBLE, Status.UNBOUNDED)
            continue
        if result.status is Status.UNBOUNDED:
            continue  # scipy treats huge finite optima as feasible
        assert result.status is Status.OPTIMAL
        assert result.objective == pytest.approx(reference, abs=1e-6)
        checked += 1
    assert checked >= 25


def _random_pure_lp(rng):
    n = int(rng.integers(1, 6))
    ub, c = [], []
    for _ in range(n):
        ub.append(float(rng.uniform(1.0, 5.0)))
        c.append(float(rng.normal(0, 3)))
    rows, rhs = [], []
    for _ in range(int(rng.integers(1, 4))):
        rows.append([float(rng.normal(0, 1)) for _ in range(n)])
        rhs.append(float(rng.uniform(0.5, 5.0)))
    return _model(rows, rhs, c, ub=ub)


def test_pure_lp_against_scipy():
    rng = np.random.default_rng(99)
    for _ in range(40):
        m = _random_pure_lp(rng)
        result = solve_milp(m)
        res = linprog(-m.c, A_ub=m.A, b_ub=m.b, bounds=list(zip(m.lb, m.ub)),
                      method="highs")
        assert result.status is Status.OPTIMAL
        assert res.status == 0
        assert result.objective == pytest.approx(-res.fun, abs=1e-7)


def _random_lp_with_unbounded_gains(rng):
    """An LP the boxed random models never give: about half of its columns
    have a positive cost and no upper bound, and some equality rows appear
    twice, so one copy's slack stays basic at zero.  Rows hold at a random
    point, loosened or tightened by a random margin."""
    n = int(rng.integers(2, 8))
    lb, ub, c, point = [], [], [], []
    for _ in range(n):
        low = float(rng.uniform(-1.0, 1.0))
        lb.append(low)
        if rng.random() < 0.5:
            ub.append(math.inf)
            c.append(float(abs(rng.normal(0, 3))))
            point.append(low + float(rng.uniform(0.0, 3.0)))
        else:
            ub.append(low + float(rng.uniform(0.5, 4.0)))
            c.append(float(rng.normal(0, 3)))
            point.append(float(rng.uniform(low, ub[-1])))
    rows, rhs, relations = [], [], []
    for _ in range(int(rng.integers(1, 8))):
        coeffs = {j: float(rng.normal(0, 2)) for j in range(n)
                  if rng.random() < 0.7}
        if not coeffs:
            continue
        at_point = sum(a * point[j] for j, a in coeffs.items())
        relation = str(rng.choice(["<=", ">=", "="]))
        margin = float(rng.uniform(-1.0, 3.0))
        b = {"<=": at_point + margin, ">=": at_point - margin,
             "=": at_point}[relation]
        copies = 2 if relation == "=" and rng.random() < 0.5 else 1
        rows += [_row(coeffs, n)] * copies
        rhs += [b] * copies
        relations += [relation] * copies
    return _model(rows, rhs, c, lb=lb, ub=ub, relations=relations)


def _assert_lp_matches_highs(model):
    """solve_milp's status and optimum against scipy's HiGHS linprog."""
    statuses = {0: Status.OPTIMAL, 2: Status.INFEASIBLE, 3: Status.UNBOUNDED}
    reference = linprog(
        -model.c, **_linprog_rows(model),
        bounds=list(zip(model.lb, model.ub)), method="highs",
        options={"presolve": False})
    result = solve_milp(model)
    assert result.status is statuses[reference.status]
    if result.status is Status.OPTIMAL:
        assert abs(result.objective + reference.fun) <= FEASIBILITY_TOL * (
            1.0 + abs(reference.fun))
    return result


def test_random_lps_with_unbounded_gains_match_highs():
    rng = np.random.default_rng(20261018)
    outcomes = []
    iterations = 0
    for _ in range(300):
        result = _assert_lp_matches_highs(_random_lp_with_unbounded_gains(rng))
        iterations += result.iterations
        outcomes.append(result.status)
    assert outcomes.count(Status.OPTIMAL) >= 100
    assert Status.INFEASIBLE in outcomes
    assert Status.UNBOUNDED in outcomes
    # The one test set where the primal ratio test runs: its pivot count
    # pins the pivot rule.
    assert iterations == 1296


def _beale():
    """Beale's cycling example (1955), as a maximization: its optimum
    1.25 is at x = (1, 0, 1, 0)."""
    return _model([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0],
                   [0.0, 0.0, 1.0, 0.0]], [0.0, 0.0, 1.0],
                  [0.75, -20.0, 0.5, -6.0])


def test_beales_cycling_example():
    result = solve_milp(_beale())
    assert result.status is Status.OPTIMAL
    assert result.objective == pytest.approx(1.25)
    assert result.values == pytest.approx([1.0, 0.0, 1.0, 0.0])


def _bland_steps():
    """(method, line) of the first statement in each `if bland:` branch
    of the primal and dual simplex loops."""
    steps = set()
    for method in (solver._Tableau.run, solver._Tableau.dual):
        lines, first = inspect.getsourcelines(method)
        steps |= {(method.__name__, first + k + 1)
                  for k, line in enumerate(lines) if line.strip() == "if bland:"}
    return steps


def _lines_run(call):
    """The (function, line) pairs of the solver module that call() runs."""
    ran = set()

    def trace(frame, event, arg):
        if frame.f_code.co_filename != solver.__file__:
            return None
        if event == "line":
            ran.add((frame.f_code.co_name, frame.f_lineno))
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(previous)
    return ran


def test_blands_rule_from_the_first_pivot_matches_highs(monkeypatch):
    # No solve stalls long enough to take Bland's rule, so a stall limit
    # of -1 forces it from the first pivot of every primal and dual pass.
    monkeypatch.setattr(solver, "_stall_limit", lambda rows: -1)

    def solve_all():
        result = solve_milp(_beale())
        assert result.status is Status.OPTIMAL
        assert result.objective == pytest.approx(1.25)
        rng = np.random.default_rng(20261018)
        for _ in range(300):
            _assert_lp_matches_highs(_random_lp_with_unbounded_gains(rng))
        rng = np.random.default_rng(20240607)
        for _ in range(100):    # the first half of the 200 at the default
            _assert_matches_highs(_random_mixed_binary_model(rng))

    steps = _bland_steps()
    assert len(steps) == 4
    assert steps <= _lines_run(solve_all)


def _cap_raises():
    """(method, line) of the iteration cap's raise in the primal and
    dual simplex loops."""
    raises = set()
    for method in (solver._Tableau.run, solver._Tableau.dual):
        lines, first = inspect.getsourcelines(method)
        raises |= {(method.__name__, first + k) for k, line in enumerate(lines)
                   if "simplex iteration limit reached" in line}
    return raises


def test_iteration_cap_raises_in_both_passes(monkeypatch, tiny, tiny_design):
    # With a cap of 0, an LP feasible at the slack basis raises from the
    # primal loop, where the dual pass has nothing to do, and one
    # infeasible there raises from the dual loop.
    monkeypatch.setattr(solver, "_iteration_cap", lambda rows, columns: 0)
    feasible = _model([[1.0, 1.0]], [4.0], [1.0, 2.0])
    infeasible = _model([[-1.0, -1.0]], [-4.0], [-1.0, -2.0])

    def solve_both():
        for model in (feasible, infeasible):
            with pytest.raises(NumericalError,
                               match="simplex iteration limit reached"):
                solve_milp(model)

    raises = _cap_raises()
    assert len(raises) == 2
    assert raises <= _lines_run(solve_both)

    # A sweep records each grid point that raises as a failure.
    grid = (0.01, 0.1)
    pool = sweep(tiny, tiny_design, grid, StochasticConfig(replications=2))
    assert pool.solutions == []
    assert [(f.epsilon, f.error) for f in pool.failures] == [
        (eps, "simplex iteration limit reached") for eps in grid]


def _sibling(model, rng):
    """The model with its right-hand sides and bounds moved at random.
    Rows with equal coefficients move together, so twin equalities stay
    consistent."""
    b, lb, ub = model.b.copy(), model.lb.copy(), model.ub.copy()
    shifts = {}
    for i, (row, relation) in enumerate(zip(model.A, model.relations)):
        key = (relation, row.tobytes())
        b[i] += shifts.setdefault(key, float(rng.normal(0, 0.5)))
    for j in range(model.n):
        low = lb[j] + float(rng.normal(0, 0.3))
        if math.isfinite(ub[j]):
            span = ub[j] - lb[j]
            ub[j] = low + span * float(rng.uniform(0.5, 1.5))
        lb[j] = low
    return DenseModel(model.A, b, model.c, lb, ub, relations=model.relations,
                      binary=model.binary)


def test_root_start_falls_back_or_matches_highs():
    # A start that does not fit the model gives the slack-basis result.
    # The third column, idle, is in no row, so its column of A is zero.
    m = _model([[1.0, 2.0, 0.0], [3.0, 2.0, 0.0]], [12.0, 18.0],
               [3.0, 5.0, 0.0], ub=[4.0, math.inf, 1.0])
    cold = solve_milp(m)
    flags = np.zeros(5, dtype=bool)
    for start in ((np.array([3]), flags),           # one row short
                  (np.array([2, 3]), flags)):       # B singular
        warm = solve_milp(m, start=start)
        assert warm.status is cold.status
        assert warm.objective == cold.objective
        assert warm.iterations == cold.iterations
        assert np.array_equal(warm.values, cold.values)
    assert np.array_equal(solve_milp(m, start=cold.basis).values, cold.values)

    # Started from the optimal basis of a sibling with other right-hand
    # sides and bounds, each LP still matches HiGHS.  The sibling has the
    # same recession cone, so a started LP is never unbounded.
    statuses = {0: Status.OPTIMAL, 2: Status.INFEASIBLE, 3: Status.UNBOUNDED}
    rng = np.random.default_rng(20261018)
    moves = np.random.default_rng(7)
    outcomes = []
    iterations = {"cold": 0, "warm": 0}
    for _ in range(300):
        model = _random_lp_with_unbounded_gains(rng)
        start = solve_milp(_sibling(model, moves)).basis
        if start is None:
            continue
        reference = linprog(
            -model.c, **_linprog_rows(model),
            bounds=list(zip(model.lb, model.ub)), method="highs",
            options={"presolve": False})
        result = solve_milp(model, start=start)
        assert result.status is statuses[reference.status]
        if result.status is Status.OPTIMAL:
            assert abs(result.objective + reference.fun) <= FEASIBILITY_TOL * (
                1.0 + abs(reference.fun))
        outcomes.append(result.status)
        iterations["cold"] += solve_milp(model).iterations
        iterations["warm"] += result.iterations
    assert outcomes.count(Status.OPTIMAL) >= 100
    assert Status.INFEASIBLE in outcomes
    assert iterations["warm"] < iterations["cold"]


def _parity_model():
    """A tightly coupled parity-style model that needs real branching."""
    rng = np.random.default_rng(3)
    c = [float(rng.uniform(1, 2)) for _ in range(12)]
    rows, rhs = [], []
    for _ in range(6):
        rows.append([float(rng.uniform(0.5, 1.5)) for _ in range(12)])
        rhs.append(float(rng.uniform(2.0, 4.0)))
    return _model(rows, rhs, c, ub=[1.0] * 12, binary=np.arange(12))


def test_node_limit_reported(monkeypatch):
    monkeypatch.setattr(solver, "NODE_LIMIT", 1)
    result = solve_milp(_parity_model())
    # The root is fractional and the rounding heuristic fails, so the
    # limit stops the search before any incumbent exists.
    assert result.status is Status.NODE_LIMIT
    assert result.nodes == 1
    assert result.values is None
    assert math.isnan(result.objective)


def test_integral_relaxation_skips_branching():
    m = _model([[1.0]], [1.0], [1.0], ub=[1.0], binary=[0])
    result = solve_milp(m)
    assert result.status is Status.OPTIMAL
    assert result.objective == pytest.approx(1.0)
    assert result.nodes <= 1


def test_branch_values_outside_a_binarys_bounds_are_infeasible():
    # The relaxation rests at the fractional lower bound 0.3; rounding it,
    # or branching, to 0 leaves the variable's range, so only 1 is feasible.
    m = _model([], [], [-1.0, 1.0], lb=[0.3, 0.0], ub=[1.0, 1.0], binary=[0])
    result = solve_milp(m)
    assert result.status is Status.OPTIMAL
    assert result.values[0] == pytest.approx(1.0)
    assert result.objective == pytest.approx(0.0)


# ------------------------------------------------ warm-started branch and bound

def _highs_milp(model):
    """Reference optimum from scipy's HiGHS MILP, or None if infeasible.

    Presolve is switched off, so that HiGHS solves each model as given,
    none of its small objective coefficients dropped.
    """
    lower = np.where(model.relations == "<=", -np.inf, model.b)
    upper = np.where(model.relations == ">=", np.inf, model.b)
    integrality = np.zeros(model.n, dtype=int)
    integrality[model.binary] = 1
    res = milp(-model.c, constraints=[LinearConstraint(model.A, lower, upper)],
               integrality=integrality, bounds=Bounds(model.lb, model.ub),
               options={"mip_rel_gap": 0.0, "presolve": False})
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun


def _assert_matches_highs(model):
    result = solve_milp(model)
    reference = _highs_milp(model)
    if reference is None:
        assert result.status is Status.INFEASIBLE
        return result
    assert result.status is Status.OPTIMAL
    assert abs(result.objective - reference) <= FEASIBILITY_TOL * (
        1.0 + abs(reference))
    return result


def _random_mixed_binary_model(rng):
    """A bounded model whose rows hold at a random integral point, loosened
    or tightened by a random margin so that some branches, and some whole
    models, are infeasible."""
    nb = int(rng.integers(1, 7))
    nc = int(rng.integers(0, 6))
    n = nb + nc
    lb, ub, c, point = [0.0] * nb, [1.0] * nb, [], []
    for _ in range(nb):
        c.append(float(rng.normal(0, 5)))
        point.append(float(rng.integers(0, 2)))
    for _ in range(nc):
        low = float(rng.uniform(-1.0, 1.0))
        high = low + float(rng.uniform(0.5, 4.0))
        lb.append(low)
        ub.append(high)
        c.append(float(rng.normal(0, 5)))
        point.append(float(rng.uniform(low, high)))
    rows, rhs, relations = [], [], []
    for _ in range(int(rng.integers(1, 7))):
        coeffs = {j: float(rng.normal(0, 2)) for j in range(n)
                  if rng.random() < 0.7}
        if not coeffs:
            continue
        at_point = sum(a * point[j] for j, a in coeffs.items())
        relation = str(rng.choice(["<=", ">=", "="]))
        margin = float(rng.uniform(-1.0, 3.0))
        rows.append(_row(coeffs, n))
        rhs.append({"<=": at_point + margin, ">=": at_point - margin,
                    "=": at_point}[relation])
        relations.append(relation)
    return _model(rows, rhs, c, lb=lb, ub=ub, relations=relations,
                  binary=np.arange(nb))


def test_random_mixed_binary_models_match_highs(monkeypatch):
    warm_statuses = []
    real_resolve = solver._resolve

    def recording_resolve(*args):
        result, child = real_resolve(*args)
        warm_statuses.append(result.status)
        return result, child

    monkeypatch.setattr(solver, "_resolve", recording_resolve)
    rng = np.random.default_rng(20240607)
    outcomes = []
    for _ in range(200):
        model = _random_mixed_binary_model(rng)
        outcomes.append(_assert_matches_highs(model).status)
    assert outcomes.count(Status.OPTIMAL) >= 150
    assert Status.INFEASIBLE in outcomes
    assert warm_statuses.count(Status.INFEASIBLE) >= 20
    assert warm_statuses.count(Status.OPTIMAL) >= 100


def _qatar_period_models(instance, design, epsilons, seeds, safety_stock):
    opening = default_initial_inventory(instance, safety_stock)
    stock = [opening[dc.id] for dc in instance.dcs()]
    template = PeriodTemplate(instance, design, safety_stock)
    for epsilon in epsilons:
        for seed in seeds:
            scenario = sample_scenario(instance, seed)
            retention = linked_retention(instance, design, scenario)
            for t in range(instance.horizon):
                yield build_period_model(template, epsilon, stock,
                                         scenario.demand[:, t].tolist(),
                                         retention[:, t].tolist())


def test_qatar_period_models_match_highs(qatar, qatar_design):
    models = list(_qatar_period_models(qatar, qatar_design, (0.001, 0.1),
                                       (3, 11), 0.4))
    nodes = [_assert_matches_highs(model).nodes for model in models]
    assert nodes == [1] * len(models)  # the root LP is integral
    # At safety stock 0 every reachable threshold is a breakpoint, so the
    # models are the largest the instance gives.
    models = list(_qatar_period_models(qatar, qatar_design, (0.001, 0.1),
                                       (3, 11), 0.0))
    assert {model.A.shape for model in models} == {(73, 100)}
    for model in models:
        _assert_matches_highs(model)


def _random_instance(rng):
    """A small instance: 1-3 regions of 1-3 DCs and 1-3 customers each,
    one zero-std customer, random path weights, warehouses pricing DCs
    uniformly or per DC, and normalization scales given on about half.
    Nutrient thresholds fall below, inside and above the regions' storage,
    so quality curves come linear and with breakpoints, and some
    nutrients never reach a surplus."""
    def point():
        return [float(v) for v in rng.uniform(0.0, 50.0, 2)]

    regions = []
    for r in range(int(rng.integers(1, 4))):
        regions.append({
            "id": f"R{r}", "local_food_cost": float(rng.uniform(10, 30)),
            "average_income": float(rng.uniform(1000, 3000)),
            "residential_areas": int(rng.integers(1, 5)),
            "unfulfilled_unit_cost": float(rng.uniform(1, 10)),
            "dcs": [{"id": f"R{r}D{i}", "location": point(),
                     "capacity": float(rng.uniform(50, 300)),
                     "inventory_unit_cost": float(rng.uniform(0.5, 10))}
                    for i in range(int(rng.integers(1, 4)))],
            "customers": [{"id": f"R{r}C{i}", "location": point()}
                          for i in range(int(rng.integers(1, 4)))]})
    regions[-1]["customers"][0]["demand"] = {
        "family": "normal", "mean": float(rng.uniform(10, 60)), "std": 0.0}
    dc_ids = [dc["id"] for region in regions for dc in region["dcs"]]
    warehouses = []
    for w in range(int(rng.integers(1, 4))):
        # The first warehouse prices every DC, so each DC has a link.
        cost = {dc: float(rng.uniform(1, 5)) for dc in dc_ids
                if w == 0 or rng.random() < 0.6}
        warehouses.append({
            "id": f"W{w}", "location": point(),
            "capacity": float(rng.uniform(100, 600)),
            "order_unit_cost": cost if rng.random() < 0.5 or not cost
            else float(rng.uniform(1, 5))})
    nutrients = []
    for k in range(int(rng.integers(1, 4))):
        content = float(rng.uniform(0.001, 0.2))
        threshold = float(rng.uniform(0.0, 1.3)) * 300.0
        nutrients.append({"id": f"N{k}", "weight": float(rng.uniform(0.5, 2)),
                          "per_kg_content": content,
                          "min_requirement": threshold * content / 250.0})
    low = float(rng.uniform(0.6, 0.85))
    data = {
        "horizon": int(rng.integers(2, 4)), "safety_stock_fraction": 0.2,
        "persons_per_area": 100,
        "stochastic": {
            "demand": {"family": "normal", "mean": float(rng.uniform(10, 60)),
                       "std": float(rng.uniform(1, 20))},
            "supply_loss": {"family": "uniform", "low": low,
                            "high": low + float(rng.uniform(0.0, 0.1))}},
        "warehouses": warehouses, "regions": regions, "nutrients": nutrients,
        "path_weights": [
            {"dc": dc["id"], "customer": c["id"],
             "factor": float(rng.uniform(0.5, 2.0))}
            for region in regions for dc in region["dcs"]
            for c in region["customers"] if rng.random() < 0.3]}
    if rng.random() < 0.5:
        data["normalization_scales"] = {
            "affordability": float(rng.uniform(0.005, 0.05)),
            "transportation": float(rng.uniform(1e3, 5e4)),
            "quality": float(rng.uniform(1, 100))}
    return instance_from_dict(data)


def test_generated_instances_match_highs_and_audit_clean(monkeypatch):
    models = []
    real_solve = stochastic.solve_milp

    def recording_solve(model, **kwargs):
        models.append(model)
        return real_solve(model, **kwargs)

    monkeypatch.setattr(stochastic, "solve_milp", recording_solve)
    rng = np.random.default_rng(20261019)
    given_scales = 0
    for _ in range(40):
        instance = _random_instance(rng)
        given_scales += instance.normalization_scales is not None
        design = assign_linkages(
            instance, {dc.id: dc.location for dc in instance.dcs()})
        epsilon = float(rng.choice([0.001, 0.05, 1.0]))
        seed = int(rng.integers(2 ** 32))
        for safety_stock in (0.0, 0.4):
            config = StochasticConfig(replications=1, safety_stock=safety_stock)
            result = run_replication(instance, design, epsilon, seed,
                                     config=config)
            assert audit_replication(instance, design, result) == []
    nodes = [_assert_matches_highs(model).nodes for model in models]
    assert 0 < given_scales < 40
    assert sum(len(model.binary) > 0 for model in models) >= len(models) // 4
    assert sum(n > 1 for n in nodes) >= 10  # some of them branch


def test_warm_children_match_cold_solves(qatar, qatar_design, monkeypatch):
    real_resolve = solver._resolve
    checked = []

    def compared_resolve(parent, start, cols, values):
        warm, child = real_resolve(parent, start, cols, values)
        lb, ub = parent.lb.copy(), parent.ub.copy()
        lb[cols] = values
        ub[cols] = values
        cold = solver._solve_canon(DenseModel(
            parent.A, parent.b, parent.c, lb, ub, relations=parent.relations,
            binary=parent.binary))
        assert warm.status is cold.status
        if cold.status is Status.OPTIMAL:
            assert abs(warm.objective - cold.objective) <= FEASIBILITY_TOL * (
                1.0 + abs(cold.objective))
        checked.append(cold.status)
        return warm, child

    monkeypatch.setattr(solver, "_resolve", compared_resolve)
    # At safety stock 0 with every DC half full, each region's stock can
    # end on either side of several breakpoints, and the model branches.
    template = PeriodTemplate(qatar, qatar_design, 0.0)
    scenario = sample_scenario(qatar, 5)
    retention = linked_retention(qatar, qatar_design, scenario)
    model = build_period_model(
        template, 0.001, [0.5 * dc.capacity for dc in qatar.dcs()],
        scenario.demand[:, 0].tolist(), retention[:, 0].tolist())
    result = solve_milp(model)
    assert result.status is Status.OPTIMAL
    assert result.nodes >= 5
    assert len(checked) == result.nodes  # every child plus the heuristic


def test_warm_roots_match_cold_solves(qatar, qatar_design, monkeypatch):
    real_solve = solver._solve_canon
    iterations = {"cold": 0, "warm": 0}
    starts = []

    def compared_solve(canon, start=None):
        warm = real_solve(canon, start)
        if start is not None:
            cold = real_solve(canon)
            assert warm.status is cold.status
            if cold.status is Status.OPTIMAL:
                assert abs(warm.objective - cold.objective) <= FEASIBILITY_TOL * (
                    1.0 + abs(cold.objective))
            iterations["cold"] += cold.iterations
            iterations["warm"] += warm.iterations
        starts.append(start)
        return warm

    monkeypatch.setattr(solver, "_solve_canon", compared_solve)
    for safety_stock in (0.4, 0.9):
        config = StochasticConfig(replications=1, safety_stock=safety_stock)
        for epsilon in (0.001, 0.1):
            for seed in (5, 13):
                result = run_replication(qatar, qatar_design, epsilon, seed,
                                         config=config)
                assert audit_replication(qatar, qatar_design, result) == []
    # Every period after the first starts from its predecessor's basis,
    # and the start saves pivots.
    assert [start is not None for start in starts] == 8 * (
        [False] + [True] * (qatar.horizon - 1))
    assert iterations["warm"] < iterations["cold"] / 2
