"""Simplex and branch-and-bound kernel against closed forms, enumeration,
and scipy."""

import itertools

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from chainforge import milp as solver
from chainforge.errors import ValidationError
from chainforge.milp import (FEASIBILITY_TOL, LinearModel, Status, solve_lp,
                             solve_milp)
from chainforge.stochastic import (build_period_model,
                                   default_initial_inventory, sample_scenario)


def test_two_variable_lp_known_vertex():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    m = LinearModel()
    x = m.add_variable("x", objective=3.0)
    y = m.add_variable("y", objective=5.0)
    m.add_constraint({x: 1.0}, "<=", 4.0)
    m.add_constraint({y: 2.0}, "<=", 12.0)
    m.add_constraint({x: 3.0, y: 2.0}, "<=", 18.0)
    result = solve_lp(m)
    assert result.status is Status.OPTIMAL
    assert result.objective == pytest.approx(36.0)
    assert result.value(x) == pytest.approx(2.0)
    assert result.value(y) == pytest.approx(6.0)


def test_equality_and_geq_rows():
    # max x + y s.t. x + y = 10, x >= 3, y <= 4
    m = LinearModel()
    x = m.add_variable("x")
    y = m.add_variable("y", ub=4.0)
    m.objective[x] = 1.0
    m.objective[y] = 1.0
    m.add_constraint({x: 1.0, y: 1.0}, "=", 10.0)
    m.add_constraint({x: 1.0}, ">=", 3.0)
    result = solve_lp(m)
    assert result.status is Status.OPTIMAL
    assert result.objective == pytest.approx(10.0)
    assert result.value(y) <= 4.0 + 1e-9


def test_objective_offset_carried():
    m = LinearModel()
    x = m.add_variable("x", ub=2.0, objective=1.0)
    m.objective_offset = 7.5
    result = solve_lp(m)
    assert result.objective == pytest.approx(9.5)


def test_infeasible_detected():
    m = LinearModel()
    x = m.add_variable("x", ub=1.0)
    m.add_constraint({x: 1.0}, ">=", 2.0)
    assert solve_lp(m).status is Status.INFEASIBLE


def test_unbounded_detected():
    m = LinearModel()
    m.add_variable("x", objective=1.0)
    assert solve_lp(m).status is Status.UNBOUNDED


def test_degenerate_fixed_variable():
    m = LinearModel()
    x = m.add_variable("x", lb=3.0, ub=3.0, objective=2.0)
    y = m.add_variable("y", ub=5.0, objective=1.0)
    m.add_constraint({x: 1.0, y: 1.0}, "<=", 6.0)
    result = solve_lp(m)
    assert result.objective == pytest.approx(9.0)
    assert result.value(x) == pytest.approx(3.0)


def test_validation_rejects_bad_models():
    m = LinearModel()
    m.add_variable("x", lb=-np.inf)
    with pytest.raises(ValidationError):
        m.validate()
    m2 = LinearModel()
    m2.add_variable("x", lb=2.0, ub=1.0)
    with pytest.raises(ValidationError):
        m2.validate()
    m3 = LinearModel()
    with pytest.raises(ValidationError):
        m3.add_constraint({0: 1.0}, "<>", 1.0)


def test_binary_knapsack_matches_enumeration():
    values = [6.0, 10.0, 12.0, 7.0]
    weights = [1.0, 2.0, 3.0, 2.0]
    m = LinearModel()
    cols = [m.add_variable(f"b{i}", objective=values[i], binary=True)
            for i in range(4)]
    m.add_constraint({cols[i]: weights[i] for i in range(4)}, "<=", 5.0)
    result = solve_milp(m)
    best = max(
        sum(v for v, pick in zip(values, picks) if pick)
        for picks in itertools.product([0, 1], repeat=4)
        if sum(w for w, pick in zip(weights, picks) if pick) <= 5.0)
    assert result.status is Status.OPTIMAL
    assert result.objective == pytest.approx(best)
    for c in cols:
        assert result.value(c) in (pytest.approx(0.0), pytest.approx(1.0))


def test_mixed_integer_with_continuous_part():
    # max 4b + x s.t. x <= 3 + 2b, x <= 4; enumeration over b.
    m = LinearModel()
    b = m.add_variable("b", binary=True, objective=4.0)
    x = m.add_variable("x", ub=4.0, objective=1.0)
    m.add_constraint({x: 1.0, b: -2.0}, "<=", 3.0)
    result = solve_milp(m)
    assert result.objective == pytest.approx(8.0)  # b=1, x=4
    assert result.value(b) == pytest.approx(1.0)


def _random_model(rng, max_binaries=4, max_continuous=4):
    nb = int(rng.integers(0, max_binaries + 1))
    nc = int(rng.integers(0, max_continuous + 1))
    if nb + nc == 0:
        nc = 1
    m = LinearModel()
    cols = []
    for i in range(nb):
        cols.append(m.add_variable(
            f"b{i}", objective=float(rng.normal(0, 5)), binary=True))
    for i in range(nc):
        cols.append(m.add_variable(
            f"x{i}", ub=float(rng.uniform(0.5, 4.0)),
            objective=float(rng.normal(0, 5))))
    rows = int(rng.integers(1, 5))
    for _ in range(rows):
        coeffs = {c: float(rng.normal(0, 2)) for c in cols
                  if rng.random() < 0.7}
        relation = rng.choice(["<=", ">=", "="]) if coeffs else "<="
        rhs = float(rng.uniform(-2.0, 6.0))
        if relation == "=":
            # Keep equalities satisfiable: pin them near a feasible point.
            mid = sum(a * 0.5 for a in coeffs.values())
            rhs = mid
        m.add_constraint(coeffs, str(relation), rhs)
    return m, nb, nc


def _enumerate_milp(model):
    """Reference optimum: enumerate binaries, solve the rest with scipy."""
    binaries = [j for j in range(model.num_variables) if model.is_binary[j]]
    best = None
    n = model.num_variables
    for combo in itertools.product([0.0, 1.0], repeat=len(binaries)):
        fixed = dict(zip(binaries, combo))
        c = [-model.objective[j] for j in range(n)]
        bounds = []
        for j in range(n):
            if j in fixed:
                bounds.append((fixed[j], fixed[j]))
            else:
                bounds.append((model.lower[j], model.upper[j]))
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for row, relation, rhs in zip(model.rows, model.relations, model.rhs):
            dense = [row.get(j, 0.0) for j in range(n)]
            if relation == "<=":
                a_ub.append(dense)
                b_ub.append(rhs)
            elif relation == ">=":
                a_ub.append([-a for a in dense])
                b_ub.append(-rhs)
            else:
                a_eq.append(dense)
                b_eq.append(rhs)
        res = linprog(c, A_ub=a_ub or None, b_ub=b_ub or None,
                      A_eq=a_eq or None, b_eq=b_eq or None, bounds=bounds,
                      method="highs")
        if res.status == 0:
            value = -res.fun + model.objective_offset
            if best is None or value > best:
                best = value
    return best


def test_random_models_match_enumeration():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(60):
        model, nb, nc = _random_model(rng)
        result = solve_milp(model, node_limit=20_000)
        reference = _enumerate_milp(model)
        if reference is None:
            assert result.status in (Status.INFEASIBLE, Status.UNBOUNDED)
            continue
        if result.status is Status.UNBOUNDED:
            continue  # scipy treats huge finite optima as feasible
        assert result.status is Status.OPTIMAL, model.name
        assert result.objective == pytest.approx(reference, abs=1e-6)
        checked += 1
    assert checked >= 25


def test_pure_lp_against_scipy():
    rng = np.random.default_rng(99)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        m = LinearModel()
        cols = [m.add_variable(f"x{i}", ub=float(rng.uniform(1.0, 5.0)),
                               objective=float(rng.normal(0, 3)))
                for i in range(n)]
        for _ in range(int(rng.integers(1, 4))):
            coeffs = {c: float(rng.normal(0, 1)) for c in cols}
            m.add_constraint(coeffs, "<=", float(rng.uniform(0.5, 5.0)))
        result = solve_lp(m)
        c = [-m.objective[j] for j in range(n)]
        a_ub = [[row.get(j, 0.0) for j in range(n)] for row in m.rows]
        res = linprog(c, A_ub=a_ub, b_ub=m.rhs,
                      bounds=[(m.lower[j], m.upper[j]) for j in range(n)],
                      method="highs")
        assert result.status is Status.OPTIMAL
        assert res.status == 0
        assert result.objective == pytest.approx(-res.fun, abs=1e-7)


def test_node_limit_reported():
    # A tightly coupled parity-style model that needs real branching.
    rng = np.random.default_rng(3)
    m = LinearModel()
    cols = [m.add_variable(f"b{i}", objective=float(rng.uniform(1, 2)),
                           binary=True)
            for i in range(12)]
    for _ in range(6):
        coeffs = {c: float(rng.uniform(0.5, 1.5)) for c in cols}
        m.add_constraint(coeffs, "<=", float(rng.uniform(2.0, 4.0)))
    result = solve_milp(m, node_limit=1)
    assert result.nodes <= 1 or result.limit_hit


def test_integral_relaxation_skips_branching():
    m = LinearModel()
    b = m.add_variable("b", binary=True, objective=1.0)
    m.add_constraint({b: 1.0}, "<=", 1.0)
    result = solve_milp(m)
    assert result.status is Status.OPTIMAL
    assert result.objective == pytest.approx(1.0)
    assert result.nodes <= 1


def test_branch_values_outside_a_binarys_bounds_are_infeasible():
    # The relaxation rests at the fractional lower bound 0.3; rounding it,
    # or branching, to 0 leaves the variable's range, so only 1 is feasible.
    m = LinearModel()
    b = m.add_variable("b", lb=0.3, binary=True, objective=-1.0)
    m.add_variable("x", ub=1.0, objective=1.0)
    result = solve_milp(m)
    assert result.status is Status.OPTIMAL
    assert result.value(b) == pytest.approx(1.0)
    assert result.objective == pytest.approx(0.0)


# ------------------------------------------------ warm-started branch and bound

def _highs_milp(model):
    """Reference optimum from scipy's HiGHS MILP, or None if infeasible.

    HiGHS presolve treats the period models' 1e-8 surplus rewards as zero
    and settles about 0.004 lower, so it is switched off.
    """
    n = model.num_variables
    A = np.zeros((model.num_constraints, n))
    for i, row in enumerate(model.rows):
        for j, a in row.items():
            A[i, j] = a
    rhs = np.array(model.rhs)
    lower = np.where([r == "<=" for r in model.relations], -np.inf, rhs)
    upper = np.where([r == ">=" for r in model.relations], np.inf, rhs)
    res = milp(-np.array(model.objective),
               constraints=[LinearConstraint(A, lower, upper)],
               integrality=np.array(model.is_binary, dtype=int),
               bounds=Bounds(model.lower, model.upper),
               options={"mip_rel_gap": 0.0, "presolve": False})
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun + model.objective_offset


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
    m = LinearModel()
    point = []
    for i in range(nb):
        m.add_variable(f"b{i}", objective=float(rng.normal(0, 5)), binary=True)
        point.append(float(rng.integers(0, 2)))
    for i in range(nc):
        lb = float(rng.uniform(-1.0, 1.0))
        ub = lb + float(rng.uniform(0.5, 4.0))
        m.add_variable(f"x{i}", lb=lb, ub=ub, objective=float(rng.normal(0, 5)))
        point.append(float(rng.uniform(lb, ub)))
    for _ in range(int(rng.integers(1, 7))):
        coeffs = {j: float(rng.normal(0, 2)) for j in range(nb + nc)
                  if rng.random() < 0.7}
        if not coeffs:
            continue
        at_point = sum(a * point[j] for j, a in coeffs.items())
        relation = str(rng.choice(["<=", ">=", "="]))
        margin = float(rng.uniform(-1.0, 3.0))
        rhs = {"<=": at_point + margin, ">=": at_point - margin,
               "=": at_point}[relation]
        m.add_constraint(coeffs, relation, rhs)
    return m


def test_random_mixed_binary_models_match_highs(monkeypatch):
    warm_statuses = []
    real_resolve = solver._resolve

    def recording_resolve(*args):
        result, tab = real_resolve(*args)
        warm_statuses.append(result.status)
        return result, tab

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


def _qatar_period_models(instance, design, epsilons, seeds):
    opening = default_initial_inventory(instance, 0.4)
    for epsilon in epsilons:
        for seed in seeds:
            scenario = sample_scenario(instance, seed)
            for t in range(instance.horizon):
                demands = {c.id: scenario.demands[(c.id, t)]
                           for c in instance.customers()}
                factors = {
                    (design.dc_warehouse[dc.id], dc.id):
                    scenario.supply_factors[(design.dc_warehouse[dc.id], dc.id, t)]
                    for dc in instance.dcs()}
                yield build_period_model(instance, design, opening, demands,
                                         factors, epsilon, t,
                                         safety_stock=0.4)[0]


def test_qatar_period_models_match_highs(qatar, qatar_design):
    models = list(_qatar_period_models(qatar, qatar_design, (0.001, 0.1),
                                       (3, 11)))
    nodes = [_assert_matches_highs(model).nodes for model in models]
    assert sum(n > 1 for n in nodes) >= len(models) // 2  # they branch


def test_warm_children_match_cold_solves(qatar, qatar_design, monkeypatch):
    real_resolve = solver._resolve
    checked = []

    def compared_resolve(parent, cols, values, max_iter):
        warm, tab = real_resolve(parent, cols, values, max_iter)
        lb = parent.lb.copy()
        ub = parent.lb + parent.U[:parent.canon.n]
        lb[cols] = values
        ub[cols] = values
        cold, _ = solver._solve_canon(parent.canon, lb, ub, max_iter)
        assert warm.status is cold.status
        if cold.status is Status.OPTIMAL:
            assert abs(warm.objective - cold.objective) <= FEASIBILITY_TOL * (
                1.0 + abs(cold.objective))
        checked.append(cold.status)
        return warm, tab

    monkeypatch.setattr(solver, "_resolve", compared_resolve)
    model = next(_qatar_period_models(qatar, qatar_design, (0.001,), (5,)))
    result = solve_milp(model)
    assert result.status is Status.OPTIMAL
    assert result.nodes >= 5
    assert len(checked) == result.nodes  # every child plus the heuristic
