"""Simplex and branch-and-bound kernel against closed forms, enumeration,
and scipy."""

import copy
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from chainforge import milp as solver
from chainforge import stochastic
from chainforge.errors import ValidationError
from chainforge.gfa import assign_linkages
from chainforge.milp import FEASIBILITY_TOL, LinearModel, Status, solve_milp
from chainforge.model import instance_from_dict
from chainforge.stochastic import (PeriodTemplate, StochasticConfig,
                                   audit_replication, build_period_model,
                                   default_initial_inventory,
                                   linked_retention, run_replication,
                                   sample_scenario)


def test_two_variable_lp_known_vertex():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    m = LinearModel()
    x = m.add_variable("x", objective=3.0)
    y = m.add_variable("y", objective=5.0)
    m.add_constraint({x: 1.0}, "<=", 4.0)
    m.add_constraint({y: 2.0}, "<=", 12.0)
    m.add_constraint({x: 3.0, y: 2.0}, "<=", 18.0)
    result = solve_milp(m)
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
    result = solve_milp(m)
    assert result.status is Status.OPTIMAL
    assert result.objective == pytest.approx(10.0)
    assert result.value(y) <= 4.0 + 1e-9


def test_objective_offset_carried():
    m = LinearModel()
    x = m.add_variable("x", ub=2.0, objective=1.0)
    m.objective_offset = 7.5
    result = solve_milp(m)
    assert result.objective == pytest.approx(9.5)


def test_infeasible_detected():
    m = LinearModel()
    x = m.add_variable("x", ub=1.0)
    m.add_constraint({x: 1.0}, ">=", 2.0)
    assert solve_milp(m).status is Status.INFEASIBLE


def test_unbounded_detected():
    m = LinearModel()
    m.add_variable("x", objective=1.0)
    assert solve_milp(m).status is Status.UNBOUNDED


def test_degenerate_fixed_variable():
    m = LinearModel()
    x = m.add_variable("x", lb=3.0, ub=3.0, objective=2.0)
    y = m.add_variable("y", ub=5.0, objective=1.0)
    m.add_constraint({x: 1.0, y: 1.0}, "<=", 6.0)
    result = solve_milp(m)
    assert result.objective == pytest.approx(9.0)
    assert result.value(x) == pytest.approx(3.0)


def test_validation_rejects_bad_models():
    m = LinearModel()
    m.add_variable("x", lb=-np.inf)
    with pytest.raises(ValidationError):
        m.dense()
    m2 = LinearModel()
    m2.add_variable("x", lb=2.0, ub=1.0)
    with pytest.raises(ValidationError):
        m2.dense()
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


def _dense(model):
    """The arrays of a LinearModel or of a DenseModel, which every reference
    below reads."""
    return model.dense() if isinstance(model, LinearModel) else model


def _linprog_rows(model):
    """The model's rows as linprog's A_ub/b_ub/A_eq/b_eq keywords."""
    d = _dense(model)
    sign = np.where(d.relations == ">=", -1.0, 1.0)
    ub, eq = d.relations != "=", d.relations == "="
    return {"A_ub": (sign[:, None] * d.A)[ub] if ub.any() else None,
            "b_ub": (sign * d.b)[ub] if ub.any() else None,
            "A_eq": d.A[eq] if eq.any() else None,
            "b_eq": d.b[eq] if eq.any() else None}


def _enumerate_milp(model):
    """Reference optimum: enumerate binaries, solve the rest with scipy."""
    d = _dense(model)
    best = None
    for combo in itertools.product([0.0, 1.0], repeat=len(d.binary)):
        lower, upper = d.lb.copy(), d.ub.copy()
        lower[d.binary] = upper[d.binary] = combo
        res = linprog(-d.c, **_linprog_rows(d), bounds=list(zip(lower, upper)),
                      method="highs")
        if res.status == 0:
            value = -res.fun + d.offset
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
        assert result.status is Status.OPTIMAL
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
        result = solve_milp(m)
        c = [-m.objective[j] for j in range(n)]
        a_ub = [[row.get(j, 0.0) for j in range(n)] for row in m.rows]
        res = linprog(c, A_ub=a_ub, b_ub=m.rhs,
                      bounds=[(m.lower[j], m.upper[j]) for j in range(n)],
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
    m = LinearModel()
    point = []
    for i in range(n):
        lb = float(rng.uniform(-1.0, 1.0))
        if rng.random() < 0.5:
            m.add_variable(f"x{i}", lb=lb,
                           objective=float(abs(rng.normal(0, 3))))
            point.append(lb + float(rng.uniform(0.0, 3.0)))
        else:
            ub = lb + float(rng.uniform(0.5, 4.0))
            m.add_variable(f"x{i}", lb=lb, ub=ub,
                           objective=float(rng.normal(0, 3)))
            point.append(float(rng.uniform(lb, ub)))
    for _ in range(int(rng.integers(1, 8))):
        coeffs = {j: float(rng.normal(0, 2)) for j in range(n)
                  if rng.random() < 0.7}
        if not coeffs:
            continue
        at_point = sum(a * point[j] for j, a in coeffs.items())
        relation = str(rng.choice(["<=", ">=", "="]))
        margin = float(rng.uniform(-1.0, 3.0))
        rhs = {"<=": at_point + margin, ">=": at_point - margin,
               "=": at_point}[relation]
        m.add_constraint(coeffs, relation, rhs)
        if relation == "=" and rng.random() < 0.5:
            m.add_constraint(coeffs, relation, rhs)
    return m


def test_random_lps_with_unbounded_gains_match_highs():
    statuses = {0: Status.OPTIMAL, 2: Status.INFEASIBLE, 3: Status.UNBOUNDED}
    rng = np.random.default_rng(20261018)
    outcomes = []
    for _ in range(300):
        model = _random_lp_with_unbounded_gains(rng)
        reference = linprog(
            [-c for c in model.objective], **_linprog_rows(model),
            bounds=list(zip(model.lower, model.upper)), method="highs",
            options={"presolve": False})
        result = solve_milp(model)
        assert result.status is statuses[reference.status]
        if result.status is Status.OPTIMAL:
            assert abs(result.objective + reference.fun) <= FEASIBILITY_TOL * (
                1.0 + abs(reference.fun))
        outcomes.append(result.status)
    assert outcomes.count(Status.OPTIMAL) >= 100
    assert Status.INFEASIBLE in outcomes
    assert Status.UNBOUNDED in outcomes


def _sibling(model, rng):
    """The model with its right-hand sides and bounds moved at random.
    Rows with equal coefficients move together, so twin equalities stay
    consistent."""
    twin = copy.deepcopy(model)
    shifts = {}
    for i, (row, relation) in enumerate(zip(twin.rows, twin.relations)):
        key = (relation, tuple(sorted(row.items())))
        twin.rhs[i] += shifts.setdefault(key, float(rng.normal(0, 0.5)))
    for j in range(twin.num_variables):
        lb = twin.lower[j] + float(rng.normal(0, 0.3))
        if math.isfinite(twin.upper[j]):
            span = twin.upper[j] - twin.lower[j]
            twin.upper[j] = lb + span * float(rng.uniform(0.5, 1.5))
        twin.lower[j] = lb
    return twin


def test_root_start_falls_back_or_matches_highs():
    # A start that does not fit the model gives the slack-basis result.
    m = LinearModel()
    x = m.add_variable("x", ub=4.0, objective=3.0)
    y = m.add_variable("y", objective=5.0)
    m.add_variable("idle", ub=1.0)  # in no row, so its column of A is zero
    m.add_constraint({x: 1.0, y: 2.0}, "<=", 12.0)
    m.add_constraint({x: 3.0, y: 2.0}, "<=", 18.0)
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
            [-c for c in model.objective], **_linprog_rows(model),
            bounds=list(zip(model.lower, model.upper)), method="highs",
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
    # The root is fractional and the rounding heuristic fails, so the
    # limit stops the search before any incumbent exists.
    assert result.status is Status.NODE_LIMIT
    assert result.nodes == 1
    assert result.values is None


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

    Presolve is switched off, so that HiGHS solves each model as given,
    none of its small objective coefficients dropped.
    """
    d = _dense(model)
    lower = np.where(d.relations == "<=", -np.inf, d.b)
    upper = np.where(d.relations == ">=", np.inf, d.b)
    integrality = np.zeros(d.n, dtype=int)
    integrality[d.binary] = 1
    res = milp(-d.c, constraints=[LinearConstraint(d.A, lower, upper)],
               integrality=integrality, bounds=Bounds(d.lb, d.ub),
               options={"mip_rel_gap": 0.0, "presolve": False})
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun + d.offset


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


def _qatar_period_models(instance, design, epsilons, seeds, safety_stock):
    opening = default_initial_inventory(instance, safety_stock)
    stock = [opening[dc.id] for dc in instance.dcs()]
    for epsilon in epsilons:
        template = PeriodTemplate(instance, design, epsilon, safety_stock)
        for seed in seeds:
            scenario = sample_scenario(instance, seed)
            retention = linked_retention(instance, design, scenario)
            for t in range(instance.horizon):
                yield build_period_model(template, stock,
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

    def compared_resolve(parent, cols, values):
        warm, tab = real_resolve(parent, cols, values)
        lb = parent.lb.copy()
        ub = parent.lb + parent.U[:parent.canon.n]
        lb[cols] = values
        ub[cols] = values
        cold, _ = solver._solve_canon(parent.canon, lb, ub)
        assert warm.status is cold.status
        if cold.status is Status.OPTIMAL:
            assert abs(warm.objective - cold.objective) <= FEASIBILITY_TOL * (
                1.0 + abs(cold.objective))
        checked.append(cold.status)
        return warm, tab

    monkeypatch.setattr(solver, "_resolve", compared_resolve)
    # At safety stock 0 with every DC half full, each region's stock can
    # end on either side of several breakpoints, and the model branches.
    template = PeriodTemplate(qatar, qatar_design, 0.001, 0.0)
    scenario = sample_scenario(qatar, 5)
    retention = linked_retention(qatar, qatar_design, scenario)
    model = build_period_model(
        template, [0.5 * dc.capacity for dc in qatar.dcs()],
        scenario.demand[:, 0].tolist(), retention[:, 0].tolist())
    result = solve_milp(model)
    assert result.status is Status.OPTIMAL
    assert result.nodes >= 5
    assert len(checked) == result.nodes  # every child plus the heuristic


def test_warm_roots_match_cold_solves(qatar, qatar_design, monkeypatch):
    real_solve = solver._solve_canon
    iterations = {"cold": 0, "warm": 0}
    starts = []

    def compared_solve(canon, lb, ub, start=None):
        warm, tab = real_solve(canon, lb, ub, start)
        if start is not None:
            cold, _ = real_solve(canon, lb, ub)
            assert warm.status is cold.status
            if cold.status is Status.OPTIMAL:
                assert abs(warm.objective - cold.objective) <= FEASIBILITY_TOL * (
                    1.0 + abs(cold.objective))
            iterations["cold"] += cold.iterations
            iterations["warm"] += warm.iterations
        starts.append(start)
        return warm, tab

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
