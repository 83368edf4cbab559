"""Front extraction, the epsilon grid, CSV formats, and the sweep."""

import math
import multiprocessing
import re
import signal

import numpy as np
import pytest

from chainforge import milp
from chainforge.errors import DomainError, ParseError
from chainforge.model import instance_from_dict
from chainforge.pareto import (CSV_COLUMNS, epsilon_grid, extract_front,
                               read_solutions_csv, render_front_svg, sweep,
                               write_front_csv, write_solutions_csv)
from chainforge.stochastic import (EstimateResult, StochasticConfig,
                                   replication_seeds, run_replication)
from conftest import branching_tiny_dict, tiny_dict


def make(epsilon, z1, z2):
    return EstimateResult(epsilon=epsilon, z1=z1, z1_se=0.0, z2=z2,
                          z2_se=0.0, inventory_cost=0.0,
                          unfulfilled_cost=0.0, order_cost=0.0)


def oracle_front(solutions):
    """Quadratic reference: pairwise dominance plus tie collapse."""
    def dominated(s):
        return any(
            o.z1 >= s.z1 and o.z2 <= s.z2 and (o.z1 > s.z1 or o.z2 < s.z2)
            for o in solutions)

    keep = [s for s in solutions if not dominated(s)]
    best = {}
    for s in keep:
        key = (s.z1, s.z2)
        if key not in best or s.epsilon < best[key].epsilon:
            best[key] = s
    return sorted(best.values(), key=lambda s: s.z2)


# ----------------------------------------------------------------- grid

def test_epsilon_grid_geometric():
    grid = epsilon_grid(0.001, 1.0, 10)
    assert len(grid) == 10
    assert grid[0] == 0.001
    assert grid[-1] == 1.0
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)


def test_epsilon_grid_single_point():
    assert epsilon_grid(0.5, 2.0, 1) == (0.5,)


@pytest.mark.parametrize("low, high, steps", [
    (0.0, 1.0, 5), (-1.0, 1.0, 5), (1.0, 0.5, 5), (0.1, 1.0, 0),
    (math.nan, 1.0, 3), (0.1, math.inf, 3), (0.1, math.nan, 2),
    (1e-300, 1e300, 3),
])
def test_epsilon_grid_rejects(low, high, steps):
    with pytest.raises(DomainError):
        epsilon_grid(low, high, steps)


# ---------------------------------------------------------------- front

def test_front_by_hand():
    # (z1, z2) points (5,10), (4,8), (3,9): the last is beaten by (4,8).
    pool = [make(0.1, 5, 10), make(0.2, 4, 8), make(0.3, 3, 9)]
    front = extract_front(pool)
    assert [(s.z1, s.z2) for s in front] == [(4, 8), (5, 10)]


def test_front_collapses_coordinate_ties_to_lowest_epsilon():
    pool = [make(0.3, 4, 8), make(0.1, 4, 8), make(0.2, 4, 8)]
    front = extract_front(pool)
    assert len(front) == 1
    assert front[0].epsilon == 0.1


def test_front_equal_cost_keeps_best_accessibility():
    pool = [make(0.1, 3, 8), make(0.2, 5, 8), make(0.3, 4, 8)]
    front = extract_front(pool)
    assert [(s.z1, s.z2) for s in front] == [(5, 8)]


def test_front_single_point():
    front = extract_front([make(1.0, 2.0, 3.0)])
    assert len(front) == 1


def test_front_empty_pool_rejected():
    with pytest.raises(DomainError):
        extract_front([])


def test_front_matches_oracle_on_random_points():
    rng = np.random.default_rng(17)
    pool = [make(float(rng.uniform(0, 1)),
                 float(rng.integers(0, 30)),
                 float(rng.integers(0, 30)))
            for _ in range(300)]
    fast = extract_front(pool)
    slow = oracle_front(pool)
    assert [(s.epsilon, s.z1, s.z2) for s in fast] == \
        [(s.epsilon, s.z1, s.z2) for s in slow]


def test_front_is_strictly_monotone():
    rng = np.random.default_rng(23)
    pool = [make(float(rng.uniform(0, 1)), float(rng.normal(0, 5)),
                 float(rng.normal(0, 5)))
            for _ in range(200)]
    front = extract_front(pool)
    for a, b in zip(front, front[1:]):
        assert b.z2 > a.z2
        assert b.z1 > a.z1


# ------------------------------------------------------------------ csv

def test_solutions_csv_round_trip(tmp_path):
    pool = [
        EstimateResult(epsilon=0.125, z1=1.5, z1_se=0.01, z2=1e6,
                       z2_se=123.456789, inventory_cost=7e5,
                       unfulfilled_cost=2e5, order_cost=1e5),
        EstimateResult(epsilon=0.25, z1=1.25, z1_se=0.0, z2=9e5,
                       z2_se=0.0, inventory_cost=6e5,
                       unfulfilled_cost=2e5, order_cost=1e5),
    ]
    path = str(tmp_path / "solutions.csv")
    write_solutions_csv(path, pool)
    back = read_solutions_csv(path)
    assert back == pool
    text = open(path).read()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert "e+06" not in text.split("\n")[0]


def test_solutions_csv_nine_significant_digits(tmp_path):
    sol = EstimateResult(epsilon=1 / 3, z1=math.pi, z1_se=0.0, z2=1e7 / 3,
                         z2_se=0.0, inventory_cost=0.0, unfulfilled_cost=0.0,
                         order_cost=0.0)
    path = str(tmp_path / "s.csv")
    write_solutions_csv(path, [sol])
    row = open(path).read().splitlines()[1].split(",")
    assert row[0] == "0.333333333"
    assert row[1] == "3.14159265"


def test_solutions_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("epsilon,who\n1,2\n")
    with pytest.raises(ParseError, match="header"):
        read_solutions_csv(str(path))


def test_solutions_csv_bad_value_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    header = ",".join(CSV_COLUMNS)
    # A non-finite Z2 would fall out of every cost group in extract_front.
    for row in ("0.1,a,0,1,0,0,0,0", "0.1,1,0,nan,0,0,0,0",
                "0.1,1,0,inf,0,0,0,0"):
        path.write_text(header + "\n" + row + "\n")
        with pytest.raises(ParseError, match=r"bad\.csv:2"):
            read_solutions_csv(str(path))


def test_front_csv_marks_members(tmp_path):
    pool = [make(0.1, 5, 10), make(0.2, 4, 8), make(0.3, 3, 9)]
    path = str(tmp_path / "front.csv")
    write_front_csv(path, pool)
    lines = open(path).read().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS) + ",on_front"
    flags = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert flags == ["1", "1", "0"]


# ------------------------------------------------------------------ svg

def test_front_svg_deterministic(tmp_path):
    pool = [make(0.1, 5, 10), make(0.2, 4, 8), make(0.3, 3, 9)]
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    render_front_svg(str(a), pool)
    render_front_svg(str(b), pool)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<svg")
    assert "stroke-dasharray" in text  # front polyline
    assert text.count("circle") >= 3


def test_front_svg_single_solution(tmp_path):
    path = tmp_path / "one.svg"
    render_front_svg(str(path), [make(0.5, 1, 1)])
    text = path.read_text()
    assert "circle" in text
    assert "stroke-dasharray" not in text  # no polyline for one point


def test_front_svg_returns_when_the_tick_step_is_below_an_ulp(tmp_path):
    # Z2 spans one ulp of 1e6, so the Z2 tick step is below half an ulp
    # of the ticks and adding it leaves them where they are.  The ticks
    # are counted before they are accumulated, so rendering returns; a
    # one-second timer turns a hang into a failure.
    def hang(signum, frame):
        raise TimeoutError("render_front_svg did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        render_front_svg(str(tmp_path / "ulp.svg"),
                         [make(0.1, 1, 1e6), make(0.2, 2, np.nextafter(1e6, 2e6))])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert (tmp_path / "ulp.svg").read_text().endswith("</svg>\n")


def test_front_svg_ticks_are_distinct_below_an_ulp(tmp_path):
    # A Z2 range one ulp wide is widened like an empty one, so the x
    # ticks stand at distinct positions.
    path = tmp_path / "ulp.svg"
    render_front_svg(str(path),
                     [make(0.1, 1, 1e6), make(0.2, 2, np.nextafter(1e6, 2e6))])
    xs = re.findall(r'<line x1="([^"]+)" y1="424" x2="\1" y2="429"',
                    path.read_text())
    assert len(xs) > 1
    assert len(set(xs)) == len(xs)


def test_front_svg_tick_labels_tell_the_ticks_apart(tmp_path):
    # Z2 from 1,000,000 to 1,000,002 has ticks half a unit apart, which
    # six significant digits would all label 1e+06.
    path = tmp_path / "narrow.svg"
    render_front_svg(str(path), [make(0.1, 1, 1_000_000.0),
                                 make(0.2, 2, 1_000_002.0)])
    labels = re.findall(r'<text x="[^"]+" y="444" text-anchor="middle" '
                        r'font-family="sans-serif" font-size="11">([^<]+)<',
                        path.read_text())
    assert labels == ["1000000", "1000000.5", "1000001", "1000001.5",
                      "1000002"]


# ---------------------------------------------------------------- sweep

def test_sweep_runs_grid_in_order(tiny, tiny_design):
    grid = epsilon_grid(0.01, 0.1, 3)
    pool = sweep(tiny, tiny_design, grid,
                 StochasticConfig(replications=2, master_seed=5))
    assert [s.epsilon for s in pool.solutions] == list(grid)
    assert pool.failures == []


def test_sweep_shares_scenarios_across_grid(tiny, tiny_design):
    pool = sweep(tiny, tiny_design, (0.01, 1.0),
                 StochasticConfig(replications=3, master_seed=9))
    # Common random numbers: both grid points see identical draws.
    first, second = pool.solutions
    assert first.epsilon != second.epsilon


def test_sweep_parallel_matches_serial(tiny, tiny_design):
    grid = epsilon_grid(0.01, 0.2, 4)
    serial = sweep(tiny, tiny_design, grid,
                   StochasticConfig(replications=2, master_seed=3))
    parallel = sweep(tiny, tiny_design, grid,
                     StochasticConfig(replications=2, master_seed=3, jobs=4))
    assert [(s.epsilon, s.z1, s.z2) for s in serial.solutions] == \
        [(s.epsilon, s.z1, s.z2) for s in parallel.solutions]


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_estimate_is_the_replications_mean(tiny, tiny_design, jobs):
    # A one-point sweep is the sample mean and standard error of the
    # replications run_replication gives for the config's seeds.
    config = StochasticConfig(replications=3, master_seed=12, jobs=jobs)
    [estimate] = sweep(tiny, tiny_design, (0.02,), config).solutions
    results = [run_replication(tiny, tiny_design, 0.02, seed, config=config)
               for seed in replication_seeds(config)]

    def mean_and_se(samples):
        samples = np.array(samples)
        return (float(samples.mean()),
                float(np.std(samples, ddof=1) / math.sqrt(len(samples))))

    assert (estimate.z1, estimate.z1_se) == mean_and_se(
        [r.accessibility for r in results])
    assert (estimate.z2, estimate.z2_se) == mean_and_se(
        [r.total_cost for r in results])
    assert estimate.inventory_cost == float(np.mean(
        [r.inventory_cost for r in results]))
    assert estimate.nodes == sum(r.nodes for r in results)


def _assert_node_limit_incumbents_counted(tiny_design, monkeypatch, jobs):
    # These period models branch, so one node cannot finish.
    instance = instance_from_dict(branching_tiny_dict())
    grid = (0.01, 1.0)
    full = sweep(instance, tiny_design, grid, StochasticConfig(replications=2))
    monkeypatch.setattr(milp, "NODE_LIMIT", 1)
    capped = sweep(instance, tiny_design, grid,
                   StochasticConfig(replications=2, jobs=jobs))
    assert [s.limit_hits for s in capped.solutions] == [2, 2]
    assert [s.limit_hits for s in full.solutions] == [0, 0]
    assert all(c.nodes < f.nodes
               for c, f in zip(capped.solutions, full.solutions))


def test_sweep_counts_node_limit_incumbents(tiny_design, monkeypatch):
    _assert_node_limit_incumbents_counted(tiny_design, monkeypatch, jobs=1)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the monkeypatch only when forked")
def test_sweep_workers_count_node_limit_incumbents(tiny_design, monkeypatch):
    _assert_node_limit_incumbents_counted(tiny_design, monkeypatch, jobs=2)


def test_sweep_records_failures_and_continues(tiny, tiny_design,
                                              monkeypatch):
    import chainforge.stochastic as stochastic

    real = stochastic.run_replication

    def flaky(instance, design, epsilon, seed, **kwargs):
        if epsilon == 0.05:
            raise DomainError("boom at 0.05")
        return real(instance, design, epsilon, seed, **kwargs)

    monkeypatch.setattr(stochastic, "run_replication", flaky)
    pool = sweep(tiny, tiny_design, (0.01, 0.05, 0.2),
                 StochasticConfig(replications=1))
    assert [s.epsilon for s in pool.solutions] == [0.01, 0.2]
    assert len(pool.failures) == 1
    assert pool.failures[0].epsilon == 0.05
    assert "boom" in pool.failures[0].error


@pytest.mark.parametrize("case", ["tiny", "qatar 0.4", "qatar 0.9"])
def test_chained_sweep_matches_independent_replications(
        case, tiny, tiny_design, qatar, qatar_design):
    # Each seed walks the grid from its previous grid point's bases; the
    # estimates are those of replications solved on their own, but for
    # the vertex a tie picks.
    if case == "tiny":
        instance, design, grid = tiny, tiny_design, epsilon_grid(0.01, 0.2, 4)
        config = StochasticConfig(replications=3, master_seed=12)
    else:
        instance, design = qatar, qatar_design
        grid = epsilon_grid(0.001, 1, 10)
        config = StochasticConfig(replications=2, master_seed=4,
                                  safety_stock=float(case.split()[1]))
    pool = sweep(instance, design, grid, config)
    assert not pool.failures
    for estimate in pool.solutions:
        results = [run_replication(instance, design, estimate.epsilon, seed,
                                   config=config)
                   for seed in replication_seeds(config)]
        for value, samples in (
                (estimate.z1, [r.accessibility for r in results]),
                (estimate.z2, [r.total_cost for r in results]),
                (estimate.inventory_cost, [r.inventory_cost for r in results]),
                (estimate.unfulfilled_cost,
                 [r.unfulfilled_cost for r in results]),
                (estimate.order_cost, [r.order_cost for r in results])):
            assert value == pytest.approx(float(np.mean(samples)),
                                          rel=1e-12, abs=1e-12)


def test_a_failing_replication_leaves_the_chain_running(tiny, tiny_design,
                                                        monkeypatch):
    import chainforge.stochastic as stochastic

    grid = epsilon_grid(0.01, 0.2, 4)
    config = StochasticConfig(replications=2, master_seed=5)
    clean = sweep(tiny, tiny_design, grid, config)
    failing = (grid[1], replication_seeds(config)[1])
    real = stochastic.run_replication
    results, previous = {}, {}

    def flaky(instance, design, epsilon, seed, **kwargs):
        previous[epsilon, seed] = kwargs["previous"]
        if (epsilon, seed) == failing:
            raise DomainError("boom")
        result = real(instance, design, epsilon, seed, **kwargs)
        results[epsilon, seed] = result
        return result

    monkeypatch.setattr(stochastic, "run_replication", flaky)
    pool = sweep(tiny, tiny_design, grid, config)
    assert [(f.epsilon, f.error) for f in pool.failures] == [(grid[1], "boom")]
    assert pool.solutions == [s for s in clean.solutions
                              if s.epsilon != grid[1]]
    # The grid point after the failure goes on from the last good one.
    seed = failing[1]
    assert previous[grid[0], seed] is None
    assert previous[grid[2], seed] is results[grid[0], seed]
    assert previous[grid[3], seed] is results[grid[2], seed]


def test_sweep_runs_each_replication_once_and_samples_each_seed_once(
        tiny, tiny_design, monkeypatch):
    import chainforge.stochastic as stochastic

    calls, sampled = [], []
    real_run = stochastic.run_replication
    real_sample = stochastic.sample_scenario

    def counted_run(instance, design, epsilon, seed, **kwargs):
        calls.append((epsilon, seed))
        return real_run(instance, design, epsilon, seed, **kwargs)

    def counted_sample(instance, seed):
        sampled.append(seed)
        return real_sample(instance, seed)

    monkeypatch.setattr(stochastic, "run_replication", counted_run)
    monkeypatch.setattr(stochastic, "sample_scenario", counted_sample)
    grid = epsilon_grid(0.01, 0.2, 3)
    config = StochasticConfig(replications=2, master_seed=8)
    sweep(tiny, tiny_design, grid, config)
    seeds = replication_seeds(config)
    assert sorted(calls) == sorted((eps, seed) for eps in grid
                                   for seed in seeds)
    assert sampled == seeds


def test_sweep_validates_grid(tiny, tiny_design):
    config = StochasticConfig(replications=1)
    with pytest.raises(DomainError):
        sweep(tiny, tiny_design, (), config)
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(DomainError):
            sweep(tiny, tiny_design, (bad,), config)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_rejects_another_instances_design(qatar, tiny_design, jobs,
                                                monkeypatch):
    import chainforge.stochastic as stochastic

    def never(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(stochastic, "run_replication", never)
    config = StochasticConfig(replications=2, jobs=jobs)
    with pytest.raises(DomainError, match="missing DCs DC1"):
        sweep(qatar, tiny_design, (0.01, 0.1), config)
    # D3 is linked to W2, which prices only the DCs of R1.
    data = tiny_dict()
    data["warehouses"][1]["order_unit_cost"] = {"D1": 3.0, "D2": 3.0}
    with pytest.raises(DomainError,
                       match="lanes without an order cost: D3 to W2"):
        sweep(instance_from_dict(data), tiny_design, (0.01, 0.1), config)
