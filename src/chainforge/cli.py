"""Command line pipeline: placement, sweep, front, simulation check.

The ``chainforge`` entry point exposes the stages individually (gfa,
optimize, pareto, validate) plus ``run``, which chains them over a
shared output directory and records a manifest with input and output
digests.  Stages communicate through files only, so any stage can be
rerun later from an earlier stage's artifacts.

Exit codes: 0 on success, 1 when a stage fails (the stage name goes to
stderr, partial outputs are kept), 2 for bad usage such as a missing
input file or an invalid flag value.  The CHAINFORGE_LOG environment
variable selects the log level (debug, info, warning, error); log
output goes to stderr so stdout stays clean.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys
from datetime import datetime, timezone

from . import _BLAS_VARS, __version__
from .desim import SimConfig, run_validation, write_validation_csv
from .errors import ChainforgeError, ConfigError, DomainError
from .gfa import (GfaConfig, load_design, overloaded_warehouses, run_gfa,
                  save_design)
from .model import (NetworkDesign, NetworkInstance, design_mismatches,
                    load_instance, write_json)
from .pareto import (epsilon_grid, extract_front, read_solutions_csv,
                     render_front_svg, sweep, write_front_csv,
                     write_solutions_csv)
from .stochastic import (StochasticConfig, load_plan, plan_from_estimate,
                         save_plan)

log = logging.getLogger("chainforge.cli")

DEFAULT_GRID = "0.001:1:10"
_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO,
               "warning": logging.WARNING, "error": logging.ERROR}


class UsageError(Exception):
    """Bad invocation: invalid flag values or a missing input file."""


def _configure_logging() -> None:
    name = os.environ.get("CHAINFORGE_LOG", "warning").strip().lower()
    level = _LOG_LEVELS.get(name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise UsageError(f"{what} file not found: {path}")
    return path


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(
            f"epsilon grid must look like low:high:steps, got {text!r}")
    try:
        low, high, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(
            f"epsilon grid must look like low:high:steps, got {text!r}")
    try:
        return epsilon_grid(low, high, steps)
    except DomainError as exc:
        raise UsageError(str(exc))


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _ensure_out(args: argparse.Namespace) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _design_path(args: argparse.Namespace) -> str:
    return args.design or os.path.join(args.out, "design.json")


def _load_design(path: str, instance: NetworkInstance) -> NetworkDesign:
    """The design in path, which must fit the instance."""
    design = load_design(path).design
    problems = design_mismatches(instance, design)
    if problems:
        raise UsageError(f"design {path} does not fit the instance: "
                         + "; ".join(problems))
    return design


def _gfa_config(args: argparse.Namespace) -> GfaConfig:
    try:
        return GfaConfig(rng_seed=args.seed, restarts=args.restarts)
    except ConfigError as exc:
        raise UsageError(str(exc))


def _sweep_config(args: argparse.Namespace) -> StochasticConfig:
    try:
        return StochasticConfig(replications=args.replications,
                                master_seed=args.seed,
                                safety_stock=args.safety_stock,
                                jobs=args.jobs)
    except DomainError as exc:
        raise UsageError(str(exc))


def _plan_file(out: str, index: int) -> str:
    return os.path.join(out, "plans", f"plan_{index:03d}.json")


def _stage_gfa(args: argparse.Namespace, config: GfaConfig,
               ) -> dict[str, tuple[float, float, float]]:
    """Place and link the network; returns its overloaded warehouses."""
    out = _ensure_out(args)
    instance = load_instance(args.instance)
    result = run_gfa(instance, config)
    for region, value in sorted(result.region_objectives.items()):
        log.info("gfa: region %s effort %.6g", region, value)
    overloads = overloaded_warehouses(instance, result.design)
    for warehouse, (demand, shipments, capacity) in overloads.items():
        print(f"gfa: warehouse {warehouse} is overloaded: its customers draw "
              f"{demand:.6g} kg per period, {shipments:.6g} kg of shipments "
              f"at the lowest retention, capacity {capacity:.6g} kg",
              file=sys.stderr)
    path = os.path.join(out, "design.json")
    save_design(result, path)
    log.info("gfa: wrote %s", path)
    return overloads


def _stage_optimize(args: argparse.Namespace, grid: tuple[float, ...],
                    config: StochasticConfig) -> str:
    out = _ensure_out(args)
    design_file = _require_file(
        _design_path(args), "design (run the gfa stage first or pass --design)")
    instance = load_instance(args.instance)
    design = _load_design(design_file, instance)
    pool = sweep(instance, design, grid, config)
    for failure in pool.failures:
        print(f"optimize: epsilon {failure.epsilon:g} failed: {failure.error}",
              file=sys.stderr)
    for solution in pool.solutions:
        log.info("optimize: epsilon %g took %d branch-and-bound nodes",
                 solution.epsilon, solution.nodes)
        if solution.limit_hits:
            print(f"optimize: epsilon {solution.epsilon:g}: "
                  f"{solution.limit_hits} of {config.replications} "
                  f"replications stopped at the node limit; their best "
                  f"incumbents are averaged into the estimate",
                  file=sys.stderr)
    if not pool.solutions:
        raise DomainError("every epsilon grid point failed to estimate")
    solutions_file = os.path.join(out, "solutions.csv")
    write_solutions_csv(solutions_file, pool.solutions)
    os.makedirs(os.path.join(out, "plans"), exist_ok=True)
    for index, solution in enumerate(pool.solutions):
        save_plan(plan_from_estimate(solution, instance, config),
                  _plan_file(out, index))
    log.info("optimize: %d solutions, %d failures, wrote %s",
             len(pool.solutions), len(pool.failures), solutions_file)
    return solutions_file


def _stage_pareto(args: argparse.Namespace) -> tuple[str, str]:
    out = _ensure_out(args)
    solutions_file = _require_file(
        os.path.join(out, "solutions.csv"), "solutions")
    solutions = read_solutions_csv(solutions_file)
    front_csv = os.path.join(out, "front.csv")
    front_svg = os.path.join(out, "front.svg")
    write_front_csv(front_csv, solutions)
    render_front_svg(front_svg, solutions)
    log.info("pareto: front of %d from %d solutions, wrote %s and %s",
             len(extract_front(solutions)), len(solutions),
             front_csv, front_svg)
    return front_csv, front_svg


def _stage_validate(args: argparse.Namespace, solution_file: str) -> str:
    out = _ensure_out(args)
    design_file = _require_file(
        _design_path(args), "design (run the gfa stage first or pass --design)")
    plan_file = _require_file(solution_file, "solution plan")
    instance = load_instance(args.instance)
    design = _load_design(design_file, instance)
    plan = load_plan(plan_file)
    # The simulator draws its demand from the plan's own scenario stream;
    # another seed would compare the plan against demand it never saw.
    if args.seed is not None and args.seed != plan.master_seed:
        raise UsageError(
            f"--seed {args.seed} differs from the plan's master seed "
            f"{plan.master_seed}; omit --seed to use the plan's")
    config = SimConfig(rng_seed=plan.master_seed, backlog=args.backlog)
    reports = run_validation(instance, design, plan, config, args.runs)
    path = os.path.join(out, "validation.csv")
    write_validation_csv(path, instance, reports)
    log.info("validate: %d runs of %s, wrote %s", args.runs, plan_file, path)
    return path


def _front_plan_file(out: str) -> str:
    """Plan file of the cheapest front member, by solutions.csv row order."""
    solutions = read_solutions_csv(os.path.join(out, "solutions.csv"))
    front = extract_front(solutions)
    target = front[0]
    for index, solution in enumerate(solutions):
        if solution is target:
            return _plan_file(out, index)
    raise DomainError("front member missing from the solution pool")


def _cmd_gfa(args: argparse.Namespace) -> int:
    _require_file(args.instance, "instance")
    config = _gfa_config(args)
    return _guard("gfa", lambda: _stage_gfa(args, config))


def _cmd_optimize(args: argparse.Namespace) -> int:
    _require_file(args.instance, "instance")
    grid = _parse_grid(args.epsilon_grid)
    config = _sweep_config(args)
    return _guard("optimize", lambda: _stage_optimize(args, grid, config))


def _cmd_pareto(args: argparse.Namespace) -> int:
    return _guard("pareto", lambda: _stage_pareto(args))


def _cmd_validate(args: argparse.Namespace) -> int:
    _require_file(args.instance, "instance")
    if args.runs < 1:
        raise UsageError("runs must be at least 1")
    return _guard("validate", lambda: _stage_validate(args, args.solution))


def _cmd_run(args: argparse.Namespace) -> int:
    _require_file(args.instance, "instance")
    grid = _parse_grid(args.epsilon_grid)
    gfa_config = _gfa_config(args)
    sweep_config = _sweep_config(args)
    if args.runs < 1:
        raise UsageError("runs must be at least 1")
    out = _ensure_out(args)
    started = datetime.now(timezone.utc).isoformat()
    args.design = None

    overloads = {}
    code = _guard("gfa", lambda: overloads.update(_stage_gfa(args, gfa_config)))
    if code == 0:
        code = _guard("optimize",
                      lambda: _stage_optimize(args, grid, sweep_config))
    if code == 0:
        code = _guard("pareto", lambda: _stage_pareto(args))
    if code == 0:
        code = _guard(
            "validate",
            lambda: _stage_validate(args, _front_plan_file(out)))
    if code != 0:
        return code

    manifest = {
        "tool": "chainforge",
        "version": __version__,
        "command": "run",
        "master_seed": args.seed,
        "flags": {
            "epsilon_grid": args.epsilon_grid,
            "replications": args.replications,
            "safety_stock": args.safety_stock,
            "restarts": args.restarts,
            "runs": args.runs,
            "backlog": args.backlog,
            "jobs": args.jobs,
            "out": args.out,
        },
        "instance": {"path": args.instance, "sha256": _sha256(args.instance)},
        "environment": {var: os.environ.get(var) for var in _BLAS_VARS},
        "warehouse_overloads": {
            warehouse: dict(zip(("demand_kg", "shipments_kg", "capacity_kg"),
                                figures))
            for warehouse, figures in overloads.items()},
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
        "artifacts": {},
    }
    names = ["design.json", "solutions.csv", "front.csv", "front.svg",
             "validation.csv"]
    plans_dir = os.path.join(out, "plans")
    names.extend(os.path.join("plans", name)
                 for name in sorted(os.listdir(plans_dir)))
    for name in names:
        manifest["artifacts"][name] = _sha256(os.path.join(out, name))
    manifest_path = os.path.join(out, "manifest.json")
    write_json(manifest_path, manifest)
    log.info("run: wrote %s", manifest_path)
    return 0


def _guard(stage: str, work) -> int:
    try:
        work()
        return 0
    except UsageError:
        raise
    except ChainforgeError as exc:
        print(f"{stage}: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainforge",
        description="Design and plan a three-echelon food supply network.")
    parser.add_argument("--version", action="version",
                        version=f"chainforge {__version__}")
    # Each subcommand takes only the flags it reads; a flag that several
    # subcommands read is declared once, in one of these parent parsers.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="results",
                        help="output directory (default results)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0,
                        help="master random seed (default 0)")
    sweeping = argparse.ArgumentParser(add_help=False, parents=[seeded])
    sweeping.add_argument("--jobs", type=int, default=1,
                          help="worker processes for the sweep (default 1)")
    designed = argparse.ArgumentParser(add_help=False)
    designed.add_argument("--design", default=None,
                          help="design file (default <out>/design.json)")
    placing = argparse.ArgumentParser(add_help=False)
    placing.add_argument("--restarts", type=int, default=8,
                         help="location-allocation restarts (default 8)")
    planning = argparse.ArgumentParser(add_help=False)
    planning.add_argument("--epsilon-grid", default=DEFAULT_GRID,
                          help="low:high:steps geometric grid "
                               f"(default {DEFAULT_GRID})")
    planning.add_argument("--replications", type=int, default=50,
                          help="scenario replications per grid point "
                               "(default 50)")
    planning.add_argument("--safety-stock", type=float, default=None,
                          help="override the instance safety stock fraction")
    simulating = argparse.ArgumentParser(add_help=False)
    simulating.add_argument("--runs", type=int, default=30,
                            help="matched-seed simulation runs (default 30)")
    simulating.add_argument("--backlog", choices=("wait", "drop"),
                            default="wait",
                            help="unmet order handling (default wait)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_gfa = sub.add_parser(
        "gfa", parents=[seeded, placing],
        help="place distribution centers and write design.json")
    p_gfa.add_argument("instance", help="network instance JSON file")
    p_gfa.set_defaults(handler=_cmd_gfa)

    p_opt = sub.add_parser(
        "optimize", parents=[sweeping, designed, planning],
        help="sweep epsilon and write solutions.csv plus plan files")
    p_opt.add_argument("instance", help="network instance JSON file")
    p_opt.set_defaults(handler=_cmd_optimize)

    p_par = sub.add_parser(
        "pareto", parents=[common],
        help="extract the front from <out>/solutions.csv")
    p_par.set_defaults(handler=_cmd_pareto)

    p_val = sub.add_parser(
        "validate", parents=[common, designed, simulating],
        help="simulate a plan and write validation.csv")
    p_val.add_argument("--seed", type=int, default=None,
                       help="simulation seed; must equal the plan's "
                            "master seed (default: the plan's)")
    p_val.add_argument("instance", help="network instance JSON file")
    p_val.add_argument("--solution", required=True,
                       help="operational plan JSON to simulate")
    p_val.set_defaults(handler=_cmd_validate)

    p_run = sub.add_parser(
        "run", parents=[sweeping, placing, planning, simulating],
        help="full pipeline: gfa, optimize, pareto, validate, manifest")
    p_run.add_argument("instance", help="network instance JSON file")
    p_run.set_defaults(handler=_cmd_run)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
