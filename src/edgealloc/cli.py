"""Command line harness.

Subcommands: `generate` (scenario JSON from a config), `solve` (one
consensus run with trace and placement outputs), `oracle` (optimum over
the tasks dominance leaves contested), `sweep` (experiment spec), `baseline`
(random feasible placement).  All file formats are JSON except the trace
and summary CSVs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import admm, costs, errors, experiments, oracle
from .admm import SolverConfig
from .costs import UtilityWeights
from .scenario import (Scenario, ScenarioConfig, from_config,
                       generate_scenario, read_json, write_json)


def _cmd_generate(args) -> int:
    if args.config:
        config = from_config(ScenarioConfig, read_json(args.config),
                             args.config)
    else:
        config = ScenarioConfig(n_tasks=args.n_tasks, n_sbs=args.n_sbs,
                                seed=args.seed)
    scenario = generate_scenario(config)
    scenario.to_json(args.out)
    print(f"wrote scenario with {scenario.n_tasks} tasks / "
          f"{len(scenario.stations)} stations to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    scenario = Scenario.from_json(args.scenario)
    config = SolverConfig(rho=args.rho, max_iter=args.max_iter, tol=args.tol,
                          alpha=args.alpha, record_timing=not args.no_timing)
    placement, trace = admm.run(scenario, config)
    util = costs.utility(placement, scenario, UtilityWeights(args.alpha))

    os.makedirs(args.out, exist_ok=True)
    trace.to_csv(os.path.join(args.out, "trace.csv"))
    write_json({"utility": util, "converged": trace.converged,
                "iterations": len(trace.records),
                "placement": {**placement.to_dict(),
                              "branches": placement.branches()}},
               os.path.join(args.out, "placement.json"))
    status = "converged" if trace.converged else "not converged"
    print(f"utility {util:.6g} after {len(trace.records)} iterations ({status}); "
          f"outputs in {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    scenario = Scenario.from_json(args.scenario)
    try:
        result = oracle.enumerate_optimum(scenario, UtilityWeights(args.alpha))
    except errors.InstanceTooLargeError as err:
        print(f"edgealloc oracle: {err}", file=sys.stderr)
        return 2
    result.to_json(args.out)
    outcome = (f"optimum {result.utility:.6g}" if result.feasible
               else "no feasible assignment")
    print(f"{outcome} (contested tasks {result.n_contested}, tuples priced "
          f"{result.n_priced}); wrote {args.out}")
    return 0 if result.feasible else 1


def _cmd_sweep(args) -> int:
    spec = experiments.ExperimentSpec.from_json(args.spec)
    rows = experiments.run_experiment(spec)
    print(f"{len(rows)} runs; summary at {os.path.join(spec.outdir, 'summary.csv')}")
    return 0


def _cmd_baseline(args) -> int:
    scenario = Scenario.from_json(args.scenario)
    placement, util = experiments.run_baseline(scenario,
                                               UtilityWeights(args.alpha),
                                               args.seed)
    n_local, n_sbs, n_mbs = experiments._branch_histogram(placement)
    print(json.dumps({"utility": util, "seed": args.seed, "n_local": n_local,
                      "n_mbs": n_mbs, "n_sbs": n_sbs}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgealloc",
        description="three-tier task allocation: consensus solver, oracle, sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a scenario JSON from a config")
    p.add_argument("--config", help="ScenarioConfig JSON file")
    p.add_argument("--n-tasks", type=int, default=100)
    p.add_argument("--n-sbs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="run the consensus solver on a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--no-timing", action="store_true",
                   help="zero the wall_ms column for reproducible traces")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exact optimum; exit 2 over its tuple cap")
    p.add_argument("--scenario", required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("sweep", help="run an experiment spec")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("baseline", help="random feasible placement utility")
    p.add_argument("--scenario", required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_baseline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
