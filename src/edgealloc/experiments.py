"""Experiment harness: parameter sweeps, traces, summaries, random
baseline, and the solver's gap to the oracle beyond the acceptance sizes.

Writes one trace CSV per run under `<outdir>/<axis>/<value>/` and a
`summary.csv` at the root.  Utilities reported here are always recomputed
through the placement pricer, so the summary never drifts from the cost
model.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import admm, costs, oracle
from .admm import SolverConfig
from .costs import Placement, UtilityWeights
from .errors import ConfigurationError, InfeasibleTaskError
from .scenario import (Scenario, ScenarioConfig, from_config,
                       generate_scenario, read_json)

SWEEP_AXES = ("alpha", "rho", "n_tasks", "sbs_capacity", "lt_capacity", "data_size")

SUMMARY_HEADER = "sweep_value,final_utility,iters,converged,n_local,n_sbs,n_mbs,error"


@dataclass
class ExperimentSpec:
    scenario: ScenarioConfig
    axis: str
    values: list
    outdir: str
    repetitions: int = 1
    workers: int = 1
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigurationError(f"unknown sweep axis {self.axis!r}")
        if not self.values:
            raise ConfigurationError("sweep values must be nonempty")
        for name in ("repetitions", "workers"):
            count = getattr(self, name)
            if type(count) is not int or count < 1:
                raise ConfigurationError(f"{name} must be an integer of at least 1")

    @classmethod
    def from_json(cls, src) -> "ExperimentSpec":
        doc = read_json(src)
        return from_config(cls, {
            **doc,
            "scenario": from_config(ScenarioConfig, doc.get("scenario", {}), "scenario"),
            "solver": from_config(SolverConfig, doc.get("solver", {}), "solver")},
            "experiment")


def apply_axis(scenario_config: ScenarioConfig, solver_config: SolverConfig,
               axis: str, value):
    """Return the (scenario config, solver config) pair for one sweep point."""
    if axis == "alpha":
        return scenario_config, replace(solver_config, alpha=float(value))
    if axis == "rho":
        return scenario_config, replace(solver_config, rho=float(value))
    if axis == "n_tasks":
        return replace(scenario_config, n_tasks=int(value)), solver_config
    if axis == "sbs_capacity":
        return replace(scenario_config, f_sbs=float(value)), solver_config
    if axis == "lt_capacity":
        return replace(scenario_config, f_local=float(value)), solver_config
    if axis == "data_size":
        return replace(scenario_config, c_range=(float(value), float(value))), solver_config
    raise ConfigurationError(f"unknown sweep axis {axis!r}")


def _branch_histogram(placement: Placement) -> tuple[int, int, int]:
    n_local, n_mbs = int(placement.z.sum()), int(placement.y.sum())
    return n_local, len(placement.y) - n_local - n_mbs, n_mbs


def _run_point(spec: ExperimentSpec, value, rep: int) -> dict:
    scen_cfg, solver_cfg = apply_axis(spec.scenario, spec.solver, spec.axis, value)
    scen_cfg = replace(scen_cfg, seed=scen_cfg.seed + rep)
    scenario = generate_scenario(scen_cfg)
    placement, trace = admm.run(scenario, solver_cfg)
    final_utility = costs.utility(placement, scenario,
                                  UtilityWeights(solver_cfg.alpha))

    point_dir = os.path.join(spec.outdir, spec.axis, str(value))
    os.makedirs(point_dir, exist_ok=True)
    name = "trace.csv" if rep == 0 else f"trace_{rep}.csv"
    trace.to_csv(os.path.join(point_dir, name))

    n_local, n_sbs, n_mbs = _branch_histogram(placement)
    return {"sweep_value": value, "final_utility": final_utility,
            "iters": len(trace.records), "converged": trace.converged,
            "n_local": n_local, "n_sbs": n_sbs, "n_mbs": n_mbs}


def _run_job(job: tuple) -> dict:
    spec, value, rep = job
    try:
        return _run_point(spec, value, rep)
    except InfeasibleTaskError as exc:  # keep sweeping past an unroundable point
        return {"sweep_value": value, "final_utility": float("nan"),
                "iters": 0, "converged": False,
                "n_local": 0, "n_sbs": 0, "n_mbs": 0, "error": str(exc)}


def run_experiment(spec: ExperimentSpec) -> list:
    """Execute every (value, repetition) run, write traces and the summary,
    and return the summary rows.  Runs are deterministic per seed; sweep
    points run in up to `spec.workers` spawned worker processes, so a
    script that calls this with more than one worker needs the
    `if __name__ == "__main__":` guard."""
    os.makedirs(spec.outdir, exist_ok=True)
    jobs = [(spec, value, rep) for value in spec.values
            for rep in range(spec.repetitions)]
    if spec.workers > 1:
        # imported here so that importing the package does not load
        # multiprocessing; spawned workers start from a fresh import
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(spec.workers, mp_context=context) as pool:
            rows = list(pool.map(_run_job, jobs))
    else:
        rows = [_run_job(job) for job in jobs]

    with open(os.path.join(spec.outdir, "summary.csv"), "w", newline="") as fh:
        # the writer quotes an error message that holds a comma
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER.split(","))
        writer.writerows([row["sweep_value"], f"{row['final_utility']:.17g}",
                          row["iters"], row["converged"], row["n_local"],
                          row["n_sbs"], row["n_mbs"], row.get("error", "")]
                         for row in rows)
    return rows


def placement_profile(scenario_config: ScenarioConfig, sizes,
                      solver_config: SolverConfig) -> list:
    """Solve single-size scenarios across a data-size sweep and report the
    chosen branch with the split fractions at each size."""
    rows = []
    for size in sizes:
        cfg = replace(scenario_config, c_range=(float(size), float(size)))
        scenario = generate_scenario(cfg)
        p, _ = admm.run(scenario, solver_config)
        c = scenario.pricing.c
        frac_local = p.z + (p.x * p.c0).sum(axis=0) / c
        frac_mbs = p.y + (p.x * p.c1).sum(axis=0) / c
        frac_sbs = (p.x * p.ci).sum(axis=0) / c
        rows.append({"size": float(size),
                     "branches": p.branches(),
                     "frac_local": float(frac_local.mean()),
                     "frac_mbs": float(frac_mbs.mean()),
                     "frac_sbs": float(frac_sbs.mean())})
    return rows


# deadline ranges of the gap study: the criterion-3 loose and tight ones
GAP_DEADLINES = (("loose", (15.0, 30.0)), ("tight", (0.02, 0.08)))


def oracle_gap_study(sizes=(5, 6, 7, 8), n_sbs: int = 2, seeds=(0,),
                     weights: UtilityWeights | None = None) -> list:
    """Relative utility gap of the rounded consensus placement to the
    oracle's optimum, per size, deadline range and scenario seed, with the
    oracle's wall time, the tasks it left contested and the tuples it
    priced.  A solve whose rounding raises is reported with a NaN gap."""
    weights = weights or UtilityWeights()
    solver_config = SolverConfig(alpha=weights.alpha, max_iter=120,
                                 cbgp_rounds=30)
    rows = []
    for n in sizes:
        for deadline, t_max_range in GAP_DEADLINES:
            for seed in seeds:
                scenario = generate_scenario(ScenarioConfig(
                    n_tasks=n, n_sbs=n_sbs, seed=seed, t_max_range=t_max_range))
                t0 = time.perf_counter()
                best = oracle.enumerate_optimum(scenario, weights)
                oracle_s = time.perf_counter() - t0
                try:
                    placement, _ = admm.run(scenario, solver_config)
                    util = costs.utility(placement, scenario, weights)
                    gap = oracle.compare(placement, util, best, 0.0,
                                         scenario)["relative_gap"]
                except InfeasibleTaskError:
                    util = gap = float("nan")
                rows.append({"n_tasks": n, "deadline": deadline, "seed": seed,
                             "solver_utility": util,
                             "oracle_utility": best.utility, "gap": gap,
                             "oracle_s": oracle_s, "priced": best.n_priced,
                             "contested": best.n_contested,
                             "tuples": best.n_enumerated})
    return rows


def run_baseline(scenario: Scenario, weights: UtilityWeights,
                 seed: int) -> tuple[Placement, float]:
    """Random feasible placement: each task draws uniformly among the
    branches that meet its deadline alone on `costs.lone_tables` (terminal
    and MBS by `PricingConstants.exact_ok`, any SBS where a naive thirds
    split at full share, its forwarded third charged the relay delay of the
    task alone, passes `costs.meets_deadline`), an SBS's tasks beyond
    `ScenarioConfig.max_per_sbs`, in index order, are demoted to the MBS,
    and tasks violated by congestion are redrawn in index order up to a
    fixed budget.  A task still late after the budget falls back to the
    faster of its terminal and macro branches.  The placement passes
    `costs.check_feasibility`; otherwise `InfeasibleTaskError` names the
    tasks still late."""
    rng = np.random.default_rng(seed)
    s = scenario.n_sbs
    cap = scenario.config.max_per_sbs

    tables = costs.lone_tables(scenario, weights.alpha)
    third = tables.c / 3.0
    split_delay, _ = tables.split_price(third, third, tables.c - third - third, 1.0)
    # rows: terminal, SBS 1..s, MBS
    ok = np.vstack([tables.exact_ok[0],
                    costs.meets_deadline(split_delay, tables.t_max),
                    tables.exact_ok[1]])
    # a task with no feasible branch keeps the faster exact one
    fastest = np.where(tables.t_local <= tables.t_mbs, 0, s + 1)
    first = np.where(ok.any(axis=0), ok.argmax(axis=0), fastest)
    feasible_sets = [np.flatnonzero(col).tolist() or [b]
                     for col, b in zip(ok.T, first)]
    # a task over its station's capacity moves to the MBS if that meets its
    # deadline, else to its first feasible branch
    demoted = np.where(ok[s + 1], s + 1, first)

    choice = np.array([rng.choice(branches) for branches in feasible_sets])

    for _ in range(5):
        x, _, _ = costs.hard_assignment(choice, s)
        over = ((np.cumsum(x, axis=1) > cap) & (x > 0)).any(axis=0)
        choice[over] = demoted[over]
        placement = _assemble_baseline(scenario, choice)
        report = costs.check_feasibility(placement, scenario)
        if report.ok:
            break
        for j in np.flatnonzero(~report.deadline_ok):
            others = [b for b in feasible_sets[j] if b != choice[j]]
            choice[j] = rng.choice(others) if others else feasible_sets[j][0]
    else:
        # the budget is spent: a late task takes the faster of its terminal
        # and macro branches, whose delays do not depend on the other
        # tasks, and leaving an SBS only lowers the others' interference,
        # relay load and share
        placement = _assemble_baseline(scenario, choice)
        late = ~costs.check_feasibility(placement, scenario).deadline_ok
        choice[late] = fastest[late]
        placement = _assemble_baseline(scenario, choice)
        report = costs.check_feasibility(placement, scenario)
    # shares are 1 / members and each task takes one branch, so only a
    # deadline can fail
    if not report.ok:
        raise InfeasibleTaskError(np.flatnonzero(~report.deadline_ok).tolist())
    return placement, costs.utility(placement, scenario, weights)


def _assemble_baseline(scenario: Scenario, choice: np.ndarray) -> Placement:
    """The hard placement of `choice` with the naive thirds split on each
    chosen SBS and equal shares among each station's tasks."""
    x, y, z = costs.hard_assignment(choice, scenario.n_sbs)
    third = x * (scenario.pricing.c / 3.0)[None, :]
    hosted = x.sum(axis=1, keepdims=True)
    h = np.where(x > 0, 1.0 / np.maximum(hosted, 1.0), 1.0)
    return Placement(x=x, y=y, z=z, c0=third, c1=third.copy(),
                     ci=third.copy(), h=h)
