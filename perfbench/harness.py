"""Workloads, closed-loop runner, correctness gate and metrics.

One caller solves the instances of a workload back to back on one thread
(a closed loop): solve with `admm.run`, price the rounded placement with
`costs.utility`, check it with `costs.check_feasibility`, and on the
oracle workload compare it with `oracle.enumerate_optimum`.  The batch is
solved `PASSES` times untraced and each instance's time is its median
over the passes; a separate traced pass gives the per-layer numbers.
Every time is normalised for machine speed by `speed.SpeedSampler`.

Instance sets are pinned to the reference streams (scenario seeds from 42,
the criterion-3 stream from `default_rng(7)`); the benchmark seed orders
the batch.  Per-instance cost is heavy-tailed: some seeds send a 100-task
solve to the 200-iteration cap (17 s against 0.6 s), and a third of the
tight-deadline instances take 2.5-11 s in the global block against 0.1 s,
so a batch drawn afresh from each seed would measure which instances it
drew, not the code.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from edgealloc import admm, costs, oracle
from edgealloc import scenario as scenario_mod
from edgealloc.admm import SolverConfig
from edgealloc.costs import UtilityWeights
from edgealloc.scenario import ScenarioConfig
from spantrace import SPAN_NAMES, Tracer, self_times, uncovered_time
from speed import NUMPY_REF_S, SpeedSampler, make_numpy_kernel

PASSES = 3
SETUP_REPS = 9
MIN_SOLVE_S = 0.3  # shorter solves are repeated within a pass
WEIGHTS = UtilityWeights(0.5)
SPEED_KERNEL = make_numpy_kernel()
GAP_LIMIT = 0.05  # criterion 3's tolerance on the relative gap to the oracle

HERE = os.path.dirname(os.path.abspath(__file__))
IMPORT_PROBE = """
import importlib, sys
sys.path[:0] = sys.argv[1:3]
from speed import PYTHON_REF_S, SpeedSampler, python_kernel
with SpeedSampler(python_kernel, PYTHON_REF_S) as speed:
    _, seconds = speed.measure(importlib.import_module, "edgealloc")
print(seconds)
"""


def reference_stream(n_tasks: int) -> Callable[[int], list]:
    """First n scenarios of the paper's setting: 5 SBS, loose deadlines,
    scenario seeds 42, 43, ..."""
    return lambda n: [dict(n_tasks=n_tasks, n_sbs=5, seed=42 + k)
                      for k in range(n)]


def criterion3_stream(n: int) -> list:
    """First n scenarios of the acceptance suite's oracle-equivalence
    stream: 1-4 tasks, 0-2 SBS, every third instance with 0.02-0.08 s
    deadlines."""
    rng = np.random.default_rng(7)
    out = []
    for trial in range(n):
        n_tasks = int(rng.integers(1, 5))
        n_sbs = int(rng.integers(0, 3))
        tight = trial % 3 == 0
        out.append(dict(n_tasks=n_tasks, n_sbs=n_sbs,
                        seed=int(rng.integers(0, 100000)),
                        t_max_range=(0.02, 0.08) if tight else (15.0, 30.0)))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Callable[[int], list]  # n -> kwargs of the first n scenarios
    nominal_s: float  # seconds per instance and pass that size the batch
    solver: dict = field(default_factory=dict)  # non-default SolverConfig fields
    oracle: bool = False

    def size(self, seconds: float) -> int:
        return max(1, round(seconds / (PASSES * self.nominal_s)))


# why each workload exists is recorded with it in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("ref100", reference_stream(100), nominal_s=0.6),
    Workload("large1000", reference_stream(1000), nominal_s=3.7),
    # 15 s sizes this to the first four instances, the shortest prefix
    # with a tight-deadline solve on the slow Newton path (the fourth);
    # they take about 3 s per instance and pass, so this run is longer
    Workload("oracle_small", criterion3_stream, nominal_s=1.25,
             solver=dict(max_iter=120, cbgp_rounds=30), oracle=True),
)}


@dataclass
class Outcome:
    """What one closed-loop step produced and how long its parts took."""

    solve_s: float = 0.0
    check_s: float = 0.0  # pricing, feasibility check and oracle
    oracle_s: float = 0.0
    utility: float = float("nan")
    converged: bool = False
    gap: float = float("nan")
    error: str | None = None


def check_placement(placement, util: float, scen) -> str | None:
    """Correctness gate on one rounded placement; None when it passes."""
    for name in ("x", "y", "z"):
        if not np.isin(getattr(placement, name), (0.0, 1.0)).all():
            return f"placement.{name} is not binary"
    report = costs.check_feasibility(placement, scen)
    if not report.ok:
        return f"infeasible placement: {report.violations}"
    if not np.isfinite(util) or util <= 0:
        return f"utility {util!r} is not a positive finite number"
    return None


def _check(workload: Workload, placement, scen, out: Outcome,
           speed: SpeedSampler) -> None:
    out.utility = costs.utility(placement, scen, WEIGHTS)
    out.error = check_placement(placement, out.utility, scen)
    if workload.oracle:
        best, out.oracle_s = speed.measure(oracle.enumerate_optimum, scen, WEIGHTS)
        report = oracle.compare(placement, out.utility, best, GAP_LIMIT, scen)
        out.gap = report["relative_gap"]
        if not best.feasible:
            out.error = out.error or "oracle found no feasible placement"
        elif not report["within_tolerance"]:
            out.error = out.error or f"oracle gap {out.gap:.4g} > {GAP_LIMIT}"


def solve_instance(workload: Workload, scen, speed: SpeedSampler,
                   min_solve_s: float = 0.0) -> Outcome:
    """One closed-loop step timed by `speed`.  The solve is repeated until
    the repeats take `min_solve_s`, and their mean is kept."""
    out = Outcome()
    config = SolverConfig(**workload.solver)
    try:
        total, repeats = 0.0, 0
        while repeats == 0 or total < min_solve_s:
            (placement, trace), seconds = speed.measure(admm.run, scen, config)
            total += seconds
            repeats += 1
        out.solve_s = total / repeats
        out.converged = trace.converged
        _, out.check_s = speed.measure(_check, workload, placement, scen, out,
                                       speed)
    except Exception as exc:  # a failed solve is counted, not fatal
        out.error = f"{type(exc).__name__}: {exc}"
    return out


def sampler() -> SpeedSampler:
    return SpeedSampler(SPEED_KERNEL, NUMPY_REF_S)


def generate(config: dict):
    return scenario_mod.generate_scenario(ScenarioConfig(**config))


def import_seconds(src_dir: str) -> float:
    """Normalised time of `import edgealloc` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src_dir, HERE],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip())


def measure_setup(configs: list, src_dir: str) -> tuple[float, list]:
    """Median over `SETUP_REPS` of import time plus generating every
    instance; returns it with the last generated scenarios."""
    reps = []
    for _ in range(SETUP_REPS):
        imported = import_seconds(src_dir)
        with sampler() as speed:
            scenarios, generated = speed.measure(
                lambda: [generate(c) for c in configs])
        reps.append(imported + generated)
    return statistics.median(reps), scenarios


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "blas_threads": {k: v for k, v in sorted(os.environ.items())
                             if k.endswith("_NUM_THREADS")},
            "platform": platform.platform()}


def _median_per_instance(passes: list, attr: str) -> list:
    return [statistics.median(getattr(p[k], attr) for p in passes)
            for k in range(len(passes[0]))]


def layer_metrics(tracer: Tracer, untraced_solve_s: float,
                  traced_solve_s: float, gap_max: float) -> dict:
    """Per-layer numbers of one traced pass, name -> (value, unit)."""
    spans = tracer.spans
    calls = dict.fromkeys(SPAN_NAMES, 0)
    own = dict.fromkeys(SPAN_NAMES, 0.0)
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    for span, self_s in zip(spans, self_times(spans)):
        calls[span.name] += 1
        own[span.name] += self_s
        total[span.name] += span.end - span.start
    c = tracer.counters
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (own[name], "s")
    tasks = c["global_block.tasks"]
    out.update({
        "local_blocks.cbgp_sweeps": (c["local_blocks.cbgp_sweeps"], "count"),
        "global_block.newton_steps": (c["global_block.newton_steps"], "count"),
        "global_block.unconverged_tasks": (
            tasks - c["global_block.converged_tasks"], "count"),
        "global_block.stalled_tasks": (c["global_block.stalled_tasks"], "count"),
        "global_block.converged_ratio": (
            c["global_block.converged_tasks"] / tasks if tasks else 0.0,
            "ratio"),
        "global_block.cg_regularized": (c["global_block.cg_regularized"], "count"),
        "admm.iters": (c["admm.iters"], "count"),
        "admm.iter_ms": (1e3 * total["admm.run"] / max(c["admm.iters"], 1),
                         "ms"),
        "admm.dual_s": (own["admm.dual_update"] + own["admm.residuals"]
                        + own["admm.augmented_lagrangian"], "s"),
        "oracle.enumerated": (c["oracle.enumerated"], "count"),
        "oracle.s_per_tuple": (
            total["oracle.enumerate_optimum"] / max(c["oracle.enumerated"], 1),
            "s"),
        "oracle.gap_max": (gap_max, "ratio"),
        "trace.overhead_frac": (traced_solve_s / untraced_solve_s - 1.0,
                                "ratio"),
        "trace.wall_s": (tracer.end - tracer.start, "s"),
        "trace.uncovered_s": (
            uncovered_time(spans, tracer.start, tracer.end), "s"),
    })
    return out


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    end_to_end: dict  # name -> (value, unit)
    per_layer: dict
    info: dict
    errors: list


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 src_dir: str, span_dir: str | None = None) -> Result:
    n = workload.size(seconds)
    configs = workload.configs(n)
    order = [int(k) for k in np.random.default_rng(seed).permutation(n)]

    setup_s, scenarios = measure_setup(configs, src_dir)
    passes = []
    with sampler() as speed:
        for _ in range(PASSES):
            outcomes = [None] * n
            for k in order:
                outcomes[k] = solve_instance(workload, scenarios[k], speed,
                                             MIN_SOLVE_S)
            passes.append(outcomes)
    slowdown = statistics.median(speed.samples) / NUMPY_REF_S
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    del scenarios

    # the traced pass regenerates its instances so that generation is
    # traced too; without --trace only the first instance is replayed, to
    # check that tracing leaves the result bit-identical
    traced_order = order if trace else order[:1]
    traced = {}
    # the sampler's handler runs inside the spans: about 1% of self time
    with sampler() as speed, Tracer() as tracer:
        for k in traced_order:
            tracer.instance = k
            traced[k] = solve_instance(workload, generate(configs[k]), speed)

    errors = []
    for k in range(n):
        label = f"instance {k} {json.dumps(configs[k])}"
        for p, outcomes in enumerate(passes):
            if outcomes[k].error:
                errors.append(f"{label} pass {p}: {outcomes[k].error}")
        utils = {passes[p][k].utility for p in range(PASSES)}
        if len(utils) > 1 and not any(passes[p][k].error for p in range(PASSES)):
            errors.append(f"{label}: utility differs between passes: {sorted(utils)}")
            passes[0][k].error = passes[0][k].error or "nondeterministic"
        if k in traced:
            if traced[k].error:
                errors.append(f"{label} traced: {traced[k].error}")
            elif traced[k].utility != passes[0][k].utility:
                errors.append(f"{label}: traced utility {traced[k].utility!r} "
                              f"!= untraced {passes[0][k].utility!r}")
                traced[k].error = "traced/untraced mismatch"
    every = [o for p in passes for o in p] + list(traced.values())
    failed = sum(o.error is not None for o in every)

    solve = _median_per_instance(passes, "solve_s")
    check = _median_per_instance(passes, "check_s")
    oracle_s = sum(_median_per_instance(passes, "oracle_s"))
    gaps = [o.gap for o in passes[0] if np.isfinite(o.gap)]
    utils = [o.utility for o in passes[0] if np.isfinite(o.utility)]
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "solve_s": (sum(solve), "s"),
        "solve_p50_s": (statistics.median(solve), "s"),
        "loop_s": (sum(solve) + sum(check), "s"),
        "utility": (float(sum(utils)), "cost"),
        "converged_frac": (sum(o.converged for o in passes[0]) / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    gap_max = max(gaps) if gaps else 0.0
    per_layer = {}
    if trace:
        per_layer = layer_metrics(
            tracer,
            untraced_solve_s=sum(solve[k] for k in traced_order),
            traced_solve_s=sum(traced[k].solve_s for k in traced_order),
            gap_max=gap_max)
        if span_dir is not None:
            os.makedirs(span_dir, exist_ok=True)
            tracer.write_csv(os.path.join(
                span_dir, f"spans_{workload.name}_seed{seed}.csv"))
    info = {
        "instances": n, "passes": PASSES, "solves": len(every),
        "scenarios": configs, "order": order,
        "solver": asdict(SolverConfig(**workload.solver)),
        "slowdown": slowdown, "oracle_s": oracle_s,
        "oracle_gap_max": gap_max if gaps else None,
        "failed_frac": failed / len(every),
    }
    return Result(correct=not errors, attempted=len(every), failed=failed,
                  end_to_end=end_to_end, per_layer=per_layer, info=info,
                  errors=errors)
