"""Print SHA-256 fingerprints of a source tree's solver, oracle and
experiment outputs, or compare two trees' outputs instance by instance.

    python tests/fingerprint.py [TREE]
    python tests/fingerprint.py --compare BASE [TREE]

TREE is a checkout of this repository; it defaults to the one holding
this script.  Each instance runs in a child process with TREE/src first on
its path: `edgealloc generate --config` writes the scenario, then
`edgealloc solve --no-timing` solves it, or `edgealloc oracle` enumerates
its optimum; the experiment instances call `edgealloc.experiments` or
`edgealloc.admm` directly.  One line per output gives instance, output
and digest:

- `trace.csv` and `placement.json` as written;
- `trace.utility`, the `iter` and `utility` columns of the trace alone;
- `global_unconverged`, the per-iteration counts of `Trace`, as JSON;
- `counters`, the per-iteration `newton_steps`, `cbgp_sweeps` and
  `split_repairs` of `Trace`, as one JSON object, so a bit-identity claim
  also covers how much work each block did;
- `oracle.json` as written, for the four `oracle_small` scenarios, two
  six-task, two-station ones, loose and tight, whose exhaustive order
  holds 4096 tuples (the dominance rule fixes every loose task on its
  exact branch, the terminal, before the search, and leaves the tight one
  one contested task, searched over both SBSs and the macro station), a
  tight five-task, one-station one, two tasks contested, whose optimum
  holds a split that misses its deadline at an intermediate share, and a
  three-task, two-station one with fast, frugal SBSs, where `price_tuple`
  six times finds a split that uploads nothing and prices the tuple again
  with that task on the terminal;
- `baseline.json`, `run_baseline` on criterion 10's five 20-task, 3-SBS
  scenarios at seeds 0-99, and on five tight 20-task, 3-SBS scenarios
  (scenario seeds 0-4) at seeds 0-19, where the lone-task relay delay
  refuses some stations: every placement with its utility, or the
  tasks a run names as it raises;
- `profile.json`, the rows of `placement_profile` over criterion 11's
  size sweep;
- `solves.json`, `admm.run` on the four `oracle_small` scenarios at that
  workload's solver settings (120 iterations, 30 CBGP rounds, no
  timing): each solve's trace CSV, placement and work counters, or the
  tasks its rounding names as it raises; and at the same settings on two
  scenarios whose terminal and macro station run at 1 MHz, so rounding
  promotes tasks by trying them on each open SBS: 20 tasks on 2 SBSs at
  seed 2 and h_min 0.1, which solves after 4 SBS trials, and 12 tasks
  at seed 0 and h_min 0.2, whose rounding names tasks 10 and 11 after 2;
- `optima.json`, `oracle.enumerate_optimum` on the 50 scenarios of the
  criterion-3 stream: each result's `to_dict()` with its `n_priced`, so
  a bit-identity claim also covers how many tuples the bound pruned.

That is 99 digests: five for each of the 17 solves in `SOLVES`, one for
each of the 8 oracle instances and one for each of the 6 experiment
instances in `EXPERIMENTS`.

Running it on two trees and diffing the outputs checks a claim that a
change leaves these results byte-identical.  `--compare BASE` runs every
instance in BASE and in TREE and prints one line per instance saying
what moved: for a solve, whether `trace.csv`, `global_unconverged` and
`counters` are byte-identical and whether `placement.json` keeps its
`placement` and `utility` (its `iterations` and `converged` follow the
trace, so a change that only shortens the solve keeps it), both iteration
counts, both totals of Newton steps and of CBGP sweeps (BASE first in
each), and over the iterations both traces have, the
largest relative change of the `utility` and `primal_res` columns and the
largest absolute change of `dual_res`, which sits near 0 once the
iterates settle; for an oracle or experiment instance, whether its one
output is byte-identical, and for `criterion3-optima` also both trees'
total `n_priced` and how many of its 50 optima moved apart from that
count.  It ends with the line count of each tree's
`src` Python files and the difference, TREE minus BASE.  It exits 1 when
any output of any instance moved and 0 when none did, so the exit status
alone checks a bit-identity claim.

It is not a test module, so pytest does not collect it.  A two-tree
`--compare` of the whole set takes about 40 s on two cores.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

TIGHT = (0.02, 0.08)

# name -> (ScenarioConfig fields, solve arguments); seeds 42-49 are the
# `ref100` workload, seed 42 at 1000 tasks is `large1000`, the tight twins
# stop at 30 iterations without converging, tight seed 2 holds the one
# stall and 14 of the 17 unconverged task-solves of tight seeds 0-19 at 30
# iterations (two tasks with a branch of 2e4-9e4 s), loose seeds 4 and 37 are
# the two of seeds 0-39 that run to the 200-iteration cap when the split
# block accepts its sweeps on an objective without the multiplier terms,
# and loose seed 22's trace utility moves when the first iteration moves
# the shares by an ulp, so a utility reused across a share change shows;
# mixed seeds 42 and 43 (`c_range` 4e6 to 2e7, 200 iterations) are the only
# solves of the set where `exact_limit`'s multiplier search does much work
SOLVES = {
    **{f"ref100-{seed}": (dict(n_tasks=100, n_sbs=5, seed=seed), [])
       for seed in range(42, 50)},
    "large1000-42": (dict(n_tasks=1000, n_sbs=5, seed=42), []),
    **{f"tight100-{seed}": (dict(n_tasks=100, n_sbs=5, seed=seed,
                                 t_max_range=TIGHT), ["--max-iter", "30"])
       for seed in (42, 43, 2)},
    **{f"loose100-{seed}": (dict(n_tasks=100, n_sbs=5, seed=seed), [])
       for seed in (4, 22, 37)},
    **{f"mixed100-{seed}": (dict(n_tasks=100, n_sbs=5, seed=seed,
                                 c_range=(4e6, 2e7)), [])
       for seed in (42, 43)},
}


# name -> ScenarioConfig fields of the oracle instances beyond
# `oracle_small`; the tight ones' best tuples put a task on a station, and
# the fast-SBS one reaches the pricer's canonical re-pricing
ORACLES = {
    "oracle6-loose-2": dict(n_tasks=6, n_sbs=2, seed=2),
    "oracle6-tight-4": dict(n_tasks=6, n_sbs=2, seed=4, t_max_range=TIGHT),
    "oracle5-tight-19": dict(n_tasks=5, n_sbs=1, seed=19, t_max_range=TIGHT),
    "oracle3-fastsbs-0": dict(n_tasks=3, n_sbs=2, seed=0, f_sbs=1e11,
                              e_sbs=1e-10),
}


def oracle_small_configs(n: int = 4) -> list:
    """The first n scenarios of the criterion-3 stream, as the
    `oracle_small` benchmark workload draws them."""
    rng = np.random.default_rng(7)
    out = []
    for trial in range(n):
        n_tasks = int(rng.integers(1, 5))
        n_sbs = int(rng.integers(0, 3))
        tight = trial % 3 == 0
        out.append(dict(n_tasks=n_tasks, n_sbs=n_sbs,
                        seed=int(rng.integers(0, 100000)),
                        t_max_range=TIGHT if tight else (15.0, 30.0)))
    return out


# name -> (mode, arguments) of the experiment instances: criterion 10's
# baseline scenarios and seeds, the baseline on tight scenarios, whose
# admissions refuse stations, criterion 11's placement profile, the
# solves of the `oracle_small` workload, whose solver settings the CLI
# cannot set, two solves whose rounding promotes a task to an SBS (terminal
# and macro station at 1 MHz miss every deadline, so `admm._promote` prices
# the tuple on each open SBS), and the oracle on the whole criterion-3
# stream, with the count of tuples it priced, which the CLI does not write
EXPERIMENTS = {
    "criterion10": ("baseline", {
        "scenarios": [dict(n_tasks=20, n_sbs=3, seed=11, c_range=(size, size))
                      for size in (5e3, 1e4, 1.5e4, 2e4, 2.5e4)],
        "seeds": 100}),
    "baseline-tight": ("baseline", {
        "scenarios": [dict(n_tasks=20, n_sbs=3, seed=seed, t_max_range=TIGHT)
                      for seed in range(5)],
        "seeds": 20}),
    "criterion11": ("profile", {
        "scenario": dict(n_tasks=1, n_sbs=2, seed=3, t_max_range=(20.0, 20.0)),
        "sizes": [1e4, 1e5, 1e6, 4e6, 2e7, 5e7, 9e7, 8e6],
        "solver": dict(max_iter=80, cbgp_rounds=40)}),
    "oracle_small-solves": ("solves", {
        "scenarios": oracle_small_configs(4),
        "solver": dict(max_iter=120, cbgp_rounds=30, record_timing=False)}),
    "promotion-solves": ("solves", {
        "scenarios": [dict(n_tasks=20, n_sbs=2, seed=2, h_min=0.1,
                           f_local=1e6, f_mbs=1e6),
                      dict(n_tasks=12, n_sbs=2, seed=0, h_min=0.2,
                           f_local=1e6, f_mbs=1e6)],
        "solver": dict(max_iter=120, cbgp_rounds=30, record_timing=False)}),
    "criterion3-optima": ("optima", {"scenarios": oracle_small_configs(50)}),
}
# modes whose instance writes one output, `<mode>.json`
ONE_OUTPUT = ("oracle", "baseline", "profile", "solves", "optima")


# runs in the child: argv is src, scenario config (or experiment
# arguments) JSON, mode, work dir
CHILD = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from edgealloc import admm, cli, experiments, oracle
from edgealloc.admm import SolverConfig
from edgealloc.costs import UtilityWeights
from edgealloc.errors import InfeasibleTaskError
from edgealloc.scenario import ScenarioConfig, from_config, generate_scenario
config, mode, work = json.loads(sys.argv[2]), sys.argv[3], sys.argv[4]
COUNTERS = ("newton_steps", "cbgp_sweeps", "split_repairs")
def write(name, doc):
    with open(os.path.join(work, name), "w") as fh:
        json.dump(doc, fh)
if mode == "solves":
    runs = []
    for fields in config["scenarios"]:
        instance = generate_scenario(from_config(ScenarioConfig, fields, "scenario"))
        try:
            placement, trace = admm.run(instance, SolverConfig(**config["solver"]))
        except InfeasibleTaskError as exc:
            runs.append({"raised": exc.tasks})
            continue
        runs.append({"trace": trace.to_csv(), "placement": placement.to_dict(),
                     **{name: getattr(trace, name) for name in COUNTERS}})
    write("solves.json", runs)
elif mode == "optima":
    runs = []
    for fields in config["scenarios"]:
        instance = generate_scenario(from_config(ScenarioConfig, fields, "scenario"))
        result = oracle.enumerate_optimum(instance, UtilityWeights(0.5))
        runs.append({**result.to_dict(), "n_priced": result.n_priced})
    write("optima.json", runs)
elif mode == "baseline":
    runs = []
    for fields in config["scenarios"]:
        instance = generate_scenario(from_config(ScenarioConfig, fields, "scenario"))
        for seed in range(config["seeds"]):
            try:
                placement, util = experiments.run_baseline(
                    instance, UtilityWeights(0.5), seed)
                runs.append({"utility": util, "placement": placement.to_dict()})
            except InfeasibleTaskError as exc:
                runs.append({"raised": exc.tasks})
    write("baseline.json", runs)
elif mode == "profile":
    write("profile.json", experiments.placement_profile(
        from_config(ScenarioConfig, config["scenario"], "scenario"),
        config["sizes"], solver_config=SolverConfig(**config["solver"])))
else:
    write("config.json", config)
    scenario = os.path.join(work, "scenario.json")
    cli.main(["generate", "--config", os.path.join(work, "config.json"),
              "--out", scenario])
    if mode == "oracle":
        cli.main(["oracle", "--scenario", scenario,
                  "--out", os.path.join(work, "oracle.json")])
    else:
        traces = []
        run = admm.run
        def kept(*args, **kwargs):
            placement, trace = run(*args, **kwargs)
            traces.append(trace)
            return placement, trace
        admm.run = kept
        cli.main(["solve", "--scenario", scenario, "--no-timing",
                  "--out", work] + json.loads(mode))
        write("global_unconverged.json", traces[0].global_unconverged)
        write("counters.json", {name: getattr(traces[0], name)
                                for name in COUNTERS})
"""


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(work: str, mode: str) -> dict:
    def read(name):
        with open(os.path.join(work, name), "rb") as fh:
            return fh.read()

    if mode in ONE_OUTPUT:
        return {f"{mode}.json": read(f"{mode}.json")}
    trace = read("trace.csv")
    columns = b"\n".join(b",".join(line.split(b",")[:2])
                         for line in trace.splitlines())
    return {"trace.csv": trace, "trace.utility": columns,
            "placement.json": read("placement.json"),
            "global_unconverged": read("global_unconverged.json"),
            "counters": read("counters.json")}


def _jobs() -> list:
    jobs = [(name, config, json.dumps(args))
            for name, (config, args) in SOLVES.items()]
    jobs += [(f"oracle_small-{k}", config, "oracle")
             for k, config in enumerate(oracle_small_configs())]
    jobs += [(name, config, "oracle") for name, config in ORACLES.items()]
    jobs += [(name, config, mode)
             for name, (mode, config) in EXPERIMENTS.items()]
    return jobs


def _run(tree: str, config: dict, mode: str) -> dict:
    """The outputs of one instance solved or enumerated by TREE."""
    src = os.path.join(os.path.abspath(tree), "src")
    with tempfile.TemporaryDirectory() as work:
        subprocess.run([sys.executable, "-c", CHILD, src, json.dumps(config),
                        mode, work], check=True, stdout=subprocess.DEVNULL)
        return _outputs(work, mode)


def fingerprint(tree: str):
    """Yield (instance, output, digest) for every instance of the set."""
    for name, config, mode in _jobs():
        for output, data in _run(tree, config, mode).items():
            yield name, output, _digest(data)


def _trace_columns(trace: bytes) -> np.ndarray:
    """The utility, primal_res and dual_res columns, one row per iteration."""
    return np.array([[float(x) for x in line.split(b",")[1:4]]
                     for line in trace.splitlines()[1:]]).reshape(-1, 3)


def _rounded(placement: bytes) -> tuple:
    """The rounded placement and its utility from `placement.json`."""
    document = json.loads(placement)
    return document["placement"], document["utility"]


def _optima_moves(old: bytes, new: bytes) -> str:
    """Both trees' total `n_priced` over the optima, and how many optima
    moved apart from it."""
    runs = [json.loads(out) for out in (old, new)]
    priced = [sum(run["n_priced"] for run in side) for side in runs]
    strip = [[{k: v for k, v in run.items() if k != "n_priced"} for run in side]
             for side in runs]
    moved = sum(a != b for a, b in zip(*strip))
    return (f"  n_priced {priced[0]} -> {priced[1]}  "
            f"moved {moved} of {len(strip[1])}")


def compare(base: str, tree: str):
    """Yield, per instance, whether any of its outputs moved from BASE to
    TREE and a line saying what moved."""
    for name, config, mode in _jobs():
        old, new = _run(base, config, mode), _run(tree, config, mode)
        if mode not in ONE_OUTPUT:
            old["placement.json"], new["placement.json"] = (
                _rounded(out["placement.json"]) for out in (old, new))
        same = {key: "same" if old[key] == new[key] else "moved" for key in old}
        moved = old != new
        if mode in ONE_OUTPUT:
            output = f"{mode}.json"
            line = f"{name:18s} {output} {same[output]}"
            if mode == "optima":
                line += _optima_moves(old[output], new[output])
            yield moved, line
            continue
        a, b = _trace_columns(old["trace.csv"]), _trace_columns(new["trace.csv"])
        work = [json.loads(out["counters"]) for out in (old, new)]
        steps = [sum(side["newton_steps"]) for side in work]
        sweeps = [sum(side["cbgp_sweeps"]) for side in work]
        k = min(len(a), len(b))
        change = np.abs(b[:k] - a[:k])
        rel = change[:, :2] / np.maximum(np.abs(a[:k, :2]), np.finfo(float).tiny)
        yield moved, (f"{name:18s} trace {same['trace.csv']:5s} "
                      f"placement {same['placement.json']:5s} "
                      f"unconverged {same['global_unconverged']:5s} "
                      f"counters {same['counters']:5s} "
                      f"iters {len(a)} -> {len(b)}  "
                      f"newton {steps[0]} -> {steps[1]}  "
                      f"sweeps {sweeps[0]} -> {sweeps[1]}  "
                      f"utility {rel[:, 0].max(initial=0.0):.2g}  "
                      f"primal_res {rel[:, 1].max(initial=0.0):.2g}  "
                      f"dual_res {change[:, 2].max(initial=0.0):.2g}")


def src_lines(tree: str) -> int:
    """Lines of the Python files under TREE/src."""
    total = 0
    for root, _, names in os.walk(os.path.join(tree, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if argv and argv[0] == "--compare":
        base, tree = argv[1], argv[2] if len(argv) > 2 else here
        status = 0
        for moved, line in compare(base, tree):
            print(line, flush=True)
            status |= moved
        old, new = src_lines(base), src_lines(tree)
        print(f"src lines {old} -> {new} ({new - old:+d})")
        return status
    for name, output, digest in fingerprint(argv[0] if argv else here):
        print(f"{name:18s} {output:18s} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
