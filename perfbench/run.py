"""edgealloc benchmark: time to a checked placement, layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload ref100 --seed 0 --seconds 15 --trace 0

`--workload` is ref100, large1000, oracle_small or all.  With `--trace 0`
the run prints the end-to-end metrics, with `--trace 1` the per-layer
metrics of a traced pass (and writes its spans under perfbench/out/).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Exit status: 0 when every
solve passed the correctness gate, 1 when one failed, 2 when the edgealloc
sources are missing.
"""

import os
import sys

# pin BLAS to one thread before numpy is first imported
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = Path(__file__).resolve().parent / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ref100", "large1000", "oracle_small", "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the batch; held-out seeds are welcome")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="run length the batch is sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(name: str, seed: int, result, facts: dict, trace: bool) -> dict:
    """Print one workload's result for people; return its metrics."""
    print(f"# workload {name} seed {seed} trace {int(trace)}")
    print(f"# machine {json.dumps(facts)}")
    print(f"# inputs {json.dumps(result.info)}")
    for line in result.errors:
        print(f"# FAIL {line}")
    table = result.per_layer if trace else result.end_to_end
    for metric, (value, unit) in table.items():
        print(f"{metric:40s} {value:>14.6g} {unit}")
    return {metric: {"value": value, "unit": unit}
            for metric, (value, unit) in table.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "edgealloc" / "__init__.py").is_file():
        print(f"perfbench: no edgealloc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    facts = harness.machine_facts()
    trace = bool(args.trace)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = harness.run_workload(harness.WORKLOADS[name], args.seed,
                                      args.seconds, trace, str(SRC),
                                      str(SPAN_DIR) if trace else None)
        shown = report(name, args.seed, result, facts, trace)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in shown.items()})
        correct &= result.correct
        attempted += result.attempted
        failed += result.failed
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
