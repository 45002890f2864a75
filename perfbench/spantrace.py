"""Span tracing of edgealloc's public layer functions, from outside.

`Tracer` replaces module attributes such as `global_block.line_search` with
timing wrappers for the duration of a `with` block and puts the originals
back when it exits.  The library calls these functions through their
module globals (`costs.build_cost_tables(...)` inside `admm.run`,
`line_search(...)` inside `solve_global`), so nested calls are caught and
every span knows the span that caused it.  Spans stay in memory until
`write_csv` dumps them.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
from dataclasses import dataclass

# (module, attribute) pairs, in layer order; the benchmark's layers
TRACED = (
    ("scenario", "generate_scenario"),
    ("costs", "build_cost_tables"),
    ("costs", "utility"),
    ("costs", "check_feasibility"),
    ("local_blocks", "cbgp_solve"),
    ("global_block", "solve_global"),
    ("global_block", "nullspace_cg_solve"),
    ("global_block", "line_search"),
    ("admm", "run"),
    ("admm", "round_to_feasible"),
    ("admm", "dual_update"),
    ("admm", "residuals"),
    ("admm", "augmented_lagrangian"),
    ("oracle", "enumerate_optimum"),
)
SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)

# counters read from the return values of traced calls, as increments
COUNTERS = {
    "local_blocks.cbgp_solve": lambda out: {
        # the history holds the starting objective plus one entry per sweep
        "local_blocks.cbgp_sweeps": len(out[1]) - 1},
    "global_block.solve_global": lambda out: {
        "global_block.newton_steps": out[2]["newton_iterations"],
        "global_block.tasks": len(out[2]["converged"]),
        "global_block.converged_tasks": int(out[2]["converged"].sum()),
        "global_block.stalled_tasks": int(out[2]["stalled"].sum())},
    "global_block.nullspace_cg_solve": lambda out: {
        "global_block.cg_regularized": int(out[4]["regularized"].sum())},
    "admm.run": lambda out: {"admm.iters": len(out[1].records)},
    "oracle.enumerate_optimum": lambda out: {
        "oracle.enumerated": out.n_enumerated},
}
COUNTER_NAMES = (
    "local_blocks.cbgp_sweeps", "global_block.newton_steps",
    "global_block.tasks", "global_block.converged_tasks",
    "global_block.stalled_tasks", "global_block.cg_regularized",
    "admm.iters", "oracle.enumerated",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span
    instance: int


def self_times(spans: list) -> list:
    """Per-span self time: duration minus the part of the span's interval
    covered by its direct children (overlapping children count once)."""
    children = [[] for _ in spans]
    for k, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(k)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in kids):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def uncovered_time(spans: list, start: float, end: float) -> float:
    """Part of [start, end] that no top-level span covers: time spent
    outside every traced function."""
    tops = sorted((s.start, s.end) for s in spans if s.parent < 0)
    covered, reach = 0.0, start
    for lo, hi in tops:
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return end - start - covered


class Tracer:
    """Context manager that wraps the functions in `TRACED` while active.

    `start` and `end` bound the traced window.  `instance` labels the
    spans opened until it is changed.  `counters` sums what the solvers
    report about their own work (`COUNTERS`), read from return values as
    they pass, so no result is kept alive.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: dict = dict.fromkeys(COUNTER_NAMES, 0)
        self.instance = -1
        self.start = self.end = 0.0
        self._stack: list = []
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        try:
            for mod_name, attr in TRACED:
                module = importlib.import_module(f"edgealloc.{mod_name}")
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(f"{mod_name}.{attr}", original))
        except BaseException:
            self._restore()
            raise
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1,
                        self.instance)
            spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                for key, value in count(out).items():
                    counters[key] += value
            return out

        return traced

    def write_csv(self, path) -> None:
        """Dump the spans: index, name, start, end, parent, instance and
        self time, with times in seconds from the start of the window."""
        origin = self.start
        selfs = self_times(self.spans)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_s", "end_s", "parent",
                          "instance", "self_s"])
            for k, (span, own) in enumerate(zip(self.spans, selfs)):
                out.writerow([k, span.name, f"{span.start - origin:.9f}",
                              f"{span.end - origin:.9f}", span.parent,
                              span.instance, f"{own:.9f}"])
