"""Tests of the benchmark itself: span arithmetic, wrapper lifetime, the
correctness gate, and a tiny instance of each workload end to end."""

import dataclasses
import importlib
import json
import signal
import time
from pathlib import Path

import pytest

import harness
import spantrace
from edgealloc import admm, costs, oracle
from spantrace import Span, Tracer, self_times, uncovered_time

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SRC = str(ROOT / "src")

TINY = {
    "ref100": dict(n_tasks=8, n_sbs=2, seed=42),
    "large1000": dict(n_tasks=40, n_sbs=5, seed=42),
    "oracle_small": dict(n_tasks=2, n_sbs=1, seed=7),
}


def _tiny(name):
    return dataclasses.replace(harness.WORKLOADS[name],
                               configs=lambda n: [TINY[name]] * n)


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.leaf", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("next", 12.0, 13.0, -1, 1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert uncovered_time(spans, 0.0, 15.0) == 4.0
    # self times and the uncovered rest account for the whole window
    assert sum(self_times(spans)) + uncovered_time(spans, 0.0, 15.0) == 15.0


def test_overlapping_children_count_once():
    spans = [Span("root", 0.0, 10.0, -1, 0),
             Span("a", 1.0, 4.0, 0, 0),
             Span("b", 3.0, 6.0, 0, 0),
             Span("c", 9.0, 12.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


@pytest.fixture
def modules():
    return {mod: importlib.import_module(f"edgealloc.{mod}")
            for mod, _ in spantrace.TRACED}


def test_wrappers_removed_after_traced_run(modules):
    before = {(m, a): getattr(modules[m], a) for m, a in spantrace.TRACED}
    with Tracer() as tracer:
        for (m, a), fn in before.items():
            assert getattr(modules[m], a) is not fn
        harness.solve_instance(harness.WORKLOADS["ref100"],
                               harness.generate(TINY["ref100"]),
                               harness.sampler())
    for (m, a), fn in before.items():
        assert getattr(modules[m], a) is fn, f"{m}.{a} still wrapped"

    names = [s.name for s in tracer.spans]
    run_index = names.index("admm.run")
    inner = [s for s in tracer.spans if s.parent == run_index]
    assert {"costs.build_cost_tables", "global_block.solve_global",
            "admm.round_to_feasible"} <= {s.name for s in inner}
    assert any(tracer.spans[s.parent].name == "global_block.solve_global"
               for s in tracer.spans if s.name == "global_block.line_search")
    assert tracer.counters["admm.iters"] > 0


def test_wrappers_removed_when_traced_code_raises():
    before = admm.run
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert admm.run is before


def test_speed_sampler_samples_inside_calls_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    with harness.sampler() as speed:
        _, seconds = speed.measure(time.sleep, 0.1)
    assert len(speed.samples) >= 2
    assert 0 < seconds < 1.0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_gate_rejects_broken_placements():
    scen = harness.generate(TINY["ref100"])
    placement, _ = admm.run(scen, admm.SolverConfig())
    assert harness.check_placement(placement, 1.0, scen) is None
    half = dataclasses.replace(placement, z=placement.z * 0.5)
    assert "not binary" in harness.check_placement(half, 1.0, scen)
    dropped = dataclasses.replace(placement, z=placement.z * 0.0,
                                  y=placement.y * 0.0, x=placement.x * 0.0)
    assert "infeasible" in harness.check_placement(dropped, 1.0, scen)


def test_run_fails_on_an_infeasible_placement(monkeypatch):
    solve = admm.run

    def unassigned(scen, config):
        placement, trace = solve(scen, config)
        return dataclasses.replace(placement, z=placement.z * 0.0,
                                   y=placement.y * 0.0,
                                   x=placement.x * 0.0), trace

    monkeypatch.setattr(admm, "run", unassigned)
    result = harness.run_workload(_tiny("ref100"), seed=0, seconds=0.1,
                                  trace=False, src_dir=SRC)
    assert not result.correct
    assert result.failed == result.attempted == harness.PASSES + 1


def test_run_fails_on_an_oracle_gap_above_tolerance(monkeypatch):
    optimum = oracle.enumerate_optimum

    def better_optimum(scen, weights):
        found = optimum(scen, weights)
        return dataclasses.replace(found, utility=0.5 * found.utility)

    monkeypatch.setattr(oracle, "enumerate_optimum", better_optimum)
    result = harness.run_workload(_tiny("oracle_small"), seed=0, seconds=0.1,
                                  trace=False, src_dir=SRC)
    assert not result.correct
    assert any("oracle gap" in line for line in result.errors)


def test_run_fails_when_tracing_changes_a_utility(monkeypatch):
    class SkewingTracer(Tracer):
        def __enter__(self):
            super().__enter__()
            price = costs.utility  # the wrapper; restored on exit
            costs.utility = lambda *args: price(*args) * (1.0 + 1e-12)
            return self

    monkeypatch.setattr(harness, "Tracer", SkewingTracer)
    result = harness.run_workload(_tiny("ref100"), seed=0, seconds=0.1,
                                  trace=False, src_dir=SRC)
    assert not result.correct
    assert any("traced utility" in line for line in result.errors)
    assert result.failed == 1


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_passes_the_gate(name, tmp_path):
    spec = json.loads(BENCHMARK_JSON.read_text())
    workload = _tiny(name)
    result = harness.run_workload(workload, seed=3, seconds=0.1, trace=True,
                                  src_dir=SRC, span_dir=str(tmp_path))
    assert result.correct, result.errors
    assert result.failed == 0 and result.attempted == harness.PASSES + 1
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in result.end_to_end.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in result.per_layer.items()}
    assert all(value > 0 for value, _ in result.end_to_end.values())
    assert (tmp_path / f"spans_{name}_seed3.csv").is_file()
    assert (result.per_layer["oracle.enumerated"][0] > 0) == workload.oracle
