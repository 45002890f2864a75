import numpy as np
import pytest

from edgealloc import admm, costs, oracle
from edgealloc.admm import (ConsensusState, SolverConfig, Trace, TraceRecord,
                            dual_update, init_state, residuals,
                            round_to_feasible, run)
from edgealloc.costs import UtilityWeights
from edgealloc.errors import ConfigurationError, InfeasibleTaskError
from edgealloc.scenario import ScenarioConfig, generate_scenario


def _blank_state(n_sbs, n_tasks, rho=1.0):
    scen = generate_scenario(ScenarioConfig(n_tasks=n_tasks, n_sbs=n_sbs, seed=0))
    return init_state(scen, SolverConfig(rho=rho)), scen


def test_solver_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(rho=0.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(max_iter=0)
    with pytest.raises(ConfigurationError):
        SolverConfig(tol_primal=-1.0)


def test_dual_update_examples():
    state, _ = _blank_state(1, 1)
    state.dual_x[:] = 0.5
    state.x_hat[:] = 0.7
    state.x[:] = 0.5
    dual_update(state)
    assert state.dual_x[0, 0] == pytest.approx(0.7)

    state, _ = _blank_state(1, 1, rho=1.2)
    state.z_hat[:] = 0.0
    state.z[:] = 0.1  # gap -0.1
    dual_update(state)
    assert state.dual_z[0] == pytest.approx(-0.12)

    state, _ = _blank_state(1, 1)
    state.x_hat[:] = state.x[:]
    state.y_hat[:] = state.y[:]
    state.z_hat[:] = state.z[:]
    before = state.dual_x.copy()
    dual_update(state)
    assert np.array_equal(state.dual_x, before)


def test_dual_update_is_linear_in_gaps():
    state, _ = _blank_state(1, 3)
    rng = np.random.default_rng(0)
    g1 = rng.normal(0, 1, state.x.shape)
    g2 = rng.normal(0, 1, state.x.shape)

    state.dual_x[:] = 0.0
    state.x[:] = 0.0
    state.x_hat = g1
    dual_update(state)
    state.x_hat = g2
    dual_update(state)
    two_steps = state.dual_x.copy()

    state.dual_x[:] = 0.0
    state.x_hat = g1 + g2
    dual_update(state)
    assert np.allclose(state.dual_x, two_steps)


def test_residuals_examples():
    state, _ = _blank_state(1, 2)
    state.x_hat = state.x.copy()
    state.y_hat = state.y.copy()
    state.z_hat = state.z.copy()
    state.prev_x = state.x.copy()
    state.prev_y = state.y.copy()
    state.prev_z = state.z.copy()
    assert residuals(state) == (0.0, 0.0)

    state.z_hat = state.z + np.array([0.3, 0.0])
    p, d = residuals(state)
    assert p == pytest.approx(0.3)

    state.z_hat = state.z.copy()
    state.rho = 2.0
    state.prev_y = state.y - np.array([0.1, 0.0])
    p, d = residuals(state)
    assert d == pytest.approx(0.2)


def test_trace_requires_increasing_iterations():
    trace = Trace()
    trace.append(TraceRecord(k=1, utility=1.0, primal_res=0.1, dual_res=0.1,
                             wall_ms=0.0))
    with pytest.raises(ValueError):
        trace.append(TraceRecord(k=1, utility=1.0, primal_res=0.1,
                                 dual_res=0.1, wall_ms=0.0))


def test_trace_csv_schema_and_roundtrip(tmp_path):
    trace = Trace()
    trace.append(TraceRecord(k=1, utility=3.25, primal_res=0.5, dual_res=0.25,
                             wall_ms=12.0))
    doc = trace.to_csv(tmp_path / "t.csv")
    lines = doc.strip().split("\n")
    assert lines[0] == "iter,utility,primal_res,dual_res,wall_ms"
    parts = lines[1].split(",")
    assert int(parts[0]) == 1
    assert float(parts[1]) == pytest.approx(3.25)


def test_round_to_feasible_dominant_coordinate():
    state, scen = _blank_state(1, 1)
    state.z[:] = 0.9
    state.y[:] = 0.05
    state.x[:] = 0.05
    placement = round_to_feasible(state, scen, SolverConfig())
    assert placement.z[0] == 1.0


def test_round_to_feasible_tie_prefers_terminal_then_sbs():
    state, scen = _blank_state(1, 1)
    state.z[:] = 0.5
    state.y[:] = 0.5
    state.x[:] = 0.0
    placement = round_to_feasible(state, scen, SolverConfig())
    assert placement.z[0] == 1.0

    state.z[:] = 0.0
    state.y[:] = 0.5
    state.x[:] = 0.5
    placement = round_to_feasible(state, scen, SolverConfig())
    assert placement.x[0, 0] == 1.0


def test_round_to_feasible_demotes_over_capacity_tasks():
    scen = generate_scenario(ScenarioConfig(n_tasks=3, n_sbs=1, seed=0,
                                            h_min=0.4))  # at most 2 fit
    state = init_state(scen, SolverConfig())
    state.x[:] = 0.9
    state.z[:] = 0.05
    state.y[:] = 0.05
    # middle task has the weakest margin
    state.x[0, 1] = 0.5
    state.y[1] = 0.4
    placement = round_to_feasible(state, scen, SolverConfig())
    assert placement.x.sum() == 2.0
    assert placement.y[1] == 1.0
    assert costs.check_feasibility(placement, scen).ok


def test_round_to_feasible_promotes_deadline_violator():
    # terminal too slow: its delay exceeds the deadline, macro wins on speed
    scen = generate_scenario(ScenarioConfig(n_tasks=1, n_sbs=0, seed=0,
                                            t_max_range=(0.01, 0.01)))
    state = init_state(scen, SolverConfig())
    state.z[:] = 1.0
    state.y[:] = 0.0
    placement = round_to_feasible(state, scen, SolverConfig())
    assert placement.y[0] == 1.0
    assert costs.check_feasibility(placement, scen).ok


def test_round_to_feasible_raises_when_nothing_fits():
    scen = generate_scenario(ScenarioConfig(n_tasks=1, n_sbs=0, seed=0,
                                            t_max_range=(1e-9, 1e-9)))
    state = init_state(scen, SolverConfig())
    with pytest.raises(InfeasibleTaskError) as err:
        round_to_feasible(state, scen, SolverConfig())
    assert err.value.tasks == [0]


def test_run_single_task_mbs_only_prefers_terminal():
    scen = generate_scenario(ScenarioConfig(n_tasks=1, n_sbs=0, seed=1))
    placement, trace = run(scen, SolverConfig(max_iter=60, cbgp_rounds=10))
    assert placement.z[0] == 1.0
    result = oracle.enumerate_optimum(scen, UtilityWeights(0.5))
    assert result.branch_table == ["local"]
    util = costs.utility(placement, scen, UtilityWeights(0.5))
    assert util == pytest.approx(result.utility, rel=1e-9)


def test_run_returns_feasible_placement_and_decreasing_utility(small_scenario):
    placement, trace = run(small_scenario, SolverConfig(max_iter=60,
                                                        cbgp_rounds=20))
    assert costs.check_feasibility(placement, small_scenario).ok
    u = trace.utilities()
    assert u[-1] <= u[0]


def test_trace_counts_unconverged_global_solves():
    # one count per iteration; zero throughout the 100-task reference, and
    # not zero once tight deadlines leave global solves above tolerance
    reference = generate_scenario(ScenarioConfig(n_tasks=100, n_sbs=5, seed=42))
    _, trace = run(reference, SolverConfig(record_timing=False))
    assert trace.global_unconverged == [0] * len(trace.records)

    tight = generate_scenario(ScenarioConfig(n_tasks=100, n_sbs=5, seed=42,
                                             t_max_range=(0.02, 0.08)))
    _, trace = run(tight, SolverConfig(max_iter=3, record_timing=False))
    assert len(trace.global_unconverged) == len(trace.records) == 3
    assert max(trace.global_unconverged) > 0


def test_primal_sweep_never_raises_lagrangian(small_scenario):
    _, trace = run(small_scenario, SolverConfig(max_iter=40, cbgp_rounds=30))
    assert max(trace.aug_lagrangian_rise) <= 1e-9


def test_optimize_branch_split_matches_oracle_split_search():
    # the analytic candidate set must find a feasible split exactly when the
    # oracle's lattice search does, and never cost more than it
    rng = np.random.default_rng(21)
    checked = 0
    for trial in range(40):
        n, s = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        scen = generate_scenario(ScenarioConfig(
            n_tasks=n, n_sbs=s, seed=int(rng.integers(0, 100000)),
            t_max_range=(0.02, 0.08) if trial % 2 else (15.0, 30.0)))
        c = scen.c_array()
        tables = costs.build_cost_tables(
            scen, float(rng.uniform(0.0, 1.0)), rng.uniform(0.0, 1.0, (s, n)),
            rng.uniform(0.0, 1.0, (s, n)) * c[None, :])
        for i in range(s):
            for j in range(n):
                for h in rng.uniform(scen.config.h_min, 1.0, 3):
                    t_max = tables.t_max[j]
                    split = admm._optimize_branch_split(tables, i, j, h)
                    ref = oracle._best_split(tables, i, j, h, 100, t_max)
                    assert (split is None) == (ref is None), (trial, i, j, h)
                    checked += 1
                    if split is None:
                        continue
                    c0, c1, delay = split
                    assert min(c0, c1) >= 0.0
                    assert c0 + c1 <= c[j] * (1.0 + 1e-12)
                    priced, cost = tables.split_delay_cost(i, j, c0, c1, 1.0 / h)
                    assert priced == delay
                    assert delay <= t_max * (1.0 + 1e-12) + 1e-15
                    assert cost <= ref[2] + 1e-9 * abs(ref[2]), (trial, i, j, h)
    assert checked > 300
