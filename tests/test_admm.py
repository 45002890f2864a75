import dataclasses
import json

import numpy as np
import pytest

from edgealloc import admm, costs, oracle
from edgealloc.admm import (SolverConfig, Trace, TraceRecord, dual_update,
                            init_state, residuals, round_to_feasible, run)
from edgealloc.costs import UtilityWeights
from edgealloc.errors import ConfigurationError, InfeasibleTaskError
from edgealloc.scenario import Scenario, ScenarioConfig, generate_scenario
from lagrangian_rise import lagrangian_rises
from lattice_split import lattice_split, split_cost


def _blank_state(n_sbs, n_tasks, rho=1.0):
    scen = generate_scenario(ScenarioConfig(n_tasks=n_tasks, n_sbs=n_sbs, seed=0))
    return init_state(scen, SolverConfig(rho=rho)), scen


def test_solver_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(rho=0.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(max_iter=0)
    with pytest.raises(ConfigurationError):
        SolverConfig(cbgp_rounds=0)
    with pytest.raises(ConfigurationError):
        SolverConfig(tol=-1.0)


# the state's iterates are (n_sbs + 2, n_tasks): SBS rows, then the
# macro-station bit, then the terminal bit

def test_dual_update_examples():
    state, _ = _blank_state(1, 1)
    state.dual[0] = 0.5
    state.v_hat[0] = 0.7
    state.v[0] = 0.5
    dual_update(state)
    assert state.dual[0, 0] == pytest.approx(0.7)

    state, _ = _blank_state(1, 1, rho=1.2)
    state.v_hat[2] = 0.0
    state.v[2] = 0.1  # terminal gap -0.1
    dual_update(state)
    assert state.dual[2, 0] == pytest.approx(-0.12)

    state, _ = _blank_state(1, 1)
    state.v_hat[:] = state.v
    before = state.dual[0].copy()
    dual_update(state)
    assert np.array_equal(state.dual[0], before)


def test_dual_update_is_linear_in_gaps():
    state, _ = _blank_state(1, 3)
    rng = np.random.default_rng(0)
    g1 = rng.normal(0, 1, 3)
    g2 = rng.normal(0, 1, 3)

    state.dual[0] = 0.0
    state.v[0] = 0.0
    state.v_hat[0] = g1
    dual_update(state)
    state.v_hat[0] = g2
    dual_update(state)
    two_steps = state.dual[0].copy()

    state.dual[0] = 0.0
    state.v_hat[0] = g1 + g2
    dual_update(state)
    assert np.allclose(state.dual[0], two_steps)


def test_residuals_examples():
    state, _ = _blank_state(1, 2)
    state.v_hat = state.v.copy()
    state.prev = state.v.copy()
    assert residuals(state) == (0.0, 0.0)

    state.v_hat[2] = state.v[2] + np.array([0.3, 0.0])
    p, d = residuals(state)
    assert p == pytest.approx(0.3)

    state.v_hat[2] = state.v[2]
    state.rho = 2.0
    state.prev[1] = state.v[1] - np.array([0.1, 0.0])
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
    state.v[:, 0] = [0.05, 0.05, 0.9]  # SBS, macro, terminal
    placement = round_to_feasible(state.v, scen, 0.5)
    assert placement.z[0] == 1.0


def test_round_to_feasible_tie_prefers_terminal_then_sbs():
    state, scen = _blank_state(1, 1)
    state.v[:, 0] = [0.0, 0.5, 0.5]
    placement = round_to_feasible(state.v, scen, 0.5)
    assert placement.z[0] == 1.0

    # on a loose instance the task's split uploads nothing, so the
    # placement runs it on the terminal; a mixed one's split offloads
    scen = generate_scenario(ScenarioConfig(n_tasks=1, n_sbs=1, seed=0,
                                            c_range=(4e6, 2e7)))
    state.v[:, 0] = [0.5, 0.5, 0.0]
    placement = round_to_feasible(state.v, scen, 0.5)
    assert placement.x[0, 0] == 1.0
    assert placement.c0[0, 0] < scen.pricing.c[0]


# at either floor at most two tasks fit on a station; just above 1/3 an
# equal three-way share misses the floor by about 1e-12.  At tight
# deadlines the tasks kept on the station offload, where at loose ones
# their splits would upload nothing and run on the terminal
@pytest.mark.parametrize("h_min", [0.4, 1.0 / 3.0 + 1e-12],
                         ids=["0.4", "third+1e-12"])
def test_round_to_feasible_demotes_over_capacity_tasks(h_min):
    scen = generate_scenario(ScenarioConfig(n_tasks=3, n_sbs=1, seed=0,
                                            h_min=h_min,
                                            t_max_range=(0.02, 0.08)))
    v = np.array([0.9, 0.05, 0.05])[:, None].repeat(3, axis=1)
    # middle task has the weakest margin
    v[:2, 1] = [0.5, 0.4]
    placement = round_to_feasible(v, scen, 0.5)
    assert placement.branches() == ["sbs1", "mbs", "sbs1"]
    assert costs.check_feasibility(placement, scen).ok


def test_round_to_feasible_promotes_deadline_violator():
    # terminal too slow: its delay exceeds the deadline, macro wins on speed
    scen = generate_scenario(ScenarioConfig(n_tasks=1, n_sbs=0, seed=0,
                                            t_max_range=(0.01, 0.01)))
    state = init_state(scen, SolverConfig())
    state.v[:, 0] = [0.0, 1.0]  # macro, terminal
    placement = round_to_feasible(state.v, scen, 0.5)
    assert placement.y[0] == 1.0
    assert costs.check_feasibility(placement, scen).ok


def test_round_to_feasible_raises_when_nothing_fits():
    scen = generate_scenario(ScenarioConfig(n_tasks=1, n_sbs=0, seed=0,
                                            t_max_range=(1e-9, 1e-9)))
    state = init_state(scen, SolverConfig())
    with pytest.raises(InfeasibleTaskError) as err:
        round_to_feasible(state.v, scen, 0.5)
    assert err.value.tasks == [0]


def _random_relaxed_case(rng):
    """A small scenario, loose or (70%) tight, and a relaxed global
    iterate with simplex rows."""
    n, s = int(rng.integers(2, 9)), int(rng.integers(1, 4))
    config = dict(n_tasks=n, n_sbs=s, seed=int(rng.integers(0, 10**6)))
    if rng.uniform() < 0.7:
        config["t_max_range"] = (0.02, 0.08)
    scen = generate_scenario(ScenarioConfig(**config))
    return scen, rng.dirichlet(np.full(s + 2, 0.5), size=n).T.copy()


def test_round_to_feasible_returns_feasible_placement_or_raises():
    # no iterate here raises; pricing on tables frozen at the dominant choice
    # raised on k = 128 (5 tasks, 1 SBS, task 0)
    for k in range(300):
        scen, v = _random_relaxed_case(np.random.default_rng([0, k]))
        placement = round_to_feasible(v, scen, 0.5)
        report = costs.check_feasibility(placement, scen)
        assert report.ok, (k, report.violations)


# deadline and data-size regimes of the small random instances
REGIMES = {"tight": dict(t_max_range=(0.02, 0.08)), "loose": {},
           "mixed": dict(c_range=(4e6, 2e7))}


def test_round_to_feasible_chooses_by_the_deadline_rule():
    # any relaxed iterate rounds to a placement that passes the checking
    # rule, or raises; every terminal or macro branch it keeps meets the
    # choosing rule
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 4), s=st.integers(0, 2),
           seed=st.integers(0, 100000), regime=st.sampled_from(sorted(REGIMES)),
           alpha=st.floats(0.0, 1.0), draw=st.integers(0, 2**32 - 1))
    def check(n, s, seed, regime, alpha, draw):
        scen = generate_scenario(ScenarioConfig(n_tasks=n, n_sbs=s, seed=seed,
                                                **REGIMES[regime]))
        v = np.random.default_rng(draw).dirichlet(np.full(s + 2, 0.5),
                                                  size=n).T.copy()
        try:
            placement = round_to_feasible(v, scen, alpha)
        except InfeasibleTaskError:
            return
        assert costs.check_feasibility(placement, scen).ok
        pc = scen.pricing
        exact = placement.z + placement.y > 0
        delay = placement.z * pc.t_local + placement.y * pc.t_mbs
        assert costs.meets_deadline(delay, pc.t_max)[exact].all()

    check()


def test_round_to_feasible_rejects_promoted_split_on_unpriced_relay():
    # task 1 misses its deadline on the terminal and is promoted.  Its
    # macro branch meets the deadline, so it goes there and no SBS is
    # tried; a split priced on tables that leave its own relay route
    # unloaded forwards every bit, 0.213 s against a 0.0242 s deadline.
    # The splits of tasks 0 and 2 on the SBS upload nothing, so they run
    # on the terminal
    scen = generate_scenario(ScenarioConfig(n_tasks=3, n_sbs=1, seed=863431,
                                            t_max_range=(0.02, 0.08)))
    v = np.array([[0.50, 0.39, 0.11],   # one task per row: SBS, macro,
                  [0.09, 0.25, 0.66],   # terminal
                  [0.55, 0.09, 0.36]]).T.copy()
    placement = round_to_feasible(v, scen, 0.5)
    assert costs.check_feasibility(placement, scen).ok
    assert placement.branches() == ["local", "mbs", "local"]
    util = costs.utility(placement, scen, UtilityWeights(0.5))
    # the oracle's optimum, 0.116564, puts task 1 alone on the SBS
    assert util == pytest.approx(0.150890, abs=1e-6)


def test_round_to_feasible_names_every_task_on_an_over_budget_station(
        monkeypatch):
    # tight deadlines, so that the tasks on the station offload
    scen = generate_scenario(ScenarioConfig(n_tasks=3, n_sbs=1, seed=0,
                                            t_max_range=(0.02, 0.08)))
    state = init_state(scen, SolverConfig())
    state.v[:] = np.array([0.9, 0.05, 0.05])[:, None]
    state.v[:, 1] = [0.05, 0.05, 0.9]
    monkeypatch.setattr(costs, "floored_proportions",
                        lambda raw, floor: dict.fromkeys(raw, 1.0))
    with pytest.raises(InfeasibleTaskError) as err:
        round_to_feasible(state.v, scen, 0.5)
    assert err.value.tasks == [0, 2]


def _slow_exact_branches(h_min, late_t_max=None):
    """Three tasks and two SBSs, from a scenario JSON whose terminal and
    macro station run at 1 MHz: every exact branch takes 90-167 s against
    deadlines of 15-26 s, while any split on an SBS meets them.  Task 2's
    deadline is `late_t_max` if given."""
    doc = generate_scenario(ScenarioConfig(n_tasks=3, n_sbs=2, seed=0,
                                           h_min=h_min)).to_dict()
    doc["device"]["f_local"] = 1e6
    doc["stations"][0]["f"] = 1e6
    if late_t_max is not None:
        doc["tasks"][2]["t_max"] = late_t_max
    scen = Scenario.from_json(json.dumps(doc))
    state = init_state(scen, SolverConfig())
    # tasks 0 and 1 on SBS 1, task 2 on its overdue terminal
    state.v[:] = np.array([0.9, 0.05, 0.0, 0.05])[:, None]
    state.v[:, 2] = [0.05, 0.05, 0.0, 0.9]
    return scen, state


@pytest.mark.parametrize("h_min, branch", [(0.05, "sbs2"), (0.5, "sbs2")])
def test_round_to_feasible_promotes_to_cheapest_open_sbs(h_min, branch):
    # at h_min 0.05 task 2 meets its deadline on either SBS and the tuple
    # costs less with it on SBS 2; at h_min 0.5 SBS 1 holds its two tasks
    # and is full
    scen, state = _slow_exact_branches(h_min)
    placement = round_to_feasible(state.v, scen, 0.5)
    assert placement.branches() == ["sbs1", "sbs1", branch]
    assert costs.check_feasibility(placement, scen).ok


def _counting_builds(monkeypatch):
    """The list of every table build, each entry saying whether it ran
    inside a `costs.price_tuple` call."""
    builds, depth = [], [0]
    build, price = costs.build_cost_tables, costs.price_tuple

    def counting_build(*args):
        builds.append(depth[0] > 0)
        return build(*args)

    def pricing(*args):
        depth[0] += 1
        try:
            return price(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(costs, "build_cost_tables", counting_build)
    monkeypatch.setattr(costs, "price_tuple", pricing)
    return builds


def test_round_to_feasible_builds_tables_only_in_the_pricers_sweeps(
        monkeypatch):
    # an all-terminal iterate rounds without a table; a promotion that
    # tries both SBSs builds only the pricer's own sweeps, none for the
    # utility or the feasibility of a candidate
    builds = _counting_builds(monkeypatch)
    scen = generate_scenario(ScenarioConfig(n_tasks=4, n_sbs=2, seed=0))
    state = init_state(scen, SolverConfig())
    state.v[:] = np.array([0.05, 0.05, 0.0, 0.9])[:, None]
    placement = round_to_feasible(state.v, scen, 0.5)
    assert placement.branches() == ["local"] * 4
    assert builds == []

    scen, state = _slow_exact_branches(0.05)
    placement = round_to_feasible(state.v, scen, 0.5)
    assert placement.branches() == ["sbs1", "sbs1", "sbs2"]
    # the first tuple, one per SBS tried for task 2, and the last
    assert len(builds) >= 4 and all(builds)


def test_round_to_feasible_names_a_task_no_sbs_can_take():
    scen, state = _slow_exact_branches(0.05, late_t_max=1e-6)
    with pytest.raises(InfeasibleTaskError) as err:
        round_to_feasible(state.v, scen, 0.5)
    assert err.value.tasks == [2]


def test_round_to_feasible_names_a_promoted_task_that_misses_again(
        monkeypatch):
    # task 0 meets its deadline on the terminal, but every priced record
    # reports it late, so its promotion back to the terminal misses again
    scen = generate_scenario(ScenarioConfig(n_tasks=2, n_sbs=1, seed=0))
    state = init_state(scen, SolverConfig())
    state.v[:] = np.array([0.05, 0.05, 0.9])[:, None]
    price = costs.price_tuple

    def late(scenario, alpha, choice, memo):
        placement, named, util, report = price(scenario, alpha, choice, memo)
        report.deadline_ok[0] = False
        return placement, named, util, report

    monkeypatch.setattr(costs, "price_tuple", late)
    with pytest.raises(InfeasibleTaskError) as err:
        round_to_feasible(state.v, scen, 0.5)
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
    # one count per iteration; zero throughout the 100-task reference,
    # where no task stalls either, and not zero once tight deadlines leave
    # global solves above tolerance: tight seed 2 has two tasks with a
    # branch of 2e4-7e4 s, whose lifts fall inside the interior margin,
    # and they end its fifth global solve unconverged
    reference = generate_scenario(ScenarioConfig(n_tasks=100, n_sbs=5, seed=42))
    _, trace = run(reference, SolverConfig(record_timing=False))
    assert trace.global_unconverged == [0] * len(trace.records)
    assert trace.global_stalled == [0] * len(trace.records)

    tight = generate_scenario(ScenarioConfig(n_tasks=100, n_sbs=5, seed=2,
                                             t_max_range=(0.02, 0.08)))
    _, trace = run(tight, SolverConfig(max_iter=5, record_timing=False))
    assert len(trace.global_unconverged) == len(trace.records) == 5
    assert max(trace.global_unconverged) > 0


def test_primal_sweep_never_raises_lagrangian(small_scenario):
    rises = lagrangian_rises(small_scenario,
                             SolverConfig(max_iter=40, cbgp_rounds=30))
    assert max(rises) <= 1e-9


def test_optimize_branch_split_matches_oracle_split_search():
    # the analytic candidate set must find a feasible split exactly when the
    # independent lattice search does, and never cost more than it
    rng = np.random.default_rng(21)
    checked = 0
    for tables, i, j, h in _random_split_pairs(rng, 24):
        c = tables.c
        c0, c1, _, delay, _, feasible = costs.best_splits(tables, i, j, h)
        for k in range(len(i)):
            ref = lattice_split(tables, i[k], j[k], h[k])
            assert (not feasible[k]) == (ref is None), (i[k], j[k], h[k])
            checked += 1
            if not feasible[k]:
                continue
            assert min(c0[k], c1[k]) >= 0.0
            assert c0[k] + c1[k] <= c[j[k]] * (1.0 + 1e-12)
            priced, cost = split_cost(tables, i[k], j[k], c0[k], c1[k],
                                      1.0 / h[k])
            assert priced == delay[k]
            assert delay[k] <= tables.t_max[j[k]] * (1.0 + 1e-12) + 1e-15
            assert cost <= ref[2] + 1e-9 * abs(ref[2]), (i[k], j[k], h[k])
    assert checked > 300


# the scalar pricer the batched one replaced, kept verbatim as a reference
# (only renamed); it walks a Python set of forwarded-part candidates

def _scalar_min_delay_split(tables, i, j, r):
    """Fastest split of the branch, alternating the two analytic pieces."""
    c = tables.c[j]
    c0, c1 = 0.0, 0.0
    for _ in range(2):
        c0_coef = tables.d_c0[j] - 1.0 / tables.rate[i, j] - tables.u_over_fs[i, j] * r
        c0 = 0.0 if c0_coef >= 0 else c - c1
        if tables.w2[i, j] > 0:
            c1_star = ((tables.u_over_fs[i, j] * r - tables.d_mbs_exec[j]
                        - tables.w1[i, j]) / (2.0 * tables.w2[i, j]))
        else:
            c1_star = 0.0
        c1 = float(np.clip(c1_star, 0.0, c - c0))
    return c0, c1


def _scalar_optimize_branch_split(tables, i: int, j: int, h: float):
    """Best deadline-feasible split of task j on SBS i at resource share h.

    The split cost is linear in the terminal part and convex quadratic in
    the forwarded part, so the constrained optimum is one of finitely many
    analytic candidates: simplex corners, the two stationary forwarded
    parts (free and along the full-offload edge), and the points where the
    deadline binds.  Returns (c0, c1, delay) or None when even the fastest
    split misses the deadline.
    """
    c = tables.c[j]
    r = 1.0 / h
    t_max = tables.t_max[j]
    a = tables.alpha
    w2, w1 = tables.w2[i, j], tables.w1[i, j]
    urf = tables.u_over_fs[i, j] * r
    q = tables.d_c0[j] - 1.0 / tables.rate[i, j] - urf
    d1 = w1 + tables.d_mbs_exec[j] - urf
    d0 = c / tables.rate[i, j] + tables.w0[i, j] + urf * c
    k_c0 = (a * q + (1.0 - a) * (tables.e_c0[j] - tables.e_up[i, j]
                                 - tables.e_sbs[i, j]))
    k_c1 = (a * d1 + (1.0 - a) * (tables.transfer_coef[i, j]
                                  + tables.e_mbs_exec[j] - tables.e_sbs[i, j]))

    c1_cands = {0.0, c}
    if w2 > 0:
        if a > 0:
            c1_cands.add(-k_c1 / (2.0 * a * w2))          # free stationary
            c1_cands.add((k_c0 - k_c1) / (2.0 * a * w2))  # along c0 = c - c1
        c1_cands.add(-d1 / (2.0 * w2))                    # fastest forwarded part
        if q != 0:
            ab = w2 * (a - k_c0 / q)
            bb = k_c1 - k_c0 * d1 / q
            if ab > 0:
                c1_cands.add(-bb / (2.0 * ab))            # along the deadline face
        # deadline boundary along c0 = 0 and along c0 = c - c1
        for shift, const in ((d1, d0 - t_max), (d1 - q, d0 + q * c - t_max)):
            disc = shift * shift - 4.0 * w2 * const
            if disc >= 0:
                root = np.sqrt(disc)
                c1_cands.add((-shift - root) / (2.0 * w2))
                c1_cands.add((-shift + root) / (2.0 * w2))

    pairs = []
    for c1 in c1_cands:
        if not np.isfinite(c1):
            continue
        c1 = float(np.clip(c1, 0.0, c))
        for c0 in (0.0, c - c1):
            pairs.append((c0, c1))
        if q != 0 and c1 > 0:
            c0b = (t_max - d0 - d1 * c1 - w2 * c1 * c1) / q
            pairs.append((float(np.clip(c0b, 0.0, c - c1)), c1))
    # the c1 = 0 regime drops the wired charge entirely
    if q != 0:
        c0b = (t_max - (c / tables.rate[i, j] + urf * c)) / q
        pairs.append((float(np.clip(c0b, 0.0, c)), 0.0))
    pairs.append(_scalar_min_delay_split(tables, i, j, r))

    c0a, c1a = np.array(pairs).T
    keep = (c0a >= 0) & (c1a >= 0) & (c0a + c1a <= c * (1.0 + 1e-12))
    c0a, c1a = c0a[keep], np.minimum(c1a[keep], c - c0a[keep])
    delay, cost = split_cost(tables, i, j, c0a, c1a, r)
    feas = delay <= t_max * (1.0 + 1e-12) + 1e-15
    if not feas.any():
        return None
    # argmin takes the first minimum, so ties go to the earlier candidate
    k = int(np.argmin(np.where(feas, cost, np.inf)))
    return float(c0a[k]), float(c1a[k]), float(delay[k])


def _random_split_pairs(rng, n_scenarios):
    """(tables, i, j, h) batches over random scenarios: loose and tight
    deadlines, alpha at 0, 1 and in between, shares at both ends of
    [h_min, 1] and inside."""
    for trial in range(n_scenarios):
        n, s = int(rng.integers(1, 30)), int(rng.integers(1, 4))
        t_max_range = [(15.0, 30.0), (0.02, 0.08), (0.005, 0.03)][trial % 3]
        scen = generate_scenario(ScenarioConfig(
            n_tasks=n, n_sbs=s, seed=int(rng.integers(0, 100000)),
            t_max_range=t_max_range))
        c = scen.c_array()
        c1_frozen = rng.uniform(0.0, 1.0, (s, n)) * c[None, :]
        c1_frozen[rng.uniform(size=(s, n)) < 0.3] = 0.0
        alpha = [0.0, 1.0, 0.5, float(rng.uniform())][trial % 4]
        tables = costs.build_cost_tables(scen, alpha, rng.uniform(0.0, 1.0, (s, n)),
                                         c1_frozen)
        i, j = (a.ravel() for a in np.indices((s, n)))
        i, j = np.tile(i, 3), np.tile(j, 3)
        h = rng.uniform(scen.config.h_min, 1.0, len(i))
        h[: s * n] = 1.0
        h[s * n: 2 * s * n: 2] = scen.config.h_min
        yield tables, i, j, h


def _assert_matches_scalar(tables, i, j, h):
    """Batched rows equal the scalar reference bit for bit; returns the
    rows' feasibility."""
    c0, c1, _, delay, _, feasible = costs.best_splits(tables, i, j, h)
    for k in range(len(i)):
        ref = _scalar_optimize_branch_split(tables, i[k], j[k], h[k])
        assert feasible[k] == (ref is not None), (i[k], j[k], h[k])
        if ref is None:
            assert np.isnan([c0[k], c1[k], delay[k]]).all()
            continue
        got = np.array([c0[k], c1[k], delay[k]])
        assert got.tobytes() == np.array(ref).tobytes(), (i[k], j[k], h[k])
    return feasible


def test_batched_split_pricer_bit_identical_to_scalar_reference():
    rng = np.random.default_rng(31)
    rows = infeasible = 0
    alphas = set()
    for tables, i, j, h in _random_split_pairs(rng, 60):
        feasible = _assert_matches_scalar(tables, i, j, h)
        rows += len(i)
        infeasible += int((~feasible).sum())
        alphas.add(tables.alpha)
    assert rows >= 3000
    assert 0.0 in alphas and 1.0 in alphas
    assert 100 <= infeasible <= rows - 1000

    # free energy at alpha = 0 prices every split at exactly 0, so every
    # feasible candidate ties and both forms must keep the first one
    tied = 0
    for tables, i, j, h in _random_split_pairs(rng, 6):
        zero = np.zeros_like(tables.e_up)
        flat = dataclasses.replace(
            tables, alpha=0.0, e_c0=zero[0], e_mbs_exec=zero[0], e_up=zero,
            e_sbs=zero, transfer_coef=zero)
        feasible = _assert_matches_scalar(flat, i, j, h)
        c0, c1, *_ = costs.best_splits(flat, i, j, h)
        tied += int(((c0 == 0.0) & (c1 == 0.0) & feasible).sum())
    assert tied >= 100


def test_batched_split_pricer_rows_are_independent(monkeypatch):
    rng = np.random.default_rng(32)
    for tables, i, j, h in _random_split_pairs(rng, 6):
        whole = costs.best_splits(tables, i, j, h)
        perm = rng.permutation(len(i))
        permuted = costs.best_splits(tables, i[perm], j[perm], h[perm])
        with monkeypatch.context() as m:
            m.setattr(costs, "SPLIT_BLOCK_ROWS", 7)
            blocked = costs.best_splits(tables, i, j, h)
        for a, b, c in zip(whole, permuted, blocked):
            assert a[perm].tobytes() == b.tobytes()
            assert a.tobytes() == c.tobytes()
        empty = costs.best_splits(tables, i[:0], j[:0], h[:0])
        assert [a.shape for a in empty] == [(0,)] * 6
        assert empty[5].dtype == bool


def test_split_record_is_the_chosen_split_as_priced():
    # every feasible row of `best_splits` holds ci = c - c0 - c1 and the
    # alpha-weighted `split_price` of its split, bit for bit, and every
    # infeasible row NaN; alpha runs through 0 and 1, and a share of the
    # pairs is unassigned, so their relay carries no quadratic term
    rng = np.random.default_rng(33)
    rows = flat_rows = 0
    alphas = set()
    for trial in range(40):
        n, s = int(rng.integers(1, 12)), int(rng.integers(1, 4))
        scen = generate_scenario(ScenarioConfig(
            n_tasks=n, n_sbs=s, seed=int(rng.integers(0, 100000)),
            t_max_range=[(15.0, 30.0), (0.02, 0.08), (0.005, 0.03)][trial % 3]))
        x = rng.uniform(0.0, 1.0, (s, n))
        x[rng.uniform(size=(s, n)) < 0.4] = 0.0
        c1_frozen = rng.uniform(0.0, 1.0, (s, n)) * scen.c_array()[None, :]
        c1_frozen[rng.uniform(size=(s, n)) < 0.3] = 0.0
        alpha = [0.0, 1.0, 0.5, float(rng.uniform())][trial % 4]
        tables = costs.build_cost_tables(scen, alpha, x, c1_frozen)
        i, j = (a.ravel() for a in np.indices((s, n)))
        h = rng.uniform(scen.config.h_min, 1.0, len(i))
        h[::2] = 1.0
        c0, c1, ci, delay, cost, ok = costs.best_splits(tables, i, j, h)
        assert np.isnan(np.array([c0, c1, ci, delay, cost])[:, ~ok]).all()
        c0, c1, ci, delay, cost = (a[ok] for a in (c0, c1, ci, delay, cost))
        i, j, h = i[ok], j[ok], h[ok]
        assert ci.tobytes() == (tables.c[j] - c0 - c1).tobytes()
        d, e = tables.split_price(c0, c1, ci, 1.0 / h, i, j)
        assert delay.tobytes() == d.tobytes()
        assert cost.tobytes() == (alpha * d + (1.0 - alpha) * e).tobytes()
        rows += len(i)
        flat_rows += int((tables.w2[i, j] == 0).sum())
        if len(i):
            alphas.add(alpha)
    assert rows >= 300 and flat_rows >= 100
    assert 0.0 in alphas and 1.0 in alphas


def test_reference_run_newton_steps_and_utility(monkeypatch):
    # the global solves of the 100-task reference take 6 Newton steps over
    # 14 iterations, none in the first 8: every task starts the one
    # barrier level at the barrier's equilibrium around its exact limit;
    # the solve runs on 8 of the 14 iterations, the first and the last 6,
    # and iterations 2-8 reuse the first; the placement is pinned by its
    # utility
    calls = []
    solve_global = admm.global_block.solve_global

    def counted(*args, **kwargs):
        v, m, info = solve_global(*args, **kwargs)
        calls.append(info["newton_iterations"])
        return v, m, info

    monkeypatch.setattr(admm.global_block, "solve_global", counted)
    scen = generate_scenario(ScenarioConfig(n_tasks=100, n_sbs=5, seed=42))
    config = SolverConfig(record_timing=False)
    placement, trace = run(scen, config)
    steps = trace.newton_steps
    assert steps[:8] == [0] * 8 and sum(steps) == 6
    assert len(steps) == 14 and len(calls) == 8 and sum(calls) == 6
    assert costs.utility(placement, scen,
                         UtilityWeights(config.alpha)) == 1.996138694111688


def test_trace_counts_newton_steps_and_cbgp_sweeps(monkeypatch):
    # the trace's health counters are what the blocks return, one entry per
    # iteration: the 6 Newton steps of the reference run, on the 8
    # iterations whose global solve runs (a reused solve counts 0), and
    # the split block's 16 sweeps (0 when there is no SBS); and the
    # overdue splits `run` repairs, all of them at iteration 1 there
    ran, sweeps = {}, []
    solve_global = admm.global_block.solve_global
    cbgp_solve = admm.local_blocks.cbgp_solve

    def counted_global(*args, **kwargs):
        v, m, info = solve_global(*args, **kwargs)
        # the split block runs first in each iteration
        ran[len(sweeps) - 1] = info["newton_iterations"]
        return v, m, info

    def counted_cbgp(*args, **kwargs):
        vars, history = cbgp_solve(*args, **kwargs)
        sweeps.append(len(history) - 1)
        return vars, history

    monkeypatch.setattr(admm.global_block, "solve_global", counted_global)
    monkeypatch.setattr(admm.local_blocks, "cbgp_solve", counted_cbgp)
    scen = generate_scenario(ScenarioConfig(n_tasks=100, n_sbs=5, seed=42))
    _, trace = run(scen, SolverConfig(record_timing=False))
    steps = [ran.get(k, 0) for k in range(len(trace.records))]
    assert trace.newton_steps == steps and sum(trace.newton_steps) == 6
    assert trace.newton_steps == [0] * 8 + [1] * 6 and len(ran) == 8
    assert trace.cbgp_sweeps == sweeps and sum(sweeps) == 16
    assert len(sweeps) == len(trace.records) and min(sweeps) >= 1
    assert trace.split_repairs == [94] + [0] * 13

    scen = generate_scenario(ScenarioConfig(n_tasks=3, n_sbs=0, seed=1))
    _, trace = run(scen, SolverConfig(record_timing=False))
    assert trace.cbgp_sweeps == trace.split_repairs == [0] * len(trace.records)
    assert len(trace.newton_steps) == len(trace.records)


def test_reused_phases_match_fresh_evaluation(monkeypatch):
    # `run` reuses a phase's output while its inputs hold still; each
    # iteration's global iterate must be, bit for bit, a fresh solve of
    # that iteration's problem, and each trace utility a fresh pricing of
    # that iteration's relaxed state.  On loose seed 22 the first
    # iteration moves the shares by an ulp, and a utility reused across
    # that change reads 66.501725501946822 in iterations 2-8, not
    # 66.501725501946837
    problems, calls, fresh = [], [], []
    real_problem = admm.global_block.GlobalProblem
    solve_global = admm.global_block.solve_global
    residuals = admm.residuals

    def captured(**kwargs):
        problems.append(real_problem(**kwargs))
        return problems[-1]

    def counted(problem, *args, **kwargs):
        calls.append(problem)
        return solve_global(problem, *args, **kwargs)

    def checked(state):
        v, _, _ = solve_global(problems[-1])
        util, _ = admm._trace_utility(state, scen,
                                      UtilityWeights(config.alpha))
        fresh.append((v.tobytes() == state.v.tobytes(), util))
        return residuals(state)

    monkeypatch.setattr(admm.global_block, "GlobalProblem", captured)
    monkeypatch.setattr(admm.global_block, "solve_global", counted)
    monkeypatch.setattr(admm, "residuals", checked)
    cases = [(dict(n_tasks=100, seed=42), 200), (dict(n_tasks=100, seed=22), 200),
             (dict(n_tasks=100, seed=42, t_max_range=(0.02, 0.08)), 30),
             (dict(n_tasks=1000, seed=42), 200)]
    reused = []
    for fields, max_iter in cases:
        for log in (problems, calls, fresh):
            log.clear()
        scen = generate_scenario(ScenarioConfig(n_sbs=5, **fields))
        config = SolverConfig(max_iter=max_iter, record_timing=False)
        _, trace = run(scen, config)
        assert len(fresh) == len(problems) == len(trace.records)
        assert all(same for same, _ in fresh), fields
        assert [util for _, util in fresh] == trace.utilities().tolist()
        reused.append(len(trace.records) - len(calls))
    # the checks cover reused solves: every loose run reuses some, the
    # tight twin none
    assert reused[0] > 0 and reused[1] > 0 and reused[2] == 0 and reused[3] > 0


def test_tight_twin_iterates_pinned():
    # the iterates of a non-converging tight-deadline run are sensitive to
    # the summation order of the station loads; loose runs mask a change
    # there, the utility of the 20th iterate does not
    scen = generate_scenario(ScenarioConfig(n_tasks=100, n_sbs=5, seed=42,
                                            t_max_range=(0.02, 0.08)))
    _, trace = run(scen, SolverConfig(max_iter=20, record_timing=False))
    assert len(trace.records) == 20
    assert trace.records[-1].utility == 3.427192342245729


def test_loose_seeds_converge_to_their_capped_placements():
    # loose seeds 4 and 37 converge only when the split block accepts each
    # sweep on the Lagrangian its step minimises; on an objective without
    # the multiplier terms they run to the 200-iteration cap, where they
    # round to these same utilities
    for seed, pinned in ((4, 2.0974130743313304), (37, 1.9740958951300738)):
        scen = generate_scenario(ScenarioConfig(n_tasks=100, n_sbs=5,
                                                seed=seed))
        config = SolverConfig(record_timing=False)
        placement, trace = run(scen, config)
        assert trace.converged and len(trace.records) <= 15
        assert costs.utility(placement, scen,
                             UtilityWeights(config.alpha)) == pinned


def test_tight_twin_newton_steps_bounded(monkeypatch):
    # every task starts the global block's one barrier level at the
    # barrier's equilibrium around its exact limit; over 30 iterations of
    # the non-converging seed 42 twin the global solves take 264 Newton
    # steps (474 with an interior margin of 1e-9 above the equilibria of
    # the slowest branches, 537 with the lift that ignored the vertex
    # shift and a slack floor of 1e-3 t_max, 977 when a task whose last
    # solve failed walked three barrier levels from its previous iterate);
    # the trace counts each solve's stalled tasks, of which tight seed 2
    # has one, at iteration 7
    steps, stalled = [], []
    solve_global = admm.global_block.solve_global

    def counted(*args, **kwargs):
        v, m, info = solve_global(*args, **kwargs)
        steps.append(info["newton_iterations"])
        stalled.append(int(info["stalled"].sum()))
        return v, m, info

    monkeypatch.setattr(admm.global_block, "solve_global", counted)
    scen = generate_scenario(ScenarioConfig(n_tasks=100, n_sbs=5, seed=42,
                                            t_max_range=(0.02, 0.08)))
    _, trace = run(scen, SolverConfig(max_iter=30, record_timing=False))
    assert len(trace.records) == len(steps) == 30
    assert sum(steps) <= 474
    assert trace.global_stalled == stalled

    steps.clear()
    stalled.clear()
    scen = generate_scenario(ScenarioConfig(n_tasks=100, n_sbs=5, seed=2,
                                            t_max_range=(0.02, 0.08)))
    _, trace = run(scen, SolverConfig(max_iter=30, record_timing=False))
    assert len(trace.records) == len(steps) == 30
    assert trace.global_stalled == stalled and sum(stalled) > 0
