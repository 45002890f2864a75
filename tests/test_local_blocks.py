import dataclasses

import numpy as np
import pytest

from edgealloc import costs, local_blocks
from edgealloc.local_blocks import (CbgpVars, LocalProblem,
                                    block_objective, cbgp_solve,
                                    majorize_penalty, project_interval,
                                    rlt_bounds, solve_bit_branch)
from edgealloc.scenario import ScenarioConfig, generate_scenario


# -- linearized product envelope ---------------------------------------------

def test_rlt_bounds_collapse_at_binary_points():
    lo, hi = rlt_bounds(1.0, 2.0, 0.2)
    assert lo == hi == 2.0
    lo, hi = rlt_bounds(0.0, 2.0, 0.2)
    assert lo == hi == 0.0


def test_rlt_bounds_fractional_example():
    lo, hi = rlt_bounds(0.5, 2.0, 0.2)
    assert lo == pytest.approx(0.5)
    assert hi == pytest.approx(1.5)


def test_rlt_exactness_property():
    rng = np.random.default_rng(0)
    h_min = rng.uniform(0.01, 1.0, 10_000)
    r = 1.0 + rng.uniform(0.0, 1.0, 10_000) * (1.0 / h_min - 1.0)
    for x_hat, expected in ((1.0, r), (0.0, np.zeros_like(r))):
        los = np.empty_like(r)
        his = np.empty_like(r)
        for k in range(len(r)):
            los[k], his[k] = rlt_bounds(x_hat, r[k], h_min[k])
        assert np.array_equal(los, expected)
        assert np.array_equal(his, expected)


def test_interval_projection_clamps():
    assert project_interval(3.0, 0.5, 1.5) == pytest.approx(1.5)
    assert project_interval(-1.0, 0.5, 1.5) == pytest.approx(0.5)
    assert project_interval(1.0, 0.5, 1.5) == pytest.approx(1.0)
    # idempotence on boxes
    v = np.array([-2.0, 0.7, 9.0])
    once = project_interval(v, 0.0, 1.0)
    assert np.array_equal(project_interval(once, 0.0, 1.0), once)


def test_interval_projection_empty_uses_nearest_endpoint():
    assert project_interval(0.1, 1.0, 0.5) == pytest.approx(0.5)
    assert project_interval(2.0, 1.0, 0.5) == pytest.approx(1.0)


def test_rlt_bounds_rounding_gives_near_empty_interval_at_full_share():
    # at r = 1, hi = 1 + (x - 1) rounds below lo = x for about a sixth of
    # a fine grid; the projection then returns one of the two endpoints,
    # the nearer one (a plain clip would always return hi)
    x = np.linspace(0.0, 1.0, 100_001)
    lo, hi = rlt_bounds(x, 1.0, 0.05)
    empty = lo > hi
    lo, hi = lo[empty], hi[empty]
    assert len(lo) > 10_000
    assert np.all(lo - hi <= 1e-16)
    assert np.array_equal(project_interval(1.0, lo, hi), lo)
    assert np.array_equal(project_interval(0.0, lo, hi), hi)
    mid = project_interval(0.25, lo, hi)
    assert np.all((mid == lo) | (mid == hi))


# -- corner penalty majorization ----------------------------------------------

def test_majorize_penalty_examples():
    # (slope, intercept) of the tangent of delta * (x - x^2) at x_prev
    slope, intercept = majorize_penalty(1.0, 0.5)
    assert (slope, intercept) == pytest.approx((0.0, 0.25))
    assert slope * 0.8 + intercept >= 0.8 - 0.64
    slope, intercept = majorize_penalty(1.0, 0.0)
    assert slope * 1.0 + intercept == pytest.approx(1.0)
    assert majorize_penalty(0.3, 0.25) == pytest.approx((0.15, 0.01875))


def test_majorize_penalty_upper_bounds_true_penalty():
    rng = np.random.default_rng(1)
    x_prev = rng.uniform(0, 1, 10_000)
    x = rng.uniform(0, 1, 10_000)
    for delta in (0.3, 1.0, 2.0):
        slope, intercept = majorize_penalty(delta, x_prev)
        true = delta * (x - x * x)
        assert np.all(slope * x + intercept >= true - 1e-12)
        at_tangent = slope * x_prev + intercept
        assert np.allclose(at_tangent, delta * (x_prev - x_prev ** 2),
                           atol=1e-12)


# -- binary branch blocks ------------------------------------------------------

def test_local_branch_examples():
    # positive cost, zero dual, global at zero: stay off
    assert solve_bit_branch(np.array([1.0]), np.array([0.0]),
                            np.array([0.0]), 1.0)[0] == 0.0
    # the worked two-point comparison with a favorable dual
    z = solve_bit_branch(np.array([22.518]), np.array([1.0]),
                         np.array([-30.0]), 1.0)
    assert z[0] == 1.0
    # huge prox strength rounds the global value
    for g, want in ((0.8, 1.0), (0.2, 0.0)):
        z = solve_bit_branch(np.array([1.0]), np.array([g]),
                             np.array([0.0]), 1e9)
        assert z[0] == want


def test_local_branch_matches_brute_reimplementation():
    rng = np.random.default_rng(2)
    k = rng.uniform(0, 50, 300)
    z = rng.uniform(0, 1, 300)
    beta = rng.normal(0, 20, 300)
    rho = 1.3
    got = solve_bit_branch(k, z, beta, rho)
    for i in range(300):
        f = lambda v: k[i] * v + beta[i] * v + 0.5 * rho * (v - z[i]) ** 2
        assert got[i] == (0.0 if f(0.0) <= f(1.0) else 1.0)


def test_mbs_branch_mirrors_and_respects_feasibility():
    y = solve_bit_branch(np.array([5.0]), np.array([1.0]),
                         np.array([-40.0]), 1.0)
    assert y[0] == 1.0
    y = solve_bit_branch(np.array([5.0]), np.array([1.0]), np.array([-40.0]),
                         1.0, feasible=np.array([False]))
    assert y[0] == 0.0
    assert solve_bit_branch(np.array([0.1]), np.array([0.0]),
                            np.array([0.0]), 1.0)[0] == 0.0


# -- cyclic block-coordinate gradient projection -------------------------------

def _problem(n_tasks=1, n_sbs=1, seed=0, alpha=0.5, delta=1.0, **cfg):
    scen = generate_scenario(ScenarioConfig(n_tasks=n_tasks, n_sbs=n_sbs,
                                            seed=seed, **cfg))
    s, n = scen.n_sbs, scen.n_tasks
    x0 = np.full((s, n), 1.0 / (s + 2))
    tables = costs.build_cost_tables(scen, alpha, x0,
                                     np.tile(scen.c_array() / 3, (s, 1)))
    scale = float(np.minimum(tables.k_local, tables.k_mbs).mean())
    problem = LocalProblem.from_tables(tables, np.ones((s, n)), x0,
                                       np.zeros((s, n)), rho=1.0,
                                       delta=delta, cost_scale=scale)
    c = scen.c_array()
    vars = CbgpVars.start(x_hat=x0.copy(), R=x0.copy(),
                          c0=np.tile(c / 3, (s, 1)), c1=np.tile(c / 3, (s, 1)),
                          ci=np.tile(c / 3, (s, 1)))
    return scen, problem, vars


def test_branch_cost_charges_relay_base_delay_with_nothing_forwarded():
    # `split_price` charges no relay delay where nothing is forwarded, the
    # split block's assignment coefficient charges the base delay w0 there;
    # the tables are frozen with every task forwarding a third, so each
    # route carries the others' load
    rng = np.random.default_rng(8)
    scen = generate_scenario(ScenarioConfig(n_tasks=6, n_sbs=2, seed=3))
    s, n = scen.n_sbs, scen.n_tasks
    alpha, scale = 0.4, 7.0
    x = np.full((s, n), 0.25)
    tables = costs.build_cost_tables(scen, alpha, x,
                                     np.tile(scen.c_array() / 3, (s, 1)))
    problem = LocalProblem.from_tables(tables, np.ones((s, 1)), x,
                                       np.zeros((s, n)), rho=1.0, delta=0.0,
                                       cost_scale=scale)
    c0 = rng.uniform(0, 1, (s, n)) * scen.c_array()
    c1 = np.zeros((s, n))
    ci = scen.c_array() - c0
    delay, energy = tables.split_price(c0, c1, ci, 0.0)
    priced = (alpha * delay + (1.0 - alpha) * energy) / scale
    extra = problem.branch_cost(c0, c1, ci) - priced
    assert np.all(tables.w0 > 0)
    assert np.allclose(extra, alpha * tables.w0 / scale, rtol=0.0,
                       atol=1e-12 * np.abs(priced).max())


def test_block_objective_is_the_objective_plus_each_envelope_row_times_its_multiplier():
    # the grouped Lagrangian against the objective without multiplier
    # terms plus mu_c * g_c formed row by row, at random points, shares,
    # tangency points and multipliers
    rng = np.random.default_rng(12)
    for trial in range(40):
        scen, problem, vars = _problem(
            n_tasks=int(rng.integers(1, 7)), n_sbs=int(rng.integers(1, 4)),
            seed=int(rng.integers(0, 1000)), alpha=float(rng.uniform(0.1, 0.9)),
            delta=float(rng.uniform(0.0, 2.0)))
        shape, inv = vars.x_hat.shape, 1.0 / problem.h_min
        problem.dual = rng.normal(0, 2.0, shape)
        problem.x_global = rng.uniform(0, 1, shape)
        problem.r = rng.uniform(1.0, inv, shape)
        vars.x_hat = rng.uniform(0, 1, shape)
        vars.R = rng.uniform(0, inv, shape)
        for name in ("mu_env_lo", "mu_env_hi", "mu_shift_hi", "mu_shift_lo"):
            setattr(vars, name, rng.uniform(0, 1.0, shape))
        x_prev = rng.uniform(0, 1, shape)
        x, R, r, p = vars.x_hat, vars.R, problem.r, problem
        gap = x - p.x_global
        slope, intercept = majorize_penalty(p.delta, x_prev)
        terms = [x * p.branch_cost(vars.c0, vars.c1, vars.ci),
                 p.alpha * p.sbs_cycle * vars.ci * R, p.dual * x,
                 0.5 * p.rho * gap * gap, slope * x + intercept,
                 vars.mu_env_lo * (x - R), vars.mu_env_hi * (R - x * inv),
                 vars.mu_shift_hi * (R - r - x + 1.0),
                 vars.mu_shift_lo * (r + x * inv - inv - R)]
        want = sum(terms).sum(axis=0)
        got = block_objective(problem, vars, x_prev)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_cbgp_zero_cost_task_follows_prox_point():
    scen, problem, vars = _problem(delta=0.0)
    # zero out every priced coefficient: the assignment row must land on
    # the consensus prox point
    for name in ("d_c0", "d_up", "d_m", "sbs_cycle", "w2", "w1", "w0",
                 "e_c0", "e_up", "e_s", "e_m1"):
        setattr(problem, name, np.zeros_like(getattr(problem, name)))
    vars, _ = cbgp_solve(problem, vars, rounds=5)
    assert np.allclose(vars.x_hat, problem.x_global, atol=1e-9)


def test_cbgp_descends_every_sweep():
    rng = np.random.default_rng(3)
    for trial in range(20):
        scen, problem, vars = _problem(
            n_tasks=int(rng.integers(1, 4)), n_sbs=int(rng.integers(1, 3)),
            seed=int(rng.integers(0, 1000)), alpha=float(rng.uniform(0.1, 0.9)))
        problem.dual = rng.normal(0, 0.5, problem.dual.shape)
        vars, history = cbgp_solve(problem, vars, rounds=30)
        values = np.stack(history)
        assert np.all(np.diff(values, axis=0) <= 1e-8)


def test_cbgp_matches_grid_search_on_quadratic_instance():
    # delay-dominant weighting so the wired quadratic shapes the optimum;
    # a strongly negative dual pins the assignment at one so the grid
    # comparison isolates the split blocks
    scen, problem, vars = _problem(alpha=1.0, delta=0.0, c_range=(2e5, 2e5))
    problem.x_global = np.ones_like(problem.x_global)
    problem.dual = np.full_like(problem.dual, -100.0)
    vars.x_hat = x_prev = np.ones_like(vars.x_hat)
    vars, _ = cbgp_solve(problem, vars, rounds=400, tol=1e-14)
    got = block_objective(problem, vars, x_prev)[0]

    c = scen.tasks[0].c
    grid = np.linspace(0.0, 1.0, 101)
    g0, g1 = np.meshgrid(grid, grid, indexing="ij")
    keep = g0 + g1 <= 1.0
    best = np.inf
    for f0, f1 in zip(g0[keep], g1[keep]):
        trial = CbgpVars.start(x_hat=np.ones_like(vars.x_hat), R=vars.R.copy(),
                               c0=np.array([[f0 * c]]), c1=np.array([[f1 * c]]),
                               ci=np.array([[(1 - f0 - f1) * c]]))
        best = min(best, block_objective(problem, trial, x_prev)[0])
    # gap measured on the cost scale, net of the constant dual offset that
    # both sides carry at the pinned assignment
    offset = float(problem.dual.sum())
    assert got - best <= 0.02 * abs(best - offset) + 1e-12


def test_cbgp_multipliers_stay_nonnegative():
    rng = np.random.default_rng(4)
    scen, problem, vars = _problem(n_tasks=2, n_sbs=2, seed=5)
    problem.dual = rng.normal(0, 1.0, problem.dual.shape)
    cbgp_solve(problem, vars, rounds=40)
    for name in ("mu_env_lo", "mu_env_hi", "mu_shift_hi", "mu_shift_lo"):
        assert np.all(getattr(vars, name) >= 0.0)


def test_cbgp_splits_stay_on_simplex():
    scen, problem, vars = _problem(n_tasks=3, n_sbs=2, seed=6)
    vars, _ = cbgp_solve(problem, vars, rounds=30)
    c = problem.c[None, :]
    assert np.all(vars.c0 >= -1e-9) and np.all(vars.c1 >= -1e-9)
    assert np.all(vars.ci >= -1e-9)
    assert np.allclose(vars.c0 + vars.c1 + vars.ci, c)


def test_cbgp_leaves_its_inputs_unchanged(monkeypatch):
    # the consensus loop passes rows of its state as the prox point, the
    # duals and the starting assignment without copying them; a rejected
    # sweep binds its fields back to the pre-sweep arrays or to merged
    # copies, and writes into none of them
    rng = np.random.default_rng(3)
    objective, proposed = local_blocks.block_objective, []

    def recording_objective(*args):
        proposed.append(objective(*args))
        return proposed[-1]

    monkeypatch.setattr(local_blocks, "block_objective", recording_objective)
    rejected = 0
    for trial in range(100):
        scen, problem, vars = _problem(
            n_tasks=int(rng.integers(1, 6)), n_sbs=int(rng.integers(1, 3)),
            seed=int(rng.integers(0, 1000)), alpha=float(rng.uniform(0.1, 0.9)))
        problem.dual = rng.normal(0, 0.5, problem.dual.shape)
        inputs = (problem.x_global, problem.dual, vars.x_hat)
        kept = [a.copy() for a in inputs]
        proposed.clear()
        _, history = cbgp_solve(problem, vars, rounds=30)
        # a rejected task's history entry keeps its pre-sweep value
        rejected += int(any((h != q).any() for h, q in zip(history, proposed)))
        for a, b in zip(inputs, kept):
            assert np.array_equal(a, b)
    assert rejected > 0


def test_sweep_writes_into_no_input_array():
    # `cbgp_solve` restores a rejected sweep from references to the arrays
    # the sweep started from, and hands every sweep the same per-solve
    # terms, so the sweep must bind new arrays and leave every array it
    # was given as it was
    rng = np.random.default_rng(5)
    for trial in range(20):
        scen, problem, vars = _problem(
            n_tasks=int(rng.integers(1, 6)), n_sbs=int(rng.integers(1, 3)),
            seed=int(rng.integers(0, 1000)), alpha=float(rng.uniform(0.1, 0.9)))
        problem.dual = rng.normal(0, 0.5, problem.dual.shape)
        vars.mu_env_lo = rng.uniform(0, 0.1, vars.mu_env_lo.shape)
        step = float(rng.uniform(0.01, local_blocks.DUAL_STEP0))
        arrays = {f.name: getattr(obj, f.name)
                  for obj in (problem, vars) for f in dataclasses.fields(obj)
                  if isinstance(getattr(obj, f.name), np.ndarray)}
        terms = local_blocks._sweep_terms(problem, vars.x_hat)
        arrays.update((f"terms[{k}]", a) for k, a in enumerate(terms))
        kept = {name: a.copy() for name, a in arrays.items()}
        for _ in range(3):
            local_blocks._sweep(problem, vars, terms, step)
        for name, a in arrays.items():
            assert np.array_equal(a, kept[name]), name
        swept = [getattr(vars, f.name) for f in dataclasses.fields(vars)]
        assert not any(new is a for new in swept for a in arrays.values())


# -- bit-for-bit referee of the split block ------------------------------------
#
# The split block as it was before its per-solve terms were formed once,
# kept as a reference (renamed, docstrings dropped, step scales taken
# out): every sweep forms every term again, the objective (the block's
# Lagrangian, grouped by x_hat and R) prices the branch cost again, the
# clamps are `np.clip`, and a rejected sweep is undone by masked writes
# into the new arrays, also when every task rejects it.  It also returns
# each sweep's rejection mask.

def _reference_block_objective(problem, vars, x_prev):
    p = problem
    cost = p.branch_cost(vars.c0, vars.c1, vars.ci)
    gap = vars.x_hat - p.x_global
    per_pair = (vars.x_hat * (cost + p.dual + p.delta * (1.0 - 2.0 * x_prev)
                              + vars.mu_env_lo - vars.mu_shift_hi
                              + (vars.mu_shift_lo - vars.mu_env_hi) / p.h_min)
                + vars.R * (p.alpha * p.sbs_cycle * vars.ci - vars.mu_env_lo
                            + vars.mu_env_hi + vars.mu_shift_hi
                            - vars.mu_shift_lo)
                + 0.5 * p.rho * gap * gap
                + vars.mu_shift_hi * (1.0 - p.r)
                + vars.mu_shift_lo * (p.r - 1.0 / p.h_min)
                + p.delta * x_prev * x_prev)
    return per_pair.sum(axis=0)


def _reference_project_interval(v, lo, hi):
    nearest = np.where(np.abs(v - lo) <= np.abs(v - hi), lo, hi)
    return np.where(lo <= hi, np.clip(v, np.minimum(lo, hi), hi), nearest)


def _reference_sweep(problem, vars, x_prev, sweep):
    p, a = problem, problem.alpha
    inv = 1.0 / p.h_min

    grad_r = a * p.sbs_cycle * vars.ci
    lo, hi = rlt_bounds(vars.x_hat, p.r, p.h_min)
    eps_r = 1.0 / (p.rho * p.h_min * p.h_min)
    vars.R = _reference_project_interval(vars.R - eps_r * grad_r, lo, hi)

    shared_pull = a * p.sbs_cycle * vars.R + (1.0 - a) * vars.x_hat * p.e_s
    grad_c0 = (vars.x_hat * (a * (p.d_c0[None, :] - p.d_up)
                             + (1.0 - a) * (p.e_c0[None, :] - p.e_up))
               - shared_pull)
    c_sq = p.c[None, :] * p.c[None, :]
    vars.c0 = np.clip(vars.c0 - c_sq / p.rho * grad_c0,
                      0.0, p.c[None, :] - vars.c1)

    grad_c1 = (vars.x_hat * (a * (2.0 * p.w2 * vars.c1 + p.w1 + p.d_m[None, :])
                             + (1.0 - a) * p.e_m1)
               - shared_pull)
    curv = np.maximum(p.rho, 2.0 * a * vars.x_hat * p.w2 * c_sq)
    vars.c1 = np.clip(vars.c1 - c_sq / curv * grad_c1,
                      0.0, p.c[None, :] - vars.c0)

    vars.ci = p.c[None, :] - vars.c0 - vars.c1

    mult_sum = (vars.mu_env_lo - vars.mu_env_hi * inv - vars.mu_shift_hi
                + vars.mu_shift_lo * inv)
    cost = p.branch_cost(vars.c0, vars.c1, vars.ci)
    lin = cost + p.dual + p.delta * (1.0 - 2.0 * x_prev) + mult_sum
    env = a * p.sbs_cycle * vars.ci
    with np.errstate(divide="ignore", invalid="ignore"):
        x_break = np.where(inv > 1.0, (inv - p.r) / (inv - 1.0), 1.0)
    x_break = np.clip(x_break, 0.0, 1.0)
    slope_at_break = lin + p.rho * (x_break - p.x_global)
    min_low = np.clip(p.x_global - (lin + env) / p.rho, 0.0, x_break)
    min_high = np.clip(p.x_global - (lin + env * inv) / p.rho, x_break, 1.0)
    vars.x_hat = np.where(slope_at_break + env > 0, min_low,
                          np.where(slope_at_break + env * inv < 0, min_high,
                                   x_break))

    s = local_blocks.DUAL_STEP0 / (sweep + 1.0)
    vars.mu_env_lo = np.maximum(0.0, vars.mu_env_lo + s * (vars.x_hat - vars.R))
    vars.mu_env_hi = np.maximum(0.0, vars.mu_env_hi + s * (vars.R - vars.x_hat * inv))
    vars.mu_shift_hi = np.maximum(
        0.0, vars.mu_shift_hi + s * (vars.R - p.r - vars.x_hat + 1.0))
    vars.mu_shift_lo = np.maximum(
        0.0, vars.mu_shift_lo + s * (p.r + vars.x_hat * inv - inv - vars.R))


_REFERENCE_SWEPT = ("x_hat", "R", "c0", "c1", "ci", "mu_env_lo", "mu_env_hi",
                    "mu_shift_hi", "mu_shift_lo")


def _reference_cbgp_solve(problem, vars, rounds=50, tol=1e-6):
    x_prev = vars.x_hat.copy()
    q = _reference_block_objective(problem, vars, x_prev)
    history, rejections = [q], []
    slack = 1e-12 * (1.0 + np.abs(q))
    for sweep in range(rounds):
        before = [(name, getattr(vars, name)) for name in _REFERENCE_SWEPT]
        _reference_sweep(problem, vars, x_prev, sweep)
        q_new = _reference_block_objective(problem, vars, x_prev)
        bad = q_new > q + slack
        rejections.append(bad)
        if np.any(bad):
            for name, old in before:
                getattr(vars, name)[:, bad] = old[:, bad]
            q_new = np.where(bad, q, q_new)
        history.append(q_new)
        if np.all(np.abs(q - q_new) <= tol * (1.0 + np.abs(q))):
            break
        q = q_new
    return vars, history, rejections


def test_cbgp_bit_identical_to_reference_with_every_term_formed_per_sweep():
    # the same random problems through both solves; every returned array
    # must match to the byte, over solves with no rejected sweep, with
    # sweeps some tasks reject and with sweeps every task rejects (which
    # end the solve)
    rng = np.random.default_rng(11)
    seen = {"none": 0, "some": 0, "all": 0}
    for trial in range(40):
        scen, problem, vars = _problem(
            n_tasks=int(rng.integers(1, 7)), n_sbs=int(rng.integers(1, 4)),
            seed=int(rng.integers(0, 1000)), alpha=float(rng.uniform(0.1, 0.9)),
            delta=float(rng.choice([0.0, 1.0])))
        problem.rho = float(rng.uniform(0.5, 4.0))
        problem.x_global = rng.uniform(0, 1, problem.x_global.shape)
        # duals this large make sweeps overshoot, so some get rejected
        problem.dual = rng.normal(0, float(rng.choice([0.5, 2.0, 5.0])),
                                  problem.dual.shape)
        vars.mu_env_lo = rng.uniform(0, 0.2, vars.mu_env_lo.shape)
        vars.mu_shift_lo = rng.uniform(0, 0.2, vars.mu_shift_lo.shape)
        ref_vars = dataclasses.replace(vars)
        ref_vars, ref_history, rejections = _reference_cbgp_solve(
            problem, ref_vars, rounds=30)
        vars, history = cbgp_solve(problem, vars, rounds=30)

        for bad in rejections:
            seen["all" if bad.all() else "some" if bad.any() else "none"] += 1
        for f in dataclasses.fields(vars):
            got, want = getattr(vars, f.name), getattr(ref_vars, f.name)
            assert got.tobytes() == want.tobytes(), f.name
        assert len(history) == len(ref_history)
        for got, want in zip(history, ref_history):
            assert got.tobytes() == want.tobytes()
    assert min(seen.values()) > 0, seen
