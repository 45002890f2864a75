import numpy as np
import pytest

from edgealloc import global_block as gb
from edgealloc.global_block import (GlobalProblem, assemble_newton,
                                    grad_smoothed, hess_diag_smoothed,
                                    interior_init, kkt_residual, line_search,
                                    nullspace_cg_solve, smoothed_objective,
                                    solve_global)


def _toy_problem(n=1, p=4, rho=1.0, seed=0, slack_deadline=True):
    rng = np.random.default_rng(seed)
    prox = rng.uniform(0.05, 0.95, (n, p))
    dual = rng.normal(0, 0.3, (n, p))
    tcoef = rng.uniform(0.001, 0.05, (n, p))
    t_max = np.full(n, 10.0) if slack_deadline else rng.uniform(0.01, 0.03, n)
    return GlobalProblem(prox=prox, dual=dual, tcoef=tcoef, t_max=t_max, rho=rho)


def test_smoothed_objective_symmetric_point():
    p = 4
    prob = GlobalProblem(prox=np.full((1, p), 0.5), dual=np.zeros((1, p)),
                         tcoef=np.full((1, p), 0.01), t_max=np.array([10.0]),
                         rho=1.0)
    v = np.full((1, p), 0.5)
    m = np.ones(1)  # log 1 contributes nothing
    val = smoothed_objective(v, m, prob, omega=1.0, xi=0.0)
    assert val[0] == pytest.approx(p * 2 * np.log(2.0))


def test_smoothed_objective_vanishing_smoothing():
    prob = _toy_problem(seed=1)
    v = np.full((1, 4), 0.4)
    m = np.ones(1)
    gap = prob.prox - v
    pure = (prob.dual * gap + 0.5 * prob.rho * gap * gap).sum()
    val = smoothed_objective(v, m, prob, omega=1e-15, xi=0.0)
    assert val[0] == pytest.approx(pure, rel=1e-9, abs=1e-10)


def test_smoothed_objective_blows_up_near_boundary_and_rejects_it():
    prob = _toy_problem(seed=2)
    v = np.full((1, 4), 0.5)
    v[0, 0] = 1e-12
    m = np.ones(1)
    assert smoothed_objective(v, m, prob, 1.0, 0.0)[0] > 1e1
    v[0, 0] = 0.0
    with pytest.raises(ValueError):
        smoothed_objective(v, m, prob, 1.0, 0.0)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        prob = _toy_problem(seed=int(rng.integers(1e6)))
        v = rng.uniform(0.1, 0.9, (1, 4))
        m = rng.uniform(0.5, 5.0, 1)
        omega, xi = float(rng.uniform(1e-3, 1.0)), float(rng.uniform(0.0, 0.4))
        gv, gm = grad_smoothed(v, m, prob, omega, xi)
        h = 1e-6
        for k in range(4):
            vp, vm_ = v.copy(), v.copy()
            vp[0, k] += h
            vm_[0, k] -= h
            fd = (smoothed_objective(vp, m, prob, omega, xi)
                  - smoothed_objective(vm_, m, prob, omega, xi))[0] / (2 * h)
            worst = max(worst, abs(fd - gv[0, k]) / max(abs(fd), 1e-12))
        fd_m = (smoothed_objective(v, m + h, prob, omega, xi)
                - smoothed_objective(v, m - h, prob, omega, xi))[0] / (2 * h)
        worst = max(worst, abs(fd_m - gm[0]) / max(abs(fd_m), 1e-12))
    assert worst < 1e-5


def test_hessian_diagonal_matches_central_differences():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        prob = _toy_problem(seed=int(rng.integers(1e6)))
        v = rng.uniform(0.15, 0.85, (1, 4))
        m = rng.uniform(0.5, 5.0, 1)
        omega, xi = float(rng.uniform(1e-3, 1.0)), float(rng.uniform(0.0, 0.4))
        hv, hm = hess_diag_smoothed(v, m, prob, omega, xi)
        h = 1e-5
        for k in range(4):
            vp, vm_ = v.copy(), v.copy()
            vp[0, k] += h
            vm_[0, k] -= h
            fd = ((grad_smoothed(vp, m, prob, omega, xi)[0]
                   - grad_smoothed(vm_, m, prob, omega, xi)[0])[0, k]) / (2 * h)
            worst = max(worst, abs(fd - hv[0, k]) / max(abs(fd), 1e-12))
        fd_m = ((grad_smoothed(v, m + h, prob, omega, xi)[1]
                 - grad_smoothed(v, m - h, prob, omega, xi)[1])[0]) / (2 * h)
        worst = max(worst, abs(fd_m - hm[0]) / max(abs(fd_m), 1e-12))
    assert worst < 1e-4


def test_barrier_hessian_hand_value():
    prob = _toy_problem(seed=5, rho=0.0)
    prob.dual[:] = 0.0
    v = np.full((1, 4), 0.5)
    hv, _ = hess_diag_smoothed(v, np.ones(1), prob, omega=1.0, xi=0.0)
    assert np.allclose(hv, 8.0)


def test_prox_only_hessian_equals_rho():
    prob = _toy_problem(seed=6, rho=2.5)
    v = np.full((1, 4), 0.3)
    hv, hm = hess_diag_smoothed(v, np.ones(1), prob, omega=0.0, xi=0.0)
    assert np.allclose(hv, 2.5)
    assert hm[0] == 0.0


def test_kkt_residual_decomposition():
    prob = _toy_problem(seed=7)
    p = 4
    v = np.full((1, p), 0.25)
    m = prob.t_max - (prob.tcoef * v).sum(axis=1)
    nu = np.zeros(1)
    sig = np.zeros(1)
    res = kkt_residual(v, m, nu, sig, prob, 0.5, 0.1)
    # feasibility rows vanish at a feasible primal even with wrong multipliers
    assert res[0, p + 1] == pytest.approx(0.0, abs=1e-12)
    assert res[0, p + 2] == pytest.approx(0.0, abs=1e-12)
    gv, gm = grad_smoothed(v, m, prob, 0.5, 0.1)
    assert np.allclose(res[0, :p], gv[0])
    # breaking the simplex by 0.1 shows up in the simplex row alone
    v2 = v.copy()
    v2[0, 0] += 0.1
    res2 = kkt_residual(v2, m, nu, sig, prob, 0.5, 0.1)
    assert res2[0, p + 2] == pytest.approx(0.1)


def test_kkt_residual_zero_at_fitted_point():
    # fit the multipliers by least squares at a barrier optimum found by a
    # dense grid, then the stacked conditions must be nearly zero
    prob = GlobalProblem(prox=np.array([[0.3, 0.3, 0.4]]),
                         dual=np.zeros((1, 3)),
                         tcoef=np.array([[0.01, 0.02, 0.03]]),
                         t_max=np.array([5.0]), rho=1.0)
    omega, xi = 0.1, 0.05
    grid = np.linspace(0.01, 0.98, 400)
    best, best_v = np.inf, None
    for a in grid:
        b = np.clip(1.0 - a - grid, 1e-3, None)
        vv = np.stack([np.full_like(grid, a), grid, b], axis=1)
        keep = np.abs(vv.sum(axis=1) - 1.0) < 1e-9
        vv = vv[keep]
        if not len(vv):
            continue
        mm = prob.t_max[0] - vv @ prob.tcoef[0]
        ok = (vv > 0).all(axis=1) & (vv < 1).all(axis=1) & (mm > 0)
        if not ok.any():
            continue
        vals = smoothed_objective(vv[ok], mm[ok], GlobalProblem(
            prox=np.tile(prob.prox, (ok.sum(), 1)),
            dual=np.tile(prob.dual, (ok.sum(), 1)),
            tcoef=np.tile(prob.tcoef, (ok.sum(), 1)),
            t_max=np.full(ok.sum(), prob.t_max[0]), rho=prob.rho), omega, xi)
        k = int(np.argmin(vals))
        if vals[k] < best:
            best = vals[k]
            best_v = vv[ok][k]
    v = best_v[None, :]
    m = prob.t_max - (prob.tcoef * v).sum(axis=1)
    gv, gm = grad_smoothed(v, m, prob, omega, xi)
    # stationarity: grad_v + t nu + sig = 0, grad_m + nu = 0
    nu = -gm
    sig = -(gv[0] + prob.tcoef[0] * nu[0]).mean(keepdims=True)
    res = kkt_residual(v, m, nu, sig, prob, omega, xi)
    assert np.abs(res).max() < 1e-2  # grid-limited accuracy
    # polishing with the solver's own Newton step drives it below 1e-6
    for _ in range(6):
        res = kkt_residual(v, m, nu, sig, prob, omega, xi)
        system = assemble_newton(v, m, res, prob, omega, xi)
        dv, dm, dnu, dsig, _ = nullspace_cg_solve(system)
        v, m, nu, sig = v + dv, m + dm, nu + dnu, sig + dsig
    res = kkt_residual(v, m, nu, sig, prob, omega, xi)
    assert np.abs(res).max() < 1e-6


def test_assembled_system_matches_fd_hessian():
    prob = _toy_problem(seed=8)
    v = np.full((1, 4), 0.35)
    m = np.array([2.0])
    res = kkt_residual(v, m, np.zeros(1), np.zeros(1), prob, 0.3, 0.1)
    system = assemble_newton(v, m, res, prob, 0.3, 0.1)
    hv, hm = hess_diag_smoothed(v, m, prob, 0.3, 0.1)
    assert np.allclose(system.hess_v, hv)
    assert np.allclose(system.hess_m, hm)


# -- closed-form Newton solve ---------------------------------------------------

def _dense_solve(system, task=0):
    """Independent dense assembly of one task's saddle system."""
    hv = system.hess_v[task]
    hm = system.hess_m[task]
    t = system.tcoef[task]
    p = len(hv)
    dim = p + 3
    A = np.zeros((dim, dim))
    A[:p, :p] = np.diag(hv)
    A[p, p] = hm
    A[:p, p + 1] = t
    A[p, p + 1] = 1.0
    A[:p, p + 2] = 1.0
    A[p + 1, :p] = t
    A[p + 1, p] = 1.0
    A[p + 2, :p] = 1.0
    b = np.concatenate([system.rhs_v[task], [system.rhs_m[task]],
                        [system.rhs_deadline[task]], [system.rhs_simplex[task]]])
    sol = np.linalg.solve(A, b)
    return A, b, sol


def _random_system(rng, n=1, p=5):
    return gb.NewtonSystem(
        hess_v=rng.uniform(0.5, 3.0, (n, p)),
        hess_m=rng.uniform(0.5, 3.0, n),
        tcoef=rng.uniform(0.01, 1.0, (n, p)),
        rhs_v=rng.normal(0, 1, (n, p)),
        rhs_m=rng.normal(0, 1, n),
        rhs_deadline=rng.normal(0, 1, n),
        rhs_simplex=np.zeros(n),
    )


def test_nullspace_identity_reduced_system():
    rng = np.random.default_rng(9)
    system = _random_system(rng)
    system.hess_v[:] = 1.0
    system.hess_m[:] = 1.0
    system.tcoef[:] = 0.0
    dv, dm, dnu, dsig, info = nullspace_cg_solve(system)
    _, _, sol = _dense_solve(system)
    assert np.allclose(dv[0], sol[:5], atol=1e-10)


def test_nullspace_matches_dense_solve():
    rng = np.random.default_rng(10)
    for _ in range(100):
        system = _random_system(rng, p=int(rng.integers(3, 7)))
        dv, dm, dnu, dsig, info = nullspace_cg_solve(system)
        A, b, sol = _dense_solve(system)
        got = np.concatenate([dv[0], [dm[0]], [dnu[0]], [dsig[0]]])
        residual = np.linalg.norm(A @ got - b) / max(np.linalg.norm(b), 1e-300)
        assert residual < 1e-8
        assert abs(dv[0].sum()) < 1e-10  # simplex row annihilates the step


def test_nullspace_regularizes_nonconvex_diagonals():
    rng = np.random.default_rng(11)
    system = _random_system(rng)
    system.hess_v[0, 0] = -0.5
    dv, dm, dnu, dsig, info = nullspace_cg_solve(system)
    assert info["regularized"][0]
    assert np.all(np.isfinite(dv))


def test_newton_solve_forward_error_against_50_digit_reference():
    # curvatures as wide as the barrier schedule makes them: box entries up
    # to 1e12 near the walls at omega = 1e-6, slack curvature from 1e-9
    # (large slack) to 1e9 (slack at the interior margin)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(17)
    n, p = 120, 7
    system = gb.NewtonSystem(
        hess_v=10.0 ** rng.uniform(-0.3, 12.0, (n, p)),
        hess_m=10.0 ** rng.uniform(-9.0, 9.0, n),
        tcoef=10.0 ** rng.uniform(-4.0, 1.0, (n, p)),
        rhs_v=rng.normal(0, 1, (n, p)) * 10.0 ** rng.uniform(-3, 3, (n, 1)),
        rhs_m=rng.normal(0, 1, n) * 10.0 ** rng.uniform(-3, 3, n),
        rhs_deadline=rng.normal(0, 1, n) * 10.0 ** rng.uniform(-3, 3, n),
        rhs_simplex=rng.normal(0, 1, n) * 10.0 ** rng.uniform(-3, 3, n))
    dv, dm, dnu, dsig, info = nullspace_cg_solve(system)
    assert not info["regularized"].any()
    worst = 0.0
    with mpmath.workdps(50):
        for k in range(n):
            A, b, _ = _dense_solve(system, task=k)
            exact = mpmath.lu_solve(mpmath.matrix(A.tolist()),
                                    mpmath.matrix(b.tolist()))
            exact = np.array([float(x) for x in exact])
            got = np.concatenate([dv[k], [dm[k], dnu[k], dsig[k]]])
            worst = max(worst, np.linalg.norm(got - exact) / np.linalg.norm(exact))
    assert worst < 1e-8


def test_hessian_curvature_floor_keeps_repair_idle():
    # inside solve_global xi never exceeds XI_CONVEXITY_FRACTION * rho, so
    # the corner penalty cannot push a box curvature below
    # (1 - 2 XI_CONVEXITY_FRACTION) rho and the Newton solve's curvature
    # repair has nothing to repair
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # the line search keeps iterates this far inside the box
    interior = st.floats(gb.INTERIOR_MARGIN, 1.0 - gb.INTERIOR_MARGIN)

    @settings(max_examples=300, deadline=None)
    @given(v=st.lists(interior, min_size=3, max_size=7),
           m=st.floats(gb.INTERIOR_MARGIN, 1e3),
           rho=st.floats(1e-3, 1e3),
           omega=st.floats(gb.OMEGA_FLOOR, gb.OMEGA_INIT),
           xi_share=st.floats(0.0, 1.0))
    def check(v, m, rho, omega, xi_share):
        p = len(v)
        prob = GlobalProblem(prox=np.zeros((1, p)), dual=np.zeros((1, p)),
                             tcoef=np.full((1, p), 0.01),
                             t_max=np.array([10.0]), rho=rho)
        xi = xi_share * gb.XI_CONVEXITY_FRACTION * rho
        hv, hm = hess_diag_smoothed(np.array([v]), np.array([m]), prob,
                                    omega, xi)
        floor = (1.0 - 2.0 * gb.XI_CONVEXITY_FRACTION) * rho
        assert hv.min() >= floor * (1.0 - 1e-12)
        assert hm[0] > 0
        system = gb.NewtonSystem(hess_v=hv, hess_m=hm, tcoef=prob.tcoef,
                                 rhs_v=np.ones((1, p)), rhs_m=np.ones(1),
                                 rhs_deadline=np.ones(1),
                                 rhs_simplex=np.zeros(1))
        assert not nullspace_cg_solve(system)[4]["regularized"][0]

    check()


# -- line search ---------------------------------------------------------------

def test_line_search_zero_step_accepts():
    prob = _toy_problem(seed=12)
    v = np.full((1, 4), 0.25)
    m = np.ones(1)
    t, stalled = line_search(v, m, np.zeros((1, 4)), np.zeros(1), prob, 0.5, 0.1)
    assert not stalled[0]


def test_line_search_halves_out_of_box_step():
    prob = GlobalProblem(prox=np.array([[0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3]]),
                         dual=np.zeros((1, 4)),
                         tcoef=np.full((1, 4), 0.001),
                         t_max=np.array([10.0]), rho=1.0)
    v = np.array([[0.5, 1.0 / 6, 1.0 / 6, 1.0 / 6]])
    m = np.ones(1)
    dv = np.array([[0.8, -0.8 / 3, -0.8 / 3, -0.8 / 3]])
    t, stalled = line_search(v, m, dv, np.zeros(1), prob, omega=1e-9, xi=0.0)
    assert t[0] == pytest.approx(0.5)
    assert not stalled[0]


def test_line_search_accepts_descent_direction():
    prob = _toy_problem(seed=13)
    v = np.full((1, 4), 0.25)
    m = np.ones(1)
    gv, gm = grad_smoothed(v, m, prob, 0.5, 0.1)
    t, stalled = line_search(v, m, -0.01 * gv, -0.01 * gm, prob, 0.5, 0.1)
    assert t[0] > 0 and not stalled[0]


# -- full solves ----------------------------------------------------------------

def test_solve_global_prox_attraction_to_binary_copies():
    p = 4
    prox = np.zeros((1, p))
    prox[0, -1] = 1.0  # terminal branch already selected, deadline slack
    prob = GlobalProblem(prox=prox, dual=np.zeros((1, p)),
                         tcoef=np.array([[0.05, 0.05, 0.001, 0.03]]),
                         t_max=np.array([10.0]), rho=1.0)
    v, m, info = solve_global(prob)
    assert np.abs(v - prox).max() < 1e-3
    assert info["converged"].all()


def test_solve_global_matches_grid_search_objective():
    # binary-leaning copies: the unsmoothed optimum then sits next to a
    # corner and the smoothing bias stays inside the stated gap
    prob = GlobalProblem(prox=np.array([[1.0, 0.0, 0.0]]),
                         dual=np.array([[-0.005, 0.002, 0.0]]),
                         tcoef=np.array([[0.02, 0.001, 0.03]]),
                         t_max=np.array([5.0]), rho=1.0)
    v, m, info = solve_global(prob)

    def consensus_objective(vv):
        gap = prob.prox[0] - vv
        return float((prob.dual[0] * gap + 0.5 * gap * gap).sum())

    grid = np.linspace(0.0, 1.0, 201)
    best = np.inf
    for a in grid:
        for b in grid:
            c = 1.0 - a - b
            if c < 0:
                continue
            if 0.02 * a + 0.001 * b + 0.03 * c > 5.0:
                continue
            best = min(best, consensus_objective(np.array([a, b, c])))
    assert consensus_objective(v[0]) <= best + 1e-3


def test_solve_global_matches_trust_constr():
    # random binary-leaning copies as in the grid-search test, so the
    # unsmoothed optimum sits next to a corner and the same smoothing-bias
    # gap applies; every other problem gets a deadline that the copy's
    # corner meets but that cuts off all slower corners
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(18)
    for trial in range(30):
        p = int(rng.integers(3, 8))
        prox = np.zeros(p)
        k = int(rng.integers(p))
        prox[k] = 1.0
        dual = rng.normal(0, 0.005, p)
        tcoef = rng.uniform(0.001, 0.05, p)
        t_max = 10.0
        if trial % 2 and tcoef[k] < tcoef.max():
            t_max = 0.5 * (tcoef[k] + tcoef.max())
        prob = GlobalProblem(prox=prox[None], dual=dual[None],
                             tcoef=tcoef[None], t_max=np.array([t_max]),
                             rho=1.0)
        v, m, info = solve_global(prob)
        assert info["converged"][0]
        assert abs(v[0].sum() - 1.0) < 1e-10
        assert tcoef @ v[0] <= t_max

        def consensus_objective(vv):
            gap = prox - vv
            return float(dual @ gap + 0.5 * gap @ gap)

        ref = scipy_optimize.minimize(
            consensus_objective, np.full(p, 1.0 / p),
            jac=lambda vv: -dual - (prox - vv), hess=lambda vv: np.eye(p),
            method="trust-constr",
            constraints=[scipy_optimize.LinearConstraint(np.ones((1, p)), 1.0, 1.0),
                         scipy_optimize.LinearConstraint(tcoef[None], -np.inf, t_max)],
            bounds=scipy_optimize.Bounds(np.zeros(p), np.ones(p)),
            options={"gtol": 1e-10, "xtol": 1e-12, "maxiter": 2000})
        assert ref.status in (1, 2)  # stopped on gtol or xtol
        assert consensus_objective(v[0]) <= ref.fun + 1e-3


def test_solve_global_respects_binding_deadline():
    # only the second coordinate is fast enough for the deadline
    prob = GlobalProblem(prox=np.array([[0.6, 0.2, 0.2]]),
                         dual=np.zeros((1, 3)),
                         tcoef=np.array([[5.0, 0.001, 4.0]]),
                         t_max=np.array([0.05]), rho=1.0)
    v, m, info = solve_global(prob)
    assert int(np.argmax(v[0])) == 1
    assert v[0, 1] > 0.9


def test_tight_deadline_start_meets_deadline_row_and_converges():
    # t_max - delay at the nudged start is below 0.01 s, so any slack floor
    # above m_floor would start off the deadline row, where the objective
    # Armijo test rejects the Newton step and the solve stalls
    prob = GlobalProblem(prox=np.array([[0.6, 0.2, 0.2]]),
                         dual=np.zeros((1, 3)),
                         tcoef=np.array([[0.05, 0.001, 0.04]]),
                         t_max=np.array([0.02]), rho=1.0)
    v, m = interior_init(prob)
    assert m[0] > 0
    res = kkt_residual(v, m, np.zeros(1), np.zeros(1), prob, 1.0, 0.1)
    assert abs(res[0, -2]) <= 1e-15
    v, m, info = solve_global(prob)
    assert info["converged"][0]
    assert not info["stalled"][0]


def test_solve_global_preserves_simplex_and_interior():
    prob = _toy_problem(n=6, p=5, seed=15)
    v, m, info = solve_global(prob)
    assert np.abs(v.sum(axis=1) - 1.0).max() < 1e-10
    assert np.all(v > 0) and np.all(v < 1) and np.all(m > 0)


def test_solve_global_objective_decreases_along_newton_path():
    prob = _toy_problem(n=3, p=4, seed=16)
    v, m = interior_init(prob)
    gv, gm = grad_smoothed(v, m, prob, 1.0, 0.1)
    nu = -gm
    sig = -(gv + prob.tcoef * nu[:, None]).mean(axis=1)
    omega, xi = 1.0, 0.1
    prev_norm = None
    for it in range(12):
        res = kkt_residual(v, m, nu, sig, prob, omega, xi)
        norm = gb.scaled_kkt_norm(res, prob)
        if prev_norm is not None and it > 1:
            assert np.all(norm <= prev_norm * 1.1 + 1e-12)
        prev_norm = norm
        system = assemble_newton(v, m, res, prob, omega, xi)
        dv, dm, dnu, dsig, _ = nullspace_cg_solve(system)
        g_before = smoothed_objective(v, m, prob, omega, xi)
        t, _ = line_search(v, m, dv, dm, prob, omega, xi)
        v = v + t[:, None] * dv
        m = m + t * dm
        nu = nu + t * dnu
        sig = sig + t * dsig
        g_after = smoothed_objective(v, m, prob, omega, xi)
        moved = t > 0
        assert np.all(g_after[moved] <= g_before[moved] + 1e-12)
        assert np.abs(v.sum(axis=1) - 1.0).max() < 1e-10


def test_corner_distance_shrinks_as_barrier_vanishes():
    # fixed corner-penalty weight, barrier weight stepping toward zero:
    # variables approach the nearer of their prox target or a corner; the
    # first reduction is skipped because the unit-weight barrier parks
    # everything mid-box regardless of the targets
    prox = np.array([[0.85, 0.05, 0.05, 0.05]])
    prob = GlobalProblem(prox=prox, dual=np.zeros((1, 4)),
                         tcoef=np.full((1, 4), 0.001),
                         t_max=np.array([10.0]), rho=1.0)
    v, m = interior_init(prob)
    nu = np.zeros(1)
    sig = np.zeros(1)
    omega, xi = 1.0, 0.2
    dists = []
    for _ in range(7):
        for _ in range(30):
            res = kkt_residual(v, m, nu, sig, prob, omega, xi)
            if gb.scaled_kkt_norm(res, prob).max() < 1e-9:
                break
            system = assemble_newton(v, m, res, prob, omega, xi)
            dv, dm, dnu, dsig, _ = nullspace_cg_solve(system)
            t, _ = line_search(v, m, dv, dm, prob, omega, xi)
            v = v + t[:, None] * dv
            m = m + t * dm
            nu = nu + t * dnu
            sig = sig + t * dsig
        target = np.minimum(np.minimum(v, 1.0 - v), np.abs(v - prox))
        dists.append(target.max())
        omega = max(omega * 0.1, 1e-6)
    assert all(b <= a + 1e-9 for a, b in zip(dists[1:], dists[2:]))
