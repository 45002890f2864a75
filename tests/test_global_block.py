import numpy as np
import pytest

from edgealloc import global_block as gb
from edgealloc.global_block import (GlobalProblem, exact_limit,
                                    grad_smoothed,
                                    hess_diag_smoothed, interior_init,
                                    kkt_residual, line_search,
                                    nullspace_cg_solve, smoothed_objective,
                                    solve_global)


# the module's arrays are coordinate-major, (n_coords, n_tasks); the
# references below are task-major, (n_tasks, n_coords), so they reduce in
# another memory order, and are compared with the module through transposes

def _coordinate_major(prox, dual, tcoef, t_max, rho):
    """GlobalProblem from task-major (n_tasks, n_coords) arrays."""
    return GlobalProblem(prox=prox.T.copy(), dual=dual.T.copy(),
                         tcoef=tcoef.T.copy(), t_max=t_max, rho=rho)


def _toy_problem(n=1, p=4, rho=1.0, seed=0, slack_deadline=True):
    rng = np.random.default_rng(seed)
    prox = rng.uniform(0.05, 0.95, (n, p))
    dual = rng.normal(0, 0.3, (n, p))
    tcoef = rng.uniform(0.001, 0.05, (n, p))
    t_max = np.full(n, 10.0) if slack_deadline else rng.uniform(0.01, 0.03, n)
    return _coordinate_major(prox, dual, tcoef, t_max, rho)


def _largest_residual(res) -> float:
    return max(float(np.abs(group).max()) for group in res)


def test_smoothed_objective_symmetric_point():
    p = 4
    prob = GlobalProblem(prox=np.full((p, 1), 0.5), dual=np.zeros((p, 1)),
                         tcoef=np.full((p, 1), 0.01), t_max=np.array([10.0]),
                         rho=1.0)
    v = np.full((p, 1), 0.5)
    m = np.ones(1)  # log 1 contributes nothing
    val = smoothed_objective(v, m, prob, omega=1.0, xi=0.0)
    assert val[0] == pytest.approx(p * 2 * np.log(2.0))


def test_smoothed_objective_vanishing_smoothing():
    prob = _toy_problem(seed=1)
    v = np.full((4, 1), 0.4)
    m = np.ones(1)
    gap = prob.prox - v
    pure = (prob.dual * gap + 0.5 * prob.rho * gap * gap).sum()
    val = smoothed_objective(v, m, prob, omega=1e-15, xi=0.0)
    assert val[0] == pytest.approx(pure, rel=1e-9, abs=1e-10)


def test_smoothed_objective_blows_up_near_boundary_and_rejects_it():
    prob = _toy_problem(seed=2)
    v = np.full((4, 1), 0.5)
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
        v = rng.uniform(0.1, 0.9, (4, 1))
        m = rng.uniform(0.5, 5.0, 1)
        omega, xi = float(rng.uniform(1e-3, 1.0)), float(rng.uniform(0.0, 0.4))
        gv, gm = grad_smoothed(v, m, prob, omega, xi)
        h = 1e-6
        for k in range(4):
            vp, vm_ = v.copy(), v.copy()
            vp[k, 0] += h
            vm_[k, 0] -= h
            fd = (smoothed_objective(vp, m, prob, omega, xi)
                  - smoothed_objective(vm_, m, prob, omega, xi))[0] / (2 * h)
            worst = max(worst, abs(fd - gv[k, 0]) / max(abs(fd), 1e-12))
        fd_m = (smoothed_objective(v, m + h, prob, omega, xi)
                - smoothed_objective(v, m - h, prob, omega, xi))[0] / (2 * h)
        worst = max(worst, abs(fd_m - gm[0]) / max(abs(fd_m), 1e-12))
    assert worst < 1e-5


def test_hessian_diagonal_matches_central_differences():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        prob = _toy_problem(seed=int(rng.integers(1e6)))
        v = rng.uniform(0.15, 0.85, (4, 1))
        m = rng.uniform(0.5, 5.0, 1)
        omega, xi = float(rng.uniform(1e-3, 1.0)), float(rng.uniform(0.0, 0.4))
        hv, hm = hess_diag_smoothed(v, m, prob, omega, xi)
        h = 1e-5
        for k in range(4):
            vp, vm_ = v.copy(), v.copy()
            vp[k, 0] += h
            vm_[k, 0] -= h
            fd = ((grad_smoothed(vp, m, prob, omega, xi)[0]
                   - grad_smoothed(vm_, m, prob, omega, xi)[0])[k, 0]) / (2 * h)
            worst = max(worst, abs(fd - hv[k, 0]) / max(abs(fd), 1e-12))
        fd_m = ((grad_smoothed(v, m + h, prob, omega, xi)[1]
                 - grad_smoothed(v, m - h, prob, omega, xi)[1])[0]) / (2 * h)
        worst = max(worst, abs(fd_m - hm[0]) / max(abs(fd_m), 1e-12))
    assert worst < 1e-4


def test_barrier_hessian_hand_value():
    prob = _toy_problem(seed=5, rho=0.0)
    prob.dual[:] = 0.0
    v = np.full((4, 1), 0.5)
    hv, _ = hess_diag_smoothed(v, np.ones(1), prob, omega=1.0, xi=0.0)
    assert np.allclose(hv, 8.0)


def test_prox_only_hessian_equals_rho():
    prob = _toy_problem(seed=6, rho=2.5)
    v = np.full((4, 1), 0.3)
    hv, hm = hess_diag_smoothed(v, np.ones(1), prob, omega=0.0, xi=0.0)
    assert np.allclose(hv, 2.5)
    assert hm[0] == 0.0


def test_kkt_residual_decomposition():
    prob = _toy_problem(seed=7)
    p = 4
    v = np.full((p, 1), 0.25)
    m = prob.t_max - (prob.tcoef * v).sum(axis=0)
    nu = np.zeros(1)
    sig = np.zeros(1)
    stat_v, _, deadline, simplex = kkt_residual(
        v, m, nu, sig, grad_smoothed(v, m, prob, 0.5, 0.1), prob)
    # feasibility rows vanish at a feasible primal even with wrong multipliers
    assert deadline[0] == pytest.approx(0.0, abs=1e-12)
    assert simplex[0] == pytest.approx(0.0, abs=1e-12)
    gv, gm = grad_smoothed(v, m, prob, 0.5, 0.1)
    assert np.allclose(stat_v[:, 0], gv[:, 0])
    # breaking the simplex by 0.1 shows up in the simplex row alone
    v2 = v.copy()
    v2[0, 0] += 0.1
    res2 = kkt_residual(v2, m, nu, sig, grad_smoothed(v2, m, prob, 0.5, 0.1),
                        prob)
    assert res2[3][0] == pytest.approx(0.1)


def test_kkt_residual_zero_at_fitted_point():
    # fit the multipliers by least squares at a barrier optimum found by a
    # dense grid, then every first-order condition must be nearly zero
    prob = _coordinate_major(prox=np.array([[0.3, 0.3, 0.4]]),
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
        mm = prob.t_max[0] - vv @ prob.tcoef[:, 0]
        ok = (vv > 0).all(axis=1) & (vv < 1).all(axis=1) & (mm > 0)
        if not ok.any():
            continue
        vals = smoothed_objective(vv[ok].T, mm[ok], GlobalProblem(
            prox=np.tile(prob.prox, (1, ok.sum())),
            dual=np.tile(prob.dual, (1, ok.sum())),
            tcoef=np.tile(prob.tcoef, (1, ok.sum())),
            t_max=np.full(ok.sum(), prob.t_max[0]), rho=prob.rho), omega, xi)
        k = int(np.argmin(vals))
        if vals[k] < best:
            best = vals[k]
            best_v = vv[ok][k]
    v = best_v[:, None]
    m = prob.t_max - (prob.tcoef * v).sum(axis=0)
    gv, gm = grad_smoothed(v, m, prob, omega, xi)
    # stationarity: grad_v + t nu + sig = 0, grad_m + nu = 0
    nu = -gm
    sig = -(gv[:, 0] + prob.tcoef[:, 0] * nu[0]).mean(keepdims=True)
    res = kkt_residual(v, m, nu, sig, grad_smoothed(v, m, prob, omega, xi), prob)
    assert _largest_residual(res) < 1e-2  # grid-limited accuracy
    # polishing with the solver's own Newton step drives it below 1e-6
    for _ in range(6):
        res = kkt_residual(v, m, nu, sig, grad_smoothed(v, m, prob, omega, xi), prob)
        hv, hm = hess_diag_smoothed(v, m, prob, omega, xi)
        dv, dm, dnu, dsig, _ = nullspace_cg_solve(hv, hm, prob.tcoef, res)
        v, m, nu, sig = v + dv, m + dm, nu + dnu, sig + dsig
    res = kkt_residual(v, m, nu, sig, grad_smoothed(v, m, prob, omega, xi), prob)
    assert _largest_residual(res) < 1e-6


def test_assembled_system_matches_fd_hessian():
    # the Newton solve's curvatures against central differences of the
    # gradient, coordinate by coordinate
    prob = _toy_problem(seed=8)
    v = np.full((4, 1), 0.35)
    m = np.array([2.0])
    hv, hm = hess_diag_smoothed(v, m, prob, 0.3, 0.1)
    h = 1e-6
    for k in range(4):
        step = np.zeros((4, 1))
        step[k] = h
        fd = (grad_smoothed(v + step, m, prob, 0.3, 0.1)[0]
              - grad_smoothed(v - step, m, prob, 0.3, 0.1)[0])[k, 0] / (2 * h)
        assert np.allclose(fd, hv[k, 0])
    fd_m = (grad_smoothed(v, m + h, prob, 0.3, 0.1)[1]
            - grad_smoothed(v, m - h, prob, 0.3, 0.1)[1]) / (2 * h)
    assert np.allclose(fd_m, hm)


# -- closed-form Newton solve ---------------------------------------------------

def _dense_solve(system, task=0):
    """Independent dense assembly of one task's saddle system; `system` is
    the (hess_v, hess_m, tcoef, res) the Newton solve takes."""
    hess_v, hess_m, tcoef, (stat_v, stat_m, deadline, simplex) = system
    hv = hess_v[:, task]
    hm = hess_m[task]
    t = tcoef[:, task]
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
    b = -np.concatenate([stat_v[:, task], [stat_m[task]],
                         [deadline[task]], [simplex[task]]])
    sol = np.linalg.solve(A, b)
    return A, b, sol


def _random_system(rng, n=1, p=5):
    """(hess_v, hess_m, tcoef, res) for the Newton solve; the residual row
    groups are drawn as the negated right-hand side."""
    hess_v = rng.uniform(0.5, 3.0, (n, p)).T.copy()
    hess_m = rng.uniform(0.5, 3.0, n)
    tcoef = rng.uniform(0.01, 1.0, (n, p)).T.copy()
    res = (-rng.normal(0, 1, (n, p)).T, -rng.normal(0, 1, n),
           -rng.normal(0, 1, n), np.zeros(n))
    return hess_v, hess_m, tcoef, res


def test_nullspace_identity_reduced_system():
    rng = np.random.default_rng(9)
    system = _random_system(rng)
    hess_v, hess_m, tcoef, _ = system
    hess_v[:] = 1.0
    hess_m[:] = 1.0
    tcoef[:] = 0.0
    dv, dm, dnu, dsig, info = nullspace_cg_solve(*system)
    _, _, sol = _dense_solve(system)
    assert np.allclose(dv[:, 0], sol[:5], atol=1e-10)


def test_nullspace_matches_dense_solve():
    rng = np.random.default_rng(10)
    for _ in range(100):
        system = _random_system(rng, p=int(rng.integers(3, 7)))
        dv, dm, dnu, dsig, info = nullspace_cg_solve(*system)
        A, b, sol = _dense_solve(system)
        got = np.concatenate([dv[:, 0], [dm[0]], [dnu[0]], [dsig[0]]])
        residual = np.linalg.norm(A @ got - b) / max(np.linalg.norm(b), 1e-300)
        assert residual < 1e-8
        assert abs(dv[:, 0].sum()) < 1e-10  # simplex row annihilates the step


def test_newton_solve_forward_error_against_50_digit_reference():
    # curvatures as wide as the barrier schedule makes them: box entries up
    # to 1e12 near the walls at omega = 1e-6, slack curvature from 1e-9
    # (large slack) to 1e9 (slack at the interior margin)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(17)
    n, p = 120, 7
    hess_v = (10.0 ** rng.uniform(-0.3, 12.0, (n, p))).T.copy()
    hess_m = 10.0 ** rng.uniform(-9.0, 9.0, n)
    tcoef = (10.0 ** rng.uniform(-4.0, 1.0, (n, p))).T.copy()
    # the residual row groups, drawn as the negated right-hand side
    res = (-(rng.normal(0, 1, (n, p)) * 10.0 ** rng.uniform(-3, 3, (n, 1))).T,
           -(rng.normal(0, 1, n) * 10.0 ** rng.uniform(-3, 3, n)),
           -(rng.normal(0, 1, n) * 10.0 ** rng.uniform(-3, 3, n)),
           -(rng.normal(0, 1, n) * 10.0 ** rng.uniform(-3, 3, n)))
    system = (hess_v, hess_m, tcoef, res)
    dv, dm, dnu, dsig, info = nullspace_cg_solve(*system)
    worst = 0.0
    with mpmath.workdps(50):
        for k in range(n):
            A, b, _ = _dense_solve(system, task=k)
            exact = mpmath.lu_solve(mpmath.matrix(A.tolist()),
                                    mpmath.matrix(b.tolist()))
            exact = np.array([float(x) for x in exact])
            got = np.concatenate([dv[:, k], [dm[k], dnu[k], dsig[k]]])
            worst = max(worst, np.linalg.norm(got - exact) / np.linalg.norm(exact))
    assert worst < 1e-8


def test_hessian_curvature_floor_keeps_every_curvature_positive(monkeypatch):
    # inside solve_global xi never exceeds XI_CONVEXITY_FRACTION * rho, so
    # the corner penalty cannot push a box curvature below
    # (1 - 2 XI_CONVEXITY_FRACTION) rho, and the Newton solve, which needs
    # every curvature positive, always gets them
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # the line search keeps iterates this far inside the box
    interior = st.floats(gb.INTERIOR_MARGIN, 1.0 - gb.INTERIOR_MARGIN)

    @settings(max_examples=300, deadline=None)
    @given(v=st.lists(interior, min_size=3, max_size=7),
           m=st.floats(gb.INTERIOR_MARGIN, 1e3),
           rho=st.floats(1e-3, 1e3),
           omega=st.floats(1e-6, 1e-2),
           xi_share=st.floats(0.0, 1.0))
    def check(v, m, rho, omega, xi_share):
        p = len(v)
        prob = GlobalProblem(prox=np.zeros((p, 1)), dual=np.zeros((p, 1)),
                             tcoef=np.full((p, 1), 0.01),
                             t_max=np.array([10.0]), rho=rho)
        xi = xi_share * gb.XI_CONVEXITY_FRACTION * rho
        hv, hm = hess_diag_smoothed(np.array([v]).T, np.array([m]), prob,
                                    omega, xi)
        floor = (1.0 - 2.0 * gb.XI_CONVEXITY_FRACTION) * rho
        assert hv.min() >= floor * (1.0 - 1e-12)
        assert hm[0] > 0

    check()

    solves = [0]

    def checked_solve(hess_v, hess_m, tcoef, res):
        assert (hess_v > 0).all() and (hess_m > 0).all()
        solves[0] += 1
        return nullspace_cg_solve(hess_v, hess_m, tcoef, res)

    monkeypatch.setattr(gb, "nullspace_cg_solve", checked_solve)
    rng = np.random.default_rng(63)
    rows = [(deadline, False) for deadline in ("loose", "binding", "tight") * 4]
    for deadline, twin in rows + [("tight", True)] * 2:
        problem, _ = _random_global_problem(rng, deadline, twin)
        solve_global(problem)
    assert solves[0] > 0


# -- line search ---------------------------------------------------------------

def test_line_search_zero_step_accepts():
    prob = _toy_problem(seed=12)
    v = np.full((4, 1), 0.25)
    m = np.ones(1)
    t, stalled, _ = line_search(v, m, np.zeros((4, 1)), np.zeros(1),
                                smoothed_objective(v, m, prob, 0.5, 0.1),
                                grad_smoothed(v, m, prob, 0.5, 0.1), prob, 0.5, 0.1)
    assert not stalled[0]


def test_line_search_halves_out_of_box_step():
    prob = GlobalProblem(prox=np.array([[0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3]]).T,
                         dual=np.zeros((4, 1)),
                         tcoef=np.full((4, 1), 0.001),
                         t_max=np.array([10.0]), rho=1.0)
    v = np.array([[0.5, 1.0 / 6, 1.0 / 6, 1.0 / 6]]).T
    m = np.ones(1)
    dv = np.array([[0.8, -0.8 / 3, -0.8 / 3, -0.8 / 3]]).T
    t, stalled, _ = line_search(v, m, dv, np.zeros(1),
                                smoothed_objective(v, m, prob, 1e-9, 0.0),
                                grad_smoothed(v, m, prob, 1e-9, 0.0), prob,
                                omega=1e-9, xi=0.0)
    assert t[0] == pytest.approx(0.5)
    assert not stalled[0]


def test_line_search_accepts_descent_direction():
    prob = _toy_problem(seed=13)
    v = np.full((4, 1), 0.25)
    m = np.ones(1)
    gv, gm = grad_smoothed(v, m, prob, 0.5, 0.1)
    t, stalled, _ = line_search(v, m, -0.01 * gv, -0.01 * gm,
                                smoothed_objective(v, m, prob, 0.5, 0.1),
                                grad_smoothed(v, m, prob, 0.5, 0.1), prob, 0.5, 0.1)
    assert t[0] > 0 and not stalled[0]


# -- full solves ----------------------------------------------------------------

def test_solve_global_prox_attraction_to_binary_copies():
    p = 4
    prox = np.zeros((p, 1))
    prox[-1, 0] = 1.0  # terminal branch already selected, deadline slack
    prob = GlobalProblem(prox=prox, dual=np.zeros((p, 1)),
                         tcoef=np.array([[0.05, 0.05, 0.001, 0.03]]).T,
                         t_max=np.array([10.0]), rho=1.0)
    v, m, info = solve_global(prob)
    assert np.abs(v - prox).max() < 1e-3
    assert info["converged"].all()


def test_solve_global_matches_grid_search_objective():
    # binary-leaning copies: the unsmoothed optimum then sits next to a
    # corner and the smoothing bias stays inside the stated gap
    prob = _coordinate_major(prox=np.array([[1.0, 0.0, 0.0]]),
                             dual=np.array([[-0.005, 0.002, 0.0]]),
                             tcoef=np.array([[0.02, 0.001, 0.03]]),
                             t_max=np.array([5.0]), rho=1.0)
    v, m, info = solve_global(prob)

    def consensus_objective(vv):
        gap = prob.prox[:, 0] - vv
        return float((prob.dual[:, 0] * gap + 0.5 * gap * gap).sum())

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
    assert consensus_objective(v[:, 0]) <= best + 1e-3


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
        prob = GlobalProblem(prox=prox[:, None], dual=dual[:, None],
                             tcoef=tcoef[:, None], t_max=np.array([t_max]),
                             rho=1.0)
        v, m, info = solve_global(prob)
        assert info["converged"][0]
        assert abs(v[:, 0].sum() - 1.0) < 1e-10
        assert tcoef @ v[:, 0] <= t_max

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
        assert consensus_objective(v[:, 0]) <= ref.fun + 1e-3


def test_exact_limit_matches_an_independent_minimiser():
    # without the barrier the block minimises the strongly convex quadratic
    # (rho/2 - xi)|v|^2 - v.(dual + rho prox - xi) over the simplex cut by
    # the deadline; SLSQP minimises it column by column.  Its objective
    # stops within about 1e-12 of the minimum (ftol 1e-13; a tighter ftol
    # makes it run out of iterations at the minimum), so by strong
    # convexity with modulus a = rho - 2 xi its point lies within
    # sqrt(2e-12 / a) of the minimiser.  The converged iterate of
    # `solve_global` is feasible for the limit's problem up to its KKT
    # tolerance, and the log barrier's duality gap at omega is (2p + 1)
    # omega (2p box bounds and the slack), so by the same argument it lies
    # within sqrt(2 (2p + 1) omega / a) of the limit at the solve's xi
    pytest.importorskip("hypothesis")
    scipy_optimize = pytest.importorskip("scipy.optimize")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(3, 10), n=st.integers(1, 6), seed=st.integers(0, 100000),
           binary=st.booleans())
    def check(p, n, seed, binary):
        rng = np.random.default_rng(seed)
        prox = np.eye(p)[:, rng.integers(p, size=n)] if binary else rng.uniform(0, 1, (p, n))
        dual = rng.normal(0, 0.3, (p, n))
        tcoef = rng.uniform(0.001, 0.2, (p, n))
        fastest = tcoef.min(axis=0)
        kind = rng.integers(3, size=n)  # loose, binding, infeasible
        t_max = np.select(
            [kind == 0, kind == 1],
            [np.full(n, 10.0),
             fastest + rng.uniform(0.05, 0.9, n) * (tcoef.mean(axis=0) - fastest)],
            fastest * rng.uniform(0.3, 0.99, n))
        rho = float(rng.uniform(0.2, 5.0))
        xi = float(rng.uniform(0.0, gb.XI_CONVEXITY_FRACTION * rho))
        problem = GlobalProblem(prox=prox, dual=dual, tcoef=tcoef, t_max=t_max, rho=rho)
        v, reduced, lam = exact_limit(problem, xi)
        feasible = kind < 2
        assert np.isnan(v[:, ~feasible]).all() and np.isnan(reduced[:, ~feasible]).all()
        assert np.isnan(lam[~feasible]).all()
        v, reduced, lam = v[:, feasible], reduced[:, feasible], lam[feasible]
        assert (v >= 0).all() and (np.abs(v.sum(axis=0) - 1.0) < 1e-12).all()
        assert ((tcoef[:, feasible] * v).sum(axis=0) <= t_max[feasible] * (1 + 1e-12)).all()
        assert (reduced >= 0).all() and (reduced[v > 0] == 0).all()
        assert (lam >= 0).all()

        a = rho - 2.0 * xi
        for k, j in enumerate(np.flatnonzero(feasible)):
            b = dual[:, j] + rho * prox[:, j] - xi

            def objective(x):
                return 0.5 * a * x @ x - x @ b

            ref = scipy_optimize.minimize(
                objective, np.full(p, 1.0 / p), jac=lambda x: a * x - b, method="SLSQP",
                constraints=[scipy_optimize.LinearConstraint(np.ones((1, p)), 1.0, 1.0),
                             scipy_optimize.LinearConstraint(tcoef[None, :, j], -np.inf,
                                                             t_max[j])],
                bounds=scipy_optimize.Bounds(np.zeros(p), np.ones(p)),
                options={"ftol": 1e-13, "maxiter": 1000})
            assert ref.success, ref.message
            assert objective(v[:, k]) <= ref.fun + 1e-12 * (1.0 + abs(ref.fun))
            assert np.linalg.norm(ref.x - v[:, k]) <= np.sqrt(2e-12 / a)
            # SLSQP's multipliers are the simplex row's, then the deadline
            # row's, at the objective's scale a
            assert abs(ref.multipliers[1] / a - lam[k]) <= 1e-6 * (1.0 + lam[k])

        v_solve, _, info = solve_global(problem)
        xi = min(gb.XI_MAX, gb.XI_CONVEXITY_FRACTION * rho)
        limit, _, _ = exact_limit(problem, xi)
        done = info["converged"]
        assert not (done & ~feasible).any()
        bound = np.sqrt(2 * (2 * p + 1) * gb.OMEGA / (rho - 2.0 * xi))
        assert (np.linalg.norm(v_solve - limit, axis=0)[done] <= bound).all()
        delay = (tcoef * v_solve).sum(axis=0)
        assert (delay[done] <= t_max[done] + 1e-6 * (1.0 + t_max[done])).all()

    check()


def _delay_one_float_below(problem, xi, lam):
    """Each column's delay at the projection one float below lam."""
    c = (problem.dual + problem.rho * problem.prox - xi) / (problem.rho - 2.0 * xi)
    v, _ = gb._simplex_projection(c - np.nextafter(lam, 0.0) * problem.tcoef)
    return (problem.tcoef * v).sum(axis=0)


def test_exact_limit_search_stops_when_its_bracket_closes(monkeypatch):
    # a steep binding column of mixed seed 42 (c_range 4e6 to 2e7): adjacent
    # floats of lam move its delay by about 5e-7, far beyond the 1e-12
    # relative tolerance, so only the closed bracket ends its search, at
    # the smallest float lam that meets the deadline; under a 100-pass cap
    # it made 102 projections
    t = np.array([6.2004857000779617e8, 6.3861034228720343e8, 6.3667350148320270e8,
                  5.7511044775978959e8, 5.7559346151185989e8, 1.8526084007246038,
                  36.581154975380365])
    c = np.array([-2.214486725966886, -1.7915465152374186, -1.7083214879693107,
                  -1.5787768770294996, -1.7915451033870031, -4.86634598733211,
                  -5.048977302460683])
    t_max = np.array([19.258626567960583])
    problem = GlobalProblem(prox=np.zeros((7, 1)), dual=c[:, None], tcoef=t[:, None],
                            t_max=t_max, rho=1.0)
    calls = [0]
    project = gb._simplex_projection

    def counted(u):
        calls[0] += 1
        return project(u)

    with monkeypatch.context() as mp:
        mp.setattr(gb, "_simplex_projection", counted)
        v, _, lam = exact_limit(problem, 0.0)
    assert calls[0] <= 20
    assert lam[0] > 0
    assert (t * v[:, 0]).sum() <= t_max[0]
    assert _delay_one_float_below(problem, 0.0, lam)[0] > t_max[0]


def test_exact_limit_search_ends_at_the_deadline_or_a_closed_bracket():
    # binding columns with shallow branches and steep ones of 10^U(3, 9) s:
    # every searched column meets the deadline to 1e-12 relative, or meets
    # it while one float below its lam overshoots
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(3, 10), n=st.integers(1, 20), seed=st.integers(0, 100000))
    def check(p, n, seed):
        rng = np.random.default_rng(seed)
        tcoef = rng.uniform(0.001, 0.2, (p, n))
        steep = rng.random((p, n)) < 0.5
        tcoef[steep] = 10.0 ** rng.uniform(3, 9, steep.sum())
        fastest = tcoef.min(axis=0)
        t_max = fastest + rng.uniform(0.01, 0.9, n) * (np.median(tcoef, axis=0) - fastest)
        problem = GlobalProblem(prox=rng.uniform(0, 1, (p, n)),
                                dual=rng.normal(0, 0.3, (p, n)) * rng.choice([1.0, 1e3]),
                                tcoef=tcoef, t_max=t_max, rho=float(rng.uniform(0.2, 5.0)))
        xi = float(rng.uniform(0.0, gb.XI_CONVEXITY_FRACTION * problem.rho))
        v, _, lam = exact_limit(problem, xi)
        searched = lam > 0
        delay = (tcoef * v).sum(axis=0)
        met = np.abs(delay - t_max) <= 1e-12 * t_max
        closed = (delay <= t_max) & (_delay_one_float_below(problem, xi, lam) > t_max)
        assert (met | closed)[searched].all()

    check()


def test_solve_global_respects_binding_deadline():
    # only the second coordinate is fast enough for the deadline
    prob = _coordinate_major(prox=np.array([[0.6, 0.2, 0.2]]),
                             dual=np.zeros((1, 3)),
                             tcoef=np.array([[5.0, 0.001, 4.0]]),
                             t_max=np.array([0.05]), rho=1.0)
    v, m, info = solve_global(prob)
    assert int(np.argmax(v[:, 0])) == 1
    assert v[1, 0] > 0.9


def test_tight_deadline_start_meets_deadline_row_and_converges():
    # t_max - delay at the nudged start is below 0.01 s, so any slack floor
    # above m_floor would start off the deadline row, where the objective
    # Armijo test rejects the Newton step and the solve stalls
    prob = _coordinate_major(prox=np.array([[0.6, 0.2, 0.2]]),
                             dual=np.zeros((1, 3)),
                             tcoef=np.array([[0.05, 0.001, 0.04]]),
                             t_max=np.array([0.02]), rho=1.0)
    v, m = interior_init(prob)
    assert m[0] > 0
    _, _, deadline, _ = kkt_residual(v, m, np.zeros(1), np.zeros(1),
                                     grad_smoothed(v, m, prob, 1.0, 0.1), prob)
    assert abs(deadline[0]) <= 1e-15
    v, m, info = solve_global(prob)
    assert info["converged"][0]
    assert not info["stalled"][0]


def test_start_meets_deadline_row_whenever_fastest_branch_leaves_room():
    # the corner on the fastest branch scales its weight on each slower
    # branch to the deadline room, so even a branch hundreds of deadlines
    # slow leaves the start on the deadline row; a fixed 1e-3 weight on
    # such a branch alone costs more than the deadline
    rng = np.random.default_rng(34)
    seen = {"on_row": 0, "off_row": 0, "slow_branch": 0}
    for case in range(60):
        problem, base = _random_global_problem(rng, ("binding", "tight")[case % 2])
        base = problem.prox if base is None else base
        # a start clipped at 0.01, and one clipped only at the module's floor
        for start in (np.clip(base, 0.01, 0.99), base):
            v, m = interior_init(problem, start)
            assert (v > gb.INTERIOR_MARGIN).all() and (v < 1.0 - gb.INTERIOR_MARGIN).all()
            assert np.abs(v.sum(axis=0) - 1.0).max() < 1e-12
            m_floor = np.maximum(1e-3 * problem.t_max, gb.CORNER_WEIGHT_FLOOR)
            assert (m >= m_floor).all()
            off = (problem.tcoef * v).sum(axis=0) + m - problem.t_max
            room = problem.t_max - m_floor - problem.tcoef.min(axis=0)
            assert (np.abs(off[room > 0]) <= 1e-12 * problem.t_max[room > 0]).all()
            assert (off[room <= 0] > 0).all()
            seen["on_row"] += int((room > 0).sum())
            seen["off_row"] += int((room <= 0).sum())
            seen["slow_branch"] += int(((room > 0)
                                        & (problem.tcoef.max(axis=0) > 1e3 * problem.t_max)).sum())
    assert all(count > 0 for count in seen.values()), seen


def test_solve_global_starts_inside_on_both_rows(monkeypatch):
    # the start `solve_global` hands its Newton steps: every feasible
    # column strictly inside the line search's margin, on the simplex to
    # roundoff, and on the deadline row with a slack of at least
    # CORNER_WEIGHT_FLOOR, also where the slack floor is the barrier's own
    # slack rather than 1e-3 t_max, and on vertex limits
    starts = []
    init = gb.interior_init

    def kept(problem, base=None, m_floor=np.inf):
        v, m = init(problem, base, m_floor)
        starts.append((v, m))
        return v, m

    monkeypatch.setattr(gb, "interior_init", kept)
    rng = np.random.default_rng(35)
    seen = {"feasible": 0, "barrier_floor": 0, "absolute_floor": 0, "vertex": 0}
    for case, deadline in enumerate(("loose", "binding", "tight") * 20):
        problem, _ = _random_global_problem(rng, deadline, case % 42 == 2)
        starts.clear()
        solve_global(problem)
        (v, m), = starts
        feasible = problem.tcoef.min(axis=0) <= problem.t_max
        v, m = v[:, feasible], m[feasible]
        t, t_max = problem.tcoef[:, feasible], problem.t_max[feasible]
        assert (v > gb.INTERIOR_MARGIN).all() and (v < 1.0 - gb.INTERIOR_MARGIN).all()
        assert np.abs(v.sum(axis=0) - 1.0).max(initial=0.0) <= 1e-12
        assert (m >= gb.CORNER_WEIGHT_FLOOR).all()
        off = (t * v).sum(axis=0) + m - t_max
        assert (np.abs(off) <= 1e-12 * t_max).all()
        xi = min(gb.XI_MAX, gb.XI_CONVEXITY_FRACTION * problem.rho)
        limit, _, _ = exact_limit(problem, xi)
        seen["feasible"] += int(feasible.sum())
        seen["barrier_floor"] += int((m < 1e-3 * t_max).sum())
        seen["absolute_floor"] += int((m == gb.CORNER_WEIGHT_FLOOR).sum())
        seen["vertex"] += int(((limit[:, feasible] > 0).sum(axis=0) == 1).sum())
    assert all(count > 0 for count in seen.values()), seen


def test_infeasible_column_starts_at_its_corner_from_any_base():
    # a task whose fastest branch misses the deadline has no exact limit;
    # `interior_init` mixes any base all the way to its fastest-branch
    # corner, so the base it gets for such a task changes no bit
    rng = np.random.default_rng(37)
    seen = {"infeasible": 0, "feasible_moved": 0}
    for _ in range(40):
        problem, _ = _random_global_problem(rng, "tight")
        p, n = problem.n_coords, problem.n_tasks
        miss = rng.random(n) < 0.3
        problem.t_max[miss] = (problem.tcoef.min(axis=0)[miss]
                               * rng.uniform(0.3, 1.0, miss.sum()))
        spread = rng.dirichlet(np.ones(p), n).T
        binary = np.eye(p)[:, rng.integers(p, size=n)]
        v1, m1 = interior_init(problem, spread)
        v2, m2 = interior_init(problem, binary)
        assert np.array_equal(v1[:, miss], v2[:, miss])
        assert np.array_equal(m1[miss], m2[miss])
        seen["infeasible"] += int(miss.sum())
        seen["feasible_moved"] += int((v1[:, ~miss] != v2[:, ~miss]).any(axis=0).sum())
    assert seen["infeasible"] > 100 and seen["feasible_moved"] > 0, seen


def test_solve_global_preserves_simplex_and_interior():
    prob = _toy_problem(n=6, p=5, seed=15)
    v, m, info = solve_global(prob)
    assert np.abs(v.sum(axis=0) - 1.0).max() < 1e-10
    assert np.all(v > 0) and np.all(v < 1) and np.all(m > 0)


def test_solve_global_objective_decreases_along_newton_path():
    prob = _toy_problem(n=3, p=4, seed=16)
    v, m = interior_init(prob)
    gv, gm = grad_smoothed(v, m, prob, 1.0, 0.1)
    nu = -gm
    sig = -(gv + prob.tcoef * nu).mean(axis=0)
    omega, xi = 1.0, 0.1
    prev_norm = None
    for it in range(12):
        res = kkt_residual(v, m, nu, sig, grad_smoothed(v, m, prob, omega, xi), prob)
        norm = gb.scaled_kkt_norm(res, prob)
        if prev_norm is not None and it > 1:
            assert np.all(norm <= prev_norm * 1.1 + 1e-12)
        prev_norm = norm
        hv, hm = hess_diag_smoothed(v, m, prob, omega, xi)
        dv, dm, dnu, dsig, _ = nullspace_cg_solve(hv, hm, prob.tcoef, res)
        g_before = smoothed_objective(v, m, prob, omega, xi)
        t, _, _ = line_search(v, m, dv, dm, smoothed_objective(v, m, prob, omega, xi),
                              grad_smoothed(v, m, prob, omega, xi), prob, omega, xi)
        v = v + t * dv
        m = m + t * dm
        nu = nu + t * dnu
        sig = sig + t * dsig
        g_after = smoothed_objective(v, m, prob, omega, xi)
        moved = t > 0
        assert np.all(g_after[moved] <= g_before[moved] + 1e-12)
        assert np.abs(v.sum(axis=0) - 1.0).max() < 1e-10


def test_corner_distance_shrinks_as_barrier_vanishes():
    # fixed corner-penalty weight, barrier weight stepping toward zero:
    # variables approach the nearer of their prox target or a corner; the
    # first reduction is skipped because the unit-weight barrier parks
    # everything mid-box regardless of the targets
    prox = np.array([[0.85, 0.05, 0.05, 0.05]]).T
    prob = GlobalProblem(prox=prox, dual=np.zeros((4, 1)),
                         tcoef=np.full((4, 1), 0.001),
                         t_max=np.array([10.0]), rho=1.0)
    v, m = interior_init(prob)
    nu = np.zeros(1)
    sig = np.zeros(1)
    omega, xi = 1.0, 0.2
    dists = []
    for _ in range(7):
        for _ in range(30):
            res = kkt_residual(v, m, nu, sig, grad_smoothed(v, m, prob, omega, xi),
                               prob)
            if gb.scaled_kkt_norm(res, prob).max() < 1e-9:
                break
            hv, hm = hess_diag_smoothed(v, m, prob, omega, xi)
            dv, dm, dnu, dsig, _ = nullspace_cg_solve(hv, hm, prob.tcoef, res)
            t, _, _ = line_search(v, m, dv, dm,
                                  smoothed_objective(v, m, prob, omega, xi),
                                  grad_smoothed(v, m, prob, omega, xi), prob, omega, xi)
            v = v + t * dv
            m = m + t * dm
            nu = nu + t * dnu
            sig = sig + t * dsig
        target = np.minimum(np.minimum(v, 1.0 - v), np.abs(v - prox))
        dists.append(target.max())
        omega = max(omega * 0.1, 1e-6)
    assert all(b <= a + 1e-9 for a, b in zip(dists[1:], dists[2:]))


# -- evaluation reuse against the solver it replaced ----------------------------

# the global solve that evaluated the objective and gradient afresh at every
# Newton iterate, kept as a reference (renamed, module names qualified, the
# docstrings of the line search and the solve dropped); its line search
# priced trials on a sliced problem.  Its start and level follow the
# module's, and it freezes stalled tasks for the rest of the level unless
# `freeze_stalled` is off; the three-level schedule the module's one level
# replaced is kept with it as `_reference_schedule`.  It keeps the
# task-major layout: its arrays are (n_tasks, n_coords) and its problem
# holds the transposes of the module's arrays, so its own sums, maxima and
# `all`s run along contiguous task rows; the module's objective, stopping
# norm and Newton solve it called are kept with it in that layout
# (`_reference_objective`, `_reference_kkt_norm`, `_reference_newton_step`)

def _task_major(problem: GlobalProblem) -> GlobalProblem:
    """The same problem with (n_tasks, n_coords) arrays; its `n_tasks` and
    `n_coords` properties do not apply."""
    return GlobalProblem(prox=problem.prox.T.copy(), dual=problem.dual.T.copy(),
                         tcoef=problem.tcoef.T.copy(), t_max=problem.t_max,
                         rho=problem.rho)


def _reference_objective(v, m, problem: GlobalProblem, omega, xi):
    gap = problem.prox - v
    prox_part = (problem.dual * gap + 0.5 * problem.rho * gap * gap).sum(axis=1)
    barrier = -(omega * (np.log(v) + np.log1p(-v)).sum(axis=1) + omega * np.log(m))
    penalty = xi * (v * (1.0 - v)).sum(axis=1)
    return prox_part + barrier + penalty


def _reference_kkt_norm(res: np.ndarray, problem: GlobalProblem) -> np.ndarray:
    p = res.shape[1] - 3
    stat = np.abs(res[:, :p + 1]).max(axis=1) / (1.0 + problem.rho)
    dead = np.abs(res[:, p + 1]) / (1.0 + problem.t_max)
    simp = np.abs(res[:, p + 2])
    return np.maximum(np.maximum(stat, dead), simp)


def _reference_newton_step(v, m, res, problem: GlobalProblem, omega, xi):
    """The block-elimination Newton solve of the module, task-major."""
    p = v.shape[1]
    hv, hm = hess_diag_smoothed(v, m, problem, omega, xi)
    b_v, b_m = -res[:, :p], -res[:, p]
    b_deadline, b_simplex = -res[:, p + 1], -res[:, p + 2]
    w = 1.0 / hv
    w_sum = w.sum(axis=1)
    t = problem.tcoef
    t_bar = (w * t).sum(axis=1) / w_sum
    b_bar = (w * b_v).sum(axis=1) / w_sum
    t_c = t - t_bar[:, None]
    simplex_share = b_simplex / w_sum
    wt_c = w * t_c
    q = (wt_c * t_c).sum(axis=1)
    r = (wt_c * b_v).sum(axis=1) + t_bar * b_simplex - b_deadline
    denom = hm * q + 1.0
    dnu = (hm * r + b_m) / denom
    dm = (b_m * q - r) / denom
    dsig = b_bar - simplex_share - t_bar * dnu
    dv = w * (b_v - b_bar[:, None] - t_c * dnu[:, None] + simplex_share[:, None])
    return dv, dm, dnu, dsig


def _reference_kkt_residual(v, m, nu, sig, problem: GlobalProblem, omega, xi) -> np.ndarray:
    """Stacked first-order conditions per task: stationarity of the box
    coordinates and the slack, then deadline and simplex feasibility.
    Zero exactly at a KKT point of the smoothed problem."""
    grad_v, grad_m = grad_smoothed(v, m, problem, omega, xi)
    stat_v = grad_v + problem.tcoef * nu[:, None] + sig[:, None]
    stat_m = grad_m + nu
    deadline = (problem.tcoef * v).sum(axis=1) + m - problem.t_max
    simplex = v.sum(axis=1) - 1.0
    return np.concatenate(
        [stat_v, stat_m[:, None], deadline[:, None], simplex[:, None]], axis=1)


def _reference_line_search(v, m, dv, dm, problem: GlobalProblem, omega, xi,
                           margin: float = gb.INTERIOR_MARGIN,
                           c1: float = gb.ARMIJO_C1):
    n = v.shape[0]
    g0 = _reference_objective(v, m, problem, omega, xi)
    grad_v, grad_m = grad_smoothed(v, m, problem, omega, xi)
    dirderiv = (grad_v * dv).sum(axis=1) + grad_m * dm

    t = np.ones(n)
    accepted = np.zeros(n, dtype=bool)
    stalled = np.zeros(n, dtype=bool)
    moving = (np.abs(dv).max(axis=1) + np.abs(dm)) > 0
    accepted[~moving] = True
    while not (accepted | stalled).all():
        todo = ~(accepted | stalled)
        v_try = v + t[:, None] * dv
        m_try = m + t * dm
        inside = ((v_try > margin) & (v_try < 1.0 - margin)).all(axis=1) & (m_try > margin)
        ok = np.zeros(n, dtype=bool)
        idx = todo & inside
        if idx.any():
            g_try = np.full(n, np.inf)
            g_try[idx] = _reference_objective(v_try[idx], m_try[idx],
                                              _reference_slice_problem(problem, idx),
                                              omega, xi)
            ok[idx] = g_try[idx] <= (g0[idx] + c1 * t[idx] * dirderiv[idx]
                                     + 1e-14 * (1.0 + np.abs(g0[idx])))
        accepted |= ok
        shrink = todo & ~ok
        t[shrink] *= 0.5
        newly_stalled = shrink & (t < gb.STALL_T)
        stalled |= newly_stalled
        t[newly_stalled] = 0.0
    return t, stalled


def _reference_slice_problem(problem: GlobalProblem, idx) -> GlobalProblem:
    return GlobalProblem(prox=problem.prox[idx], dual=problem.dual[idx],
                         tcoef=problem.tcoef[idx], t_max=problem.t_max[idx],
                         rho=problem.rho)


def _reference_solve_global(problem: GlobalProblem, tol: float = 1e-6,
                            max_inner: int = 25, freeze_stalled: bool = True):
    """Takes and returns the module's (n_coords, n_tasks) layout.  One
    barrier level at OMEGA from the lifted exact limit
    (`_reference_lifted_limit`), with multipliers fitted at that level."""
    xi = min(gb.XI_MAX, gb.XI_CONVEXITY_FRACTION * problem.rho)
    v, m = interior_init(problem, *_reference_lifted_limit(problem, gb.OMEGA, xi))
    return _reference_levels(problem, v, m, [(gb.OMEGA, xi)], tol, max_inner,
                             freeze_stalled)


def _reference_lifted_limit(problem, omega, xi):
    """Column by column, the start base and slack floor for `interior_init`.

    The base is `exact_limit` of each task with each of its zero
    coordinates set to omega / (g - delta), g its reduced cost, clipped to
    [CORNER_WEIGHT_FLOOR, CORNER_WEIGHT], then renormalised.  delta is 0
    unless the limit is a vertex with every g > 0; there it is three Newton
    steps on sum delta / (g - delta) = 1 from min(1 / sum 1 / g, min g / 2).
    The floor is omega / ((rho - 2 xi) lam) where the deadline multiplier
    lam is positive, and inf, the default, elsewhere; `interior_init` caps
    it at 1e-3 t_max.  A task with no feasible point keeps its prox
    centers."""
    start = problem.prox.copy()
    m_floor = np.full(problem.n_tasks, np.inf)
    limit, reduced, lam = exact_limit(problem, xi)
    for j in range(problem.n_tasks):
        if np.isnan(limit[:, j]).any():
            continue
        col = limit[:, j].copy()
        zero = np.flatnonzero(col == 0.0)
        g = reduced[zero, j]
        delta = 0.0
        if len(zero) == len(col) - 1 and g.min() > 0:
            delta = min(1.0 / (1.0 / g).sum(), 0.5 * g.min())
            for _ in range(3):
                r = 1.0 / (g - delta)
                delta -= (delta * r.sum() - 1.0) / (r.sum() + delta * (r * r).sum())
        for i in zero:
            gap = reduced[i, j] - delta
            lift = omega / gap if gap > 0 else np.inf
            col[i] = min(max(lift, gb.CORNER_WEIGHT_FLOOR), gb.CORNER_WEIGHT)
        start[:, j] = col / col.sum()
        if lam[j] > 0:
            m_floor[j] = omega / ((problem.rho - 2.0 * xi) * lam[j])
    return start, m_floor


def _reference_schedule(problem, base, tol=1e-6, max_inner=25):
    """The three-level barrier schedule the one level replaced, started
    cold: `base`, or the prox centers, clipped into [0.01, 0.99]; the
    levels run at omega 1e-2, 1e-4 and 1e-6, and the corner weight starts
    at min(0.1, XI_CONVEXITY_FRACTION rho) and doubles at each level after
    the first, up to that cap."""
    cap = gb.XI_CONVEXITY_FRACTION * problem.rho
    xis = [min(0.1, cap)]
    for _ in range(2):
        xis.append(min(2.0 * xis[-1], cap))
    base = problem.prox if base is None else base
    v, m = interior_init(problem, np.clip(base, 0.01, 0.99))
    return _reference_levels(problem, v, m, list(zip((1e-2, 1e-4, 1e-6), xis)), tol,
                             max_inner, True)


def _reference_levels(problem, v, m, levels, tol, max_inner, freeze_stalled):
    """Runs the (omega, xi) `levels` in order from (v, m), each from the
    previous level's best iterate, with multipliers fitted at the first
    level; each level checks the point after every step, its last one
    included."""
    v = v.T.copy()
    n = v.shape[0]
    problem = _task_major(problem)
    grad_v, grad_m = grad_smoothed(v, m, problem, *levels[0])
    nu = -grad_m
    sig = -(grad_v + problem.tcoef * nu[:, None]).mean(axis=1)
    total_newton = 0
    stalled_any = np.zeros(n, dtype=bool)
    for omega, xi in levels:
        frozen = np.zeros(n, dtype=bool)
        best = None
        for it in range(max_inner + 1):
            res = _reference_kkt_residual(v, m, nu, sig, problem, omega, xi)
            norm = _reference_kkt_norm(res, problem)
            if best is None or (norm < best[0]).any():
                if best is None:
                    best = (norm.copy(), v.copy(), m.copy(), nu.copy(), sig.copy())
                else:
                    better = norm < best[0]
                    best[0][better] = norm[better]
                    best[1][better] = v[better]
                    best[2][better] = m[better]
                    best[3][better] = nu[better]
                    best[4][better] = sig[better]
            active = (norm > tol) & ~frozen
            if it == max_inner or not active.any():
                break
            dv, dm, dnu, dsig = _reference_newton_step(v, m, res, problem,
                                                       omega, xi)
            dv[~active] = 0.0
            dm[~active] = 0.0
            dnu[~active] = 0.0
            dsig[~active] = 0.0
            t, stalled = _reference_line_search(v, m, dv, dm, problem, omega, xi)
            stalled_any |= stalled
            if freeze_stalled:
                frozen |= stalled
            v = v + t[:, None] * dv
            m = m + t * dm
            nu = nu + t * dnu
            sig = sig + t * dsig
            total_newton += 1
            if (t[active] == 0).all():
                break
        v, m, nu, sig = best[1], best[2], best[3], best[4]

    final_norm = _reference_kkt_norm(
        _reference_kkt_residual(v, m, nu, sig, problem, omega, xi), problem)
    info = {"converged": final_norm <= tol, "kkt_norm": final_norm,
            "newton_iterations": total_newton, "stalled": stalled_any}
    return v.T.copy(), m, info


# one task of the tight-deadline 100-task seed 43 scenario (t_max in 0.02 to
# 0.08 s) at an ADMM iteration: only its fastest branch meets the deadline,
# and its slowest costs 4400 t_max, so a start whose corner puts a fixed
# 1e-3 on every slower branch misses the deadline row; its slowest branch's
# barrier equilibrium, about 1e-10, lies below an interior margin of 1e-9,
# where it stalls and ends unconverged; values rounded to 4 digits
_TWIN_ROW = dict(
    prox=np.zeros(7),
    dual=np.array([-1.327e-07, -2.944e-06, -1.025, -9.419e-09, -2.654e-08,
                   -3.544, -2.431]),
    tcoef=np.array([6.601, 0.385, 6.419e-02, 91.88, 32.61, 1.556e-03,
                    3.072e-02]),
    t_max=0.0210316,
    base=np.array([1.41e-08, 3.135e-07, 0.1246, 1e-09, 2.823e-09, 0.4823,
                   0.3931]))


# tasks 32 and 98 of the tight-deadline 100-task seed 2 scenario (t_max in
# 0.02 to 0.08 s) at ADMM iterations 5-9, one row per task and iteration,
# at rho 1 with every prox center at 0: a branch of 2e4-9e4 s lifts to
# about 5e-13 to 1e-12, inside the interior margin, so both end every
# solve unconverged and task 98 stalls at iteration 7; values at full
# precision, since rounding to 4 digits loses the stall
_SLOW_BRANCH_COLUMNS = dict(
    dual=np.array([
        [-1.151042724016166e-11, -1.0329354322317676e-06, -0.23666156245013842,
         -1.2221367213444365, -3.279261542633897e-11, -1.3862398503745106,
         -1.1549608328511796],
        [-8.705238576824371e-12, -1.1040290868619153e-06, -0.4515532350558721,
         -1.1661077314579837, -2.9942503161499085e-11, -1.377914452991714,
         -1.0044234764266955],
        [-1.2510427241732031e-11, -1.1239451950213665e-06, -0.3199506859928982,
         -1.3955178677744888, -3.564156489876375e-11, -1.7910991213689282,
         -1.4934312008406212],
        [-9.705238585352655e-12, -1.2345936795269238e-06, -0.6251035676144691,
         -1.2395016613127303, -3.3382100868162774e-11, -1.8096368796745972,
         -1.325756656781976],
        [-1.3510427441668575e-11, -1.2151040814688212e-06,
         -0.38443563687326043, -1.816421016527817, -3.8490515022163524e-11,
         -2.075790842356664, -1.7233512889683693],
        [-1.07052385854296e-11, -1.365751540885436e-06, -0.7242407696635518,
         -1.7163809532327428, -3.682169882796029e-11, -2.0473610155073847,
         -1.512015895782261],
        [-1.451042744169392e-11, -1.3062825332737853e-06, -0.4758773648553974,
         -1.9344606903301627, -3.9911322226727164e-11, -2.5090679845931922,
         -2.080592653784334],
        [-1.1705238585430518e-11, -1.4199996469155943e-06, -0.9174443657289807,
         -1.7245079756203, -3.827378439499441e-11, -2.5084054179171633,
         -1.8496408206361614],
        [-1.5510427441694276e-11, -1.397626477195199e-06, -0.5316651184437075,
         -2.43330533555969, -4.2760271896072535e-11, -2.7451406501781537,
         -2.28988749798276],
        [-1.2705238585470246e-11, -1.5431873976234379e-06, -0.996728230767974,
         -2.30070072059757, -3.9889425282331614e-11, -2.689268477997687,
         -2.0133010273120213]]),
    tcoef=np.array([
        [87700.7340802923, 1.1047622967569712, 0.11652014759889001,
         0.027132568873563013, 30783.626033441535, 0.0012343092807312805,
         0.024359257916524494],
        [70524.02715734605, 0.6407318664633668, 0.06695920229488811,
         0.02712836743229963, 20503.640007570153, 0.001408076717298433,
         0.0278040188508388],
        [87700.73408028403, 1.1046152522303367, 0.11674959896323045,
         0.022981738838925674, 30783.626033433276, 0.0012343092807312805,
         0.024359257916524494],
        [70524.02715733663, 0.6406639239949184, 0.06741027420126403,
         0.02297804593545826, 20503.640007560727, 0.001408076717298433,
         0.0278040188508388],
        [87700.73408028955, 1.1047999756914817, 0.11635567621752706,
         0.027762846688043255, 30783.62603343878, 0.0012343092807312805,
         0.024359257916524494],
        [70524.0271573429, 0.6407617836884699, 0.06672805104976808,
         0.027758325386650674, 20503.64000756701, 0.001408076717298433,
         0.0278040188508388],
        [87700.73408028588, 1.1045898493636892, 0.1169819522403246,
         0.02252798052412433, 30783.626033435114, 0.0012343092807312805,
         0.024359257916524494],
        [70524.02715733871, 0.6406338825489349, 0.0677361959659269,
         0.02252492084854335, 20503.640007562823, 0.001408076717298433,
         0.0278040188508388],
        [87700.73408028833, 1.1048199425978171, 0.11624213738164788,
         0.029598415642574212, 30783.62603343756, 0.0012343092807312805,
         0.024359257916524494],
        [70524.02715734151, 0.6407993674608858, 0.06652916512435914,
         0.02959359575962475, 20503.640007565613, 0.001408076717298433,
         0.0278040188508388]]),
    t_max=np.tile([0.023154107329787264, 0.023154387053362674], 5))


# one task of five coordinates at rho 1.869 with a branch of 5e4 s and a
# deadline at `slack` times its fastest branch, found among random tight
# and binding draws with such a branch: it ends unconverged after 25
# Newton steps at a larger KKT norm than it reached before, so its best
# iterate is not its last; values rounded to 4 digits
_BEST_NOT_LAST_ROW = dict(
    prox=np.array([[0.1319, 0.115, 0.8689, 0.5959, 0.1937]]),
    dual=np.array([[-0.1414, -0.1216, 0.5066, -0.1521, 0.1738]]),
    tcoef=np.array([[0.04946, 50960.0, 0.02195, 0.1574, 0.01652]]),
    slack=np.array([3.455]), rho=1.869)


def _random_global_problem(rng, deadline, twin=False, coords=(3, 8)):
    """A random problem in the module's layout and a random start base
    for `interior_init` (or None); `coords` bounds the number of
    coordinates, upper bound excluded."""
    n, p = int(rng.integers(1, 61)), 7 if twin else int(rng.integers(*coords))
    if rng.random() < 0.5:
        prox = rng.uniform(0.0, 1.0, (n, p))
    else:  # binary local copies, as late in a consensus run
        prox = np.eye(p)[rng.integers(p, size=n)]
    dual = rng.normal(0, 0.3, (n, p))
    tcoef = rng.uniform(0.001, 0.2, (n, p))
    if deadline == "loose":
        t_max = np.full(n, 10.0)
    elif deadline == "binding":
        fastest = tcoef.min(axis=1)
        t_max = fastest + rng.uniform(0.1, 0.9, n) * (tcoef.mean(axis=1) - fastest)
    else:
        t_max = rng.uniform(0.02, 0.08, n)
        tcoef[np.arange(n), tcoef.argmin(axis=1)] = t_max * rng.uniform(0.05, 0.5, n)
    if deadline != "loose" and rng.random() < 0.3:
        # a branch so slow that even the nudged start misses the deadline
        k = rng.integers(n)
        slow = (tcoef[k].argmin() + 1 + rng.integers(p - 1)) % p
        tcoef[k, slow] = 10.0 ** rng.uniform(2.3, 3)
    if deadline != "loose" and rng.random() < 0.3:
        # a row whose fastest branch misses the deadline, or meets it only
        # inside the start's slack floor, so its start stays off the
        # deadline row
        k = rng.integers(n)
        scale = rng.uniform(0.3, 0.95) if rng.random() < 0.5 else rng.uniform(1.0, 1.001)
        t_max[k] = tcoef[k].min() * scale
    rho = 1.0 if rng.random() < 0.5 or twin else float(rng.uniform(0.2, 5.0))
    base = rng.dirichlet(np.ones(p), n) if rng.random() < 0.5 or twin else None
    if twin:
        k = rng.integers(n)
        for name, values in (("prox", prox), ("dual", dual), ("tcoef", tcoef),
                             ("t_max", t_max), ("base", base)):
            values[k] = _TWIN_ROW[name]
    return (_coordinate_major(prox, dual, tcoef, t_max, rho),
            None if base is None else base.T.copy())


def test_solve_global_bit_identical_to_fresh_evaluation_reference(monkeypatch):
    seen = {"best_not_last": 0, "moved": 0, "still": 0, "stalled": 0,
            "left_box": 0}
    norms = []
    kkt_norm = gb.scaled_kkt_norm

    def record_norm(res, problem):
        norm = kkt_norm(res, problem)
        norms.append(norm)
        return norm

    def checked_line_search(v, m, dv, dm, f, grad, problem, omega, xi):
        t, stalled, f_new = line_search(v, m, dv, dm, f, grad, problem, omega, xi)
        moved = t > 0
        moved[moved] = (np.abs(dv[:, moved]).max(axis=0) + np.abs(dm[moved])) > 0
        at = smoothed_objective(v + t * dv, m + t * dm, problem, omega, xi)
        assert np.array_equal(f_new[moved], at[moved])
        assert np.array_equal(f_new[~moved], f[~moved])
        v_full, m_full = v + dv, m + dm
        out = ((v_full <= gb.INTERIOR_MARGIN).any(axis=0) | (m_full <= gb.INTERIOR_MARGIN)
               | (v_full >= 1.0 - gb.INTERIOR_MARGIN).any(axis=0))
        seen["moved"] += int(moved.sum())
        seen["still"] += int((~moved & ~stalled).sum())
        seen["stalled"] += int(stalled.sum())
        seen["left_box"] += int((out & moved).sum())
        return t, stalled, f_new

    rng = np.random.default_rng(33)
    problems = [_random_global_problem(rng, deadline, case % 42 == 2)[0]
                for case, deadline in enumerate(("loose", "binding", "tight") * 70)]
    cols = _SLOW_BRANCH_COLUMNS
    problems.append(_coordinate_major(np.zeros_like(cols["dual"]), cols["dual"],
                                      cols["tcoef"], cols["t_max"], 1.0))
    row = _BEST_NOT_LAST_ROW
    problems.append(_coordinate_major(row["prox"], row["dual"], row["tcoef"],
                                      row["tcoef"].min(axis=1) * row["slack"],
                                      row["rho"]))
    for problem in problems:
        v_ref, m_ref, info_ref = _reference_solve_global(problem)
        norms.clear()
        with monkeypatch.context() as mp:
            mp.setattr(gb, "scaled_kkt_norm", record_norm)
            mp.setattr(gb, "line_search", checked_line_search)
            v, m, info = solve_global(problem)
        assert np.array_equal(v, v_ref) and np.array_equal(m, m_ref)
        assert info.keys() == info_ref.keys()
        for key in info:
            assert np.array_equal(info[key], info_ref[key]), key
        # the KKT norms reported are the best ones, not the last ones
        # computed
        level = np.array(norms)
        seen["best_not_last"] += int((level[-1] > level.min(axis=0)).sum())
    assert all(count > 0 for count in seen.values()), seen


def test_solve_global_matches_task_major_reference_from_eight_coords():
    # from n_sbs = 6 (8 coordinates) numpy sums a contiguous task row in
    # unrolled partial sums, while the module adds its coordinate rows in
    # order, so the two layouts may round differently in the last bit
    rng = np.random.default_rng(71)
    worst = 0.0
    for deadline in ("loose", "binding", "tight") * 10:
        problem, _ = _random_global_problem(rng, deadline, coords=(8, 11))
        assert problem.n_coords >= 8
        v_ref, m_ref, info_ref = _reference_solve_global(problem)
        v, m, info = solve_global(problem)
        assert np.array_equal(info["converged"], info_ref["converged"])
        worst = max(worst, np.abs(v - v_ref).max(), np.abs(m - m_ref).max())
    assert worst <= 1e-14


def test_solve_global_leaves_its_inputs_unchanged():
    # the consensus loop passes rows of its state as the problem, so the
    # solve must not write into them
    rng = np.random.default_rng(72)
    for deadline in ("loose", "binding", "tight") * 4:
        problem, _ = _random_global_problem(rng, deadline)
        inputs = (problem.prox, problem.dual, problem.tcoef, problem.t_max)
        kept = [a.copy() for a in inputs]
        solve_global(problem)
        for a, b in zip(inputs, kept):
            assert np.array_equal(a, b)


def test_dual_shifted_by_one_constant_per_task_leaves_the_solve():
    # the simplex row sum v = 1 folds one constant added to every
    # coordinate of a task's dual into the row's multiplier, so the
    # problem, its exact limit and every Newton iterate are unchanged in
    # exact arithmetic; `admm.run` reuses a global solve on that ground.
    # In floating point the flags agree and converged iterates agree to
    # 1e-12; over 300 draws (seeds 0-299, the three deadline kinds in
    # turn, shifts uniform in [-3, 3]) the worst deviation was 5.7e-14
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100000),
           deadline=st.sampled_from(["loose", "binding", "tight"]),
           scale=st.floats(0.0, 3.0))
    def check(seed, deadline, scale):
        rng = np.random.default_rng(seed)
        problem, _ = _random_global_problem(rng, deadline)
        shift = rng.uniform(-scale, scale, problem.n_tasks)
        moved = GlobalProblem(prox=problem.prox, dual=problem.dual + shift,
                              tcoef=problem.tcoef, t_max=problem.t_max,
                              rho=problem.rho)
        v, _, info = solve_global(problem)
        v_moved, _, info_moved = solve_global(moved)
        assert np.array_equal(info["converged"], info_moved["converged"])
        done = info["converged"]
        assert (np.abs(v - v_moved)[:, done] <= 1e-12).all()

    check()


# two tasks of seven coordinates at rho 1, the first at a spread prox
# center and the second on a vertex, each with one branch slower than
# 1e4 s and a deadline at `slack` times its fastest branch: the first
# stalls on Newton step 10 and the second converges only on step 19, so a
# solve that keeps retrying the first takes a step more than one that
# freezes it, a pair that none of the test's random draws holds; found
# among random tight and binding draws with such a branch, values rounded
# to 4 digits
_STALL_BEFORE_CONVERGENCE = dict(
    prox=np.array([[0.5753, 0.8488, 0.0468, 0.5658, 0.6245, 0.4772, 0.2401],
                   [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]]),
    dual=np.array([[-0.02155, 0.2374, 0.01149, 0.1479, 0.05058, 0.2784, -0.2568],
                   [-0.3618, -0.2303, 0.05794, 0.3691, 0.1672, -0.231, -0.4112]]),
    tcoef=np.array([[0.1551, 0.01085, 0.0106, 0.1123, 0.1654, 10270.0, 0.1896],
                    [0.04721, 0.0107, 0.04487, 0.003888, 0.1735, 0.1396, 53680.0]]),
    slack=np.array([1.001, 18.48]))


def test_frozen_stalls_leave_results_bit_identical():
    # a stalled task has not moved, so retrying it for the rest of the solve
    # repeats the same step and the same stall; freezing it may only save
    # Newton steps.  From one level it saves one only where a task stalls
    # while another still needs steps after it, which the planted problem
    # holds
    rng = np.random.default_rng(48)
    problems = [_random_global_problem(rng, "tight", twin=case % 2 == 0)[0]
                for case in range(40)]
    row = _STALL_BEFORE_CONVERGENCE
    problems.append(_coordinate_major(row["prox"], row["dual"], row["tcoef"],
                                      row["tcoef"].min(axis=1) * row["slack"], 1.0))
    stalled_tasks = saved = 0
    for problem in problems:
        v_ref, m_ref, info_ref = _reference_solve_global(problem,
                                                         freeze_stalled=False)
        v, m, info = solve_global(problem)
        assert np.array_equal(v, v_ref) and np.array_equal(m, m_ref)
        for key in ("kkt_norm", "converged", "stalled"):
            assert np.array_equal(info[key], info_ref[key]), key
        assert info["newton_iterations"] <= info_ref["newton_iterations"]
        stalled_tasks += int(info["stalled"].sum())
        saved += info_ref["newton_iterations"] - info["newton_iterations"]
    assert stalled_tasks > 0 and saved > 0


def test_twin_row_alone_converges_without_a_stall():
    # the interior margin sits below the equilibrium omega / g of the twin
    # row's slowest branch, so the line search never holds that
    # coordinate away from it: solved alone the row converges in 9 Newton
    # steps, where a margin of 1e-9 stalled it unconverged after 23 at a
    # KKT norm of 9.08
    row = _TWIN_ROW
    problem = _coordinate_major(row["prox"][None], row["dual"][None],
                                row["tcoef"][None], np.array([row["t_max"]]), 1.0)
    _, _, info = solve_global(problem)
    assert info["converged"][0] and not info["stalled"][0]


def test_solve_global_runs_each_level_once(monkeypatch):
    # one objective evaluation starts the solve's one level; the others
    # price line search trials
    starts = []
    depth = [0]

    def counted_objective(v, m, problem, omega, xi):
        if not depth[0]:
            starts.append(omega)
        return smoothed_objective(v, m, problem, omega, xi)

    def nested_line_search(*args):
        depth[0] += 1
        try:
            return line_search(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(gb, "smoothed_objective", counted_objective)
    monkeypatch.setattr(gb, "line_search", nested_line_search)
    problem = _toy_problem(n=5, p=5, seed=17)
    _, _, info = solve_global(problem)
    assert starts == [gb.OMEGA]
    assert info["converged"].all()


def test_solve_global_checks_the_point_after_its_last_step(monkeypatch):
    # a solve that needs exactly k steps converges under a cap of k, and
    # stops unconverged after k - 1 steps under a cap of k - 1.  Besides
    # random draws this runs case 7 of the referee's problem set (binding
    # deadlines, rho 2.54), the slowest converging case of its first 162
    # problems, which converges only on its 14th step; from the
    # equilibrium start no problem of that set needs all MAX_INNER steps
    rng = np.random.default_rng(2024)
    for case, deadline in enumerate(("loose", "binding", "tight") * 3):
        slowest, _ = _random_global_problem(rng, deadline, case % 42 == 2)
        if case == 7:
            break
    rng = np.random.default_rng(91)
    problems = [slowest] + [_random_global_problem(rng, deadline)[0]
                            for deadline in ("loose", "binding", "tight") * 4]
    longest = 0
    for problem in problems:
        _, _, info = solve_global(problem)
        k = info["newton_iterations"]
        if not info["converged"].all() or k < 2:
            continue
        with monkeypatch.context() as mp:
            mp.setattr(gb, "MAX_INNER", k)
            _, _, capped = solve_global(problem)
            assert capped["converged"].all() and capped["newton_iterations"] == k
            mp.setattr(gb, "MAX_INNER", k - 1)
            _, _, short = solve_global(problem)
            assert not short["converged"].all() and short["newton_iterations"] == k - 1
        longest = max(longest, k)
    assert longest >= 14


def test_solve_global_leaves_every_kkt_norm_it_computed(monkeypatch):
    # the best-norm record is an array of the solve's own, so the first
    # norm `scaled_kkt_norm` returned keeps its values after better ones
    norms = []
    score = gb.scaled_kkt_norm

    def recorded(res, problem):
        norm = score(res, problem)
        norms.append((norm, norm.copy()))
        return norm

    monkeypatch.setattr(gb, "scaled_kkt_norm", recorded)
    problem = _toy_problem(n=5, p=5, seed=17)
    _, _, info = solve_global(problem)
    assert info["newton_iterations"] >= 1 and len(norms) >= 2
    for norm, values in norms:
        np.testing.assert_array_equal(norm, values)


def test_one_level_converges_what_the_three_level_schedule_converges():
    # the referee for the deletion of the three-level schedule: one level
    # from the lifted exact limit converges exactly the tasks that the
    # whole schedule converges from a cold start
    rng = np.random.default_rng(2024)
    seen = {"converged": 0, "both_failed": 0}
    for case, deadline in enumerate(("loose", "binding", "tight") * 20):
        problem, base = _random_global_problem(rng, deadline, case % 42 == 2)
        _, _, info = solve_global(problem)
        _, _, ref = _reference_schedule(problem, base)
        assert np.array_equal(info["converged"], ref["converged"]), case
        assert info["newton_iterations"] <= ref["newton_iterations"]
        seen["converged"] += int(info["converged"].sum())
        seen["both_failed"] += int((~info["converged"]).sum())
    assert all(count > 0 for count in seen.values()), seen


def test_moved_loose_problems_converge_every_task(monkeypatch):
    # as in the consensus loop: the problem has moved a little since the
    # last solve
    searches = []

    def recorded_line_search(v, m, dv, dm, f, grad, problem, omega, xi):
        searches.append(omega)
        return line_search(v, m, dv, dm, f, grad, problem, omega, xi)

    monkeypatch.setattr(gb, "line_search", recorded_line_search)
    rng = np.random.default_rng(82)
    for _ in range(20):
        problem, _ = _random_global_problem(rng, "loose")
        _, _, first = solve_global(problem)
        assert first["converged"].all()
        moved = GlobalProblem(prox=problem.prox + rng.normal(0, 0.01, problem.prox.shape),
                              dual=problem.dual + rng.normal(0, 0.01, problem.dual.shape),
                              tcoef=problem.tcoef, t_max=problem.t_max, rho=problem.rho)
        searches.clear()
        _, _, info = solve_global(moved)
        assert info["converged"].all()
        assert searches and set(searches) == {gb.OMEGA}
        assert info["newton_iterations"] == len(searches)


# -- ratio-test start against backtracking from 1 ------------------------------

def _first_inside_power(v, m, dv, dm):
    """Per row, the first step that halving from 1 lets through the line
    search's box test."""
    t = np.ones(v.shape[1])
    for _ in range(60):
        v_try = v + t * dv
        m_try = m + t * dm
        inside = (((v_try > gb.INTERIOR_MARGIN) & (v_try < 1.0 - gb.INTERIOR_MARGIN)).all(axis=0)
                  & (m_try > gb.INTERIOR_MARGIN))
        t = np.where(inside, t, 0.5 * t)
    return t


def _at_or_past(x, bound, k):
    """The step 2^k (bound - x), widened by ulps until the full step from
    x lands at or past `bound` in floating point; at k = 0 the rounded sum
    may otherwise fall just inside."""
    step = (bound - x) * 2.0 ** k
    while (x + step - bound) * step < 0:
        step = np.nextafter(step, np.copysign(np.inf, step))
    return step


def _planted_line_search_batch(rng, n=48, p=7):
    """Interior rows with Newton, scaled-gradient and random steps, and
    planted rows: zero steps, box bounds at powers of two of the step, up
    to the ulps that put the full step at or past them (lower and upper
    walls, slack), coordinates within 1e-12 of the margin, and one
    row whose bound is below the stall threshold.  The rows are planted
    task-major and returned in the module's layout."""
    margin = gb.INTERIOR_MARGIN
    prob = _toy_problem(n=n, p=p, seed=int(rng.integers(1e6)), rho=1.0)
    omega, xi = float(rng.choice((1e-2, 1e-4, 1e-6))), float(rng.uniform(0.0, 0.2))
    v = np.clip(rng.dirichlet(np.ones(p), n), 1e-6, None)
    v /= v.sum(axis=1, keepdims=True)
    m = 10.0 ** rng.uniform(-4, 1, n)
    gv, gm = grad_smoothed(v.T, m, prob, omega, xi)
    res = kkt_residual(v.T, m, np.zeros(n), np.zeros(n), (gv, gm), prob)
    hv, hm = hess_diag_smoothed(v.T, m, prob, omega, xi)
    dv, dm = nullspace_cg_solve(hv, hm, prob.tcoef, res)[:2]
    dv, gv = dv.T.copy(), gv.T
    scale = 10.0 ** rng.uniform(-2, 3, n)
    gradient_rows = rng.random(n) < 0.3
    dv[gradient_rows] = -(gv - gv.mean(axis=1, keepdims=True))[gradient_rows]
    dm[gradient_rows] = -gm[gradient_rows]
    random_rows = rng.random(n) < 0.2
    dv[random_rows] = rng.normal(0, 1, (random_rows.sum(), p))
    dm[random_rows] = rng.normal(0, 1, random_rows.sum())
    dv *= scale[:, None]
    dm *= scale
    rows = iter(rng.permutation(n))
    plant = {}
    i = plant["zero"] = next(rows)
    dv[i], dm[i] = 0.0, 0.0
    for wall in ("lower", "upper", "slack"):
        i = plant[wall] = next(rows)
        j, k = rng.integers(p), rng.integers(0, 40)
        dv[i], dm[i] = 0.0, 0.0
        if wall == "slack":
            dm[i] = _at_or_past(m[i], margin, k)
        else:
            bound = margin if wall == "lower" else 1.0 - margin
            dv[i, j] = _at_or_past(v[i, j], bound, k)
            dv[i, (j + 1) % p] = -dv[i, j] * rng.uniform(0.0, 1e-3)
    for _ in range(3):
        i, j = next(rows), rng.integers(p)
        v[i, j] = margin + rng.uniform(0.1, 1.0) * 1e-12
        dv[i, j] = -10.0 ** rng.uniform(-6, 0)
    i = plant["stall"] = next(rows)
    v[i, 0] = margin + 1e-13
    dv[i] = 0.0
    dv[i, 0], dv[i, 1] = -1.0, 1.0
    v, dv = v.T.copy(), dv.T.copy()
    f = smoothed_objective(v, m, prob, omega, xi)
    return (v, m, dv, dm, f, grad_smoothed(v, m, prob, omega, xi), prob,
            omega, xi), plant


def test_line_search_matches_backtracking_from_one(monkeypatch):
    rng = np.random.default_rng(52)
    box_limited = armijo_limited = 0
    for _ in range(40):
        args, plant = _planted_line_search_batch(rng)
        v, m, dv, dm, f, _, prob, omega, xi = args
        t, stalled, f_new = line_search(*args)
        t_ref, stalled_ref = _reference_line_search(v.T.copy(), m, dv.T.copy(), dm,
                                                    _task_major(prob), omega, xi)
        assert np.array_equal(t, t_ref) and np.array_equal(stalled, stalled_ref)
        at = smoothed_objective(v + t * dv, m + t * dm, prob, omega, xi)
        moved = t > 0
        assert np.array_equal(f_new[moved], at[moved])
        assert np.array_equal(f_new[~moved], f[~moved])
        assert t[plant["zero"]] == 1.0
        for wall in ("lower", "upper", "slack"):
            assert t[plant[wall]] <= 0.5
        assert stalled[plant["stall"]] and t[plant["stall"]] == 0.0
        box = _first_inside_power(v, m, dv, dm)
        box_limited += int((moved & (box < 1.0) & (t == box)).sum())
        armijo_limited += int((~stalled & (t < box)).sum())

        # a row whose box bound is below the stall threshold is not priced
        k = slice(plant["stall"], plant["stall"] + 1)
        gv, gm = args[5]
        with monkeypatch.context() as mp:
            mp.setattr(gb, "_smoothed_objective", None)
            t_k, stalled_k, f_k = line_search(
                v[:, k], m[k], dv[:, k], dm[k], f[k], (gv[:, k], gm[k]),
                GlobalProblem(prox=prob.prox[:, k], dual=prob.dual[:, k],
                              tcoef=prob.tcoef[:, k], t_max=prob.t_max[k],
                              rho=prob.rho), omega, xi)
        assert stalled_k[0] and t_k[0] == 0.0 and f_k[0] == f[k]
    assert box_limited > 100 and armijo_limited > 20, (box_limited, armijo_limited)


def test_line_search_prices_trials_once_without_armijo_rejection(monkeypatch):
    # with the ratio-test start, the first trial of every row is inside the
    # box, so a search where Armijo accepts every first trial prices once
    calls = [0]
    priced = gb._smoothed_objective

    def counted_objective(*args):
        calls[0] += 1
        return priced(*args)

    seen = {"once": 0, "other": 0}

    def checked_line_search(v, m, dv, dm, f, grad, problem, omega, xi):
        before = calls[0]
        t, stalled, f_new = line_search(v, m, dv, dm, f, grad, problem, omega, xi)
        moving = (np.abs(dv).max(axis=0) + np.abs(dm)) > 0
        first = _first_inside_power(v, m, dv, dm)
        if moving.any() and not stalled.any() and (t == first)[moving].all():
            assert calls[0] - before == 1
            seen["once"] += 1
        else:
            seen["other"] += 1
        return t, stalled, f_new

    monkeypatch.setattr(gb, "_smoothed_objective", counted_objective)
    monkeypatch.setattr(gb, "line_search", checked_line_search)
    rng = np.random.default_rng(61)
    for deadline in ("loose", "binding", "tight") * 12:
        problem, _ = _random_global_problem(rng, deadline)
        solve_global(problem)
    solve_global(_toy_problem(n=5, p=5, seed=17))
    assert seen["once"] > 100 and seen["other"] > 0, seen


def test_newton_solve_leaves_curvatures_alone():
    rng = np.random.default_rng(62)
    hess_v, hess_m, tcoef, res = _random_system(rng, n=4)
    kept_v, kept_m = hess_v.copy(), hess_m.copy()
    nullspace_cg_solve(hess_v, hess_m, tcoef, res)
    assert np.array_equal(hess_v, kept_v)
    assert np.array_equal(hess_m, kept_m)
