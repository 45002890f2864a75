"""Global consensus update: interior-point solve of the coupled block.

Per task, the global assignment row must sit on the unit simplex and meet
the deadline written as an equality through a positive slack.  Binary
requirements are smoothed by a log barrier plus a concave corner penalty;
the resulting equality-constrained problem is solved by Newton steps.
The Hessian is diagonal, so each Newton system is solved exactly in
closed form by block elimination down to one 2x2 system in the deadline
and simplex multipliers.  Tasks are mutually independent, so every array
here carries a leading task axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INTERIOR_MARGIN = 1e-9
ARMIJO_C1 = 1e-4
STALL_T = 1e-12

OMEGA_INIT = 1.0
OMEGA_DECAY = 0.1
OMEGA_FLOOR = 1e-6
XI_INIT = 0.1
XI_GROWTH = 2.0
# the corner penalty subtracts 2*xi from the prox curvature rho; past
# rho/2 the smoothed problem turns concave and every solve collapses to an
# arbitrary corner, and already near it the solve amplifies prox noise by
# 1/(rho - 2 xi) enough to derail the branch race, so growth stops well
# below the concavity threshold
XI_CONVEXITY_FRACTION = 0.2


@dataclass
class GlobalProblem:
    """Per-task data: prox centers (the fresh local copies), duals, the
    branch delay coefficients of the deadline row, and deadlines.

    Coordinate order per task: the SBS assignments, then the macro-station
    bit, then the local bit; the slack rides separately.
    """

    prox: np.ndarray
    dual: np.ndarray
    tcoef: np.ndarray
    t_max: np.ndarray
    rho: float

    @property
    def n_tasks(self) -> int:
        return self.prox.shape[0]

    @property
    def n_coords(self) -> int:
        return self.prox.shape[1]


def smoothed_objective(v: np.ndarray, m: np.ndarray, problem: GlobalProblem,
                       omega: float, xi: float) -> np.ndarray:
    """Per-task prox-plus-dual value with the log barrier over every box
    variable and the slack, and the concave corner penalty.

    Requires a strictly interior point; the caller's line search must keep
    iterates away from the boundary.
    """
    if np.any(v <= 0) or np.any(v >= 1) or np.any(m <= 0):
        raise ValueError("smoothed objective requires a strictly interior point")
    gap = problem.prox - v
    prox_part = (problem.dual * gap + 0.5 * problem.rho * gap * gap).sum(axis=1)
    barrier = -(omega * (np.log(v) + np.log1p(-v)).sum(axis=1) + omega * np.log(m))
    penalty = xi * (v * (1.0 - v)).sum(axis=1)
    return prox_part + barrier + penalty


def grad_smoothed(v, m, problem: GlobalProblem, omega, xi):
    grad_v = (-problem.dual - problem.rho * (problem.prox - v)
              - omega * (1.0 / v - 1.0 / (1.0 - v)) + xi * (1.0 - 2.0 * v))
    grad_m = -omega / m
    return grad_v, grad_m


def hess_diag_smoothed(v, m, problem: GlobalProblem, omega, xi):
    hess_v = problem.rho + omega * (1.0 / (v * v) + 1.0 / ((1.0 - v) ** 2)) - 2.0 * xi
    hess_m = omega / (m * m)
    return hess_v, hess_m


def kkt_residual(v, m, nu, sig, problem: GlobalProblem, omega, xi) -> np.ndarray:
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


def scaled_kkt_norm(res: np.ndarray, problem: GlobalProblem) -> np.ndarray:
    """Per-task stopping measure mixing the differently scaled rows."""
    p = problem.n_coords
    stat = np.abs(res[:, :p + 1]).max(axis=1) / (1.0 + problem.rho)
    dead = np.abs(res[:, p + 1]) / (1.0 + problem.t_max)
    simp = np.abs(res[:, p + 2])
    return np.maximum(np.maximum(stat, dead), simp)


@dataclass
class NewtonSystem:
    """One Newton step's data for all tasks: diagonal curvature of the box
    coordinates and the slack, the deadline row, and the negated residual
    right-hand side split by row group."""

    hess_v: np.ndarray
    hess_m: np.ndarray
    tcoef: np.ndarray
    rhs_v: np.ndarray
    rhs_m: np.ndarray
    rhs_deadline: np.ndarray
    rhs_simplex: np.ndarray


def assemble_newton(v, m, res, problem: GlobalProblem, omega, xi) -> NewtonSystem:
    """Newton system at (v, m) whose right-hand side is the negated KKT
    residual `res` that `kkt_residual` returned for the same point."""
    hess_v, hess_m = hess_diag_smoothed(v, m, problem, omega, xi)
    p = problem.n_coords
    return NewtonSystem(hess_v=hess_v, hess_m=hess_m, tcoef=problem.tcoef,
                        rhs_v=-res[:, :p], rhs_m=-res[:, p],
                        rhs_deadline=-res[:, p + 1], rhs_simplex=-res[:, p + 2])


def nullspace_cg_solve(system: NewtonSystem, max_reg_doublings: int = 60):
    """Solve the per-task Newton systems exactly by block elimination.

    Per task the system is

        diag(hv) dv + t dnu + 1 dsig = b_v      hm dm + dnu = b_m
        t.dv + dm = b_deadline                  1.dv = b_simplex

    With W = diag(hv)^-1 the first row gives dv = W (b_v - t dnu - 1 dsig)
    and the second dm = (b_m - dnu) / hm.  The deadline and simplex rows
    then leave a 2x2 SPD system in (dnu, dsig) with entries t'Wt + 1/hm,
    t'W1 and 1'W1 (Boyd & Vandenberghe, Convex Optimization, sec. 10.4.2).
    Its Cramer determinant t'Wt 1'W1 - (t'W1)^2 + 1'W1/hm equals
    1'W1 (q + 1/hm) with q = t_c'W t_c and t_c = t - t_bar, t centered at
    its W-weighted mean; formed directly it cancels and loses up to 2e-7
    relative at the curvatures the barrier schedule reaches (hv up to
    1e12, hm from 1e-9 to 1e9), so the solve uses the centered form, a sum
    of nonnegative terms.  Scaling both multipliers and dm through by hm
    leaves no division by hm.  The work is O(p) per task, all tasks at once.

    The name is kept from the null-space conjugate-gradient solver this
    replaced, because the benchmark's span tracer wraps the function by
    that name and reads `info["regularized"]`.

    Returns (dv, dm, dnu, dsig, info).  Nonpositive curvature is repaired
    by adding a diagonal shift that doubles from 1e-6 until every
    diagonal entry is positive again; affected tasks are flagged in
    `info["regularized"]`.  Inside `solve_global` the repair never fires:
    there xi <= XI_CONVEXITY_FRACTION * rho, so every box curvature is at
    least (1 - 2 XI_CONVEXITY_FRACTION) rho > 0, and the slack curvature
    omega / m^2 is positive at every interior point.
    """
    hv = system.hess_v.copy()
    hm = system.hess_m.copy()
    regularized = np.zeros(hv.shape[0], dtype=bool)
    lam = 1e-6
    for _ in range(max_reg_doublings):
        bad = (hv.min(axis=1) <= 0) | (hm <= 0)
        if not bad.any():
            break
        hv[bad] += lam
        hm[bad] += lam
        regularized |= bad
        lam *= 2.0

    w = 1.0 / hv
    w_sum = w.sum(axis=1)
    t = system.tcoef
    b_v = system.rhs_v
    t_bar = (w * t).sum(axis=1) / w_sum
    b_bar = (w * b_v).sum(axis=1) / w_sum
    t_c = t - t_bar[:, None]
    simplex_share = system.rhs_simplex / w_sum
    wt_c = w * t_c
    q = (wt_c * t_c).sum(axis=1)
    r = ((wt_c * b_v).sum(axis=1) + t_bar * system.rhs_simplex
         - system.rhs_deadline)
    denom = hm * q + 1.0
    dnu = (hm * r + system.rhs_m) / denom
    dm = (system.rhs_m * q - r) / denom
    dsig = b_bar - simplex_share - t_bar * dnu
    dv = w * (b_v - b_bar[:, None] - t_c * dnu[:, None] + simplex_share[:, None])
    return dv, dm, dnu, dsig, {"regularized": regularized}


def line_search(v, m, dv, dm, problem: GlobalProblem, omega, xi,
                margin: float = INTERIOR_MARGIN, c1: float = ARMIJO_C1):
    """Per-task backtracking from 1 with factor 0.5: the largest step that
    keeps every coordinate strictly inside the box, the slack positive,
    and achieves Armijo decrease of the smoothed objective.

    Armijo on the objective alone is valid only for a Newton step taken
    from a point that already meets the deadline and simplex rows: the
    step then stays on both rows and is a descent direction.  From a
    point off the deadline row the step may raise the objective to
    restore feasibility and backtracking stalls; `interior_init` provides
    a start on both rows.

    Tasks whose step collapses below the stall threshold get t = 0 and a
    raised flag; the caller reacts by advancing the barrier schedule.
    """
    n = v.shape[0]
    g0 = smoothed_objective(v, m, problem, omega, xi)
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
            g_try[idx] = smoothed_objective(v_try[idx], m_try[idx],
                                            _slice_problem(problem, idx), omega, xi)
            ok[idx] = g_try[idx] <= (g0[idx] + c1 * t[idx] * dirderiv[idx]
                                     + 1e-14 * (1.0 + np.abs(g0[idx])))
        accepted |= ok
        shrink = todo & ~ok
        t[shrink] *= 0.5
        newly_stalled = shrink & (t < STALL_T)
        stalled |= newly_stalled
        t[newly_stalled] = 0.0
    return t, stalled


def _slice_problem(problem: GlobalProblem, idx) -> GlobalProblem:
    return GlobalProblem(prox=problem.prox[idx], dual=problem.dual[idx],
                         tcoef=problem.tcoef[idx], t_max=problem.t_max[idx],
                         rho=problem.rho)


def interior_init(problem: GlobalProblem, warm_v: np.ndarray | None = None):
    """Strictly interior simplex point per task, nudged toward the fastest
    branch when needed so a positive deadline slack exists.

    The slack m = t_max - delay is floored at m_floor, the same margin the
    nudge aims for, so the start meets the deadline row exactly whenever
    the fastest branch can meet t_max - m_floor."""
    n, p = problem.n_tasks, problem.n_coords
    base = warm_v if warm_v is not None else problem.prox
    v = np.clip(base, 0.01, 0.99)
    v = v / v.sum(axis=1, keepdims=True)

    m_floor = np.maximum(1e-3 * problem.t_max, 10 * INTERIOR_MARGIN)
    delay = (problem.tcoef * v).sum(axis=1)
    need_fix = delay > problem.t_max - m_floor
    if need_fix.any():
        best = np.argmin(problem.tcoef, axis=1)
        corner = np.full((n, p), 1e-3)
        corner[np.arange(n), best] = 1.0 - 1e-3 * (p - 1)
        delay_best = (problem.tcoef * corner).sum(axis=1)
        denom = delay - delay_best
        lam = np.where(denom > 0,
                       (delay - (problem.t_max - m_floor)) / np.where(denom > 0, denom, 1.0),
                       1.0)
        lam = np.clip(lam, 0.0, 1.0)
        mix = (1.0 - lam[:, None]) * v + lam[:, None] * corner
        v = np.where(need_fix[:, None], mix, v)
        delay = (problem.tcoef * v).sum(axis=1)
    m = np.maximum(problem.t_max - delay, m_floor)
    return v, m


def solve_global(problem: GlobalProblem, warm_v: np.ndarray | None = None,
                 tol: float = 1e-6, max_inner: int = 25):
    """Outer barrier/penalty schedule with damped Newton inner iterations.

    Returns (v, m, info); v stays strictly interior, the simplex equality
    holds to roundoff throughout, and tasks that exhaust the schedule above
    tolerance are flagged rather than fatal.
    """
    v, m = interior_init(problem, warm_v)
    omega = OMEGA_INIT
    xi = min(XI_INIT, XI_CONVEXITY_FRACTION * problem.rho)
    grad_v, grad_m = grad_smoothed(v, m, problem, omega, xi)
    nu = -grad_m
    sig = -(grad_v + problem.tcoef * nu[:, None]).mean(axis=1)
    total_newton = 0
    stalled_any = np.zeros(problem.n_tasks, dtype=bool)
    while True:
        best = None
        for _ in range(max_inner):
            res = kkt_residual(v, m, nu, sig, problem, omega, xi)
            norm = scaled_kkt_norm(res, problem)
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
            active = norm > tol
            if not active.any():
                break
            system = assemble_newton(v, m, res, problem, omega, xi)
            dv, dm, dnu, dsig, _ = nullspace_cg_solve(system)
            dv[~active] = 0.0
            dm[~active] = 0.0
            dnu[~active] = 0.0
            dsig[~active] = 0.0
            t, stalled = line_search(v, m, dv, dm, problem, omega, xi)
            stalled_any |= stalled
            v = v + t[:, None] * dv
            m = m + t * dm
            nu = nu + t * dnu
            sig = sig + t * dsig
            total_newton += 1
            if (t[active] == 0).all():
                break
        v, m, nu, sig = best[1], best[2], best[3], best[4]
        if omega <= OMEGA_FLOOR:
            break
        omega = max(omega * OMEGA_DECAY, OMEGA_FLOOR)
        xi = min(xi * XI_GROWTH, XI_CONVEXITY_FRACTION * problem.rho)

    final_norm = scaled_kkt_norm(
        kkt_residual(v, m, nu, sig, problem, omega, xi), problem)
    info = {"converged": final_norm <= tol, "kkt_norm": final_norm,
            "newton_iterations": total_newton, "stalled": stalled_any,
            "omega": omega, "xi": xi}
    return v, m, info
