"""Global consensus update: interior-point solve of the coupled block.

Per task, the global assignment vector must sit on the unit simplex and meet
the deadline written as an equality through a positive slack.  Binary
requirements are smoothed by a log barrier plus a concave corner penalty;
the resulting equality-constrained problem is solved by Newton steps.
The Hessian is diagonal, so each Newton system is solved exactly in
closed form by block elimination down to one 2x2 system in the deadline
and simplex multipliers.  Tasks are independent and solved together on
coordinate-major (n_coords, n_tasks) arrays, so a per-task reduction adds
or compares a few contiguous rows, one per coordinate.

The barrier runs at one weight, OMEGA.  Each task starts at the
barrier's equilibrium around the block's exact omega -> 0 limit, the
Euclidean projection onto the simplex cut by the deadline (`exact_limit`),
so the Newton steps only certify the start or close what is left of the
barrier's offset (a warm start in the sense of Yildirim & Wright, SIAM J.
Optim. 12, 2002).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the line search keeps every coordinate and slack more than INTERIOR_MARGIN
# inside its bounds: below the equilibria OMEGA / g of very slow tight
# branches (about 1e-10), and above 0, where OMEGA / v^2 divides by zero
INTERIOR_MARGIN = 1e-12
ARMIJO_C1 = 1e-4
STALL_T = 1e-12
MAX_INNER = 25
KKT_TOL = 1e-6
# rounding puts a task's computed reach at most 2^-51 relative above its
# exact value, and the line search's `inside` test never passes a trial
# that is outside in exact arithmetic; shrinking the reach by more than
# that keeps the ratio-test start at or above the first trial `inside`
# passes, so a tie at a power of two costs one more halving, never a
# smaller step
_REACH_SHRINK = 1.0 - 2.0 ** -49

# the barrier weight of the solve
OMEGA = 1e-6
# the start's corner on the fastest branch puts at most CORNER_WEIGHT on
# each slower coordinate and at least CORNER_WEIGHT_FLOOR, which also
# floors every start coordinate and slack, well inside the margin
CORNER_WEIGHT = 1e-3
CORNER_WEIGHT_FLOOR = 1e-8
# the corner weight is min(XI_MAX, XI_CONVEXITY_FRACTION * rho): the
# corner penalty subtracts 2*xi from the prox curvature rho; past rho/2 the
# smoothed problem turns concave and every solve collapses to an arbitrary
# corner, and already near it the solve amplifies prox noise by
# 1/(rho - 2 xi) enough to derail the branch race, so the weight stays well
# below the concavity threshold
XI_MAX = 0.4
XI_CONVEXITY_FRACTION = 0.2


@dataclass
class GlobalProblem:
    """Per-task data: prox centers (the fresh local copies), duals, the
    branch delay coefficients of the deadline row, and deadlines.

    `prox`, `dual` and `tcoef` are (n_coords, n_tasks), with rows in the
    order: the SBS assignments, then the macro-station bit, then the local
    bit; the slack rides separately.
    """

    prox: np.ndarray
    dual: np.ndarray
    tcoef: np.ndarray
    t_max: np.ndarray
    rho: float

    @property
    def n_tasks(self) -> int:
        return self.prox.shape[1]

    @property
    def n_coords(self) -> int:
        return self.prox.shape[0]


def smoothed_objective(v: np.ndarray, m: np.ndarray, problem: GlobalProblem,
                       omega: float, xi: float) -> np.ndarray:
    """Per-task prox-plus-dual value with the log barrier over every box
    variable and the slack, and the concave corner penalty.

    Requires a strictly interior point; the caller's line search must keep
    iterates away from the boundary.
    """
    if np.any(v <= 0) or np.any(v >= 1) or np.any(m <= 0):
        raise ValueError("smoothed objective requires a strictly interior point")
    return _smoothed_objective(v, m, problem, omega, xi)


def _smoothed_objective(v, m, problem: GlobalProblem, omega, xi):
    """`smoothed_objective` without its interiority checks, for callers
    that have just checked the point against the interior margin."""
    gap = problem.prox - v
    prox_part = (problem.dual * gap + 0.5 * problem.rho * gap * gap).sum(axis=0)
    barrier = -(omega * (np.log(v) + np.log1p(-v)).sum(axis=0) + omega * np.log(m))
    penalty = xi * (v * (1.0 - v)).sum(axis=0)
    return prox_part + barrier + penalty


def grad_smoothed(v, m, problem: GlobalProblem, omega, xi):
    """Gradient (grad_v, grad_m) of `smoothed_objective` at (v, m)."""
    grad_v = (-problem.dual - problem.rho * (problem.prox - v)
              - omega * (1.0 / v - 1.0 / (1.0 - v)) + xi * (1.0 - 2.0 * v))
    grad_m = -omega / m
    return grad_v, grad_m


def hess_diag_smoothed(v, m, problem: GlobalProblem, omega, xi):
    """The Hessian of `smoothed_objective` at (v, m), a diagonal."""
    inv, inv_c = 1.0 / v, 1.0 / (1.0 - v)
    hess_v = problem.rho + omega * (inv * inv + inv_c * inv_c) - 2.0 * xi
    hess_m = omega / (m * m)
    return hess_v, hess_m


def kkt_residual(v, m, nu, sig, grad, problem: GlobalProblem):
    """First-order conditions per task as the row groups (stat_v, stat_m,
    deadline, simplex): stationarity of the box coordinates and the slack,
    then deadline and simplex feasibility.  `grad` is the pair
    `grad_smoothed` returns at (v, m).  Zero exactly at a KKT point."""
    grad_v, grad_m = grad
    stat_v = grad_v + problem.tcoef * nu + sig
    stat_m = grad_m + nu
    deadline = (problem.tcoef * v).sum(axis=0) + m - problem.t_max
    simplex = v.sum(axis=0) - 1.0
    return stat_v, stat_m, deadline, simplex


def scaled_kkt_norm(res, problem: GlobalProblem) -> np.ndarray:
    """Per-task stopping measure mixing the differently scaled row groups
    of `kkt_residual`."""
    stat_v, stat_m, deadline, simplex = res
    stat = np.maximum(np.abs(stat_v).max(axis=0), np.abs(stat_m)) / (1.0 + problem.rho)
    dead = np.abs(deadline) / (1.0 + problem.t_max)
    return np.maximum(np.maximum(stat, dead), np.abs(simplex))


def nullspace_cg_solve(hess_v, hess_m, tcoef, res):
    """Solve the per-task Newton systems exactly by block elimination.

    `hess_v` and `hess_m` are the diagonal curvatures of the box
    coordinates and the slack, `tcoef` is the deadline row, and `res` is
    the 4-tuple `kkt_residual` returns; the right-hand side is its
    negation (b_v, b_m, b_deadline, b_simplex).  Per task the system is

        diag(hv) dv + t dnu + 1 dsig = b_v      hm dm + dnu = b_m
        t.dv + dm = b_deadline                  1.dv = b_simplex

    With W = diag(hv)^-1 the first row gives dv = W (b_v - t dnu - 1 dsig)
    and the second dm = (b_m - dnu) / hm.  The deadline and simplex rows
    then leave a 2x2 SPD system in (dnu, dsig) with entries t'Wt + 1/hm,
    t'W1 and 1'W1 (Boyd & Vandenberghe, Convex Optimization, sec. 10.4.2).
    Its Cramer determinant t'Wt 1'W1 - (t'W1)^2 + 1'W1/hm equals
    1'W1 (q + 1/hm) with q = t_c'W t_c and t_c = t - t_bar, t centered at
    its W-weighted mean; formed directly it cancels and loses up to 2e-7
    relative at the curvatures the barrier reaches (hv up to
    1e12, hm from 1e-9 to 1e9), so the solve uses the centered form, a sum
    of nonnegative terms.  Scaling both multipliers and dm through by hm
    leaves no division by hm.  The work is O(p) per task, all tasks at once.

    Every curvature must be positive; the solve does not check it.  Inside
    `solve_global` it holds: there xi <= XI_CONVEXITY_FRACTION * rho, so
    every box curvature is at least (1 - 2 XI_CONVEXITY_FRACTION) rho > 0,
    and the slack curvature omega / m^2 is positive at every interior
    point.

    The name is kept from the null-space conjugate-gradient solver this
    replaced, because the benchmark's span tracer wraps the function by
    that name and counts `info["regularized"]`; that key, once the flags
    of a curvature repair, is kept for the tracer as an all-False array.

    Returns (dv, dm, dnu, dsig, info).
    """
    stat_v, stat_m, deadline, simplex = res
    b_v, b_m, b_simplex = -stat_v, -stat_m, -simplex
    w = 1.0 / hess_v
    w_sum = w.sum(axis=0)
    t_bar = (w * tcoef).sum(axis=0) / w_sum
    b_bar = (w * b_v).sum(axis=0) / w_sum
    t_c = tcoef - t_bar
    simplex_share = b_simplex / w_sum
    wt_c = w * t_c
    q = (wt_c * t_c).sum(axis=0)
    r = (wt_c * b_v).sum(axis=0) + t_bar * b_simplex + deadline
    denom = hess_m * q + 1.0
    dnu = (hess_m * r + b_m) / denom
    dm = (b_m * q - r) / denom
    dsig = b_bar - simplex_share - t_bar * dnu
    dv = w * (b_v - b_bar - t_c * dnu + simplex_share)
    return dv, dm, dnu, dsig, {"regularized": np.zeros(hess_v.shape[1], dtype=bool)}


def line_search(v, m, dv, dm, f, grad, problem: GlobalProblem, omega, xi):
    """Per-task backtracking with factor 0.5 from the ratio-test start:
    the largest power-of-two step that keeps every coordinate strictly
    inside the box, the slack positive, and achieves Armijo decrease of
    the smoothed objective.  `f` and `grad` are the objective and its
    gradient at (v, m).

    Each task's `reach` is the largest ratio of a step component to its
    distance from INTERIOR_MARGIN, so a trial at t stays strictly
    inside exactly when t * reach < 1 (the fraction-to-boundary rule;
    Nocedal & Wright, Numerical Optimization, sec. 19.2).  The search
    starts at the largest power of two up to 1 strictly below 1 / reach,
    with reach shrunk by `_REACH_SHRINK` to cover its rounding: that is
    where halving from 1 first enters the box, or one power of two above
    it at a rounding tie.  The `inside` test confirms the start and
    halves again where it disagrees, so the accepted steps are the powers
    of two that halving from 1 accepts, and a task whose start is below
    the stall threshold stalls without being priced.

    Armijo on the objective alone is valid only for a Newton step taken
    from a point that already meets the deadline and simplex rows: the
    step then stays on both rows and is a descent direction.  From a
    point off the deadline row the step may raise the objective to
    restore feasibility and backtracking stalls; `interior_init` provides
    a start on both rows.

    Tasks whose step collapses below the stall threshold get t = 0 and a
    raised flag; the caller freezes them for the rest of the solve.
    Returns (t, stalled, f_new) with f_new the objective at the accepted
    point: the accepted trial value, or `f` where the task did not move.
    """
    grad_v, grad_m = grad
    dirderiv = (grad_v * dv).sum(axis=0) + grad_m * dm
    roundoff = 1e-14 * (1.0 + np.abs(f))

    # iterates are strictly inside the margin, so no distance is zero
    reach = np.maximum(
        np.maximum((dv / ((1.0 - INTERIOR_MARGIN) - v)).max(axis=0),
                   (dv / (INTERIOR_MARGIN - v)).max(axis=0)),
        dm / (INTERIOR_MARGIN - m))
    _, e = np.frexp(reach * _REACH_SHRINK)
    t = np.ldexp(1.0, -np.maximum(e, 0))
    f_new = f.copy()
    stalled = t < STALL_T
    t[stalled] = 0.0
    accepted = ~((np.abs(dv).max(axis=0) + np.abs(dm)) > 0)
    while not (accepted | stalled).all():
        todo = ~(accepted | stalled)
        v_try = v + t * dv
        m_try = m + t * dm
        inside = ((v_try > INTERIOR_MARGIN).all(axis=0) & (m_try > INTERIOR_MARGIN)
                  & (v_try < 1.0 - INTERIOR_MARGIN).all(axis=0))
        ok = todo & inside
        if ok.any():
            # tasks outside the trial set are priced at their current,
            # strictly interior point; each task's value is its own sum
            f_try = _smoothed_objective(np.where(ok, v_try, v),
                                        np.where(ok, m_try, m), problem, omega, xi)
            ok &= f_try <= f + ARMIJO_C1 * t * dirderiv + roundoff
            f_new[ok] = f_try[ok]
        accepted |= ok
        shrink = todo & ~ok
        t[shrink] *= 0.5
        newly_stalled = shrink & (t < STALL_T)
        stalled |= newly_stalled
        t[newly_stalled] = 0.0
    return t, stalled, f_new


def interior_init(problem: GlobalProblem, base: np.ndarray | None = None,
                  m_floor: np.ndarray | float = np.inf):
    """Strictly interior simplex point per task, on the deadline row
    whenever the fastest branch can meet the deadline.

    `base`, or the prox centers, is clipped into [CORNER_WEIGHT_FLOOR,
    1 - CORNER_WEIGHT_FLOOR] and renormalised.  The slack m = t_max - delay
    is floored at min(`m_floor`, 1e-3 t_max) per task, never below
    CORNER_WEIGHT_FLOOR (`solve_global` passes the slack's barrier
    equilibrium where the deadline binds); a start whose delay leaves less
    than m_floor is mixed toward a corner on the fastest branch just far
    enough to meet t_max - m_floor.  The corner puts on each slower
    coordinate k the weight min(CORNER_WEIGHT, room / (2 (p - 1) (t_k -
    t_best))), floored at CORNER_WEIGHT_FLOOR, with room = t_max - m_floor
    - t_best, so its delay is at most t_best + room / 2 and the mix lands
    on the deadline row.  A task with room < 0, every task whose fastest
    branch misses the deadline among them, starts off the row at the
    corner itself, whatever its base: no mix meets t_max - m_floor, so the
    mix weight clips to 1."""
    p, n = problem.n_coords, problem.n_tasks
    base = problem.prox if base is None else base
    v = np.clip(base, CORNER_WEIGHT_FLOOR, 1.0 - CORNER_WEIGHT_FLOOR)
    v = v / v.sum(axis=0)

    m_floor = np.maximum(np.fmin(m_floor, 1e-3 * problem.t_max), CORNER_WEIGHT_FLOOR)
    delay = (problem.tcoef * v).sum(axis=0)
    need_fix = delay > problem.t_max - m_floor
    if need_fix.any():
        cols = np.arange(n)
        best = np.argmin(problem.tcoef, axis=0)
        t_best = problem.tcoef[best, cols]
        room = problem.t_max - m_floor - t_best
        excess = (p - 1) * (problem.tcoef - t_best)
        slower = excess > 0
        corner = np.where(slower, 0.5 * room / np.where(slower, excess, 1.0),
                          CORNER_WEIGHT)
        corner = np.maximum(np.minimum(corner, CORNER_WEIGHT), CORNER_WEIGHT_FLOOR)
        corner[best, cols] = 0.0
        corner[best, cols] = 1.0 - corner.sum(axis=0)
        delay_best = (problem.tcoef * corner).sum(axis=0)
        denom = delay - delay_best
        lam = np.where(denom > 0,
                       (delay - (problem.t_max - m_floor)) / np.where(denom > 0, denom, 1.0),
                       1.0)
        lam = np.clip(lam, 0.0, 1.0)
        mix = (1.0 - lam) * v + lam * corner
        v = np.where(need_fix, mix, v)
        delay = (problem.tcoef * v).sum(axis=0)
    m = np.maximum(problem.t_max - delay, m_floor)
    return v, m


def _simplex_projection(u):
    """Euclidean projection of each column of u onto the unit simplex, by
    sorting (Held, Wolfe & Crowder 1974; Condat, Math. Programming 158,
    2016).  Returns the projection max(u - theta, 0) and the threshold
    theta per column."""
    p = u.shape[0]
    desc = -np.sort(-u, axis=0)
    cum = np.cumsum(desc, axis=0) - 1.0
    # the condition holds on a prefix of the sorted coordinates, whose
    # length is the support size
    size = (desc * np.arange(1, p + 1)[:, None] > cum).sum(axis=0)
    theta = cum[size - 1, np.arange(u.shape[1])] / size
    return np.maximum(u - theta, 0.0), theta


def exact_limit(problem: GlobalProblem, xi: float):
    """The block's exact omega -> 0 limit at corner weight xi.

    Without the barrier each task minimises (rho/2 - xi)|v|^2 -
    v.(dual + rho prox - xi) over the simplex cut by t.v <= t_max, which is
    the Euclidean projection of c = (dual + rho prox - xi) / (rho - 2 xi)
    onto that set; xi <= XI_CONVEXITY_FRACTION * rho keeps it strongly
    convex.  The projection is v(lam) = proj_simplex(c - lam t) with the
    deadline multiplier lam >= 0: lam = 0 where the simplex projection
    meets the deadline, and otherwise the root of the nonincreasing,
    piecewise-linear t.v(lam) = t_max.  The root is found by Newton steps,
    each exact on the piece it starts from, inside a bracket that falls
    back to bisection.  A column stops at 1e-12 relative in the delay or,
    where one float of lam moves a steep column's delay by more, at the
    feasible end of a bracket with no float inside.  A pass steps strictly
    inside each open bracket (Newton or midpoint), so it needs no pass cap.

    Returns (v, reduced, lam): with theta the simplex threshold of v(lam),
    `reduced` is max((rho - 2 xi)(theta + lam t - c), 0), the multiplier of
    each coordinate's bound v >= 0, zero on the support of v; the
    deadline row's multiplier is (rho - 2 xi) lam.  Columns whose fastest
    branch misses the deadline have no feasible point and are NaN in all
    three.
    """
    a = problem.rho - 2.0 * xi
    c = (problem.dual + problem.rho * problem.prox - xi) / a
    t, t_max = problem.tcoef, problem.t_max
    v, theta = _simplex_projection(c)
    lam = np.zeros(problem.n_tasks)
    feasible = t.min(axis=0) <= t_max
    search = np.flatnonzero(feasible & ((t * v).sum(axis=0) > t_max))
    if search.size:
        cs, ts, tm = c[:, search], t[:, search], t_max[search]
        cols = np.arange(search.size)
        # past `hi` every coordinate sits at least 1 below the fastest one
        # in c - lam t, so the projection is the fastest vertex
        best = ts.argmin(axis=0)
        gap = ts - ts[best, cols]
        hi = np.where(gap > 0, (1.0 + cs - cs[best, cols]) / np.where(gap > 0, gap, 1.0),
                      0.0).max(axis=0)
        lo = np.zeros(search.size)
        lam_s = lo.copy()
        # the search starts at lam = 0, whose projection is already in v
        vs = v[:, search]
        while True:
            f = (ts * vs).sum(axis=0)
            met = np.abs(f - tm) <= 1e-12 * tm
            over = f > tm
            lo = np.where(over, lam_s, lo)
            hi = np.where(over, hi, lam_s)
            done = met | (np.nextafter(lo, hi) >= hi)
            if done.all():
                break
            # on the piece of the current support, t.v falls with slope
            # -sum over the support of (t - mean t)^2
            on = vs > 0
            t_mean = (ts * on).sum(axis=0) / on.sum(axis=0)
            slope = (np.where(on, ts - t_mean, 0.0) ** 2).sum(axis=0)
            step = lam_s + (f - tm) / np.where(slope > 0, slope, 1.0)
            newton = (slope > 0) & (step > lo) & (step < hi)
            lam_s = np.where(done, lam_s, np.where(newton, step, 0.5 * (lo + hi)))
            vs, _ = _simplex_projection(cs - lam_s * ts)
        lam_s = np.where(met, lam_s, hi)
        lam[search] = lam_s
        v[:, search], theta[search] = _simplex_projection(cs - lam_s * ts)
    # v is max(u - theta, 0) with the same u, so reduced is 0 wherever v > 0
    reduced = a * np.maximum(theta - (c - lam * t), 0.0)
    v[:, ~feasible] = np.nan
    reduced[:, ~feasible] = np.nan
    lam[~feasible] = np.nan
    return v, reduced, lam


def solve_global(problem: GlobalProblem):
    """Damped Newton steps on the smoothed problem at barrier weight OMEGA
    and corner weight xi = min(XI_MAX, XI_CONVEXITY_FRACTION * rho), from
    the barrier's equilibrium around the exact limit.

    The start is `exact_limit` at xi, with each coordinate the limit puts
    at 0 lifted to its barrier equilibrium OMEGA / (g - delta) at its
    reduced cost g, clipped to [CORNER_WEIGHT_FLOOR, CORNER_WEIGHT], and
    renormalised.  delta is 0 unless the limit is a vertex, where it is the
    shift the vertex coordinate's upper barrier puts on every reduced cost.
    Where the deadline binds, with multiplier nu = (rho - 2 xi) lam > 0,
    the slack floor is the slack's own equilibrium OMEGA / nu, capped at
    1e-3 t_max.  The start goes through `interior_init`; a task whose
    fastest branch misses the deadline has no limit, and `interior_init`
    starts it at its fastest-branch corner.
    Up to MAX_INNER Newton steps follow, none for a task whose start meets
    KKT_TOL, and the point after each step is checked against KKT_TOL, the
    last one included.
    A task whose line search stalls sits out the rest of the solve: its
    point does not move, so a retry would take the same step and stall
    again.

    Returns (v, m, info): the iterate with the smallest KKT norm each task
    reached.  v stays strictly interior, the simplex equality holds to
    roundoff throughout, and tasks that end above tolerance are flagged
    in `info["converged"]` rather than fatal.
    """
    xi = min(XI_MAX, XI_CONVEXITY_FRACTION * problem.rho)
    limit, reduced, lam = exact_limit(problem, xi)
    # on a vertex limit the lifted coordinates sum to eps, whose upper
    # barrier term OMEGA / eps shifts every reduced cost g by delta =
    # OMEGA / eps; with each lift at OMEGA / (g - delta) that makes delta
    # the root in (0, min g) of phi(delta) = sum delta / (g - delta) - 1,
    # increasing and convex there, so Newton falls to the root from
    # min(1 / sum 1 / g, min g / 2), which is at or above it
    g = np.where(limit == 0.0, reduced, np.inf)
    g_min = g.min(axis=0)
    vertex = ((limit > 0).sum(axis=0) == 1) & (g_min > 0)
    delta = np.zeros(problem.n_tasks)
    if vertex.any():
        g = g[:, vertex]
        d = np.minimum(1.0 / (1.0 / g).sum(axis=0), 0.5 * g_min[vertex])
        for _ in range(3):
            r = 1.0 / (g - d)
            r_sum = r.sum(axis=0)
            d = d - (d * r_sum - 1.0) / (r_sum + d * (r * r).sum(axis=0))
        delta[vertex] = d
    with np.errstate(divide="ignore"):
        lift = OMEGA / (reduced - delta)
        slack = OMEGA / ((problem.rho - 2.0 * xi) * lam)
    start = np.where(limit > 0, limit, np.clip(lift, CORNER_WEIGHT_FLOOR, CORNER_WEIGHT))
    start /= start.sum(axis=0)
    v, m = interior_init(problem, np.where(np.isnan(start), problem.prox, start), slack)
    grad = grad_smoothed(v, m, problem, OMEGA, xi)
    nu = -grad[1]
    sig = -(grad[0] + problem.tcoef * nu).mean(axis=0)
    stalled_any = np.zeros(problem.n_tasks, dtype=bool)
    # the objective is formed when the first line search needs it
    f = None
    best = [np.full(problem.n_tasks, np.inf), v.copy(), m.copy()]
    steps = 0
    while True:
        res = kkt_residual(v, m, nu, sig, grad, problem)
        norm = scaled_kkt_norm(res, problem)
        better = norm < best[0]
        for kept, now in zip(best, (norm, v, m)):
            np.copyto(kept, now, where=better)
        active = (norm > KKT_TOL) & ~stalled_any
        if steps == MAX_INNER or not active.any():
            break
        hess_v, hess_m = hess_diag_smoothed(v, m, problem, OMEGA, xi)
        dv, dm, dnu, dsig, _ = nullspace_cg_solve(hess_v, hess_m,
                                                  problem.tcoef, res)
        idle = ~active
        dv[:, idle] = 0.0
        dm[idle] = 0.0
        dnu[idle] = 0.0
        dsig[idle] = 0.0
        if f is None:
            f = smoothed_objective(v, m, problem, OMEGA, xi)
        t, stalled, f = line_search(v, m, dv, dm, f, grad, problem, OMEGA, xi)
        stalled_any |= stalled
        v = v + t * dv
        m = m + t * dm
        nu = nu + t * dnu
        sig = sig + t * dsig
        steps += 1
        grad = grad_smoothed(v, m, problem, OMEGA, xi)
    # the best norms are the KKT norms of the point returned
    final_norm, v, m = best
    info = {"converged": final_norm <= KKT_TOL, "kkt_norm": final_norm,
            "newton_iterations": steps, "stalled": stalled_any}
    return v, m, info
