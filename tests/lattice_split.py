"""Lattice split search: the independent reference for `costs.best_splits`.

A brute-force optimizer for one branch split: a sweep of the simplex
lattice, one local refinement around the winner, plus the stationary and
deadline-binding candidates written out by hand.  It shares nothing with
the analytic pricer but `CostTables.split_price`, so tests can check the
pricer's optimum and feasibility against it.
"""

import numpy as np

RESOLUTION = 100

# fractions (c0/c, c1/c) of the simplex lattice at RESOLUTION
_ks = np.arange(RESOLUTION + 1)
_g0, _g1 = np.meshgrid(_ks, _ks, indexing="ij")
_inside = (_g0 + _g1) <= RESOLUTION
LATTICE = (_g0[_inside] / RESOLUTION, _g1[_inside] / RESOLUTION)


def split_cost(tables, i, j, c0, c1, r):
    """Delay and weighted cost of task j's split branch on SBS i at
    reciprocal share r, for scalar or array parts (c0, c1); the SBS runs
    the rest."""
    delay, energy = tables.split_price(c0, c1, tables.c[j] - c0 - c1, r, i, j)
    return delay, tables.alpha * delay + (1.0 - tables.alpha) * energy


def _deadline_boundary_c1(tables, i, j, c0, r, t_max):
    """Forwarded parts where the branch delay meets the deadline exactly,
    solving the quadratic wired term along fixed c0."""
    c = tables.c[j]
    a2 = tables.w2[i, j]
    b = tables.w1[i, j] + tables.d_mbs_exec[j] - tables.u_over_fs[i, j] * r
    const = (tables.d_c0[j] * c0 + (c - c0) / tables.rate[i, j]
             + tables.w0[i, j] + tables.u_over_fs[i, j] * r * (c - c0) - t_max)
    out = []
    if a2 > 0:
        disc = b * b - 4.0 * a2 * const
        if disc >= 0:
            root = np.sqrt(disc)
            out.extend([(-b - root) / (2 * a2), (-b + root) / (2 * a2)])
    elif b != 0:
        out.append(-const / b)
    return [c1 for c1 in out if 0.0 <= c1 <= c - c0]


def lattice_split(tables, i, j, h):
    """Cheapest deadline-feasible split (c0, c1, cost) of task j on SBS i
    at share h, or None: lattice sweep, one local refinement, plus
    stationary and deadline-boundary candidates."""
    c = tables.c[j]
    r = 1.0 / h
    t_max = tables.t_max[j]
    c0s, c1s = LATTICE[0] * c, LATTICE[1] * c
    delay, cost = split_cost(tables, i, j, c0s, c1s, r)
    feas = delay <= t_max
    best = None
    if feas.any():
        k = int(np.argmin(np.where(feas, cost, np.inf)))
        best = (float(c0s[k]), float(c1s[k]), float(cost[k]))
        # refine around the winning cell at a tenth of the step
        step = c / RESOLUTION
        lo0 = max(0.0, best[0] - 1.5 * step)
        lo1 = max(0.0, best[1] - 1.5 * step)
        f0 = np.linspace(lo0, min(c, best[0] + 1.5 * step), 31)
        f1 = np.linspace(lo1, min(c, best[1] + 1.5 * step), 31)
        m0, m1 = np.meshgrid(f0, f1, indexing="ij")
        keep = (m0 + m1) <= c
        c0r, c1r = m0[keep], m1[keep]
        delay, cost = split_cost(tables, i, j, c0r, c1r, r)
        feas = delay <= t_max
        if feas.any():
            k = int(np.argmin(np.where(feas, cost, np.inf)))
            if cost[k] < best[2]:
                best = (float(c0r[k]), float(c1r[k]), float(cost[k]))

    # analytic candidates: the split cost is linear in c0 and convex
    # quadratic in c1, so the constrained optimum lies among corners,
    # stationary forwarded parts, and deadline-binding points
    cands = []
    a = tables.alpha
    w2, w1 = tables.w2[i, j], tables.w1[i, j]
    urf = tables.u_over_fs[i, j] * r
    q = tables.d_c0[j] - 1.0 / tables.rate[i, j] - urf
    d1 = w1 + tables.d_mbs_exec[j] - urf
    d0 = c / tables.rate[i, j] + tables.w0[i, j] + urf * c
    k_c0 = a * q + (1.0 - a) * (tables.e_c0[j] - tables.e_up[i, j]
                                - tables.e_sbs[i, j])
    k_c1 = a * d1 + (1.0 - a) * (tables.transfer_coef[i, j]
                                 + tables.e_mbs_exec[j] - tables.e_sbs[i, j])
    c1_list = [0.0, c, best[1] if best else 0.0]
    if w2 > 0:
        if a > 0:
            c1_list.append(-k_c1 / (2.0 * a * w2))
            c1_list.append((k_c0 - k_c1) / (2.0 * a * w2))
        if q != 0 and w2 * (a - k_c0 / q) > 0:
            c1_list.append(-(k_c1 - k_c0 * d1 / q) / (2.0 * w2 * (a - k_c0 / q)))
    for c0_cand in (0.0, 0.5 * c, c, best[0] if best else 0.0):
        c1_list.extend(_deadline_boundary_c1(tables, i, j, c0_cand, r, t_max))
    for c1_cand in c1_list:
        if not np.isfinite(c1_cand) or not (0.0 <= c1_cand <= c):
            continue
        cands.append((0.0, c1_cand))
        cands.append((c - c1_cand, c1_cand))
        if q != 0:
            c0b = (t_max - d0 - d1 * c1_cand - w2 * c1_cand * c1_cand) / q
            cands.append((float(np.clip(c0b, 0.0, c - c1_cand)), c1_cand))
    if q != 0:
        cands.append((float(np.clip((t_max - c / tables.rate[i, j] - urf * c) / q,
                                    0.0, c)), 0.0))
    if cands:
        c0a = np.array([p[0] for p in cands])
        c1a = np.array([p[1] for p in cands])
        keep = (c0a >= 0) & (c1a >= 0) & (c0a + c1a <= c * (1.0 + 1e-12))
        c0a, c1a = c0a[keep], np.minimum(c1a[keep], c - c0a[keep])
        delay, cost = split_cost(tables, i, j, c0a, c1a, r)
        feas = delay <= t_max * (1.0 + 1e-12)
        if feas.any():
            k = int(np.argmin(np.where(feas, cost, np.inf)))
            if best is None or cost[k] < best[2]:
                best = (float(c0a[k]), float(c1a[k]), float(cost[k]))
    return best
