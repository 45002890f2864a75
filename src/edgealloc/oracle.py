"""Exhaustive reference solver for desk-scale instances.

Enumerates every hard branch assignment, optimizes the continuous splits
per branch by lattice search with analytic boundary candidates, resolves
shared-station resource fractions, and reports the true optimum of the
weighted objective.  Deliberately search-independent from the consensus
solver so the two can cross-check each other; both price splits through
`CostTables.split_delay_cost` and pin share floors the same way.

Within one `enumerate_optimum` call each distinct split search runs once:
tuples that differ only in which tasks run locally or on the macro station
leave the SBS tables unchanged and ask for the same searches again, so the
results are kept in a memo that lives for the call and no longer.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import costs
from .admm import _floored_proportions
from .costs import Placement, UtilityWeights
from .errors import InstanceTooLargeError
from .scenario import Scenario

MAX_TASKS = 6
MAX_STATIONS = 4


@dataclass
class OracleResult:
    placement: Placement | None
    utility: float
    branch_table: list
    n_enumerated: int
    feasible: bool

    def to_dict(self) -> dict:
        doc = {"utility": self.utility, "branch_table": self.branch_table,
               "n_enumerated": self.n_enumerated, "feasible": self.feasible}
        if self.placement is not None:
            doc["placement"] = self.placement.to_dict()
        return doc

    def to_json(self, path=None) -> str:
        doc = json.dumps(self.to_dict(), indent=1)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(doc)
        return doc


@functools.lru_cache(maxsize=8)
def _split_lattice(resolution: int):
    """Fractions (c0/c, c1/c) of the simplex lattice at the given
    resolution, read-only because every caller shares them."""
    ks = np.arange(resolution + 1)
    g0, g1 = np.meshgrid(ks, ks, indexing="ij")
    mask = (g0 + g1) <= resolution
    lattice = (g0[mask] / resolution, g1[mask] / resolution)
    for part in lattice:
        part.setflags(write=False)
    return lattice


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


def _best_split(tables, i, j, h, resolution, t_max):
    """Cheapest deadline-feasible split of task j on SBS i at share h:
    lattice sweep, one local refinement, plus stationary and
    deadline-boundary candidates."""
    c = tables.c[j]
    r = 1.0 / h
    g0, g1 = _split_lattice(resolution)
    c0s, c1s = g0 * c, g1 * c
    delay, cost = tables.split_delay_cost(i, j, c0s, c1s, r)
    feas = delay <= t_max
    best = None
    if feas.any():
        k = int(np.argmin(np.where(feas, cost, np.inf)))
        best = (float(c0s[k]), float(c1s[k]), float(cost[k]))
        # refine around the winning cell at a tenth of the step
        step = c / resolution
        lo0 = max(0.0, best[0] - 1.5 * step)
        lo1 = max(0.0, best[1] - 1.5 * step)
        f0 = np.linspace(lo0, min(c, best[0] + 1.5 * step), 31)
        f1 = np.linspace(lo1, min(c, best[1] + 1.5 * step), 31)
        m0, m1 = np.meshgrid(f0, f1, indexing="ij")
        keep = (m0 + m1) <= c
        c0r, c1r = m0[keep], m1[keep]
        delay, cost = tables.split_delay_cost(i, j, c0r, c1r, r)
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
        delay, cost = tables.split_delay_cost(i, j, c0a, c1a, r)
        feas = delay <= t_max * (1.0 + 1e-12)
        if feas.any():
            k = int(np.argmin(np.where(feas, cost, np.inf)))
            if best is None or cost[k] < best[2]:
                best = (float(c0a[k]), float(c1a[k]), float(cost[k]))
    return best


def _share_allocation(tables, members, i, h_min, split_search):
    """Resource fractions for the tasks sharing one SBS.  A lone task is
    priced once at the whole station, h = 1: the share only scales the
    SBS execution term u/f·(1/h)·ci, so both the cost and the delay of any
    split are nonincreasing in h, and a split that meets the deadline at
    some share meets it at h = 1 at no greater cost; the caller's split
    search then decides feasibility.  Co-hosted tasks get a
    square-root-weighted proportional allocation refined once, with
    `split_search(tables, i, j, h)` pricing each member's split."""
    if len(members) == 1:
        return {members[0]: 1.0}

    shares = {j: min(1.0, 1.0 / len(members)) for j in members}
    if min(shares.values()) < h_min:
        return None
    for _ in range(2):
        weights = {}
        for j in members:
            split = split_search(tables, i, j, shares[j])
            if split is None:
                return None
            ci = tables.c[j] - split[0] - split[1]
            weights[j] = max(tables.alpha * tables.u_over_fs[i, j] * ci, 1e-30)
        shares = _floored_proportions(
            {j: float(np.sqrt(w)) for j, w in weights.items()}, h_min)
    return shares


def enumerate_optimum(scenario: Scenario, weights: UtilityWeights,
                      grid_resolution: int = 100) -> OracleResult:
    """Global minimum over every feasible hard assignment.

    Branch tuples are enumerated exhaustively; within a tuple the relay
    congestion is made self-consistent by two sweeps over the tasks, and
    the reported utility is re-evaluated through the placement pricer so
    that solver and oracle are compared on identical terms.
    """
    s, n = scenario.n_sbs, scenario.n_tasks
    if n > MAX_TASKS or len(scenario.stations) > MAX_STATIONS:
        raise InstanceTooLargeError(
            f"exhaustive search capped at {MAX_TASKS} tasks / {MAX_STATIONS} stations")

    weights_obj = weights if isinstance(weights, UtilityWeights) else UtilityWeights(weights)
    alpha = weights_obj.alpha
    t_max = scenario.t_max_array()
    h_min = scenario.config.h_min
    cap = int(np.floor(1.0 / h_min + 1e-9))

    base_tables = costs.build_cost_tables(
        scenario, alpha, np.zeros((s, n)), np.zeros((s, n)))

    # one `_best_split` per distinct input within this call: the key holds
    # every input it reads that can change here, because the scenario
    # constants, alpha and the resolution are fixed for the call
    memo = {}

    def split_search(tables, i, j, h):
        key = (i, j, h, t_max[j], tables.rate[i, j], tables.e_up[i, j],
               tables.w2[i, j], tables.w1[i, j], tables.w0[i, j],
               tables.transfer_coef[i, j])
        if key not in memo:
            memo[key] = _best_split(tables, i, j, h, grid_resolution, t_max[j])
        return memo[key]

    best_util = np.inf
    best_placement = None
    best_branches = None
    n_enumerated = 0

    for tup in itertools.product(range(s + 2), repeat=n):
        n_enumerated += 1
        # quick structural checks: deadline of the single-bit branches,
        # station occupancy cap
        ok = True
        for j, b in enumerate(tup):
            if b == 0 and base_tables.t_local[j] > t_max[j]:
                ok = False
                break
            if b == s + 1 and base_tables.t_mbs[j] > t_max[j]:
                ok = False
                break
        if not ok:
            continue
        counts = [sum(1 for b in tup if b == i + 1) for i in range(s)]
        if any(cnt > cap for cnt in counts):
            continue

        hard_x, y, z = costs.hard_assignment(tup, s)

        c0 = np.zeros((s, n))
        c1 = np.zeros((s, n))
        ci = np.zeros((s, n))
        h = np.ones((s, n))
        feasible = True
        for sweep in range(2):
            tables = costs.build_cost_tables(scenario, alpha, hard_x, c1)
            for i in range(s):
                members = [j for j, b in enumerate(tup) if b == i + 1]
                if not members:
                    continue
                shares = _share_allocation(tables, members, i, h_min,
                                           split_search)
                if shares is None:
                    feasible = False
                    break
                for j in members:
                    split = split_search(tables, i, j, shares[j])
                    if split is None:
                        feasible = False
                        break
                    c0[i, j], c1[i, j] = split[0], split[1]
                    ci[i, j] = tables.c[j] - split[0] - split[1]
                    h[i, j] = shares[j]
                if not feasible:
                    break
            if not feasible:
                break
        if not feasible:
            continue

        placement = Placement(x=hard_x, y=y, z=z, c0=c0, c1=c1, ci=ci, h=h)
        util = costs.utility(placement, scenario, weights_obj)
        # only a tuple that would improve the best needs its feasibility check
        if util < best_util and costs.check_feasibility(placement, scenario):
            best_util = util
            best_placement = placement
            best_branches = [placement.branch_of(j) for j in range(n)]

    if best_placement is None:
        return OracleResult(placement=None, utility=np.inf, branch_table=[],
                            n_enumerated=n_enumerated, feasible=False)
    return OracleResult(placement=best_placement, utility=float(best_util),
                        branch_table=best_branches, n_enumerated=n_enumerated,
                        feasible=True)


def compare(solver_placement: Placement, solver_utility: float,
            oracle_result: OracleResult, tol_rel: float,
            scenario: Scenario) -> dict:
    """Relative utility gap, per-task branch agreement, feasibility flags."""
    gap = ((solver_utility - oracle_result.utility)
           / max(abs(oracle_result.utility), 1e-300))
    feas = costs.check_feasibility(solver_placement, scenario)
    solver_branches = [solver_placement.branch_of(j)
                       for j in range(len(solver_placement.y))]
    agreement = sum(1 for a, b in zip(solver_branches, oracle_result.branch_table)
                    if a == b)
    return {
        "solver_utility": float(solver_utility),
        "oracle_utility": float(oracle_result.utility),
        "relative_gap": float(gap),
        "within_tolerance": bool(gap <= tol_rel + 1e-12),
        "branch_agreement": agreement,
        "n_tasks": len(solver_branches),
        "feasible": feas.ok,
        "violations": feas.violations,
    }
