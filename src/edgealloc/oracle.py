"""Exhaustive reference solver for desk-scale instances.

Enumerates every hard branch assignment, resolves shared-station resource
fractions, and reports the true optimum of the weighted objective.  Its
independence from the consensus solver lies in the enumeration: every
branch tuple is priced, where the solver relaxes, iterates and rounds.
Within a tuple the splits come from the same analytic optimizer the
solver uses, `costs.best_splits`, and share floors are pinned the same
way; the tests cross-check that optimizer against a brute-force search.

Within one `enumerate_optimum` call each distinct split search runs once:
tuples that differ only in which tasks run locally or on the macro station
leave the SBS tables unchanged and ask for the same searches again, so the
results are kept in a memo that lives for the call and no longer.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import costs
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
        shares = costs.floored_proportions(
            {j: float(np.sqrt(w)) for j, w in weights.items()}, h_min)
    return shares


def enumerate_optimum(scenario: Scenario, weights: UtilityWeights) -> OracleResult:
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

    # one split search per distinct input within this call: the key holds
    # every input it reads that can change here, because the scenario
    # constants and alpha are fixed for the call
    memo = {}

    def split_search(tables, i, j, h):
        key = (i, j, h, t_max[j], tables.rate[i, j], tables.e_up[i, j],
               tables.w2[i, j], tables.w1[i, j], tables.w0[i, j],
               tables.transfer_coef[i, j])
        if key not in memo:
            c0, c1, _, ok = costs.best_splits(tables, np.array([i]),
                                              np.array([j]), np.array([h]))
            memo[key] = (c0[0], c1[0]) if ok[0] else None
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
        # a tuple with no SBS task has no splits to price; the second sweep
        # reprices the first one's forwarded parts, so with none forwarded
        # its tables would equal the first sweep's
        for sweep in range(2 if hard_x.any() else 0):
            if sweep and not c1.any():
                break
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
