"""Reference solver for desk-scale instances.

Searches every hard branch assignment, resolves shared-station resource
fractions, and reports the true optimum of the weighted objective.  Its
independence from the consensus solver lies in the search: every branch
tuple is priced or proven no better than one already priced, where the
solver relaxes, iterates and rounds.  Within a tuple the splits come from
the same analytic optimizer the solver uses, `costs.best_splits`, and
share floors are pinned the same way; the tests cross-check that
optimizer against a brute-force search.

The search is a depth-first branch and bound over the tasks (Land & Doig,
Econometrica 28, 1960).  Adding tasks only raises interference, relay
congestion and co-hosted load, so a task's cost on a branch in any tuple
is at least its cost there alone: the terminal and macro costs are exact,
and an SBS branch is bounded by the task's cheapest split at the whole
station with no interference, no relay base load and no deadline.  A
prefix whose bounds, plus the cheapest bound of every task still open,
reach the best utility found cannot hold a strictly better tuple and is
skipped.  Branches are tried in order, so the result, ties included, is
the first best tuple of the exhaustive lexicographic order.

Within one `enumerate_optimum` call each distinct split search runs once:
tuples that differ only in which tasks run locally or on the macro station
leave the SBS tables unchanged and ask for the same searches again, so the
results are kept in a memo that lives for the call and no longer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import costs
from .costs import Placement, UtilityWeights
from .errors import InstanceTooLargeError
from .scenario import Scenario

MAX_TASKS = 6
MAX_STATIONS = 4

# relative slack of the pruning test: the bound and the placement pricer
# add the same nonnegative terms in different orders
BOUND_MARGIN = 1e-9


@dataclass
class OracleResult:
    """The optimum found.  `n_enumerated` counts the whole tuple space,
    (s + 2)^n, pruned tuples included; `n_priced` counts the tuples whose
    splits were priced and is not part of the JSON."""

    placement: Placement | None
    utility: float
    branch_table: list
    n_enumerated: int
    feasible: bool
    n_priced: int = 0

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


def branch_bounds(scenario: Scenario, base_tables: costs.CostTables) -> np.ndarray:
    """(n, s + 2) lower bound on each task's cost on each branch of any
    tuple, columns in branch order: terminal, SBS 1..s, macro.

    The terminal and macro columns are `k_local` and `k_mbs`, or +inf where
    the branch misses the deadline; `base_tables` must be the tables with
    no SBS task.  SBS i's column is the cheapest split at h = 1, deadline
    dropped, on tables with row i of x all ones and nothing forwarded:
    station i then sees no interference, which comes from the other cells,
    and no relay base load.  A tuple only adds interference, relay load and
    co-hosted sharing, and each of them only raises the cost.
    """
    s, n = scenario.n_sbs, scenario.n_tasks
    t = base_tables
    bound = np.empty((n, s + 2))
    bound[:, 0] = np.where(t.t_local > t.t_max, np.inf, t.k_local)
    bound[:, s + 1] = np.where(t.t_mbs > t.t_max, np.inf, t.k_mbs)
    tasks, whole = np.arange(n), np.ones(n)
    for i in range(s):
        x = np.zeros((s, n))
        x[i] = 1.0
        alone = replace(costs.build_cost_tables(scenario, t.alpha, x,
                                                np.zeros((s, n))),
                        t_max=np.full(n, np.inf))
        rows = np.full(n, i)
        c0, c1, _, _ = costs.best_splits(alone, rows, tasks, whole)
        bound[:, i + 1] = alone.split_delay_cost(rows, tasks, c0, c1, 1.0)[1]
    return bound


def _price_tuple(scenario: Scenario, alpha: float, choice, split_search):
    """Hard placement of one branch tuple, or None when a co-hosted share
    falls below its floor or a split misses its deadline.  The relay
    congestion is made self-consistent by two sweeps over the tasks."""
    s, n = scenario.n_sbs, scenario.n_tasks
    h_min = scenario.config.h_min
    hard_x, y, z = costs.hard_assignment(choice, s)

    c0 = np.zeros((s, n))
    c1 = np.zeros((s, n))
    ci = np.zeros((s, n))
    h = np.ones((s, n))
    # a tuple with no SBS task has no splits to price; the second sweep
    # reprices the first one's forwarded parts, so with none forwarded
    # its tables would equal the first sweep's
    for sweep in range(2 if hard_x.any() else 0):
        if sweep and not c1.any():
            break
        tables = costs.build_cost_tables(scenario, alpha, hard_x, c1)
        for i in range(s):
            members = [j for j, b in enumerate(choice) if b == i + 1]
            if not members:
                continue
            shares = _share_allocation(tables, members, i, h_min, split_search)
            if shares is None:
                return None
            for j in members:
                split = split_search(tables, i, j, shares[j])
                if split is None:
                    return None
                c0[i, j], c1[i, j] = split[0], split[1]
                ci[i, j] = tables.c[j] - split[0] - split[1]
                h[i, j] = shares[j]
    return Placement(x=hard_x, y=y, z=z, c0=c0, c1=c1, ci=ci, h=h)


def enumerate_optimum(scenario: Scenario, weights: UtilityWeights,
                      max_tasks: int = MAX_TASKS) -> OracleResult:
    """Global minimum over every feasible hard assignment.

    A depth-first branch and bound over the tasks, branches in order, with
    the bounds of `branch_bounds`; each tuple it reaches is priced by
    `_price_tuple` and its utility re-evaluated through the placement
    pricer, so that solver and oracle are compared on identical terms.
    Instances above `max_tasks` tasks or `MAX_STATIONS` stations raise
    `InstanceTooLargeError`; the search grows as (s + 2)^n.
    """
    s, n = scenario.n_sbs, scenario.n_tasks
    if n > max_tasks or len(scenario.stations) > MAX_STATIONS:
        raise InstanceTooLargeError(
            f"oracle search capped at {max_tasks} tasks / {MAX_STATIONS} stations")

    weights_obj = weights if isinstance(weights, UtilityWeights) else UtilityWeights(weights)
    alpha = weights_obj.alpha
    t_max = scenario.t_max_array()
    cap = int(np.floor(1.0 / scenario.config.h_min + 1e-9))

    base_tables = costs.build_cost_tables(
        scenario, alpha, np.zeros((s, n)), np.zeros((s, n)))
    bound = branch_bounds(scenario, base_tables)
    # rest[k]: the cheapest bound of every task from k on
    rest = np.append(np.cumsum(bound.min(axis=1)[::-1])[::-1], 0.0).tolist()
    bound = bound.tolist()

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
    n_priced = 0
    choice = [0] * n
    hosted = [0] * (s + 2)  # tasks on each branch of the current prefix

    def descend(k, prefix_bound):
        nonlocal best_util, best_placement, best_branches, n_priced
        if k == n:
            n_priced += 1
            placement = _price_tuple(scenario, alpha, choice, split_search)
            if placement is None:
                return
            util = costs.utility(placement, scenario, weights_obj)
            # only a tuple that would improve the best needs its
            # feasibility check
            if util < best_util and costs.check_feasibility(placement, scenario):
                best_util = util
                best_placement = placement
                best_branches = [placement.branch_of(j) for j in range(n)]
            return
        for b in range(s + 2):
            if 0 < b <= s and hosted[b] == cap:
                continue
            low = prefix_bound + bound[k][b]
            # every completion costs at least low + rest[k + 1], so with
            # the margin none is strictly below the best
            if (low + rest[k + 1]) * (1.0 - BOUND_MARGIN) >= best_util:
                continue
            choice[k] = b
            hosted[b] += 1
            descend(k + 1, low)
            hosted[b] -= 1

    descend(0, 0.0)

    n_enumerated = (s + 2) ** n
    if best_placement is None:
        return OracleResult(placement=None, utility=np.inf, branch_table=[],
                            n_enumerated=n_enumerated, feasible=False,
                            n_priced=n_priced)
    return OracleResult(placement=best_placement, utility=float(best_util),
                        branch_table=best_branches, n_enumerated=n_enumerated,
                        feasible=True, n_priced=n_priced)


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
