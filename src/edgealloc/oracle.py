"""Reference solver for desk-scale instances.

Searches every hard branch assignment and reports the true optimum of
the weighted objective.  Its independence from the consensus solver lies
in the search: every branch tuple is priced or proven no better than one
already priced, where the solver relaxes, iterates and rounds.  Each tuple
is priced by `costs.price_tuple`, the pricer the solver's rounding uses;
the tests cross-check its splits against a brute-force search.  The
pricer is canonical: an SBS task whose split uploads nothing runs on the
terminal, so a tuple holding one is priced as the tuple with that task on
the terminal.

The search is a depth-first branch and bound over the tasks (Land & Doig,
Econometrica 28, 1960).  Adding tasks only raises interference, relay
congestion and co-hosted load, so a task's cost on a branch in any tuple
is at least its cost there alone: the terminal and macro costs are exact,
and an SBS branch is bounded by the task's cheapest deadline-feasible
split at the whole station with no interference and no relay base load,
the `best_splits` cost of every (station, task) pair on one lone-task
table, or exactly its terminal cost where that split uploads nothing.  A
prefix whose bounds, plus the cheapest bound of every task still open,
reach the best utility found cannot hold a strictly better tuple and is
skipped.

Before the search each task is decided by dominance where it can be
(variable fixing in MIP preprocessing; Savelsbergh, ORSA J. Computing 6,
1994): its SBS branches are never tried when its least SBS bound is at
least its terminal cost and the terminal is no dearer than the macro
station, since moving it to the terminal gives a tuple no dearer and
earlier in the order, or when that bound is strictly above its macro
cost, since moving it there gives a strictly cheaper tuple.  Branches are
tried in order, so the result, ties included, is the first best tuple of
the exhaustive order of canonical tuples.  The rule assumes that dropping
a task from a station never raises the other tasks' priced cost.  Less
interference and less relay load satisfy it by construction; the shares
of the remaining co-hosted tasks satisfy it only as far as
`price_tuple`'s square-root share heuristic does.

The pricer's split memo lives for one `enumerate_optimum` call: tuples
that differ only in which tasks run locally or on the macro station leave
the SBS tables unchanged and ask for the same split searches again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import costs
from .costs import Placement, UtilityWeights
from .errors import InstanceTooLargeError
from .scenario import Scenario, write_json

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
        return write_json(self.to_dict(), path)


def branch_bounds(scenario: Scenario, base_tables: costs.CostTables) -> np.ndarray:
    """(n, s + 2) lower bound on each task's cost on each branch of any
    tuple, columns in branch order: terminal, SBS 1..s, macro.

    The terminal and macro columns are `k_local` and `k_mbs`, or +inf where
    `costs.meets_deadline` refuses the branch; `base_tables` must be the
    tables with no SBS task.  Each SBS column is the `best_splits` cost of
    the task alone at h = 1, or +inf where no split meets the deadline,
    all (station, task) pairs priced at once on one lone-task table.  A
    tuple only adds interference, relay load and co-hosted sharing, and at
    a fixed split each of them only raises the delay and the cost, so a
    split that misses its deadline alone misses it in every tuple.  Where
    the lone split uploads nothing, `costs.price_tuple` runs the task on
    the terminal, and the entry is exactly `k_local`.
    """
    s, n = scenario.n_sbs, scenario.n_tasks
    t = base_tables
    bound = np.empty((n, s + 2))
    for b, delay, k in ((0, t.t_local, t.k_local), (s + 1, t.t_mbs, t.k_mbs)):
        bound[:, b] = np.where(costs.meets_deadline(delay, t.t_max), k, np.inf)
    # one table is a lone task's on every station: at x = 0 no SBS sees
    # interference, as a lone task does, and the relay terms at unit
    # assignment with nothing forwarded are a lone task's
    w2, w1, w0 = scenario.pricing.relay.wired_coefficients(np.ones((s, n)),
                                                           np.zeros((s, n)))
    alone = replace(t, w2=w2, w1=w1, w0=w0)
    i, j = (a.ravel() for a in np.indices((s, n)))
    c0, *_, cost, ok = costs.best_splits(alone, i, j, np.ones(s * n))
    cost = np.where(c0 == t.c[j], t.k_local[j], cost)
    bound[:, 1:s + 1] = np.where(ok, cost, np.inf).reshape(s, n).T
    return bound


def enumerate_optimum(scenario: Scenario, weights: UtilityWeights,
                      max_tasks: int = MAX_TASKS) -> OracleResult:
    """Global minimum over every feasible hard assignment: the first best
    tuple of the exhaustive order of canonical tuples.

    A depth-first branch and bound over the tasks, branches in order, with
    the bounds of `branch_bounds`, the dominance rule of the module
    docstring and no SBS hosting more than `ScenarioConfig.max_per_sbs`
    tasks; each tuple it reaches is priced by `costs.price_tuple` and its
    utility re-evaluated through the placement pricer, on the tables the
    pricer built, so that solver and oracle are compared on identical
    terms.  Instances above `max_tasks` tasks or `MAX_STATIONS` stations
    raise `InstanceTooLargeError`; the search grows as (s + 2)^n.
    """
    s, n = scenario.n_sbs, scenario.n_tasks
    if n > max_tasks or len(scenario.stations) > MAX_STATIONS:
        raise InstanceTooLargeError(
            f"oracle search capped at {max_tasks} tasks / {MAX_STATIONS} stations")

    alpha = weights.alpha
    cap = scenario.config.max_per_sbs

    base_tables = costs.build_cost_tables(
        scenario, alpha, np.zeros((s, n)), np.zeros((s, n)))
    bound = branch_bounds(scenario, base_tables)
    # rest[k]: the cheapest bound of every task from k on
    rest = np.append(np.cumsum(bound.min(axis=1)[::-1])[::-1], 0.0).tolist()
    bound = bound.tolist()
    # the branches each task may take: none of its SBSs where dominance
    # decides it for the terminal or the macro station
    options = []
    for local, *sbs, macro in bound:
        least = min(sbs, default=np.inf)
        decided = least >= local and local <= macro or least > macro
        options.append([0, s + 1] if decided else list(range(s + 2)))

    # the split searches of `costs.price_tuple`, kept for this call only
    memo = {}

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
            placement, _, tables = costs.price_tuple_tables(
                scenario, alpha, choice, memo)
            if placement is None:
                return
            if not placement.x.any():
                tables = base_tables
            util = costs.utility(placement, scenario, weights, tables)
            # only a tuple that would improve the best needs its
            # feasibility check
            if util < best_util and costs.check_feasibility(placement, scenario,
                                                            tables):
                best_util = util
                best_placement = placement
                best_branches = placement.branches()
            return
        for b in options[k]:
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
    solver_branches = solver_placement.branches()
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
