"""Exact reference solver: the true optimum of the weighted objective
over every hard branch assignment, for instances with few contested tasks.

Its independence from the consensus solver lies in the search: every
branch tuple is priced or proven no better than one already priced, where
the solver relaxes, iterates and rounds.  Each tuple is priced by
`costs.price_tuple`, the pricer the solver's rounding uses, with its
utility and feasibility; the tests cross-check its splits against a
brute-force search.  The pricer is canonical: an SBS task whose split
uploads nothing runs on the terminal.

Adding tasks only raises interference, relay congestion and co-hosted
load, so a task's cost on a branch in any tuple is at least its cost there
alone (`branch_bounds`); the terminal and macro costs are exact and move
no other task.  So each task needs one exact branch, the cheaper of the
two, the terminal on a tie: the other gives a tuple that is dearer, or
equal and later in the order.  Dominance fixes a task on its exact branch
before the search (Savelsbergh, ORSA J. Computing 6, 1994) when its least
SBS bound is above the exact cost, or equal to it with the terminal
exact: moving it there from an SBS gives a tuple no dearer and, if equal,
earlier.  That assumes dropping a task from a station never raises the
others' priced cost: true of interference and relay load, and of the
co-hosted shares as far as `price_tuple`'s square-root heuristic is.

The contested tasks, those left open, are searched depth first, each over
its exact branch and its SBSs in branch order (Land & Doig, Econometrica
28, 1960).  A prefix whose bounds, plus the cheapest bound of every task
still open, reach the best utility found cannot hold a strictly better
tuple and is skipped.  The result, ties included, is the first best tuple
of the exhaustive order of canonical tuples.  The contested tasks, not n,
set the cost: the search is refused when their (s + 1)^k tuples exceed
`MAX_TUPLES` = 5^6, the exhaustive order of 6 tasks on 3 SBSs, so every
instance of at most 6 tasks on at most 3 SBSs, (s + 1)^n <= 4^6, and of 8
tasks on 2 SBSs, 3^8, is admitted.

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

# the most tuples of contested tasks the search may reach
MAX_TUPLES = 5 ** 6

# relative slack of the pruning test: the bound and the placement pricer
# add the same nonnegative terms in different orders
BOUND_MARGIN = 1e-9


@dataclass
class OracleResult:
    """The optimum found.  `n_enumerated` counts the whole tuple space,
    (s + 2)^n, pruned tuples included; `n_priced` counts the tuples whose
    splits were priced and `n_contested` the tasks dominance left open.
    None is part of the JSON, where (s + 2)^n at thousands of tasks would
    exceed Python's limit on the digits of an int converted to text."""

    placement: Placement | None
    utility: float
    branch_table: list
    n_enumerated: int
    feasible: bool
    n_priced: int = 0
    n_contested: int = 0

    def to_dict(self) -> dict:
        doc = {"utility": self.utility, "branch_table": self.branch_table,
               "feasible": self.feasible}
        if self.placement is not None:
            doc["placement"] = self.placement.to_dict()
        return doc

    def to_json(self, path=None) -> str:
        return write_json(self.to_dict(), path)


def branch_bounds(scenario: Scenario, alpha: float) -> np.ndarray:
    """(n, s + 2) lower bound on each task's cost at `alpha` on each branch
    of any tuple, columns in branch order: terminal, SBS 1..s, macro.

    The terminal and macro columns are `k_local` and `k_mbs` of one table
    built at zero assignment, or +inf where `exact_ok` refuses the branch.
    Each SBS column is the `best_splits` cost of the task alone at h = 1,
    or +inf where no split meets the deadline, all (station, task) pairs
    priced at once on that table as a lone task's.  A tuple only adds
    interference, relay load and co-hosted sharing, and at a fixed split
    each of them only raises the delay and the cost, so a split that
    misses its deadline alone misses it in every tuple.  Where the lone
    split uploads nothing, `costs.price_tuple` runs the task on the
    terminal, and the entry is exactly `k_local`.
    """
    s, n = scenario.n_sbs, scenario.n_tasks
    t = costs.build_cost_tables(scenario, alpha, np.zeros((s, n)),
                                np.zeros((s, n)))
    bound = np.empty((n, s + 2))
    bound[:, 0] = np.where(t.exact_ok[0], t.k_local, np.inf)
    bound[:, s + 1] = np.where(t.exact_ok[1], t.k_mbs, np.inf)
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


def enumerate_optimum(scenario: Scenario, weights: UtilityWeights) -> OracleResult:
    """Global minimum over every feasible hard assignment: the first best
    tuple of the exhaustive order of canonical tuples, searched as the
    module docstring says, no SBS hosting more than
    `ScenarioConfig.max_per_sbs` tasks.  Each tuple reached is priced by
    `costs.price_tuple`, with its utility and feasibility, so solver and
    oracle compare on identical terms.
    `InstanceTooLargeError` is raised before any tuple is priced when the
    contested tasks give more than `MAX_TUPLES` tuples.
    """
    s, n = scenario.n_sbs, scenario.n_tasks
    alpha = weights.alpha
    cap = scenario.config.max_per_sbs

    bound = branch_bounds(scenario, alpha)
    # each task's exact branch, and the tasks dominance leaves open
    exact = np.where(bound[:, 0] <= bound[:, s + 1], 0, s + 1)
    on_exact = bound[np.arange(n), exact]
    least = bound[:, 1:s + 1].min(axis=1, initial=np.inf)
    contested = (least < on_exact) | ((least == on_exact) & (exact > 0))
    tasks = np.flatnonzero(contested).tolist()
    n_tuples = (s + 1) ** len(tasks)
    if n_tuples > MAX_TUPLES:
        raise InstanceTooLargeError(
            f"{len(tasks)} contested tasks give {n_tuples} tuples, "
            f"over the oracle's cap of {MAX_TUPLES}")
    choice = exact.tolist()
    options = [sorted([choice[j], *range(1, s + 1)]) for j in tasks]
    # rest[k]: the cheapest bound of every contested task from the k-th on
    rest = np.append(np.cumsum(bound[tasks].min(axis=1)[::-1])[::-1],
                     0.0).tolist()
    bound = bound.tolist()

    # the split searches of `costs.price_tuple`, kept for this call only
    memo = {}

    best_util = np.inf
    best_placement = None
    n_priced = 0
    hosted = [0] * (s + 2)  # tasks on each branch of the current prefix

    def descend(k, prefix_bound):
        nonlocal best_util, best_placement, n_priced
        if k == len(tasks):
            n_priced += 1
            placement, _, util, report = costs.price_tuple(scenario, alpha,
                                                           choice, memo)
            # a miss prices at +inf, above any best
            if util < best_util and report.ok:
                best_util = util
                best_placement = placement
            return
        j = tasks[k]
        for b in options[k]:
            if 0 < b <= s and hosted[b] == cap:
                continue
            low = prefix_bound + bound[j][b]
            # every completion costs at least low + rest[k + 1], so with
            # the margin none is strictly below the best
            if (low + rest[k + 1]) * (1.0 - BOUND_MARGIN) >= best_util:
                continue
            choice[j] = b
            hosted[b] += 1
            descend(k + 1, low)
            hosted[b] -= 1

    # a decided task that meets no deadline leaves no tuple to price
    decided = float(on_exact[~contested].sum())
    if decided < np.inf:
        descend(0, decided)

    feasible = best_placement is not None
    return OracleResult(
        placement=best_placement, utility=float(best_util),
        branch_table=best_placement.branches() if feasible else [],
        n_enumerated=(s + 2) ** n, feasible=feasible, n_priced=n_priced,
        n_contested=len(tasks))


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
