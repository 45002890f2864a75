"""Multi-block consensus loop.

One iteration: (a) the local blocks solved against a read-only snapshot
(split branch via block-coordinate gradient projection, terminal and
macro branches by exact binary comparison), (b) the global block solved
by the interior-point machinery, (c) dual ascent on the consensus gaps,
(d) trace bookkeeping.  Each task's local and global blocks are
independent of the other tasks' blocks, so both are solved in one
vectorized call over the task axis.  Interference, relay congestion and
resource shares are frozen once per iteration.  The engine owns its
state exclusively and is deterministic: the same scenario and config
give byte-identical traces.

A phase whose inputs are bit for bit those of its last run reuses its
output: the cost tables, the trace utility and the split pricing with
its deadline check; so does the global solve, whose problem a dual moved
by one constant per task leaves unchanged in exact arithmetic (see
`run`).  A loose run's warm-up, where only the duals move, costs the
local blocks alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import costs, global_block, local_blocks
from .costs import CostTables, Placement, UtilityWeights
from .errors import ConfigurationError, InfeasibleTaskError
from .scenario import Scenario

# corner-penalty weight of the split block, in normalized cost units;
# besides pushing fractional assignments to corners it acts as flip
# hysteresis against congestion-feedback jitter, so it must exceed the
# per-iteration cost noise while staying below real branch-cost gaps
CORNER_DELTA = 0.3


@dataclass
class SolverConfig:
    rho: float = 1.0
    max_iter: int = 200
    tol: float = 1e-4
    alpha: float = 0.5
    cbgp_rounds: int = 50
    record_timing: bool = True

    def __post_init__(self):
        if self.rho <= 0:
            raise ConfigurationError("rho must be positive")
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be at least 1")
        if self.cbgp_rounds < 1:
            raise ConfigurationError("cbgp_rounds must be at least 1")
        if self.tol <= 0:
            raise ConfigurationError("tol must be positive")
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigurationError("alpha must lie in [0, 1]")


@dataclass
class ConsensusState:
    """Globals, local copies, duals and the split block; the whole iterate.

    `v` (the global iterate), `v_hat` (the local copies), `dual` and
    `prev` (the global iterate before the last global update) are
    (n_sbs + 2, n_tasks), rows in the order of `global_block.GlobalProblem`:
    the SBS assignments (`v[:n_sbs]`, the station-major block the cost
    tables and the split block take), then the macro-station bit, then the
    terminal bit.  `split` is what each split-block solve hands to the
    next, its `x_hat` the solve's copy of `v_hat[:n_sbs]`; `r`, the
    reciprocal share each station expects, is an (n_sbs, 1) column.
    """

    v: np.ndarray
    v_hat: np.ndarray
    dual: np.ndarray
    split: local_blocks.CbgpVars
    r: np.ndarray
    rho: float
    k: int = 0
    prev: np.ndarray | None = None


def init_state(scenario: Scenario, config: SolverConfig) -> ConsensusState:
    """Duals and split multipliers at zero, uniform relaxed assignments,
    thirds splits, full resource share."""
    s, n = scenario.n_sbs, scenario.n_tasks
    share = 1.0 / (s + 2)
    third = np.tile(scenario.pricing.c / 3.0, (s, 1))
    v = np.full((s + 2, n), share)
    split = local_blocks.CbgpVars.start(
        v[:s].copy(), np.full((s, n), share), third.copy(), third.copy(),
        third.copy())
    return ConsensusState(v=v, v_hat=v.copy(), dual=np.zeros_like(v),
                          split=split, r=np.ones((s, 1)), rho=config.rho)


@dataclass
class TraceRecord:
    k: int
    utility: float
    primal_res: float
    dual_res: float
    wall_ms: float


@dataclass
class Trace:
    """Per-iteration log; iteration numbers are strictly increasing.

    Five solver-health counters hold one entry per iteration, taken from
    what the blocks report anyway, and are not part of the CSV:
    `global_unconverged` counts the tasks whose global block ended above
    its KKT tolerance, `global_stalled` those whose line search stalled,
    `newton_steps` the global block's Newton steps, `cbgp_sweeps` the
    split block's sweeps and `split_repairs` the overdue splits `run`
    reset to a deadline-feasible one (both 0 with no SBS).  An iteration
    that reuses the last global solve counts 0 Newton steps and that
    solve's unconverged and stalled tasks; one that reuses the split
    pricing counts 0 repairs.
    """

    records: list = field(default_factory=list)
    converged: bool = False
    global_unconverged: list = field(default_factory=list)
    global_stalled: list = field(default_factory=list)
    newton_steps: list = field(default_factory=list)
    cbgp_sweeps: list = field(default_factory=list)
    split_repairs: list = field(default_factory=list)

    CSV_HEADER = "iter,utility,primal_res,dual_res,wall_ms"

    def append(self, record: TraceRecord):
        if self.records and record.k <= self.records[-1].k:
            raise ValueError("iteration counter must increase")
        self.records.append(record)

    def utilities(self) -> np.ndarray:
        return np.array([r.utility for r in self.records])

    def to_csv(self, path=None) -> str:
        lines = [self.CSV_HEADER]
        for r in self.records:
            lines.append(f"{r.k},{r.utility:.17g},{r.primal_res:.17g},"
                         f"{r.dual_res:.17g},{r.wall_ms:.17g}")
        doc = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(doc)
        return doc


def residuals(state: ConsensusState) -> tuple[float, float]:
    """Consensus gap norm and the scaled change of the global block.  Each
    sums a task-major copy, the order the trace's residual digits come
    from; summing the state in memory order moves them by up to 3 ulps."""
    norm = lambda diff: np.sqrt((np.ascontiguousarray(diff.T) ** 2).sum())
    primal = norm(state.v_hat - state.v)
    dual = np.inf if state.prev is None else state.rho * norm(state.v - state.prev)
    return float(primal), float(dual)


def dual_update(state: ConsensusState) -> ConsensusState:
    """Ascend each multiplier by rho times its consensus gap."""
    state.dual = state.dual + state.rho * (state.v_hat - state.v)
    state.k += 1
    return state


def augmented_lagrangian(state: ConsensusState, tables: CostTables,
                         cost_scale: float = 1.0) -> float:
    """Objective of the consensus formulation at the current primal pair
    and duals: local-copy cost plus dual terms plus quadratic penalty, in
    the normalized units the solver actually works in.  `run` decides
    convergence on the residuals and does not price it."""
    sp = state.split
    s = sp.c0.shape[0]
    delay, energy = tables.split_price(sp.c0, sp.c1, sp.ci, state.r)
    util3 = tables.alpha * delay + (1.0 - tables.alpha) * energy
    cost = ((state.v_hat[s + 1] * tables.k_local).sum()
            + (state.v_hat[s] * tables.k_mbs).sum()
            + (state.v_hat[:s] * util3).sum()) / cost_scale
    gap = state.v_hat - state.v
    return float(cost + (state.dual * gap).sum()
                 + 0.5 * state.rho * (gap ** 2).sum())


def _relaxed_placement(state: ConsensusState) -> Placement:
    """The relaxed state as a placement of views into it, to be priced
    before the state moves on; `run` keeps each r in [1, 1 / h_min]."""
    sp = state.split
    s = sp.c0.shape[0]
    return Placement(x=state.v[:s], y=state.v[s], z=state.v[s + 1],
                     c0=sp.c0, c1=sp.c1, ci=sp.ci,
                     h=np.broadcast_to(1.0 / state.r, sp.c0.shape))


def _trace_utility(state: ConsensusState, scenario: Scenario,
                   weights: UtilityWeights,
                   tables: CostTables | None = None) -> tuple[float, CostTables]:
    """Utility of the relaxed state, and the tables it was priced on:
    `tables` if given, else tables built from the state."""
    relaxed = _relaxed_placement(state)
    if tables is None:
        tables = costs.build_cost_tables(scenario, weights.alpha, relaxed.x,
                                         relaxed.c1)
    return costs.utility(relaxed, scenario, weights, tables), tables


def _unchanged(key: tuple | None, now: tuple) -> bool:
    """Whether each of `now` is the object in `key`, the inputs a phase
    last ran on, or an array equal to it bit for bit; never for no key."""
    return key is not None and all(
        a is b or (isinstance(a, np.ndarray)
                   and np.array_equal(a.view(np.int64), b.view(np.int64)))
        for a, b in zip(key, now))


def run(scenario: Scenario, config: SolverConfig) -> tuple[Placement, Trace]:
    """Iterate the three phases until both residual norms pass the
    tolerance or the iteration budget runs out, then round the relaxed
    state to a hard feasible placement.

    Non-convergence is not fatal: the best available state is rounded and
    the trace is flagged accordingly.

    The local blocks run every iteration: they read the dual.  Every
    other phase reruns only when one of its inputs moved, bit for bit,
    from those it last ran on (held by reference; the local copies, which
    are written in place, are copied): the cost tables on `v[:s]` and the
    forwarded parts; the trace utility on `v`, the splits, the shares and
    the tables; the split pricing on the tables, the shares and the
    splits, and always after a repair.  The global solve reruns with the
    split pricing, or when the prox moved or the dual moved other than by
    one constant per task, which the simplex row Σv = 1 folds into its
    multiplier σ: the problem, its exact limit and every Newton iterate
    are then unchanged in exact arithmetic, though a fresh solve can
    differ in the last bit (1 task on 1 SBS, seed 1, iterations 2-3).  A
    reused solve counts 0 Newton steps and keeps its flags.
    """
    weights = UtilityWeights(config.alpha)
    state = init_state(scenario, config)
    s = scenario.n_sbs
    split = state.split
    trace = Trace()

    # the tolerance scales with the root of the consensus dimension; the
    # barrier keeps a small per-coordinate interior offset, so an absolute
    # norm threshold would never fire on large instances
    eps = config.tol * np.sqrt(state.v.size)

    # later iterations price on the tables of the last trace utility, which
    # built them from the same x, c1 and alpha
    tables = costs.build_cost_tables(scenario, config.alpha, state.v[:s],
                                     split.c1)
    # normalize once so per-task branch costs are O(1) against rho; the
    # dual race between branches resolves cost order only at that scale
    cost_scale = max(
        float(np.minimum(tables.k_local, tables.k_mbs).mean()), 1e-300)
    # the inputs each reusable phase last ran on
    table_key = (state.v[:s], split.c1)
    util_key = price_key = global_key = None
    converged = False
    for _ in range(config.max_iter):
        t0 = time.perf_counter() if config.record_timing else 0.0

        # the cost tables and the split block work station-major on row
        # views of the state; none of them writes into its inputs
        x = state.v[:s]
        if s:
            expected_load = np.clip(x.sum(axis=1), 1.0,
                                    1.0 / scenario.config.h_min)
            state.r = expected_load[:, None]

        sweeps = 0
        if s:
            problem = local_blocks.LocalProblem.from_tables(
                tables, state.r, x, state.dual[:s], config.rho,
                CORNER_DELTA, cost_scale=cost_scale)
            _, history = local_blocks.cbgp_solve(problem, split,
                                                 rounds=config.cbgp_rounds)
            sweeps = len(history) - 1
            state.v_hat[:s] = split.x_hat

        for row, k, ok in ((s, tables.k_mbs, tables.exact_ok[1]),
                           (s + 1, tables.k_local, tables.exact_ok[0])):
            state.v_hat[row] = local_blocks.solve_bit_branch(
                k / cost_scale, state.v[row], state.dual[row], config.rho,
                feasible=ok)

        repairs = 0
        price_in = (tables, state.r, split.c0, split.c1, split.ci)
        if not _unchanged(price_key, price_in):
            t3, _ = tables.split_price(split.c0, split.c1, split.ci, state.r)
            # the split block is deadline-blind; carrying an overdue split
            # into the coupled block would cap its assignment against a
            # fictitious branch, so such splits are projected onto the
            # deadline-feasible cost optimum at the frozen share
            overdue = np.argwhere(~costs.meets_deadline(t3, tables.t_max))
            if len(overdue):
                i, j = overdue.T
                c0, c1, ci, _, _, ok = costs.best_splits(tables, i, j,
                                                         1.0 / state.r[i, 0])
                i, j = i[ok], j[ok]
                # fresh arrays, so no phase's key changes under it
                split.c0, split.c1, split.ci = (
                    split.c0.copy(), split.c1.copy(), split.ci.copy())
                split.c0[i, j], split.c1[i, j], split.ci[i, j] = (
                    c0[ok], c1[ok], ci[ok])
                repairs = int(ok.sum())
                t3, _ = tables.split_price(split.c0, split.c1, split.ci,
                                           state.r)
            tcoef = np.vstack([t3, tables.t_mbs, tables.t_local])
            price_key = None if repairs else price_in
            global_key = None

        problem = global_block.GlobalProblem(
            prox=state.v_hat, dual=state.dual, tcoef=tcoef,
            t_max=tables.t_max, rho=config.rho)
        shift = None if global_key is None else state.dual - global_key[1]
        if not (_unchanged(global_key, (state.v_hat,))
                and (shift == shift[:1]).all()):
            v, _, info = global_block.solve_global(problem)
            global_key = (state.v_hat.copy(), state.dual)
        else:
            info = dict(info, newton_iterations=0)
        state.prev, state.v = state.v, v
        trace.global_unconverged.append(
            int(np.count_nonzero(~info["converged"])))
        trace.global_stalled.append(int(np.count_nonzero(info["stalled"])))
        trace.newton_steps.append(info["newton_iterations"])
        trace.cbgp_sweeps.append(sweeps)
        trace.split_repairs.append(repairs)

        dual_update(state)

        primal, dual_res = residuals(state)
        fresh = not _unchanged(table_key, (state.v[:s], split.c1))
        util_in = (state.v, split.c0, split.c1, split.ci, state.r)
        if fresh or not _unchanged(util_key, util_in):
            util, tables = _trace_utility(state, scenario, weights,
                                          None if fresh else tables)
            table_key, util_key = (state.v[:s], split.c1), util_in
        wall = ((time.perf_counter() - t0) * 1e3
                if config.record_timing else 0.0)
        trace.append(TraceRecord(k=state.k, utility=util,
                                 primal_res=primal, dual_res=dual_res,
                                 wall_ms=wall))
        if primal < eps and dual_res < eps:
            converged = True
            break

    # free the last tables; rounding builds its own for SBS tasks alone
    del tables
    trace.converged = converged
    placement = round_to_feasible(state.v, scenario, config.alpha)
    return placement, trace


# -- rounding ----------------------------------------------------------------

def _promote(scenario: Scenario, alpha: float, choice: np.ndarray, j: int,
             cap: int, memo: dict) -> bool:
    """Move unplaced task j (choice -1) to a branch that meets its deadline
    and say whether one was found.  The terminal and macro delays are j's
    own and move no other task, so j takes the faster of the two that
    `PricingConstants.exact_ok` admits, ties to the terminal.  Only when neither
    does is each SBS hosting fewer than `cap` tasks tried: the whole tuple
    with j on it is repriced, and of the SBSs where its record meets j's
    deadline j takes the one whose tuple has the least utility, ties to
    the lower index."""
    s = scenario.n_sbs
    pc = scenario.pricing
    exact = [(delay, b) for delay, b, ok in zip((pc.t_local[j], pc.t_mbs[j]),
                                                (0, s + 1), pc.exact_ok[:, j])
             if ok]
    if exact:
        choice[j] = min(exact)[1]
        return True
    hosted = np.bincount(choice[choice > 0], minlength=s + 2)[1:s + 1]
    priced = []
    for i in np.flatnonzero(hosted < cap):
        choice[j] = i + 1
        placement, _, util, report = costs.price_tuple(scenario, alpha, choice, memo)
        if placement is not None and report.deadline_ok[j]:
            priced.append((util, i + 1))
    choice[j] = min(priced)[1] if priced else -1
    return bool(priced)


def round_to_feasible(v: np.ndarray, scenario: Scenario,
                      alpha: float) -> Placement:
    """Harden the relaxed global iterate `v`, rows as in `ConsensusState.v`,
    at delay weight `alpha`.  Each task takes its dominant branch (ties
    prefer terminal, then SBS, then MBS), and the weakest-margin tasks over
    `ScenarioConfig.max_per_sbs` on an SBS are demoted to the MBS.  The
    tuple is priced by `costs.price_tuple`; every task that misses its
    deadline there (named by the pricer, on a terminal or macro branch
    `PricingConstants.exact_ok` refuses, or late by the feasibility report of
    the pricer's record) is promoted by `_promote`: to its faster
    terminal or macro branch that meets the deadline, else to the open SBS
    where the repriced tuple meets it at the least utility.  The tuple is
    priced again until no task misses.

    The result passes `costs.check_feasibility`; otherwise
    `InfeasibleTaskError` names the violating tasks: those with no feasible
    branch, those that miss again after a promotion, or every task hosted
    on an over-budget station.
    """
    s, n = scenario.n_sbs, scenario.n_tasks
    cap = scenario.config.max_per_sbs

    score = np.roll(v, 1, axis=0)  # terminal, SBS 1..s, MBS
    choice = np.argmax(score, axis=0)  # 0 local, 1..s sbs, s+1 mbs

    if s:
        sorted_scores = np.sort(score, axis=0)
        margin = sorted_scores[-1] - sorted_scores[-2]
        for i in range(s):
            members = np.flatnonzero(choice == i + 1)
            if len(members) > cap:
                # weakest margin first, ties by task index
                weakest = members[np.argsort(margin[members], kind="stable")]
                choice[weakest[: len(members) - cap]] = s + 1

    late = ~scenario.pricing.exact_ok
    memo = {}
    promoted = np.zeros(n, dtype=bool)
    while True:
        placement, named, _, report = costs.price_tuple(scenario, alpha, choice, memo)
        miss = ((choice == 0) & late[0]) | ((choice == s + 1) & late[1])
        if placement is None:
            miss[named] = True
        else:
            miss |= ~report.deadline_ok
        if not miss.any():
            break
        if (miss & promoted).any():
            raise InfeasibleTaskError(np.flatnonzero(miss & promoted).tolist())
        choice[miss] = -1
        stuck = [j for j in np.flatnonzero(miss).tolist()
                 if not _promote(scenario, alpha, choice, j, cap, memo)]
        if stuck:
            raise InfeasibleTaskError(stuck)
        promoted |= miss

    # the deadlines hold; a station's shares can still break its budget
    if not report.ok:
        tasks = set()
        for kind, k in report.violations:
            tasks.update(np.flatnonzero(placement.x[k]).tolist()
                         if kind == "capacity" else [k])
        raise InfeasibleTaskError(sorted(tasks))
    return placement
