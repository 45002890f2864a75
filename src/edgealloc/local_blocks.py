"""Per-task local updates of the consensus scheme.

Three blocks are solved per task against a read-only consensus snapshot:
the split branch (assignment row, split parts and the linearized resource
product) via cyclic block-coordinate gradient projection, and the two
single-bit branches (terminal, macro station) via exact two-point
comparison.  Tasks never couple inside a block, so every update is
vectorized over the task axis.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .costs import CostTables

# first step of the diminishing 1/(sweep + 1) multiplier schedule
DUAL_STEP0 = 0.1


def rlt_bounds(x_hat, r, h_min):
    """Admissible interval for the linearized product R of a relaxed
    binary x_hat and the bounded reciprocal resource r in [1, 1/h_min].

    Intersection of the four envelope constraints; collapses to {r} at
    x_hat = 1 and to {0} at x_hat = 0.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    r = np.asarray(r, dtype=float)
    inv = 1.0 / h_min
    # grouping (x_hat - 1) * inv keeps the collapse exact at binary points
    lo = np.maximum(x_hat, r + (x_hat - 1.0) * inv)
    hi = np.minimum(x_hat * inv, r + (x_hat - 1.0))
    return lo, hi


def project_interval(v, lo, hi):
    """Euclidean projection onto [lo, hi]; if the interval is empty the
    nearest of the two endpoints is used.  In exact arithmetic
    `rlt_bounds` never gives lo > hi for in-range inputs, but in floating
    point it does at r = 1, where `r + (x_hat - 1)` can round below
    x_hat by an ulp."""
    v = np.asarray(v, dtype=float)
    nearest = np.where(np.abs(v - lo) <= np.abs(v - hi), lo, hi)
    return np.where(lo <= hi, np.minimum(np.maximum(v, np.minimum(lo, hi)), hi),
                    nearest)


def majorize_penalty(delta, x_prev):
    """(slope, intercept) of the tangent at x_prev of the concave corner
    penalty delta * (x - x^2): slope * x + intercept bounds it from above
    and meets it at x = x_prev.  The split block's sweep and
    `block_objective` price the penalty by this line."""
    return delta * (1.0 - 2.0 * x_prev), delta * x_prev * x_prev


@dataclass
class CbgpVars:
    """What one split-block solve hands to the next, each (n_sbs, n_tasks):
    the primal block variables and the multipliers of the four envelope
    constraints, which stay nonnegative after every projected subgradient
    update.  The box 0 <= x_hat <= 1 needs none: the assignment's closed
    form clips into it."""

    x_hat: np.ndarray
    R: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    ci: np.ndarray
    mu_env_lo: np.ndarray
    mu_env_hi: np.ndarray
    mu_shift_hi: np.ndarray
    mu_shift_lo: np.ndarray

    @classmethod
    def start(cls, x_hat, R, c0, c1, ci) -> "CbgpVars":
        """The given point with every multiplier at zero."""
        z = lambda: np.zeros(x_hat.shape)
        return cls(x_hat, R, c0, c1, ci, z(), z(), z(), z())


@dataclass
class LocalProblem:
    """Frozen pricing plus the consensus snapshot for every task."""

    alpha: float
    rho: float
    delta: float
    h_min: float
    c: np.ndarray
    d_c0: np.ndarray
    d_up: np.ndarray
    d_m: np.ndarray
    sbs_cycle: np.ndarray
    w2: np.ndarray
    w1: np.ndarray
    w0: np.ndarray
    e_c0: np.ndarray
    e_up: np.ndarray
    e_s: np.ndarray
    e_m1: np.ndarray
    x_global: np.ndarray
    dual: np.ndarray
    r: np.ndarray

    @classmethod
    def from_tables(cls, tables: CostTables, r, x_global, dual, rho, delta,
                    cost_scale: float = 1.0) -> "LocalProblem":
        """The block at reciprocal shares r.  `cost_scale` divides every
        priced coefficient so branch costs are O(1) against the prox
        strength; duals are expected in the same normalized units."""
        a = tables.alpha
        s = 1.0 / cost_scale
        return cls(
            alpha=a, rho=rho, delta=delta, h_min=tables.h_min,
            c=tables.c,
            d_c0=s * tables.d_c0, d_up=s / tables.rate,
            d_m=s * tables.d_mbs_exec,
            sbs_cycle=s * tables.u_over_fs,
            w2=s * tables.w2, w1=s * tables.w1, w0=s * tables.w0,
            e_c0=s * tables.e_c0, e_up=s * tables.e_up,
            e_s=s * tables.e_sbs,
            e_m1=s * (tables.transfer_coef + tables.e_mbs_exec[None, :]),
            x_global=x_global, dual=dual, r=r,
        )

    def branch_cost(self, c0, c1, ci) -> np.ndarray:
        """Utility coefficient of the assignment variable: the split branch
        priced without its resource-product compute term.  Unlike
        `CostTables.split_price` it charges the relay base delay `w0` also
        where nothing is forwarded; the solver's convergence depends on it."""
        a = self.alpha
        wired = self.w2 * c1 * c1 + self.w1 * c1 + self.w0
        delay = (self.d_c0[None, :] * c0 + self.d_up * (self.c[None, :] - c0)
                 + wired + self.d_m[None, :] * c1)
        energy = (self.e_c0[None, :] * c0 + self.e_up * (self.c[None, :] - c0)
                  + self.e_s * ci + self.e_m1 * c1)
        return a * delay + (1.0 - a) * energy


def block_objective(problem: LocalProblem, vars: CbgpVars,
                    x_prev: np.ndarray, terms=None, cost=None) -> np.ndarray:
    """Per-task value of the split block's Lagrangian at the multipliers
    in `vars`: priced branch cost, linearized resource-product compute
    term, consensus prox with dual, majorized corner penalty, and each
    envelope row of `rlt_bounds` times its multiplier, grouped by x_hat and
    R.  `terms` (`_sweep_terms(problem, x_prev)`) and `cost`
    (`problem.branch_cost`) are formed here when not given."""
    p, v = problem, vars
    terms = _sweep_terms(p, x_prev) if terms is None else terms
    cost = p.branch_cost(v.c0, v.c1, v.ci) if cost is None else cost
    a_cycle, penalty_slope = terms[0], terms[4]
    one_minus_r, r_minus_inv, penalty_at_prev = terms[7:]
    gap = v.x_hat - p.x_global
    per_pair = (v.x_hat * (cost + p.dual + penalty_slope + v.mu_env_lo
                           - v.mu_shift_hi
                           + (v.mu_shift_lo - v.mu_env_hi) / p.h_min)
                + v.R * (a_cycle * v.ci - v.mu_env_lo + v.mu_env_hi
                         + v.mu_shift_hi - v.mu_shift_lo)
                + 0.5 * p.rho * gap * gap
                + v.mu_shift_hi * one_minus_r + v.mu_shift_lo * r_minus_inv
                + penalty_at_prev)
    return per_pair.sum(axis=0)


def _sweep_terms(problem: LocalProblem, x_prev: np.ndarray) -> tuple:
    """The terms of `_sweep` that no sweep of one solve changes, each a
    group the sweep's expressions form as a unit (a parenthesised group or
    a left-associative prefix), so forming it once changes no bit; then
    the constant parts of `block_objective`.  The corner penalty's slope
    and intercept are `majorize_penalty`'s tangent at x_prev."""
    p, a = problem, problem.alpha
    inv = 1.0 / p.h_min
    c_row = p.c[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        x_break = np.where(inv > 1.0, (inv - p.r) / (inv - 1.0), 1.0)
    x_break = np.minimum(np.maximum(x_break, 0.0), 1.0)
    penalty_slope, penalty_at_prev = majorize_penalty(p.delta, x_prev)
    return (a * p.sbs_cycle,
            a * (p.d_c0[None, :] - p.d_up) + (1.0 - a) * (p.e_c0[None, :] - p.e_up),
            c_row, c_row * c_row, penalty_slope, x_break,
            p.rho * (x_break - p.x_global),
            1.0 - p.r, p.r - inv, penalty_at_prev)


def _sweep(problem: LocalProblem, vars: CbgpVars, terms: tuple,
           step: float) -> np.ndarray:
    """One full cycle over the blocks: R, c0, c1, the dependent ci, the
    assignment row by its stationarity closed form, then the projected
    subgradient multiplier updates at step `step`, with `terms` from
    `_sweep_terms`.  Each field of `vars` is bound to a new array and no
    input array is written, so the old arrays keep the pre-sweep point.
    A task's new primal point depends only on its own column, not on
    `step`.  Returns the branch cost of the new splits."""
    p, a = problem, problem.alpha
    a_cycle, c0_pull, c_row, c_sq, penalty_slope, x_break, pull_at_break = terms[:7]
    inv = 1.0 / p.h_min

    grad_r = a_cycle * vars.ci
    lo, hi = rlt_bounds(vars.x_hat, p.r, p.h_min)
    eps_r = 1.0 / (p.rho * p.h_min * p.h_min)
    vars.R = project_interval(vars.R - eps_r * grad_r, lo, hi)

    shared_pull = a_cycle * vars.R + (1.0 - a) * vars.x_hat * p.e_s
    grad_c0 = vars.x_hat * c0_pull - shared_pull
    vars.c0 = np.minimum(np.maximum(vars.c0 - c_sq / p.rho * grad_c0, 0.0),
                         c_row - vars.c1)

    grad_c1 = (vars.x_hat * (a * (2.0 * p.w2 * vars.c1 + p.w1 + p.d_m[None, :])
                             + (1.0 - a) * p.e_m1)
               - shared_pull)
    curv = np.maximum(p.rho, 2.0 * a * vars.x_hat * p.w2 * c_sq)
    vars.c1 = np.minimum(np.maximum(vars.c1 - c_sq / curv * grad_c1, 0.0),
                         c_row - vars.c0)

    vars.ci = c_row - vars.c0 - vars.c1

    mult_sum = (vars.mu_env_lo - vars.mu_env_hi * inv - vars.mu_shift_hi
                + vars.mu_shift_lo * inv)
    cost = p.branch_cost(vars.c0, vars.c1, vars.ci)
    # the compute-cost gradient pulls R onto the lower envelope bound,
    # which is itself a piecewise-affine function of the assignment
    # (slope 1 below the breakpoint, 1/h_min above); the exact block
    # minimizer of the resulting convex piecewise quadratic transmits the
    # station compute cost into the assignment update
    lin = cost + p.dual + penalty_slope + mult_sum
    env = a_cycle * vars.ci
    slope_at_break = lin + pull_at_break
    min_low = np.minimum(np.maximum(p.x_global - (lin + env) / p.rho, 0.0), x_break)
    min_high = np.minimum(np.maximum(p.x_global - (lin + env * inv) / p.rho, x_break),
                          1.0)
    vars.x_hat = np.where(slope_at_break + env > 0, min_low,
                          np.where(slope_at_break + env * inv < 0, min_high,
                                   x_break))

    vars.mu_env_lo = np.maximum(0.0, vars.mu_env_lo + step * (vars.x_hat - vars.R))
    vars.mu_env_hi = np.maximum(0.0, vars.mu_env_hi + step * (vars.R - vars.x_hat * inv))
    vars.mu_shift_hi = np.maximum(
        0.0, vars.mu_shift_hi + step * (vars.R - p.r - vars.x_hat + 1.0))
    vars.mu_shift_lo = np.maximum(
        0.0, vars.mu_shift_lo + step * (p.r + vars.x_hat * inv - inv - vars.R))
    return cost


def cbgp_solve(problem: LocalProblem, vars: CbgpVars, rounds: int = 50,
               tol: float = 1e-6):
    """Run up to `rounds` block sweeps, committing a sweep only for the
    tasks whose Lagrangian (`block_objective` at the multipliers the sweep
    has just updated) it does not increase.  A rejected task goes back to
    its pre-sweep point and sits out the rest of the solve, as
    `solve_global` does with a stalled line search: `_sweep` proposes it
    the same point again.

    The solve starts from the corner-penalty tangency at the incoming
    `vars.x_hat` and the multipliers in `vars` as they are; sweep k takes
    multiplier step DUAL_STEP0 / (k + 1).  `_sweep_terms` are formed once
    per solve.

    Returns the final variables and the per-sweep objective history
    (list of per-task arrays, one entry per committed check).
    """
    x_prev = vars.x_hat
    terms = _sweep_terms(problem, x_prev)
    q = block_objective(problem, vars, x_prev, terms)
    history = [q]
    slack = 1e-12 * (1.0 + np.abs(q))
    for sweep in range(rounds):
        before = [(f.name, getattr(vars, f.name)) for f in fields(vars)]
        cost = _sweep(problem, vars, terms, DUAL_STEP0 / (sweep + 1.0))
        q_new = block_objective(problem, vars, x_prev, terms, cost)
        bad = q_new > q + slack
        if bad.all():
            for name, old in before:
                setattr(vars, name, old)
            q_new = q
        elif bad.any():
            for name, old in before:
                setattr(vars, name, np.where(bad, old, getattr(vars, name)))
            q_new = np.where(bad, q, q_new)
        history.append(q_new)
        if np.all(np.abs(q - q_new) <= tol * (1.0 + np.abs(q))):
            break
        q = q_new
    return vars, history


def solve_bit_branch(k, v_global, dual, rho, feasible=None):
    """Exact binary minimizer of a single-bit branch block (terminal or
    macro station): compare the two candidate values of
    cost * v + dual * v + rho/2 (v - v_global)^2.

    `feasible` masks tasks whose sole-branch delay already misses the
    deadline; for them the one-valued candidate is excluded outright.
    """
    k = np.asarray(k, dtype=float)
    v_global = np.asarray(v_global, dtype=float)
    dual = np.asarray(dual, dtype=float)
    f1 = k + dual + 0.5 * rho * (1.0 - v_global) ** 2
    f0 = 0.5 * rho * v_global ** 2
    take_one = f1 < f0
    if feasible is not None:
        take_one = take_one & np.asarray(feasible, dtype=bool)
    return take_one.astype(float)
