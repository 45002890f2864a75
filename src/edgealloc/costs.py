"""Delay and energy pricing of allocations, and the weighted utility.

What pricing needs from the scenario alone -- per-task vectors, SBS
radio and compute constants, the smallest share and the relay incidence
-- is the read-only `PricingConstants` bundle that each scenario builds
once, on first use, as `Scenario.pricing`.  `CostTables` extends it,
sharing every one of its arrays, with the coefficients that depend on
alpha or on the congestion and interference frozen when the tables are
built; `CostTables.split_price` is the one pricer of the split branch, at
the resource shares each caller passes.  Every other function here is
pure.  `best_splits` is the one split optimizer, whose record is the
whole optimum its callers read, and `price_tuple` the one pricer of a
hard branch tuple, which rounding and the oracle share; its record holds
the placement, its utility and its feasibility report, priced on tables
chosen here alone.  Its placements are canonical: a split that uploads
nothing is the terminal branch, so an SBS task whose chosen split runs
every cycle on the terminal is placed there, and every placement has one
tuple.  A placement with no SBS task is priced on no table: there the
table path's split terms x * t3 and x * e3 add exact zeros, since rates
are floored at `_TINY_RATE` and t3 and e3 are finite.

Two deadline rules: `meets_deadline` is the one test of every branch or
split that the solver, rounding, the oracle or the baseline chooses, and
`check_feasibility` the one check of a placement, whose 1e-9 slack admits
every delay `meets_deadline` does.  The verdicts of `meets_deadline` on
the terminal and macro branches depend on the scenario alone: they are
`PricingConstants.exact_ok`.  The global block's comparisons with
`t_max` stay exact: they locate the relaxed deadline row, not a delay.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError
from .scenario import Scenario

_TINY_RATE = 1e-12


@dataclass(frozen=True)
class UtilityWeights:
    """Delay weight alpha in [0, 1]; energy gets 1 - alpha."""

    alpha: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigurationError(f"alpha must lie in [0, 1], got {self.alpha}")


@dataclass
class Placement:
    """Assignment variables plus per-(SBS, task) splits.

    Binary-valued arrays describe a hard allocation; values in [0, 1]
    describe a relaxed one.  Shapes: x, c0, c1, ci, h are (n_sbs, n_tasks);
    y and z are (n_tasks,).
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    ci: np.ndarray
    h: np.ndarray

    def to_dict(self) -> dict:
        """Every array as nested lists, in field order, for JSON output."""
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    def branches(self) -> list[str]:
        """Every task's dominant branch label, for reporting: local, mbs,
        or sbs<i>; ties go to the terminal, then the lowest SBS."""
        labels = ["local", *(f"sbs{i}" for i in range(1, len(self.x) + 1)), "mbs"]
        dominant = np.argmax(np.vstack([self.z, self.x, self.y]), axis=0)
        return [labels[k] for k in dominant]


def meets_deadline(delay, t_max):
    """Whether a priced delay meets its deadline, up to the rounding of
    the split optimizer's closed-form candidates."""
    return delay <= t_max * (1.0 + 1e-12) + 1e-15


def hard_assignment(choice, n_sbs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Binary (x, y, z) of one branch per task: choice 0 is the terminal,
    1..n_sbs an SBS, n_sbs + 1 the MBS."""
    choice = np.asarray(choice)
    x = (choice[None, :] == np.arange(1, n_sbs + 1)[:, None]).astype(float)
    return x, (choice == n_sbs + 1).astype(float), (choice == 0).astype(float)


# -- scenario-constant pricing inputs ---------------------------------------

def _read_only(a) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class RelayIncidence:
    """Which wired elements every (SBS, task) relay route crosses.

    One slot per (route, crossed element), flattened in (SBS, task, route
    position) order: `pair` is the route's flat (SBS, task) index, `element`
    indexes `elements` (forwarding units, then links, in graph order) and
    `unit` tells a forwarding unit from a link.  `o1`/`o2` are the unit
    coefficients (0 at links) and `capacity` the link capacity (1 at units).
    Every task forwarding through an SBS takes that SBS's one route, so the
    slots repeat it once per task.  They stay per (SBS, task, position)
    rather than per element because `wired_coefficients` adds them with
    `bincount` in slot order: that order is the order of a loop along each
    task's route, and keeping it keeps every coefficient bit-identical.
    """

    shape: tuple[int, int]
    elements: tuple[str, ...]
    pair: np.ndarray
    element: np.ndarray
    unit: np.ndarray
    o1: np.ndarray
    o2: np.ndarray
    capacity: np.ndarray

    @classmethod
    def of(cls, scenario: Scenario) -> "RelayIncidence":
        graph = scenario.graph
        units, links = graph.forwarding_units, graph.links
        elements = tuple(dict.fromkeys([*units, *links]))
        index = {eid: k for k, eid in enumerate(elements)}
        n = scenario.n_tasks
        dtypes = (np.intp, np.intp, bool, float, float, float)
        cols = [[np.empty(0, dt)] for dt in dtypes]
        for i, sbs in enumerate(scenario.sbs_list):
            route = [(index[eid], True, units[eid].o1, units[eid].o2, 1.0)
                     if kind == "unit" else
                     (index[eid], False, 0.0, 0.0, links[eid].capacity)
                     for kind, eid in graph.relay_routes[sbs.id]]
            cols[0].append(np.repeat(np.arange(i * n, (i + 1) * n), len(route)))
            for col, values, dt in zip(cols[1:], zip(*route), dtypes[1:]):
                col.append(np.tile(np.array(values, dtype=dt), n))
        return cls((scenario.n_sbs, n), elements,
                   *(_read_only(np.concatenate(col)) for col in cols))

    def wired_coefficients(self, x: np.ndarray, c1: np.ndarray):
        """(w2, w1, w0) of each route's wired delay, with every other
        route's load frozen at x * c1.  `bincount` adds each route's element
        terms from zero in path order, the order of a loop along the path,
        so every coefficient is bit-identical to that loop's."""
        own = (x * c1).ravel()[self.pair]
        # bincount adds the slots one by one in slot order
        loads = np.bincount(self.element, weights=np.where(own <= 0, 0.0, own),
                            minlength=len(self.elements))
        base = np.maximum(loads[self.element] - own, 0.0)
        xw = x.ravel()[self.pair]
        o1, o2, cap = self.o1, self.o2, self.capacity
        t2 = np.where(self.unit, xw * xw * o1, 0.0)
        t1 = np.where(self.unit, xw * (2.0 * o1 * base + o2), xw / cap)
        t0 = np.where(self.unit, (o1 * base + o2) * base, base / cap)
        size = self.shape[0] * self.shape[1]
        return tuple(np.bincount(self.pair, weights=t, minlength=size)
                     .reshape(self.shape) for t in (t2, t1, t0))


@dataclass(frozen=True, eq=False)
class PricingConstants:
    """Every pricing input that depends on the scenario alone.

    Built once per scenario, on first use, as `Scenario.pricing`.  The
    arrays are read-only because every `CostTables` built from the
    scenario shares them.  Per-task vectors are (n,) and per-(SBS, task)
    arrays (s, n); `power` and `bandwidth` hold one value per SBS, as
    broadcast views.  `exact_ok` (2, n) is `meets_deadline` of each task's
    terminal (row 0) and macro (row 1) delay.  `h_min` is the smallest
    resource share.
    """

    c: np.ndarray
    t_max: np.ndarray
    t_local: np.ndarray
    e_local_task: np.ndarray
    t_mbs: np.ndarray
    e_mbs_task: np.ndarray
    exact_ok: np.ndarray
    d_c0: np.ndarray
    d_mbs_exec: np.ndarray
    e_c0: np.ndarray
    e_mbs_exec: np.ndarray
    gain_s: np.ndarray
    power: np.ndarray
    bandwidth: np.ndarray
    u_over_fs: np.ndarray
    e_sbs: np.ndarray
    relay: RelayIncidence
    h_min: float

    @classmethod
    def of(cls, scenario: Scenario) -> "PricingConstants":
        c = scenario.c_array()
        u = scenario.u_array()
        dev = scenario.device
        mbs = scenario.mbs
        sbs = scenario.sbs_list

        gain_m = scenario.channel.gain[0, :]
        snr_m = mbs.tx_power_density * gain_m / scenario.channel.noise_power
        rate_m = np.maximum(mbs.bandwidth * np.log2(1.0 + snr_m), _TINY_RATE)
        uplink = c / rate_m

        gain_s = scenario.channel.gain[1:, :]

        def per_sbs(attr):
            return np.broadcast_to(
                np.array([getattr(st, attr) for st in sbs])[:, None], gain_s.shape)

        arrays = dict(
            c=c, t_max=scenario.t_max_array(),
            t_local=c * u / dev.f_local, e_local_task=c * u * dev.e_local,
            t_mbs=uplink + c * u / mbs.f,
            e_mbs_task=dev.tx_power * uplink + c * u * mbs.e_cycle,
            d_c0=u / dev.f_local, d_mbs_exec=u / mbs.f,
            e_c0=u * dev.e_local, e_mbs_exec=u * mbs.e_cycle,
            gain_s=gain_s,
            power=per_sbs("tx_power_density"), bandwidth=per_sbs("bandwidth"),
            u_over_fs=u[None, :] / per_sbs("f"), e_sbs=u[None, :] * per_sbs("e_cycle"),
        )
        arrays["exact_ok"] = meets_deadline(
            np.vstack([arrays["t_local"], arrays["t_mbs"]]), arrays["t_max"])
        return cls(**{k: _read_only(v) for k, v in arrays.items()},
                   relay=RelayIncidence.of(scenario), h_min=scenario.config.h_min)


# -- vectorized pricing ------------------------------------------------------

def sbs_rate_matrix(x: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Shannon rate of each (SBS, task) upload under co-channel
    interference frozen at the current (possibly fractional) SBS
    assignments x of the other tasks on the other cells."""
    pc = scenario.pricing
    w = pc.gain_s * (x.sum(axis=0)[None, :] - x)
    interf = pc.power * (w.sum(axis=1, keepdims=True) - w)
    snr = pc.power * pc.gain_s / (scenario.channel.noise_power + interf)
    return np.maximum(pc.bandwidth * np.log2(1.0 + snr), _TINY_RATE)


@dataclass(frozen=True, eq=False)
class CostTables(PricingConstants):
    """The scenario's `PricingConstants`, shared, plus the per-branch
    coefficients that depend on alpha or on the congestion state frozen
    when the tables were built.

    Wired relay delay for pair (i, j) is the quadratic
    w2 * c1^2 + w1 * c1 + w0, valid around the frozen loads; it is charged
    only when c1 > 0.  `transfer_coef` is the linear energy coefficient of
    c1 for the relay transmission.
    """

    alpha: float
    k_local: np.ndarray
    k_mbs: np.ndarray
    rate: np.ndarray
    e_up: np.ndarray
    w2: np.ndarray
    w1: np.ndarray
    w0: np.ndarray
    transfer_coef: np.ndarray

    def split_price(self, c0, c1, ci, r, i=slice(None), j=slice(None)):
        """(delay, energy) of the split branch: the terminal runs c0, the
        relay forwards c1 to the MBS and the SBS runs ci at reciprocal
        share r.  By default every (SBS, task) pair is priced; index
        arrays (or scalars) i, j price the gathered pairs instead."""
        # over a slice of tasks each per-task vector is taken as a row:
        # numpy runs arrays of equal rank through a faster loop, which
        # counts on the oracle's thousands of tiny pricings
        task = (None, j) if isinstance(j, slice) else j
        c = self.c[task]
        delay = (self.d_c0[task] * c0 + (c - c0) / self.rate[i, j]
                 + wired_delay(self.w2[i, j], self.w1[i, j], self.w0[i, j], c1)
                 + self.u_over_fs[i, j] * r * ci + self.d_mbs_exec[task] * c1)
        energy = (self.e_c0[task] * c0 + self.e_up[i, j] * (c - c0)
                  + self.e_sbs[i, j] * ci
                  + (self.transfer_coef[i, j] + self.e_mbs_exec[task]) * c1)
        return delay, energy


def wired_delay(w2, w1, w0, c1):
    """Relay delay of forwarded part c1 on its frozen quadratic; nothing is
    charged where nothing is forwarded."""
    return np.where(c1 > 0, w2 * c1 * c1 + w1 * c1 + w0, 0.0)


# rows priced at once; every (rows, 32) intermediate of `_price_splits`
# stays at 128 KiB, so a repair over thousands of pairs does not raise the
# solve's peak memory
SPLIT_BLOCK_ROWS = 512


def best_splits(tables: CostTables, i, j, h):
    """Best deadline-feasible splits of tasks j on SBSs i at resource
    shares h, one row per (i, j, h) entry of the equal-length arrays.

    The split cost is linear in the terminal part and convex quadratic in
    the forwarded part, so each constrained optimum is one of finitely
    many analytic candidates: simplex corners, the two stationary
    forwarded parts (free and along the full-offload edge), the points
    where the deadline binds, and the fastest split.  Returns the record
    (c0, c1, ci, delay, cost, feasible) of each chosen split as priced;
    rows whose fastest split misses the deadline are infeasible and hold
    NaN.  Rows are independent, so they are priced in blocks of
    `SPLIT_BLOCK_ROWS`.
    """
    b = SPLIT_BLOCK_ROWS
    parts = [_price_splits(tables, i[k:k + b], j[k:k + b], h[k:k + b])
             for k in range(0, max(len(i), 1), b)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _price_splits(tables: CostTables, i, j, h):
    """`best_splits` on one block of rows: the candidates are held in a
    fixed-width matrix, NaN where a candidate does not exist, priced in
    one call, and the first cheapest feasible one is kept."""
    i = np.asarray(i, dtype=np.intp)[:, None]
    j = np.asarray(j, dtype=np.intp)[:, None]
    r = 1.0 / np.asarray(h, dtype=float)[:, None]
    c = tables.c[j]
    t_max = tables.t_max[j]
    a = tables.alpha
    w2, w1 = tables.w2[i, j], tables.w1[i, j]
    urf = tables.u_over_fs[i, j] * r
    q = tables.d_c0[j] - 1.0 / tables.rate[i, j] - urf
    d1 = w1 + tables.d_mbs_exec[j] - urf
    d0 = c / tables.rate[i, j] + tables.w0[i, j] + urf * c
    k_c0 = (a * q + (1.0 - a) * (tables.e_c0[j] - tables.e_up[i, j]
                                 - tables.e_sbs[i, j]))
    k_c1 = (a * d1 + (1.0 - a) * (tables.transfer_coef[i, j]
                                  + tables.e_mbs_exec[j] - tables.e_sbs[i, j]))
    curved, tilted = w2 > 0, q != 0

    # at alpha = 0 or w2 = 0 some divide by zero, and isfinite drops them
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c1_cands = [np.zeros(c.shape), c,
                    -k_c1 / (2.0 * a * w2),          # free stationary
                    (k_c0 - k_c1) / (2.0 * a * w2),  # along c0 = c - c1
                    -d1 / (2.0 * w2)]                # fastest forwarded part
        ab = w2 * (a - k_c0 / q)
        bb = k_c1 - k_c0 * d1 / q
        # along the deadline face
        c1_cands.append(np.where(tilted & (ab > 0), -bb / (2.0 * ab), np.nan))
        # deadline boundary along c0 = 0 and along c0 = c - c1
        for shift, const in ((d1, d0 - t_max), (d1 - q, d0 + q * c - t_max)):
            disc = shift * shift - 4.0 * w2 * const
            root = np.where(disc >= 0, np.sqrt(disc), np.nan)
            c1_cands.append((-shift - root) / (2.0 * w2))
            c1_cands.append((-shift + root) / (2.0 * w2))

        c0_cols, c1_cols = [], []
        for c1 in c1_cands:
            c1 = np.where(np.isfinite(c1), np.clip(c1, 0.0, c), np.nan)
            c0b = (t_max - d0 - d1 * c1 - w2 * c1 * c1) / q
            c0_cols += [np.zeros(c.shape), c - c1,
                        np.where(tilted & (c1 > 0),
                                 np.clip(c0b, 0.0, c - c1), np.nan)]
            c1_cols += [c1, c1, c1]
        # the c1 = 0 regime drops the wired charge entirely
        c0b = (t_max - (c / tables.rate[i, j] + urf * c)) / q
        c0_cols.append(np.where(tilted, np.clip(c0b, 0.0, c), np.nan))
        c1_cols.append(np.zeros(c.shape))
        # fastest split: the terminal part is all or nothing by the sign of
        # q, the forwarded part its stationary point clipped to the rest
        c1_star = np.where(curved, (urf - tables.d_mbs_exec[j] - w1)
                           / (2.0 * w2), 0.0)
        c0_fast = np.where(q >= 0, 0.0, c)
        c1_fast = np.clip(c1_star, 0.0, c - c0_fast)
        c0_cols.append(c0_fast)
        c1_cols.append(c1_fast)

    c0a, c1a = np.concatenate(c0_cols, axis=1), np.concatenate(c1_cols, axis=1)
    keep = (c0a >= 0) & (c1a >= 0) & (c0a + c1a <= c * (1.0 + 1e-12))
    c1a = np.minimum(c1a, c - c0a)
    delay, energy = tables.split_price(c0a, c1a, c - c0a - c1a, r, i, j)
    cost = a * delay + (1.0 - a) * energy
    feas = keep & meets_deadline(delay, t_max)
    # argmin takes the first minimum, so ties go to the earlier candidate
    k = np.argmin(np.where(feas, cost, np.inf), axis=1)[:, None]
    feasible = feas.any(axis=1)
    pick = lambda m: np.where(feasible, np.take_along_axis(m, k, axis=1)[:, 0],
                              np.nan)
    c0, c1 = pick(c0a), pick(c1a)
    # ci by the candidates' own subtraction, on the chosen parts alone
    return c0, c1, c[:, 0] - c0 - c1, pick(delay), pick(cost), feasible


def floored_proportions(raw: dict, floor: float) -> dict:
    """Scale positive weights onto a unit budget with a per-entry floor:
    entries that would fall below the floor are pinned there and the rest
    share the remaining budget proportionally."""
    pinned = set()
    while True:
        budget = 1.0 - floor * len(pinned)
        free_total = sum(w for j, w in raw.items() if j not in pinned)
        out = {}
        newly_pinned = False
        for j, w in raw.items():
            if j in pinned:
                out[j] = floor
                continue
            share = budget * w / free_total if free_total > 0 else floor
            if share < floor:
                pinned.add(j)
                newly_pinned = True
                break
            out[j] = min(share, 1.0)
        if not newly_pinned:
            return out


def price_tuple(scenario: Scenario, alpha: float, choice, memo: dict):
    """Hard placement of one branch tuple, the one pricer of the solver's
    rounding and the oracle.  `choice[j]` is task j's branch: 0 the
    terminal, 1..s an SBS, s + 1 the MBS; any other value leaves j unplaced.
    Returns (placement, None, utility, report), its utility at `alpha` and
    its report bit for bit those of `utility` and `check_feasibility`, or
    (None, j, inf, None) for the first task whose split misses its deadline
    at its final share, or for the first member of a station hosting more
    than `ScenarioConfig.max_per_sbs` tasks.

    A lone task runs at h = 1: the share only scales the SBS execution
    term, so no split is cheaper or faster at a smaller one.  Co-hosted
    tasks start at equal shares and take two square-root refinements by
    `floored_proportions`; a member with no feasible split at an
    intermediate share is weighted as if the SBS ran all of it.  A second
    sweep reprices the relay with the first one's forwarded parts, when it
    forwarded any.  `memo` keeps each split search by every input that can
    change for a fixed scenario and alpha (j fixes `t_max[j]`, the rate
    `e_up`); each station's misses are priced in one `best_splits` call.
    Utility and report come from one `placement_costs` call, on the last
    sweep's tables unless that sweep moved a forwarded part.

    Each placement has one canonical branch tuple: an SBS member whose
    chosen split uploads nothing (c0 = c, so c1 = ci = 0) runs on the
    terminal, and the tuple is priced again without it on the station.
    The result is the record of the tuple with those tasks on the
    terminal, every array bit for bit.  `choice` is not written.
    """
    s, n = scenario.n_sbs, scenario.n_tasks
    h_min = scenario.pricing.h_min
    hard_x, y, z = hard_assignment(choice, s)
    c0, c1, ci = np.zeros((s, n)), np.zeros((s, n)), np.zeros((s, n))
    h = np.ones((s, n))
    tables = frozen = None

    def splits(tables, i, members, shares):
        keys = [(i, j, shares[j], tables.rate[i, j], tables.w2[i, j],
                 tables.w1[i, j], tables.w0[i, j], tables.transfer_coef[i, j])
                for j in members]
        new = [key for key in keys if key not in memo]
        if new:
            found = best_splits(tables, np.full(len(new), i),
                                np.array([key[1] for key in new]),
                                np.array([key[2] for key in new]))
            for key, a, b, c, _, _, ok in zip(new, *found):
                memo[key] = (a, b, c) if ok else None
        return [memo[key] for key in keys]

    stations = [np.flatnonzero(row).tolist() for row in hard_x]
    for sweep in range(2 if hard_x.any() else 0):
        if sweep and not c1.any():
            break
        frozen = c1.copy()
        tables = build_cost_tables(scenario, alpha, hard_x, frozen)
        for i, members in enumerate(stations):
            if not members:
                continue
            if len(members) > scenario.config.max_per_sbs:
                return None, members[0], np.inf, None
            shares = dict.fromkeys(members, min(1.0, 1.0 / len(members)))
            for _ in range(2 if len(members) > 1 else 0):
                weights = {}
                for j, split in zip(members, splits(tables, i, members, shares)):
                    cij = tables.c[j] if split is None else split[2]
                    weights[j] = float(np.sqrt(max(
                        tables.alpha * tables.u_over_fs[i, j] * cij, 1e-30)))
                shares = floored_proportions(weights, h_min)
            for j, split in zip(members, splits(tables, i, members, shares)):
                if split is None:
                    return None, j, np.inf, None
                c0[i, j], c1[i, j], ci[i, j] = split
                h[i, j] = shares[j]
    idle = ((hard_x > 0) & (c0 == scenario.pricing.c)).any(axis=0)
    if idle.any():
        return price_tuple(scenario, alpha, np.where(idle, 0, choice), memo)
    placement = Placement(x=hard_x, y=y, z=z, c0=c0, c1=c1, ci=ci, h=h)
    own = frozen is not None and np.array_equal(frozen, c1)
    delay, energy = placement_costs(placement, scenario, tables if own else None)
    return (placement, None, _weighted_sum(alpha, delay, energy),
            _feasibility(placement, scenario, delay))


def build_cost_tables(scenario: Scenario, alpha: float, x_weight: np.ndarray,
                      c1_frozen: np.ndarray) -> CostTables:
    """Price every branch with interference and relay congestion frozen at
    the given fractional assignment and forwarded parts.  The scenario's
    own constants come from `scenario.pricing` and are shared, not copied.
    The resource shares are not frozen: `CostTables.split_price` takes
    them per call."""
    pc = scenario.pricing
    rate = sbs_rate_matrix(x_weight, scenario)
    w2, w1, w0 = pc.relay.wired_coefficients(x_weight, c1_frozen)
    wired_frozen = wired_delay(w2, w1, w0, c1_frozen)
    return CostTables(
        **vars(pc), alpha=alpha,
        k_local=alpha * pc.t_local + (1.0 - alpha) * pc.e_local_task,
        k_mbs=alpha * pc.t_mbs + (1.0 - alpha) * pc.e_mbs_task,
        rate=rate, e_up=scenario.device.tx_power / rate, w2=w2, w1=w1, w0=w0,
        transfer_coef=(scenario.channel.offload_power_sbs_mbs * wired_frozen
                       / pc.c[None, :]),
    )


def placement_costs(placement: Placement, scenario: Scenario,
                    tables: CostTables | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per-task (delay, energy) totals weighted by the assignment values,
    with congestion and interference consistent with the placement itself.
    `tables`, when given, must be `build_cost_tables`' at the placement's
    x and c1; the SBSs run at the placement's shares h.  Delay and energy
    read no coefficient that depends on alpha, so tables built here take
    the default weights' alpha.  With no SBS task the terminal and macro
    terms alone are the totals, bit for bit, and no table is read."""
    pc = scenario.pricing
    delay = placement.z * pc.t_local + placement.y * pc.t_mbs
    energy = placement.z * pc.e_local_task + placement.y * pc.e_mbs_task
    if not placement.x.any():
        return delay, energy
    if tables is None:
        tables = build_cost_tables(scenario, UtilityWeights().alpha,
                                   placement.x, placement.c1)
    with np.errstate(divide="ignore"):
        r = np.where(placement.h > 0, 1.0 / placement.h, 1.0)
    t3, e3 = tables.split_price(placement.c0, placement.c1, placement.ci, r)
    return (delay + (placement.x * t3).sum(axis=0),
            energy + (placement.x * e3).sum(axis=0))


def _weighted_sum(alpha: float, delay: np.ndarray, energy: np.ndarray) -> float:
    return float(alpha * delay.sum() + (1.0 - alpha) * energy.sum())


def utility(placement: Placement, scenario: Scenario,
            weights: UtilityWeights, tables: CostTables | None = None) -> float:
    """Weighted objective alpha * total delay + (1 - alpha) * total energy;
    `tables` as for `placement_costs`."""
    return _weighted_sum(weights.alpha, *placement_costs(placement, scenario, tables))


# -- feasibility -------------------------------------------------------------

@dataclass
class FeasibilityReport:
    ok: bool
    deadline_ok: np.ndarray
    violations: list

    def __bool__(self):
        return self.ok


def check_feasibility(placement: Placement, scenario: Scenario) -> FeasibilityReport:
    """Validate the three hard constraints of an allocation: per-task
    deadline, per-SBS resource budget, and one branch per task."""
    return _feasibility(placement, scenario, placement_costs(placement, scenario)[0])


def _feasibility(placement: Placement, scenario: Scenario,
                 delay: np.ndarray) -> FeasibilityReport:
    tol = 1e-9  # relative and absolute slack of every check
    t_max = scenario.pricing.t_max
    deadline_ok = delay <= t_max * (1.0 + tol) + tol
    shares = (placement.h * placement.x).sum(axis=1) if scenario.n_sbs else np.zeros(0)
    mass = placement.x.sum(axis=0) + placement.y + placement.z
    checks = (("deadline", deadline_ok), ("capacity", shares <= 1.0 + tol),
              ("assignment", np.abs(mass - 1.0) <= tol))
    violations = [(kind, int(k)) for kind, ok in checks
                  for k in np.flatnonzero(~ok)]
    return FeasibilityReport(ok=not violations, deadline_ok=deadline_ok,
                             violations=violations)
