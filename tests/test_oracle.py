import itertools
import sys
from dataclasses import fields

import numpy as np
import pytest

from edgealloc import admm, costs, oracle
from edgealloc.costs import floored_proportions
from edgealloc.costs import Placement, UtilityWeights
from edgealloc.errors import InstanceTooLargeError
from edgealloc.oracle import compare, enumerate_optimum
from edgealloc.scenario import Scenario, ScenarioConfig, generate_scenario
from lattice_split import lattice_split, split_cost


def test_small_task_prefers_terminal():
    scen = generate_scenario(ScenarioConfig(n_tasks=1, n_sbs=1, seed=2))
    result = enumerate_optimum(scen, UtilityWeights(0.5))
    assert result.feasible
    # a split that runs everything on the terminal is the terminal branch
    assert result.branch_table == ["local"]
    z_only = Placement(x=np.zeros((1, 1)), y=np.zeros(1), z=np.ones(1),
                       c0=np.zeros((1, 1)), c1=np.zeros((1, 1)),
                       ci=np.zeros((1, 1)), h=np.ones((1, 1)))
    assert result.utility == pytest.approx(
        costs.utility(z_only, scen, UtilityWeights(0.5)), rel=1e-9)


def test_deadline_forces_macro_station():
    # terminal delay 0.036 s exceeds the deadline, macro upload does not
    scen = generate_scenario(ScenarioConfig(n_tasks=1, n_sbs=0, seed=0,
                                            c_range=(1e4, 1e4),
                                            t_max_range=(0.005, 0.005)))
    result = enumerate_optimum(scen, UtilityWeights(0.5))
    assert result.feasible
    assert result.branch_table == ["mbs"]


def test_terminal_within_the_deadline_rule_is_chosen_everywhere():
    # task 0's deadline sits 1e-13 below its terminal delay, inside
    # `meets_deadline`'s slack, so the oracle's bound, the oracle and the
    # solver's rounding all take the terminal.  A strict comparison refused
    # it while the split optimizer admitted c0 = c, so both put the task
    # "on sbs1" with every cycle run on the terminal anyway
    doc = generate_scenario(ScenarioConfig(n_tasks=2, n_sbs=1, seed=3)).to_dict()
    base = Scenario.from_dict(doc)
    doc["tasks"][0]["t_max"] = float(base.pricing.t_local[0] * (1 - 1e-13))
    scen = Scenario.from_dict(doc)
    tables = costs.build_cost_tables(scen, 0.5, np.zeros((1, 2)),
                                     np.zeros((1, 2)))
    assert oracle.branch_bounds(scen, 0.5)[0, 0] == tables.k_local[0]
    assert enumerate_optimum(scen, UtilityWeights(0.5)).branch_table[0] == "local"
    placement, _ = admm.run(scen, admm.SolverConfig())
    assert placement.branches()[0] == "local"


@pytest.mark.parametrize("t_max", [1e-300, 0.02, 1.0, 25.0, 1e6])
def test_meets_deadline_at_its_boundary_floats(t_max):
    edge = t_max * (1.0 + 1e-12) + 1e-15
    assert costs.meets_deadline(edge, t_max)
    assert not costs.meets_deadline(np.nextafter(edge, np.inf), t_max)
    delays = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)])
    assert costs.meets_deadline(delays, np.full(3, t_max)).tolist() == [
        True, True, False]


def test_capacity_limits_station_occupancy():
    scen = generate_scenario(ScenarioConfig(n_tasks=2, n_sbs=1, seed=3,
                                            h_min=0.6))
    result = enumerate_optimum(scen, UtilityWeights(0.5))
    assert result.feasible
    on_sbs = sum(1 for b in result.branch_table if b.startswith("sbs"))
    assert on_sbs <= 1


def _priced_tuples(monkeypatch):
    """The list that records every tuple `enumerate_optimum` prices."""
    priced = []
    price = costs.price_tuple

    def recording(scenario, alpha, choice, memo):
        priced.append(tuple(choice))
        return price(scenario, alpha, choice, memo)

    monkeypatch.setattr(costs, "price_tuple", recording)
    return priced


# mixed seed 28, three tasks on one station: no terminal meets its
# deadline and every task's SBS bound is below its macro cost, so no task
# is decided before the search, and at the default floor the search prices
# the tuple with all three on the station
CONTESTED = dict(n_tasks=3, n_sbs=1, seed=28, c_range=(4e6, 2e7))


@pytest.mark.parametrize("h_min", [0.4, 1.0 / 3.0 + 1e-12],
                         ids=["0.4", "third+1e-12"])
def test_enumerate_optimum_skips_tuples_over_station_capacity(h_min,
                                                              monkeypatch):
    # at most two tasks fit on the station at either floor, so of the
    # default floor's priced tuples the one with all three tasks on the
    # station is skipped, not priced
    priced = _priced_tuples(monkeypatch)
    scen = generate_scenario(ScenarioConfig(**CONTESTED))
    bound = oracle.branch_bounds(scen, 0.5)
    assert np.isinf(bound[:, 0]).all() and (bound[:, 1] < bound[:, 2]).all()
    enumerate_optimum(scen, UtilityWeights(0.5))
    assert priced == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)]

    priced.clear()
    scen = generate_scenario(ScenarioConfig(**CONTESTED, h_min=h_min))
    result = enumerate_optimum(scen, UtilityWeights(0.5))
    assert priced == [(1, 1, 2), (1, 2, 1), (1, 2, 2)]
    assert result.n_priced == 3


def test_size_guard(monkeypatch):
    # the cap counts the tuples of the contested tasks, not n or s: 7 loose
    # tasks on one SBS and 2 tasks on four SBSs, which task and station caps
    # refused, are decided before the search and match the exhaustive
    # reference.  Mixed 20 tasks on two SBSs leaves 10 tasks open, 3**10
    # tuples over the cap of 5**6, and is refused before any is priced
    weights = UtilityWeights(0.5)
    for config in (dict(n_tasks=7, n_sbs=1, seed=0), dict(n_tasks=2, n_sbs=4, seed=0)):
        scen = generate_scenario(ScenarioConfig(**config))
        _assert_same_result(
            enumerate_optimum(scen, weights),
            _reference_enumerate_optimum(scen, weights, _row_cached_split()))
    priced = _priced_tuples(monkeypatch)
    scen = generate_scenario(ScenarioConfig(n_tasks=20, n_sbs=2, seed=0,
                                            c_range=(4e6, 2e7)))
    with pytest.raises(InstanceTooLargeError,
                       match="10 contested tasks give 59049 tuples"):
        enumerate_optimum(scen, weights)
    assert priced == []


def test_exact_branch_rule_never_prices_the_dearer_exact_branch(monkeypatch):
    # at alpha 0.9 with a frugal SBS both tasks meet their deadlines on the
    # terminal, yet the macro station is cheaper and the SBS bound cheaper
    # still, so both stay contested on the macro station and the SBS.  A
    # search that also tried the terminal would price tuples holding it
    priced = _priced_tuples(monkeypatch)
    scen = generate_scenario(ScenarioConfig(n_tasks=2, n_sbs=1, seed=0,
                                            t_max_range=(0.02, 0.08),
                                            e_sbs=3e-10))
    weights = UtilityWeights(0.9)
    bound = oracle.branch_bounds(scen, weights.alpha)
    assert np.isfinite(bound).all()
    assert (bound[:, 1] < bound[:, 2]).all() and (bound[:, 2] < bound[:, 0]).all()
    result = enumerate_optimum(scen, weights)
    assert result.n_contested == 2
    assert priced and all(0 not in tup for tup in priced)
    assert result.branch_table == ["mbs", "sbs1"]
    _assert_same_result(result, _reference_enumerate_optimum(scen, weights))


def test_infeasible_instance_reports_rather_than_raises():
    scen = generate_scenario(ScenarioConfig(n_tasks=1, n_sbs=1, seed=0,
                                            t_max_range=(1e-9, 1e-9)))
    result = enumerate_optimum(scen, UtilityWeights(0.5))
    assert not result.feasible
    assert result.placement is None
    assert result.n_enumerated == 3


def _random_feasible_placement(scen, rng):
    s, n = scen.n_sbs, scen.n_tasks
    c = scen.c_array()
    for _ in range(400):
        x = np.zeros((s, n))
        y = np.zeros(n)
        z = np.zeros(n)
        f = rng.dirichlet(np.ones(3), size=n)
        c0 = np.zeros((s, n))
        c1 = np.zeros((s, n))
        ci = np.zeros((s, n))
        h = np.ones((s, n))
        for j in range(n):
            b = int(rng.integers(0, s + 2))
            if b == 0:
                z[j] = 1.0
            elif b == s + 1:
                y[j] = 1.0
            else:
                x[b - 1, j] = 1.0
                c0[b - 1, j] = f[j, 0] * c[j]
                c1[b - 1, j] = f[j, 1] * c[j]
                ci[b - 1, j] = f[j, 2] * c[j]
        for i in range(s):
            members = np.nonzero(x[i] > 0)[0]
            if len(members):
                shares = rng.uniform(scen.config.h_min, 1.0, len(members))
                shares = shares / max(1.0, shares.sum())
                shares = np.maximum(shares, scen.config.h_min)
                if shares.sum() > 1.0:
                    continue
                h[i, members] = shares
        placement = Placement(x=x, y=y, z=z, c0=c0, c1=c1, ci=ci, h=h)
        if costs.check_feasibility(placement, scen).ok:
            return placement
    return None


def test_oracle_utility_lower_bounds_random_feasible_placements():
    rng = np.random.default_rng(6)
    weights = UtilityWeights(0.5)
    for seed in (0, 1, 2):
        scen = generate_scenario(ScenarioConfig(n_tasks=3, n_sbs=2, seed=seed))
        result = enumerate_optimum(scen, weights)
        assert result.feasible
        checked = 0
        while checked < 1000:
            placement = _random_feasible_placement(scen, rng)
            assert placement is not None
            util = costs.utility(placement, scen, weights)
            assert result.utility <= util + 1e-9 * (1.0 + abs(util))
            checked += 1


def test_lone_task_split_is_cheapest_at_whole_station():
    # a lone task is priced only at h = 1; that is exact because the share
    # scales only the SBS execution term, so neither cost nor delay of a
    # split can fall as the share shrinks
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(100):
        lo = float(rng.uniform(0.005, 0.1))
        scen = generate_scenario(ScenarioConfig(
            n_tasks=1, n_sbs=1, seed=int(rng.integers(0, 100000)),
            t_max_range=(lo, 1.5 * lo)))
        tables = costs.build_cost_tables(scen, float(rng.uniform(0.0, 1.0)),
                                         np.ones((1, 1)), np.zeros((1, 1)))
        hs = np.concatenate([[1.0], rng.uniform(scen.config.h_min, 1.0, 5)])
        rows = np.zeros(len(hs), dtype=np.intp)
        c0, c1, *_, ok = costs.best_splits(tables, rows, rows, hs)
        _, cost = split_cost(tables, 0, 0, c0, c1, 1.0 / hs)
        for k in range(1, len(hs)):
            if not ok[k]:
                continue
            assert ok[0], f"feasible at h={hs[k]:.3f} but not at h=1"
            assert cost[0] <= cost[k] + 1e-12 * abs(cost[k])
            checked += 1
    assert checked > 100


def test_pricer_weighs_a_member_that_misses_at_an_intermediate_share():
    # tasks 0 and 2 have no feasible split at the equal start share 1/3;
    # weighted as if the SBS ran all of them they take most of the station,
    # and at the refined shares 0.445, 0.05 and 0.505 every split meets its
    # deadline.  Task 1's split there uploads nothing, so the canonical
    # placement runs it on the terminal and shares the station between
    # tasks 0 and 2.  Rejecting the tuple at the start share would leave
    # it unpriced
    scen = generate_scenario(ScenarioConfig(n_tasks=3, n_sbs=1, seed=0,
                                            t_max_range=(0.02, 0.08)))
    memo = {}
    placement, missed, *_ = costs.price_tuple(scen, 0.5, [1, 1, 1], memo)
    assert missed is None
    # the memo keys a split search by (station, task, share, ...)
    found = {(key[1], round(key[2], 3)): split for key, split in memo.items()
             if split is not None}
    assert {(0, 0.445), (1, 0.05), (2, 0.505)} <= found.keys()
    assert found[1, 0.05][0] == scen.pricing.c[1]
    assert placement.branches() == ["sbs1", "local", "sbs1"]
    assert placement.h[0, [0, 2]] == pytest.approx([0.479, 0.521], abs=1e-3)
    assert costs.check_feasibility(placement, scen).ok


def test_pricer_names_the_first_task_whose_split_misses():
    scen = generate_scenario(ScenarioConfig(n_tasks=1, n_sbs=1, seed=0,
                                            t_max_range=(1e-9, 1e-9)))
    assert costs.price_tuple(scen, 0.5, [1], {}) == (None, 0, np.inf, None)


def test_tight_five_task_optimum_shares_the_station():
    # task 4 misses its deadline on SBS 1 at the first refined share, 0.204,
    # and meets it at the final one, 0.626; a pricer that rejected the tuple
    # there returned 0.17324260814249376, with task 3 on the macro station
    scen = generate_scenario(ScenarioConfig(n_tasks=5, n_sbs=1, seed=19,
                                            t_max_range=(0.02, 0.08)))
    result = enumerate_optimum(scen, UtilityWeights(0.5))
    assert result.utility == 0.17054100132219457
    assert result.branch_table == ["local", "local", "local", "sbs1", "sbs1"]
    assert costs.check_feasibility(result.placement, scen).ok


def test_compare_report_fields():
    scen = generate_scenario(ScenarioConfig(n_tasks=2, n_sbs=1, seed=5))
    result = enumerate_optimum(scen, UtilityWeights(0.5))
    report = compare(result.placement, result.utility, result, 0.05, scen)
    assert report["relative_gap"] == pytest.approx(0.0, abs=1e-12)
    assert report["within_tolerance"]
    assert report["branch_agreement"] == 2
    assert report["feasible"]

    # boundary semantics: exactly at tolerance passes
    report = compare(result.placement, result.utility * 1.05, result, 0.05, scen)
    assert report["within_tolerance"]

    # infeasible placements are flagged with the violated constraint kind
    bad = Placement(x=np.zeros((1, 2)), y=np.zeros(2), z=np.zeros(2),
                    c0=np.zeros((1, 2)), c1=np.zeros((1, 2)),
                    ci=np.zeros((1, 2)), h=np.ones((1, 2)))
    report = compare(bad, 0.0, result, 0.05, scen)
    assert not report["feasible"]
    assert ("assignment", 0) in report["violations"]


# -- reference: the search without a memo ------------------------------------

def _fresh_split(tables, i, j, h):
    """One uncached row of the shared pricer, in the oracle's form."""
    c0, c1, *_, ok = costs.best_splits(tables, np.array([i]), np.array([j]),
                                       np.array([h]))
    return (c0[0], c1[0]) if ok[0] else None


def _row_cached_split():
    """`_fresh_split` behind a cache keyed on every `CostTables` entry of
    the row, taken field by field rather than from the oracle's memo key,
    so that the exhaustive reference stays affordable at five and six
    tasks."""
    cache = {}

    def split(tables, i, j, h):
        key = [i, j, h]
        # `exact_ok` is (2, n), not per (SBS, task); j fixes its column
        for f in fields(tables):
            if f.name == "exact_ok":
                continue
            value = getattr(tables, f.name)
            key.append(value[i, j] if np.ndim(value) == 2
                       else value[j] if np.ndim(value) == 1 else value)
        key = tuple(key)
        if key not in cache:
            cache[key] = _fresh_split(tables, i, j, h)
        return cache[key]

    return split


def _reference_share_allocation(tables, members, i, h_min, split_search):
    """The share step of `costs.price_tuple` without its memo: every member
    split is a fresh `split_search` call, and a member with no feasible
    split at an intermediate share is weighted as if the SBS ran all of
    it."""
    if len(members) == 1:
        return {members[0]: 1.0}

    shares = {j: min(1.0, 1.0 / len(members)) for j in members}
    if min(shares.values()) < h_min:
        return None
    for _ in range(2):
        weights = {}
        for j in members:
            split = split_search(tables, i, j, shares[j])
            ci = (tables.c[j] if split is None
                  else tables.c[j] - split[0] - split[1])
            weights[j] = max(tables.alpha * tables.u_over_fs[i, j] * ci, 1e-30)
        shares = floored_proportions(
            {j: float(np.sqrt(w)) for j, w in weights.items()}, h_min)
    return shares


def _reference_price(scenario, alpha, tup, split_search):
    """The placement of one tuple as `costs.price_tuple` prices it, without
    its memo and its shortcuts: a fresh `split_search` call for every
    request, two table sweeps, and the canonical rule applied by pricing
    the whole tuple again with every SBS task whose split uploads nothing
    on the terminal.  None where a split misses its deadline or a station
    is over its floor."""
    s, n = scenario.n_sbs, scenario.n_tasks
    h_min = scenario.config.h_min
    hard_x, y, z = costs.hard_assignment(tup, s)
    c0 = np.zeros((s, n))
    c1 = np.zeros((s, n))
    ci = np.zeros((s, n))
    h = np.ones((s, n))
    for _ in range(2):
        tables = costs.build_cost_tables(scenario, alpha, hard_x, c1)
        for i in range(s):
            members = [j for j, b in enumerate(tup) if b == i + 1]
            if not members:
                continue
            shares = _reference_share_allocation(tables, members, i, h_min,
                                                 split_search)
            if shares is None:
                return None
            for j in members:
                split = split_search(tables, i, j, shares[j])
                if split is None:
                    return None
                c0[i, j], c1[i, j] = split[0], split[1]
                ci[i, j] = tables.c[j] - split[0] - split[1]
                h[i, j] = shares[j]
    idle = [0 < b <= s and c0[b - 1, j] == tables.c[j]
            for j, b in enumerate(tup)]
    if any(idle):
        return _reference_price(scenario, alpha,
                                [0 if k else b for k, b in zip(idle, tup)],
                                split_search)
    return Placement(x=hard_x, y=y, z=z, c0=c0, c1=c1, ci=ci, h=h)


def _reference_enumerate_optimum(scenario, weights, split_search=_fresh_split,
                                 priced=None):
    """`oracle.enumerate_optimum` as it was before the memo and the
    pruning: every tuple in lexicographic order, priced by
    `_reference_price`, with a feasibility check before the utility of
    every tuple.  Each (tuple, utility) it computes is appended to `priced`
    when given."""
    s, n = scenario.n_sbs, scenario.n_tasks
    alpha = weights.alpha
    t_max = scenario.t_max_array()
    cap = int(np.floor(1.0 / scenario.config.h_min + 1e-9))

    base_tables = costs.build_cost_tables(
        scenario, alpha, np.zeros((s, n)), np.zeros((s, n)))

    best_util = np.inf
    best_placement = None
    best_branches = None
    n_enumerated = 0

    for tup in itertools.product(range(s + 2), repeat=n):
        n_enumerated += 1
        ok = True
        for j, b in enumerate(tup):
            if b == 0 and not costs.meets_deadline(base_tables.t_local[j],
                                                   t_max[j]):
                ok = False
                break
            if b == s + 1 and not costs.meets_deadline(base_tables.t_mbs[j],
                                                       t_max[j]):
                ok = False
                break
        if not ok:
            continue
        counts = [sum(1 for b in tup if b == i + 1) for i in range(s)]
        if any(cnt > cap for cnt in counts):
            continue

        placement = _reference_price(scenario, alpha, tup, split_search)
        if placement is None or not costs.check_feasibility(placement, scenario):
            continue
        util = costs.utility(placement, scenario, weights)
        if priced is not None:
            priced.append((tup, util))
        if util < best_util:
            best_util = util
            best_placement = placement
            best_branches = placement.branches()

    if best_placement is None:
        return oracle.OracleResult(placement=None, utility=np.inf,
                                   branch_table=[], n_enumerated=n_enumerated,
                                   feasible=False)
    return oracle.OracleResult(placement=best_placement, utility=float(best_util),
                               branch_table=best_branches,
                               n_enumerated=n_enumerated, feasible=True)


def _criterion_3_instances(trials):
    # the instance stream of test_criterion_3_oracle_equivalence
    rng = np.random.default_rng(7)
    for trial in range(max(trials) + 1):
        n_tasks = int(rng.integers(1, 5))
        n_sbs = int(rng.integers(0, 3))
        tight = trial % 3 == 0
        scen = generate_scenario(ScenarioConfig(
            n_tasks=n_tasks, n_sbs=n_sbs, seed=int(rng.integers(0, 100000)),
            t_max_range=(0.02, 0.08) if tight else (15.0, 30.0)))
        if trial in trials:
            yield scen


def _assert_same_result(memoised, fresh):
    assert memoised.utility == fresh.utility
    assert memoised.branch_table == fresh.branch_table
    assert memoised.n_enumerated == fresh.n_enumerated
    assert memoised.feasible == fresh.feasible
    assert (memoised.placement is None) == (fresh.placement is None)
    if fresh.placement is not None:
        for name in ("x", "y", "z", "c0", "c1", "ci", "h"):
            assert np.array_equal(getattr(memoised.placement, name),
                                  getattr(fresh.placement, name)), name


def test_memoised_oracle_bit_identical_to_fresh_search():
    weights = UtilityWeights(0.5)
    # the first 12 criterion-3 instances and instance 24, where the second
    # sweep's relay coefficients change a split search the first sweep ran;
    # on 3-task seed 1 at the tightest deadlines, interference from the
    # other station changes the upload rate of a search another tuple ran
    cases = list(_criterion_3_instances(set(range(12)) | {24}))
    cases += [generate_scenario(ScenarioConfig(
        n_tasks=n, n_sbs=2, seed=seed, t_max_range=t_max_range))
        for n, seed, t_max_range in ((3, 1, (0.01, 0.03)),
                                     (4, 1, (0.02, 0.08)),
                                     (4, 2, (15.0, 30.0)),
                                     (3, 5, (15.0, 30.0)))]
    for scen in cases:
        _assert_same_result(enumerate_optimum(scen, weights),
                            _reference_enumerate_optimum(scen, weights))
    # at five and six tasks on two stations, loose and tight, the branch
    # and bound against every tuple; the tight instances prune beyond the
    # macro branch, and every best tuple holds an SBS task
    for n, seed, t_max_range in ((5, 5, (0.02, 0.08)), (5, 1, (15.0, 30.0)),
                                 (6, 4, (0.02, 0.08)), (6, 2, (15.0, 30.0))):
        scen = generate_scenario(ScenarioConfig(
            n_tasks=n, n_sbs=2, seed=seed, t_max_range=t_max_range))
        _assert_same_result(
            enumerate_optimum(scen, weights),
            _reference_enumerate_optimum(scen, weights, _row_cached_split()))


def test_oracle_matches_lattice_split_search():
    # the oracle's splits come from the solver's analytic pricer; with the
    # independent lattice search in its place the enumeration must reach
    # the same optimum on every criterion-3 instance
    weights = UtilityWeights(0.5)
    checked = 0
    for scen in _criterion_3_instances(set(range(50))):
        analytic = enumerate_optimum(scen, weights)
        lattice = _reference_enumerate_optimum(scen, weights, lattice_split)
        assert analytic.feasible == lattice.feasible
        assert analytic.branch_table == lattice.branch_table
        if lattice.feasible:
            assert analytic.utility == pytest.approx(lattice.utility,
                                                     rel=1e-12, abs=0.0)
            checked += 1
    assert checked == 50


def test_split_memo_lives_for_one_call(monkeypatch):
    searches = []
    search = costs.best_splits

    def counting(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(costs, "best_splits", counting)
    scen = generate_scenario(ScenarioConfig(n_tasks=3, n_sbs=2, seed=0))
    weights = UtilityWeights(0.5)
    counts = []
    for _ in range(2):
        searches.clear()
        enumerate_optimum(scen, weights)
        counts.append(len(searches))
    searches.clear()
    _reference_enumerate_optimum(scen, weights)
    assert counts[0] == counts[1] > 0
    assert counts[0] < len(searches)


def test_oracle_skips_redundant_table_builds(monkeypatch):
    # a tuple with no SBS task builds no tables, and a second sweep runs
    # only after a first one that forwarded work to the macro station;
    # a placement's utility and feasibility are priced on the tables its
    # pricing built, or on none when no task is on an SBS
    builds = []
    build = costs.build_cost_tables

    def counting(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(costs, "build_cost_tables", counting)
    priced = _priced_tuples(monkeypatch)
    weights = UtilityWeights(0.5)
    macro_only = generate_scenario(ScenarioConfig(n_tasks=3, n_sbs=0, seed=0))
    assert enumerate_optimum(macro_only, weights).feasible
    assert len(builds) == 1  # the bounds' tables

    contested = generate_scenario(ScenarioConfig(**CONTESTED))
    builds.clear()
    priced.clear()
    result = enumerate_optimum(contested, weights)
    n_builds = len(builds)
    # the bounds' tables come first, and nothing else builds before the
    # search.  Every tuple
    # priced puts a task on the station, and no split here forwards work,
    # so each of them takes one sweep and its tables price the placement
    assert len(priced) == result.n_priced == 4
    assert n_builds == 1 + 4
    builds.clear()
    fresh = _reference_enumerate_optimum(contested, weights)
    assert n_builds < len(builds)
    _assert_same_result(result, fresh)


def test_dominance_prune_keeps_the_exhaustive_canonical_optimum():
    # the bound and the dominance rule skip no tuple that the exhaustive
    # search over canonical tuples would return: same utility bit for bit,
    # same branch table, same placement, at up to 4**5 tuples.  At the
    # default SBS speed and energy a station beats a task's terminal only
    # where the terminal misses its deadline; a faster or more frugal one
    # also beats a terminal that meets it, which the rule must not prune,
    # and it hosts several tasks, whose shares the rule assumes
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    regimes = {"tight": dict(t_max_range=(0.02, 0.08)), "loose": dict(),
               "mixed": dict(c_range=(4e6, 2e7))}

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 5), s=st.integers(0, 2),
           seed=st.integers(0, 100000), regime=st.sampled_from(sorted(regimes)),
           f_sbs=st.sampled_from([2e10, 1e11]),
           e_sbs=st.sampled_from([1.5e-9, 3e-10, 1e-10]),
           alpha=st.floats(0.0, 1.0))
    def check(n, s, seed, regime, f_sbs, e_sbs, alpha):
        scen = generate_scenario(ScenarioConfig(
            n_tasks=n, n_sbs=s, seed=seed, f_sbs=f_sbs, e_sbs=e_sbs,
            **regimes[regime]))
        weights = UtilityWeights(alpha)
        _assert_same_result(
            enumerate_optimum(scen, weights),
            _reference_enumerate_optimum(scen, weights, _row_cached_split()))

    check()


def test_loose_eight_tasks_price_one_tuple():
    # every task of a loose instance is decided for the terminal before the
    # search, so the oracle prices the all-terminal tuple alone; the
    # exhaustive order holds 3**8 = 6561 terminal-and-SBS tuples
    scen = generate_scenario(ScenarioConfig(n_tasks=8, n_sbs=2, seed=0))
    result = enumerate_optimum(scen, UtilityWeights(0.5))
    assert result.n_priced == 1 and result.n_contested == 0
    assert result.branch_table == ["local"] * 8


def test_loose_thousand_tasks_price_the_all_terminal_tuple():
    # the 1000-task, 5-SBS benchmark scenario: dominance decides every task,
    # so the search has no depth and prices the all-terminal tuple alone
    scen = generate_scenario(ScenarioConfig(n_tasks=1000, n_sbs=5, seed=42))
    result = enumerate_optimum(scen, UtilityWeights(0.5))
    assert result.n_priced == 1 and result.n_contested == 0
    assert result.branch_table == ["local"] * 1000


# -- the pruning bound -------------------------------------------------------

def _per_station_bounds(scen, base):
    """`branch_bounds` built station by station: one table per SBS with
    that station's row of x all ones and nothing forwarded, and the chosen
    split re-priced on it, or `k_local` where it uploads nothing."""
    s, n = scen.n_sbs, scen.n_tasks
    a = base.alpha
    bound = np.empty((n, s + 2))
    for b, delay, k in ((0, base.t_local, base.k_local),
                        (s + 1, base.t_mbs, base.k_mbs)):
        bound[:, b] = np.where(costs.meets_deadline(delay, base.t_max), k,
                               np.inf)
    tasks = np.arange(n)
    for i in range(s):
        x = np.zeros((s, n))
        x[i] = 1.0
        alone = costs.build_cost_tables(scen, a, x, np.zeros((s, n)))
        rows = np.full(n, i)
        c0, c1, *_, ok = costs.best_splits(alone, rows, tasks, np.ones(n))
        delay, energy = alone.split_price(c0, c1, alone.c - c0 - c1, 1.0,
                                          rows, tasks)
        cost = np.where(c0 == alone.c, alone.k_local, a * delay + (1.0 - a) * energy)
        bound[:, i + 1] = np.where(ok, cost, np.inf)
    return bound


def test_branch_bounds_equal_the_per_station_rebuild():
    # the one lone-task table prices every SBS column bit for bit as one
    # table per station does, over 0-2 stations, tight, loose and mixed
    # instances, and alpha at 0, 1 and in between
    rng = np.random.default_rng(14)
    regimes = (dict(t_max_range=(0.02, 0.08)), dict(),
               dict(c_range=(4e6, 2e7)))
    finite = infinite = 0
    for trial in range(36):
        s, n = trial % 3, int(rng.integers(1, 7))
        alpha = [0.0, 1.0, 0.5, float(rng.uniform())][trial % 4]
        scen = generate_scenario(ScenarioConfig(
            n_tasks=n, n_sbs=s, seed=int(rng.integers(0, 100000)),
            f_sbs=10 ** rng.uniform(8.0, 10.5), o1=10 ** rng.uniform(-12, -6),
            **regimes[trial // 3 % 3]))
        base = costs.build_cost_tables(scen, alpha, np.zeros((s, n)),
                                       np.zeros((s, n)))
        got = oracle.branch_bounds(scen, alpha)
        assert got.tobytes() == _per_station_bounds(scen, base).tobytes()
        finite += int(np.isfinite(got[:, 1:s + 1]).sum())
        infinite += int(np.isinf(got[:, 1:s + 1]).sum())
    assert finite >= 60 and infinite >= 10


def test_branch_bounds_are_admissible():
    # every tuple the exhaustive reference prices costs at least the sum
    # of its branches' bounds, less the pruning margin; a slow station and
    # a steep relay make splits forward work, so relay congestion shows
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), s=st.integers(0, 2),
           seed=st.integers(0, 100000), tight=st.booleans(),
           alpha=st.floats(0.0, 1.0), f_sbs=st.sampled_from([2e10, 1e9]),
           o1=st.sampled_from([1e-9, 1e-7]))
    def check(n, s, seed, tight, alpha, f_sbs, o1):
        scen = generate_scenario(ScenarioConfig(
            n_tasks=n, n_sbs=s, seed=seed, f_sbs=f_sbs, o1=o1,
            t_max_range=(0.02, 0.08) if tight else (15.0, 30.0)))
        bound = oracle.branch_bounds(scen, alpha)
        priced = []
        _reference_enumerate_optimum(scen, UtilityWeights(alpha),
                                     _row_cached_split(), priced)
        for tup, util in priced:
            low = sum(bound[j, b] for j, b in enumerate(tup))
            assert util >= low * (1.0 - oracle.BOUND_MARGIN), (tup, util, low)

    check()


def test_sbs_bound_is_the_deadline_feasible_split_optimum_alone():
    # each SBS bound is the cheapest deadline-feasible split at the whole
    # station with no interference and no relay base load, +inf where no
    # split meets the deadline there; the lattice search on the same
    # tables agrees to rounding, including forwarded splits
    rng = np.random.default_rng(11)
    checked = missed = 0
    for trial in range(40):
        s, n = int(rng.integers(1, 3)), int(rng.integers(1, 5))
        alpha = float(rng.uniform(0.05, 1.0))
        scen = generate_scenario(ScenarioConfig(
            n_tasks=n, n_sbs=s, seed=int(rng.integers(0, 100000)),
            f_sbs=10 ** rng.uniform(8.0, 10.5), o1=10 ** rng.uniform(-12, -6),
            t_max_range=(0.02, 0.08) if trial % 2 else (15.0, 30.0)))
        bound = oracle.branch_bounds(scen, alpha)
        for i in range(s):
            x = np.zeros((s, n))
            x[i] = 1.0
            alone = costs.build_cost_tables(scen, alpha, x, np.zeros((s, n)))
            for j in range(n):
                ref = lattice_split(alone, i, j, 1.0)
                if ref is None:
                    assert bound[j, i + 1] == np.inf
                    missed += 1
                else:
                    assert bound[j, i + 1] == pytest.approx(ref[2], rel=1e-12,
                                                            abs=0.0)
                checked += 1
    assert checked > 100 and missed > 0
