import dataclasses

import numpy as np
import pytest

from edgealloc import costs
from edgealloc.costs import (Placement, UtilityWeights, check_feasibility,
                             utility)
from edgealloc.errors import ConfigurationError
from edgealloc.local_blocks import LocalProblem
from edgealloc.scenario import Scenario, ScenarioConfig, generate_scenario


def _scenario(**overrides):
    base = dict(n_tasks=1, n_sbs=1, seed=0, c_range=(1e4, 1e4),
                t_max_range=(20.0, 20.0))
    base.update(overrides)
    return generate_scenario(ScenarioConfig(**base))


def _with_mbs_snr(scen, snr):
    """The same scenario with the macro uplink gain set so that the
    signal-to-noise ratio of every task's upload is `snr`."""
    channel = scen.channel
    gain = channel.gain.copy()
    gain[0, :] = snr * channel.noise_power / scen.mbs.tx_power_density
    return dataclasses.replace(scen, channel=dataclasses.replace(channel,
                                                                 gain=gain))


def _split_tables(scen, **overrides):
    """Cost tables of a one-task, one-SBS scenario with the task on the
    SBS, some coefficients replaced by hand values."""
    tables = costs.build_cost_tables(scen, 0.5, np.ones((1, 1)),
                                     np.zeros((1, 1)))
    return dataclasses.replace(
        tables, **{k: np.full((1, 1), v) for k, v in overrides.items()})


def test_local_delay_matches_hand_value():
    assert _scenario().pricing.t_local[0] == pytest.approx(0.036)
    tiny = _scenario(c_range=(1e-12, 1e-12))
    assert tiny.pricing.t_local[0] == pytest.approx(0.0, abs=1e-15)
    fast = _scenario(f_local=1e10)
    assert fast.pricing.t_local[0] == pytest.approx(0.018)


def test_local_energy_matches_hand_value():
    scen = _scenario(e_local=2.5e-7)
    assert scen.pricing.e_local_task[0] == pytest.approx(45.0)
    double = _scenario(e_local=2.5e-7, c_range=(2e4, 2e4))
    assert double.pricing.e_local_task[0] == pytest.approx(90.0)


def test_mbs_uplink_time_examples():
    scen = _scenario(c_range=(5000.0, 5000.0))
    exec_time = 5000.0 * 18000.0 / 1e11
    t = _with_mbs_snr(scen, 1023.0).pricing.t_mbs[0] - exec_time
    assert t == pytest.approx(2.5e-5)
    # snr of one means the rate equals the bandwidth
    t1 = _with_mbs_snr(scen, 1.0).pricing.t_mbs[0] - exec_time
    assert t1 == pytest.approx(5000.0 / 20e6)
    tiny = _with_mbs_snr(_scenario(c_range=(1e-300, 1e-300)), 1023.0)
    assert tiny.pricing.t_mbs[0] == pytest.approx(0.0, abs=1e-300)


def test_mbs_total_delay_sums_upload_and_compute():
    scen = _with_mbs_snr(_scenario(c_range=(5000.0, 5000.0)), 1023.0)
    assert scen.pricing.t_mbs[0] == pytest.approx(9.25e-4)


def test_mbs_energy_example():
    scen = _with_mbs_snr(_scenario(c_range=(5000.0, 5000.0), e_mbs=1e-7),
                         1023.0)
    assert scen.pricing.e_mbs_task[0] == pytest.approx(9.0000025)


def test_three_tier_delay_worked_example():
    tables = _split_tables(_scenario(c_range=(9000.0, 9000.0)),
                           rate=2e8, w2=0.0, w1=0.0, w0=0.012)
    delay, _ = tables.split_price(3000.0, 3000.0, 3000.0, 2.0, 0, 0)
    assert delay == pytest.approx(0.02877)


def test_three_tier_delay_degenerate_split_equals_local():
    scen = _scenario()
    tables = _split_tables(scen, rate=2e8)
    c = scen.c_array()[None, :]
    d, _ = tables.split_price(c, np.zeros((1, 1)), np.zeros((1, 1)), 1.0)
    assert d[0, 0] == pytest.approx(scen.pricing.t_local[0])


def test_three_tier_delay_share_proportionality():
    scen = _scenario(c_range=(9000.0, 9000.0))
    tables = _split_tables(scen, rate=2e8)
    full, _ = tables.split_price(0.0, 0.0, 9000.0, 1.0, 0, 0)
    half, _ = tables.split_price(0.0, 0.0, 9000.0, 2.0, 0, 0)
    # only the station compute term depends on the share here
    upload = 9000.0 / 2e8
    assert (half - upload) == pytest.approx(2.0 * (full - upload))


def test_three_tier_energy_worked_example():
    scen = _scenario(c_range=(9000.0, 9000.0), e_local=2.5e-7, e_sbs=2e-7,
                     e_mbs=1e-7, sbs_mbs_tx_power=1.0)
    # upload of 6000 bits in 3e-5 s at 0.1 W; 0.012 s of relay at 1 W
    tables = _split_tables(scen, e_up=0.1 * 3e-5 / 6000.0,
                           transfer_coef=0.012 / 3000.0)
    _, e = tables.split_price(*np.full((3, 1, 1), 3000.0), 1.0)
    assert e[0, 0] == pytest.approx(29.712)


def test_three_tier_energy_degenerate_and_zero():
    scen = _scenario(e_local=2.5e-7)
    tables = _split_tables(scen)
    zero = np.zeros((1, 1))
    _, e = tables.split_price(scen.c_array()[None, :], zero, zero, 1.0)
    assert e[0, 0] == pytest.approx(scen.pricing.e_local_task[0])
    # with no radio energy, a split that runs nothing costs nothing
    silent = _split_tables(scen, e_up=0.0)
    assert silent.split_price(zero, zero, zero, 1.0)[1][0, 0] == 0.0


def test_three_tier_energy_linear_in_each_part():
    tables = _split_tables(_scenario())

    def e(c0, c1, ci):
        return tables.split_price(*np.array([c0, c1, ci])[:, None, None],
                                  1.0)[1][0, 0]

    for moving in range(3):
        vals = []
        for a in (0.0, 500.0, 1000.0):
            parts = [200.0, 300.0, 400.0]
            parts[moving] = a
            vals.append(e(*parts))
        assert (vals[2] - vals[1]) == pytest.approx(vals[1] - vals[0])


def test_utility_single_local_task():
    scen = _scenario(e_local=2.5e-7)
    placement = Placement(x=np.zeros((1, 1)), y=np.zeros(1), z=np.ones(1),
                          c0=np.zeros((1, 1)), c1=np.zeros((1, 1)),
                          ci=np.zeros((1, 1)), h=np.ones((1, 1)))
    assert utility(placement, scen, UtilityWeights(0.5)) == pytest.approx(22.518)
    assert utility(placement, scen, UtilityWeights(1.0)) == pytest.approx(0.036)
    assert utility(placement, scen, UtilityWeights(0.0)) == pytest.approx(45.0)


def test_costs_are_nonnegative_on_random_inputs():
    rng = np.random.default_rng(0)
    scen = generate_scenario(ScenarioConfig(n_tasks=6, n_sbs=2, seed=3))
    for _ in range(50):
        x = rng.uniform(0, 1, (2, 6))
        x /= 3 * x.sum(axis=0, keepdims=True)
        rest = 1 - x.sum(axis=0)
        y = rng.uniform(0, 1, 6) * rest
        z = rest - y
        c = scen.c_array()
        f0 = rng.uniform(0, 1, (2, 6))
        f1 = rng.uniform(0, 1, (2, 6)) * (1 - f0)
        placement = Placement(x=x, y=y, z=z, c0=f0 * c, c1=f1 * c,
                              ci=(1 - f0 - f1) * c, h=np.ones((2, 6)))
        delay, energy = costs.placement_costs(placement, scen)
        assert np.all(delay >= 0) and np.all(energy >= 0)


def test_deadline_check_flags_per_task():
    scen = _scenario(t_max_range=(0.01, 0.01))  # local delay 0.036 > deadline
    placement = Placement(x=np.zeros((1, 1)), y=np.zeros(1), z=np.ones(1),
                          c0=np.zeros((1, 1)), c1=np.zeros((1, 1)),
                          ci=np.zeros((1, 1)), h=np.ones((1, 1)))
    report = check_feasibility(placement, scen)
    assert not report.ok
    assert ("deadline", 0) in report.violations


def test_capacity_and_assignment_checks():
    scen = generate_scenario(ScenarioConfig(n_tasks=2, n_sbs=1, seed=0,
                                            h_min=0.6))
    c = scen.c_array()
    both_on_sbs = Placement(x=np.ones((1, 2)), y=np.zeros(2), z=np.zeros(2),
                            c0=np.zeros((1, 2)), c1=np.zeros((1, 2)),
                            ci=np.tile(c, (1, 1)), h=np.full((1, 2), 0.7))
    report = check_feasibility(both_on_sbs, scen)
    assert ("capacity", 0) in report.violations

    unassigned = Placement(x=np.zeros((1, 2)), y=np.zeros(2), z=np.zeros(2),
                           c0=np.zeros((1, 2)), c1=np.zeros((1, 2)),
                           ci=np.zeros((1, 2)), h=np.ones((1, 2)))
    report = check_feasibility(unassigned, scen)
    assert ("assignment", 0) in report.violations


def test_utility_weights_bounds():
    with pytest.raises(ConfigurationError):
        UtilityWeights(1.5)
    with pytest.raises(ConfigurationError):
        UtilityWeights(-0.1)


# -- scenario-constant pricing bundle -----------------------------------------

def _reference_tables(scen, alpha, x, c1):
    """The per-element loops that priced a call before the relay incidence:
    element loads by walking every (SBS, task, route element), then w2/w1/w0
    by walking them again; rates, transfer and tier coefficients rebuilt
    from the scenario objects."""
    s, n = scen.n_sbs, scen.n_tasks
    graph = scen.graph
    loads = {eid: 0.0 for eid in graph.forwarding_units}
    loads.update({eid: 0.0 for eid in graph.links})
    for i in range(s):
        for j in range(n):
            contribution = x[i, j] * c1[i, j]
            if contribution <= 0:
                continue
            for _, eid in graph.relay_routes[scen.sbs_list[i].id]:
                loads[eid] += contribution
    w2, w1, w0 = np.zeros((s, n)), np.zeros((s, n)), np.zeros((s, n))
    for i in range(s):
        for j in range(n):
            own = x[i, j] * c1[i, j]
            xw = x[i, j]
            for kind, eid in graph.relay_routes[scen.sbs_list[i].id]:
                base = max(loads[eid] - own, 0.0)
                if kind == "unit":
                    fu = graph.forwarding_units[eid]
                    w2[i, j] += xw * xw * fu.o1
                    w1[i, j] += xw * (2.0 * fu.o1 * base + fu.o2)
                    w0[i, j] += (fu.o1 * base + fu.o2) * base
                else:
                    cap = graph.links[eid].capacity
                    w1[i, j] += xw / cap
                    w0[i, j] += base / cap

    c = scen.c_array()
    wired = np.where(c1 > 0, w2 * c1 * c1 + w1 * c1 + w0, 0.0)
    transfer_coef = scen.channel.offload_power_sbs_mbs * wired / c[None, :]

    rate = np.zeros((0, n))
    if s:
        gain_s = scen.channel.gain[1:, :]
        power = np.array([st.tx_power_density for st in scen.sbs_list])[:, None]
        bw = np.array([st.bandwidth for st in scen.sbs_list])[:, None]
        w = gain_s * (x.sum(axis=0)[None, :] - x)
        interf = power * (w.sum(axis=1, keepdims=True) - w)
        snr = power * gain_s / (scen.channel.noise_power + interf)
        rate = np.maximum(bw * np.log2(1.0 + snr), 1e-12)

    dev, mbs = scen.device, scen.mbs
    u = scen.u_array()
    snr_m = mbs.tx_power_density * scen.channel.gain[0, :] / scen.channel.noise_power
    uplink = c / np.maximum(mbs.bandwidth * np.log2(1.0 + snr_m), 1e-12)
    k_local = alpha * (c * u / dev.f_local) + (1.0 - alpha) * (c * u * dev.e_local)
    k_mbs = (alpha * (uplink + c * u / mbs.f)
             + (1.0 - alpha) * (dev.tx_power * uplink + c * u * mbs.e_cycle))
    return dict(w2=w2, w1=w1, w0=w0, transfer_coef=transfer_coef, rate=rate,
                k_local=k_local, k_mbs=k_mbs)


def _rewired(scen, rng):
    """The same scenario with every SBS's relay route replaced by a random
    sequence of the graph's elements: mixed kinds at each position, routes
    of different lengths (some empty), elements shared across stations."""
    doc = scen.to_dict()
    pool = ([("unit", u["id"]) for u in doc["graph"]["forwarding_units"]]
            + [("link", l["id"]) for l in doc["graph"]["links"]])
    for route in doc["graph"]["relay_routes"]:
        picks = rng.permutation(len(pool))[:int(rng.integers(0, 5))]
        route["elements"] = [list(pool[k]) for k in picks]
    return Scenario.from_dict(doc)


def _random_state(scen, rng):
    """Assignments with entries at exactly 0 and 1, forwarded parts with zeros."""
    s, n = scen.n_sbs, scen.n_tasks
    x = rng.uniform(0.0, 1.0, (s, n))
    x[rng.uniform(size=(s, n)) < 0.25] = 0.0
    x[rng.uniform(size=(s, n)) < 0.25] = 1.0
    c1 = rng.uniform(0.0, 1.0, (s, n)) * scen.c_array()[None, :]
    c1[rng.uniform(size=(s, n)) < 0.3] = 0.0
    return x, c1


def test_cost_tables_bit_identical_to_per_element_loop():
    rng = np.random.default_rng(5)
    cases = [(s, n) for s in range(4) for n in range(1, 7)] + [(5, 100)]
    for s, n in cases:
        scen = generate_scenario(ScenarioConfig(
            n_tasks=n, n_sbs=s, seed=int(rng.integers(0, 100000))))
        for variant in (scen, _rewired(scen, rng)):
            for _ in range(2):
                x, c1 = _random_state(variant, rng)
                alpha = float(rng.choice([0.0, rng.uniform(), 1.0]))
                tables = costs.build_cost_tables(variant, alpha, x, c1)
                expected = _reference_tables(variant, alpha, x, c1)
                for name, want in expected.items():
                    assert np.array_equal(getattr(tables, name), want), (
                        f"{name} differs at s={s}, n={n}")


def test_lone_tables_price_each_task_alone():
    # rates with no interference, relay coefficients of a route loaded by
    # its task alone, and no transfer energy: the loop reference at zero
    # assignment, with w2/w1/w0 at unit assignment, nothing forwarded
    rng = np.random.default_rng(16)
    for s, n in ((0, 3), (1, 1), (2, 5), (3, 8)):
        scen = generate_scenario(ScenarioConfig(
            n_tasks=n, n_sbs=s, seed=int(rng.integers(0, 100000))))
        for variant in (scen, _rewired(scen, rng)):
            alpha = float(rng.uniform())
            zero = np.zeros((s, n))
            lone = costs.lone_tables(variant, alpha)
            want = _reference_tables(variant, alpha, zero, zero)
            relay = _reference_tables(variant, alpha, zero + 1.0, zero)
            want.update({k: relay[k] for k in ("w2", "w1", "w0")})
            for name, value in want.items():
                assert np.array_equal(getattr(lone, name), value), name
            assert not lone.transfer_coef.any()


def test_lone_share_curve_never_rises_with_the_share():
    # a lone task is priced at h = 1 by `price_tuple` and bounded there by
    # `oracle.branch_bounds`: on the lone table a larger share must never
    # make the best split dearer, beyond the rounding of the closed-form
    # candidates (up to 2.4e-14 relative on tight seeds 15 and 19), or
    # refuse a split a smaller one admits
    checked = 0
    for regime in (dict(), dict(t_max_range=(0.02, 0.08)),
                   dict(c_range=(4e6, 2e7))):
        for seed in range(30):
            scen = generate_scenario(ScenarioConfig(n_tasks=10, n_sbs=3,
                                                    seed=seed, **regime))
            shares = np.linspace(scen.config.h_min, 1.0, 40)
            i, j, k = (a.ravel() for a in np.indices((3, 10, 40)))
            for alpha in (0.1, 0.5, 0.9):
                *_, cost, ok = costs.best_splits(
                    costs.lone_tables(scen, alpha), i, j, shares[k])
                cost, ok = cost.reshape(30, 40), ok.reshape(30, 40)
                assert not (ok[:, :-1] & ~ok[:, 1:]).any(), (regime, seed)
                both = ok[:, :-1] & ok[:, 1:]
                prev = cost[:, :-1][both]
                assert (cost[:, 1:][both] <= prev + 1e-12 * prev).all(), (
                    regime, seed, alpha)
                checked += 2 * both.sum()
    assert checked > 100000


def test_split_price_gathers_pairs_and_placement_costs_take_given_tables():
    # `split_price` at gathered (SBS, task) index arrays prices every pair
    # bit for bit as over all pairs, and `placement_costs` on the tables the
    # consensus loop carries into its next iteration equals its own build,
    # whatever alpha either was built at
    rng = np.random.default_rng(12)
    for s, n in ((1, 1), (2, 5), (3, 8)):
        scen = generate_scenario(ScenarioConfig(n_tasks=n, n_sbs=s, seed=s))
        x, c1 = _random_state(scen, rng)
        h = rng.uniform(0.05, 1.0, (s, n))
        h[rng.uniform(size=(s, n)) < 0.3] = 0.0
        c = scen.c_array()[None, :]
        c0 = rng.uniform(0.0, 1.0, (s, n)) * (c - c1)
        ci = c - c0 - c1
        placement = Placement(x=x, y=np.zeros(n), z=np.zeros(n),
                              c0=c0, c1=c1, ci=ci, h=h)
        r = rng.uniform(1.0, 20.0, (s, n))
        tables = costs.build_cost_tables(scen, 0.3, x, c1)
        i, j = (k.ravel() for k in np.indices((s, n)))
        every = tables.split_price(c0, c1, ci, r)
        gathered = tables.split_price(c0[i, j], c1[i, j], ci[i, j], r[i, j],
                                      i, j)
        for whole, pairs in zip(every, gathered):
            assert np.array_equal(whole.ravel(), pairs)
        # the given tables are at alpha 0.3, the built ones at the default
        given = costs.placement_costs(placement, scen, tables)
        built = costs.placement_costs(placement, scen)
        for a, b in zip(given, built):
            assert np.array_equal(a, b)


def test_shared_pricing_arrays_are_read_only():
    scen = generate_scenario(ScenarioConfig(n_tasks=4, n_sbs=2, seed=3))
    pricing = scen.pricing
    shared = [v for v in vars(pricing).values() if isinstance(v, np.ndarray)]
    shared += [v for v in vars(pricing.relay).values() if isinstance(v, np.ndarray)]
    assert len(shared) == 22
    for arr in shared:
        with pytest.raises(ValueError):
            arr[...] = 0
    x, c1 = np.full((2, 4), 0.3), np.tile(scen.c_array() / 3, (2, 1))
    tables = costs.build_cost_tables(scen, 0.5, x, c1)
    problem = LocalProblem.from_tables(tables, np.ones((2, 4)), x,
                                       np.zeros((2, 4)), 1.0, 0.3)
    for arr in (tables.c, tables.t_local, tables.u_over_fs, problem.c):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_exact_ok_is_each_exact_branch_alone_against_its_deadline():
    for config in (ScenarioConfig(n_tasks=30, n_sbs=3, seed=1),
                   ScenarioConfig(n_tasks=30, n_sbs=3, seed=1,
                                  t_max_range=(0.02, 0.08)),
                   ScenarioConfig(n_tasks=30, n_sbs=0, seed=2,
                                  t_max_range=(0.02, 0.08))):
        pc = generate_scenario(config).pricing
        want = [costs.meets_deadline(delay, pc.t_max)
                for delay in (pc.t_local, pc.t_mbs)]
        assert pc.exact_ok.shape == (2, 30)
        assert np.array_equal(pc.exact_ok, want)
        with pytest.raises(ValueError):
            pc.exact_ok[0, 0] = not pc.exact_ok[0, 0]
    # the last, tight, scenario refuses some exact branches and admits others
    assert 0 < pc.exact_ok.sum() < pc.exact_ok.size


def test_pricing_is_lazy_and_survives_json_round_trip():
    scen = generate_scenario(ScenarioConfig(n_tasks=6, n_sbs=3, seed=9))
    assert "pricing" not in vars(scen)
    doc = scen.to_json()
    copy = Scenario.from_json(doc)
    assert "pricing" not in vars(copy)

    x, c1 = _random_state(scen, np.random.default_rng(10))
    a = costs.build_cost_tables(scen, 0.4, x, c1)
    b = costs.build_cost_tables(copy, 0.4, x, c1)
    assert scen.pricing is scen.pricing
    # each scenario builds its own relay incidence, so its arrays are compared
    for one, other in ((a, b), (a.relay, b.relay)):
        for f in dataclasses.fields(one):
            if f.name != "relay":
                assert np.array_equal(getattr(one, f.name),
                                      getattr(other, f.name)), f.name
    assert scen.to_json() == doc


def test_cost_tables_share_the_scenarios_constants():
    scen = generate_scenario(ScenarioConfig(n_tasks=5, n_sbs=3, seed=4))
    x, c1 = _random_state(scen, np.random.default_rng(4))
    tables = costs.build_cost_tables(scen, 0.3, x, c1)
    for f in dataclasses.fields(costs.PricingConstants):
        assert getattr(tables, f.name) is getattr(scen.pricing, f.name), f.name
    for f in dataclasses.fields(tables):
        value = getattr(tables, f.name)
        if isinstance(value, np.ndarray) and value.ndim == 2:
            assert value.shape == ((2, 5) if f.name == "exact_ok"
                                   else (3, 5)), f.name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(tables, f.name, value)


def test_price_tuple_names_first_task_of_an_over_capacity_station():
    # h_min 0.4: at most two tasks fit on a station
    scen = generate_scenario(ScenarioConfig(n_tasks=4, n_sbs=1, seed=0,
                                            h_min=0.4))
    assert costs.price_tuple(scen, 0.5, np.array([0, 1, 1, 1]), {}) == (
        None, 1, np.inf, None)


def test_price_tuple_runs_a_split_that_uploads_nothing_on_the_terminal():
    # a lone task whose best split on the station runs every cycle on the
    # terminal: the SBS tuple prices as the terminal tuple, bit for bit,
    # and the pricer leaves its argument as it was
    scen = generate_scenario(ScenarioConfig(n_tasks=1, n_sbs=1, seed=2))
    alone = costs.build_cost_tables(scen, 0.5, np.ones((1, 1)),
                                    np.zeros((1, 1)))
    rows = np.zeros(1, dtype=np.intp)
    c0, *_, ok = costs.best_splits(alone, rows, rows, np.ones(1))
    assert ok[0] and c0[0] == scen.pricing.c[0]

    choice = [1]
    on_sbs, missed, *_ = costs.price_tuple(scen, 0.5, choice, {})
    assert missed is None and choice == [1]
    local, *_ = costs.price_tuple(scen, 0.5, [0], {})
    for f in dataclasses.fields(Placement):
        assert (getattr(on_sbs, f.name).tobytes()
                == getattr(local, f.name).tobytes()), f.name
    weights = UtilityWeights(0.5)
    assert utility(on_sbs, scen, weights) == utility(local, scen, weights)
    assert on_sbs.branches() == ["local"]


# deadline and data-size regimes of the small random instances
REGIMES = {"tight": dict(t_max_range=(0.02, 0.08)), "loose": {},
           "mixed": dict(c_range=(4e6, 2e7))}


def test_price_tuple_record_equals_fresh_utility_and_feasibility():
    # the record's utility and report are fresh `utility` and
    # `check_feasibility` of its placement, bit for bit, whichever tables
    # the pricer read them on: its last sweep's, fresh ones after a sweep
    # that moved a forwarded part (a slow station or a flat relay makes
    # splits forward; the first example), or none with no SBS task.  At a
    # floor of 0.4 a station holds two tasks, so some tuples are over
    # capacity (the second example); loose tuples hold SBS splits that
    # upload nothing and run on the terminal (the third).  Entry k of
    # `raw` is task k's choice mod s + 3, less one: -1 leaves the task
    # unplaced, as rounding's promotion does
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 5), s=st.integers(0, 3),
           seed=st.integers(0, 100000), regime=st.sampled_from(sorted(REGIMES)),
           alpha=st.floats(0.0, 1.0), h_min=st.sampled_from([0.05, 0.4]),
           f_sbs=st.sampled_from([2e10, 1e9]),
           o1=st.sampled_from([1e-12, 1e-9, 1e-7]),
           raw=st.lists(st.integers(0, 5), min_size=5, max_size=5))
    @example(n=4, s=2, seed=8, regime="mixed", alpha=0.5, h_min=0.05,
             f_sbs=2e10, o1=1e-12, raw=[2, 3, 1, 2, 0])
    @example(n=4, s=1, seed=0, regime="tight", alpha=0.5, h_min=0.4,
             f_sbs=2e10, o1=1e-9, raw=[1, 2, 2, 2, 0])
    @example(n=1, s=1, seed=2, regime="loose", alpha=0.5, h_min=0.05,
             f_sbs=2e10, o1=1e-9, raw=[2, 0, 0, 0, 0])
    def check(n, s, seed, regime, alpha, h_min, f_sbs, o1, raw):
        scen = generate_scenario(ScenarioConfig(
            n_tasks=n, n_sbs=s, seed=seed, h_min=h_min, f_sbs=f_sbs, o1=o1,
            **REGIMES[regime]))
        choice = [k % (s + 3) - 1 for k in raw[:n]]
        placement, missed, util, report = costs.price_tuple(scen, alpha,
                                                            choice, {})
        if placement is None:
            assert util == np.inf and report is None
            assert 0 < choice[missed] <= s
            return
        assert missed is None
        assert util == utility(placement, scen, UtilityWeights(alpha))
        fresh = check_feasibility(placement, scen)
        assert (report.ok, report.violations) == (fresh.ok, fresh.violations)
        assert report.deadline_ok.tobytes() == fresh.deadline_ok.tobytes()

    check()


def test_placement_with_no_sbs_task_is_priced_without_tables(monkeypatch):
    # a hard all-exact tuple, and a placement whose x is zeroed but whose
    # splits and shares are kept, as the benchmark's gate builds one: delay
    # and energy equal the table formula on explicitly built tables, bit
    # for bit, and neither pricing, utility nor check builds a table
    # mixed seed 8 with a flat relay: of three SBS tasks one forwards
    scen = generate_scenario(ScenarioConfig(n_tasks=4, n_sbs=2, seed=8,
                                            o1=1e-12, c_range=(4e6, 2e7)))
    exact = costs.price_tuple(scen, 0.5, [0, 3, 0, 3], {})[0]
    on_sbs = costs.price_tuple(scen, 0.5, [1, 2, 0, 1], {})[0]
    assert on_sbs.c1.any() and on_sbs.ci.any() and on_sbs.x.sum() == 3
    zeroed = dataclasses.replace(on_sbs, x=on_sbs.x * 0.0)
    expected = {}
    for name, placement in (("exact", exact), ("zeroed", zeroed)):
        tables = costs.build_cost_tables(scen, 0.5, placement.x, placement.c1)
        r = np.where(placement.h > 0, 1.0 / placement.h, 1.0)
        t3, e3 = tables.split_price(placement.c0, placement.c1, placement.ci, r)
        expected[name] = (
            placement.z * tables.t_local + placement.y * tables.t_mbs
            + (placement.x * t3).sum(axis=0),
            placement.z * tables.e_local_task + placement.y * tables.e_mbs_task
            + (placement.x * e3).sum(axis=0))

    builds = []
    build = costs.build_cost_tables
    monkeypatch.setattr(costs, "build_cost_tables",
                        lambda *args: builds.append(args) or build(*args))
    _, missed, util, report = costs.price_tuple(scen, 0.5, [0, 3, 0, 3], {})
    assert missed is None
    for name, placement in (("exact", exact), ("zeroed", zeroed)):
        got = costs.placement_costs(placement, scen)
        for a, b in zip(got, expected[name]):
            assert a.tobytes() == b.tobytes(), name
        costs.utility(placement, scen, UtilityWeights(0.5))
        check_feasibility(placement, scen)
    assert util == costs.utility(exact, scen, UtilityWeights(0.5))
    assert not check_feasibility(zeroed, scen).ok
    assert builds == []
