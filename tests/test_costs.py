import numpy as np
import pytest

from edgealloc import costs
from edgealloc.costs import (Placement, SplitAllocation, UtilityWeights,
                             check_feasibility, local_delay, local_energy,
                             mbs_energy, mbs_total_delay, mbs_uplink_time,
                             three_tier_delay, three_tier_energy, utility)
from edgealloc.errors import ConfigurationError, InfeasibleRateError
from edgealloc.local_blocks import LocalProblem
from edgealloc.scenario import (Scenario, ScenarioConfig, Task,
                                forwarding_load, generate_scenario, link_load)


def _scenario(**overrides):
    base = dict(n_tasks=1, n_sbs=1, seed=0, c_range=(1e4, 1e4),
                t_max_range=(20.0, 20.0))
    base.update(overrides)
    return generate_scenario(ScenarioConfig(**base))


def test_local_delay_matches_hand_value():
    scen = _scenario()
    assert local_delay(scen.tasks[0], scen.device) == pytest.approx(0.036)
    tiny = Task(id=0, c=1e-12, t_max=1.0, u=18000.0)
    assert local_delay(tiny, scen.device) == pytest.approx(0.0, abs=1e-15)
    fast = _scenario(f_local=1e10)
    assert local_delay(fast.tasks[0], fast.device) == pytest.approx(0.018)


def test_local_energy_matches_hand_value():
    scen = _scenario(e_local=2.5e-7)
    assert local_energy(scen.tasks[0], scen.device) == pytest.approx(45.0)
    double = _scenario(e_local=2.5e-7, c_range=(2e4, 2e4))
    assert local_energy(double.tasks[0], double.device) == pytest.approx(90.0)


def test_mbs_uplink_time_examples():
    scen = _scenario(c_range=(5000.0, 5000.0))
    t = mbs_uplink_time(scen.tasks[0], scen.mbs, scen.channel, snr=1023.0)
    assert t == pytest.approx(2.5e-5)
    # snr of one means the rate equals the bandwidth
    t1 = mbs_uplink_time(scen.tasks[0], scen.mbs, scen.channel, snr=1.0)
    assert t1 == pytest.approx(5000.0 / 20e6)
    zero = Task(id=0, c=0.0 + 1e-300, t_max=1.0, u=1.0)
    assert mbs_uplink_time(zero, scen.mbs, scen.channel,
                           snr=1023.0) == pytest.approx(0.0, abs=1e-300)


def test_mbs_uplink_underflow_raises():
    scen = _scenario()
    with pytest.raises(InfeasibleRateError):
        mbs_uplink_time(scen.tasks[0], scen.mbs, scen.channel, snr=0.0)


def test_mbs_total_delay_sums_upload_and_compute():
    scen = _scenario(c_range=(5000.0, 5000.0))
    total = mbs_total_delay(scen.tasks[0], scen.mbs, scen.channel, snr=1023.0)
    assert total == pytest.approx(9.25e-4)


def test_mbs_energy_example():
    scen = _scenario(c_range=(5000.0, 5000.0), e_mbs=1e-7)
    e = mbs_energy(scen.tasks[0], scen.device, scen.mbs, scen.channel,
                   uplink_time=2.5e-5)
    assert e == pytest.approx(9.0000025)


def test_three_tier_delay_worked_example():
    scen = _scenario(c_range=(9000.0, 9000.0))
    split = SplitAllocation(c0=3000.0, c1=3000.0, ci=3000.0, h=0.5, h_min=0.05)
    d = three_tier_delay(scen.tasks[0], scen.sbs_list[0], split, scen,
                         rate=2e8, wired_delay=0.012)
    assert d == pytest.approx(0.02877)


def test_three_tier_delay_degenerate_split_equals_local():
    scen = _scenario()
    task = scen.tasks[0]
    split = SplitAllocation(c0=task.c, c1=0.0, ci=0.0, h=1.0)
    d = three_tier_delay(task, scen.sbs_list[0], split, scen, rate=2e8)
    assert d == pytest.approx(local_delay(task, scen.device))


def test_three_tier_delay_share_proportionality():
    scen = _scenario(c_range=(9000.0, 9000.0))
    task = scen.tasks[0]
    kw = dict(rate=2e8, wired_delay=0.0)
    full = three_tier_delay(task, scen.sbs_list[0],
                            SplitAllocation(c0=0, c1=0, ci=task.c, h=1.0), scen, **kw)
    half = three_tier_delay(task, scen.sbs_list[0],
                            SplitAllocation(c0=0, c1=0, ci=task.c, h=0.5), scen, **kw)
    # only the station compute term depends on the share here
    upload = task.c / 2e8
    assert (half - upload) == pytest.approx(2.0 * (full - upload))


def test_three_tier_energy_worked_example():
    scen = _scenario(c_range=(9000.0, 9000.0), e_local=2.5e-7, e_sbs=2e-7,
                     e_mbs=1e-7, sbs_mbs_tx_power=1.0)
    split = SplitAllocation(c0=3000.0, c1=3000.0, ci=3000.0, h=0.5, h_min=0.05)
    e = three_tier_energy(scen.tasks[0], scen.sbs_list[0], split, scen,
                          upload_time=3e-5, transfer_time=0.012)
    assert e == pytest.approx(29.712)


def test_three_tier_energy_degenerate_and_zero():
    scen = _scenario(e_local=2.5e-7)
    task = scen.tasks[0]
    only_local = SplitAllocation(c0=task.c, c1=0.0, ci=0.0, h=1.0)
    e = three_tier_energy(task, scen.sbs_list[0], only_local, scen,
                          upload_time=0.0, transfer_time=0.0)
    assert e == pytest.approx(local_energy(task, scen.device))
    zero = SplitAllocation(c0=0.0, c1=0.0, ci=0.0, h=1.0)
    e0 = three_tier_energy(task, scen.sbs_list[0], zero, scen,
                           upload_time=0.0, transfer_time=0.0)
    assert e0 == 0.0


def test_three_tier_energy_linear_in_each_part():
    scen = _scenario()
    task = scen.tasks[0]
    sbs = scen.sbs_list[0]

    def e(c0, c1, ci):
        return three_tier_energy(task, sbs, SplitAllocation(c0=c0, c1=c1, ci=ci),
                                 scen, upload_time=1e-4, transfer_time=1e-3)

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


def test_utility_from_tables_affine_in_assignment():
    scen = generate_scenario(ScenarioConfig(n_tasks=4, n_sbs=2, seed=1))
    tables = costs.build_cost_tables(scen, 0.5, np.full((2, 4), 0.2),
                                     np.tile(scen.c_array() / 3, (2, 1)))
    rng = np.random.default_rng(2)

    def random_placement():
        x = rng.uniform(0, 0.3, (2, 4))
        y = rng.uniform(0, 0.3, 4)
        z = 1 - x.sum(axis=0) - y
        c = scen.c_array()
        return Placement(x=x, y=y, z=z, c0=np.tile(c / 3, (2, 1)),
                         c1=np.tile(c / 3, (2, 1)), ci=np.tile(c / 3, (2, 1)),
                         h=np.ones((2, 4)))

    p1, p2 = random_placement(), random_placement()
    for theta in (0.0, 0.3, 0.7, 1.0):
        mix = Placement(x=theta * p1.x + (1 - theta) * p2.x,
                        y=theta * p1.y + (1 - theta) * p2.y,
                        z=theta * p1.z + (1 - theta) * p2.z,
                        c0=p1.c0, c1=p1.c1, ci=p1.ci, h=p1.h)
        expected = (theta * costs.utility_from_tables(p1, tables)
                    + (1 - theta) * costs.utility_from_tables(p2, tables))
        assert costs.utility_from_tables(mix, tables) == pytest.approx(expected)


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


def test_split_allocation_invariants():
    with pytest.raises(ConfigurationError):
        SplitAllocation(c0=-1.0, c1=0.0, ci=0.0)
    with pytest.raises(ConfigurationError):
        SplitAllocation(c0=0.0, c1=0.0, ci=0.0, h=0.0)
    with pytest.raises(ConfigurationError):
        SplitAllocation(c0=0.0, c1=0.0, ci=0.0, h=0.01, h_min=0.05)
    s = SplitAllocation(c0=1.0, c1=2.0, ci=3.0, h=0.5)
    assert s.r == pytest.approx(2.0)
    s.validate_total(6.0)
    with pytest.raises(ConfigurationError):
        s.validate_total(7.0)


def test_utility_weights_bounds():
    with pytest.raises(ConfigurationError):
        UtilityWeights(1.5)
    with pytest.raises(ConfigurationError):
        UtilityWeights(-0.1)


# -- scenario-constant pricing bundle -----------------------------------------

def _reference_tables(scen, alpha, x, c1):
    """The per-element loops that priced a call before the relay incidence:
    element loads by walking every (SBS, task, path element), then w2/w1/w0
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
            for _, eid in graph.relay_path(j, scen.sbs_list[i].id).elements:
                loads[eid] += contribution
    w2, w1, w0 = np.zeros((s, n)), np.zeros((s, n)), np.zeros((s, n))
    for i in range(s):
        for j in range(n):
            own = x[i, j] * c1[i, j]
            xw = x[i, j]
            for kind, eid in graph.relay_path(j, scen.sbs_list[i].id).elements:
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
    """The same scenario with every relay route replaced by a random
    sequence of the graph's elements: mixed kinds at each position, routes
    of different lengths (some empty), elements shared across stations."""
    doc = scen.to_dict()
    pool = ([("unit", u["id"]) for u in doc["graph"]["forwarding_units"]]
            + [("link", l["id"]) for l in doc["graph"]["links"]])
    for path in doc["graph"]["paths"]:
        if path["kind"] == "sbs_relay":
            picks = rng.permutation(len(pool))[:int(rng.integers(0, 5))]
            path["elements"] = [list(pool[k]) for k in picks]
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


def test_relay_incidence_loads_match_graph_primitives():
    rng = np.random.default_rng(6)
    for s, n in [(1, 1), (2, 4), (3, 6), (5, 100)]:
        scen = generate_scenario(ScenarioConfig(
            n_tasks=n, n_sbs=s, seed=int(rng.integers(0, 100000))))
        x = costs.hard_assignment(rng.integers(0, s + 2, n), s)[0]
        c = scen.c_array()
        c1 = rng.uniform(0.0, 1.0, (s, n)) * c[None, :]
        c1[rng.uniform(size=(s, n)) < 0.3] = 0.0
        relay = scen.pricing.relay
        loads = relay.element_loads(x, c1)
        # the primitives take path usage y and charge y * c on each element
        usage = {scen.graph.relay_path(j, scen.sbs_list[i].id).id:
                 x[i, j] * c1[i, j] / c[j] for i in range(s) for j in range(n)}
        for k, eid in enumerate(relay.elements):
            load = (forwarding_load if eid in scen.graph.forwarding_units
                    else link_load)(usage, eid, scen)
            assert abs(loads[k] - load) <= 1e-12 * max(abs(load), 1e-300), eid


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
    problem = LocalProblem.from_tables(tables, x, np.zeros((2, 4)), 1.0, 0.3)
    for arr in (tables.c, tables.t_local, tables.u_over_fs, problem.c):
        with pytest.raises(ValueError):
            arr[0] = 1.0


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
    for name in costs.CostTables.__dataclass_fields__:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert scen.to_json() == doc
