"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one pass line so the suite doubles as a checklist when
run with `pytest -s tests/test_acceptance.py`.
"""

import time
from dataclasses import fields, replace

import numpy as np
import pytest

import edgealloc as ea
from edgealloc import costs, experiments, global_block, local_blocks
from edgealloc.admm import SolverConfig, run
from edgealloc.costs import UtilityWeights
from edgealloc.scenario import ScenarioConfig, generate_scenario
from lagrangian_rise import lagrangian_rises


def _plateau_start(utilities, window=20, rel=1e-3):
    u = np.asarray(utilities)
    for start in range(len(u) - window):
        seg = u[start:start + window + 1]
        if np.all(np.abs(np.diff(seg)) < rel * np.abs(seg[:-1])):
            return start
    return None


def test_criterion_1_convergence_shape_and_alpha_ordering():
    scen = generate_scenario(ScenarioConfig(n_tasks=100, n_sbs=5, seed=42))
    finals = {}
    for alpha in (0.2, 0.5, 0.8):
        config = SolverConfig(alpha=alpha, rho=1.0, max_iter=160,
                              tol=1e-12, cbgp_rounds=30)
        t0 = time.perf_counter()
        placement, trace = run(scen, config)
        wall = time.perf_counter() - t0
        assert wall < 60.0, f"alpha={alpha} took {wall:.1f}s"
        u = trace.utilities()
        assert u[-1] < u[0], "utility did not decline from the start"
        plateau = _plateau_start(u)
        assert plateau is not None and plateau < 500
        finals[alpha] = u[-1]
    assert finals[0.8] > finals[0.5] > finals[0.2]
    print(f"\ncriterion 1 PASS: plateaued traces, final utilities "
          f"{finals[0.2]:.4f} < {finals[0.5]:.4f} < {finals[0.8]:.4f}")


def test_criterion_2_step_robustness():
    scen = generate_scenario(ScenarioConfig(n_tasks=100, n_sbs=5, seed=42))
    utils = {}
    for rho in (1.0, 1.2):
        config = SolverConfig(alpha=0.5, rho=rho, max_iter=120, cbgp_rounds=30)
        placement, trace = run(scen, config)
        utils[rho] = costs.utility(placement, scen, UtilityWeights(0.5))
    gap = abs(utils[1.0] - utils[1.2]) / max(abs(utils[1.0]), abs(utils[1.2]))
    assert gap <= 0.01
    print(f"\ncriterion 2 PASS: rho 1.0 vs 1.2 final utilities within "
          f"{100 * gap:.3f}%")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for trial in range(50):
        n_tasks = int(rng.integers(1, 5))
        n_sbs = int(rng.integers(0, 3))
        tight = trial % 3 == 0
        cfg = ScenarioConfig(
            n_tasks=n_tasks, n_sbs=n_sbs, seed=int(rng.integers(0, 100000)),
            t_max_range=(0.02, 0.08) if tight else (15.0, 30.0))
        scen = generate_scenario(cfg)
        t0 = time.perf_counter()
        placement, trace = run(scen, SolverConfig(alpha=0.5, max_iter=120,
                                                  cbgp_rounds=30))
        util = costs.utility(placement, scen, UtilityWeights(0.5))
        t1 = time.perf_counter()
        result = ea.enumerate_optimum(scen, UtilityWeights(0.5))
        t2 = time.perf_counter()
        solve_s, oracle_s = t1 - t0, t2 - t1
        assert solve_s + oracle_s < 10.0, (
            f"instance {trial} took {solve_s + oracle_s:.1f}s "
            f"(solve {solve_s:.1f}s, oracle {oracle_s:.1f}s)")
        report = ea.compare(placement, util, result, 0.05, scen)
        assert report["feasible"], f"instance {trial}: {report['violations']}"
        assert report["within_tolerance"], (
            f"instance {trial}: gap {report['relative_gap']:.4f}")
        worst_gap = max(worst_gap, report["relative_gap"])
    print(f"\ncriterion 3 PASS: 50 instances feasible, worst gap "
          f"{100 * worst_gap:.3f}% (limit 5%)")


def test_criterion_4_rlt_exactness():
    rng = np.random.default_rng(11)
    h_min = rng.uniform(0.005, 1.0, 10_000)
    r = 1.0 + rng.uniform(0.0, 1.0, 10_000) * (1.0 / h_min - 1.0)
    for k in range(10_000):
        lo, hi = local_blocks.rlt_bounds(1.0, r[k], h_min[k])
        assert lo == r[k] and hi == r[k]
        lo, hi = local_blocks.rlt_bounds(0.0, r[k], h_min[k])
        assert lo == 0.0 and hi == 0.0
    print("\ncriterion 4 PASS: 10^4 random (r, h_min) pairs collapse exactly")


def test_criterion_5_majorization_bound():
    rng = np.random.default_rng(12)
    x_prev = rng.uniform(0, 1, 10_000)
    x = rng.uniform(0, 1, 10_000)
    # the tangent the split block prices its corner penalty by
    for delta in (0.3, 1.0, 2.0):
        slope, intercept = local_blocks.majorize_penalty(delta, x_prev)
        true = delta * (x - x * x)
        assert np.all(slope * x + intercept >= true - 1e-12)
        tangent = slope * x_prev + intercept
        assert np.all(np.abs(tangent - delta * (x_prev - x_prev ** 2)) <= 1e-12)
    print("\ncriterion 5 PASS: linearized penalty dominates delta (x - x^2) "
          "on 10^4 samples at delta 0.3, 1 and 2, tangency within 1e-12")


def test_criterion_6_gradient_hessian_fidelity():
    rng = np.random.default_rng(13)
    worst_grad, worst_hess = 0.0, 0.0
    for _ in range(100):
        p = int(rng.integers(3, 7))
        prob = global_block.GlobalProblem(
            prox=rng.uniform(0.05, 0.95, (p, 1)),
            dual=rng.normal(0, 0.3, (p, 1)),
            tcoef=rng.uniform(0.001, 0.05, (p, 1)),
            t_max=np.array([10.0]), rho=float(rng.uniform(0.5, 2.0)))
        v = rng.uniform(0.15, 0.85, (p, 1))
        m = rng.uniform(0.5, 5.0, 1)
        omega = float(rng.uniform(1e-3, 1.0))
        xi = float(rng.uniform(0.0, 0.4))
        gv, gm = global_block.grad_smoothed(v, m, prob, omega, xi)
        hv, hm = global_block.hess_diag_smoothed(v, m, prob, omega, xi)
        h = 1e-6
        for k in range(p):
            vp, vm_ = v.copy(), v.copy()
            vp[k, 0] += h
            vm_[k, 0] -= h
            fd = (global_block.smoothed_objective(vp, m, prob, omega, xi)
                  - global_block.smoothed_objective(vm_, m, prob, omega, xi))[0] / (2 * h)
            worst_grad = max(worst_grad,
                             abs(fd - gv[k, 0]) / max(abs(fd), 1e-12))
            fd2 = ((global_block.grad_smoothed(vp, m, prob, omega, xi)[0]
                    - global_block.grad_smoothed(vm_, m, prob, omega, xi)[0])[k, 0]
                   / (2 * h))
            worst_hess = max(worst_hess,
                             abs(fd2 - hv[k, 0]) / max(abs(fd2), 1e-12))
        fd_m = (global_block.smoothed_objective(v, m + h, prob, omega, xi)
                - global_block.smoothed_objective(v, m - h, prob, omega, xi))[0] / (2 * h)
        worst_grad = max(worst_grad, abs(fd_m - gm[0]) / max(abs(fd_m), 1e-12))
    assert worst_grad < 1e-5
    assert worst_hess < 1e-4
    print(f"\ncriterion 6 PASS: gradient err {worst_grad:.2e} < 1e-5, "
          f"hessian err {worst_hess:.2e} < 1e-4")


def test_criterion_7_nullspace_correctness():
    rng = np.random.default_rng(14)
    worst_res, worst_null = 0.0, 0.0
    for _ in range(100):
        p = int(rng.integers(3, 8))
        hess_v = rng.uniform(0.3, 3.0, (p, 1))
        hess_m = rng.uniform(0.3, 3.0, 1)
        tcoef = rng.uniform(0.01, 1.0, (p, 1))
        # the KKT residual row groups, the negated right-hand side b
        res = (-rng.normal(0, 1, (p, 1)), -rng.normal(0, 1, 1),
               -rng.normal(0, 1, 1), np.zeros(1))
        dv, dm, dnu, dsig, _ = global_block.nullspace_cg_solve(hess_v, hess_m,
                                                               tcoef, res)
        worst_null = max(worst_null, abs(float(dv[:, 0].sum())))
        dim = p + 3
        A = np.zeros((dim, dim))
        A[:p, :p] = np.diag(hess_v[:, 0])
        A[p, p] = hess_m[0]
        A[:p, p + 1] = tcoef[:, 0]
        A[p, p + 1] = 1.0
        A[:p, p + 2] = 1.0
        A[p + 1, :p] = tcoef[:, 0]
        A[p + 1, p] = 1.0
        A[p + 2, :p] = 1.0
        b = -np.concatenate([res[0][:, 0], res[1], res[2], res[3]])
        got = np.concatenate([dv[:, 0], [dm[0]], [dnu[0]], [dsig[0]]])
        res = np.linalg.norm(A @ got - b) / max(np.linalg.norm(b), 1e-300)
        worst_res = max(worst_res, float(res))
    assert worst_null < 1e-10
    assert worst_res < 1e-8
    print(f"\ncriterion 7 PASS: null-space violation {worst_null:.2e} < 1e-10, "
          f"full residual {worst_res:.2e} < 1e-8")


def _criterion_8_instances():
    """Criterion 8's 100 random split-block instances, (problem, vars)."""
    rng = np.random.default_rng(15)
    for _ in range(100):
        scen = generate_scenario(ScenarioConfig(
            n_tasks=int(rng.integers(1, 4)), n_sbs=int(rng.integers(1, 3)),
            seed=int(rng.integers(0, 100000))))
        s, n = scen.n_sbs, scen.n_tasks
        x0 = rng.uniform(0.0, 1.0, (s, n)) / (s + 2)
        c1 = rng.uniform(0, 1, (s, n)) * scen.c_array()[None, :] / 3
        tables = costs.build_cost_tables(scen, float(rng.uniform(0.1, 0.9)),
                                         x0, c1)
        scale = float(np.minimum(tables.k_local, tables.k_mbs).mean())
        problem = local_blocks.LocalProblem.from_tables(
            tables, np.ones((s, n)), x0, rng.normal(0, 0.5, (s, n)), rho=1.0,
            delta=float(rng.uniform(0.0, 2.0)), cost_scale=scale)
        c = scen.c_array()
        f0 = rng.uniform(0, 1, (s, n))
        f1 = rng.uniform(0, 1, (s, n)) * (1 - f0)
        vars = local_blocks.CbgpVars.start(
            x_hat=rng.uniform(0, 1, (s, n)), R=rng.uniform(0, 2, (s, n)),
            c0=f0 * c, c1=f1 * c, ci=(1 - f0 - f1) * c)
        yield problem, vars


def test_criterion_8_cbgp_descent():
    for problem, vars in _criterion_8_instances():
        _, history = local_blocks.cbgp_solve(problem, vars, rounds=25)
        values = np.stack(history)
        assert np.all(np.diff(values, axis=0) <= 1e-8)
    print("\ncriterion 8 PASS: objective nonincreasing after every sweep on "
          "100 random block instances")


def test_cbgp_rejected_task_sits_out_the_rest_of_its_solve(monkeypatch):
    # a task whose part of a sweep is rejected goes back to its pre-sweep
    # point, and every later sweep proposes it that point again: its
    # column of every `CbgpVars` field stays bit for bit until the end
    rng = np.random.default_rng(16)
    sweep, objective = local_blocks._sweep, local_blocks.block_objective
    starts, proposed = [], []

    def recording_sweep(problem, vars, terms, step):
        starts.append([getattr(vars, f.name).copy() for f in fields(vars)])
        return sweep(problem, vars, terms, step)

    def recording_objective(*args):
        proposed.append(objective(*args))
        return proposed[-1]

    monkeypatch.setattr(local_blocks, "_sweep", recording_sweep)
    monkeypatch.setattr(local_blocks, "block_objective", recording_objective)
    partial = 0
    for problem, vars in _criterion_8_instances():
        for f in fields(vars):
            if f.name.startswith("mu_"):
                setattr(vars, f.name, rng.uniform(0.0, 0.5, vars.x_hat.shape))
        starts.clear()
        proposed.clear()
        vars, history = local_blocks.cbgp_solve(problem, vars, rounds=25)
        final = [getattr(vars, f.name) for f in fields(vars)]
        for k, start in enumerate(starts):
            bad = history[k + 1] != proposed[k + 1]
            partial += int(bad.any() and not bad.all())
            for later in starts[k + 1:] + [final]:
                for old, new in zip(start, later):
                    assert old[:, bad].tobytes() == new[:, bad].tobytes()
    assert partial > 0
    print(f"\n{partial} partially rejected sweeps; every rejected task kept "
          "its pre-sweep point to the end of its solve")


def test_criterion_9_monotone_augmented_lagrangian():
    worst = -np.inf
    for seed in range(20):
        scen = generate_scenario(ScenarioConfig(n_tasks=2, n_sbs=1, seed=seed))
        config = SolverConfig(max_iter=60, cbgp_rounds=60)
        worst = max(worst, max(lagrangian_rises(scen, config)))
    assert worst <= config.tol
    print(f"\ncriterion 9 PASS: worst per-iteration lagrangian rise "
          f"{worst:.2e} <= {config.tol}")


def test_criterion_10_baseline_dominance():
    # sizes chosen inside the regime where every branch stays individually
    # deadline-feasible, so the baseline's branch mix is stable and the
    # gap grows with the wasted per-bit cost
    sizes = [5e3, 1e4, 1.5e4, 2e4, 2.5e4]
    weights = UtilityWeights(0.5)
    gaps = []
    for size in sizes:
        scen = generate_scenario(ScenarioConfig(
            n_tasks=20, n_sbs=3, seed=11, c_range=(size, size)))
        placement, _ = run(scen, SolverConfig(max_iter=100, cbgp_rounds=30))
        solver_util = costs.utility(placement, scen, weights)
        base = [experiments.run_baseline(scen, weights, seed)[1]
                for seed in range(100)]
        mean_base = float(np.mean(base))
        assert solver_util <= mean_base, f"size {size}: solver above baseline"
        gaps.append(mean_base - solver_util)
    nondecreasing = 1 + sum(1 for a, b in zip(gaps, gaps[1:]) if b >= a)
    assert nondecreasing >= 4
    print(f"\ncriterion 10 PASS: solver dominates at all sizes, gap "
          f"nondecreasing at {nondecreasing}/5 points: "
          + " ".join(f"{g:.2f}" for g in gaps))


def test_criterion_11_placement_regimes():
    profile_cfg = ScenarioConfig(n_tasks=1, n_sbs=2, seed=3,
                                 t_max_range=(20.0, 20.0))
    solver_cfg = SolverConfig(max_iter=80, cbgp_rounds=40)
    small = experiments.placement_profile(profile_cfg, [1e4, 1e5, 1e6, 4e6],
                                          solver_config=solver_cfg)
    large = experiments.placement_profile(profile_cfg, [2e7, 5e7, 9e7],
                                          solver_config=solver_cfg)
    mid = experiments.placement_profile(profile_cfg, [8e6],
                                        solver_config=solver_cfg)
    assert all(r["branches"][0] == "local" for r in small)
    assert all(r["branches"][0] == "mbs" for r in large)
    assert mid[0]["branches"][0].startswith("sbs")
    assert mid[0]["frac_local"] > 0 and mid[0]["frac_sbs"] > 0

    lt_base = ScenarioConfig(n_tasks=4, n_sbs=1, seed=9, c_range=(2e6, 6e6),
                             t_max_range=(20.0, 20.0))
    lt_counts = []
    for f_local in (1e9, 3e9, 6e9, 2e10):
        scen = generate_scenario(replace(lt_base, f_local=f_local))
        placement, _ = run(scen, SolverConfig(max_iter=100, cbgp_rounds=30))
        lt_counts.append(placement.branches().count("local"))
    assert all(b >= a for a, b in zip(lt_counts, lt_counts[1:]))

    sbs_base = ScenarioConfig(n_tasks=4, n_sbs=1, seed=9,
                              c_range=(6.5e6, 1.2e7), t_max_range=(20.0, 20.0))
    sbs_counts = []
    for f_sbs in (2e9, 8e9, 2e10, 6e10, 2e11, 6e11):
        scen = generate_scenario(replace(sbs_base, f_sbs=f_sbs))
        placement, _ = run(scen, SolverConfig(max_iter=100, cbgp_rounds=30))
        sbs_counts.append(sum(b.startswith("sbs")
                              for b in placement.branches()))
    assert all(b >= a for a, b in zip(sbs_counts, sbs_counts[1:]))
    assert sbs_counts[-1] == sbs_counts[-2], "expected saturation at the top"
    print(f"\ncriterion 11 PASS: local below 4 Mbit, macro above 20 Mbit, "
          f"mixed split between; terminal counts {lt_counts}, "
          f"station counts {sbs_counts}")


def test_criterion_12_trace_determinism():
    # repeatability of the same seed and config, byte for byte, in both the
    # trace and the rounded placement
    scen = generate_scenario(ScenarioConfig(n_tasks=23, n_sbs=3, seed=5))
    config = SolverConfig(max_iter=30, cbgp_rounds=20, record_timing=False)
    outs = []
    for _ in range(2):
        placement, trace = run(scen, config)
        outs.append((trace.to_csv(), placement.x.tobytes(),
                     placement.c0.tobytes(), placement.h.tobytes()))
    assert outs[0] == outs[1]
    print("\ncriterion 12 PASS: byte-identical traces and placements across "
          "repeated runs")
