import csv
import json
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

import edgealloc
from edgealloc import admm, cli, costs, experiments, oracle
from edgealloc.admm import SolverConfig
from edgealloc.costs import Placement, UtilityWeights
from edgealloc.errors import ConfigurationError, InfeasibleTaskError
from edgealloc.experiments import (ExperimentSpec, apply_axis,
                                   oracle_gap_study, placement_profile,
                                   run_baseline, run_experiment)
from edgealloc.scenario import Scenario, ScenarioConfig, generate_scenario


def test_spec_validation_and_json():
    with pytest.raises(ConfigurationError):
        ExperimentSpec(scenario=ScenarioConfig(), axis="bogus", values=[1],
                       outdir="x")
    with pytest.raises(ConfigurationError):
        ExperimentSpec(scenario=ScenarioConfig(), axis="alpha", values=[],
                       outdir="x")
    doc = json.dumps({"scenario": {"n_tasks": 3, "n_sbs": 1, "seed": 2},
                      "axis": "alpha", "values": [0.2, 0.8], "outdir": "out",
                      "solver": {"max_iter": 5}})
    spec = ExperimentSpec.from_json(doc)
    assert spec.scenario.n_tasks == 3
    assert spec.solver.max_iter == 5


@pytest.mark.parametrize("entry", ["scenario", "solver", "experiment"])
def test_spec_names_unknown_keys(entry):
    doc = {"scenario": {"n_tasks": 3}, "axis": "alpha", "values": [0.2],
           "outdir": "out", "solver": {"max_iter": 5}}
    (doc if entry == "experiment" else doc[entry])["tol_primal"] = 1e-4
    with pytest.raises(ConfigurationError,
                       match=rf"{entry}: unknown keys \['tol_primal'\]"):
        ExperimentSpec.from_json(json.dumps(doc))


@pytest.mark.parametrize("key", ["axis", "values", "outdir"])
def test_spec_names_missing_keys(key):
    doc = {"axis": "alpha", "values": [0.2], "outdir": "out"}
    del doc[key]
    with pytest.raises(ConfigurationError,
                       match=rf"experiment: missing keys \['{key}'\]"):
        ExperimentSpec.from_json(json.dumps(doc))


@pytest.mark.parametrize("key, count", [("workers", 0), ("workers", 1.0),
                                        ("repetitions", 0), ("repetitions", 1.5),
                                        ("repetitions", True)])
def test_spec_rejects_bad_counts(key, count):
    doc = {"axis": "alpha", "values": [0.2], "outdir": "out", key: count}
    with pytest.raises(ConfigurationError, match=rf"{key} must be an integer"):
        ExperimentSpec.from_json(json.dumps(doc))


def test_apply_axis_covers_every_axis():
    scfg = ScenarioConfig(n_tasks=4, n_sbs=1)
    solver = SolverConfig()
    assert apply_axis(scfg, solver, "alpha", 0.7)[1].alpha == 0.7
    assert apply_axis(scfg, solver, "rho", 1.2)[1].rho == 1.2
    assert apply_axis(scfg, solver, "n_tasks", 9)[0].n_tasks == 9
    assert apply_axis(scfg, solver, "sbs_capacity", 1e10)[0].f_sbs == 1e10
    assert apply_axis(scfg, solver, "lt_capacity", 2e9)[0].f_local == 2e9
    assert apply_axis(scfg, solver, "data_size", 2e4)[0].c_range == (2e4, 2e4)


def test_run_experiment_layout_and_summary(tmp_path):
    spec = ExperimentSpec(
        scenario=ScenarioConfig(n_tasks=4, n_sbs=1, seed=3),
        axis="alpha", values=[0.3, 0.7], outdir=str(tmp_path / "out"),
        solver=SolverConfig(max_iter=15, cbgp_rounds=10, record_timing=False))
    rows = run_experiment(spec)
    assert len(rows) == 2
    for value in (0.3, 0.7):
        assert os.path.exists(tmp_path / "out" / "alpha" / str(value) / "trace.csv")
    summary = (tmp_path / "out" / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == ("sweep_value,final_utility,iters,converged,n_local,"
                          "n_sbs,n_mbs,error")
    # rows round-trip through the declared schema
    for line, row in zip(summary[1:], rows):
        parts = line.split(",")
        assert float(parts[0]) == pytest.approx(float(row["sweep_value"]))
        assert float(parts[1]) == pytest.approx(row["final_utility"], rel=1e-12)
        assert int(parts[2]) == row["iters"]
        assert parts[3] in ("True", "False")
        assert (int(parts[4]), int(parts[5]), int(parts[6])) == (
            row["n_local"], row["n_sbs"], row["n_mbs"])
        assert parts[7] == ""
    # worker processes write the same rows, traces and summary
    assert run_experiment(replace(spec, outdir=str(tmp_path / "par"),
                                  workers=2)) == rows
    for name in ("summary.csv", "alpha/0.3/trace.csv", "alpha/0.7/trace.csv"):
        assert ((tmp_path / "par" / name).read_bytes()
                == (tmp_path / "out" / name).read_bytes())


def test_sweep_records_infeasible_points_and_raises_other_errors(tmp_path, monkeypatch):
    # a point whose rounding finds no feasible placement becomes a NaN row
    # and the sweep goes on; any other error is a fault and propagates
    solve = admm.run

    def run(scenario, config):
        if config.alpha == 0.5:
            raise InfeasibleTaskError([2])
        return solve(scenario, config)

    monkeypatch.setattr(admm, "run", run)
    spec = ExperimentSpec(
        scenario=ScenarioConfig(n_tasks=3, n_sbs=1, seed=8),
        axis="alpha", values=[0.5, 0.7], outdir=str(tmp_path / "out"),
        solver=SolverConfig(max_iter=5, cbgp_rounds=10, record_timing=False))
    bad, good = run_experiment(spec)
    assert np.isnan(bad["final_utility"]) and "[2]" in bad["error"]
    assert not bad["converged"] and bad["iters"] == 0
    assert np.isfinite(good["final_utility"]) and "error" not in good
    summary = (tmp_path / "out" / "summary.csv").read_text().strip().split("\n")
    assert len(summary) == 3 and summary[1].startswith("0.5,nan,")
    rows = list(csv.reader(summary))
    assert rows[0][-1] == "error" and "[2]" in rows[1][-1] and rows[2][-1] == ""

    for error in (RecursionError, NotImplementedError, ValueError):
        def failing(scenario, config, error=error):
            raise error("fault")

        monkeypatch.setattr(admm, "run", failing)
        with pytest.raises(error):
            run_experiment(spec)


def test_summary_utility_matches_cost_model(tmp_path):
    spec = ExperimentSpec(
        scenario=ScenarioConfig(n_tasks=3, n_sbs=1, seed=8),
        axis="alpha", values=[0.5], outdir=str(tmp_path / "out"),
        solver=SolverConfig(max_iter=20, cbgp_rounds=10, record_timing=False))
    rows = run_experiment(spec)
    scen = generate_scenario(ScenarioConfig(n_tasks=3, n_sbs=1, seed=8))
    placement, _ = admm.run(scen, SolverConfig(max_iter=20, cbgp_rounds=10,
                                               alpha=0.5, record_timing=False))
    expected = costs.utility(placement, scen, UtilityWeights(0.5))
    assert abs(rows[0]["final_utility"] - expected) < 1e-9


def test_baseline_deterministic_and_feasible(small_scenario):
    weights = UtilityWeights(0.5)
    p1, u1 = run_baseline(small_scenario, weights, seed=7)
    p2, u2 = run_baseline(small_scenario, weights, seed=7)
    assert u1 == u2
    assert np.array_equal(p1.x, p2.x) and np.array_equal(p1.z, p2.z)
    assert costs.check_feasibility(p1, small_scenario).ok


def test_baseline_single_feasible_branch():
    scen = generate_scenario(ScenarioConfig(n_tasks=1, n_sbs=0, seed=0,
                                            t_max_range=(0.005, 0.005)))
    placement, _ = run_baseline(scen, UtilityWeights(0.5), seed=0)
    assert placement.y[0] == 1.0


def test_baseline_late_tasks_fall_back_to_a_feasible_branch():
    # tight deadlines: baseline seed 2 spends the redraw budget and reaches
    # the fallback, where its last redraw already meets every deadline
    scen = generate_scenario(ScenarioConfig(n_tasks=20, n_sbs=3, seed=3,
                                            t_max_range=(0.02, 0.08)))
    for seed in range(3):
        placement, _ = run_baseline(scen, UtilityWeights(0.5), seed)
        assert costs.check_feasibility(placement, scen).ok


def _assembled_baselines(monkeypatch):
    """Every choice `run_baseline` assembles from now on, as drawn."""
    choices = []
    assemble = experiments._assemble_baseline

    def kept(scenario, choice):
        choices.append(choice.copy())
        return assemble(scenario, choice)

    monkeypatch.setattr(experiments, "_assemble_baseline", kept)
    return choices


def test_baseline_fallback_moves_the_tasks_still_late(monkeypatch):
    # same scenario, baseline seed 8: five redraws leave tasks 1 and 14
    # late, and the fallback moves them to their faster exact branch
    scen = generate_scenario(ScenarioConfig(n_tasks=20, n_sbs=3, seed=3,
                                            t_max_range=(0.02, 0.08)))
    assemble = experiments._assemble_baseline
    choices = _assembled_baselines(monkeypatch)
    placement, _ = run_baseline(scen, UtilityWeights(0.5), 8)
    assert len(choices) == 7
    spent = assemble(scen, choices[5])
    late = np.flatnonzero(~costs.check_feasibility(spent, scen).deadline_ok)
    assert late.tolist() == [1, 14]
    pc = scen.pricing
    assert choices[6][late].tolist() == np.where(
        pc.t_local <= pc.t_mbs, 0, scen.n_sbs + 1)[late].tolist()
    assert costs.check_feasibility(placement, scen).ok


def test_baseline_draws_only_stations_a_lone_task_meets_its_deadline_on(
        monkeypatch):
    # tight deadlines: an SBS is drawn only where the naive thirds split at
    # full share meets the deadline on `costs.lone_tables`, which charges
    # the forwarded third the relay delay of the task alone; a table that
    # leaves the relay unpriced admits every pair here
    choices = _assembled_baselines(monkeypatch)
    drawn = refused = 0
    for scenario_seed in range(10):
        scen = generate_scenario(ScenarioConfig(
            n_tasks=20, n_sbs=3, seed=scenario_seed, t_max_range=(0.02, 0.08)))
        lone = costs.lone_tables(scen, 0.5)
        third = lone.c / 3.0
        delay, _ = lone.split_price(third, third, lone.c - third - third, 1.0)
        admitted = costs.meets_deadline(delay, lone.t_max)
        refused += int((~admitted).sum())
        for seed in range(5):
            choices.clear()
            try:
                run_baseline(scen, UtilityWeights(0.5), seed)
            except InfeasibleTaskError:
                pass
            for choice in choices:
                j = np.flatnonzero((choice >= 1) & (choice <= scen.n_sbs))
                assert admitted[choice[j] - 1, j].all(), (scenario_seed, seed)
                drawn += len(j)
    assert refused > 0 and drawn > 0


def test_baseline_raises_when_no_branch_meets_the_deadline():
    scen = generate_scenario(ScenarioConfig(n_tasks=1, n_sbs=0, seed=0,
                                            t_max_range=(1e-6, 1e-6)))
    with pytest.raises(InfeasibleTaskError) as err:
        run_baseline(scen, UtilityWeights(0.5), seed=0)
    assert err.value.tasks == [0]


def test_baseline_mean_dominated_by_solver(small_scenario):
    placement, _ = admm.run(small_scenario,
                            SolverConfig(max_iter=40, cbgp_rounds=20))
    solver_util = costs.utility(placement, small_scenario, UtilityWeights(0.5))
    utils = [run_baseline(small_scenario, UtilityWeights(0.5), seed=s)[1]
             for s in range(40)]
    assert float(np.mean(utils)) >= solver_util


def test_larger_step_reaches_plateau_no_later():
    scen = generate_scenario(ScenarioConfig(n_tasks=30, n_sbs=3, seed=4))

    def plateau_start(u, window=20, rel=1e-3):
        u = np.asarray(u)
        for start in range(len(u) - window):
            seg = u[start:start + window + 1]
            if np.all(np.abs(np.diff(seg)) < rel * np.abs(seg[:-1])):
                return start
        return len(u)

    starts = {}
    for rho in (1.0, 1.2):
        cfg = SolverConfig(rho=rho, max_iter=80, cbgp_rounds=25,
                           tol=1e-12, record_timing=False)
        _, trace = admm.run(scen, cfg)
        starts[rho] = plateau_start(trace.utilities())
    assert starts[1.2] <= starts[1.0]


# -- referees of the array rewrite ---------------------------------------------

def _reference_run_baseline(scenario, weights, seed):
    """`run_baseline` as it was before it read the one-hot arrays: each
    branch checked alone by a per-task closure of scalar `split_price`
    calls on the lone-task table, capacity overflows demoted station by
    station, at floor(1 / h_min + 1e-9) tasks per station."""
    rng = np.random.default_rng(seed)
    s, n = scenario.n_sbs, scenario.n_tasks
    t_max = scenario.t_max_array()
    h_min = scenario.config.h_min
    cap = int(np.floor(1.0 / h_min + 1e-9))

    tables = costs.lone_tables(scenario, weights.alpha)
    c = scenario.c_array()

    def standalone_ok(branch, j):
        if branch == 0:
            return tables.t_local[j] <= t_max[j]
        if branch == s + 1:
            return tables.t_mbs[j] <= t_max[j]
        i = branch - 1
        third = c[j] / 3.0
        delay, _ = tables.split_price(third, third, c[j] - third - third, 1.0,
                                      i, j)
        return delay <= t_max[j]

    feasible_sets = []
    for j in range(n):
        branches = [b for b in range(s + 2) if standalone_ok(b, j)]
        if not branches:
            branches = [int(np.argmin(
                [tables.t_local[j]] + [np.inf] * s + [tables.t_mbs[j]]))]
        feasible_sets.append(branches)

    choice = np.array([rng.choice(feasible_sets[j]) for j in range(n)])

    for _ in range(5):
        for i in range(s):
            members = np.nonzero(choice == i + 1)[0]
            if len(members) > cap:
                for j in members[cap:]:
                    choice[j] = (s + 1 if (s + 1) in feasible_sets[j]
                                 else feasible_sets[j][0])
        placement = _reference_assemble_baseline(scenario, choice)
        report = costs.check_feasibility(placement, scenario)
        if report.ok:
            break
        violated = np.flatnonzero(~report.deadline_ok)
        if not len(violated):
            break
        for j in violated:
            others = [b for b in feasible_sets[j] if b != choice[j]]
            choice[j] = rng.choice(others) if others else feasible_sets[j][0]
    else:
        placement = _reference_assemble_baseline(scenario, choice)
        late = ~costs.check_feasibility(placement, scenario).deadline_ok
        choice[late] = np.where(tables.t_local <= tables.t_mbs, 0, s + 1)[late]
        placement = _reference_assemble_baseline(scenario, choice)
        report = costs.check_feasibility(placement, scenario)
    if not report.ok:
        raise InfeasibleTaskError(np.flatnonzero(~report.deadline_ok).tolist())
    return placement, costs.utility(placement, scenario, weights)


def _reference_assemble_baseline(scenario, choice):
    """`_assemble_baseline` with its station loop for the shares."""
    s, n = scenario.n_sbs, scenario.n_tasks
    c = scenario.c_array()
    x, y, z = costs.hard_assignment(choice, s)
    third = x * (c / 3.0)[None, :]
    h = np.ones((s, n))
    for i in range(s):
        members = np.nonzero(x[i] > 0)[0]
        if len(members):
            h[i, members] = min(1.0, 1.0 / len(members))
    return Placement(x=x, y=y, z=z, c0=third, c1=third.copy(),
                     ci=third.copy(), h=h)


def _reference_placement_profile(scenario_config, sizes, solver_config):
    """`placement_profile` as it was: each task's branch label parsed back
    to find its station and split."""
    rows = []
    for size in sizes:
        cfg = replace(scenario_config, c_range=(float(size), float(size)))
        scenario = generate_scenario(cfg)
        placement, _ = admm.run(scenario, solver_config)
        n = scenario.n_tasks
        branches = placement.branches()
        frac_local = np.zeros(n)
        frac_mbs = np.zeros(n)
        frac_sbs = np.zeros(n)
        for j, b in enumerate(branches):
            if b == "local":
                frac_local[j] = 1.0
            elif b == "mbs":
                frac_mbs[j] = 1.0
            else:
                i = int(b[3:]) - 1
                c = scenario.tasks[j].c
                frac_local[j] = placement.c0[i, j] / c
                frac_mbs[j] = placement.c1[i, j] / c
                frac_sbs[j] = placement.ci[i, j] / c
        rows.append({"size": float(size),
                     "branches": branches,
                     "frac_local": float(frac_local.mean()),
                     "frac_mbs": float(frac_mbs.mean()),
                     "frac_sbs": float(frac_sbs.mean())})
    return rows


def _baseline_outcome(scenario, seed, baseline):
    """The placement's arrays and utility, or the tasks named as raised."""
    try:
        placement, util = baseline(scenario, UtilityWeights(0.5), seed)
    except InfeasibleTaskError as exc:
        return exc.tasks
    return [getattr(placement, f.name).tobytes() for f in fields(placement)], util


def test_run_baseline_matches_reference():
    # 0-4 SBSs; loose and tight deadlines, a range where some tasks meet
    # their deadline nowhere, so raised task lists are compared too, and
    # tight ones with a slow macro station, whose over-capacity tasks fall
    # to their first feasible branch; floors of 20, 3 and 2 tasks per station
    variants = [dict(), dict(t_max_range=(0.02, 0.08)),
                dict(t_max_range=(0.001, 0.01)),
                dict(t_max_range=(0.02, 0.08), f_mbs=1e9)]
    raised = 0
    for k in range(60):
        rng = np.random.default_rng([38, k])
        scen = generate_scenario(ScenarioConfig(
            n_tasks=int(rng.integers(4, 16)), n_sbs=k % 5,
            seed=int(rng.integers(0, 10**6)), h_min=(0.05, 0.3, 0.5)[k // 20],
            **variants[k // 5 % 4]))
        for seed in range(8):
            got = _baseline_outcome(scen, seed, run_baseline)
            assert got == _baseline_outcome(scen, seed,
                                            _reference_run_baseline), (k, seed)
            raised += isinstance(got, list)
    assert raised > 0


def test_placement_profile_matches_reference():
    profile_cfg = ScenarioConfig(n_tasks=1, n_sbs=2, seed=3,
                                 t_max_range=(20.0, 20.0))
    solver_cfg = SolverConfig(max_iter=80, cbgp_rounds=40)
    sizes = [1e4, 1e5, 1e6, 4e6, 2e7, 5e7, 9e7, 8e6]  # criterion 11's
    assert (placement_profile(profile_cfg, sizes, solver_config=solver_cfg)
            == _reference_placement_profile(profile_cfg, sizes, solver_cfg))


def test_placement_profile_reports_branch_and_fractions():
    cfg = ScenarioConfig(n_tasks=1, n_sbs=1, seed=3, t_max_range=(20.0, 20.0))
    rows = placement_profile(cfg, [1e4, 8e6],
                             solver_config=SolverConfig(max_iter=60,
                                                        cbgp_rounds=30))
    assert rows[0]["branches"][0] == "local"
    assert rows[0]["frac_local"] == 1.0
    assert rows[1]["branches"][0].startswith("sbs")
    assert rows[1]["frac_local"] > 0 and rows[1]["frac_sbs"] > 0


def test_oracle_gap_study_rows():
    # the study proper runs at five to eight tasks, outside the test suite;
    # here one seed at two and three tasks checks its rows
    rows = oracle_gap_study(sizes=(2, 3), n_sbs=1)
    assert [(r["n_tasks"], r["deadline"]) for r in rows] == [
        (2, "loose"), (2, "tight"), (3, "loose"), (3, "tight")]
    for r in rows:
        assert r["tuples"] == 3 ** r["n_tasks"]
        assert 0 < r["priced"] <= 2 ** r["contested"]
        assert r["contested"] <= r["n_tasks"]
        if np.isfinite(r["gap"]):
            assert r["gap"] >= -1e-12


# -- command line ---------------------------------------------------------------

def test_cli_generate_solve_oracle_baseline(tmp_path, capsys):
    scen_path = str(tmp_path / "scenario.json")
    assert cli.main(["generate", "--n-tasks", "2", "--n-sbs", "1",
                     "--seed", "4", "--out", scen_path]) == 0
    scen = Scenario.from_json(scen_path)
    assert scen.n_tasks == 2

    out_dir = str(tmp_path / "run")
    assert cli.main(["solve", "--scenario", scen_path, "--alpha", "0.5",
                     "--max-iter", "25", "--out", out_dir, "--no-timing"]) == 0
    assert os.path.exists(os.path.join(out_dir, "trace.csv"))
    with open(os.path.join(out_dir, "placement.json")) as fh:
        doc = json.load(fh)
    assert set(doc) == {"utility", "converged", "iterations", "placement"}

    oracle_path = str(tmp_path / "oracle.json")
    assert cli.main(["oracle", "--scenario", scen_path,
                     "--out", oracle_path]) == 0
    with open(oracle_path) as fh:
        odoc = json.load(fh)
    assert doc["utility"] <= odoc["utility"] * 1.05 + 1e-12

    assert cli.main(["baseline", "--scenario", scen_path, "--seed", "1"]) == 0
    line = capsys.readouterr().out.strip().split("\n")[-1]
    payload = json.loads(line)
    assert "utility" in payload


def test_cli_oracle_writes_the_optimum_of_thousands_of_tasks(tmp_path, capsys):
    # a loose 5200-task instance is decided without a search, and its
    # JSON holds no count of the whole tuple space, 7**5200, which has
    # more digits than Python writes as a string
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"n_tasks": 5200, "n_sbs": 5,
                                       "seed": 42}))
    scen_path = str(tmp_path / "scenario.json")
    assert cli.main(["generate", "--config", str(config_path),
                     "--out", scen_path]) == 0
    result = oracle.enumerate_optimum(Scenario.from_json(scen_path),
                                      UtilityWeights(0.5))
    assert json.loads(result.to_json()) == result.to_dict()
    capsys.readouterr()
    oracle_path = str(tmp_path / "oracle.json")
    assert cli.main(["oracle", "--scenario", scen_path,
                     "--out", oracle_path]) == 0
    assert capsys.readouterr().out.startswith(
        "optimum 105.38 (contested tasks 0, tuples priced 1)")
    with open(oracle_path) as fh:
        doc = json.load(fh)
    assert doc["utility"] == result.utility
    assert doc["branch_table"] == ["local"] * 5200


def test_cli_oracle_refusal_is_one_line_and_exit_2(tmp_path, capsys):
    # mixed 20 tasks on two SBSs leaves 10 tasks contested: 3**10 tuples,
    # over the oracle's cap, so the command refuses without a traceback
    # and writes nothing
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"n_tasks": 20, "n_sbs": 2, "seed": 0,
                                       "c_range": [4e6, 2e7]}))
    scen_path = str(tmp_path / "scenario.json")
    assert cli.main(["generate", "--config", str(config_path),
                     "--out", scen_path]) == 0
    capsys.readouterr()
    oracle_path = tmp_path / "oracle.json"
    assert cli.main(["oracle", "--scenario", scen_path,
                     "--out", str(oracle_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("edgealloc oracle: 10 contested tasks give 59049 "
                            "tuples, over the oracle's cap of 15625\n")
    assert not oracle_path.exists()


def test_cli_generate_config_names_unknown_keys(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"n_tasks": 2, "n_sbs_typo": 1}))
    with pytest.raises(ConfigurationError,
                       match=r"unknown keys \['n_sbs_typo'\]"):
        cli.main(["generate", "--config", str(config_path),
                  "--out", str(tmp_path / "scenario.json")])


def test_cli_sweep(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "scenario": {"n_tasks": 2, "n_sbs": 1, "seed": 1},
        "axis": "rho", "values": [1.0],
        "outdir": str(tmp_path / "sweep"),
        "solver": {"max_iter": 10, "cbgp_rounds": 8, "record_timing": False},
    }))
    assert cli.main(["sweep", "--spec", str(spec_path)]) == 0
    assert (tmp_path / "sweep" / "summary.csv").exists()
    assert (tmp_path / "sweep" / "rho" / "1.0" / "trace.csv").exists()


def test_package_import_loads_no_process_pool():
    # a module-level pool import raised the benchmark's set-up time by
    # about 8%; only a sweep with workers > 1 needs one
    src = os.path.dirname(os.path.dirname(os.path.abspath(edgealloc.__file__)))
    code = ("import sys, edgealloc; print(sorted(m for m in sys.modules "
            "if m in ('multiprocessing', 'concurrent.futures')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
