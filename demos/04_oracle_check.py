"""Cross-checking the consensus solver against the oracle.

The oracle fixes every task dominance decides on its exact branch and
searches the rest, the contested tasks, exactly: every hard assignment of
theirs is priced or bounded out, which gives the true optimum of the
weighted objective.  This script runs both solvers on a batch of random
small instances, including deadline-stressed ones, and reports the
utility gaps.  The rounded consensus placement should match the optimum
to well within a few percent.  A second table extends the check to five
to eight tasks on two stations, loose and tight, with the oracle's time,
the tasks it left contested and the tuples its branch and bound priced
out of the exhaustive order's (s + 2)^n.
"""

import numpy as np

from edgealloc import (ScenarioConfig, SolverConfig, UtilityWeights, compare,
                       enumerate_optimum, generate_scenario, oracle_gap_study,
                       run, utility)

rng = np.random.default_rng(2024)
weights = UtilityWeights(0.5)

print(f"{'instance':>9} {'tasks':>5} {'cells':>5} {'deadline':>9} "
      f"{'solver':>10} {'oracle':>10} {'gap %':>7} {'agree':>5}")
worst = 0.0
for trial in range(12):
    tight = trial % 3 == 0
    cfg = ScenarioConfig(
        n_tasks=int(rng.integers(1, 5)), n_sbs=int(rng.integers(0, 3)),
        seed=int(rng.integers(0, 10000)),
        t_max_range=(0.02, 0.08) if tight else (15.0, 30.0))
    scenario = generate_scenario(cfg)
    placement, _ = run(scenario, SolverConfig(max_iter=120, cbgp_rounds=30))
    solver_util = utility(placement, scenario, weights)
    oracle = enumerate_optimum(scenario, weights)
    report = compare(placement, solver_util, oracle, 0.05, scenario)
    worst = max(worst, report["relative_gap"])
    print(f"{trial:>9} {cfg.n_tasks:>5} {cfg.n_sbs:>5} "
          f"{'tight' if tight else 'slack':>9} {solver_util:>10.4f} "
          f"{oracle.utility:>10.4f} {100 * report['relative_gap']:>7.3f} "
          f"{report['branch_agreement']:>3}/{report['n_tasks']}")

print(f"\nworst relative gap over the batch: {100 * worst:.3f}%")

print(f"\n{'tasks':>5} {'deadline':>9} {'seed':>4} {'solver':>10} {'oracle':>10} "
      f"{'gap %':>7} {'oracle s':>9} {'contested':>9} {'priced':>13}")
for row in oracle_gap_study(sizes=(5, 6, 7, 8), n_sbs=2, seeds=(0, 1, 2),
                            weights=weights):
    print(f"{row['n_tasks']:>5} {row['deadline']:>9} {row['seed']:>4} "
          f"{row['solver_utility']:>10.4f} {row['oracle_utility']:>10.4f} "
          f"{100 * row['gap']:>7.3f} {row['oracle_s']:>9.2f} "
          f"{row['contested']:>9} {row['priced']:>6}/{row['tuples']}")
