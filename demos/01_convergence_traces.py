"""Convergence of the consensus solver under different delay weights.

Runs the 100-task / 6-station reference scenario three times with the
delay weight alpha at 0.2, 0.5 and 0.8, and prints the utility trace of
each run.  Expected picture: every trace drops steeply while the branch
duals race, then flattens once the placements lock; heavier delay
weighting ends at a higher utility because the delay term dominates the
objective under the default constants.
"""

import numpy as np

from edgealloc import ScenarioConfig, SolverConfig, generate_scenario, run

scenario = generate_scenario(ScenarioConfig(n_tasks=100, n_sbs=5, seed=42))
print(f"scenario: {scenario.n_tasks} tasks, {len(scenario.stations)} stations\n")

traces = {}
for alpha in (0.2, 0.5, 0.8):
    config = SolverConfig(alpha=alpha, rho=1.0, max_iter=120, cbgp_rounds=30)
    placement, trace = run(scenario, config)
    traces[alpha] = trace.utilities()
    print(f"alpha={alpha}: final utility {traces[alpha][-1]:.4f}, "
          f"{placement.branches().count('local')} tasks on terminals")

print("\niter  " + "  ".join(f"u(a={a})" for a in traces))
marks = [0, 1, 2, 3, 5, 8, 12, 18, 25, 40, 60, 90, 119]
for k in marks:
    row = "  ".join(f"{traces[a][min(k, len(traces[a]) - 1)]:8.3f}" for a in traces)
    print(f"{k + 1:4d}  {row}")

u = {a: t[-1] for a, t in traces.items()}
assert u[0.8] > u[0.5] > u[0.2]
print("\nfinal utilities are ordered u(0.8) > u(0.5) > u(0.2), as the "
      "delay share of the objective grows with alpha.")
