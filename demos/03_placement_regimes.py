"""Where a task lands as its size grows, and how capacities shift that.

Part 1 sweeps a single task across five decades of data size: tiny tasks
stay on the terminal (cheapest per bit), mid sizes split across terminal
and small cell once the deadline forces offloading, and huge tasks jump
to the macro station, whose uplink has no wired relay to congest.

Part 2 sweeps the terminal and small-cell compute capacities on fixed
task sets and counts where tasks end up.
"""

from dataclasses import replace

from edgealloc import ScenarioConfig, SolverConfig, generate_scenario, run
from edgealloc.experiments import placement_profile

profile_cfg = ScenarioConfig(n_tasks=1, n_sbs=2, seed=3,
                             t_max_range=(20.0, 20.0))
solver_cfg = SolverConfig(max_iter=80, cbgp_rounds=40)

sizes = [1e4, 1e5, 1e6, 4e6, 8e6, 1.2e7, 2e7, 5e7]
print("size sweep (single task, 20 s deadline):")
for row in placement_profile(profile_cfg, sizes, solver_config=solver_cfg):
    print(f"  {row['size']:9.2e} bits -> {row['branches'][0]:6s}  "
          f"split local/macro/cell = {row['frac_local']:.2f}/"
          f"{row['frac_mbs']:.2f}/{row['frac_sbs']:.2f}")

print("\nterminal capacity sweep (4 tasks of 2-6 Mbit):")
lt_base = ScenarioConfig(n_tasks=4, n_sbs=1, seed=9, c_range=(2e6, 6e6),
                         t_max_range=(20.0, 20.0))
for f_local in (1e9, 3e9, 6e9, 2e10):
    scen = generate_scenario(replace(lt_base, f_local=f_local))
    placement, _ = run(scen, SolverConfig(max_iter=100, cbgp_rounds=30))
    n_local = placement.branches().count("local")
    print(f"  f_local={f_local:8.1e} cycles/s -> {n_local} of 4 tasks stay local")

print("\nsmall-cell capacity sweep (4 tasks of 6.5-12 Mbit):")
sbs_base = ScenarioConfig(n_tasks=4, n_sbs=1, seed=9, c_range=(6.5e6, 1.2e7),
                          t_max_range=(20.0, 20.0))
for f_sbs in (2e9, 8e9, 2e10, 6e10, 2e11):
    scen = generate_scenario(replace(sbs_base, f_sbs=f_sbs))
    placement, _ = run(scen, SolverConfig(max_iter=100, cbgp_rounds=30))
    hosted = sum(b.startswith("sbs") for b in placement.branches())
    print(f"  f_sbs={f_sbs:8.1e} cycles/s -> {hosted} of 4 tasks hosted on "
          f"the small cell")
print("\nthe hosted count saturates once the cell absorbs every task that "
      "the deadline lets it serve.")
