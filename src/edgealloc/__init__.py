"""Task allocation across terminals, small cells and a macro station.

A numpy library built around three pieces: a cost model pricing any
(possibly fractional) allocation in weighted delay plus energy, a
parallel multi-block consensus solver that relaxes the binary placement
and drives it back to corners through log-barrier smoothing, and a
branch-and-bound oracle for validating the solver, whose cost grows with
the tasks it cannot decide up front, not with the instance size.
"""

from .admm import (ConsensusState, SolverConfig, Trace, TraceRecord,
                   augmented_lagrangian, dual_update, residuals,
                   round_to_feasible, run)
from .costs import (CostTables, Placement, UtilityWeights, build_cost_tables,
                    check_feasibility, utility)
from .errors import (ConfigurationError, InfeasibleTaskError,
                     InstanceTooLargeError)
from .experiments import (ExperimentSpec, oracle_gap_study, placement_profile,
                          run_baseline, run_experiment)
from .global_block import (GlobalProblem, kkt_residual, line_search,
                           nullspace_cg_solve, smoothed_objective,
                           solve_global)
from .local_blocks import (CbgpVars, LocalProblem, cbgp_solve,
                           majorize_penalty, rlt_bounds, solve_bit_branch)
from .oracle import OracleResult, compare, enumerate_optimum
from .scenario import (ChannelMatrix, LocalDevice, NetworkGraph, Scenario,
                       ScenarioConfig, Station, Task, generate_scenario)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
