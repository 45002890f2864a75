"""Per-iteration rise of the augmented Lagrangian along `admm.run`.

The paper argues the consensus loop's convergence from a monotone
augmented Lagrangian: each iteration's primal sweep (local blocks, then
the global block) must not raise it at the duals the sweep was solved
under.  `admm.run` decides convergence on its residuals and never prices
the Lagrangian, so this helper measures the rise from outside, through
three names `run` calls through their modules:

- `admm.init_state` hands over the state object;
- `local_blocks.LocalProblem.from_tables` receives each iteration's
  tables and cost scale before any block writes: the value before;
- `admm.dual_update` is entered after both blocks and before the duals
  move: the value after.
"""

import inspect

import pytest

from edgealloc import admm, local_blocks


def lagrangian_rises(scenario, config) -> list:
    """Run the solver on `scenario` and return one rise per iteration."""
    seen, rises = {}, []
    init_state = admm.init_state
    from_tables = local_blocks.LocalProblem.from_tables
    dual_update = admm.dual_update

    def holding_state(*args, **kwargs):
        seen["state"] = init_state(*args, **kwargs)
        return seen["state"]

    def pricing_before(*args, **kwargs):
        bound = inspect.signature(from_tables).bind(*args, **kwargs)
        bound.apply_defaults()
        seen["tables"] = bound.arguments["tables"]
        seen["cost_scale"] = bound.arguments["cost_scale"]
        seen["before"] = admm.augmented_lagrangian(
            seen["state"], seen["tables"], seen["cost_scale"])
        return from_tables(*args, **kwargs)

    def pricing_after(state):
        if "before" in seen:
            after = admm.augmented_lagrangian(state, seen["tables"],
                                              seen["cost_scale"])
            rises.append(after - seen.pop("before"))
        return dual_update(state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(admm, "init_state", holding_state)
        mp.setattr(local_blocks.LocalProblem, "from_tables",
                   staticmethod(pricing_before))
        mp.setattr(admm, "dual_update", pricing_after)
        _, trace = admm.run(scenario, config)
    # the split block's problem is built only when the scenario has an SBS
    assert len(rises) == len(trace.records), "the scenario needs an SBS"
    return rises
