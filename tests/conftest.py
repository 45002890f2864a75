import pytest

from edgealloc.scenario import ScenarioConfig, generate_scenario


@pytest.fixture
def small_scenario():
    return generate_scenario(ScenarioConfig(n_tasks=5, n_sbs=2, seed=42))
