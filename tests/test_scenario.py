import json

import numpy as np
import pytest

from edgealloc import costs
from edgealloc.admm import SolverConfig
from edgealloc.errors import ConfigurationError
from edgealloc.experiments import ExperimentSpec
from edgealloc.scenario import (SBS, ChannelMatrix, Link, LocalDevice,
                                Scenario, ScenarioConfig, Station, Task,
                                from_config, generate_scenario)


def test_generation_counts_match_config():
    scen = generate_scenario(ScenarioConfig(n_tasks=100, n_sbs=5, seed=42))
    assert scen.n_tasks == 100
    assert len(scen.stations) == 6
    assert sum(1 for s in scen.stations if s.kind == "MBS") == 1
    assert scen.graph.relay_routes == {
        i: (("unit", f"fu:sbs{i}"), ("link", f"ln:sbs{i}-mbs"), ("unit", "fu:mbs"))
        for i in range(1, 6)}
    routes = scen.to_dict()["graph"]["relay_routes"]
    assert [r["sbs"] for r in routes] == [1, 2, 3, 4, 5]


def test_generation_is_deterministic_byte_for_byte():
    cfg = ScenarioConfig(n_tasks=20, n_sbs=3, seed=9)
    a = generate_scenario(cfg).to_json()
    b = generate_scenario(cfg).to_json()
    assert a == b


def test_task_sizes_respect_configured_range():
    scen = generate_scenario(ScenarioConfig(n_tasks=3, n_sbs=2, seed=7))
    for t in scen.tasks:
        assert 5e3 <= t.c <= 1e4
        assert 15.0 <= t.t_max <= 30.0


def test_gain_uses_clamped_pathloss_law():
    scen = generate_scenario(ScenarioConfig(n_tasks=4, n_sbs=2, seed=1))
    sta = np.array([s.position for s in scen.stations])
    d = np.linalg.norm(sta[:, None, :] - scen.task_positions[None, :, :], axis=-1)
    expected = np.maximum(d, 1.0) ** -4
    assert np.allclose(scen.channel.gain, expected)


def test_invalid_range_raises_configuration_error():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(c_range=(1e4, 5e3))
    with pytest.raises(ConfigurationError):
        ScenarioConfig(n_tasks=0)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(h_min=0.0)


@pytest.mark.parametrize("h_min, hosted", [
    (0.05, 20), (0.4, 2), (0.5, 2), (0.5 + 5e-13, 1), (1.0 / 3.0, 3),
    (1.0, 1)])
def test_max_per_sbs_is_the_pricers_equal_share_test(h_min, hosted):
    config = ScenarioConfig(h_min=h_min)
    assert config.max_per_sbs == hosted
    # the largest count whose equal share keeps the floor
    assert min(1.0, 1.0 / hosted) >= h_min > 1.0 / (hosted + 1)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Task(id=3, c=1e4, t_max=0.0, u=1.0),
                 r"task 3: c, t_max, u must be positive", id="task"),
    pytest.param(lambda: Station(id=1, kind="LTE", f=1.0, bandwidth=1.0,
                                 tx_power_density=1.0, e_cycle=0.0,
                                 position=(0.0, 0.0)),
                 r"station 1: unknown kind 'LTE'", id="station-kind"),
    pytest.param(lambda: Station(id=2, kind=SBS, f=1.0, bandwidth=0.0,
                                 tx_power_density=1.0, e_cycle=0.0,
                                 position=(0.0, 0.0)),
                 r"station 2: f and bandwidth must be positive",
                 id="station-bandwidth"),
    pytest.param(lambda: LocalDevice(f_local=1.0, e_local=-1.0, tx_power=1.0),
                 r"local device: f_local > 0", id="device"),
    pytest.param(lambda: Link(id="ln", endpoints=("a", "b"), capacity=0.0),
                 r"link ln: capacity must be positive", id="link"),
    pytest.param(lambda: ChannelMatrix(gain=np.array([[1.0, 0.0]]),
                                       noise_power=1.0,
                                       offload_power_sbs_mbs=1.0),
                 r"channel: gains and noise power must be positive",
                 id="channel"),
    pytest.param(lambda: ScenarioConfig(link_capacity=0.0),
                 r"link_capacity must be positive", id="config-positive"),
    pytest.param(lambda: SolverConfig(alpha=1.5),
                 r"alpha must lie in \[0, 1\]", id="solver-alpha"),
])
def test_constructors_reject_bad_inputs(build, message):
    with pytest.raises(ConfigurationError, match=message):
        build()


def test_config_lists_read_as_tuples():
    doc = {"n_tasks": 3, "n_sbs": 1, "c_range": [5e3, 1e4]}
    spec = ExperimentSpec.from_json(json.dumps(
        {"scenario": doc, "axis": "alpha", "values": [0.5], "outdir": "out"}))
    for config in (from_config(ScenarioConfig, doc, "scenario"), spec.scenario):
        assert config.c_range == (5e3, 1e4)
        hash(config)
        scen = generate_scenario(config)
        assert Scenario.from_json(scen.to_json()).config == scen.config


def test_json_roundtrip(tmp_path, small_scenario):
    path = tmp_path / "scenario.json"
    small_scenario.to_json(path)
    again = Scenario.from_json(str(path))
    assert again.to_json() == small_scenario.to_json()
    assert np.allclose(again.channel.gain, small_scenario.channel.gain)


def _unknown_unit(graph):
    graph["relay_routes"][0]["elements"][0] = ["unit", "fu:nowhere"]


def _unknown_link(graph):
    graph["relay_routes"][1]["elements"][1] = ["link", "ln:nowhere"]


def _unit_named_as_link(graph):
    graph["relay_routes"][0]["elements"][0][0] = "link"


def _unknown_kind(graph):
    graph["relay_routes"][0]["elements"][0][0] = "switch"


def _missing_route(graph):
    del graph["relay_routes"][1]


def _route_of_mbs(graph):
    graph["relay_routes"][0]["sbs"] = 0


def _route_of_unknown_station(graph):
    graph["relay_routes"][0]["sbs"] = 7


def _second_route(graph):
    graph["relay_routes"].append(dict(graph["relay_routes"][0]))


def _per_task_paths(graph):
    del graph["relay_routes"]
    graph["paths"] = [{"id": "t0:relay1", "task_id": 0, "kind": "sbs_relay",
                       "station_id": 1, "elements": [["unit", "fu:sbs1"]],
                       "terminal": "virtual"}]


MALFORMED_ROUTES = [
    (_unknown_unit, "no unit 'fu:nowhere'"),
    (_unknown_link, "no link 'ln:nowhere'"),
    (_unit_named_as_link, "no link 'fu:sbs1'"),
    (_unknown_kind, "no switch 'fu:sbs1'"),
    (_missing_route, r"SBS \[2\] have no relay route"),
    (_route_of_mbs, "station 0: not an SBS"),
    (_route_of_unknown_station, "station 7: not an SBS"),
    (_second_route, "SBS 1 has more than one relay route"),
    (_per_task_paths, "per-task 'paths'"),
]


@pytest.mark.parametrize("defect, message", MALFORMED_ROUTES,
                         ids=[d.__name__.strip("_") for d, _ in MALFORMED_ROUTES])
def test_malformed_relay_routes_rejected_at_load(small_scenario, defect, message):
    doc = small_scenario.to_dict()
    defect(doc["graph"])
    with pytest.raises(ConfigurationError, match=message):
        Scenario.from_dict(doc)


def _swapped_roles(doc):
    # the route of station 1 moves with its kind, so the routes still match
    doc["stations"][0]["kind"], doc["stations"][1]["kind"] = "SBS", "MBS"
    doc["graph"]["relay_routes"][0]["sbs"] = 0


def _second_mbs(doc):
    doc["stations"][2]["kind"] = "MBS"
    del doc["graph"]["relay_routes"][1]


def _no_stations(doc):
    doc["stations"], doc["graph"]["relay_routes"] = [], []


MISPLACED_ROLES = [
    (_swapped_roles, "station 0: kind SBS at position 0"),
    (_second_mbs, "station 2: kind MBS at position 2"),
    (_no_stations, "no stations"),
]


@pytest.mark.parametrize("defect, message", MISPLACED_ROLES,
                         ids=[d.__name__.strip("_") for d, _ in MISPLACED_ROLES])
def test_station_roles_rejected_at_load(small_scenario, defect, message):
    # pricing reads the MBS and the SBSs by position
    doc = small_scenario.to_dict()
    defect(doc)
    with pytest.raises(ConfigurationError, match=message):
        Scenario.from_dict(doc)


def test_config_keys_must_match_the_config_fields(small_scenario):
    # a missing key would otherwise load as its default without a word
    doc = small_scenario.to_dict()
    del doc["config"]["h_min"]
    with pytest.raises(ConfigurationError, match=r"missing keys \['h_min'\]"):
        Scenario.from_dict(doc)
    doc = small_scenario.to_dict()
    doc["config"]["h_max"] = 1.0
    with pytest.raises(ConfigurationError, match=r"unknown keys \['h_max'\]"):
        Scenario.from_dict(doc)
    # every other entry is held to its fields the same way
    doc = small_scenario.to_dict()
    del doc["tasks"][0]["u"]
    with pytest.raises(ConfigurationError,
                       match=r"task 0: missing keys \['u'\]"):
        Scenario.from_dict(doc)
    doc = small_scenario.to_dict()
    del doc["channel"]["noise_power"]
    with pytest.raises(ConfigurationError,
                       match=r"channel: missing keys \['noise_power'\]"):
        Scenario.from_dict(doc)
    doc = small_scenario.to_dict()
    doc["graph"]["forwarding_units"][1]["o3"] = 0.0
    with pytest.raises(ConfigurationError, match=r"forwarding unit 1: "
                       r"missing keys \[\], unknown keys \['o3'\]"):
        Scenario.from_dict(doc)


# -- relay route delays, as the cost tables price them -----------------------

UNIT = ("unit", "fu:sbs1")
LINK = ("link", "ln:sbs1-mbs")


def _route_delay(route=None, **config):
    """Wired delay of one task's relay route through SBS 1 as a function
    of the bits it forwards, with no other load on the route.  `route`
    replaces the default route (fu:sbs1, ln:sbs1-mbs, fu:mbs)."""
    scen = generate_scenario(ScenarioConfig(n_tasks=1, n_sbs=1, seed=0,
                                            **config))
    if route is not None:
        doc = scen.to_dict()
        doc["graph"]["relay_routes"][0]["elements"] = [list(e) for e in route]
        scen = Scenario.from_dict(doc)
    tables = costs.build_cost_tables(scen, 0.5, np.ones((1, 1)),
                                     np.zeros((1, 1)))
    return lambda c1: costs.wired_delay(tables.w2, tables.w1, tables.w0,
                                        np.asarray(c1, dtype=float))[0]


def test_forwarding_delay_values():
    unit = _route_delay([UNIT])
    assert unit(0.0) == 0.0
    assert unit(1000.0) == pytest.approx(2.0e-3)
    free = _route_delay([UNIT], o1=0.0, o2=1e-6)
    assert free(1e6) == pytest.approx(1.0)


def test_link_delay_values():
    link = _route_delay([LINK])
    assert link(0.0) == 0.0
    assert link(1e6) == pytest.approx(0.01)
    assert link(1e8) == pytest.approx(1.0)


def test_path_delay_composition():
    # two forwarding units at (o1 * 1000 + o2) * 1000 and one link at
    # 1000 / capacity
    assert _route_delay()(1000.0) == pytest.approx(4.01e-3)
    assert _route_delay([])(1000.0) == 0.0


def test_path_delay_additive_over_disjoint_paths():
    loads = np.array([1000.0, 1e6])
    both = _route_delay([LINK, UNIT])(loads)
    assert both == pytest.approx(_route_delay([LINK])(loads)
                                 + _route_delay([UNIT])(loads))


def test_delays_nondecreasing_in_load():
    loads = np.linspace(0, 1e7, 50)
    assert np.all(np.diff(_route_delay([UNIT])(loads)) >= 0)
    assert np.all(np.diff(_route_delay([LINK])(loads)) >= 0)
