"""Three-tier topology: tasks, stations, channel gains and the wired graph.

A scenario bundles everything the solvers need to price an allocation:
the task set, one macro station (MBS) plus small-cell stations (SBS),
per-pair channel gains, and a wired forwarding graph.  Data that a task
forwards through SBS i crosses that station's one relay route to the MBS,
so the graph holds one route per SBS, shared by every task.  Scenarios
are immutable after generation and serialize to a JSON document so that
solver and oracle consume byte-identical inputs; loading rejects a
document whose stations are not one MBS followed by SBSs, or whose
routes do not match its stations and graph.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

MBS = "MBS"
SBS = "SBS"


def _check_keys(entry: str, d: dict, names) -> None:
    """Raise ConfigurationError, naming the entry and its missing and
    unknown keys, unless the keys of document entry `d` are exactly
    `names`."""
    names = set(names)
    if set(d) != names:
        raise ConfigurationError(
            f"{entry}: missing keys {sorted(names - set(d))}, "
            f"unknown keys {sorted(set(d) - names)}")


def read_json(src):
    """The JSON document in `src`, inline text if it starts with "{", else a path."""
    if isinstance(src, str) and src.lstrip().startswith("{"):
        return json.loads(src)
    with open(src) as fh:
        return json.load(fh)


def write_json(doc, path=None) -> str:
    """`doc` as JSON text indented by one, also written to `path` if given."""
    text = json.dumps(doc, indent=1)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def from_config(kind, d: dict, entry: str):
    """The dataclass `kind` from hand-written config entry `d`, lists read
    as tuples, whose missing keys take the defaults; ConfigurationError
    names the entry and its unknown keys, or the keys it misses that have
    no default."""
    unknown = set(d) - {f.name for f in fields(kind)}
    if unknown:
        raise ConfigurationError(f"{entry}: unknown keys {sorted(unknown)}")
    missing = [f.name for f in fields(kind) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigurationError(f"{entry}: missing keys {missing}")
    return kind(**{k: tuple(v) if isinstance(v, list) else v
                   for k, v in d.items()})


def _build(kind, d: dict, entry: str):
    """The dataclass `kind` from document entry `d`, whose keys must be
    exactly its fields, lists read as tuples."""
    _check_keys(entry, d, (f.name for f in fields(kind)))
    return from_config(kind, d, entry)


@dataclass(frozen=True)
class Task:
    """A unit of work: `c` data bits, deadline `t_max` seconds, `u` cycles/bit."""

    id: int
    c: float
    t_max: float
    u: float

    def __post_init__(self):
        if self.c <= 0 or self.t_max <= 0 or self.u <= 0:
            raise ConfigurationError(
                f"task {self.id}: c, t_max, u must be positive "
                f"(got {self.c}, {self.t_max}, {self.u})"
            )


@dataclass(frozen=True)
class Station:
    """A base station hosting an edge server.

    `f` is compute capacity in cycles/s, `tx_power_density` the downlink
    power entering the SNR numerator, `e_cycle` the energy drawn per CPU
    cycle of its server.
    """

    id: int
    kind: str
    f: float
    bandwidth: float
    tx_power_density: float
    e_cycle: float
    position: tuple[float, float]

    def __post_init__(self):
        if self.kind not in (MBS, SBS):
            raise ConfigurationError(f"station {self.id}: unknown kind {self.kind!r}")
        if self.f <= 0 or self.bandwidth <= 0:
            raise ConfigurationError(f"station {self.id}: f and bandwidth must be positive")


@dataclass(frozen=True)
class LocalDevice:
    """The terminal tier: compute rate, energy per cycle, uplink power."""

    f_local: float
    e_local: float
    tx_power: float

    def __post_init__(self):
        if self.f_local <= 0 or self.e_local < 0 or self.tx_power <= 0:
            raise ConfigurationError("local device: f_local > 0, e_local >= 0, tx_power > 0")


@dataclass(frozen=True)
class ForwardingUnit:
    """Wired hop with latency (o1 * load + o2) * load."""

    id: str
    o1: float
    o2: float


@dataclass(frozen=True)
class Link:
    """Wired link with latency load / capacity."""

    id: str
    endpoints: tuple[str, str]
    capacity: float

    def __post_init__(self):
        if self.capacity <= 0:
            raise ConfigurationError(f"link {self.id}: capacity must be positive")


@dataclass(frozen=True)
class NetworkGraph:
    """The wired elements behind the small cells and their relay routes.

    `relay_routes` maps each SBS station id, in station order, to the
    route that every task forwarding through that SBS takes to the MBS: a
    sequence of ("unit", id) and ("link", id) pairs naming entries of
    `forwarding_units` and `links`, in the order the data crosses them.
    """

    forwarding_units: dict[str, ForwardingUnit]
    links: dict[str, Link]
    relay_routes: dict[int, tuple[tuple[str, str], ...]]

    def to_dict(self) -> dict:
        return {
            "forwarding_units": [{"id": u.id, "o1": u.o1, "o2": u.o2}
                                 for u in self.forwarding_units.values()],
            "links": [{"id": l.id, "endpoints": list(l.endpoints),
                       "capacity": l.capacity}
                      for l in self.links.values()],
            "relay_routes": [{"sbs": sbs, "elements": [list(e) for e in route]}
                             for sbs, route in self.relay_routes.items()],
        }

    @classmethod
    def from_dict(cls, doc: dict, sbs_ids: list[int]) -> "NetworkGraph":
        """Read the graph of a scenario document whose SBSs are `sbs_ids`;
        raise ConfigurationError unless every SBS has exactly one route and
        every route element is a forwarding unit or link of the graph."""
        if "paths" in doc:
            raise ConfigurationError(
                "scenario graph holds per-task 'paths'; that format is no "
                "longer read, regenerate the scenario")
        units = {u.id: u for u in (
            _build(ForwardingUnit, d, f"forwarding unit {k}")
            for k, d in enumerate(doc["forwarding_units"]))}
        links = {l.id: l for l in (_build(Link, d, f"link {k}")
                                   for k, d in enumerate(doc["links"]))}
        known = {"unit": units, "link": links}
        routes = {}
        for k, route in enumerate(doc["relay_routes"]):
            _check_keys(f"relay route {k}", route, ("sbs", "elements"))
            sbs = route["sbs"]
            if sbs not in sbs_ids:
                raise ConfigurationError(f"relay route of station {sbs}: not an SBS")
            if sbs in routes:
                raise ConfigurationError(f"SBS {sbs} has more than one relay route")
            routes[sbs] = tuple((kind, eid) for kind, eid in route["elements"])
            for kind, eid in routes[sbs]:
                if eid not in known.get(kind, ()):
                    raise ConfigurationError(
                        f"relay route of SBS {sbs}: no {kind} {eid!r} in the graph")
        missing = [i for i in sbs_ids if i not in routes]
        if missing:
            raise ConfigurationError(f"SBS {missing} have no relay route")
        return cls(forwarding_units=units, links=links,
                   relay_routes={i: routes[i] for i in sbs_ids})


@dataclass(frozen=True)
class ChannelMatrix:
    """Station-by-task gains plus the noise floor."""

    gain: np.ndarray
    noise_power: float
    offload_power_sbs_mbs: float

    def __post_init__(self):
        if np.any(self.gain <= 0) or self.noise_power <= 0:
            raise ConfigurationError("channel: gains and noise power must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    """Generator knobs; defaults follow the simulation constants.

    The per-cycle energies default to values under which the delay term
    dominates the weighted objective and small tasks price out cheapest on
    the terminal tier; they can be overridden freely.  `bs_tx_power` is
    dimensionally ambiguous in its source and therefore exposed raw.
    """

    n_tasks: int = 100
    n_sbs: int = 5
    seed: int = 0
    c_range: tuple[float, float] = (5e3, 1e4)
    t_max_range: tuple[float, float] = (15.0, 30.0)
    u: float = 18000.0
    bandwidth: float = 20e6
    noise_dbm_per_hz: float = -172.0
    pathloss_exponent: float = 4.0
    area: float = 200.0
    user_tx_power: float = 0.1
    bs_tx_power: float = 40.0
    f_local: float = 5e9
    f_sbs: float = 2e10
    f_mbs: float = 1e11
    e_local: float = 1e-10
    e_sbs: float = 1.5e-9
    e_mbs: float = 1.2e-9
    o1: float = 1e-9
    o2: float = 1e-6
    link_capacity: float = 1e8
    sbs_mbs_tx_power: float = 1.0
    h_min: float = 0.05

    def __post_init__(self):
        if self.n_tasks < 1 or self.n_sbs < 0:
            raise ConfigurationError("need n_tasks >= 1 and n_sbs >= 0")
        for name in ("c_range", "t_max_range"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi):
                raise ConfigurationError(f"{name} must satisfy 0 < lo <= hi, got ({lo}, {hi})")
        for name in ("u", "bandwidth", "area", "user_tx_power", "bs_tx_power",
                     "f_local", "f_sbs", "f_mbs", "link_capacity", "sbs_mbs_tx_power"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if not (0 < self.h_min <= 1):
            raise ConfigurationError("h_min must lie in (0, 1]")

    @property
    def noise_power(self) -> float:
        """Noise in watts over the configured bandwidth (input is dBm/Hz)."""
        return 10 ** ((self.noise_dbm_per_hz - 30.0) / 10.0) * self.bandwidth

    @property
    def max_per_sbs(self) -> int:
        """The most tasks one SBS can host: the largest k whose equal share
        1/k is at least `h_min`, tested in floating point as the shares are
        (a rounded 1 / h_min can be one more where h_min sits a hair above
        1/k).  The pricer, rounding, the oracle and the baseline read it."""
        k = int(1.0 / self.h_min) + 1
        while 1.0 / k < self.h_min:
            k -= 1
        return k


@dataclass(frozen=True)
class Scenario:
    config: ScenarioConfig
    tasks: tuple[Task, ...]
    stations: tuple[Station, ...]
    device: LocalDevice
    channel: ChannelMatrix
    graph: NetworkGraph
    task_positions: np.ndarray = field(repr=False, default=None)

    # -- convenience views -------------------------------------------------

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_sbs(self) -> int:
        return len(self.stations) - 1

    @property
    def mbs(self) -> Station:
        return self.stations[0]

    @property
    def sbs_list(self) -> tuple[Station, ...]:
        return self.stations[1:]

    def c_array(self) -> np.ndarray:
        return np.array([t.c for t in self.tasks])

    def t_max_array(self) -> np.ndarray:
        return np.array([t.t_max for t in self.tasks])

    def u_array(self) -> np.ndarray:
        return np.array([t.u for t in self.tasks])

    @cached_property
    def pricing(self):
        """The read-only `costs.PricingConstants` of this scenario, built on
        first use and kept for its life.  It is not a field, so `==`,
        `to_dict` and generation never touch it."""
        from .costs import PricingConstants
        return PricingConstants.of(self)

    # -- JSON round trip ---------------------------------------------------

    def to_dict(self) -> dict:
        """The JSON document; `json` writes the tuple fields as lists."""
        return {
            "config": asdict(self.config),
            "tasks": [asdict(t) for t in self.tasks],
            "stations": [asdict(s) for s in self.stations],
            "device": asdict(self.device),
            "channel": {"gain": self.channel.gain.tolist(),
                        "noise_power": self.channel.noise_power,
                        "offload_power_sbs_mbs": self.channel.offload_power_sbs_mbs},
            "graph": self.graph.to_dict(),
            "task_positions": self.task_positions.tolist(),
        }

    def to_json(self, path=None) -> str:
        return write_json(self.to_dict(), path)

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        """Read a `to_dict` document; raise ConfigurationError when the keys
        of its config, a task, a station, the device, the channel or a
        graph element are not exactly that entry's fields, or when the
        stations are not one MBS followed by SBSs."""
        config = _build(ScenarioConfig, doc["config"], "scenario config")
        tasks = tuple(_build(Task, d, f"task {k}")
                      for k, d in enumerate(doc["tasks"]))
        stations = tuple(_build(Station, d, f"station {k}")
                         for k, d in enumerate(doc["stations"]))
        # pricing reads the roles by position: the MBS first, then the SBSs
        if not stations:
            raise ConfigurationError("no stations; the first must be the MBS")
        for k, st in enumerate(stations):
            if st.kind != (SBS if k else MBS):
                raise ConfigurationError(
                    f"station {st.id}: kind {st.kind} at position {k}; "
                    f"stations are one MBS followed by SBSs")
        device = _build(LocalDevice, doc["device"], "device")
        ch = doc["channel"]
        _check_keys("channel", ch, (f.name for f in fields(ChannelMatrix)))
        channel = ChannelMatrix(
            gain=np.asarray(ch["gain"], dtype=float),
            noise_power=ch["noise_power"],
            offload_power_sbs_mbs=ch["offload_power_sbs_mbs"],
        )
        graph = NetworkGraph.from_dict(doc["graph"],
                                       [st.id for st in stations[1:]])
        return cls(config=config, tasks=tasks, stations=stations, device=device,
                   channel=channel, graph=graph,
                   task_positions=np.asarray(doc["task_positions"], dtype=float))

    @classmethod
    def from_json(cls, src) -> "Scenario":
        return cls.from_dict(read_json(src))


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Draw a reproducible scenario: stations and terminals uniform in the
    coverage square, the MBS pinned at the center, gains from the path-loss
    law max(d, 1m)^-exponent, and one wired relay route per SBS."""
    rng = np.random.default_rng(config.seed)
    n, s = config.n_tasks, config.n_sbs

    task_pos = rng.uniform(0.0, config.area, size=(n, 2))
    sbs_pos = rng.uniform(0.0, config.area, size=(s, 2))
    center = config.area / 2.0

    stations = [Station(id=0, kind=MBS, f=config.f_mbs, bandwidth=config.bandwidth,
                        tx_power_density=config.bs_tx_power, e_cycle=config.e_mbs,
                        position=(center, center))]
    for i in range(s):
        stations.append(Station(id=i + 1, kind=SBS, f=config.f_sbs,
                                bandwidth=config.bandwidth,
                                tx_power_density=config.bs_tx_power,
                                e_cycle=config.e_sbs,
                                position=(float(sbs_pos[i, 0]), float(sbs_pos[i, 1]))))

    c = rng.uniform(*config.c_range, size=n)
    t_max = rng.uniform(*config.t_max_range, size=n)
    tasks = tuple(Task(id=j, c=float(c[j]), t_max=float(t_max[j]), u=config.u)
                  for j in range(n))

    device = LocalDevice(f_local=config.f_local, e_local=config.e_local,
                         tx_power=config.user_tx_power)

    sta_pos = np.array([st.position for st in stations])
    d = np.linalg.norm(sta_pos[:, None, :] - task_pos[None, :, :], axis=-1)
    gain = np.maximum(d, 1.0) ** (-config.pathloss_exponent)
    channel = ChannelMatrix(gain=gain, noise_power=config.noise_power,
                            offload_power_sbs_mbs=config.sbs_mbs_tx_power)

    # Wired relay route per SBS: its egress switch, the backhaul link, and a
    # shared aggregation switch at the MBS.  Shortest-hop by construction.
    units = {"fu:mbs": ForwardingUnit(id="fu:mbs", o1=config.o1, o2=config.o2)}
    links = {}
    routes = {}
    for st in stations[1:]:
        unit, link = f"fu:sbs{st.id}", f"ln:sbs{st.id}-mbs"
        units[unit] = ForwardingUnit(id=unit, o1=config.o1, o2=config.o2)
        links[link] = Link(id=link, endpoints=(f"sbs{st.id}", "mbs"),
                           capacity=config.link_capacity)
        routes[st.id] = (("unit", unit), ("link", link), ("unit", "fu:mbs"))

    graph = NetworkGraph(forwarding_units=units, links=links, relay_routes=routes)
    return Scenario(config=config, tasks=tasks, stations=tuple(stations),
                    device=device, channel=channel, graph=graph,
                    task_positions=task_pos)

