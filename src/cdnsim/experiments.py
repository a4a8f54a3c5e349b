"""Scenario harness: builds the two planes on the CDN topology and runs
the six comparative experiments (A-F, summarized in
`scenarios.EXPERIMENT_SUMMARIES`).

Topology (defaults): client --50ms-- csc --10ms-- {int1, int2} -- origin,
with int1 10 ms and int2 50 ms from the origin.  `World` builds what both
planes share, the simulator, the network, its nodes and these links, and
`arm` sets up a run's scenario in one place: its kill and link degrade,
and on the NDN plane F's quality oracle and C's switch, which is FIB routes
at csc.  `NdnWorld` runs a consumer pipeline against forwarding nodes with
Content Stores; `HttpWorld` runs a forward proxy (csc), two reverse proxies
(int1, int2) and an origin behind TCP hops.  Each plane defines
`warm(node, nbytes)`, `fetch(byte_range, label)`, `cache_bytes(node)` and
`detail(spec, result)`.

Each experiment is a list of run specs (`run_specs`): one world each,
with its seed, its scenario events and the fetches that make its records.
`execute` runs one spec on its plane's world; `collect` joins the results,
in spec order, into records and details.  `run_experiment` does both, and
owns the process pool behind `cdnsim run --jobs`: the pool executes the
specs in parallel and returns the same output as a serial run.  This
module formats no text: `metrics` turns records into output files.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

from .content import ContentObject
from .httpproxy import HttpNode, HttpPlane, HttpRequest, ProxyConfig
from .metrics import Fetch, MetricsRecord, max_gap
from .names import Name, longest_prefix_match
from .ndn import BEST_ROUTE, ConsumerPipeline, FibEntry, NdnNode, strategy_select
from .network import Network, instrument
from .scenarios import NODES, ScenarioConfig, TopologyConfig
from .sim import Simulator, derive_seed, make_rng

CONTENT_PREFIX = Name(("data_file",))
CONTENT_URL = "/data_file"


@dataclass
class ExperimentOutput:
    """The records of every spec, in spec order, and the per-run details
    (`NdnWorld.detail`, `HttpWorld.detail`): key -> one value per run
    that reported it, in spec order."""
    records: list
    details: dict


def _link_specs(topo: TopologyConfig, loss_access: float, loss_upstream: float):
    l1 = topo.csc_int1_loss if topo.csc_int1_loss is not None else loss_upstream
    l2 = topo.csc_int2_loss if topo.csc_int2_loss is not None else loss_upstream
    return [
        ("client", "csc", topo.access_delay, loss_access),
        ("csc", "int1", topo.csc_int1_delay, l1),
        ("csc", "int2", topo.csc_int2_delay, l2),
        ("int1", "origin", topo.int1_origin_delay, loss_upstream),
        ("int2", "origin", topo.int2_origin_delay, loss_upstream),
    ]


# The NDN plane's routes toward the content: node -> [(neighbor, cost)].
_ROUTES = {"client": [("csc", 10)], "csc": [("int1", 10), ("int2", 20)],
           "int1": [("origin", 10)], "int2": [("origin", 10)]}


def _cache_capacity(cfg: ScenarioConfig, name: str) -> int:
    return cfg.cache_budget if name in cfg.cache_nodes else 0


def _mark_faces_dead(nodes: dict, killed: str):
    # Oracle failure signal: neighbors learn immediately that the
    # face toward the dead node is gone.
    for node in nodes.values():
        if node.alive and killed in node.face_of:
            node.mark_face_dead(node.face_of[killed])


class World:
    """What both planes build: a simulator, and a network holding `nodes`
    (by name) on the topology's five links.  See the module docstring."""

    def __init__(self, cfg: ScenarioConfig, seed: int, nodes: dict,
                 topo: TopologyConfig | None, loss_access: float,
                 loss_upstream: float):
        self.cfg = cfg
        self.seed = seed
        self.sim = Simulator()
        self.net = Network(self.sim, seed)
        self.nodes = nodes
        for node in nodes.values():
            self.net.add_node(node)
        for a, b, delay, loss in _link_specs(topo or cfg.topology,
                                             loss_access, loss_upstream):
            self.net.add_link(a, b, delay, loss)

    def arm(self, spec: RunSpec):
        """Schedule the spec's kill, then its degrade of csc--int1."""
        if spec.kill is not None:
            self.net.schedule_kill(*spec.kill)
        if spec.degrade is not None:
            when, delay, loss = spec.degrade
            self.net.schedule_link_change(when, "csc", "int1", delay=delay, loss=loss)

    @property
    def origin_touches(self) -> int:
        return self.nodes["origin"].counters.get("origin_touches", 0)


class NdnWorld(World):
    def __init__(self, cfg: ScenarioConfig, seed: int, size: int, *,
                 loss_access: float = 0.0, loss_upstream: float = 0.0,
                 topo: TopologyConfig | None = None,
                 strategy: str = BEST_ROUTE):
        nodes = {name: NdnNode(name, cs_capacity=_cache_capacity(cfg, name),
                               strategy=strategy, pit_lifetime=cfg.pit_lifetime)
                 for name in NODES}
        super().__init__(cfg, seed, nodes, topo, loss_access, loss_upstream)
        for a, b in self.net.faces:
            nodes[a].add_face(b)
        self.content = ContentObject(CONTENT_PREFIX, size,
                                     chunk_size=cfg.chunk_size,
                                     signature_size=cfg.signature_size)
        nodes["origin"].publish(self.content)
        for name, hops in _ROUTES.items():
            faces = nodes[name].face_of
            nodes[name].add_route(CONTENT_PREFIX, [(faces[b], cost) for b, cost in hops])
        # Hooks on the network must not hold the world: see Node.net.
        self.net.kill_hooks.append(functools.partial(_mark_faces_dead, nodes))
        self.finished = False
        self.chosen_series = []   # (time_ms, neighbor name chosen by csc)
        self._fetches = 0

    def arm(self, spec: RunSpec):
        """Also start F's quality oracle on a degrade, and set up C's switch.
        Scheduled first, the oracle's first tick runs before a change at 0."""
        if spec.degrade is not None:
            self.sim.at(self.sim.now, self._oracle_tick)
        super().arm(spec)
        if spec.switch_segment is not None:
            self.script_switch(spec.switch_segment)

    def _oracle_tick(self):
        """Every strategy interval, give csc each face's true delay, loss
        and liveness, and record the upstream its strategy would pick."""
        node = self.nodes["csc"]
        if self.finished or not node.alive:
            return
        nodes = self.net.nodes
        for face_id, face in enumerate(node.faces[1:], start=1):
            link = face.link
            q = node.qualities[face_id]
            q.delay_estimate = link.delay
            q.loss_estimate = link.loss * 100.0
            q.alive = nodes[face.dst].alive
        entry = longest_prefix_match(node.fib, CONTENT_PREFIX)
        chosen = strategy_select(entry, node.qualities, node.strategy)
        self.chosen_series.append(
            (self.sim.now, node.faces[chosen].dst if chosen is not None else None))
        self.sim.after(self.cfg.strategy_interval, self._oracle_tick)

    def script_switch(self, k: int):
        """C's mid-transfer source switch as routes at csc: the content's
        prefix to int2, and each of segments 1..k, by its whole name, to one
        entry for int1 until the first fetch ends (see `fetch`)."""
        csc = self.nodes["csc"]
        face1, face2 = (csc.face_of[b] for b in ("int1", "int2"))
        csc.add_route(CONTENT_PREFIX, [(face2, 10)])
        segments = map(CONTENT_PREFIX.with_segment, range(1, k + 1))
        csc.fib.update(dict.fromkeys(segments, FibEntry([(face1, 10)])))

    def warm(self, node_name: str, nbytes: int):
        """Cache the whole segments that hold the first `nbytes` at node_name."""
        cs = self.nodes[node_name].cs
        if cs is None:
            raise ValueError(f"{node_name} has no cache to warm")
        for k in range(1, -(-nbytes // self.cfg.chunk_size) + 1):
            cs.insert(self.content.segment_data(k))

    def fetch(self, byte_range=None, label: str = "fetch") -> Fetch:
        self._fetches += 1

        def done(_result):
            self.finished = True  # stops F's oracle ticks

        pipeline = ConsumerPipeline(
            self.nodes["client"], CONTENT_PREFIX,
            chunk_size=self.cfg.chunk_size, byte_range=byte_range,
            window=self.cfg.window, max_retries=self.cfg.max_retries,
            seed=derive_seed(self.seed, "consumer", label, self._fetches),
            on_done=done)
        self.sim.after(0.0, pipeline.start)
        self.sim.run()
        self.finished = False
        csc = self.nodes["csc"]  # withdraw C's segment routes: only the prefix's stays
        csc.fib = {CONTENT_PREFIX: csc.fib[CONTENT_PREFIX]}
        return pipeline.result

    def cache_bytes(self, node_name: str) -> int:
        cs = self.nodes[node_name].cs
        return cs.content_used if cs is not None else 0

    def detail(self, spec: RunSpec, result: Fetch) -> dict:
        """E's last fetch and F's oracle choices."""
        detail = {}
        if spec.kill is not None:
            detail["ndn_results"] = result
        if spec.degrade is not None:
            detail["ndn_series"] = list(self.chosen_series)
        return detail


class HttpWorld(World):
    def __init__(self, cfg: ScenarioConfig, seed: int, size: int, *,
                 loss_access: float = 0.0, loss_upstream: float = 0.0,
                 topo: TopologyConfig | None = None,
                 lb_policy: str = "round_robin", range_mode: str = "bypass"):
        def proxy(name, kind, upstreams, policy):
            return HttpNode(name, cache_capacity=_cache_capacity(cfg, name),
                            proxy=ProxyConfig(kind, upstreams, lb_policy=policy,
                                              range_mode=range_mode))

        nodes = {"client": HttpNode("client"),
                 "csc": proxy("csc", "forward", ["int1", "int2"], lb_policy),
                 "int1": proxy("int1", "reverse", ["origin"], "single"),
                 "int2": proxy("int2", "reverse", ["origin"], "single"),
                 "origin": HttpNode("origin")}
        super().__init__(cfg, seed, nodes, topo, loss_access, loss_upstream)
        nodes["origin"].publish(CONTENT_URL, size)
        self.plane = HttpPlane(self.net, mss=cfg.mss)

    def warm(self, node_name: str, nbytes: int):
        """Cache the first `nbytes` of the content at node_name."""
        self.nodes[node_name].warm_cache(CONTENT_URL, nbytes)

    def fetch(self, byte_range=None, label: str = "fetch") -> Fetch:
        # Only the NDN consumer draws randomness, seeded by the label.
        holder = {}
        self.plane.get("client", "csc",
                       HttpRequest(CONTENT_URL, byte_range=byte_range),
                       lambda result: holder.update(result=result))
        self.sim.run()
        return holder["result"]

    def cache_bytes(self, node_name: str) -> int:
        cache = self.nodes[node_name].cache
        return cache.content_used if cache is not None else 0

    def detail(self, spec: RunSpec, result: Fetch) -> dict:
        """F's requests to each upstream: the chain picks its upstream
        once and stays on it for the life of the transfer."""
        if spec.degrade is None:
            return {}
        return {"http_upstreams": {
            name: self.nodes[name].counters.get("requests_upstream", 0)
            for name in ("int1", "int2")}}


def experiment_b_topologies(cfg: ScenarioConfig):
    topos = [dataclasses.replace(cfg.topology)]
    rng = make_rng(cfg.base_seed, "B", "topologies")
    for _ in range(cfg.random_topologies):
        topos.append(TopologyConfig(
            access_delay=float(rng.randint(5, 100)),
            csc_int1_delay=float(rng.randint(5, 100)),
            csc_int2_delay=float(rng.randint(5, 100)),
            int1_origin_delay=float(rng.randint(5, 100)),
            int2_origin_delay=float(rng.randint(5, 100))))
    return topos


def switch_segment(cfg: ScenarioConfig) -> int:
    """C's last segment fetched through int1 before the switch."""
    segments = -(-cfg.file_sizes[0] // cfg.chunk_size)
    return math.ceil(cfg.switch_fraction * segments)


# --- run specs ----------------------------------------------------------------

@dataclass
class RunSpec:
    """One world to build, the scenario to set up in it, and its fetches.

    Each entry of `fetches` makes one record out of the fetches it names;
    a label seeds that fetch's NDN consumer.  `size` is the content size;
    a record reports the bytes its fetches requested.
    """
    experiment: str
    plane: str
    size: int
    mode: str
    rep: int
    seed: int
    world: dict = field(default_factory=dict)  # NdnWorld/HttpWorld keywords
    warm: tuple | None = None          # (node, leading bytes cached there)
    byte_range: tuple | None = None    # inclusive, for every fetch
    kill: tuple | None = None          # (time, node)
    degrade: tuple | None = None       # (time, delay, loss) of csc--int1
    switch_segment: int | None = None  # C's routes: see NdnWorld.script_switch
    fetches: tuple = (("fetch",),)


def run_specs(cfg: ScenarioConfig, reps=None) -> list:
    """Every run of cfg's experiment, in output order."""
    reps = range(cfg.repetitions) if reps is None else reps
    planes = ["ndn", "http"] if cfg.plane == "both" else [cfg.plane]
    exp, base, size = cfg.experiment, cfg.base_seed, cfg.file_sizes[0]

    def spec(plane, mode, rep, labels=(), size=size, **scenario):
        # The seed names the run: experiment, plane, its labels, repetition.
        return RunSpec(exp, plane, size, mode, rep,
                       derive_seed(base, exp, plane, *labels, rep), **scenario)

    if exp == "A":
        losses = {"lossless": (0.0, 0.0),
                  "lossy": (cfg.lossy_access, cfg.lossy_upstream)}
        return [spec(plane, mode, rep, (fs, mode), size=fs,
                     world={"loss_access": la, "loss_upstream": lu})
                for fs in cfg.file_sizes for rep in reps for plane in planes
                for mode, (la, lu) in losses.items()]
    if exp == "B":
        topos = experiment_b_topologies(cfg)
        return [spec(plane, f"{state}-topo{ti}", rep, (ti, state), world={"topo": topo},
                     warm=(cfg.warmed, size) if state == "warm" else None)
                for rep in reps for ti, topo in enumerate(topos)
                for state in ("cold", "warm") for plane in planes]
    if exp == "D":
        # plane -> [(mode, seed labels after the range, scenario)]
        modes = {"ndn": [("ndn-warm", (), {"warm": (cfg.warmed, cfg.warm_bytes)
                                                    if cfg.warmed else None})],
                 "http": [(mode, (mode,), {"world": {"range_mode": mode}})
                          for mode in ("bypass", "full_fetch")]}
        repeats = tuple((f"r{i}",) for i in range(cfg.range_repeats))
        return [spec(plane, mode, rep, (nbytes, *labels), byte_range=(0, nbytes - 1),
                     fetches=repeats, **scenario)
                for rep in reps for nbytes in cfg.ranges for plane in planes
                for mode, labels, scenario in modes[plane]]
    if exp == "C":
        return [spec(plane, "switch", rep, fetches=(("first", "second"),),
                     switch_segment=switch_segment(cfg) if plane == "ndn" else None)
                for rep in reps for plane in planes]
    if exp == "E":
        return [spec(plane, "failover", rep, kill=(cfg.kill_time, cfg.kill_node))
                for rep in reps for plane in planes]
    worlds = {"ndn": {"strategy": "weighted-best-path"}, "http": {"lb_policy": "single"}}
    return [spec(plane, "degrade", rep, world=worlds[plane],
                 degrade=(cfg.degrade_time, cfg.degrade_delay, cfg.degrade_loss))
            for rep in reps for plane in planes]


# Experiments whose records report origin touches and intermediate-cache
# bytes; the others leave those columns at zero.
_REPORTS_ORIGIN = {"A", "C", "D"}
_REPORTS_CACHE = {"C", "D"}


def execute(cfg: ScenarioConfig, spec: RunSpec, trace: bool = False):
    """Run one spec.  Returns (records, detail): the spec's records in
    fetch order and the per-run values that `collect` appends to the
    experiment's details.  With `trace`, detail["trace"] holds the
    world's event trace (`network.instrument`); tracing changes nothing else."""
    world = (NdnWorld if spec.plane == "ndn" else HttpWorld)(
        cfg, spec.seed, spec.size, **spec.world)
    lines = instrument(world.net) if trace else None  # before `arm` binds net's methods
    if spec.warm is not None:
        world.warm(*spec.warm)
    world.arm(spec)

    size = spec.size
    if spec.byte_range is not None:
        size = spec.byte_range[1] - spec.byte_range[0] + 1
    records = []
    touched = 0
    for i, labels in enumerate(spec.fetches):
        results = [world.fetch(spec.byte_range, label) for label in labels]
        rec = MetricsRecord(spec.experiment, spec.plane, size, spec.mode,
                            spec.rep * len(spec.fetches) + i)
        if len(results) == 1:
            rec.ttfb_ms = results[0].ttfb
        rec.completion_ms = sum(r.completion for r in results)
        rec.delivered_bytes = sum(r.delivered_bytes for r in results)
        rec.success = all(r.success for r in results)
        if spec.experiment in _REPORTS_ORIGIN:
            rec.origin_touches = world.origin_touches - touched
            touched = world.origin_touches
        if spec.experiment in _REPORTS_CACHE:
            rec.cache1_bytes = world.cache_bytes("int1")
            rec.cache2_bytes = world.cache_bytes("int2")
        if spec.kill is not None:
            kill_time = spec.kill[0]
            rec.max_gap_ms = max_gap(results[0].arrival_times,
                                     window=(kill_time - 500.0,
                                             kill_time + 1500.0))
        records.append(rec)
    detail = world.detail(spec, results[-1])
    if trace:
        detail["trace"] = "\n".join(lines) + "\n" if lines else ""
    return records, detail


def collect(results) -> ExperimentOutput:
    """Join execute's results, given in spec order, into one output."""
    records = []
    details = {}
    for recs, detail in results:
        records += recs
        for key, value in detail.items():
            details.setdefault(key, []).append(value)
    return ExperimentOutput(records, details)


def run_experiment(cfg: ScenarioConfig, reps=None, jobs: int = 1,
                   trace: bool = False) -> ExperimentOutput:
    """Execute every spec, in a pool of `jobs` spawned processes when
    jobs > 1 and there is more than one, and collect them in spec order.
    With `trace`, the first spec runs traced: details["trace"] is [its trace]."""
    specs = run_specs(cfg, reps)
    traced = [trace] + [False] * (len(specs) - 1)
    if jobs <= 1 or len(specs) <= 1:
        return collect([execute(cfg, *args) for args in zip(specs, traced)])
    import multiprocessing  # only a pool needs them: importing cdnsim stays light
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(specs)),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return collect(pool.map(execute, [cfg] * len(specs), specs, traced))
