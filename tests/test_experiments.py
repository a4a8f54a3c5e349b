import gc
import json
import math
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cdnsim import experiments, network
from cdnsim.experiments import (NdnWorld, HttpWorld, RunSpec, execute,
                                experiment_b_topologies, run_experiment, run_specs,
                                switch_segment)
from cdnsim.metrics import MetricsRecord, plot_files, records_to_csv, summarize
from cdnsim.ndn import ConsumerPipeline
from cdnsim.network import Link, Network, Node
from cdnsim.scenarios import config_from_dict
from cdnsim.sim import Simulator
from cdnsim.tcp import tcp_open
from scripted import script_drops
from test_golden import CONFIGS, REDUCED

MB = 1 << 20


def by_plane(records, plane):
    return [r for r in records if r.plane == plane]


def test_world_builders_wire_the_topology():
    cfg = config_from_dict({"experiment": "A"})
    world = NdnWorld(cfg, seed=1, size=MB)
    assert set(world.nodes) == {"client", "csc", "int1", "int2", "origin"}
    assert world.nodes["client"].cs is None
    assert world.nodes["csc"].cs is not None
    assert world.net.link_between("client", "csc").delay == 50.0
    assert world.net.link_between("int2", "origin").delay == 50.0
    hw = HttpWorld(cfg, seed=1, size=MB)
    assert hw.nodes["csc"].proxy.role == "forward"
    assert hw.nodes["int1"].proxy.upstreams == ["origin"]
    assert hw.nodes["origin"].origin_store == {"/data_file": MB}


def test_experiment_a_lossless_timings_are_exact():
    cfg = config_from_dict({"experiment": "A", "plane": "ndn",
                            "file_sizes": [MB], "repetitions": 1})
    out = run_experiment(cfg)
    lossless = [r for r in out.records if r.mode == "lossless"]
    assert len(lossless) == 1
    r = lossless[0]
    # path RTT via int1 is 140 ms; discovery round plus two window-64
    # rounds for the remaining 119 segments
    assert r.ttfb_ms == 140.0
    assert r.completion_ms == 420.0
    assert r.delivered_bytes == MB
    assert r.success


def test_experiment_a_produces_all_groups():
    cfg = config_from_dict({"experiment": "A", "file_sizes": [MB],
                            "repetitions": 2})
    out = run_experiment(cfg)
    assert len(out.records) == 2 * 2 * 2   # reps x planes x modes
    assert {r.mode for r in out.records} == {"lossless", "lossy"}
    assert list(plot_files(cfg.experiment, out.records)) == ["fig_A.dat"]
    assert out.details == {}


def test_experiment_b_ttfb_delta_is_one_handshake_rtt():
    cfg = config_from_dict({"experiment": "B"})
    out = run_experiment(cfg)
    topos = experiment_b_topologies(cfg)
    assert len(topos) == 6
    ndn = {(r.mode): r for r in by_plane(out.records, "ndn")}
    http = {(r.mode): r for r in by_plane(out.records, "http")}
    for ti, topo in enumerate(topos):
        for state in ("cold", "warm"):
            mode = f"{state}-topo{ti}"
            delta = http[mode].ttfb_ms - ndn[mode].ttfb_ms
            assert delta == 2.0 * topo.access_delay


def test_experiment_c_cache_split():
    cfg = config_from_dict({"experiment": "C", "file_sizes": [MB]})
    out = run_experiment(cfg)
    ndn = by_plane(out.records, "ndn")[0]
    n = math.ceil(MB / 8800)
    k = math.ceil(0.1 * n)
    assert ndn.cache1_bytes == k * 8800
    assert ndn.cache2_bytes == MB
    http = by_plane(out.records, "http")[0]
    assert http.cache1_bytes == MB
    assert http.cache2_bytes == MB
    assert switch_segment(cfg) == k
    assert out.details == {}


def test_experiment_d_counters():
    cfg = config_from_dict({"experiment": "D", "file_sizes": ["4MB"],
                            "ranges": ["1MB"], "warm_bytes": "2MB",
                            "range_repeats": 3})
    out = run_experiment(cfg)
    ndn = by_plane(out.records, "ndn")
    assert len(ndn) == 3
    assert all(r.origin_touches == 0 for r in ndn)
    bypass = [r for r in out.records if r.mode == "bypass"]
    assert [r.origin_touches for r in bypass] == [1, 1, 1]
    assert all(r.cache1_bytes == 0 for r in bypass)
    # round robin: repeat 1 ingests at int1, repeat 2 at int2, repeat 3
    # hits int1's now-complete copy
    full = [r for r in out.records if r.mode == "full_fetch"]
    assert [r.origin_touches for r in full] == [1, 1, 0]
    assert full[-1].cache1_bytes == 4 * MB
    assert full[-1].cache2_bytes == 4 * MB


def test_experiment_e_records_gap_and_success_flags():
    cfg = config_from_dict({"experiment": "E", "file_sizes": ["2MB"],
                            "repetitions": 1})
    out = run_experiment(cfg)
    assert len(out.records) == 2
    assert cfg.kill_time == 3000.0
    # one NDN fetch result per run that reported one: the HTTP run has none
    assert [r.success for r in out.details["ndn_results"]] == [True]
    assert set(out.details) == {"ndn_results"}
    # the 2MB transfer ends before the kill, so both planes succeed here
    assert all(r.success for r in out.records)


def test_experiment_f_series_switches_at_degradation():
    cfg = config_from_dict({"experiment": "F", "file_sizes": ["4MB"],
                            "repetitions": 1})
    out = run_experiment(cfg)
    series = out.details["ndn_series"][0]
    assert series, "expected chosen-upstream samples"
    before = [up for t, up in series if t < 2000.0]
    after = [up for t, up in series if t >= 2000.0]
    assert set(before) == {"int1"}
    assert set(after) <= {"int2"}
    assert out.details["http_upstreams"] == [{"int1": 1, "int2": 0}]


def test_oracle_tick_at_the_degrade_time_sees_the_old_link():
    """`arm` schedules F's first oracle tick before the degrade, so at a
    degrade at time 0 the first tick still sees csc--int1 as it was."""
    cfg = config_from_dict({"experiment": "F", "plane": "ndn", "file_sizes": ["1MB"],
                            "repetitions": 1, "degrade_time": 0})
    _, detail = execute(cfg, run_specs(cfg)[0])
    assert detail["ndn_series"][:2] == [(0.0, "int1"), (100.0, "int2")]


def test_killed_client_sends_nothing():
    """The client dies at 120 ms, before segment 1's Data reaches it: its
    pipeline still times out and retries, but no Interest leaves the dead
    node, so csc, which cached segment 1 on the way, answers none."""
    cfg = config_from_dict({"experiment": "E", "plane": "ndn", "file_sizes": ["1MB"],
                            "repetitions": 1, "kill_node": "client",
                            "kill_time": "120ms"})
    world = NdnWorld(cfg, seed=1, size=MB)
    world.arm(run_specs(cfg)[0])
    result = world.fetch()
    assert not result.success
    assert result.reason == "segment 1 exceeded 5 retries"
    assert result.completion == 6000.0
    assert world.nodes["csc"].cs_hits == 0
    assert world.net.link_between("client", "csc").tx[("client", "csc")] == 1


@pytest.mark.parametrize("plane", ["ndn", "http"])
def test_warm_caches_the_leading_bytes_on_both_planes(plane):
    """NDN caches the whole segments that cover the first nbytes, HTTP
    exactly nbytes."""
    cfg = config_from_dict({"experiment": "B", "file_sizes": ["100KB"]})
    chunk, size = cfg.chunk_size, cfg.file_sizes[0]
    for nbytes in (1, chunk, chunk + 1, size):
        world = (NdnWorld if plane == "ndn" else HttpWorld)(cfg, seed=1, size=size)
        world.warm("csc", nbytes)
        segments = -(-nbytes // chunk)
        expected = min(segments * chunk, size) if plane == "ndn" else nbytes
        assert world.cache_bytes("csc") == expected
        assert world.cache_bytes("int1") == 0


@pytest.mark.parametrize("plane", ["ndn", "http"])
def test_warming_a_node_without_a_cache_is_refused(plane):
    cfg = config_from_dict({"experiment": "B"})
    world = (NdnWorld if plane == "ndn" else HttpWorld)(cfg, seed=1,
                                                        size=cfg.file_sizes[0])
    with pytest.raises(ValueError, match="client has no cache to warm"):
        world.warm("client", 1)


def test_run_experiment_is_deterministic():
    cfg = config_from_dict({"experiment": "A", "file_sizes": [MB],
                            "repetitions": 2, "lossy_access": "2%"})
    a = records_to_csv(run_experiment(cfg).records)
    b = records_to_csv(run_experiment(cfg).records)
    assert a == b


def test_rep_slices_match_full_run():
    cfg = config_from_dict({"experiment": "A", "file_sizes": [MB],
                            "repetitions": 3, "lossy_access": "2%"})
    full = run_experiment(cfg).records
    sliced = []
    for rep in range(3):
        sliced += run_experiment(cfg, reps=[rep]).records
    key = lambda r: (r.plane, r.mode, r.seed)
    assert sorted(map(records_to_csv, ([r] for r in full))) == \
        sorted(records_to_csv([r]) for r in sliced)


# E's kill and F's degrade land mid-transfer, so every run reports a detail.
DETAILED = {"E": {"repetitions": 2, "file_sizes": ["1MB"], "kill_time": "250ms"},
            "F": {"repetitions": 2, "file_sizes": ["1MB"], "degrade_time": "200ms",
                  "strategy_interval": "50ms"}}


@pytest.mark.parametrize("experiment", sorted(DETAILED))
def test_pool_joins_records_and_details_as_a_serial_run(experiment):
    cfg = config_from_dict({"experiment": experiment, **DETAILED[experiment]})
    serial = run_experiment(cfg, jobs=1)
    pooled = run_experiment(cfg, jobs=2)
    assert serial.details and all(len(v) == 2 for v in serial.details.values())
    assert pooled.records == serial.records
    assert pooled.details == serial.details


@pytest.mark.parametrize("experiment, plane, keys", [
    ("E", "ndn", {"ndn_results"}), ("E", "http", set()),
    ("F", "ndn", {"ndn_series"}), ("F", "http", {"http_upstreams"})])
def test_one_plane_run_has_only_its_planes_details(experiment, plane, keys):
    cfg = config_from_dict({"experiment": experiment, "plane": plane,
                            **DETAILED[experiment]})
    out = run_experiment(cfg)
    assert set(out.details) == keys
    assert all(len(v) == 2 for v in out.details.values())


@pytest.mark.parametrize("config_name, plane",
                         [(name, plane) for name in sorted(REDUCED)
                          for plane in ("ndn", "http")])
def test_tracing_does_not_change_a_run(config_name, plane):
    raw = {**json.loads((CONFIGS / config_name).read_text()), **REDUCED[config_name]}
    cfg = config_from_dict(raw)
    spec = next(s for s in run_specs(cfg) if s.plane == plane)
    records, detail = execute(cfg, spec)
    traced_records, traced_detail = execute(cfg, spec, trace=True)
    trace = traced_detail.pop("trace")
    assert "trace" not in detail
    assert traced_records == records
    assert traced_detail == detail
    if plane == "ndn":
        assert trace.startswith("0\tclient\ttx\tcsc Interest(")


def test_seed_changes_lossy_outcomes():
    cfg1 = config_from_dict({"experiment": "A", "file_sizes": [MB],
                             "repetitions": 1, "lossy_access": "5%",
                             "base_seed": 1})
    cfg2 = config_from_dict({"experiment": "A", "file_sizes": [MB],
                             "repetitions": 1, "lossy_access": "5%",
                             "base_seed": 2})
    r1 = [r.completion_ms for r in run_experiment(cfg1).records
          if r.mode == "lossy"]
    r2 = [r.completion_ms for r in run_experiment(cfg2).records
          if r.mode == "lossy"]
    assert r1 != r2


# --- a finished world is freed by reference counting ---------------------------

KB = 1 << 10


def small_world(experiment, config=None, **world):
    cfg = config_from_dict({"experiment": experiment, "file_sizes": ["256KB"],
                            "cache_nodes": ["csc", "int1", "int2"], **(config or {})})
    return NdnWorld(cfg, seed=3, size=cfg.file_sizes[0], **world)


def armed(world, **scenario):
    """world, armed with a spec that holds only `scenario`."""
    world.arm(RunSpec(world.cfg.experiment, "ndn", world.content.total_size, "",
                      0, world.seed, **scenario))
    return world


def fetched_a_lossy():
    world = small_world("A", loss_access=0.05, loss_upstream=0.05)
    world.fetch()
    return world


def fetched_b_warm():
    world = small_world("B")
    world.warm("csc", world.content.total_size)
    world.fetch()
    return world


def fetched_c_switch():
    world = small_world("C")
    armed(world, switch_segment=switch_segment(world.cfg))
    world.fetch(label="first")
    world.fetch(label="second")
    return world


def fetched_d_warm_range():
    world = small_world("D", {"ranges": ["100KB"], "warm_bytes": "50KB"})
    world.warm("int1", 10 * world.cfg.chunk_size)  # segments 1..10
    for label in ("r0", "r1"):
        world.fetch((0, 100 * KB - 1), label=label)
    return world


def fetched_e_kill():
    world = small_world("E")
    world.net.schedule_kill(300.0, "int1")
    world.fetch()
    return world


def fetched_f_oracle():
    world = armed(small_world("F", strategy="weighted-best-path"),
                  degrade=(200.0, 100.0, 0.01))
    world.fetch()
    return world


FETCHED_WORLDS = {"A-lossy": fetched_a_lossy, "B-warm": fetched_b_warm,
                  "C-switch": fetched_c_switch, "D-warm-range": fetched_d_warm_range,
                  "E-kill": fetched_e_kill, "F-oracle": fetched_f_oracle}


@pytest.mark.parametrize("setup", sorted(FETCHED_WORLDS))
def test_finished_ndn_world_is_freed_without_the_cycle_collector(setup):
    """No reference cycle keeps a world, or the Data in its Content Stores,
    alive after its last reference goes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        world = FETCHED_WORLDS[setup]()
        cs = weakref.ref(world.nodes["csc"].cs)
        ref = weakref.ref(world)
        del world
        assert ref() is None
        assert cs() is None
    finally:
        if enabled:
            gc.enable()


def small_http_world(experiment, config=None, **world):
    cfg = config_from_dict({"experiment": experiment, "file_sizes": ["1MB"],
                            "cache_nodes": ["csc", "int1", "int2"], **(config or {})})
    return HttpWorld(cfg, seed=3, size=cfg.file_sizes[0], **world)


def fetched_http_a_lossy():
    world = small_http_world("A", loss_access=0.05, loss_upstream=0.05)
    world.fetch()
    return world


def fetched_http_d_bypass_range():
    world = small_http_world("D", {"ranges": ["100KB"], "warm_bytes": "50KB"},
                             range_mode="bypass")
    for _ in range(2):
        world.fetch((0, 100 * KB - 1))
    return world


def fetched_http_e_csc_kill():
    # The forward proxy dies after the client's handshake: a failed fetch.
    world = small_http_world("E")
    world.net.schedule_kill(120.0, "csc")
    assert not world.fetch().success
    return world


def fetched_http_f_degrade():
    world = small_http_world("F", lb_policy="single")
    world.net.schedule_link_change(200.0, "csc", "int1", delay=100.0, loss=0.01)
    world.fetch()
    return world


FETCHED_HTTP_WORLDS = {"A-lossy": fetched_http_a_lossy,
                       "D-bypass-range": fetched_http_d_bypass_range,
                       "E-csc-kill": fetched_http_e_csc_kill,
                       "F-degrade": fetched_http_f_degrade}


@pytest.mark.parametrize("setup", sorted(FETCHED_HTTP_WORLDS))
def test_finished_http_world_is_freed_without_the_cycle_collector(setup):
    """No reference cycle keeps an HTTP world's network, simulator or
    proxy caches alive after its last reference goes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        world = FETCHED_HTTP_WORLDS[setup]()
        net = weakref.ref(world.net)
        sim = weakref.ref(world.sim)
        cache = weakref.ref(world.nodes["int1"].cache)
        del world
        assert net() is None
        assert sim() is None
        assert cache() is None
    finally:
        if enabled:
            gc.enable()


# --- a run builds only what it reads --------------------------------------------

@pytest.mark.parametrize("experiment, plane", [("B", "both"), ("A", "ndn"), ("A", "http")])
def test_lossless_worlds_build_no_link_stream(monkeypatch, experiment, plane):
    """Every B link is lossless, as are A's lossless runs: their worlds
    build and run without a link stream.  A's lossy run builds some, so
    the count is taken where the links call."""
    built = []
    make_rng = network.make_rng
    monkeypatch.setattr(network, "make_rng",
                        lambda *labels: built.append(labels) or make_rng(*labels))
    cfg = config_from_dict({"experiment": experiment, "plane": plane,
                            "file_sizes": ["256KB"], "repetitions": 1})
    specs = run_specs(cfg)
    for spec in specs:
        if spec.mode != "lossy":
            records, _ = execute(cfg, spec)
            assert all(r.success for r in records)
    assert built == []
    if experiment == "A":
        execute(cfg, next(spec for spec in specs if spec.mode == "lossy"))
        assert built and all(labels[1] == "link" for labels in built)


def test_http_links_count_their_losses(monkeypatch):
    """Every link's `dropped_loss` is the number of its `should_drop` draws
    that lost: NDN packets, TCP segments, and SYNs and SYN-ACKs alike."""
    drops = Counter()
    should_drop = Link.should_drop

    def counted(link, src, dst):
        dropped = should_drop(link, src, dst)
        drops[id(link)] += dropped
        return dropped

    def handshake():
        sim = Simulator()
        net = Network(sim, base_seed=2)
        net.add_node(Node("a"))
        net.add_node(Node("b"))
        # The first SYN and the first SYN-ACK are lost; the third SYN opens.
        script_drops(net.add_link("a", "b", 10.0), {("a", "b"): {0},
                                                    ("b", "a"): {0}})
        out = []
        tcp_open(net, "a", "b", out.append)
        sim.run()
        assert out[0].established_at == 3020.0
        return net

    def lossy(world_class):
        world = world_class(cfg, seed=1, size=4 * MB, loss_access=0.05)
        assert world.fetch().success
        return world.net

    monkeypatch.setattr(Link, "should_drop", counted)
    cfg = config_from_dict({"experiment": "A"})
    for net in (lossy(NdnWorld), lossy(HttpWorld), handshake()):
        links = {id(face.link): face.link for face in net.faces.values()}
        assert sum(link.dropped_loss for link in links.values()) > 0
        for key, link in links.items():
            assert link.dropped_loss == drops[key]


def reference_plot_files(cfg, records) -> dict:
    """plot_files as it was: `summarize`'s rows, one median column kept."""
    if cfg.experiment == "C":
        lines = ["# plane seed cache1_bytes cache2_bytes"]
        lines += [f"{r.plane} {r.seed} {r.cache1_bytes} {r.cache2_bytes}"
                  for r in records]
    else:
        metric, col = ("ttfb", 7) if cfg.experiment == "B" else ("completion", 10)
        rows, _ = summarize(records)
        lines = [f"# plane mode size_bytes {metric}_median_ms"]
        lines += [f"{row[1]} {row[3]} {row[2]} {format(row[col], '.10g')}"
                  for row in rows if row[col] is not None]
    return {f"fig_{cfg.experiment}.dat": "\n".join(lines) + "\n"}


PLOT_CONFIGS = {exp: config_from_dict({"experiment": exp}) for exp in "ABCDEF"}
# Times are float ms.  A subnormal completion time would make the reference's
# goodput infinite, which its pstdev cannot take.
metric_values = st.none() | st.just(0.0) | st.floats(1e-3, 1e6)


@st.composite
def plotted_records(draw):
    exp = draw(st.sampled_from(sorted(PLOT_CONFIGS)))
    records = []
    for seed in range(draw(st.integers(0, 30))):
        rec = MetricsRecord(exp, draw(st.sampled_from(["ndn", "http"])),
                            draw(st.sampled_from([8800, MB])),
                            draw(st.sampled_from(["cold-topo0", "warm-topo1", "lossy"])),
                            seed)
        rec.ttfb_ms = draw(metric_values)
        rec.completion_ms = draw(metric_values)
        rec.delivered_bytes = draw(st.integers(0, MB))
        rec.cache1_bytes, rec.cache2_bytes = draw(st.tuples(st.integers(0, MB),
                                                            st.integers(0, MB)))
        rec.success = draw(st.booleans())
        records.append(rec)
    return PLOT_CONFIGS[exp], records


@settings(max_examples=150, deadline=None)
@given(drawn=plotted_records())
def test_plot_files_equal_the_summarize_reference(drawn):
    """Failed runs, missing values and groups whose runs all failed, in
    any record order: the plot text is what `summarize`'s medians gave."""
    cfg, records = drawn
    assert plot_files(cfg.experiment, records) == reference_plot_files(cfg, records)


# --- a Content Store at the client ---------------------------------------------
# The client's own Content Store answers an Interest inside the consumer's
# `_issue`, before any event runs, so a fetch from it never waits.


def test_client_cached_fetch_of_thousands_of_segments_runs():
    # 2,048 segments answered by the client's Content Store on C's second
    # fetch: one nested window fill per segment exceeded the recursion limit.
    cfg = config_from_dict({"experiment": "C", "plane": "ndn", "cache_nodes": ["client"],
                            "chunk_size": 64, "file_sizes": ["128KB"], "repetitions": 1})
    (spec,) = run_specs(cfg)
    records, _ = execute(cfg, spec)
    assert [(rec.success, rec.delivered_bytes) for rec in records] == [(True, 2 * 128 * 1024)]


class RecursiveFillPipeline(ConsumerPipeline):
    """The window fill that re-entered itself once per segment that the
    client's Content Store answered: the reference for issue order."""

    def _fill_window(self):
        if self.done:
            return
        limit = 1 if self.total_segments is None else self.window
        while self._unsent and len(self._in_flight) < limit:
            self._issue(self._unsent.popleft())


def _issue_log(monkeypatch, pipeline, cfg):
    """The records of every run of cfg, and each `_issue` call's (time,
    segment) and each nonce drawn, in the order they happened."""
    log = []

    class Logged(pipeline):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            draw = self.rng.getrandbits

            def logged_draw(k):
                nonce = draw(k)
                log.append(("nonce", nonce))
                return nonce
            self.rng.getrandbits = logged_draw

        def _issue(self, seg):
            log.append(("issue", self.sim.now, seg))
            super()._issue(seg)

    monkeypatch.setattr(experiments, "ConsumerPipeline", Logged)
    records = [rec for spec in run_specs(cfg) for rec in execute(cfg, spec)[0]]
    return records, log


@pytest.mark.parametrize("raw", [
    {"experiment": "C", "cache_nodes": ["client"], "file_sizes": ["8KB"]},
    {"experiment": "D", "cache_nodes": ["client", "int1"], "file_sizes": ["16KB"],
     "ranges": ["8KB", "1000B"], "warm_bytes": "4KB", "range_repeats": 2},
    {"experiment": "A", "cache_nodes": ["client", "csc"], "file_sizes": ["8KB"],
     "lossy_access": "5%", "window": 4},
], ids=["C", "D", "A-lossy"])
def test_window_fill_issues_in_the_recursive_order(monkeypatch, raw):
    # 128 segments keep the reference under the recursion limit.
    cfg = config_from_dict({**raw, "plane": "ndn", "chunk_size": 64, "repetitions": 2})
    records, log = _issue_log(monkeypatch, ConsumerPipeline, cfg)
    ref_records, ref_log = _issue_log(monkeypatch, RecursiveFillPipeline, cfg)
    assert records_to_csv(records) == records_to_csv(ref_records)
    assert log == ref_log
    assert sum(entry[0] == "nonce" for entry in log) > 128 * cfg.repetitions
