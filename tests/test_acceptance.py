"""End-to-end acceptance gate.

Each test exercises one headline claim of the comparison at its stated
tolerance and prints a single PASS/FAIL line, so `pytest -v -s
tests/test_acceptance.py` reads as a checklist.
"""

import math
import random
import statistics
import time

from cdnsim import experiments
from cdnsim.cache import LruBytes
from cdnsim.content import ContentObject, Data, Interest
from cdnsim.experiments import (HttpWorld, NdnWorld, experiment_b_topologies,
                                run_experiment)
from cdnsim.metrics import records_to_csv
from cdnsim.names import Name, longest_prefix_match
from cdnsim.ndn import NdnNode, compute_path_weight
from cdnsim.network import Network, instrument
from cdnsim.scenarios import config_from_dict
from cdnsim.sim import Simulator
from cdnsim.tcp import DEFAULT_MSS, TcpTransfer, preestablished
from test_consumer import RecordingPipeline
from test_ndn import handled

MB = 1 << 20
PREFIX = Name(("data_file",))


def report(num, title, check):
    try:
        check()
    except BaseException:
        print(f"criterion {num} ({title}): FAIL")
        raise
    print(f"criterion {num} ({title}): PASS")


# --- 1: cache utilization ---------------------------------------------------

def test_criterion_1_cache_utilization():
    def check():
        t0 = time.monotonic()
        cfg = config_from_dict({"experiment": "C"})
        assert cfg.file_sizes == [100 * MB]
        out = run_experiment(cfg)
        ndn = next(r for r in out.records if r.plane == "ndn")
        assert ndn.success
        # the first upstream served the first 10% of segments
        assert abs(ndn.cache1_bytes - 10 * MB) <= cfg.chunk_size
        assert ndn.cache2_bytes == 100 * MB
        http = next(r for r in out.records if r.plane == "http")
        assert http.success
        assert http.cache1_bytes == 100 * MB
        assert http.cache2_bytes == 100 * MB
        assert time.monotonic() - t0 < 10.0

    report(1, "cache utilization", check)


# --- 2: TTFB structure ------------------------------------------------------

def test_criterion_2_ttfb_structure():
    def check():
        cfg = config_from_dict({"experiment": "B"})
        topos = experiment_b_topologies(cfg)
        assert len(topos) >= 5
        out = run_experiment(cfg)
        ndn = {r.mode: r for r in out.records if r.plane == "ndn"}
        http = {r.mode: r for r in out.records if r.plane == "http"}
        for ti, topo in enumerate(topos):
            handshake_rtt = 2.0 * topo.access_delay
            for state in ("cold", "warm"):
                mode = f"{state}-topo{ti}"
                delta = http[mode].ttfb_ms - ndn[mode].ttfb_ms
                assert delta == handshake_rtt, (mode, delta, handshake_rtt)
        # the default topology's warm case: one 50 ms access-link RTT
        assert http["warm-topo0"].ttfb_ms - ndn["warm-topo0"].ttfb_ms == 100.0

    report(2, "TTFB structure", check)


# --- 3: loss ordinal result -------------------------------------------------

def test_criterion_3_loss_ordinal():
    def check():
        t0 = time.monotonic()
        cfg = config_from_dict({
            "experiment": "A",
            "file_sizes": ["1MB", "10MB", "20MB", "50MB"],
            "repetitions": 10,
            "lossy_access": "0.08%",
            "lossy_upstream": "0.01%",
        })
        out = run_experiment(cfg)
        runs = {(r.plane, r.size_bytes, r.mode, r.seed): r
                for r in out.records}
        for size in cfg.file_sizes:
            medians = {}
            for plane in ("ndn", "http"):
                ratios = []
                for rep in range(cfg.repetitions):
                    base = runs[(plane, size, "lossless", rep)]
                    lossy = runs[(plane, size, "lossy", rep)]
                    assert base.success and lossy.success
                    ratios.append(lossy.completion_ms / base.completion_ms)
                medians[plane] = statistics.median(ratios)
            assert medians["ndn"] < medians["http"], (size, medians)
        assert time.monotonic() - t0 < 120.0

    report(3, "loss slowdown ordinal", check)


# --- 4: transparent failover ------------------------------------------------

def test_criterion_4_transparent_failover(monkeypatch):
    pipelines = []

    class Recorded(RecordingPipeline):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pipelines.append(self)

    monkeypatch.setattr(experiments, "ConsumerPipeline", Recorded)

    def check():
        cfg = config_from_dict({"experiment": "E"})
        assert cfg.repetitions == 10
        out = run_experiment(cfg)
        pipeline_of = {id(p.result): p for p in pipelines}
        kill_time = cfg.kill_time
        topo = cfg.topology
        rtt = 2.0 * (topo.access_delay + topo.csc_int1_delay
                     + topo.int1_origin_delay)
        rto_bound = max(2.0 * rtt, 200.0)
        ndn = [r for r in out.records if r.plane == "ndn"]
        http = [r for r in out.records if r.plane == "http"]
        assert len(ndn) == 10 and len(http) == 10
        for rec, res in zip(ndn, out.details["ndn_results"]):
            assert rec.success
            assert rec.delivered_bytes == cfg.file_sizes[0]
            assert rec.max_gap_ms <= rto_bound, (rec.max_gap_ms, rto_bound)
            # nothing satisfied before the fault is ever re-sent after it
            pipeline = pipeline_of[id(res)]
            for seg, t_ok in pipeline.satisfied_time.items():
                if t_ok < kill_time:
                    assert pipeline.last_send_time[seg] <= t_ok
            # and no satisfied segment is ever issued again
            assert pipeline.resent == []
        for rec in http:
            assert not rec.success
            assert rec.delivered_bytes < cfg.file_sizes[0]

    report(4, "transparent failover", check)


# --- 5: path switching ------------------------------------------------------

def test_criterion_5_path_switching():
    def check():
        cfg = config_from_dict({"experiment": "F"})
        out = run_experiment(cfg)
        topo = cfg.topology

        def expected_choice(t):
            if t < cfg.degrade_time:
                w1 = compute_path_weight(topo.csc_int1_delay,
                                         topo.csc_int1_loss * 100.0)
            else:
                w1 = compute_path_weight(cfg.degrade_delay,
                                         cfg.degrade_loss * 100.0)
            w2 = compute_path_weight(topo.csc_int2_delay,
                                     topo.csc_int2_loss * 100.0)
            return "int1" if w1 <= w2 else "int2"

        assert expected_choice(0.0) == "int1"
        assert expected_choice(cfg.degrade_time) == "int2"
        for series in out.details["ndn_series"]:
            assert series
            for t, chosen in series:
                assert chosen == expected_choice(t), (t, chosen)
            # the switch shows up within one strategy interval
            after = [t for t, _ in series if t >= cfg.degrade_time]
            assert after and after[0] <= cfg.degrade_time + cfg.strategy_interval
        assert out.details["http_upstreams"]
        for upstreams in out.details["http_upstreams"]:
            assert upstreams == {"int1": 1, "int2": 0}

    report(5, "path switching", check)


# --- 6: partial retrieval ---------------------------------------------------

def test_criterion_6_partial_retrieval():
    def check():
        cfg = config_from_dict({"experiment": "D", "range_repeats": 2})
        assert cfg.file_sizes == [100 * MB]
        out = run_experiment(cfg)
        ndn = [r for r in out.records if r.plane == "ndn"]
        assert ndn and all(r.origin_touches == 0 for r in ndn)
        bypass = [r for r in out.records if r.mode == "bypass"]
        assert bypass and all(r.origin_touches == 1 for r in bypass)
        assert all(r.cache1_bytes == 0 and r.cache2_bytes == 0 for r in bypass)
        one_mb = [r for r in out.records
                  if r.mode == "full_fetch" and r.size_bytes == MB]
        first = one_mb[0]
        assert first.delivered_bytes == MB
        assert first.cache1_bytes == 100 * MB

    report(6, "partial retrieval", check)


# --- 7: mechanism invariants ------------------------------------------------

def _flow_balance_case(rng):
    # N concurrent requesters on distinct downstream faces: one upstream
    # interest, then exactly one data back per asking face.
    sim = Simulator()
    net = Network(sim, base_seed=rng.getrandbits(32))
    r = net.add_node(NdnNode("r", cs_capacity=1 << 20))
    n_down = rng.randint(1, 6)
    down_faces = []
    for i in range(n_down):
        net.add_node(NdnNode(f"d{i}"))
        net.add_link("r", f"d{i}", 1.0)
        down_faces.append(r.add_face(f"d{i}"))
    net.add_node(NdnNode("u"))
    net.add_link("r", "u", 1.0)
    fu = r.add_face("u")
    r.add_route(PREFIX, [(fu, 10)])
    name = PREFIX.with_segment(1)
    asked = rng.sample(down_faces, rng.randint(1, n_down))
    upstream = []
    for face in asked:
        upstream += handled(r, Interest(name, rng.getrandbits(32)), face)
    fanout = handled(r, Data(name, payload_size=10), fu)
    per_face = {}
    for f, _pkt in fanout:
        per_face[f] = per_face.get(f, 0) + 1
    # flow balance: exactly one data per asking face, none elsewhere
    assert per_face == {face: 1 for face in asked}
    # aggregation: exactly one interest went upstream
    assert len(upstream) == 1 and upstream[0][0] == fu
    assert handled(r, Data(name, payload_size=10), fu) == []


def _lru_equivalence_case(rng):
    cap = rng.randint(1, 1000)
    real = LruBytes(cap)
    order, sizes = [], {}
    for _ in range(10_000):
        key = rng.randrange(20)
        if rng.random() < 0.5:
            hit = real.get(key) is not None
            assert hit == (key in sizes)
            if hit:
                order.remove(key)
                order.append(key)
        else:
            size = rng.randint(1, max(1, cap // 2))
            real.put(key, size)
            if key in sizes:
                order.remove(key)
                del sizes[key]
            sizes[key] = size
            order.append(key)
            while sum(sizes.values()) > cap:
                del sizes[order.pop(0)]
        assert real.used <= cap
        assert list(real.keys()) == order


def _lpm_case(rng):
    comps = ["a", "b", "c", "d"]
    table = {}
    for _ in range(rng.randint(0, 10)):
        key = tuple(rng.choice(comps) for _ in range(rng.randint(0, 3)))
        table[key] = rng.random()
    query = Name([rng.choice(comps) for _ in range(rng.randint(0, 4))])
    expected, best = None, -1
    for key, value in table.items():
        if tuple(query)[:len(key)] == key and len(key) > best:
            expected, best = value, len(key)
    assert longest_prefix_match(table, query) == expected


def _reno_case(rng):
    total = rng.randint(20, 80)
    drops = {i for i in range(total * 3) if rng.random() < 0.05}
    sim = Simulator()
    net = Network(sim, base_seed=1)
    from cdnsim.network import Node
    from scripted import script_drops

    net.add_node(Node("a"))
    net.add_node(Node("b"))
    net.add_link("a", "b", 10.0, 0.0)
    script_drops(net.link_between("a", "b"), {("a", "b"): drops})
    conn = preestablished(net, "a", "b")
    done = []
    TcpTransfer(net, conn, "a", total * DEFAULT_MSS,
                on_done=done.append).start()
    sim.run()
    from test_tcp import reno_oracle
    assert done and done[0].success
    assert done[0].cwnd_trace == reno_oracle(total, drops)


def _cs_budget_case(rng):
    from cdnsim.cache import ContentStore
    cs = ContentStore(rng.randint(1, 50) * 1000)
    content = ContentObject(PREFIX, rng.randint(1, 500) * 997,
                            chunk_size=rng.randint(100, 2000))
    for _ in range(200):
        cs.insert(content.segment_data(rng.randint(1, content.segment_count)))
        assert cs.used <= cs.capacity


def test_criterion_7_mechanism_invariants():
    def check():
        t0 = time.monotonic()
        suites = [_flow_balance_case, _lru_equivalence_case, _lpm_case,
                  _reno_case, _cs_budget_case]
        for suite in suites:
            for seed in range(100):
                suite(random.Random(seed))
        assert time.monotonic() - t0 < 60.0

    report(7, "mechanism invariants", check)


# --- 8: determinism ---------------------------------------------------------

def test_criterion_8_determinism():
    def check():
        # E ignores `lossy_access`; only A's lossy mode reads it.
        lossy_a = config_from_dict({"experiment": "A", "file_sizes": ["2MB"],
                                    "repetitions": 2, "lossy_access": "1%"})
        cfg = config_from_dict({"experiment": "E", "file_sizes": ["2MB"],
                                "repetitions": 2, "lossy_access": "1%"})
        for run_cfg in (cfg, lossy_a):
            csv_a = records_to_csv(run_experiment(run_cfg).records)
            csv_b = records_to_csv(run_experiment(run_cfg).records)
            assert csv_a == csv_b

        def traced_run(world_cls):
            world = world_cls(cfg, seed=7, size=256 * 1024, loss_access=0.01)
            lines = instrument(world.net)
            world.fetch()
            return lines

        assert traced_run(NdnWorld) == traced_run(NdnWorld)
        assert traced_run(HttpWorld) == traced_run(HttpWorld)
        assert traced_run(NdnWorld)

    report(8, "determinism", check)
