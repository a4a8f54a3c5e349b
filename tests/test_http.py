import pytest

from cdnsim.httpproxy import (HttpNode, HttpPlane, HttpRequest, ProxyConfig)
from cdnsim.network import Network
from cdnsim.sim import Simulator

MB = 1 << 20
URL = "/data_file"


def make_world(size=MB, caches=("csc", "int1", "int2"), lb="round_robin",
               mode="bypass", access=50.0, loss=0.0):
    sim = Simulator()
    net = Network(sim, base_seed=4)
    cap = 2 << 30

    def capacity(name):
        return cap if name in caches else 0

    net.add_node(HttpNode("client"))
    net.add_node(HttpNode("csc", cache_capacity=capacity("csc"),
                          proxy=ProxyConfig("forward", ["int1", "int2"],
                                            lb_policy=lb, range_mode=mode)))
    for name in ("int1", "int2"):
        net.add_node(HttpNode(name, cache_capacity=capacity(name),
                              proxy=ProxyConfig("reverse", ["origin"],
                                                lb_policy="single",
                                                range_mode=mode)))
    origin = net.add_node(HttpNode("origin"))
    net.add_link("client", "csc", access, loss)
    net.add_link("csc", "int1", 10.0, loss)
    net.add_link("csc", "int2", 10.0, loss)
    net.add_link("int1", "origin", 10.0, loss)
    net.add_link("int2", "origin", 50.0, loss)
    origin.publish(URL, size)
    plane = HttpPlane(net)
    return sim, net, plane


def get(sim, plane, byte_range=None, url=URL):
    out = []
    plane.get("client", "csc", HttpRequest(url, byte_range=byte_range),
              out.append)
    sim.run()
    assert out
    return out[0]


def test_cold_get_populates_chain_and_touches_origin_once():
    sim, net, plane = make_world()
    meta = get(sim, plane)
    assert meta.success
    assert meta.delivered_bytes == MB
    assert net.nodes["origin"].counters["origin_touches"] == 1
    assert net.nodes["csc"].cache.content_used == MB
    assert net.nodes["int1"].cache.content_used == MB
    assert net.nodes["int2"].cache.content_used == 0
    assert meta.ttfb is not None and meta.ttfb < meta.completion


def test_warm_proxy_ttfb_is_handshake_plus_one_rtt():
    sim, net, plane = make_world(size=1000)
    net.nodes["csc"].warm_cache(URL, 1000)
    meta = get(sim, plane)
    # 100 ms handshake + 50 ms request + 50 ms first byte back
    assert meta.ttfb == 200.0
    assert meta.completion == 200.0
    assert "origin_touches" not in net.nodes["origin"].counters


def test_second_fetch_hits_forward_proxy():
    sim, net, plane = make_world()
    get(sim, plane)
    meta = get(sim, plane)
    assert meta.success
    assert net.nodes["origin"].counters["origin_touches"] == 1
    assert net.nodes["csc"].counters["cache_hits"] == 1


def test_round_robin_touches_each_upstream_once():
    sim, net, plane = make_world(caches=("int1", "int2"))
    get(sim, plane)
    get(sim, plane)
    assert net.nodes["int1"].counters["cache_misses"] == 1
    assert net.nodes["int2"].counters["cache_misses"] == 1
    assert net.nodes["origin"].counters["origin_touches"] == 2


def test_round_robin_fairness_over_many_requests():
    sim, net, plane = make_world(size=1000, caches=())
    for _ in range(20):
        get(sim, plane)
    assert net.nodes["int1"].counters["requests_upstream"] == \
        net.nodes["int2"].counters["requests_upstream"]


def test_single_policy_always_first_upstream():
    sim, net, plane = make_world(size=1000, caches=(), lb="single")
    for _ in range(4):
        get(sim, plane)
    assert net.nodes["int1"].counters["requests_upstream"] == 4
    assert "requests_upstream" not in net.nodes["int2"].counters


def test_bypass_ranges_always_reach_origin():
    sim, net, plane = make_world(size=100 * MB, mode="bypass")
    for _ in range(10):
        meta = get(sim, plane, byte_range=(0, MB - 1))
        assert meta.success
        assert meta.delivered_bytes == MB
    assert net.nodes["origin"].counters["origin_touches"] == 10
    assert net.nodes["int1"].cache.content_used == 0
    assert net.nodes["csc"].cache.content_used == 0


def test_full_fetch_ingests_whole_file_at_reverse_proxy():
    sim, net, plane = make_world(size=100 * MB, mode="full_fetch",
                                 lb="single")
    meta = get(sim, plane, byte_range=(0, MB - 1))
    assert meta.success
    assert meta.delivered_bytes == MB
    assert net.nodes["origin"].counters["origin_touches"] == 1
    assert net.nodes["int1"].cache.content_used == 100 * MB
    # the forward proxy passes ranges through uncached
    assert net.nodes["csc"].cache.content_used == 0
    # a second range is answered from the ingested copy
    meta = get(sim, plane, byte_range=(MB, 2 * MB - 1))
    assert meta.success
    assert net.nodes["origin"].counters["origin_touches"] == 1


def test_range_covering_whole_file():
    sim, net, plane = make_world(size=1000)
    meta = get(sim, plane, byte_range=(0, 999))
    assert meta.success
    assert meta.delivered_bytes == 1000


def test_invalid_ranges_fail():
    sim, net, plane = make_world(size=1000)
    meta = get(sim, plane, byte_range=(5, 3))
    assert not meta.success and meta.reason == "invalid-range"
    assert meta.ttfb is None and meta.arrival_times == []
    meta = get(sim, plane, byte_range=(-1, 3))
    assert not meta.success and meta.reason == "invalid-range"
    assert meta.ttfb is None and meta.arrival_times == []
    meta = get(sim, plane, byte_range=(0, 1000))
    assert not meta.success and meta.reason == "invalid-range"
    assert meta.ttfb is None and meta.arrival_times == []


def test_unknown_url_is_not_found():
    sim, net, plane = make_world()
    meta = get(sim, plane, url="/nope")
    assert not meta.success and meta.reason == "not-found"
    assert meta.ttfb is None and meta.arrival_times == []


def test_dead_first_proxy_refuses_connection():
    sim, net, plane = make_world()
    net.kill_node("csc")
    meta = get(sim, plane)
    assert not meta.success and meta.reason == "connection-refused"
    assert meta.ttfb is None and meta.arrival_times == []


def test_dead_upstream_fails_over_to_the_other():
    sim, net, plane = make_world()
    net.kill_node("int1")
    meta = get(sim, plane)
    assert meta.success
    assert net.nodes["int2"].cache.content_used == MB


def test_all_upstreams_dead_fails():
    sim, net, plane = make_world()
    net.kill_node("int1")
    net.kill_node("int2")
    meta = get(sim, plane)
    assert not meta.success
    assert meta.delivered_bytes == 0
    assert net.nodes["client"].counters["failed_transfers"] == 1
    assert meta.ttfb is None and meta.arrival_times == []


def test_upstream_killed_mid_transfer_breaks_the_chain():
    sim, net, plane = make_world(size=20 * MB)
    # int1 dies while streaming to csc: after a first byte arrived the
    # load balancer must not retry, so the client sees a failure.
    net.schedule_kill(3000.0, "int1")
    meta = get(sim, plane)
    assert not meta.success
    assert meta.delivered_bytes < 20 * MB


@pytest.mark.parametrize("kill_time", [120.0, 400.0])
def test_client_notices_a_dead_forward_proxy(kill_time):
    # 120 ms: csc dies before the request (sent at 100 ms) reaches it;
    # 400 ms: csc dies while fetching the body from int1.  The client gives
    # up three initial RTOs, 3 * max(4 * 50, 200) ms, after the death.
    sim, net, plane = make_world()
    net.schedule_kill(kill_time, "csc")
    meta = get(sim, plane)
    assert not meta.success and meta.reason == "upstream-died"
    assert meta.completion == kill_time + 600.0
    assert meta.delivered_bytes == 0
    assert net.nodes["client"].counters["failed_transfers"] == 1
    assert meta.ttfb is None and meta.arrival_times == []


def test_forward_proxy_dead_after_answering_the_syn():
    # csc answers the SYN at 50 ms and dies at 70 ms; the handshake still
    # completes at 100 ms, and the client gives up 600 ms after its request.
    sim, net, plane = make_world()
    net.schedule_kill(70.0, "csc")
    meta = get(sim, plane)
    assert not meta.success and meta.reason == "upstream-died"
    assert meta.completion == 700.0


def test_warm_cache_requires_a_cache():
    node = HttpNode("x")
    with pytest.raises(ValueError):
        node.warm_cache(URL, 10)


def test_proxy_config_validation():
    with pytest.raises(ValueError):
        ProxyConfig("sideways", ["a"])
    with pytest.raises(ValueError):
        ProxyConfig("forward", [])
    with pytest.raises(ValueError):
        ProxyConfig("forward", ["a"], lb_policy="random")
    with pytest.raises(ValueError):
        ProxyConfig("forward", ["a"], range_mode="partial")
