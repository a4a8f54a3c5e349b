import pytest

from cdnsim.content import ContentObject
from cdnsim.names import Name
from cdnsim.ndn import ConsumerPipeline, NdnNode
from cdnsim.network import Network
from cdnsim.sim import Simulator
from scripted import script_drops

PREFIX = Name(("data_file",))


def line_world(total=88000, chunk=8800, delay=10.0, loss=0.0,
               router_cs=1 << 30):
    """client -- router -- producer, one-way delay per hop."""
    sim = Simulator()
    net = Network(sim, base_seed=3)
    client = net.add_node(NdnNode("client"))
    router = net.add_node(NdnNode("router", cs_capacity=router_cs))
    producer = net.add_node(NdnNode("producer"))
    net.add_link("client", "router", delay, loss)
    net.add_link("router", "producer", delay, loss)
    f_cr = client.add_face("router")
    router.add_face("client")
    f_rp = router.add_face("producer")
    producer.add_face("router")
    client.add_route(PREFIX, [(f_cr, 10)])
    router.add_route(PREFIX, [(f_rp, 10)])
    content = ContentObject(PREFIX, total, chunk_size=chunk)
    producer.publish(content)
    return sim, net, client, router, producer, content


def fetch(sim, client, content, **kw):
    results = []
    pipeline = ConsumerPipeline(client, PREFIX, chunk_size=content.chunk_size,
                                on_done=results.append, **kw)
    sim.after(0.0, pipeline.start)
    sim.run()
    assert results
    return results[0]


class RecordingPipeline(ConsumerPipeline):
    """A pipeline that records what its `Fetch` does not keep: the time of
    each segment's last `_issue`, each satisfaction (segment, time) in the
    order they happened, and each `_issue` (segment, time) of a segment
    that was already satisfied."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.last_send_time = {}
        self.satisfactions = []
        self.satisfied = set()
        self.resent = []

    def _issue(self, seg):
        self.last_send_time[seg] = self.sim.now
        if seg in self.satisfied:
            self.resent.append((seg, self.sim.now))
        super()._issue(seg)

    def _on_data(self, data):
        seg = data.name.segment()
        if not self.done and seg in self._in_flight:
            self.satisfactions.append((seg, self.sim.now))
            self.satisfied.add(seg)
        super()._on_data(data)

    @property
    def satisfied_time(self):
        """segment -> its last satisfaction, in first-satisfaction order."""
        return dict(self.satisfactions)


def recorded_fetch(sim, client, content, **kw):
    """fetch through a RecordingPipeline: (its result, the pipeline)."""
    pipeline = RecordingPipeline(client, PREFIX, chunk_size=content.chunk_size, **kw)
    sim.after(0.0, pipeline.start)
    sim.run()
    assert pipeline.done
    return pipeline.result, pipeline


def test_single_segment_timing():
    sim, net, client, router, producer, content = line_world(total=100)
    res = fetch(sim, client, content)
    # two 10 ms hops each way
    assert res.success
    assert res.ttfb == 40.0
    assert res.completion == 40.0
    assert res.delivered_bytes == 100
    assert res.interests_sent == 1


def test_window_one_serializes_rounds():
    sim, net, client, router, producer, content = line_world(total=88000)
    res, pipeline = recorded_fetch(sim, client, content, window=1)
    # 10 segments, one 40 ms round trip each
    assert res.success
    assert res.completion == 400.0
    assert res.delivered_bytes == 88000
    assert list(pipeline.satisfied_time) == list(range(1, 11))


def test_wide_window_pipelines_after_discovery():
    sim, net, client, router, producer, content = line_world(total=88000)
    res = fetch(sim, client, content, window=64)
    # one discovery round trip, then the remaining 9 segments in parallel
    assert res.completion == 80.0
    assert res.interests_sent == 10


def test_cached_content_never_touches_producer():
    sim, net, client, router, producer, content = line_world(total=88000)
    for k in range(1, content.segment_count + 1):
        router.cs.insert(content.segment_data(k))
    res = fetch(sim, client, content)
    assert res.success
    assert res.ttfb == 20.0
    assert "origin_touches" not in producer.counters
    assert producer.counters.get("interests_in") is None


def test_byte_range_maps_to_segments():
    sim, net, client, router, producer, content = line_world(total=88000)
    res, pipeline = recorded_fetch(sim, client, content, byte_range=(8800, 26399))
    assert res.success
    assert sorted(pipeline.satisfied_time) == [2, 3]
    assert res.delivered_bytes == 2 * 8800


def test_empty_byte_range_finishes_immediately():
    sim, net, client, router, producer, content = line_world()
    res = fetch(sim, client, content, byte_range=(10, 5))
    assert res.success
    assert res.delivered_bytes == 0
    assert res.completion == 0.0


def test_negative_byte_range_rejected():
    sim, net, client, router, producer, content = line_world()
    pipeline = ConsumerPipeline(client, PREFIX, chunk_size=8800,
                                byte_range=(-1, 5))
    with pytest.raises(ValueError):
        pipeline.start()
    with pytest.raises(ValueError):
        ConsumerPipeline(client, PREFIX, chunk_size=8800, window=0)


def test_retransmission_answered_from_cache():
    # Drop the first data packet on the router->client hop: the consumer
    # retransmits and the router's Content Store answers; the producer
    # sees the interest exactly once.
    sim, net, client, router, producer, content = line_world(total=100)
    script_drops(net.link_between("client", "router"), {("router", "client"): {0}})
    res = fetch(sim, client, content, initial_rto=100.0)
    assert res.success
    assert res.retransmissions == 1
    assert producer.counters["interests_in"] == 1
    assert router.counters["cs_hits"] == 1
    # first round trip lost at the last hop, retransmit at t=100
    assert res.completion == 100.0 + 20.0


def test_interest_loss_recovers_end_to_end():
    sim, net, client, router, producer, content = line_world(total=100)
    script_drops(net.link_between("client", "router"), {("client", "router"): {0}})
    res = fetch(sim, client, content, initial_rto=100.0)
    assert res.success
    assert res.retransmissions == 1
    assert res.completion == 140.0


def test_gives_up_after_max_retries():
    sim, net, client, router, producer, content = line_world(total=100)
    net.set_link("client", "router", loss=1.0)
    res = fetch(sim, client, content, max_retries=3, initial_rto=50.0)
    assert not res.success
    assert "retries" in res.reason
    assert res.interests_sent == 4     # original + 3 retransmissions


def test_no_segment_refetched_after_satisfaction():
    sim, net, client, router, producer, content = line_world(
        total=880000, loss=0.01)
    res, pipeline = recorded_fetch(sim, client, content, window=8)
    assert res.success
    for seg, t_ok in pipeline.satisfied_time.items():
        assert pipeline.last_send_time[seg] <= t_ok
    assert pipeline.resent == []


def test_srtt_uses_only_clean_samples():
    sim, net, client, router, producer, content = line_world(total=100)
    script_drops(net.link_between("client", "router"), {("router", "client"): {0}})
    results = []
    pipeline = ConsumerPipeline(client, PREFIX, chunk_size=8800,
                                initial_rto=100.0, on_done=results.append)
    sim.after(0.0, pipeline.start)
    sim.run()
    # the only delivery was a retransmission; Karn's rule leaves SRTT unset
    assert pipeline.srtt is None


def test_same_time_arrivals_share_one_entry():
    sim, net, client, router, producer, content = line_world(total=88000)
    res = fetch(sim, client, content, window=64)
    # Segment 1 at 40 ms, then 2..10 together at 80 ms: one entry for those nine.
    assert res.arrival_times == [40.0, 80.0]
    assert res.delivered_bytes == 88000


def test_arrivals_follow_satisfaction_order():
    sim, net, client, router, producer, content = line_world(
        total=880000 + 123, loss=0.01)
    res, pipeline = recorded_fetch(sim, client, content, window=8)
    assert res.success and res.retransmissions > 0
    times = [t for _, t in pipeline.satisfactions]
    assert res.arrival_times == list(dict.fromkeys(times))
    assert res.delivered_bytes == sum(content.payload_of(seg)
                                      for seg, _ in pipeline.satisfactions)


def test_only_retransmitted_segments_are_counted():
    sim, net, client, router, producer, content = line_world(total=88000)
    script_drops(net.link_between("client", "router"), {("router", "client"): {0}})
    results = []
    pipeline = ConsumerPipeline(client, PREFIX, chunk_size=8800,
                                initial_rto=100.0, on_done=results.append)
    sim.after(0.0, pipeline.start)
    sim.run()
    assert results[0].success and results[0].retransmissions == 1
    assert pipeline._retries == {1: 1}
