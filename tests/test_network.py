import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cdnsim import experiments
from cdnsim.experiments import NdnWorld, execute, run_specs
from cdnsim.names import Name
from cdnsim.network import Link, Network, Node, instrument
from cdnsim.scenarios import NODES, config_from_dict
from cdnsim.sim import SimError, Simulator
from scripted import script_drops


class Sink(Node):
    """Records each packet with its sender: `make_net` opens each face
    under its sender's name."""

    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def receive(self, packets, in_face):
        self.received += [(self.sim.now, in_face, packet) for packet in packets]


def make_net(loss=0.0, delay=10.0, seed=1):
    sim = Simulator()
    net = Network(sim, base_seed=seed)
    a, b = Sink("a"), Sink("b")
    net.add_node(a)
    net.add_node(b)
    net.add_link("a", "b", delay, loss)
    for face in net.faces.values():
        face.in_face = face.src
    return sim, net, a, b


def test_delivery_after_exactly_one_link_delay():
    sim, net, a, b = make_net(delay=25.0)
    net.transmit(net.face("a", "b"), "pkt")
    sim.run()
    assert b.received == [(25.0, "a", "pkt")]


def test_fifo_per_direction():
    sim, net, a, b = make_net()
    for i in range(10):
        net.transmit(net.face("a", "b"), i)
    sim.run()
    assert [p for _, _, p in b.received] == list(range(10))


def test_loss_zero_never_drops_loss_one_always_drops():
    sim, net, a, b = make_net(loss=0.0)
    for _ in range(1000):
        assert net.transmit(net.face("a", "b"), "x")
    sim2, net2, a2, b2 = make_net(loss=1.0)
    for _ in range(1000):
        assert not net2.transmit(net2.face("a", "b"), "x")
    sim2.run()
    assert b2.received == []
    assert net2.link_between("a", "b").dropped_loss == 1000


def test_loss_rate_matches_binomial_expectation():
    p = 0.0008
    _, net, _, _ = make_net(loss=p)
    link = net.link_between("a", "b")
    n = 1_000_000
    drops = sum(link.should_drop("a", "b") for _ in range(n))
    mean = n * p
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(drops - mean) < 5 * sigma


def test_directions_draw_from_independent_streams():
    _, net, _, _ = make_net(loss=0.5)
    link = net.link_between("a", "b")
    fwd = [link.should_drop("a", "b") for _ in range(64)]
    rev = [link.should_drop("b", "a") for _ in range(64)]
    assert fwd != rev


def test_scripted_drops_override_probability():
    _, net, _, _ = make_net(loss=0.0)
    link = script_drops(net.link_between("a", "b"), {("a", "b"): {1, 3}})
    pattern = [link.should_drop("a", "b") for i in range(5)]
    assert pattern == [False, True, False, True, False]
    assert not any(link.should_drop("b", "a") for i in range(5))
    assert link.dropped_loss == 2


def test_dead_node_receives_nothing():
    sim, net, a, b = make_net()
    net.transmit(net.face("a", "b"), "early")
    net.schedule_kill(5.0, "b")
    sim.run()
    assert b.received == []
    assert b.counters["dropped_dead"] == 1
    assert b.death_time == 5.0


def test_schedule_kill_and_hooks():
    sim, net, a, b = make_net()
    killed = []
    net.kill_hooks.append(killed.append)
    net.schedule_kill(7.0, "b")
    sim.run()
    assert killed == ["b"]
    assert not b.alive
    with pytest.raises(ValueError):
        net.schedule_kill(8.0, "nobody")


def test_kill_is_idempotent():
    sim, net, a, b = make_net()
    hits = []
    net.kill_hooks.append(hits.append)
    net.kill_node("b")
    net.kill_node("b")
    assert hits == ["b"]


def test_in_flight_packets_keep_old_delay():
    sim, net, a, b = make_net(delay=10.0)
    net.transmit(net.face("a", "b"), "old")
    net.schedule_link_change(5.0, "a", "b", delay=100.0)
    sim.at(6.0, net.transmit, net.face("a", "b"), "new")
    sim.run()
    assert b.received[0] == (10.0, "a", "old")
    assert b.received[1] == (106.0, "a", "new")


def test_link_parameter_validation():
    sim, net, a, b = make_net()
    with pytest.raises(ValueError):
        net.set_link("a", "b", delay=-1.0)
    with pytest.raises(ValueError):
        net.set_link("a", "b", loss=1.5)
    with pytest.raises(ValueError):
        net.add_link("a", "nobody", 1.0)
    with pytest.raises(ValueError):
        net.schedule_link_change(1.0, "a", "nobody")


@pytest.mark.parametrize("delay, loss", [
    (float("nan"), None), (-1.0, None), (None, float("nan")), (None, 2.0),
    (7.0, 2.0), (float("nan"), 0.5),
])
def test_link_change_checks_every_value_first(delay, loss):
    """A refused change leaves the link as it was, and a scheduled one is
    refused when it is scheduled, not later inside `sim.run()`."""
    sim, net, a, b = make_net(loss=0.1, delay=10.0)
    link = net.link_between("a", "b")
    with pytest.raises(ValueError):
        net.set_link("a", "b", delay=delay, loss=loss)
    assert (link.delay, link.loss) == (10.0, 0.1)
    with pytest.raises(ValueError):
        net.schedule_link_change(5.0, "a", "b", delay=delay, loss=loss)
    assert sim._heap == []
    with pytest.raises(ValueError):
        Link("a", "b", 10.0 if delay is None else delay,
             0.0 if loss is None else loss, base_seed=1)


def test_duplicate_node_rejected():
    sim, net, a, b = make_net()
    with pytest.raises(ValueError):
        net.add_node(Sink("a"))


def test_same_seed_same_drop_sequence():
    def draws(seed):
        _, net, _, _ = make_net(loss=0.3, seed=seed)
        link = net.link_between("a", "b")
        return [link.should_drop("a", "b") for _ in range(100)]

    assert draws(5) == draws(5)
    assert draws(5) != draws(6)


def test_untraced_fetch_formats_no_trace_text(monkeypatch):
    # A packet repr formats its Name, so counting Name.__str__ counts the
    # trace text built.  Untraced, only the consumer's set-up string (the
    # prefix that seeds its nonce RNG) may be built, and the network runs
    # its class's methods, none of the trace layer's.
    original_str = Name.__str__
    calls = []

    def counting_str(self):
        calls.append(self)
        return original_str(self)

    monkeypatch.setattr(Name, "__str__", counting_str)
    cfg = config_from_dict({"experiment": "A", "file_sizes": ["100KB"]})

    def fetch(trace):
        world = NdnWorld(cfg, 3, cfg.file_sizes[0], loss_access=0.05)
        lines = instrument(world.net) if trace else []
        world.net.schedule_link_change(100.0, "csc", "int2", delay=20.0)
        world.net.schedule_kill(150.0, "int2")
        res = world.fetch()
        assert res.success and world.content.segment_count > 1
        return world, lines

    world, _ = fetch(trace=False)
    assert len(calls) == 1
    assert not {"transmit", "_deliver", "kill_node", "set_link"} & vars(world.net).keys()
    calls.clear()
    _, lines = fetch(trace=True)
    kinds = {line.split("\t")[2] for line in lines}
    assert {"tx", "rx", "drop-loss", "killed", "link-change"} <= kinds
    assert len(calls) > len(lines) // 2


def test_trace_lines_have_fixed_shape():
    """`instrument` logs each kind of line at a time that is not whole: a
    train gets one `rx` line and one `receive` per packet, a dead receiver no
    `rx` line, and `killed` comes before what the kill hooks send."""
    sim, net, a, b = make_net(loss=1.0, delay=1.25)
    trains = []
    b.receive = lambda packets, in_face: trains.append(list(packets))
    net.kill_hooks.append(lambda name: net.transmit(net.face("a", "b"), "hook"))
    lines = instrument(net)
    face = net.face("a", "b")
    sim.at(0.5, net.transmit, face, "lost")
    sim.at(1.0, net.set_link, "a", "b", None, 0.0)
    sim.at(1.5, net.transmit, face, "p1")
    sim.at(1.5, net.transmit, face, "p2")
    sim.at(3.5, net.kill_node, "b")
    sim.at(4.5, net.kill_node, "b")
    sim.run()
    assert lines == ["0.5\ta\tdrop-loss\tb lost",
                     "1\ta\tlink-change\tb delay=1.25 loss=0.0",
                     "1.5\ta\ttx\tb p1",
                     "1.5\ta\ttx\tb p2",
                     "2.75\tb\trx\ta p1",
                     "2.75\tb\trx\ta p2",
                     "3.5\tb\tkilled\t",
                     "3.5\ta\ttx\tb hook"]
    assert trains == [["p1"], ["p2"]]
    assert b.counters == {"dropped_dead": 1}
    assert sim.executed == 8  # 6 scheduled, one train of two, one dead delivery


@settings(max_examples=200, deadline=None)
@given(loss=st.sampled_from([0.0, 0.001, 0.2, 1.0]),
       calls=st.lists(st.tuples(st.sampled_from([("a", "b"), ("b", "a")]),
                                st.lists(st.integers(1, 10_000), max_size=40)),
                      max_size=5))
def test_draw_losses_equals_one_should_drop_per_member(loss, calls):
    # Two links that draw the same streams.
    bulk, single = (Link("a", "b", 10.0, loss, base_seed=3) for _ in range(2))
    for (src, dst), segs in calls:
        want = [seg for seg in segs if single.should_drop(src, dst)]
        assert bulk.draw_losses(src, dst, segs) == want
    assert bulk.tx == single.tx
    assert bulk.dropped_loss == single.dropped_loss
    assert bulk._rng.keys() == single._rng.keys()
    for d in single._rng:
        assert bulk._rng[d].getstate() == single._rng[d].getstate()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 200), loss=st.sampled_from([0.01, 0.2, 1.0]),
       direction=st.sampled_from([("a", "b"), ("b", "a")]))
def test_stream_built_on_first_lossy_draw_matches_a_lossy_link(n, loss, direction):
    """n lossless sends, then `set_link` raises the loss: the direction
    draws what a link built with that loss draws (F's degrade, 0 -> 1%)."""
    _, net, _, _ = make_net(loss=0.0, seed=5)
    link = net.link_between("a", "b")
    assert link.draw_losses(*direction, range(n)) == []
    assert link._rng == {}
    net.set_link("a", "b", loss=loss)
    fresh = Link("a", "b", 10.0, loss, base_seed=5)
    got = [link.should_drop(*direction) for _ in range(1000)]
    assert got == [fresh.should_drop(*direction) for _ in range(1000)]
    assert any(got)
    assert list(link._rng) == [direction]
    assert link.tx[direction] == n + 1000


def test_a_time_that_has_begun_starts_no_train():
    """A packet sent at `now` over a zero-delay link, on the face whose
    delivery is running, is delivered by an event of its own after it,
    even by a receiver that reads its train once."""
    sim, net, a, b = make_net(delay=0.0)
    face = net.face("a", "b")
    order = []

    def receive(packets, in_face):
        order.append(("rx", list(packets)))
        if "ping" in packets:
            net.transmit(face, "echo")
            sim.at(sim.now, order.append, "after echo")

    b.receive = receive
    sim.at(5.0, net.transmit, face, "ping")
    sim.at(5.0, order.append, "queued before")
    sim.run()
    assert order == ["queued before", ("rx", ["ping"]), ("rx", ["echo"]),
                     "after echo"]
    assert sim.executed == 5


def test_packets_sent_together_arrive_as_one_train():
    """A train holds the packets sent on one face for one time with no
    other event queued between them for that time."""
    sim, net, a, b = make_net(delay=10.0)
    order = []
    a.receive = lambda packets, in_face: order.append(("a", list(packets)))
    b.receive = lambda packets, in_face: order.append(("b", list(packets)))
    for i in range(5):
        net.transmit(net.face("a", "b"), i)
    net.transmit(net.face("b", "a"), "back")
    net.transmit(net.face("a", "b"), 5)
    sim.at(10.0, order.append, "queued between")
    net.transmit(net.face("a", "b"), 6)
    net.transmit(net.face("a", "b"), 7)
    sim.run()
    assert order == [("b", [0, 1, 2, 3, 4]), ("a", ["back"]), ("b", [5]),
                     "queued between", ("b", [6, 7])]
    assert sim.executed == 5


class PerPacketNetwork(Network):
    """The reference: `Network` with one delivery event, and one
    `receive`, per packet, as before packets travelled in trains."""

    def transmit(self, face, packet):
        sim = self.sim
        link = face.link
        if link.loss <= 0.0:
            link.tx[(face.src, face.dst)] += 1
        elif link.should_drop(face.src, face.dst):
            return False
        sim.at(sim.now + link.delay, self._deliver, face, [packet])
        return True


def recording(network_cls, built):
    """A factory of `network_cls` networks, each appended to `built`,
    whose nodes log every `(time, in_face, packet)` they receive."""

    class Recording(network_cls):
        def add_node(self, node):
            node.log = log = []
            receive, sim = node.receive, self.sim

            def logged(packets, in_face):
                log.extend((sim.now, in_face, packet) for packet in packets)
                receive(packets, in_face)

            node.receive = logged
            return super().add_node(node)

    def build(sim, seed):
        built.append(Recording(sim, seed))
        return built[-1]
    return build


def run_recorded(network_cls, cfg, spec, trace):
    built = []
    with mock.patch.object(experiments, "Network", recording(network_cls, built)):
        records, detail = execute(cfg, spec, trace=trace)
    (net,) = built
    links = {id(face.link): face.link for face in net.faces.values()}.values()
    nodes = [(name, node.counters, list(node.face_out), node.log)
             for name, node in net.nodes.items()]
    return (records, detail, nodes,
            [(dict(link.tx), link.dropped_loss) for link in links]), net.sim.executed


DELAYS = st.sampled_from([0.0, 1.0, 5.0, 10.0, 50.0])


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(experiment=st.sampled_from("ACEF"),
       size=st.sampled_from([1, 30_000, 100_000, 300_000]),
       delays=st.tuples(*[DELAYS] * 5),
       loss=st.sampled_from([0.0, 0.02, 0.2]),
       lossy_mode=st.booleans(),
       kill=st.none() | st.tuples(st.sampled_from([0.0, 30.0, 100.0, 250.0]),
                                  st.sampled_from(NODES)),
       degrade=st.none() | st.tuples(st.sampled_from([0.0, 20.0, 100.0]),
                                     DELAYS, st.sampled_from([0.0, 0.05])),
       trace=st.booleans())
@example(experiment="A", size=100_000, delays=(0.0,) * 5, loss=0.2,
         lossy_mode=True, kill=None, degrade=None, trace=False)
@example(experiment="E", size=100_000, delays=(10.0, 0.0, 5.0, 0.0, 1.0),
         loss=0.0, lossy_mode=False, kill=(100.0, "int1"),
         degrade=(20.0, 0.0, 0.05), trace=False)
def test_trains_match_one_event_per_packet(experiment, size, delays, loss,
                                           lossy_mode, kill, degrade, trace):
    """Small NDN worlds of A's, C's, E's and F's shapes, with zero
    delays, loss, a kill and a link change: trains give the same records,
    details, traces, node counters, per-face sends, link counts and, at
    every node, the same `(time, in_face, packet)` sequence as the
    per-packet reference, from no more events."""
    topo = dict(zip(("access_delay", "csc_int1_delay", "csc_int2_delay",
                     "int1_origin_delay", "int2_origin_delay"), delays))
    cfg = config_from_dict({"experiment": experiment, "plane": "ndn",
                            "repetitions": 1, "file_sizes": [size],
                            "lossy_access": loss, "lossy_upstream": loss / 4,
                            "topology": topo})
    spec = run_specs(cfg)[int(lossy_mode and experiment == "A")]
    spec = dataclasses.replace(spec, kill=kill or spec.kill,
                               degrade=degrade or spec.degrade)
    got, events = run_recorded(Network, cfg, spec, trace)
    want, reference_events = run_recorded(PerPacketNetwork, cfg, spec, trace)
    assert got == want
    assert events <= reference_events
