import math

import pytest
from hypothesis import given, settings, strategies as st

from cdnsim.experiments import NdnWorld
from cdnsim.names import Name
from cdnsim.network import Link, Network, Node
from cdnsim.scenarios import config_from_dict
from cdnsim.sim import SimError, Simulator
from scripted import script_drops


class Sink(Node):
    """Records each packet with its sender: `make_net` opens each face
    under its sender's name."""

    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def receive(self, packet, in_face):
        self.received.append((self.sim.now, in_face, packet))


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
    # prefix that seeds its nonce RNG) may be built.
    original_str, original_log = Name.__str__, Simulator.log
    calls, logged = [], []

    def counting_str(self):
        calls.append(self)
        return original_str(self)

    def counting_log(sim, *args):
        logged.append(args)
        original_log(sim, *args)

    monkeypatch.setattr(Name, "__str__", counting_str)
    monkeypatch.setattr(Simulator, "log", counting_log)
    cfg = config_from_dict({"experiment": "A", "file_sizes": ["100KB"]})

    def fetch(trace):
        world = NdnWorld(cfg, 3, cfg.file_sizes[0], loss_access=0.05,
                         trace=trace)
        world.net.schedule_link_change(100.0, "csc", "int2", delay=20.0)
        world.net.schedule_kill(150.0, "int2")
        res = world.fetch()
        assert res.success and world.content.segment_count > 1
        return world

    fetch(trace=False)
    assert len(calls) == 1
    assert logged == []
    calls.clear()
    world = fetch(trace=True)
    kinds = {line.split("\t")[2] for line in world.sim.trace}
    assert {"tx", "rx", "drop-loss", "killed", "link-change"} <= kinds
    assert len(calls) > len(world.sim.trace) // 2


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
