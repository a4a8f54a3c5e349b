import pytest
from hypothesis import example, given, settings, strategies as st

from cdnsim.content import ContentObject, Data, Interest
from cdnsim.names import Name
from cdnsim.ndn import (APP_FACE, BEST_ROUTE, WEIGHTED, FaceQuality, FibEntry,
                        NdnNode, compute_path_weight, strategy_select)
from cdnsim.network import Network
from cdnsim.sim import Simulator
from test_experiments import FETCHED_WORLDS, small_world

PREFIX = Name(("data_file",))


def make_node(name="r", cs_capacity=1 << 20, cls=NdnNode, **kw):
    sim = Simulator()
    net = Network(sim, base_seed=1)
    node = cls(name, cs_capacity=cs_capacity, **kw)
    net.add_node(node)
    return sim, net, node


def wire(net, a, b, delay=10.0, loss=0.0):
    net.add_link(a.name, b.name, delay, loss)
    return a.add_face(b.name), b.add_face(a.name)


def handled(node, packet, in_face):
    """The `(face, packet)` pairs that `node.receive((packet,), in_face)`
    hands to `_send`, recorded instead of sent."""
    sent = []
    node._send = lambda face_id, pkt, _transmit: sent.append((face_id, pkt))
    try:
        node.receive((packet,), in_face)
    finally:
        del node._send
    return sent


# --- path weight ------------------------------------------------------------

def test_path_weight_examples():
    assert compute_path_weight(50.0, 0.0) == 5000
    assert compute_path_weight(50.0, 1.0) == 5100
    assert compute_path_weight(0.0, 0.0) == 0
    assert compute_path_weight(0.001, 0.0) == 1    # ceil rounds up
    assert compute_path_weight(10.0, 0.5) == 1050


def test_path_weight_rejects_bad_inputs():
    with pytest.raises(ValueError):
        compute_path_weight(-1.0, 0.0)
    with pytest.raises(ValueError):
        compute_path_weight(1.0, -0.1)
    with pytest.raises(ValueError):
        compute_path_weight(1.0, 100.1)


# --- strategy selection -----------------------------------------------------

def q(face, delay=0.0, loss=0.0, alive=True):
    return FaceQuality(face, delay_estimate=delay, loss_estimate=loss,
                       alive=alive)


def test_best_route_prefers_lowest_cost_then_lowest_face():
    entry = FibEntry([(1, 20), (2, 10), (3, 10)])
    qualities = {1: q(1), 2: q(2), 3: q(3)}
    assert strategy_select(entry, qualities, BEST_ROUTE) == 2


def test_best_route_skips_dead_faces():
    entry = FibEntry([(1, 10), (2, 20)])
    qualities = {1: q(1, alive=False), 2: q(2)}
    assert strategy_select(entry, qualities, BEST_ROUTE) == 2
    qualities[2].alive = False
    assert strategy_select(entry, qualities, BEST_ROUTE) is None


def test_weighted_picks_smallest_weight():
    entry = FibEntry([(1, 10), (2, 20)])
    qualities = {1: q(1, delay=50.0, loss=1.0),   # weight 5100
                 2: q(2, delay=50.0, loss=0.0)}   # weight 5000
    assert strategy_select(entry, qualities, WEIGHTED) == 2


def test_weighted_tie_breaks_to_lowest_face():
    entry = FibEntry([(2, 10), (1, 20)])
    qualities = {1: q(1, delay=10.0), 2: q(2, delay=10.0)}
    assert strategy_select(entry, qualities, WEIGHTED) == 1


def test_strategy_respects_exclude_and_unknown_mode():
    entry = FibEntry([(1, 10), (2, 20)])
    qualities = {1: q(1), 2: q(2)}
    assert strategy_select(entry, qualities, BEST_ROUTE, exclude={1}) == 2
    with pytest.raises(ValueError):
        strategy_select(entry, qualities, "no-such-strategy")
    with pytest.raises(ValueError):  # even when no face is left to pick
        strategy_select(entry, qualities, "no-such-strategy", exclude={1, 2})


def test_fib_entry_validation():
    with pytest.raises(ValueError):
        FibEntry([])
    with pytest.raises(ValueError):
        FibEntry([(1, 10), (1, 20)])


@given(st.lists(st.tuples(st.integers(1, 10), st.integers(0, 100)),
                min_size=1, max_size=8, unique_by=lambda t: t[0]),
       st.data())
def test_weighted_matches_brute_force_argmin(nexthops, data):
    entry = FibEntry(nexthops)
    qualities = {}
    for face, _ in nexthops:
        qualities[face] = q(face,
                            delay=data.draw(st.floats(0, 1000)),
                            loss=data.draw(st.floats(0, 100)),
                            alive=data.draw(st.booleans()))
    chosen = strategy_select(entry, qualities, WEIGHTED)
    alive = [f for f, _ in nexthops if qualities[f].alive]
    if not alive:
        assert chosen is None
    else:
        expected = min(alive, key=lambda f: (compute_path_weight(
            qualities[f].delay_estimate, qualities[f].loss_estimate), f))
        assert chosen == expected


# --- forwarding pipeline ----------------------------------------------------

def two_face_node():
    """Node r with downstream faces d1, d2 and upstream u."""
    sim, net, r = make_node()
    for name in ("d1", "d2", "u"):
        net.add_node(NdnNode(name))
    f_d1, _ = wire(net, r, net.nodes["d1"])
    f_d2, _ = wire(net, r, net.nodes["d2"])
    f_u, _ = wire(net, r, net.nodes["u"])
    r.add_route(PREFIX, [(f_u, 10)])
    return sim, net, r, f_d1, f_d2, f_u


def test_cs_hit_short_circuits():
    sim, net, r, f_d1, f_d2, f_u = two_face_node()
    content = ContentObject(PREFIX, 100)
    r.cs.insert(content.segment_data(1))
    out = handled(r, Interest(PREFIX.with_segment(1), nonce=1), f_d1)
    assert [(f, d.name) for f, d in out] == [(f_d1, PREFIX.with_segment(1))]
    assert r.counters["cs_hits"] == 1
    assert not r.pit


def test_producer_answers_and_counts_origin_touch():
    sim, net, p = make_node("p", cs_capacity=0)
    f, _ = wire(net, p, net.nodes.setdefault("d", net.add_node(NdnNode("d"))))
    content = ContentObject(PREFIX, 100)
    p.publish(content)
    out = handled(p, Interest(PREFIX.with_segment(1), nonce=1), f)
    assert out[0][0] == f and out[0][1].payload_size == 100
    assert p.counters["origin_touches"] == 1
    out = handled(p, Interest(PREFIX.with_segment(9), nonce=2), f)
    assert out == []  # out-of-range segment has no route either


def test_fib_and_producer_table_are_keyed_by_the_name():
    sim, net, r, f_d1, f_d2, f_u = two_face_node()
    r.publish(ContentObject(PREFIX, 100))
    for table in (r.fib, r.producer_contents):
        (key,) = table
        assert type(key) is Name and key == PREFIX


def test_pit_aggregation_sends_one_upstream_interest():
    sim, net, r, f_d1, f_d2, f_u = two_face_node()
    name = PREFIX.with_segment(1)
    out1 = handled(r, Interest(name, nonce=1), f_d1)
    out2 = handled(r, Interest(name, nonce=2), f_d2)
    assert [f for f, _ in out1] == [f_u]
    assert out2 == []                      # aggregated, nothing forwarded
    assert r.counters["pit_aggregated"] == 1
    data = Data(name, payload_size=100)
    fanout = handled(r, data, f_u)
    assert sorted(f for f, _ in fanout) == sorted([f_d1, f_d2])
    assert name not in r.pit


def test_duplicate_nonce_dropped():
    sim, net, r, f_d1, f_d2, f_u = two_face_node()
    name = PREFIX.with_segment(1)
    handled(r, Interest(name, nonce=7), f_d1)
    out = handled(r, Interest(name, nonce=7), f_d2)
    assert out == []
    assert r.counters["dup_nonce_drops"] == 1


def test_retransmission_same_face_reforwards():
    sim, net, r, f_d1, f_d2, f_u = two_face_node()
    name = PREFIX.with_segment(1)
    handled(r, Interest(name, nonce=1), f_d1)
    out = handled(r, Interest(name, nonce=2), f_d1)  # fresh nonce
    assert [f for f, _ in out] == [f_u]


def test_no_route_drops_and_cleans_pit():
    sim, net, r = make_node()
    d = net.add_node(NdnNode("d"))
    f, _ = wire(net, r, d)
    out = handled(r, Interest(PREFIX.with_segment(1), nonce=1), f)
    assert out == []
    assert r.counters["no_route_drops"] == 1
    assert not r.pit


def test_unsolicited_data_dropped():
    sim, net, r, f_d1, f_d2, f_u = two_face_node()
    out = handled(r, Data(PREFIX.with_segment(5), payload_size=10), f_u)
    assert out == []
    assert r.counters["unsolicited_data"] == 1


def test_expired_pit_entry_treated_as_miss():
    sim, net, r, f_d1, f_d2, f_u = two_face_node()
    name = PREFIX.with_segment(1)
    handled(r, Interest(name, nonce=1, lifetime=50.0), f_d1)
    sim.at(100.0, lambda: None)
    sim.run()
    # data after expiry is unsolicited; a new interest re-creates the entry
    assert handled(r, Data(name, payload_size=10), f_u) == []
    out = handled(r, Interest(name, nonce=2), f_d2)
    assert [f for f, _ in out] == [f_u]


def test_data_populates_cs_on_the_way_down():
    sim, net, r, f_d1, f_d2, f_u = two_face_node()
    name = PREFIX.with_segment(1)
    handled(r, Interest(name, nonce=1), f_d1)
    handled(r, Data(name, payload_size=100), f_u)
    assert r.cs.lookup(name).payload_size == 100


def test_mark_face_dead_reforwards_pending_interests():
    sim, net, r = make_node()
    for name in ("d", "u1", "u2"):
        net.add_node(NdnNode(name))
    f_d, _ = wire(net, r, net.nodes["d"])
    f_u1, _ = wire(net, r, net.nodes["u1"])
    f_u2, u2_back = wire(net, r, net.nodes["u2"])
    r.add_route(PREFIX, [(f_u1, 10), (f_u2, 20)])
    name = PREFIX.with_segment(1)
    r.receive((Interest(name, nonce=1),), f_d)
    assert r.pit[name].out_face_last == f_u1
    r.mark_face_dead(f_u1)
    assert r.pit[name].out_face_last == f_u2
    assert r.counters["failover_reforwards"] == 1
    # packets sent per face id; index 0 is the application face
    assert r.face_out == [0, 0, 1, 1]
    sim.run()
    assert net.nodes["u2"].counters.get("interests_in") == 1


def test_mark_face_dead_without_alternative_keeps_entry():
    sim, net, r = make_node()
    for name in ("d", "u1"):
        net.add_node(NdnNode(name))
    f_d, _ = wire(net, r, net.nodes["d"])
    f_u1, _ = wire(net, r, net.nodes["u1"])
    r.add_route(PREFIX, [(f_u1, 10)])
    name = PREFIX.with_segment(1)
    r.receive((Interest(name, nonce=1),), f_d)
    r.mark_face_dead(f_u1)
    assert "failover_reforwards" not in r.counters


def test_flow_balance_one_data_per_interest_per_face():
    # N interests for the same name from two faces produce exactly one
    # data packet back on each face, never more.
    sim, net, r, f_d1, f_d2, f_u = two_face_node()
    name = PREFIX.with_segment(1)
    emitted = []
    for nonce, face in [(1, f_d1), (2, f_d2), (3, f_d1), (4, f_d2)]:
        emitted += handled(r, Interest(name, nonce=nonce), face)
    fanout = handled(r, Data(name, payload_size=10), f_u)
    per_face = {}
    for f, pkt in fanout:
        per_face[f] = per_face.get(f, 0) + 1
    assert all(count == 1 for count in per_face.values())
    # a second copy of the same data finds no PIT state
    assert handled(r, Data(name, payload_size=10), f_u) == []


# --- one-pass receive vs the emissions pipeline ------------------------------

class ReferencePitEntry:
    __slots__ = ("name", "in_records", "nonces", "out_face_last", "expiry")

    def __init__(self, name, expiry):
        self.name = name
        self.in_records = {}  # face -> the nonces it sent
        self.nonces = set()
        self.out_face_last = None
        self.expiry = expiry


class ReferenceNode(NdnNode):
    """The forwarding pipeline as it was before `receive` became one pass:
    `process_interest` and `process_data` return `(face, packet)`
    emissions, which `receive` then hands to `_send`, and a PIT entry
    keeps the nonces of each downstream face.  It takes one packet per
    call, and chooses each Interest's upstream on its own."""

    def receive(self, packets, in_face):
        (packet,) = packets
        if type(packet) is Interest:
            self.interests_in += 1
            emissions = self.process_interest(packet, in_face)
        else:
            self.data_in += 1
            emissions = self.process_data(packet, in_face)
        for face_id, pkt in emissions:
            self._send(face_id, pkt, self.net.transmit)
        return emissions

    def process_interest(self, interest, in_face):
        now = self.sim.now
        name = interest.name
        if self.cs is not None:
            data = self.cs.lookup(name)
            if data is not None:
                self.cs_hits += 1
                return [(in_face, data)]
            self.cs_misses += 1
        data = self._producer_lookup(name) if self.producer_contents else None
        if data is not None:
            self.origin_touches += 1
            return [(in_face, data)]

        entry = self.pit.get(name)
        if entry is not None and entry.expiry <= now:
            del self.pit[name]
            entry = None
        if entry is not None:
            if interest.nonce in entry.nonces:
                self.dup_nonce_drops += 1
                return []
            entry.nonces.add(interest.nonce)
            if in_face in entry.in_records:
                entry.in_records[in_face].add(interest.nonce)
                return self._forward(interest, entry, in_face)
            entry.in_records[in_face] = {interest.nonce}
            self.pit_aggregated += 1
            return []

        entry = ReferencePitEntry(name, now + min(interest.lifetime, self.pit_lifetime))
        entry.in_records[in_face] = {interest.nonce}
        entry.nonces.add(interest.nonce)
        self.pit[name] = entry
        emissions = self._forward(interest, entry, in_face)
        if not emissions:
            del self.pit[name]
        return emissions

    def _forward(self, interest, entry, in_face):
        face_id = self._upstream(interest.name, (in_face,))
        if face_id is None:
            self.no_route_drops += 1
            return []
        entry.out_face_last = face_id
        entry.expiry = max(entry.expiry,
                           self.sim.now + min(interest.lifetime, self.pit_lifetime))
        return [(face_id, interest)]

    def process_data(self, data, in_face):
        now = self.sim.now
        entry = self.pit.get(data.name)
        if entry is not None and entry.expiry <= now:
            del self.pit[data.name]
            entry = None
        if entry is None:
            self.unsolicited_data += 1
            return []
        if self.cs is not None:
            self.cs.insert(data)
        emissions = [(face_id, data) for face_id in entry.in_records]
        del self.pit[data.name]
        return emissions


OTHER = Name(("other",))
NAMES = [PREFIX.with_segment(k) for k in (1, 2, 3)] + [OTHER.with_segment(1)]


def forwarding_world(cls, cs_capacity, producer, strategy=BEST_ROUTE,
                     segment_route=False):
    """Node r of class cls: downstream faces d1, d2 and the app face,
    upstream faces u1, u2 on one FIB entry, and a recorder of every
    `(face, packet)` handed to its `_send`.  Under the weighted strategy
    u2 weighs less than u1; `segment_route` adds a FIB entry on segment 2's
    whole name that prefers u2, the shape of C's switch."""
    sim, net, r = make_node(cls=cls, cs_capacity=cs_capacity, pit_lifetime=100.0,
                            strategy=strategy)
    faces = {"app": APP_FACE}
    for name in ("d1", "d2", "u1", "u2"):
        net.add_node(NdnNode(name))
        faces[name], _ = wire(net, r, net.nodes[name])
    r.add_route(PREFIX, [(faces["u1"], 10), (faces["u2"], 20)])
    if segment_route:
        r.add_route(PREFIX.with_segment(2), [(faces["u2"], 10), (faces["u1"], 20)])
    r.qualities[faces["u1"]].delay_estimate = 50.0
    r.qualities[faces["u2"]].delay_estimate = 10.0
    if producer:
        r.publish(ContentObject(PREFIX, 150, chunk_size=100))  # segments 1, 2
    sent = []
    send = r._send

    def record(face_id, packet, transmit):
        sent.append((face_id, packet))
        send(face_id, packet, transmit)

    r._send = record
    return sim, net, r, faces, sent


def forwarding_state(r, sent):
    return (list(sent), r.counters, list(r.face_out),
            [(name, list(e.in_records), e.out_face_last, e.expiry)
             for name, e in r.pit.items()],
            None if r.cs is None else list(r.cs.keys()))


STEPS = st.one_of(
    st.tuples(st.just("interest"), st.sampled_from(NAMES), st.integers(1, 3),
              st.sampled_from(["app", "d1", "d2"]),
              st.sampled_from([10.0, 50.0, 4000.0])),
    st.tuples(st.just("data"), st.sampled_from(NAMES),
              st.sampled_from(["u1", "u2", "d1"])),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 10.0, 40.0, 60.0])),
    st.tuples(st.just("dead"), st.sampled_from(["u1", "u2"])),
)


def trains(steps):
    """The steps in order, with each run of consecutive packet steps on
    one face gathered into one `("train", face, packets)` step."""
    out = []
    for step in steps:
        if step[0] == "interest":
            _, name, nonce, face, lifetime = step
            packet = Interest(name, nonce=nonce, lifetime=lifetime)
        elif step[0] == "data":
            _, name, face = step
            packet = Data(name, payload_size=100)
        else:
            out.append(step)
            continue
        if out and out[-1][0] == "train" and out[-1][1] == face:
            out[-1][2].append(packet)
        else:
            out.append(("train", face, [packet]))
    return out


@settings(max_examples=300, deadline=None)
@given(cs_capacity=st.sampled_from([0, 300, 1 << 20]), producer=st.booleans(),
       strategy=st.sampled_from([BEST_ROUTE, WEIGHTED]),
       segment_route=st.booleans(),
       steps=st.lists(STEPS, min_size=5, max_size=40))
@example(cs_capacity=0, producer=False,  # an Interest at its entry's expiry
         strategy=BEST_ROUTE, segment_route=False,
         steps=[("interest", NAMES[0], 1, "d1", 10.0), ("advance", 10.0),
                ("interest", NAMES[0], 2, "d2", 10.0)])
@example(cs_capacity=0, producer=False,  # a Data at its entry's expiry
         strategy=BEST_ROUTE, segment_route=False,
         steps=[("interest", NAMES[0], 1, "d1", 10.0), ("advance", 10.0),
                ("data", NAMES[0], "u1")])
@example(cs_capacity=0, producer=False,  # a retransmission with no route left
         strategy=BEST_ROUTE, segment_route=False,
         steps=[("interest", NAMES[0], 1, "d1", 50.0), ("dead", "u1"),
                ("dead", "u2"), ("interest", NAMES[0], 2, "d1", 50.0),
                ("data", NAMES[0], "u1")])
@example(cs_capacity=0, producer=False,  # one train over a whole-name route
         strategy=BEST_ROUTE, segment_route=True,
         steps=[("interest", NAMES[0], 1, "d1", 50.0),
                ("interest", NAMES[1], 2, "d1", 50.0),
                ("interest", NAMES[2], 3, "d1", 50.0),
                ("interest", NAMES[3], 4, "d1", 50.0),
                ("interest", NAMES[0], 5, "d1", 50.0)])
def test_receive_matches_the_emissions_reference(cs_capacity, producer, strategy,
                                                 segment_route, steps):
    """`receive`, given each run of same-face packets as one train, sends
    the same packets on the same faces and leaves the same counters, PIT
    and Content Store as the reference given one packet per call, with
    repeated nonces, aggregation, expiry, an evicting Content Store (300
    bytes hold two 132-byte Data), a producer, unsolicited Data, dead
    upstream faces, both strategies and a FIB entry on a whole segment
    name inside trains of several prefixes."""
    worlds = [forwarding_world(cls, cs_capacity, producer, strategy, segment_route)
              for cls in (NdnNode, ReferenceNode)]
    for step in trains(steps):
        for sim, _net, r, faces, sent in worlds:
            kind = step[0]
            if kind == "train":
                _, face, packets = step
                if type(r) is NdnNode:
                    r.receive(tuple(packets), faces[face])
                else:
                    for packet in packets:
                        r.receive((packet,), faces[face])
            elif kind == "advance":
                sim.at(sim.now + step[1], lambda: None)
                sim.run()
            else:
                r.mark_face_dead(faces[step[1]])
        (_, _, got, _, got_sent), (_, _, want, _, want_sent) = worlds
        assert forwarding_state(got, got_sent) == forwarding_state(want, want_sent)


@given(st.lists(st.tuples(st.integers(1, 8), st.integers(0, 3)),
                min_size=1, max_size=8, unique_by=lambda t: t[0]),
       st.data())
def test_best_route_matches_brute_force_argmin(nexthops, data):
    # Few distinct costs, so equal-cost nexthops are common.
    entry = FibEntry(nexthops)
    faces = [f for f, _ in nexthops]
    qualities = {f: q(f, alive=data.draw(st.booleans())) for f in faces
                 if data.draw(st.booleans())}  # a face may have no entry
    exclude = data.draw(st.sets(st.sampled_from(faces)))
    chosen = strategy_select(entry, qualities, BEST_ROUTE, exclude)
    allowed = [(cost, f) for f, cost in nexthops if f not in exclude
               and (f not in qualities or qualities[f].alive)]
    assert chosen == (min(allowed)[1] if allowed else None)


# --- counters pinned across refactors -----------------------------------------

def fetched_e_kill():
    world = small_world("E", {"file_sizes": ["1MB"]})
    world.net.schedule_kill(200.0, "int1")   # mid-transfer: csc fails over
    world.fetch()
    return world


PINNED_WORLDS = {"A-lossy": FETCHED_WORLDS["A-lossy"], "E-kill": fetched_e_kill,
                 "F-oracle": FETCHED_WORLDS["F-oracle"]}

# Every node's counters after each fetch, as the string-keyed counters
# recorded them.  A counter that stayed zero is absent.
PINNED_COUNTERS = {
    "A-lossy": {
        "client": {"data_in": 30, "data_out": 30, "interests_in": 39, "interests_out": 39},
        "csc": {"cs_hits": 2, "cs_misses": 36, "data_in": 30, "data_out": 32,
                "interests_in": 38, "interests_out": 36},
        "int1": {"cs_misses": 34, "data_in": 30, "data_out": 30, "interests_in": 34,
                 "interests_out": 34},
        "int2": {},
        "origin": {"data_out": 33, "interests_in": 33, "origin_touches": 33},
    },
    "E-kill": {
        "client": {"data_in": 120, "data_out": 120, "interests_in": 120, "interests_out": 120},
        "csc": {"cs_misses": 120, "data_in": 120, "data_out": 120, "failover_reforwards": 64,
                "interests_in": 120, "interests_out": 184},
        "int1": {"cs_misses": 1, "data_in": 1, "data_out": 1, "dropped_dead": 64,
                 "interests_in": 1, "interests_out": 1},
        "int2": {"cs_misses": 119, "data_in": 119, "data_out": 119, "interests_in": 119,
                 "interests_out": 119},
        "origin": {"data_out": 120, "interests_in": 120, "origin_touches": 120},
    },
    "F-oracle": {
        "client": {"data_in": 30, "data_out": 30, "interests_in": 30, "interests_out": 30},
        "csc": {"cs_misses": 30, "data_in": 30, "data_out": 30, "interests_in": 30,
                "interests_out": 30},
        "int1": {"cs_misses": 1, "data_in": 1, "data_out": 1, "interests_in": 1,
                 "interests_out": 1},
        "int2": {"cs_misses": 29, "data_in": 29, "data_out": 29, "interests_in": 29,
                 "interests_out": 29},
        "origin": {"data_out": 30, "interests_in": 30, "origin_touches": 30},
    },
}


@pytest.mark.parametrize("setup", sorted(PINNED_COUNTERS))
def test_node_counters_match_the_parent(setup):
    world = PINNED_WORLDS[setup]()
    got = {name: dict(node.counters) for name, node in world.nodes.items()}
    assert got == PINNED_COUNTERS[setup]
