"""NDN forwarding engine: FIB, PIT, Content Store, strategies, and the
consumer retrieval pipeline.

`NdnNode.receive` is the forwarding pipeline, one pass per packet of a
train (see `network`).  An Interest is answered locally by a Content
Store hit, else by a producer; a PIT hit from a new downstream face
aggregates; a PIT miss consults the FIB (longest prefix match) and a
forwarding strategy picks exactly one upstream face.  The FIB and the
strategy are the only way a node picks an upstream, failover included: a
scenario that steers some names elsewhere adds routes.  A Data packet
retraces the PIT entry's downstream faces and is cached on the way.
Every packet leaves through `NdnNode._send`.

A retransmitted Interest (same name and downstream face, fresh nonce) is
re-forwarded upstream rather than aggregated, so a consumer timeout can
recover from an upstream loss; once the packet sits in a cache along the
path the retransmission is answered there and never travels further up.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .cache import ContentStore
from .content import ContentObject, Data, Interest
from .metrics import Fetch
from .names import Name, longest_prefix_match
from .network import Face, Node
from .sim import make_rng

APP_FACE = 0

BEST_ROUTE = "best-route-failover"
WEIGHTED = "weighted-best-path"

DEFAULT_PIT_LIFETIME_MS = 4000.0
DEFAULT_WINDOW = 64
DEFAULT_MAX_RETRIES = 5
DEFAULT_RTO_MIN_MS = 200.0
DEFAULT_INITIAL_RTO_MS = 1000.0


def compute_path_weight(delay_ms: float, loss_percent: float) -> int:
    """Route weight: ceil(100 * delay_ms + 100 * loss_percent)."""
    if delay_ms < 0:
        raise ValueError("delay must be non-negative")
    if not 0.0 <= loss_percent <= 100.0:
        raise ValueError("loss percent must be in [0, 100]")
    return math.ceil(100.0 * delay_ms + 100.0 * loss_percent)


@dataclass
class FaceQuality:
    face_id: int
    delay_estimate: float = 0.0
    loss_estimate: float = 0.0
    alive: bool = True

    def __post_init__(self):
        if self.delay_estimate < 0:
            raise ValueError("delay estimate must be non-negative")
        if not 0.0 <= self.loss_estimate <= 100.0:
            raise ValueError("loss estimate must be in [0, 100]")


@dataclass
class FibEntry:
    nexthops: list  # [(face_id, static_cost)]

    def __post_init__(self):
        if not self.nexthops:
            raise ValueError("FIB entry needs at least one nexthop")
        faces = [f for f, _ in self.nexthops]
        if len(faces) != len(set(faces)):
            raise ValueError("duplicate face in FIB entry")
        # Face ids by (static cost, face id): best-route's preference order.
        self.by_cost = [f for f, _ in sorted(self.nexthops,
                                             key=lambda h: (h[1], h[0]))]


def strategy_select(entry: FibEntry, qualities: dict, mode: str, exclude=frozenset()):
    """Pick one upstream face, or None when no alive face remains.

    best-route-failover: lowest static cost among alive faces.
    weighted-best-path: lowest compute_path_weight over the face quality
    estimates.  Ties break toward the lowest face id.  A face with no
    quality entry counts as alive.  Any other mode raises ValueError.
    """
    if mode == BEST_ROUTE:
        for face_id in entry.by_cost:
            if face_id in exclude:
                continue
            q = qualities.get(face_id)
            if q is None or q.alive:
                return face_id
        return None
    if mode != WEIGHTED:
        raise ValueError(f"unknown strategy mode {mode!r}")
    candidates = []
    for face_id, cost in entry.nexthops:
        if face_id in exclude:
            continue
        q = qualities.get(face_id)
        if q is not None and not q.alive:
            continue
        candidates.append((face_id, cost, q))
    if not candidates:
        return None

    def weight(c):
        q = c[2]
        if q is None:
            return (0, c[0])
        return (compute_path_weight(q.delay_estimate, q.loss_estimate), c[0])
    return min(candidates, key=weight)[0]


class PitEntry:
    """A pending Interest: its downstream faces in arrival order, all nonces."""

    __slots__ = ("name", "in_records", "nonces", "out_face_last", "expiry")

    def __init__(self, name: Name, expiry: float, in_face: int, nonce: int):
        self.name = name
        self.in_records: list[int] = [in_face]
        self.nonces: set = {nonce}
        self.out_face_last: Optional[int] = None
        self.expiry = expiry


# Per-packet counts, kept as int slots of NdnNode; `NdnNode.counters`
# reports the non-zero ones under these names.
COUNTER_FIELDS = (
    "interests_in", "interests_out", "data_in", "data_out",
    "cs_hits", "cs_misses", "origin_touches", "pit_aggregated",
    "dup_nonce_drops", "no_route_drops", "unsolicited_data",
    "failover_reforwards",
)


class NdnNode(Node):
    # Slots keep the instance dict below 30 keys: CPython gives an
    # instance with 30 or more no fast path for its attributes.
    __slots__ = COUNTER_FIELDS

    def __init__(self, name: str, *, cs_capacity: int = 0,
                 strategy: str = BEST_ROUTE,
                 pit_lifetime: float = DEFAULT_PIT_LIFETIME_MS):
        super().__init__(name)
        for key in COUNTER_FIELDS:
            setattr(self, key, 0)
        self.cs = ContentStore(cs_capacity) if cs_capacity > 0 else None
        self.strategy = strategy
        self.pit_lifetime = pit_lifetime
        self.fib: dict[Name, FibEntry] = {}
        self.pit: dict[Name, PitEntry] = {}
        self.faces: list[Optional[Face]] = [None]  # by face id; 0 is APP_FACE
        self.face_out: list[int] = [0]          # packets sent, by face id
        self.face_of: dict[str, int] = {}
        self.qualities: dict[int, FaceQuality] = {}
        self.producer_contents: dict[Name, ContentObject] = {}
        self.app_deliver: Optional[Callable[[Data], None]] = None

    @property
    def counters(self) -> dict:
        """The non-zero per-packet counts, then the rare ones that
        `Node.count` keeps (`dropped_dead`); a copy, not a live view."""
        out = {}
        for key in COUNTER_FIELDS:
            n = getattr(self, key)
            if n:
                out[key] = n
        out.update(self._counts)
        return out

    # --- wiring -------------------------------------------------------------

    def add_face(self, neighbor: str) -> int:
        """Open a face on the link to `neighbor`, which must exist."""
        face_id = len(self.faces)
        self.faces.append(self.net.face(self.name, neighbor))
        self.net.face(neighbor, self.name).in_face = face_id
        self.face_of[neighbor] = face_id
        self.face_out.append(0)
        self.qualities[face_id] = FaceQuality(face_id)
        return face_id

    def add_route(self, prefix: Name, nexthops):
        self.fib[prefix] = FibEntry(list(nexthops))

    def publish(self, content: ContentObject):
        self.producer_contents[content.prefix] = content

    # --- packet handling ----------------------------------------------------

    def receive(self, packets, in_face: int):
        """Forward a train (see `network`) from `in_face`, packet by packet as
        NFD does; what no packet changes is looked up once, the upstream per prefix."""
        pit, cs, fib, producer = self.pit, self.cs, self.fib, self.producer_contents
        send, transmit = self._send, self.net.transmit
        now, pit_lifetime, exclude = self.sim.now, self.pit_lifetime, (in_face,)
        memo_prefix = memo_face = None
        for packet in packets:
            name = packet.name
            if type(packet) is not Interest:
                self.data_in += 1
                entry = pit.pop(name, None)  # an expired entry goes too
                if entry is None or entry.expiry <= now:
                    self.unsolicited_data += 1
                    continue
                if cs is not None:
                    cs.insert(packet)
                for face_id in entry.in_records:
                    send(face_id, packet, transmit)
                continue

            self.interests_in += 1
            if cs is not None:
                data = cs.lookup(name)
                if data is not None:
                    self.cs_hits += 1
                    send(in_face, data, transmit)
                    continue
                self.cs_misses += 1
            if producer:
                data = self._producer_lookup(name)
                if data is not None:
                    self.origin_touches += 1
                    send(in_face, data, transmit)
                    continue

            entry = pit.get(name)
            if entry is not None and entry.expiry <= now:
                del pit[name]
                entry = None
            nonce = packet.nonce
            expiry = now + min(packet.lifetime, pit_lifetime)
            fresh = entry is None
            if fresh:
                entry = pit[name] = PitEntry(name, expiry, in_face, nonce)
            elif nonce in entry.nonces:
                self.dup_nonce_drops += 1
                continue
            else:
                entry.nonces.add(nonce)
                if in_face not in entry.in_records:
                    entry.in_records.append(in_face)
                    self.pit_aggregated += 1
                    continue
                # Retransmission: downstream timed out, so push it upstream
                # again through the strategy.
            # A name is in the FIB or has its prefix's match.
            prefix = name if name in fib else name[:-1]
            if prefix != memo_prefix:
                memo_prefix, memo_face = prefix, self._upstream(prefix, exclude)
            face_id = memo_face
            if face_id is None:
                self.no_route_drops += 1
                if fresh:
                    del pit[name]
                continue
            entry.out_face_last = face_id
            if expiry > entry.expiry:
                entry.expiry = expiry
            send(face_id, packet, transmit)

    def _send(self, face_id: int, packet, transmit):
        if type(packet) is Interest:
            self.interests_out += 1
        else:
            self.data_out += 1
        self.face_out[face_id] += 1
        if face_id == APP_FACE:
            if self.app_deliver is not None:
                self.app_deliver(packet)
            return
        transmit(self.faces[face_id], packet)

    def _upstream(self, name, exclude):
        """The strategy's pick for `name`'s longest FIB match, or None."""
        entry = longest_prefix_match(self.fib, name)
        return entry and strategy_select(entry, self.qualities, self.strategy, exclude)

    def _producer_lookup(self, name: Name):
        seg = name.segment()
        if seg is None:
            return None
        content = self.producer_contents.get(name[:-1])
        if content is None or not 1 <= seg <= content.segment_count:
            return None
        return content.segment_data(seg)

    # --- face liveness ------------------------------------------------------

    def mark_face_dead(self, face_id: int):
        """Oracle notification that the neighbor on this face failed.

        Pending Interests forwarded through the dead face are immediately
        re-forwarded via the strategy's next choice, so in-flight traffic
        fails over without waiting for consumer timeouts.
        """
        q = self.qualities[face_id]
        if not q.alive:
            return
        q.alive = False
        now = self.sim.now
        for entry in list(self.pit.values()):
            if entry.out_face_last == face_id and entry.expiry > now:
                alt = self._upstream(entry.name, set(entry.in_records))
                if alt is not None and alt != face_id:
                    entry.out_face_last = alt
                    self.failover_reforwards += 1
                    self._send(alt, Interest(entry.name, nonce=0, lifetime=self.pit_lifetime),
                               self.net.transmit)


class ConsumerPipeline:
    """Windowed segment fetcher for one content prefix.

    Keeps up to `window` Interests outstanding, retransmits on a per
    segment timeout of max(2 * SRTT, 200 ms), and gives up on a segment
    after `max_retries` retransmissions.  The total segment count is
    learned from the final-block field of the first Data packet, so the
    pipeline starts with a single Interest and opens the window after
    that first round trip.  Once its node is killed, no Interest leaves
    it, but its timers still run: the fetch fails on its retry limit.
    """

    def __init__(self, node: NdnNode, prefix: Name, *, chunk_size: int,
                 byte_range=None, window: int = DEFAULT_WINDOW,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 initial_rto: float = DEFAULT_INITIAL_RTO_MS,
                 seed: int = 0, on_done=None):
        if window < 1:
            raise ValueError("window must be positive")
        self.node = node
        self.prefix = prefix
        self.chunk_size = chunk_size
        self.byte_range = byte_range
        self.window = window
        self.max_retries = max_retries
        self.initial_rto = initial_rto
        self.rng = make_rng(seed, "pipeline", node.name, str(prefix))
        self.on_done = on_done
        self.result = Fetch()
        self.srtt: Optional[float] = None
        self.total_segments: Optional[int] = None
        self.done = False
        self._t0 = 0.0
        self._unsent: deque = deque()
        self._in_flight: dict[int, float] = {}
        self._retries: dict[int, int] = {}  # only retransmitted segments
        self._filling = False
        node.app_deliver = self._on_data

    @property
    def sim(self):
        return self.node.sim

    def start(self):
        self._t0 = self.sim.now
        if self.byte_range is not None:
            start, end = self.byte_range
            if start > end:
                self.sim.after(0.0, self._finish, True, "")
                return
            if start < 0:
                raise ValueError("byte range start must be non-negative")
            first = start // self.chunk_size + 1
            last = end // self.chunk_size + 1
            self._unsent.extend(range(first, last + 1))
        else:
            self._unsent.append(1)
        self._fill_window()

    def _fill_window(self):
        # A Content Store on the consumer's node answers inside `_issue` and
        # calls back here: the loop already running does that issuing, and
        # reads its limit on each pass, since the first Data opens the window.
        if self.done or self._filling:
            return
        self._filling = True
        while self._unsent and len(self._in_flight) < (
                1 if self.total_segments is None else self.window):
            self._issue(self._unsent.popleft())
        self._filling = False

    def _issue(self, seg: int):
        sim = self.node.sim
        now = sim.now
        interest = Interest(self.prefix.with_segment(seg),
                            nonce=self.rng.getrandbits(64))
        self._in_flight[seg] = now
        self.result.interests_sent += 1
        rto = (self.initial_rto if self.srtt is None
               else max(2.0 * self.srtt, DEFAULT_RTO_MIN_MS))
        sim.at(now + rto, self._timeout, seg, now)
        if self.node.alive:
            self.node.receive((interest,), APP_FACE)

    def _on_data(self, data: Data):
        if self.done:
            return
        seg = data.name.segment()
        send_time = self._in_flight.pop(seg, None)
        if send_time is None:
            return  # duplicate or stale
        now = self.node.sim.now
        result = self.result
        result.arrive(now, data.payload_size)
        if result.ttfb is None:
            result.ttfb = now - self._t0
        if seg not in self._retries:  # Karn: only clean samples update SRTT
            rtt = now - send_time
            self.srtt = rtt if self.srtt is None else 0.875 * self.srtt + 0.125 * rtt
        if self.total_segments is None and data.final_block is not None:
            self._learn_total(data.final_block)
        if not self._unsent and not self._in_flight:
            self._finish(True, "")
        else:
            self._fill_window()

    def _learn_total(self, total: int):
        self.total_segments = total
        if self.byte_range is None:
            self._unsent.extend(range(2, total + 1))
        else:
            self._unsent = deque(s for s in self._unsent if s <= total)

    def _timeout(self, seg: int, expected_send: float):
        if self.done or self._in_flight.get(seg) != expected_send:
            return
        retries = self._retries.get(seg, 0)
        if retries >= self.max_retries:
            self._finish(False, f"segment {seg} exceeded {self.max_retries} retries")
            return
        del self._in_flight[seg]
        self._retries[seg] = retries + 1
        self.result.retransmissions += 1
        self._issue(seg)

    def _finish(self, success: bool, reason: str):
        if self.done:
            return
        self.done = True
        if self.node.app_deliver == self._on_data:
            self.node.app_deliver = None  # the node no longer holds this pipeline
        self.result.success = success
        self.result.reason = reason
        self.result.completion = self.sim.now - self._t0
        if self.on_done is not None:
            self.on_done(self.result)
