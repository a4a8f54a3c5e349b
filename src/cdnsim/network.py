"""Links with delay/loss, node wiring, fault injection and tracing.

Links have infinite bandwidth: a delivered packet arrives exactly one
link delay after it was sent.  Loss is an independent per-packet Bernoulli
draw from a per-link-direction RNG, so traffic on one link never perturbs
another link's draws.  It is the only way a link loses a packet, and
`Link.should_drop` both draws it and counts it in `dropped_loss`.  A
lossless direction consumes no draw and builds no random stream (a stream
is built on its direction's first lossy draw): `Network.transmit` books an
NDN packet's send on it without a draw, `Link.draw_losses` books a TCP
round's sends on it in one step, and a world whose links are all lossless
builds no stream.  Node kill is fail-stop: the node drops everything from
its kill time on and emits nothing.

A packet goes out on a `Face`: one direction of a link, as its sender
sees it.  A face holds the link and the names of its two ends, so a send
needs no `(src, dst)` lookup to find its link.  It holds no node: nodes
keep their faces, so a face that held its peer would tie every pair of
neighbours into a reference cycle (node, face, peer, face, node), and a
finished world would wait for the cycle collector.  The receiver is
looked up by name when the packet arrives, and gets
`receive(packets, in_face)`, where `in_face` is its face id for the link,
which `NdnNode.add_face` sets on the face.  `packets` is a train: those
that reached the face at one time, in the order sent, in one event
(`Simulator.join`), handled as if each had had an event of its own.
"""

from __future__ import annotations

import math
import weakref

from .sim import Simulator, make_rng


def check_link_values(delay, loss):
    """Refuse a negative or NaN delay and a loss outside [0, 1]; None is unset."""
    if delay is not None and not delay >= 0:
        raise ValueError("link delay must be non-negative")
    if loss is not None and not 0.0 <= loss <= 1.0:
        raise ValueError("link loss must be in [0, 1]")


class Link:
    """A two-way link with one loss stream and one send count per direction.

    A direction's stream is `make_rng(seed, "link", src, dst)`, built on
    the first draw that consumes a `random()`.  A lossless direction never
    consumes one, so it never builds its stream, and a direction whose
    loss rises from 0 mid-run draws the same sequence as one that was
    lossy from the start.
    """

    __slots__ = (
        "a", "b", "delay", "loss", "seed", "_rng", "tx", "dropped_loss",
    )

    def __init__(self, a: str, b: str, delay: float, loss: float, base_seed: int):
        check_link_values(delay, loss)
        self.a = a
        self.b = b
        self.delay = delay
        self.loss = loss
        self.seed = base_seed
        self._rng = {}  # direction -> its stream, once a draw has used it
        self.tx = {(a, b): 0, (b, a): 0}
        self.dropped_loss = 0

    def should_drop(self, src: str, dst: str) -> bool:
        """Consume one loss draw for a packet src->dst; count it if lost."""
        direction = (src, dst)
        self.tx[direction] += 1
        if self.loss <= 0.0:
            return False
        try:
            rng = self._rng[direction]
        except KeyError:
            # The module-level name, looked up now, so a patch of it applies.
            rng = self._rng[direction] = make_rng(self.seed, "link", src, dst)
        if rng.random() < self.loss:
            self.dropped_loss += 1
            return True
        return False

    def draw_losses(self, src: str, dst: str, segs) -> list:
        """The members of `segs` lost src->dst: one `should_drop` each, in order."""
        if self.loss <= 0.0:
            self.tx[(src, dst)] += len(segs)  # such a draw uses no random()
            return []
        should_drop = self.should_drop
        return [seg for seg in segs if should_drop(src, dst)]


class Face:
    """One direction of a link: packets from `src` to `dst`.  `in_face` is
    the face id under which `dst` receives them, once an NDN `dst` opens
    its face on the link."""

    __slots__ = ("link", "src", "dst", "in_face")

    def __init__(self, link: Link, src: str, dst: str):
        self.link = link
        self.src = src
        self.dst = dst
        self.in_face = None


class Node:
    """Minimal node: subclasses define `receive(packets, in_face)`; death is fail-stop.

    `Network.add_node` sets `sim` and `net`.  `net` is a weak proxy: the
    network owns its nodes, and a strong back-reference would make every
    node a reference cycle, so a finished world (its Content Stores full
    of Data) would wait for the cycle collector instead of being freed
    when its last reference goes.
    """

    def __init__(self, name: str):
        self.name = name
        self.alive = True
        self.death_time = math.inf
        self.sim: Simulator | None = None
        self.net: "Network" | None = None
        self._counts: dict = {}

    @property
    def counters(self) -> dict:
        """Counts by key; a key never counted is absent."""
        return self._counts

    def count(self, key: str, n: int = 1):
        self._counts[key] = self._counts.get(key, 0) + n


class Network:
    def __init__(self, sim: Simulator, base_seed: int = 0):
        self.sim = sim
        self.base_seed = base_seed
        self.nodes: dict[str, Node] = {}
        self.faces: dict[tuple[str, str], Face] = {}  # (src, dst) -> face
        self.kill_hooks = []  # callbacks(node_name) run when a node dies

    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node {node.name}")
        node.sim = self.sim
        node.net = weakref.proxy(self)
        self.nodes[node.name] = node
        return node

    def add_link(self, a: str, b: str, delay: float, loss: float = 0.0) -> Link:
        if a not in self.nodes or b not in self.nodes:
            raise ValueError(f"link endpoints must exist: {a}, {b}")
        link = Link(a, b, delay, loss, self.base_seed)
        self.faces[(a, b)] = Face(link, a, b)
        self.faces[(b, a)] = Face(link, b, a)
        return link

    def face(self, src: str, dst: str) -> Face:
        return self.faces[(src, dst)]

    def link_between(self, a: str, b: str) -> Link:
        return self.faces[(a, b)].link

    def transmit(self, face: Face, packet) -> bool:
        """Send one packet out on `face`.  Returns False on drop."""
        sim = self.sim
        link = face.link
        if link.loss <= 0.0:
            link.tx[(face.src, face.dst)] += 1  # such a draw uses no random()
        elif link.should_drop(face.src, face.dst):
            return False
        # A link delay is never negative, so `after`'s check is not needed.
        sim.join(sim.now + link.delay, self._deliver, face, packet)
        return True

    def _deliver(self, face: Face, packets: list):
        """Hand a train to `face.dst`, which drops it all if dead."""
        node = self.nodes[face.dst]
        if not node.alive:
            node.count("dropped_dead", len(packets))
            return
        node.receive(packets, face.in_face)

    # --- fault and parameter-change injection -------------------------------

    def kill_node(self, name: str):
        node = self.nodes[name]
        if not node.alive:
            return
        node.alive = False
        node.death_time = self.sim.now
        for hook in list(self.kill_hooks):
            hook(name)

    def schedule_kill(self, t: float, name: str):
        if name not in self.nodes:
            raise ValueError(f"unknown node {name}")
        self.sim.at(t, self.kill_node, name)

    def set_link(self, a: str, b: str, delay=None, loss=None):
        link = self.link_between(a, b)
        check_link_values(delay, loss)
        if delay is not None:
            link.delay = delay
        if loss is not None:
            link.loss = loss

    def schedule_link_change(self, t: float, a: str, b: str, delay=None, loss=None):
        if (a, b) not in self.faces:
            raise ValueError(f"unknown link {a}-{b}")
        check_link_values(delay, loss)
        self.sim.at(t, self.set_link, a, b, delay, loss)


def instrument(net: Network) -> list:
    """Trace `net`: wrap its `transmit`, `_deliver`, `kill_node` and
    `set_link`, on the instance, to append `time<TAB>node<TAB>kind<TAB>detail`
    lines to the list returned: `tx` or `drop-loss` per send, `rx` per packet
    a live node gets (a train is handed over one packet at a time), `killed`
    before the kill hooks run, and `link-change`.  The wrappers hold `net`."""
    sim, lines = net.sim, []
    transmit, deliver, kill_node, set_link = (
        net.transmit, net._deliver, net.kill_node, net.set_link)

    def log(node, kind, detail=""):
        lines.append(f"{sim.now:g}\t{node}\t{kind}\t{detail}")

    def traced_transmit(face, packet):
        sent = transmit(face, packet)
        log(face.src, "tx" if sent else "drop-loss", f"{face.dst} {packet}")
        return sent

    def traced_deliver(face, packets):
        if not net.nodes[face.dst].alive:
            return deliver(face, packets)
        for packet in packets:
            log(face.dst, "rx", f"{face.src} {packet}")
            deliver(face, (packet,))

    def traced_kill_node(name):
        if net.nodes[name].alive:
            log(name, "killed")
        kill_node(name)

    def traced_set_link(a, b, delay=None, loss=None):
        set_link(a, b, delay, loss)
        link = net.link_between(a, b)
        log(a, "link-change", f"{b} delay={link.delay} loss={link.loss}")

    net.transmit, net._deliver = traced_transmit, traced_deliver
    net.kill_node, net.set_link = traced_kill_node, traced_set_link
    return lines
