"""Links with delay/loss, node wiring, and fault injection.

Links have infinite bandwidth: a delivered packet arrives exactly one
link delay after it was sent.  Loss is an independent per-packet Bernoulli
draw from a per-link-direction RNG, so traffic on one link never perturbs
another link's draws.  Node kill is fail-stop: the node drops everything
from its kill time on and emits nothing.
"""

from __future__ import annotations

import math
import weakref

from .sim import Simulator, make_rng


class Link:
    __slots__ = (
        "a", "b", "delay", "loss", "up",
        "_rng", "tx", "dropped_loss", "dropped_down", "scripted_drops",
    )

    def __init__(self, a: str, b: str, delay: float, loss: float, base_seed: int):
        if delay < 0:
            raise ValueError("link delay must be non-negative")
        if not 0.0 <= loss <= 1.0:
            raise ValueError("link loss must be in [0, 1]")
        self.a = a
        self.b = b
        self.delay = delay
        self.loss = loss
        self.up = True
        self._rng = {
            (a, b): make_rng(base_seed, "link", a, b),
            (b, a): make_rng(base_seed, "link", b, a),
        }
        self.tx = {(a, b): 0, (b, a): 0}
        self.dropped_loss = 0
        self.dropped_down = 0
        # Optional per-direction set of tx indices to drop deterministically
        # (overrides the probability draw); used by tests and oracles.
        self.scripted_drops = None

    def other(self, name: str) -> str:
        return self.b if name == self.a else self.a

    def should_drop(self, src: str, dst: str) -> bool:
        """Consume one loss draw for a packet src->dst."""
        direction = (src, dst)
        idx = self.tx[direction]
        self.tx[direction] = idx + 1
        if self.scripted_drops is not None:
            return idx in self.scripted_drops.get(direction, ())
        if self.loss <= 0.0:
            return False
        return self._rng[direction].random() < self.loss


class Node:
    """Minimal node: subclasses handle packets; death is fail-stop.

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
        self.counters: dict = {}

    def count(self, key: str, n: int = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def on_packet(self, packet, from_name: str):  # pragma: no cover - abstract
        raise NotImplementedError

    def on_kill(self):
        pass


class Network:
    def __init__(self, sim: Simulator, base_seed: int = 0):
        self.sim = sim
        self.base_seed = base_seed
        self.nodes: dict[str, Node] = {}
        self.links: dict[tuple[str, str], Link] = {}
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
        self.links[(a, b)] = link
        self.links[(b, a)] = link
        return link

    def link_between(self, a: str, b: str) -> Link:
        return self.links[(a, b)]

    def transmit(self, src: str, dst: str, packet) -> bool:
        """Send one packet over the src-dst link.  Returns False on drop."""
        sim = self.sim
        link = self.links[(src, dst)]
        if not link.up:
            link.dropped_down += 1
            if sim.trace is not None:
                sim.log(src, "drop-linkdown", f"{dst} {packet}")
            return False
        if link.should_drop(src, dst):
            link.dropped_loss += 1
            if sim.trace is not None:
                sim.log(src, "drop-loss", f"{dst} {packet}")
            return False
        if sim.trace is not None:
            sim.log(src, "tx", f"{dst} {packet}")
        sim.after(link.delay, self._deliver, src, dst, packet)
        return True

    def _deliver(self, src: str, dst: str, packet):
        node = self.nodes[dst]
        if not node.alive:
            node.count("dropped_dead")
            return
        if self.sim.trace is not None:
            self.sim.log(dst, "rx", f"{src} {packet}")
        node.on_packet(packet, src)

    # --- fault and parameter-change injection -------------------------------

    def kill_node(self, name: str):
        node = self.nodes[name]
        if not node.alive:
            return
        node.alive = False
        node.death_time = self.sim.now
        if self.sim.trace is not None:
            self.sim.log(name, "killed")
        node.on_kill()
        for hook in list(self.kill_hooks):
            hook(name)

    def schedule_kill(self, t: float, name: str):
        if name not in self.nodes:
            raise ValueError(f"unknown node {name}")
        self.sim.at(t, self.kill_node, name)

    def set_link(self, a: str, b: str, delay=None, loss=None, up=None):
        link = self.links[(a, b)]
        if delay is not None:
            if delay < 0:
                raise ValueError("link delay must be non-negative")
            link.delay = delay
        if loss is not None:
            if not 0.0 <= loss <= 1.0:
                raise ValueError("link loss must be in [0, 1]")
            link.loss = loss
        if up is not None:
            link.up = up
        if self.sim.trace is not None:
            self.sim.log(a, "link-change",
                         f"{b} delay={link.delay} loss={link.loss} up={link.up}")

    def schedule_link_change(self, t: float, a: str, b: str, delay=None, loss=None, up=None):
        if (a, b) not in self.links:
            raise ValueError(f"unknown link {a}-{b}")
        self.sim.at(t, self.set_link, a, b, delay, loss, up)
