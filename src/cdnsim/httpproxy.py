"""HTTP caching-proxy chain: forward proxy, reverse proxies with
round-robin load balancing, byte-range modes, and an origin server.

Responses move store-and-forward at file granularity: a proxy downloads
the complete body from its upstream, caches it when allowed, and only
then serves the requester.  Inter-proxy connections are persistent and
already established when a scenario starts, so exactly one handshake
(the client's) is paid per transfer.  Caching is file-granular: a proxy
stores only complete bodies.

The client's GET and every proxy's upstream fetch take one request path,
`HttpPlane._request`, and every node answers in `HttpPlane._serve`.  Every
exchange ends in `on_done(fetch)`: the reply's TCP transfer result, or a
`Fetch(reason=...)` when no reply came.  The client's TTFB is the first of
`fetch.arrival_times`; a proxy retries the other upstream only if it is empty.
The requester watches the node it asked.  A fail-stop node sends no RST, so
the requester notices its death `tcp.dead_peer_delay` later (three
initial RTOs over their link: 600 ms on a 50 ms access link) and fails
the request as `upstream-died`.  A node that dies while sending a reply
is noticed sooner by the transfer itself ("sender died").
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .cache import LruBytes
from .metrics import Fetch
from .network import Network, Node
from .tcp import (DEFAULT_MSS, TcpTransfer, dead_peer_delay, preestablished,
                  tcp_open)


@dataclass
class ProxyConfig:
    role: str                      # "forward" | "reverse"
    upstreams: list
    lb_policy: str = "round_robin"  # "round_robin" | "single"
    range_mode: str = "bypass"      # "bypass" | "full_fetch"

    def __post_init__(self):
        if self.role not in ("forward", "reverse"):
            raise ValueError(f"unknown proxy role {self.role!r}")
        if not self.upstreams:
            raise ValueError("proxy needs at least one upstream")
        if self.lb_policy not in ("round_robin", "single"):
            raise ValueError(f"unknown lb policy {self.lb_policy!r}")
        if self.range_mode not in ("bypass", "full_fetch"):
            raise ValueError(f"unknown range mode {self.range_mode!r}")


@dataclass
class HttpRequest:
    url: str
    byte_range: Optional[tuple] = None  # inclusive (start, end)

    @property
    def range_bytes(self) -> Optional[int]:
        if self.byte_range is None:
            return None
        start, end = self.byte_range
        return end - start + 1


class HttpNode(Node):
    def __init__(self, name: str, *, cache_capacity: int = 0,
                 proxy: Optional[ProxyConfig] = None):
        super().__init__(name)
        self.cache = LruBytes(cache_capacity) if cache_capacity > 0 else None
        self.proxy = proxy
        self.origin_store: dict[str, int] = {}
        self._rr_index = 0

    def publish(self, url: str, size: int):
        self.origin_store[url] = size

    def warm_cache(self, url: str, size: int):
        if self.cache is None:
            raise ValueError(f"{self.name} has no cache to warm")
        self.cache.put(url, size)

    def pick_upstream(self) -> str:
        ups = self.proxy.upstreams
        if self.proxy.lb_policy == "single":
            return ups[0]
        choice = ups[self._rr_index % len(ups)]
        self._rr_index += 1
        return choice


def _fail_waiters(waits: dict, name: str):
    """Kill hook: tell everyone waiting on `name` that it died."""
    for cb in waits.pop(name, []):
        cb()


class _Pending:
    """One request from src to dst in flight.  It settles exactly once:
    when the reply ends, or `dead_peer_delay` after dst dies.  Its two
    ways to settle are methods, not closures that refer to each other,
    so a finished world is freed without the cycle collector."""

    __slots__ = ("sim", "waits", "dst", "conn", "on_done", "settled")

    def __init__(self, sim, waits: dict, dst: str, conn, on_done):
        self.sim = sim
        self.waits = waits
        self.dst = dst
        self.conn = conn
        self.on_done = on_done
        self.settled = False

    def settle(self, fetch: Fetch):
        if not self.settled:
            self.settled = True
            callbacks = self.waits.get(self.dst)
            if callbacks and self.on_dead in callbacks:
                callbacks.remove(self.on_dead)
            self.on_done(fetch)

    def on_dead(self):
        self.sim.after(dead_peer_delay(self.conn.link), self.settle,
                       Fetch(reason="upstream-died"))


class HttpPlane:
    """Drives HTTP exchanges over a Network of HttpNodes."""

    def __init__(self, net: Network, mss: int = DEFAULT_MSS):
        self.net = net
        self.mss = mss
        # Peer name -> callbacks of the requests waiting on it.  The kill
        # hook holds this dict, not the plane: the network must not hold
        # what holds the network.
        self._waits: dict[str, list] = {}
        net.kill_hooks.append(functools.partial(_fail_waiters, self._waits))

    # --- client entry point -------------------------------------------------

    def get(self, client: str, first_proxy: str, request: HttpRequest,
            on_done):
        """Issue a client GET; on_done receives its Fetch, timed from now."""
        sim = self.net.sim
        t0 = sim.now

        def finish(fetch: Fetch):
            fetch.completion = sim.now - t0
            if fetch.arrival_times:
                fetch.ttfb = fetch.arrival_times[0] - t0
            if not fetch.success:
                self.net.nodes[client].count("failed_transfers")
            on_done(fetch)

        if request.byte_range is not None:
            start, end = request.byte_range
            if start < 0 or start > end:
                sim.after(0.0, finish, Fetch(reason="invalid-range"))
                return

        def opened(conn):
            if conn is None:
                finish(Fetch(reason="connection-refused"))
            else:
                self._request(client, first_proxy, request, conn, finish)

        tcp_open(self.net, client, first_proxy, opened, mss=self.mss)

    # --- one request path, one serve path ------------------------------------

    def _request(self, src: str, dst: str, request: HttpRequest, conn,
                 on_done):
        """Send `request` from src to dst over `conn`; dst serves it one
        link delay later.  on_done(fetch) runs exactly once: when the
        reply ends, or `dead_peer_delay` after dst dies."""
        sim = self.net.sim
        pending = _Pending(sim, self._waits, dst, conn, on_done)
        if self.net.nodes[dst].alive:
            self._waits.setdefault(dst, []).append(pending.on_dead)
        else:  # died after answering the client's SYN
            pending.on_dead()
        sim.after(conn.link.delay, self._serve, dst, request, conn,
                  pending.settle)

    def _serve(self, node_name: str, request: HttpRequest, down_conn, cb):
        """Answer `request` at node_name: from the origin's store, from the
        cache, or from a body fetched upstream.  A range request passes
        through a forward or bypass proxy untouched; any other proxy
        fetches, and may cache, the whole file and replies with the range."""
        node = self.net.nodes[node_name]
        if not node.alive:
            return
        byte_range = request.byte_range

        def reply(size: int):
            nbytes = size if byte_range is None else request.range_bytes
            TcpTransfer(self.net, down_conn, node_name, nbytes,
                        on_done=cb).start()

        def error(reason: str):
            # Small error reply; one link delay back to the requester.
            self.net.sim.after(down_conn.link.delay, cb, Fetch(reason=reason))

        if node.proxy is None:  # the origin answers from its store
            size = node.origin_store.get(request.url)
            if size is None:
                error("not-found")
            elif byte_range is not None and byte_range[1] >= size:
                error("invalid-range")
            else:
                node.count("origin_touches")
                reply(size)
            return

        passthrough = byte_range is not None and (
            node.proxy.role == "forward" or node.proxy.range_mode == "bypass")
        cache = None if passthrough else node.cache
        if cache is not None:
            size = cache.get(request.url)
            if size is not None:
                node.count("cache_hits")
                reply(size)
                return
            node.count("cache_misses")

        def got_body(fetch: Fetch):
            if not node.alive:
                return
            if not fetch.success:
                error(fetch.reason)
                return
            size = fetch.delivered_bytes
            if cache is not None:
                cache.put(request.url, size)
                node.count("bytes_cached", size)
            reply(size)

        upstream_request = request if passthrough else HttpRequest(request.url)
        self._fetch_upstream(node, upstream_request, got_body)

    def _fetch_upstream(self, node, request, on_done, attempt: int = 0):
        """Forward a request upstream; on_done(fetch).

        A failure before any byte arrived is retried once on the next
        upstream; any later failure is final.
        """
        upstream = node.pick_upstream()
        conn = preestablished(self.net, node.name, upstream, mss=self.mss)

        def settle(fetch: Fetch):
            if not fetch.success and not fetch.arrival_times and attempt == 0 \
                    and len(node.proxy.upstreams) > 1:
                self._fetch_upstream(node, request, on_done, attempt=1)
            else:
                on_done(fetch)

        if not self.net.nodes[upstream].alive:
            self.net.sim.after(dead_peer_delay(conn.link), settle,
                               Fetch(reason="connection-refused"))
            return
        self.net.nodes[upstream].count("requests_upstream")
        self._request(node.name, upstream, request, conn, settle)
