"""HTTP caching-proxy chain: forward proxy, reverse proxies with
round-robin load balancing, byte-range modes, and an origin server.

Responses move store-and-forward at file granularity: a proxy downloads
the complete body from its upstream, caches it when allowed, and only
then serves the requester.  Inter-proxy connections are persistent and
already established when a scenario starts, so exactly one handshake
(the client's) is paid per transfer.  Caching is file-granular: a proxy
stores only complete bodies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cache import LruBytes
from .metrics import Fetch
from .network import Network, Node
from .tcp import (DEFAULT_MSS, RTO_MIN_MS, TcpTransfer, preestablished,
                  tcp_open)

DEAD_DETECT_RTOS = 3


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
    cacheable: bool = True

    @property
    def range_bytes(self) -> Optional[int]:
        if self.byte_range is None:
            return None
        start, end = self.byte_range
        return end - start + 1


@dataclass
class HttpCacheEntry:
    url: str
    stored_bytes: int


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
        self.cache.put(url, HttpCacheEntry(url, size), size)

    def pick_upstream(self) -> str:
        ups = self.proxy.upstreams
        if self.proxy.lb_policy == "single":
            return ups[0]
        choice = ups[self._rr_index % len(ups)]
        self._rr_index += 1
        return choice

    def on_packet(self, packet, from_name):  # request/response timing is
        pass                                 # orchestrated by HttpPlane


class HttpPlane:
    """Drives HTTP exchanges over a Network of HttpNodes."""

    def __init__(self, net: Network, mss: int = DEFAULT_MSS):
        self.net = net
        self.mss = mss
        self._waits: dict[str, list] = {}
        net.kill_hooks.append(self._on_kill)

    # --- upstream-death bookkeeping ----------------------------------------

    def _wait_on(self, upstream: str, fail_cb):
        self._waits.setdefault(upstream, []).append(fail_cb)

    def _unwait(self, upstream: str, fail_cb):
        callbacks = self._waits.get(upstream)
        if callbacks and fail_cb in callbacks:
            callbacks.remove(fail_cb)

    def _on_kill(self, name: str):
        for cb in self._waits.pop(name, []):
            cb()

    def _detect_delay(self, a: str, b: str) -> float:
        # A fail-stop peer emits no RST; the other side gives up after a
        # few retransmission timeouts.
        rto = max(4.0 * self.net.link_between(a, b).delay, RTO_MIN_MS)
        return DEAD_DETECT_RTOS * rto

    # --- client entry point -------------------------------------------------

    def get(self, client: str, first_proxy: str, request: HttpRequest,
            on_done):
        """Issue a client GET; on_done receives a Fetch."""
        sim = self.net.sim
        fetch = Fetch()
        t0 = sim.now
        state = {"done": False}

        def finish(success: bool, reason: str = ""):
            if state["done"]:
                return
            state["done"] = True
            fetch.success = success
            fetch.reason = reason
            fetch.completion = sim.now - t0
            if not success:
                self.net.nodes[client].count("failed_transfers")
            on_done(fetch)

        if request.byte_range is not None:
            start, end = request.byte_range
            if start < 0 or start > end:
                sim.after(0.0, finish, False, "invalid-range")
                return fetch

        def first_byte(t):
            fetch.ttfb = t - t0

        def body_done(ok: bool, result, reason: str):
            if result is not None:
                fetch.delivered_bytes = result.delivered_bytes
                fetch.arrivals = result.arrivals
            finish(ok, reason)

        def opened(conn):
            if conn is None:
                finish(False, "connection-refused")
                return
            link = self.net.link_between(client, first_proxy)
            sim.after(link.delay, self._serve, first_proxy, request, client,
                      conn, first_byte, body_done)

        tcp_open(self.net, client, first_proxy, opened, mss=self.mss)
        return fetch

    # --- node-side request handling ----------------------------------------

    def _serve(self, node_name: str, request: HttpRequest, requester: str,
               down_conn, first_byte_cb, cb):
        node = self.net.nodes[node_name]
        if not node.alive:
            return

        def respond(nbytes: int):
            transfer = TcpTransfer(
                self.net, down_conn, node_name, nbytes,
                on_first_byte=first_byte_cb,
                on_done=lambda res: cb(res.success, res,
                                       "" if res.success else res.reason))
            transfer.start()

        def respond_error(reason: str):
            # Small error reply; one link delay back to the requester.
            link = self.net.link_between(node_name, requester)
            self.net.sim.after(link.delay, cb, False, None, reason)

        # Origin: serve from the authoritative store.
        if node.origin_store:
            size = node.origin_store.get(request.url)
            if size is None:
                respond_error("not-found")
                return
            if request.byte_range is not None:
                start, end = request.byte_range
                if end >= size:
                    respond_error("invalid-range")
                    return
                node.count("origin_touches")
                respond(request.range_bytes)
                return
            node.count("origin_touches")
            respond(size)
            return

        if request.byte_range is not None:
            self._serve_range(node, request, respond, respond_error)
        else:
            self._serve_full(node, request, respond, respond_error)

    def _serve_full(self, node, request, respond, respond_error):
        if node.cache is not None:
            entry = node.cache.get(request.url)
            if entry is not None:
                node.count("cache_hits")
                respond(entry.stored_bytes)
                return
            node.count("cache_misses")

        def got_body(ok, nbytes, reason):
            if not node.alive:
                return
            if not ok:
                respond_error(reason)
                return
            if node.cache is not None and request.cacheable:
                node.cache.put(request.url, HttpCacheEntry(request.url, nbytes),
                               nbytes)
                node.count("bytes_cached", nbytes)
            respond(nbytes)

        self._fetch_upstream(node, request, got_body)

    def _serve_range(self, node, request, respond, respond_error):
        mode = node.proxy.range_mode
        if node.proxy.role == "forward" or mode == "bypass":
            # Pass the range through untouched; nothing is cached.
            def got_body(ok, nbytes, reason):
                if not node.alive:
                    return
                if ok:
                    respond(nbytes)
                else:
                    respond_error(reason)
            self._fetch_upstream(node, request, got_body)
            return

        # full_fetch: a cached copy answers any range; otherwise
        # ingest the whole file first, then serve the range.
        entry = node.cache.get(request.url) if node.cache is not None else None
        if entry is not None:
            node.count("cache_hits")
            respond(request.range_bytes)
            return
        if node.cache is not None:
            node.count("cache_misses")
        full_request = HttpRequest(request.url, byte_range=None,
                                   cacheable=request.cacheable)

        def got_full(ok, nbytes, reason):
            if not node.alive:
                return
            if not ok:
                respond_error(reason)
                return
            if node.cache is not None and request.cacheable:
                node.cache.put(request.url, HttpCacheEntry(request.url, nbytes),
                               nbytes)
                node.count("bytes_cached", nbytes)
            respond(request.range_bytes)

        self._fetch_upstream(node, full_request, got_full)

    def _fetch_upstream(self, node, request, got_body, attempt: int = 0):
        """Forward a request upstream; got_body(ok, nbytes, reason).

        A connection refused before any byte arrived is retried once on
        the next upstream; any later failure is final.
        """
        sim = self.net.sim
        upstream = node.pick_upstream()
        link = self.net.link_between(node.name, upstream)
        state = {"settled": False, "got_byte": False}

        def settle(ok, nbytes, reason):
            if state["settled"]:
                return
            state["settled"] = True
            self._unwait(upstream, on_upstream_dead)
            if not ok and not state["got_byte"] and attempt == 0 \
                    and len(node.proxy.upstreams) > 1:
                self._fetch_upstream(node, request, got_body, attempt=1)
                return
            got_body(ok, nbytes, reason)

        def on_upstream_dead():
            sim.after(self._detect_delay(node.name, upstream),
                      settle, False, 0, "upstream-died")

        self._wait_on(upstream, on_upstream_dead)

        if not self.net.nodes[upstream].alive:
            sim.after(self._detect_delay(node.name, upstream),
                      settle, False, 0, "connection-refused")
            return

        conn = preestablished(self.net, node.name, upstream, mss=self.mss)

        def first_byte(_t):
            state["got_byte"] = True

        def transfer_done(ok, result, reason):
            settle(ok, result.delivered_bytes if result else 0, reason)

        def at_upstream():
            self.net.nodes[upstream].count("requests_upstream")
            self._serve(upstream, request, node.name, conn, first_byte,
                        transfer_done)

        sim.after(link.delay, at_upstream)
