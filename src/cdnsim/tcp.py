"""Reno-lite TCP model over a single link hop.

A connection spans exactly one link (proxies terminate connections), so
slow start, congestion avoidance, fast recovery and RTO all play out
against that hop's delay and loss.  Transfers run in per-RTT rounds: the
sender emits up to cwnd segments, arrivals are processed at the far end
one link delay later, and the ACK outcome one RTT after the send decides
the next window.  Bandwidth is infinite; only delay and loss matter.

A round's bookkeeping is per round, not per segment: the arriving run is
marked received with one slice assignment and one `Fetch.arrive` call for
its bytes, and the cumulative ACK jumps to the first hole.  A lossless
direction consumes no draw, so the round books its sends in one step; a
lossy one draws per segment sent (`Link.draw_losses`), so the RNG stream
and the link's transmit counts do not depend on the batching.  A lost
segment, SYN or SYN-ACK is drawn and counted by `Link.should_drop`, as a
packet lost in `Network.transmit` is.

A transfer's result is a `metrics.Fetch` whose `completion` runs from
`start()` to the last byte; `on_done(fetch)` runs once, at the last byte
or when the transfer fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .metrics import Fetch
from .network import Network

DEFAULT_MSS = 1460
INITIAL_CWND = 10.0
INITIAL_SSTHRESH = 64.0
RTO_MIN_MS = 200.0
SYN_TIMEOUT_MS = 1000.0
SYN_RETRY_BUDGET = 3
DEAD_PEER_RTO_LIMIT = 3


def retransmit_timeout(srtt: float) -> float:
    return max(2.0 * srtt, RTO_MIN_MS)


def dead_peer_delay(link) -> float:
    """How long a sender takes to give up on a fail-stop peer (no RST)
    over `link`: DEAD_PEER_RTO_LIMIT timeouts at the link's base RTT."""
    return DEAD_PEER_RTO_LIMIT * retransmit_timeout(2.0 * link.delay)


@dataclass
class TcpConnection:
    client: str
    server: str
    link: object
    established_at: float
    cwnd: float = INITIAL_CWND
    ssthresh: float = INITIAL_SSTHRESH
    mss: int = DEFAULT_MSS
    srtt: float = 0.0


def tcp_open(net: Network, client: str, server: str, on_done,
             mss: int = DEFAULT_MSS):
    """Three-way handshake over the client-server link.

    Calls on_done(conn) once established (one full RTT after the SYN that
    got through), or on_done(None) when the retry budget is exhausted.
    SYN and SYN-ACK are subject to link loss; a lost handshake retries
    after 1 s, doubling.
    """
    _Handshake(net, client, server, on_done, mss).attempt(1)


class _Handshake:
    """One tcp_open in progress.  Its steps are methods scheduled on the
    simulator, not closures, so no step refers to itself and a finished
    world is freed without the cycle collector."""

    __slots__ = ("net", "link", "client", "server", "on_done", "mss", "done")

    def __init__(self, net: Network, client: str, server: str, on_done,
                 mss: int):
        self.net = net
        self.link = net.link_between(client, server)
        self.client = client
        self.server = server
        self.on_done = on_done
        self.mss = mss
        self.done = False

    def finish(self, conn):
        if not self.done:
            self.done = True
            self.on_done(conn)

    def attempt(self, n: int):
        if self.done:
            return
        if n > SYN_RETRY_BUDGET:
            self.finish(None)
            return
        sim, link = self.net.sim, self.link
        timeout = SYN_TIMEOUT_MS * (2 ** (n - 1))
        sim.after(timeout, self.attempt, n + 1)
        if not link.should_drop(self.client, self.server):
            sim.after(link.delay, self.syn_arrive)

    def syn_arrive(self):
        if self.done or not self.net.nodes[self.server].alive:
            return
        link = self.link
        if not link.should_drop(self.server, self.client):
            self.net.sim.after(link.delay, self.established)

    def established(self):
        if self.done or not self.net.nodes[self.client].alive:
            return
        sim, link = self.net.sim, self.link
        self.finish(TcpConnection(self.client, self.server, link,
                                  established_at=sim.now, mss=self.mss,
                                  srtt=2.0 * link.delay))


def preestablished(net: Network, client: str, server: str,
                   mss: int = DEFAULT_MSS) -> TcpConnection:
    """A persistent connection assumed open before the scenario starts."""
    link = net.link_between(client, server)
    return TcpConnection(client, server, link, established_at=0.0,
                         mss=mss, srtt=2.0 * link.delay)


class TcpTransfer:
    """One bulk transfer sender -> receiver over an established connection."""

    def __init__(self, net: Network, conn: TcpConnection, sender: str,
                 total_bytes: int, *, on_done=None):
        if total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        self.net = net
        self.conn = conn
        self.sender = sender
        self.receiver = conn.server if sender == conn.client else conn.client
        self.total_bytes = total_bytes
        self.total_segments = -(-total_bytes // conn.mss)
        self.on_done = on_done
        self.result = Fetch()
        self.done = False
        # Index 0 is unused; the trailing False stops the cumulative-ACK scan.
        self._received = [False] * (self.total_segments + 2)
        self._cum_ack = 0
        self._consecutive_rto = 0

    @property
    def sim(self):
        return self.net.sim

    def start(self):
        if self.sim.now < self.conn.established_at:
            raise ValueError("transfer started before handshake completion")
        self.started = self.sim.now
        self.sim.after(0.0, self._round)

    def _fail(self, reason: str):
        if self.done:
            return
        self.done = True
        self.result.reason = reason
        if self.on_done is not None:
            self.on_done(self.result)

    def _round(self):
        if self.done:
            return
        if not self.net.nodes[self.sender].alive:
            self._fail("sender died")
            return
        conn = self.conn
        received = self._received
        low = self._cum_ack + 1
        high = min(self.total_segments, self._cum_ack + max(1, math.floor(conn.cwnd)))
        if True in received[low:high + 1]:
            batch = [s for s in range(low, high + 1) if not received[s]]
        else:
            batch = list(range(low, high + 1))
        if not batch:
            return
        link = conn.link
        lost = link.draw_losses(self.sender, self.receiver, batch)
        delivered = batch
        if lost:
            dropped = set(lost)
            delivered = [seg for seg in batch if seg not in dropped]
        t = self.sim.now
        arrival_time = t + link.delay
        if delivered:
            self.sim.at(arrival_time, self._arrive, delivered)
        self.sim.at(t + 2.0 * link.delay, self._ack, batch, delivered, lost, t, arrival_time)

    def _arrive(self, delivered):
        # One round's segments, ascending; none was received before (a
        # round is sent only after the previous round's ACK).
        if self.done or not self.net.nodes[self.receiver].alive:
            return
        now = self.sim.now
        result = self.result
        received = self._received
        n = len(delivered)
        lo, hi = delivered[0], delivered[-1]
        if hi - lo + 1 == n:
            received[lo:hi + 1] = [True] * n
        else:
            for seg in delivered:
                received[seg] = True
        mss = self.conn.mss
        nbytes = n * mss
        if hi == self.total_segments:  # the last segment may be short
            nbytes -= self.total_segments * mss - self.total_bytes
        result.arrive(now, nbytes)
        self._cum_ack = received.index(False, self._cum_ack + 1) - 1
        if self._cum_ack == self.total_segments:
            self.done = True
            result.success = True
            result.completion = now - self.started
            if self.on_done is not None:
                self.on_done(result)

    def _ack(self, batch, delivered, lost, send_time, arrival_time):
        if self.done:
            return
        if not self.net.nodes[self.sender].alive:
            self._fail("sender died")
            return
        conn = self.conn
        receiver = self.net.nodes[self.receiver]
        if not receiver.alive and receiver.death_time <= arrival_time:
            delivered, lost = [], list(batch)
        if delivered:
            sample = self.sim.now - send_time
            conn.srtt = 0.875 * conn.srtt + 0.125 * sample if conn.srtt else sample
        if not lost:
            self._consecutive_rto = 0
            if conn.cwnd < conn.ssthresh:
                conn.cwnd = min(conn.cwnd * 2.0, conn.ssthresh)
                self.result.cwnd_trace.append(("ss", conn.cwnd))
            else:
                conn.cwnd += 1.0
                self.result.cwnd_trace.append(("ca", conn.cwnd))
            self._round()
            return
        dupacks = sum(1 for seg in delivered if seg > lost[0])
        if dupacks >= 3:
            conn.ssthresh = max(conn.cwnd / 2.0, 1.0)
            conn.cwnd = conn.ssthresh
            self._consecutive_rto = 0
            self.result.cwnd_trace.append(("fr", conn.cwnd))
            self._round()
            return
        conn.ssthresh = max(conn.cwnd / 2.0, 1.0)
        conn.cwnd = 1.0
        self.result.cwnd_trace.append(("rto", conn.cwnd))
        if not delivered:
            self._consecutive_rto += 1
            if self._consecutive_rto >= DEAD_PEER_RTO_LIMIT:
                self._fail("peer unreachable")
                return
        else:
            self._consecutive_rto = 0
        resume = max(self.sim.now, send_time + retransmit_timeout(self.conn.srtt))
        self.sim.at(resume, self._round)
