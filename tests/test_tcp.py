import math

import pytest
from hypothesis import example, given, settings, strategies as st

from cdnsim.metrics import Fetch
from cdnsim.network import Network, Node
from cdnsim.sim import Simulator
from cdnsim.tcp import DEFAULT_MSS, TcpTransfer, preestablished, tcp_open
from scripted import script_drops


def make_net(delay=10.0, loss=0.0):
    sim = Simulator()
    net = Network(sim, base_seed=2)
    net.add_node(Node("a"))
    net.add_node(Node("b"))
    net.add_link("a", "b", delay, loss)
    return sim, net


def open_conn(sim, net, **kw):
    out = []
    tcp_open(net, "a", "b", out.append, **kw)
    sim.run()
    assert out
    return out[0]


# --- handshake --------------------------------------------------------------

def test_handshake_takes_one_rtt():
    sim, net = make_net(delay=25.0)
    conn = open_conn(sim, net)
    assert conn is not None
    assert conn.established_at == 50.0
    assert conn.srtt == 50.0


def test_lost_syn_retries_after_one_second():
    sim, net = make_net(delay=25.0)
    script_drops(net.link_between("a", "b"), {("a", "b"): {0}})
    conn = open_conn(sim, net)
    assert conn.established_at == 1050.0
    assert net.link_between("a", "b").dropped_loss == 1


def test_lost_synack_also_retries():
    sim, net = make_net(delay=25.0)
    script_drops(net.link_between("a", "b"), {("b", "a"): {0}})
    conn = open_conn(sim, net)
    assert conn.established_at == 1050.0
    assert net.link_between("a", "b").dropped_loss == 1


def test_dead_server_refuses_after_budget():
    sim, net = make_net()
    net.kill_node("b")
    out = []
    tcp_open(net, "a", "b", out.append)
    sim.run()
    assert out == [None]
    # retries waited 1s + 2s + 4s before giving up
    assert sim.now == 7000.0


def test_preestablished_needs_no_handshake():
    sim, net = make_net(delay=10.0)
    conn = preestablished(net, "a", "b")
    assert conn.established_at == 0.0
    assert conn.srtt == 20.0


# --- bulk transfer ----------------------------------------------------------

def run_transfer(sim, net, conn, nbytes, sender="a"):
    out = []
    t = TcpTransfer(net, conn, sender, nbytes, on_done=out.append)
    t.start()
    sim.run()
    assert out
    return out[0]


def test_ten_segments_fit_in_initial_window():
    sim, net = make_net(delay=10.0)
    conn = preestablished(net, "a", "b")
    res = run_transfer(sim, net, conn, 10 * DEFAULT_MSS)
    assert res.success
    assert res.delivered_bytes == 14600
    assert res.completion == 10.0      # one one-way delay
    assert res.arrival_times == [10.0]  # all ten in one round


def test_transfer_result_is_a_fetch_timed_from_its_start():
    sim, net = make_net(delay=10.0)
    conn = preestablished(net, "a", "b")
    out = []
    transfer = TcpTransfer(net, conn, "a", 10 * DEFAULT_MSS, on_done=out.append)
    sim.at(100.0, transfer.start)
    sim.run()
    assert out == [transfer.result] and isinstance(out[0], Fetch)
    assert out[0].arrival_times == [110.0]
    assert out[0].delivered_bytes == 10 * DEFAULT_MSS
    assert out[0].completion == 10.0        # the duration, not the end time


def test_slow_start_doubles_each_rtt():
    sim, net = make_net(delay=10.0)
    conn = preestablished(net, "a", "b")
    # 70 segments: rounds of 10, 20, 40 segments at cwnd 10 -> 20 -> 40
    res = run_transfer(sim, net, conn, 70 * DEFAULT_MSS)
    assert res.success
    # last round starts after two 20 ms ack rounds
    assert res.completion == 50.0
    assert res.cwnd_trace[:2] == [("ss", 20.0), ("ss", 40.0)]


def test_last_segment_may_be_short():
    sim, net = make_net()
    conn = preestablished(net, "a", "b")
    res = run_transfer(sim, net, conn, DEFAULT_MSS + 1)
    assert res.delivered_bytes == DEFAULT_MSS + 1
    assert len(res.arrival_times) == 1  # both segments in one round


def test_tail_loss_causes_rto_and_cwnd_one():
    sim, net = make_net(delay=10.0)
    conn = preestablished(net, "a", "b")
    # lose the last of 10 segments: no dupacks, so timeout recovery
    script_drops(net.link_between("a", "b"), {("a", "b"): {9}})
    res = run_transfer(sim, net, conn, 10 * DEFAULT_MSS)
    assert res.success
    assert ("rto", 1.0) in res.cwnd_trace
    # retransmission resumes one RTO (200 ms floor) after the send
    assert res.completion == 210.0


def test_middle_loss_triggers_fast_recovery():
    sim, net = make_net(delay=10.0)
    conn = preestablished(net, "a", "b")
    # lose segment 2 of 10: eight later arrivals -> >= 3 dupacks
    script_drops(net.link_between("a", "b"), {("a", "b"): {1}})
    res = run_transfer(sim, net, conn, 10 * DEFAULT_MSS)
    assert res.success
    assert ("fr", 5.0) in res.cwnd_trace
    assert res.completion == 30.0      # retransmit next round


def test_sender_death_fails_transfer():
    sim, net = make_net(delay=10.0)
    conn = preestablished(net, "a", "b")
    out = []
    TcpTransfer(net, conn, "a", 1000 * DEFAULT_MSS, on_done=out.append).start()
    net.schedule_kill(35.0, "a")
    sim.run()
    assert out and not out[0].success
    assert out[0].reason == "sender died"


def test_receiver_death_detected_after_three_rtos():
    sim, net = make_net(delay=10.0)
    conn = preestablished(net, "a", "b")
    out = []
    TcpTransfer(net, conn, "a", 1000 * DEFAULT_MSS, on_done=out.append).start()
    net.schedule_kill(45.0, "b")
    sim.run()
    res = out[0]
    assert not res.success
    assert res.reason == "peer unreachable"
    # bytes that arrived before the kill stay delivered, the rest do not
    assert 0 < res.delivered_bytes < 1000 * DEFAULT_MSS
    assert all(t <= 45.0 for t in res.arrival_times)


def test_transfer_argument_validation():
    sim, net = make_net()
    conn = preestablished(net, "a", "b")
    with pytest.raises(ValueError):
        TcpTransfer(net, conn, "a", 0)


# --- cwnd trace vs hand-stepped oracle --------------------------------------

def reno_oracle(total_segments, drops):
    """Re-derive the cwnd event trace from the congestion rules alone.

    `drops` is the set of per-direction transmission indices that the
    link will drop; the model consumes one index per sent segment in
    segment order, exactly like the wire.
    """
    cwnd, ssthresh = 10.0, 64.0
    received = set()
    cum_ack = 0
    tx = 0
    trace = []
    while len(received) < total_segments:
        window = max(1, math.floor(cwnd))
        batch = [s for s in range(cum_ack + 1, min(total_segments, cum_ack + window) + 1)
                 if s not in received]
        delivered, lost = [], []
        for seg in batch:
            (lost if tx in drops else delivered).append(seg)
            tx += 1
        received.update(delivered)
        while cum_ack + 1 in received:
            cum_ack += 1
        if len(received) == total_segments:
            break        # completion happens at arrival, before the ack
        if not lost:
            if cwnd < ssthresh:
                cwnd = min(cwnd * 2.0, ssthresh)
                trace.append(("ss", cwnd))
            else:
                cwnd += 1.0
                trace.append(("ca", cwnd))
            continue
        dupacks = sum(1 for seg in delivered if seg > lost[0])
        if dupacks >= 3:
            ssthresh = max(cwnd / 2.0, 1.0)
            cwnd = ssthresh
            trace.append(("fr", cwnd))
        else:
            ssthresh = max(cwnd / 2.0, 1.0)
            cwnd = 1.0
            trace.append(("rto", cwnd))
    return trace


@pytest.mark.parametrize("drops", [
    set(), {0}, {5}, {9, 10}, {3, 20, 21, 22}, {1, 2, 3, 4}, {15, 40},
])
def test_cwnd_trace_matches_oracle(drops):
    total = 120
    sim, net = make_net(delay=10.0)
    conn = preestablished(net, "a", "b")
    script_drops(net.link_between("a", "b"), {("a", "b"): drops})
    res = run_transfer(sim, net, conn, total * DEFAULT_MSS)
    assert res.success
    assert res.cwnd_trace == reno_oracle(total, drops)


# --- bulk rounds vs the per-segment reference --------------------------------

class PerSegmentTransfer(TcpTransfer):
    """The round loop as it was before rounds were booked in bulk: one loss
    draw, one received mark, one (time, bytes) arrival and one cumulative-ACK
    step per segment.  `_ack` is shared, so only the round bookkeeping
    differs.  `transfer_outcome` fills its result from `arrivals`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._received_count = 0
        self.arrivals = []

    def _segment_bytes(self, seg):
        if seg < self.total_segments:
            return self.conn.mss
        return self.total_bytes - (self.total_segments - 1) * self.conn.mss

    def _round(self):
        if self.done:
            return
        if not self.net.nodes[self.sender].alive:
            self._fail("sender died")
            return
        conn = self.conn
        window = max(1, math.floor(conn.cwnd))
        high = min(self.total_segments, self._cum_ack + window)
        batch = [s for s in range(self._cum_ack + 1, high + 1) if not self._received[s]]
        if not batch:
            return
        link = conn.link
        t = self.sim.now
        delay = link.delay
        delivered, lost = [], []
        for seg in batch:
            if link.should_drop(self.sender, self.receiver):
                lost.append(seg)
            else:
                delivered.append(seg)
        arrival_time = t + delay
        if delivered:
            self.sim.at(arrival_time, self._arrive, delivered)
        self.sim.at(t + 2.0 * delay, self._ack, batch, delivered, lost, t, arrival_time)

    def _arrive(self, delivered):
        if self.done or not self.net.nodes[self.receiver].alive:
            return
        now = self.sim.now
        for seg in delivered:
            if not self._received[seg]:
                self._received[seg] = True
                self._received_count += 1
                self.arrivals.append((now, self._segment_bytes(seg)))
        while self._cum_ack < self.total_segments and self._received[self._cum_ack + 1]:
            self._cum_ack += 1
        if self._received_count == self.total_segments:
            self.done = True
            self.result.success = True
            self.result.completion = now - self.started
            if self.on_done is not None:
                self.on_done(self.result)


def transfer_outcome(cls, nbytes, delay, loss, drops, kill, changes=()):
    sim, net = make_net(delay=delay, loss=loss)
    link = net.link_between("a", "b")
    if drops is not None:
        script_drops(link, {("a", "b"): drops})
    if kill is not None:
        net.schedule_kill(*kill)
    for t, new_loss in changes:
        net.schedule_link_change(t, "a", "b", loss=new_loss)
    conn = preestablished(net, "a", "b")
    out = []
    transfer = cls(net, conn, "a", nbytes, on_done=out.append)
    transfer.start()
    sim.run()
    if cls is PerSegmentTransfer:
        # The reference's per-segment arrivals as a `Fetch` holds them: their
        # distinct times, in order, and their byte sum.
        times = [t for t, _ in transfer.arrivals]
        transfer.result.arrival_times = list(dict.fromkeys(times))
        transfer.result.delivered_bytes = sum(b for _, b in transfer.arrivals)
    first = [res.arrival_times[0] for res in out if res.arrival_times]
    return out, first, dict(link.tx), link.dropped_loss


@settings(max_examples=300, deadline=None)
@given(nbytes=st.one_of(
           st.sampled_from([1, DEFAULT_MSS, DEFAULT_MSS + 1, 3 << 20]),
           st.integers(1, 5 << 20)),
       delay=st.sampled_from([1.0, 10.0, 25.0, 50.0]),
       loss=st.sampled_from([0.0, 0.001, 0.2]),
       drops=st.none() | st.frozensets(st.integers(0, 300), max_size=30),
       kill=st.none() | st.tuples(st.floats(0.0, 2000.0), st.sampled_from(["a", "b"])),
       changes=st.lists(st.tuples(st.floats(0.0, 1000.0),
                                  st.sampled_from([0.0, 0.01, 0.2])), max_size=2))
@example(nbytes=3 << 20, delay=10.0, loss=0.0, drops=None, kill=None,
         changes=[(100.0, 0.01)])
@example(nbytes=3 << 20, delay=10.0, loss=0.01, drops=None, kill=None,
         changes=[(100.0, 0.0)])
def test_bulk_rounds_match_per_segment_reference(nbytes, delay, loss, drops, kill,
                                                 changes):
    """Booking a round in bulk gives the per-segment loop's result, the same
    loss draws and the same link transmit counts, also when the loss changes
    mid-transfer (0 -> 1% is F's degrade): each round draws at the loss of
    its own send time."""
    got = transfer_outcome(TcpTransfer, nbytes, delay, loss, drops, kill, changes)
    want = transfer_outcome(PerSegmentTransfer, nbytes, delay, loss, drops, kill,
                            changes)
    assert got == want
