import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from cdnsim.sim import SimError, Simulator, derive_seed, make_rng


def test_events_run_in_time_order():
    sim = Simulator()
    out = []
    sim.at(5.0, out.append, "b")
    sim.at(1.0, out.append, "a")
    sim.at(9.0, out.append, "c")
    sim.run()
    assert out == ["a", "b", "c"]
    assert sim.now == 9.0


def test_equal_times_run_in_scheduling_order():
    sim = Simulator()
    out = []
    for label in ("first", "second", "third"):
        sim.at(3.0, out.append, label)
    sim.run()
    assert out == ["first", "second", "third"]


def test_after_is_relative_to_now():
    sim = Simulator()
    seen = []

    def step():
        seen.append(sim.now)
        if sim.now < 30:
            sim.after(10.0, step)

    sim.after(10.0, step)
    sim.run()
    assert seen == [10.0, 20.0, 30.0]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.at(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimError):
        sim.at(5.0, lambda: None)
    with pytest.raises(SimError):
        sim.after(-1.0, lambda: None)


def test_nan_time_is_refused():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.at(float("nan"), lambda: None)
    with pytest.raises(SimError):
        sim.after(float("nan"), lambda: None)
    assert sim._heap == []


def test_empty_run_is_a_noop():
    sim = Simulator()
    sim.run()
    assert sim.now == 0.0 and sim.executed == 0


def test_large_event_volume_matches_sorted_oracle():
    rng = random.Random(42)
    sim = Simulator()
    stamped = []
    entries = [(rng.random() * 1000.0, i) for i in range(100_000)]
    for t, i in entries:
        sim.at(t, lambda t=t, i=i: stamped.append((t, i)))
    sim.run()
    # same-time entries keep scheduling order: stable sort is the oracle
    assert stamped == sorted(entries, key=lambda e: e[0])
    assert sim.executed == len(entries)


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")
    assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")
    assert derive_seed(1, "ab") != derive_seed(1, "a", "b")
    assert derive_seed(2, "a", "b") != derive_seed(1, "a", "b")
    assert 0 <= derive_seed(1) < 2 ** 64


def test_make_rng_streams_are_independent_and_reproducible():
    a1 = [make_rng(7, "x").random() for _ in range(5)]
    a2 = [make_rng(7, "x").random() for _ in range(5)]
    b = [make_rng(7, "y").random() for _ in range(5)]
    assert a1 == a2
    assert a1 != b


# --- grouped same-time events vs the (time, sequence) heap --------------------

class HeapSimulator(Simulator):
    """The event queue as it was before same-time events were grouped: one
    heap entry `(time, seq, fn, args)` per event."""

    def __init__(self):
        super().__init__()
        self._seq = 0

    def at(self, time, fn, *args):
        if not time >= self.now:
            raise SimError(f"cannot schedule at {time} before now={self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, args))

    def run(self):
        heap = self._heap
        while heap:
            time, _, fn, args = heapq.heappop(heap)
            self.now = time
            self.executed += 1
            fn(*args)


def play(sim, starts, plan):
    """Schedule `starts`; the k-th event run appends (now, its id) to the
    returned log and schedules `plan[k]` children `after` those delays,
    at most 200 events in all."""
    log, ids = [], iter(range(200))

    def fire(event_id):
        k = len(log)
        log.append((sim.now, event_id))
        for delay in plan[k % len(plan)]:
            child = next(ids, None)
            if child is not None:
                sim.after(delay, fire, child)

    for t in starts:
        sim.at(t, fire, next(ids))
    return log


TIMES = st.sampled_from([0.0, 1.0, 2.0, 5.0])
PLANS = st.lists(st.lists(st.sampled_from([0.0, 0.0, 1.0, 3.0]), max_size=3),
                 min_size=1, max_size=20)


@settings(max_examples=200, deadline=None)
@given(starts=st.lists(TIMES, min_size=1, max_size=10), plan=PLANS)
def test_grouped_queue_runs_events_in_heap_order(starts, plan):
    """Times from a small set, so most events tie, and callbacks that
    schedule at `now` and at already queued times."""
    sims = Simulator(), HeapSimulator()
    logs = [play(sim, starts, plan) for sim in sims]
    for sim in sims:
        sim.run()
    assert logs[0] == logs[1]
    assert sims[0].executed == sims[1].executed == len(logs[0])
    assert sims[0].now == sims[1].now
    assert sims[0]._heap == [] and sims[0]._queues == {}
