import random

import pytest

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


def test_trace_lines_have_fixed_shape():
    sim = Simulator(trace=True)
    sim.at(2.5, sim.log, "nodeA", "tx", "detail here")
    sim.run()
    assert sim.trace == ["2.5\tnodeA\ttx\tdetail here"]
    assert sim.trace_text() == "2.5\tnodeA\ttx\tdetail here\n"


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
