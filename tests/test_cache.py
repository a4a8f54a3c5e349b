import random

import pytest
from hypothesis import given, settings, strategies as st

from cdnsim.cache import ContentStore, LruBytes
from cdnsim.content import ContentObject, Data
from cdnsim.names import Name

PREFIX = Name(("data_file",))


def test_put_get_and_budget():
    c = LruBytes(100)
    assert c.put("a", 60) == []
    assert c.put("b", 40) == []
    assert c.used == 100
    assert c.get("a") == 60
    assert c.get("missing") is None


def test_lru_eviction_order():
    c = LruBytes(100)
    c.put("a", 50)
    c.put("b", 50)
    c.get("a")                      # b is now least recently used
    assert c.put("c", 50) == ["b"]
    assert c.get("b") is None
    assert c.get("a") == 50


def test_replacement_updates_accounting():
    c = LruBytes(100)
    c.put("a", 60)
    c.put("a", 30)
    assert c.used == 30
    assert len(c) == 1


def test_oversize_entry_is_skipped():
    c = LruBytes(100)
    c.put("big", 101)
    assert "big" not in c
    assert c.skipped_oversize == 1
    assert c.used == 0


def test_zero_capacity():
    c = LruBytes(0)
    c.put("a", 1)
    assert c.get("a") is None
    with pytest.raises(ValueError):
        LruBytes(-1)


def test_content_store_budgets_wire_reports_payload():
    content = ContentObject(PREFIX, 20000, chunk_size=8800, signature_size=32)
    cs = ContentStore(2 * 8832)     # room for exactly two wire packets
    cs.insert(content.segment_data(1))
    cs.insert(content.segment_data(2))
    assert cs.used == 2 * 8832
    assert cs.content_used == 2 * 8800
    assert cs.lookup(content.segment_name(1)) is not None
    evicted = cs.insert(content.segment_data(3))
    assert evicted == [content.segment_name(2)]  # 1 was touched by lookup
    assert cs.lookup(content.segment_name(2)) is None


def test_content_store_holds_each_data_itself():
    content = ContentObject(PREFIX, 20000, chunk_size=8800)
    cs = ContentStore(1 << 20)
    packets = [content.segment_data(k) for k in (1, 2, 3)]
    for data in packets:
        cs.insert(data)
    # Each name maps to its Data object, with no per-entry record beside it.
    held = list(cs._entries.items())
    assert [name for name, _ in held] == [data.name for data in packets]
    assert all(value is data for (_, value), data in zip(held, packets))


class ReferenceLru:
    """Independent dict+list model of a byte-budget LRU."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []             # most recent last
        self.sizes = {}

    def get(self, key):
        if key in self.sizes:
            self.order.remove(key)
            self.order.append(key)
            return key
        return None

    def put(self, key, size):
        """Returns the evicted keys, least recently used first."""
        if size > self.capacity:
            return []
        if key in self.sizes:
            self.order.remove(key)
            del self.sizes[key]
        self.sizes[key] = size
        self.order.append(key)
        victims = []
        while sum(self.sizes.values()) > self.capacity:
            victim = self.order.pop(0)
            del self.sizes[victim]
            victims.append(victim)
        return victims


@pytest.mark.parametrize("seed", range(5))
def test_random_trace_matches_reference(seed):
    rng = random.Random(seed)
    cap = 500
    real, ref = LruBytes(cap), ReferenceLru(cap)
    for _ in range(10_000):
        key = rng.randrange(40)
        if rng.random() < 0.5:
            assert (real.get(key) is not None) == (ref.get(key) is not None)
        else:
            size = rng.randrange(1, 200)
            real.put(key, size)
            ref.put(key, size)
        assert real.used <= cap
        assert real.used == sum(ref.sizes.values())
        assert list(real.keys()) == ref.order


# (insert?, segment, payload bytes, signature bytes) per step.
CS_STEPS = st.lists(st.tuples(st.booleans(), st.integers(1, 12),
                              st.integers(1, 300), st.integers(0, 64)), max_size=150)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(capacity=st.integers(0, 1200), steps=CS_STEPS)
def test_content_store_matches_reference_and_sums_the_data_it_holds(capacity, steps):
    cs, ref = ContentStore(capacity), ReferenceLru(capacity)
    for insert, seg, payload, signature in steps:
        name = PREFIX.with_segment(seg)
        if insert:
            data = Data(name, payload_size=payload, signature_size=signature)
            assert cs.insert(data) == ref.put(name, data.wire_size)
        else:
            assert (cs.lookup(name) is not None) == (ref.get(name) is not None)
        assert list(cs.keys()) == ref.order
        held = list(cs._entries.values())
        assert cs.used == sum(data.wire_size for data in held) <= capacity
        assert cs.content_used == sum(data.payload_size for data in held)
