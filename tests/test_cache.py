import random

import pytest

from cdnsim.cache import ContentStore, LruBytes
from cdnsim.content import ContentObject
from cdnsim.names import Name

PREFIX = Name(("data_file",))


def test_put_get_and_budget():
    c = LruBytes(100)
    assert c.put("a", "A", 60) == []
    assert c.put("b", "B", 40) == []
    assert c.used == 100
    assert c.get("a") == "A"
    assert c.get("missing") is None


def test_lru_eviction_order():
    c = LruBytes(100)
    c.put("a", "A", 50)
    c.put("b", "B", 50)
    c.get("a")                      # b is now least recently used
    assert c.put("c", "C", 50) == ["b"]
    assert c.get("b") is None
    assert c.get("a") == "A"


def test_replacement_updates_accounting():
    c = LruBytes(100)
    c.put("a", "A", 60)
    c.put("a", "A2", 30)
    assert c.used == 30
    assert len(c) == 1


def test_oversize_entry_is_skipped():
    c = LruBytes(100)
    c.put("big", "B", 101)
    assert "big" not in c
    assert c.skipped_oversize == 1
    assert c.used == 0


def test_zero_capacity():
    c = LruBytes(0)
    c.put("a", "A", 1)
    assert c.get("a") is None
    with pytest.raises(ValueError):
        LruBytes(-1)


def test_content_used_tracks_separately():
    c = LruBytes(100)
    c.put("a", "A", 60, content_size=50)
    assert c.used == 60
    assert c.content_used == 50
    c.put("b", "B", 60, content_size=10)
    assert c.used == 60
    assert c.content_used == 10


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
        if size > self.capacity:
            return
        if key in self.sizes:
            self.order.remove(key)
            del self.sizes[key]
        self.sizes[key] = size
        self.order.append(key)
        while sum(self.sizes.values()) > self.capacity:
            victim = self.order.pop(0)
            del self.sizes[victim]


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
            real.put(key, key, size)
            ref.put(key, size)
        assert real.used <= cap
        assert real.used == sum(ref.sizes.values())
        assert list(real.keys()) == ref.order
