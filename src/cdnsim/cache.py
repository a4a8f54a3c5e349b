"""Byte-budgeted LRU caches for Content Stores and proxy caches.  An entry
holds only its value, as NFD's Content Store holds only the Data (NDN-0021)."""

from __future__ import annotations

from collections import OrderedDict


class LruBytes:
    """LRU map with a byte budget.

    `sizes(value)` gives an entry's accounted size (what counts against the
    budget) and its content size (payload bytes, reported by the metrics
    layer); here values are byte counts, which are both.  Inserting evicts
    least-recently-accessed entries until the budget holds; an entry
    larger than the whole budget is skipped.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self.used = 0
        self.content_used = 0
        self.skipped_oversize = 0
        # key -> value; a plain dict would rescan its deleted slots on
        # every eviction from the front.
        self._entries: OrderedDict = OrderedDict()

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    @staticmethod
    def sizes(value):
        return value, value

    def get(self, key):
        """Look up and touch recency; None on miss."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key, value):
        """Insert/replace an entry.  Returns the list of evicted keys."""
        size, content_size = self.sizes(value)
        if size > self.capacity:
            self.skipped_oversize += 1
            return []
        entries = self._entries
        old = entries.pop(key, None)
        if old is not None:
            old_size, old_content = self.sizes(old)
            self.used -= old_size
            self.content_used -= old_content
        entries[key] = value
        self.used += size
        self.content_used += content_size
        evicted = []
        while self.used > self.capacity:
            k, v = entries.popitem(last=False)
            s, cs = self.sizes(v)
            self.used -= s
            self.content_used -= cs
            evicted.append(k)
        return evicted

    def keys(self):
        return self._entries.keys()


class ContentStore(LruBytes):
    """Packet-granular cache: stores Data keyed by name, budgeted by
    payload + signature bytes."""

    @staticmethod
    def sizes(data):
        return data.wire_size, data.payload_size

    def insert(self, data):
        return self.put(data.name, data)

    lookup = LruBytes.get
