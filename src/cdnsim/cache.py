"""Byte-budgeted LRU caches for Content Stores and proxy caches."""

from __future__ import annotations

from collections import OrderedDict


class LruBytes:
    """LRU map with a byte budget.

    Each entry carries its accounted size (what counts against the budget)
    and optionally a separate content size (payload bytes, reported by the
    metrics layer).  Inserting evicts least-recently-accessed entries until
    the budget holds; an entry larger than the whole budget is skipped.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self.used = 0
        self.content_used = 0
        self.skipped_oversize = 0
        self._entries: OrderedDict = OrderedDict()  # key -> (value, size, content_size)

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def get(self, key):
        """Look up and touch recency; None on miss."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key, value, size: int, content_size=None):
        """Insert/replace an entry.  Returns the list of evicted keys."""
        if content_size is None:
            content_size = size
        if size > self.capacity:
            self.skipped_oversize += 1
            return []
        old = self._entries.pop(key, None)
        if old is not None:
            self.used -= old[1]
            self.content_used -= old[2]
        self._entries[key] = (value, size, content_size)
        self.used += size
        self.content_used += content_size
        evicted = []
        while self.used > self.capacity:
            k, (_, s, cs) = self._entries.popitem(last=False)
            self.used -= s
            self.content_used -= cs
            evicted.append(k)
        return evicted

    def keys(self):
        return self._entries.keys()


class ContentStore(LruBytes):
    """Packet-granular cache: stores Data keyed by name, budgeted by
    payload + signature bytes."""

    def insert(self, data):
        return self.put(data.name, data, data.wire_size, data.payload_size)

    lookup = LruBytes.get
