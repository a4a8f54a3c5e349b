"""Discrete-event core: clock, event queue and portable seeded RNG.

Same-time events share one FIFO list.  Most events of an NDN run fall at
the time of the event before them (a window of Interests moves hop by hop
together), so each costs a list append and step, not a heap push and pop.
`Simulator.join` goes further: packets that reach one face at one time
travel as one event, a train, in the order they were sent.
"""

from __future__ import annotations

import hashlib
import heapq
import random


class SimError(Exception):
    pass


def derive_seed(base_seed: int, *labels) -> int:
    """Stable 64-bit child seed from a base seed and a label path.

    Uses SHA-256 so the derivation is identical across platforms and
    Python versions; each (link direction, node, purpose) gets its own
    independent stream.
    """
    text = str(base_seed) + "\x00" + "\x00".join(str(x) for x in labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(base_seed: int, *labels) -> random.Random:
    return random.Random(derive_seed(base_seed, *labels))


class Simulator:
    """Event loop executing callbacks in (time, scheduling order).

    Times are simulation milliseconds.  `_heap` holds each pending time
    once and `_queues` maps it to its events, `(fn, args)` in scheduling
    order.  `executed` is brought up to date when a time's events are
    done.  A callback must not call `run()`; one that raises ends the run.
    """

    def __init__(self):
        self.now = 0.0
        self._heap = []     # distinct pending times
        self._queues = {}   # time -> [(fn, args)] in scheduling order
        self.executed = 0

    def at(self, time: float, fn, *args):
        if not time >= self.now:  # also refuses NaN
            raise SimError(f"cannot schedule at {time} before now={self.now}")
        queue = self._queues.get(time)
        if queue is None:
            self._queues[time] = [(fn, args)]
            heapq.heappush(self._heap, time)
        else:
            queue.append((fn, args))

    def join(self, time: float, fn, key, item):
        """Queue `fn(key, [item])` at `time`, or append `item` to the list of
        the event last queued there if it is `fn` on `key` and `time` has not
        begun (a running event may have read its list)."""
        queue = self._queues.get(time)
        if queue is not None and time > self.now:
            last_fn, args = queue[-1]
            if last_fn == fn and args[0] is key:
                args[1].append(item)
                return
        self.at(time, fn, key, [item])

    def after(self, delay: float, fn, *args):
        if delay < 0:
            raise SimError("negative delay")
        self.at(self.now + delay, fn, *args)

    def run(self):
        heap, queues = self._heap, self._queues
        while heap:
            time = heap[0]
            self.now = time
            queue = queues[time]
            # A list iterator also reaches what a callback appends to the
            # list, which is every event it schedules at `now`.
            for fn, args in queue:
                fn(*args)
            self.executed += len(queue)
            heapq.heappop(heap)
            del queues[time]
