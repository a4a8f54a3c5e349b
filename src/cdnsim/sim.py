"""Discrete-event core: clock, event queue and portable seeded RNG."""

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
    """Event loop executing callbacks in (time, sequence) order.

    Times are simulation milliseconds.  The sequence counter is assigned
    at scheduling time, so equal-time events run in scheduling order.
    """

    def __init__(self, trace: bool = False):
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self.trace = [] if trace else None
        self.executed = 0

    def at(self, time: float, fn, *args):
        if not time >= self.now:  # also refuses NaN
            raise SimError(f"cannot schedule at {time} before now={self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, args))

    def after(self, delay: float, fn, *args):
        if delay < 0:
            raise SimError("negative delay")
        self.at(self.now + delay, fn, *args)

    def run(self):
        heap = self._heap
        while heap:
            time, _, fn, args = heapq.heappop(heap)
            self.now = time
            self.executed += 1
            fn(*args)

    def log(self, node: str, kind: str, detail: str = ""):
        """Append one `time<TAB>node<TAB>kind<TAB>detail` trace line.

        Does nothing when tracing is off.  Python evaluates the arguments
        before the call, so a caller that formats `detail` (an f-string,
        a packet repr) must check `self.trace is not None` first; this
        keeps an untraced run free of string work.
        """
        if self.trace is not None:
            self.trace.append(f"{self.now:g}\t{node}\t{kind}\t{detail}")

    def trace_text(self) -> str:
        return "\n".join(self.trace) + "\n" if self.trace else ""
