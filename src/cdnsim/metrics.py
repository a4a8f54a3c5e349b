"""Per-run metrics records, aggregation and CSV output."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Optional

CSV_COLUMNS = [
    "experiment", "plane", "size_bytes", "mode", "seed", "ttfb_ms",
    "completion_ms", "delivered_bytes", "goodput_Bpms", "origin_touches",
    "cache1_bytes", "cache2_bytes", "success", "max_gap_ms",
]

SUMMARY_COLUMNS = [
    "experiment", "plane", "size_bytes", "mode", "count", "failures",
    "ttfb_mean", "ttfb_median", "ttfb_std",
    "completion_mean", "completion_median", "completion_std",
    "goodput_mean", "goodput_median", "goodput_std",
]


@dataclass
class Fetch:
    """What one client fetch delivered, on either plane.

    `arrivals` lists (time, payload bytes) as data reached the client.
    The counters and per-segment times below it belong to the NDN
    consumer; an HTTP fetch leaves them at zero and empty.
    """
    success: bool = False
    reason: str = ""
    ttfb: Optional[float] = None
    completion: Optional[float] = None
    delivered_bytes: int = 0
    arrivals: list = field(default_factory=list)
    interests_sent: int = 0
    retransmissions: int = 0
    satisfied_time: dict = field(default_factory=dict)   # segment -> time
    last_send_time: dict = field(default_factory=dict)   # segment -> time


@dataclass
class MetricsRecord:
    experiment: str
    plane: str
    size_bytes: int
    mode: str
    seed: int
    ttfb_ms: Optional[float] = None
    completion_ms: Optional[float] = None
    delivered_bytes: int = 0
    origin_touches: int = 0
    cache1_bytes: int = 0
    cache2_bytes: int = 0
    success: bool = True
    max_gap_ms: Optional[float] = None

    @property
    def goodput(self) -> float:
        if not self.success or not self.completion_ms:
            return 0.0
        return self.delivered_bytes / self.completion_ms

    def to_row(self) -> list:
        return [
            self.experiment, self.plane, self.size_bytes, self.mode, self.seed,
            self.ttfb_ms, self.completion_ms, self.delivered_bytes,
            self.goodput, self.origin_touches, self.cache1_bytes,
            self.cache2_bytes, int(self.success), self.max_gap_ms,
        ]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def records_to_csv(records) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(_fmt(v) for v in rec.to_row()))
    return "\n".join(lines) + "\n"


def max_gap(arrival_times, window=None) -> float:
    """Largest difference between consecutive arrival times, optionally
    restricted to arrivals inside [window[0], window[1]]."""
    times = sorted(arrival_times)
    if window is not None:
        lo, hi = window
        times = [t for t in times if lo <= t <= hi]
    if len(times) < 2:
        return 0.0
    return max(b - a for a, b in zip(times, times[1:]))


def summarize(records):
    """Group records and compute mean/median/population-stddev per group.

    Returns (rows, empty_group_warnings).  Groups whose runs all failed
    are omitted and counted as warnings; failed runs never contribute to
    the statistics.  A successful run's infinite or NaN value raises a
    ValueError that names the metric and the group.
    """
    groups: dict = {}
    for rec in records:
        key = (rec.experiment, rec.plane, rec.size_bytes, rec.mode)
        groups.setdefault(key, []).append(rec)
    rows = []
    warnings = 0
    for key in sorted(groups):
        members = groups[key]
        ok = [r for r in members if r.success]
        if not ok:
            warnings += 1
            continue
        row = list(key) + [len(ok), len(members) - len(ok)]
        for name in ("ttfb_ms", "completion_ms", "goodput"):
            values = [v for r in ok if (v := getattr(r, name)) is not None]
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} of group {key} is not finite")
            if values:
                row += [statistics.fmean(values), statistics.median(values),
                        statistics.pstdev(values)]
            else:
                row += [None, None, None]
        rows.append(row)
    return rows, warnings


def summary_to_csv(rows) -> str:
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"
