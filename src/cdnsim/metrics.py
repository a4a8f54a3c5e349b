"""Per-run metrics records, their aggregation, and the text of every
output file made from records: `records.csv` (`records_to_csv`),
`summary.csv` (`summarize`, `summary_to_csv`) and `fig_<X>.dat`
(`plot_files`)."""

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
    """What one fetch delivered: a client fetch on either plane, an HTTP
    exchange or a TCP transfer.

    `arrival_times` holds each distinct time at which data reached the
    receiver, in order; only `arrive` writes it.  The counters belong to the
    NDN consumer and `cwnd_trace` (event, cwnd after) to TCP.
    """
    success: bool = False
    reason: str = ""
    ttfb: Optional[float] = None
    completion: Optional[float] = None       # from the fetch's start
    delivered_bytes: int = 0
    arrival_times: list = field(default_factory=list)
    interests_sent: int = 0
    retransmissions: int = 0
    cwnd_trace: list = field(default_factory=list)

    def arrive(self, time: float, nbytes: int) -> None:
        """Count nbytes that reached the receiver at time; keep each time once."""
        if not self.arrival_times or self.arrival_times[-1] != time:
            self.arrival_times.append(time)
        self.delivered_bytes += nbytes


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
    def goodput(self) -> Optional[float]:
        """Bytes per ms: 0 for a failed run, None for one that took no time."""
        if not self.success:
            return 0.0
        return self.delivered_bytes / self.completion_ms if self.completion_ms else None

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


def plot_files(experiment: str, records) -> dict:
    """fig_<X>.dat from records in the order given: C lists each run's
    cache bytes, B the median TTFB per group, the others the median
    completion time per group.  Groups are `summarize`'s, in its order; only
    the successful runs' values count, and a group with none is left out."""
    if experiment == "C":
        lines = ["# plane seed cache1_bytes cache2_bytes"]
        lines += [f"{r.plane} {r.seed} {r.cache1_bytes} {r.cache2_bytes}"
                  for r in records]
    else:
        metric, attr = (("ttfb", "ttfb_ms") if experiment == "B"
                        else ("completion", "completion_ms"))
        groups: dict = {}
        for r in records:
            value = getattr(r, attr)
            if r.success and value is not None:
                key = (r.experiment, r.plane, r.size_bytes, r.mode)
                groups.setdefault(key, []).append(value)
        lines = [f"# plane mode size_bytes {metric}_median_ms"]
        for key in sorted(groups):
            _, plane, size, mode = key
            median = statistics.median(groups[key])
            lines.append(f"{plane} {mode} {size} {format(median, '.10g')}")
    return {f"fig_{experiment}.dat": "\n".join(lines) + "\n"}
