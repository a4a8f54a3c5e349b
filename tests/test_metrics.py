import itertools
import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdnsim.experiments import run_experiment
from cdnsim.metrics import (CSV_COLUMNS, SUMMARY_COLUMNS, Fetch, MetricsRecord, max_gap,
                            records_to_csv, summarize, summary_to_csv)
from cdnsim.scenarios import config_from_dict


def rec(**kw):
    base = dict(experiment="A", plane="ndn", size_bytes=100, mode="lossless",
                seed=0)
    base.update(kw)
    return MetricsRecord(**base)


def test_goodput_is_bytes_per_ms():
    r = rec(delivered_bytes=1000, completion_ms=250.0)
    assert r.goodput == 4.0


def test_failed_run_has_zero_goodput():
    r = rec(delivered_bytes=1000, completion_ms=250.0, success=False)
    assert r.goodput == 0.0


def test_successful_run_that_took_no_time_has_no_goodput():
    assert rec(completion_ms=None).goodput is None
    assert rec(delivered_bytes=1000, completion_ms=0.0).goodput is None
    assert rec(completion_ms=0.0, success=False).goodput == 0.0
    fields = records_to_csv([rec(delivered_bytes=1000, completion_ms=0.0)]).splitlines()[1]
    assert fields.split(",")[CSV_COLUMNS.index("goodput_Bpms")] == ""


def test_zero_delay_runs_leave_their_goodput_out_of_the_summary():
    """On zero-delay links a lossless fetch takes no time.  The lossy group's
    goodput is that of its one timed run, and the lossless group has none."""
    zero = {key: "0ms" for key in ("access_delay", "csc_int1_delay", "csc_int2_delay",
                                   "int1_origin_delay", "int2_origin_delay")}
    cfg = config_from_dict({"experiment": "A", "plane": "ndn", "repetitions": 2,
                            "file_sizes": ["64KB"], "lossy_access": "5%",
                            "topology": zero})
    records = run_experiment(cfg).records
    assert [(r.mode, r.completion_ms, r.goodput) for r in records] == [
        ("lossless", 0.0, None), ("lossy", 200.0, 65536 / 200.0),
        ("lossless", 0.0, None), ("lossy", 0.0, None)]
    rows, _ = summarize(records)
    goodput = SUMMARY_COLUMNS.index("goodput_mean")
    assert {row[3]: row[goodput:] for row in rows} == {
        "lossless": [None, None, None], "lossy": [327.68, 327.68, 0.0]}


def test_csv_header_and_row_shape():
    text = records_to_csv([rec(ttfb_ms=1.5, completion_ms=3.0,
                               delivered_bytes=6, max_gap_ms=None)])
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    fields = lines[1].split(",")
    assert len(fields) == len(CSV_COLUMNS)
    assert fields[5] == "1.5"
    assert fields[-1] == ""             # None renders empty
    assert fields[-2] == "1"            # success as 0/1


def test_csv_float_formatting_is_stable():
    r = rec(ttfb_ms=1.0 / 3.0)
    row = records_to_csv([r]).splitlines()[1]
    assert row.split(",")[5] == format(1.0 / 3.0, ".10g")


def test_max_gap():
    assert max_gap([]) == 0.0
    assert max_gap([5.0]) == 0.0
    assert max_gap([1.0, 2.0, 10.0, 11.0]) == 8.0
    assert max_gap([3.0, 1.0, 2.0]) == 1.0       # unsorted input
    assert max_gap([1.0, 2.0, 10.0, 11.0], window=(0.0, 5.0)) == 1.0


def test_arrive_keeps_each_time_once_and_counts_every_byte():
    fetch = Fetch()
    for time, nbytes in [(40.0, 8800), (80.0, 8800), (80.0, 8800), (80.0, 123),
                         (90.0, 0)]:
        fetch.arrive(time, nbytes)
    assert fetch.arrival_times == [40.0, 80.0, 90.0]
    assert fetch.delivered_bytes == 3 * 8800 + 123


TIME = st.floats(0.0, 5000.0)


# Times as a fetch sees them: nondecreasing, often equal, since one event
# delivers many segments.  A repeated time adds only zero gaps, so keeping
# each time once leaves max_gap unchanged, with or without a window.
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(start=TIME,
       steps=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 500.0)), max_size=40),
       window=st.one_of(st.none(), st.tuples(TIME, TIME)))
def test_max_gap_ignores_repeated_times(start, steps, window):
    times = list(itertools.accumulate(steps, initial=start))
    fetch = Fetch()
    for time in times:
        fetch.arrive(time, 1)
    assert fetch.arrival_times == sorted(set(times))
    assert fetch.delivered_bytes == len(times)
    assert max_gap(times, window) == max_gap(fetch.arrival_times, window)


def test_summarize_matches_hand_statistics():
    records = [rec(seed=i, ttfb_ms=t, completion_ms=c, delivered_bytes=100)
               for i, (t, c) in enumerate([(10.0, 50.0), (20.0, 70.0),
                                           (30.0, 90.0)])]
    rows, warnings = summarize(records)
    assert warnings == 0
    assert len(rows) == 1
    row = rows[0]
    assert row[:6] == ["A", "ndn", 100, "lossless", 3, 0]
    ttfbs = [10.0, 20.0, 30.0]
    assert row[6] == statistics.fmean(ttfbs)
    assert row[7] == statistics.median(ttfbs)
    assert row[8] == statistics.pstdev(ttfbs)
    comps = [50.0, 70.0, 90.0]
    assert row[9:12] == [statistics.fmean(comps), statistics.median(comps),
                         statistics.pstdev(comps)]


def test_summarize_excludes_failures_and_warns_on_empty_groups():
    records = [
        rec(seed=0, ttfb_ms=10.0, completion_ms=50.0),
        rec(seed=1, ttfb_ms=99.0, completion_ms=999.0, success=False),
        rec(seed=0, mode="lossy", success=False),
    ]
    rows, warnings = summarize(records)
    assert warnings == 1                 # the all-failed lossy group
    assert len(rows) == 1
    assert rows[0][4] == 1 and rows[0][5] == 1
    assert rows[0][6] == 10.0            # the failure did not contribute


@pytest.mark.parametrize("metric, values", [
    ("goodput", {"completion_ms": 2.2e-308, "delivered_bytes": 100}),  # 100 / 2.2e-308
    ("ttfb_ms", {"ttfb_ms": math.inf, "completion_ms": 50.0}),
    ("completion_ms", {"completion_ms": math.nan}),
])
def test_summarize_names_a_non_finite_metric_and_its_group(metric, values):
    records = [rec(seed=0, ttfb_ms=10.0, completion_ms=50.0), rec(seed=1, **values)]
    with pytest.raises(ValueError, match=rf"{metric} of group \('A', 'ndn', 100, "
                                         r"'lossless'\) is not finite"):
        summarize(records)
    # A failed run's values are never read.
    rows, _ = summarize([records[0], rec(seed=1, success=False, **values)])
    assert rows[0][4:6] == [1, 1]


def test_summarize_groups_and_orders_deterministically():
    records = [rec(plane=p, seed=s, ttfb_ms=1.0, completion_ms=2.0,
                   delivered_bytes=4)
               for p in ("ndn", "http") for s in range(3)]
    rows, _ = summarize(records)
    assert [r[1] for r in rows] == ["http", "ndn"]


def test_summary_csv_round_trip_shape():
    records = [rec(ttfb_ms=1.0, completion_ms=2.0, delivered_bytes=4)]
    rows, _ = summarize(records)
    text = summary_to_csv(rows)
    lines = text.splitlines()
    assert len(lines) == 2
    assert len(lines[1].split(",")) == len(lines[0].split(","))
