"""Self-tests of the benchmark: span accounting, coverage of the layer
entry points, the failure rule, and agreement with BENCHMARK.json.

Run from the repository root (about a minute; the coverage test runs one
untraced and one traced pass of every workload):

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run
from tracer import COUNTS, SPANS, Tracer

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads(run.SPEC.read_text())


def _scratch(name):
    """An empty directory under the benchmark's ignored output tree."""
    path = run.OUT / "selftest" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_reentrant_span_counts_each_call_once():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 5.0

    def node(depth):
        clock.now += 1.0
        traced_leaf()
        if depth:
            traced_node(depth - 1)  # re-enters the same span
        clock.now += 2.0

    traced_leaf = tracer.span("leaf", leaf)
    traced_node = tracer.span("node", node)
    traced_node(2)
    assert tracer.calls == {"node": 3, "leaf": 3}
    assert tracer.self_s["node"] == 9.0
    assert tracer.self_s["leaf"] == 15.0
    assert sum(tracer.self_s.values()) == clock.now


def test_span_accounts_time_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def fail():
        clock.now += 1.0
        raise ValueError("x")

    def outer():
        clock.now += 2.0
        with pytest.raises(ValueError):
            traced_fail()

    traced_fail = tracer.span("fail", fail)
    tracer.span("outer", outer)()
    assert tracer.self_s == {"fail": 1.0, "outer": 2.0}


def test_install_finds_every_target_and_uninstall_restores():
    from cdnsim import experiments, ndn, network

    originals = (ndn.NdnNode.receive, ndn.longest_prefix_match,
                 experiments.strategy_select, network.make_rng)
    tracer = Tracer().install()
    try:
        assert tracer.missing == []
        assert ndn.NdnNode.receive is not originals[0]
        assert experiments.strategy_select is not originals[2]
    finally:
        tracer.uninstall()
    assert (ndn.NdnNode.receive, ndn.longest_prefix_match,
            experiments.strategy_select, network.make_rng) == originals


def _record(**kw):
    base = dict(experiment="A", plane="ndn", size_bytes=100, mode="lossy",
                seed=0, success=True, delivered_bytes=100)
    base.update(kw)
    rec = SimpleNamespace(**base)
    rec.to_row = lambda: sorted(base.items())
    return rec


def _pass(records, digest="d"):
    cfg = SimpleNamespace(chunk_size=30, file_sizes=[100])
    return run.Pass(1.0, [1.0], {("A", 0): (cfg, records)}, digest)


def test_checker_applies_the_failure_rule():
    checker = run.Checker()
    checker.check(_pass([_record()]))
    assert checker.correct and checker.attempted == 1
    checker.check(_pass([_record(delivered_bytes=99)]))
    checker.check(_pass([_record(mode="other")]))
    checker.check(_pass(RuntimeError("boom")))
    # A failure the model produces by design is an output, not a failure.
    checker.check(_pass([_record(success=False, delivered_bytes=0)], "e"))
    assert (checker.attempted, checker.failed) == (5, 4)
    assert checker.digest_mismatches == 1 and not checker.correct


def test_ndn_range_request_covers_whole_segments():
    cfg = SimpleNamespace(chunk_size=30, file_sizes=[100])
    assert run.requested_bytes(cfg, _record(experiment="D", size_bytes=31)) == 60
    assert run.requested_bytes(cfg, _record(experiment="D", size_bytes=95)) == 100
    assert run.requested_bytes(
        cfg, _record(experiment="D", plane="http", size_bytes=31)) == 31


def test_benchmark_json_matches_what_the_runs_print():
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert names == ["wall_s", "rep_s_p50", "peak_rss_MB", "setup_s"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert set(SPEC["coverage"]) == set(run.WORKLOADS)
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    emitted = {f"{n}.{k}" for n in SPANS for k in ("calls", "self_s")}
    emitted |= {f"{n}.calls" for n in COUNTS}
    assert emitted <= set(layer)
    assert all(run.layer_unit(n) == u for n, u in layer.items())
    predicted = {m for p in SPEC["predictions"] for m in p["metrics"]}
    assert predicted == set(layer)
    # Every entry point is predicted to be reached by some workload.
    nonzero = {m for c in SPEC["coverage"].values() for m in c["nonzero"]}
    assert {f"{n}.calls" for n in list(SPANS) + list(COUNTS)} <= nonzero


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_pass_coverage_and_self_time(workload):
    out_dir = _scratch(f"trace-{workload}")
    entries = run.make_configs(workload, 1, out_dir)
    checker = run.Checker()
    metrics = run.per_layer(entries, out_dir, 1, checker)
    assert checker.correct and checker.failed == 0
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(metrics)
    assert run.coverage_problems(workload, metrics) == []
    assert run.self_time_problems(metrics) == []


def test_refuses_to_run_without_the_sources():
    # A directory with only BENCHMARK.json and the benchmark's files.
    bare = _scratch("bare")
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable] + BENCHMARK["command"][1:]
        + ["--workload", "short-runs", "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
