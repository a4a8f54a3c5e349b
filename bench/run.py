"""cdnsim benchmark: host time of whole experiment passes, and a traced
run that splits it by layer.

Run from the repository root:

    python3 bench/run.py --workload ndn-bulk --seed 1 --seconds 25 --trace 0

or, for every workload:

    for w in ndn-bulk http-bulk warm-failover short-runs; do
        python3 bench/run.py --workload $w --seed 1 --seconds 25 --trace 0
    done

The workload's shipped configs are copied with only `plane` and
`base_seed` (the `--seed`) changed, written under `.bench_out/`, and
handed to cdnsim through `load_config`.  One pass loads them, calls
`run_experiment(cfg, reps=[r])` once per repetition, serially in this
process, and writes the records, summary and plot files the way
`cdnsim run` does.  Passes repeat until `--seconds` is used up.

`--trace 0` prints the end-to-end metrics: the median pass (`wall_s`),
the median repetition (`rep_s_p50`), peak resident memory, and the median
set-up time of fresh interpreters that import cdnsim and load the
configs.  `--trace 1` runs some passes untraced, then patches the layer
entry points listed in tracer.py and prints per-layer calls, self times
and counters.  Either way every operation (one repetition of one
experiment) is checked: it must not raise, its successful records must
deliver the bytes requested, and its records and the pass's output digest
must equal those of the first pass.  The last line of output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

`bench/spec.json` names the seeds, the conditions printed with each run,
what is not measured, and which metric each layer should move on which
workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".bench_out"
SPEC = BENCH / "spec.json"

# workload -> [(experiment, plane override, repetitions per pass)].
# spec.json says why each workload exists.
WORKLOADS = {
    "ndn-bulk": [("A", "ndn", 1)],
    "http-bulk": [("A", "http", 2)],
    "warm-failover": [("D", None, 1), ("E", None, 3), ("F", None, 3)],
    "short-runs": [("B", None, 50)],
}

SETUP_SAMPLES = 15
# Share of a traced run's seconds spent on untraced passes, which give the
# base for trace.overhead_s and sim.host_us_per_event.
UNTRACED_SHARE = 0.35
# Self times must sum to the traced pass time within this slack; the rest
# is the benchmark's own loop between spans.
SELF_TIME_SLACK = (0.02, 0.01)  # (share of the pass, seconds)

# The child reports its own elapsed time since the parent's spawn, so the
# parent's wake-up after the child exits is not counted.
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[2]); import cdnsim; "
              "[cdnsim.load_config(p) for p in sys.argv[3:]]; "
              "print(time.time() - float(sys.argv[1]))")


@dataclass
class Pass:
    wall: float
    rep_s: list
    ops: dict            # (experiment, rep) -> (cfg, records or exception)
    digest: str
    layers: dict = field(default_factory=dict)


def make_configs(workload: str, seed: int, out_dir: Path):
    """Write the workload's configs; return [(path, repetitions)]."""
    cfg_dir = out_dir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for exp, plane, reps in WORKLOADS[workload]:
        name = f"experiment_{exp.lower()}.json"
        raw = json.loads((CONFIGS / name).read_text())
        if plane is not None:
            raw["plane"] = plane
        raw["base_seed"] = seed
        path = cfg_dir / name
        path.write_text(json.dumps(raw, indent=2) + "\n")
        entries.append((path, reps))
    return entries


def write_outputs(out_dir: Path, cfg, records) -> dict:
    """Write what `cdnsim run` writes for these records; return the texts."""
    from cdnsim import cli, metrics

    records = sorted(records, key=cli._record_key)
    rows, _ = metrics.summarize(records)
    files = {"records.csv": metrics.records_to_csv(records),
             "summary.csv": metrics.summary_to_csv(rows)}
    # The records come from one run_experiment call per repetition, so the
    # plot data is rebuilt from them the way `cdnsim run --jobs` does it.
    files.update(cli._replot(cfg, records))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        with open(out_dir / name, "w") as fh:
            fh.write(text)
    return {f"{cfg.experiment}/{name}": text for name, text in files.items()}


def run_pass(entries, out_dir: Path, write=write_outputs) -> Pass:
    from cdnsim import experiments, scenarios

    clock = time.perf_counter
    start = clock()
    rep_s = defaultdict(float)
    ops = {}
    texts = {}
    for path, reps in entries:
        # Looked up at call time, so the traced run's patches apply.
        cfg = scenarios.load_config(str(path))
        records = []
        for rep in range(reps):
            t0 = clock()
            try:
                got = experiments.run_experiment(cfg, reps=[rep]).records
            except Exception as exc:  # a failed operation, checked later
                got = exc
            rep_s[rep] += clock() - t0
            ops[(cfg.experiment, rep)] = (cfg, got)
            if not isinstance(got, Exception):
                records.extend(got)
        texts.update(write(out_dir / cfg.experiment, cfg, records))
    wall = clock() - start
    digest = hashlib.sha256()
    for name in sorted(texts):
        digest.update(f"{name}\0{texts[name]}\0".encode())
    return Pass(wall, list(rep_s.values()), ops, digest.hexdigest())


def requested_bytes(cfg, rec) -> int:
    """Bytes a successful record must deliver.

    An NDN consumer fetches whole segments, so a D byte range costs the
    segments that cover it.
    """
    if rec.experiment == "D" and rec.plane == "ndn":
        covered = math.ceil(rec.size_bytes / cfg.chunk_size) * cfg.chunk_size
        return min(covered, cfg.file_sizes[0])
    return rec.size_bytes


class Checker:
    """Applies the failure rule to every operation of every pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = None
        self.digest_mismatches = 0
        self._rows = {}

    def check(self, p: Pass):
        for key, (cfg, got) in p.ops.items():
            self.attempted += 1
            if isinstance(got, Exception):
                problem = f"raised {got!r}"
            else:
                rows = [rec.to_row() for rec in got]
                earlier = self._rows.setdefault(key, rows)
                if any(rec.success and rec.delivered_bytes != requested_bytes(cfg, rec)
                       for rec in got):
                    problem = "delivered bytes differ from the request"
                elif rows != earlier:
                    problem = "records differ from an earlier pass"
                else:
                    continue
            self.failed += 1
            self.problems.append(f"{key[0]} rep {key[1]}: {problem}")
        if self.digest is None:
            self.digest = p.digest
        elif p.digest != self.digest:
            self.digest_mismatches += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.digest_mismatches == 0


def measure(entries, out_dir, seconds, checker, *, min_passes=2,
            tracer=None, write=write_outputs):
    """Run passes until the next one would overrun `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        gc.collect()  # start each pass from a collected heap
        p = run_pass(entries, out_dir, write)
        if tracer is not None:
            p.layers = tracer.harvest()
        checker.check(p)
        p.ops.clear()  # keep peak memory independent of the pass count
        passes.append(p)
        used = time.perf_counter() - start
        if len(passes) >= min_passes and used + p.wall > seconds:
            return passes


def measure_setup(entries, samples: int) -> list:
    """Seconds from a fresh interpreter through `import cdnsim` and loading
    the workload's configs, after one unmeasured warm-up."""
    paths = [str(SRC)] + [str(p) for p, _ in entries]
    seconds = []
    for _ in range(samples + 1):
        cmd = [sys.executable, "-c", SETUP_CODE, repr(time.time())] + paths
        done = subprocess.run(cmd, check=True, timeout=60,
                              capture_output=True, text=True)
        seconds.append(float(done.stdout))
    return seconds[1:]


def end_to_end(entries, out_dir, seconds, checker):
    # Set-up samples before and after the passes, so that a slow or fast
    # spell of the machine moves fewer of them.
    setup = measure_setup(entries, SETUP_SAMPLES // 2 + 1)
    passes = measure(entries, out_dir, seconds, checker)
    setup += measure_setup(entries, SETUP_SAMPLES // 2)
    reps = sorted(s for p in passes for s in p.rep_s)
    print(f"passes: {len(passes)}, repetition samples: {len(reps)}, "
          f"set-up samples: {len(setup)}")
    if len(reps) >= 20:
        # The highest percentile with at least ten samples beyond it.
        pct = math.floor(100 * (1 - 10 / len(reps)))
        print(f"rep_s p{pct}: {statistics.quantiles(reps, n=100)[pct - 1]:.6f}")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "rep_s_p50": (statistics.median(reps), "s"),
        "peak_rss_MB": (peak_kb / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(entries, out_dir, seconds, checker):
    from tracer import Tracer

    untraced = measure(entries, out_dir, seconds * UNTRACED_SHARE, checker,
                       min_passes=1)
    tracer = Tracer().install()
    try:
        write = tracer.span("metrics.output", write_outputs)
        traced = measure(entries, out_dir, seconds * (1 - UNTRACED_SHARE),
                         checker, min_passes=1, tracer=tracer, write=write)
    finally:
        tracer.uninstall()
    for target in tracer.missing:
        print(f"warning: entry point {target} not found, not traced")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced")

    # Counts come from the first traced pass; times are medians.
    layers = dict(traced[0].layers)
    for name in layers:
        if name.endswith("_s"):
            layers[name] = statistics.median(p.layers[name] for p in traced)
    if any(p.layers[n] != layers[n] for p in traced for n in layers
           if not n.endswith("_s")):
        print("warning: counts differ between traced passes")
    untraced_wall = statistics.median(p.wall for p in untraced)
    events = layers["sim.events"]
    layers["sim.host_us_per_event"] = 1e6 * untraced_wall / events if events else 0.0
    layers["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                  - untraced_wall)
    layers["trace.unattributed_s"] = statistics.median(
        p.wall - self_time_sum(p.layers) for p in traced)
    return {name: (value, layer_unit(name)) for name, value in layers.items()}


def self_time_sum(layers: dict) -> float:
    return sum(v for n, v in layers.items() if n.endswith(".self_s"))


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_us_per_event"):
        return "us"
    return "count"


def self_time_problems(metrics: dict) -> list:
    """Where self times break the accounting stated in SELF_TIME_SLACK."""
    problems = [f"{n} is negative" for n, (v, _) in metrics.items()
                if n.endswith(".self_s") and v < 0]
    share, seconds = SELF_TIME_SLACK
    spans = self_time_sum({n: v for n, (v, _) in metrics.items()})
    unattributed = metrics["trace.unattributed_s"][0]
    if abs(unattributed) > share * (spans + unattributed) + seconds:
        problems.append(f"self times miss {unattributed:.6f} s of the traced pass")
    return problems


def coverage_problems(workload: str, metrics: dict) -> list:
    """Where the predicted zero / non-zero pattern of spec.json fails."""
    expected = json.loads(SPEC.read_text())["coverage"][workload]
    problems = [f"{n} is 0, predicted > 0" for n in expected["nonzero"]
                if not metrics[n][0] > 0]
    problems += [f"{n} is {metrics[n][0]}, predicted 0" for n in expected["zero"]
                 if metrics[n][0] != 0]
    return problems


def conditions() -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "cdnsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_before": list(os.getloadavg()), "commit": commit,
            "src_sha256": src.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cdnsim" / "__init__.py").is_file() or not CONFIGS.is_dir():
        print(f"bench: cdnsim sources or configs missing under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cdnsim.cli  # noqa: F401  imported before any pass is timed

    cond = conditions()
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    entries = make_configs(args.workload, args.seed, out_dir)
    checker = Checker()
    measure_metrics = per_layer if args.trace else end_to_end
    metrics = measure_metrics(entries, out_dir, args.seconds, checker)
    cond["loadavg_after"] = list(os.getloadavg())
    print("conditions: " + json.dumps(cond))
    print(f"output digest {args.workload} seed {args.seed}: {checker.digest}")
    for problem in checker.problems:
        print(f"failed: {problem}")
    if checker.digest_mismatches:
        print(f"failed: output digest differs in {checker.digest_mismatches} pass(es)")
    if args.trace:
        for problem in coverage_problems(args.workload, metrics):
            print(f"coverage: {problem}")
        for problem in self_time_problems(metrics):
            print(f"self-time: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
