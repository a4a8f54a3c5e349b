"""A corpus of drawn configs whose outputs are pinned across commits.

`draw_corpus()` draws CORPUS_SIZE small configs from a fixed
`random.Random(CORPUS_SEED)`, so the draws do not change with the
installed hypothesis.  They lean toward the paths the six shipped configs
miss: E kills inside csc's PIT-busy span (of int1, csc, client and
origin), F degraded at 0, D ranges in both HTTP modes, lossy A up to 20%,
cache budgets small enough to evict, and random `cache_nodes`.

`tests/corpus.json` holds each config with the sha256 of the
`records.csv`, `summary.csv` and `fig_*.dat` that `cdnsim run` writes for
it; `tests/test_corpus.py` checks them.  A change that alters a digest on
purpose names each config and the reason in CHANGES.md, then rewrites the
file:

    PYTHONPATH=src python tests/corpus.py --update

Without `--update` the script only reports the configs whose outputs
differ from the file, and exits 1 if any do.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from cdnsim.cli import main
from cdnsim.scenarios import NODES

CORPUS_SEED = 20201019
CORPUS_SIZE = 40
PINS = Path(__file__).resolve().parent / "corpus.json"

KB = 1 << 10
MB = 1 << 20
# On the default topology, chunk size and window, one window of Interests
# leaves the client every 140 ms; csc holds its PIT entries from +50 to +90 ms
# of each cycle.
CYCLE_MS = 140
CHUNK = 8800
WINDOW = 64


def _cache_nodes(rng, required=()):
    drawn = rng.sample(NODES, rng.randint(0, 3))
    return sorted(set(drawn) | set(required), key=NODES.index)


def _draw_a(rng, raw):
    raw["file_sizes"] = rng.sample([64 * KB, 256 * KB, "512KB", "1MB"], rng.randint(1, 2))
    raw["lossy_access"] = rng.choice(["0.1%", "1%", "5%", "20%", 0.2])
    raw["lossy_upstream"] = rng.choice([0, "0.01%", "1%", "5%"])
    raw["cache_nodes"] = _cache_nodes(rng)
    raw["cache_budget"] = rng.choice(["64KB", "256KB", "2GB"])


def _draw_b(rng, raw):
    raw["file_sizes"] = [rng.choice([8800, "64KB", 100_000])]
    raw["random_topologies"] = rng.randint(0, 2)
    raw["cache_nodes"] = _cache_nodes(rng, ["csc"])


def _draw_c(rng, raw):
    raw["file_sizes"] = [rng.choice([256 * KB, "512KB", "1MB"])]
    raw["switch_fraction"] = rng.choice([0, 0.1, 0.5, 1])
    raw["cache_nodes"] = _cache_nodes(rng)
    raw["cache_budget"] = rng.choice(["128KB", "2GB"])


def _draw_d(rng, raw):
    size = rng.choice([512 * KB, MB, 2 * MB])
    raw["file_sizes"] = [size]
    raw["ranges"] = sorted(rng.sample([64 * KB, 256 * KB, 500_000, size], rng.randint(1, 3)))
    raw["warm_bytes"] = rng.choice([0, 100_000, size // 2, size])
    raw["range_repeats"] = rng.randint(1, 2)
    raw["cache_nodes"] = _cache_nodes(rng, ["int1"])
    raw["cache_budget"] = rng.choice(["128KB", "1MB", "2GB"])


def _draw_e(rng, raw):
    size = rng.choice([MB, 2 * MB])
    segments = -(-size // CHUNK)
    cycles = -(-segments // WINDOW)
    raw["file_sizes"] = [size]
    path = rng.randrange(3)
    if path == 0:  # int1 dies inside csc's PIT-busy span of some cycle
        raw["kill_node"] = "int1"
        raw["kill_time"] = CYCLE_MS * rng.randrange(cycles) + rng.randint(51, 89)
    else:  # csc, or any node, dies while the HTTP chain moves the body
        raw["kill_node"] = "csc" if path == 1 else rng.choice(NODES)
        raw["kill_time"] = rng.randint(100, 1500)
    raw["cache_nodes"] = _cache_nodes(rng)
    raw["cache_budget"] = rng.choice(["64KB", "2GB"])


def _draw_f(rng, raw):
    raw["file_sizes"] = [rng.choice([256 * KB, MB])]
    raw["degrade_time"] = rng.choice([0, 0, 200, "400ms"])
    raw["degrade_delay"] = rng.choice([20, "100ms"])
    raw["degrade_loss"] = rng.choice([0, "1%", "5%"])
    raw["strategy_interval"] = rng.choice(["50ms", 100])
    raw["cache_nodes"] = _cache_nodes(rng)


DRAW = {"A": _draw_a, "B": _draw_b, "C": _draw_c, "D": _draw_d, "E": _draw_e, "F": _draw_f}


def draw_corpus(seed: int = CORPUS_SEED, n: int = CORPUS_SIZE) -> list:
    rng = random.Random(seed)
    corpus = []
    for _ in range(n):
        exp = rng.choice("AABCDDEEEEEFF")
        raw = {"experiment": exp, "plane": rng.choice(["ndn", "http", "both"]),
               "repetitions": rng.randint(1, 2), "base_seed": rng.randrange(1 << 32)}
        DRAW[exp](rng, raw)
        corpus.append(raw)
    return corpus


def run_outputs(raw: dict, workdir: Path) -> dict:
    """What `cdnsim run` does with raw: its exit status and the sha256 of
    each file it writes, by file name."""
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out_dir = workdir / "out"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    files = sorted(out_dir.iterdir()) if out_dir.exists() else []
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    for p in files:
        p.unlink()
    return {"exit": status, "digests": digests}


def load_pins() -> list:
    return json.loads(PINS.read_text())


def _main(argv) -> int:
    update = argv == ["--update"]
    if argv and not update:
        print("usage: python tests/corpus.py [--update]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        pins = [{"config": raw, **run_outputs(raw, Path(tmp))} for raw in draw_corpus()]
    if update:
        PINS.write_text(json.dumps(pins, indent=1) + "\n")
        print(f"wrote {len(pins)} configs to {PINS}")
        return 0
    old = load_pins() if PINS.exists() else []
    changed = [i for i, pin in enumerate(pins) if i >= len(old) or old[i] != pin]
    for i in changed:
        print(f"config {i} differs: {json.dumps(pins[i]['config'])}")
    print(f"{len(changed)} of {len(pins)} configs differ from {PINS.name}")
    return 1 if changed or len(old) != len(pins) else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
