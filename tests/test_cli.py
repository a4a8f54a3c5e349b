import json
import pathlib
import re

import pytest

import cdnsim
from cdnsim import experiments
from cdnsim.cli import main
from cdnsim.experiments import NdnWorld
from test_golden import REDUCED

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def write_config(tmp_path, body):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(body))
    return str(p)


def test_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for exp in "ABCDEF":
        assert out.splitlines()[ord(exp) - ord("A")].startswith(exp)


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_shipped_configs_validate(name, capsys):
    assert main(["validate-config", str(CONFIG_DIR / name)]) == 0
    assert "valid" in capsys.readouterr().out


def test_shipped_configs_cover_all_experiments():
    assert len(list(CONFIG_DIR.glob("*.json"))) == 6


def test_validate_bad_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "A", "bogus_key": 1})
    assert main(["validate-config", path]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_validate_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["validate-config", str(p)]) == 2
    assert "line" in capsys.readouterr().err


def test_run_requires_config_or_experiment(capsys):
    assert main(["run"]) == 2


def test_run_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "A", "file_sizes": ["1MB"],
                                  "repetitions": 2})
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == 0
    records = (out_dir / "records.csv").read_text()
    assert records.startswith("experiment,plane,size_bytes")
    assert len(records.splitlines()) == 1 + 2 * 2 * 2
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "fig_A.dat").exists()
    assert "8 runs, 0 failed" in capsys.readouterr().out


def test_run_overrides_reps_seed_and_plane(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "A", "file_sizes": ["1MB"]})
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--reps", "1", "--seed", "9", "--plane", "ndn"]) == 0
    lines = (out_dir / "records.csv").read_text().splitlines()
    assert len(lines) == 1 + 2
    assert all(line.split(",")[1] == "ndn" for line in lines[1:])


@pytest.mark.parametrize("node", ["client", "csc", "int1", "int2", "origin"])
def test_run_e_completes_whatever_node_dies(tmp_path, capsys, node):
    cfg = write_config(tmp_path, {"experiment": "E", "plane": "both",
                                  "file_sizes": ["1MB"], "repetitions": 1,
                                  "kill_node": node, "kill_time": "120ms"})
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == 0
    lines = (out_dir / "records.csv").read_text().splitlines()
    assert sorted(line.split(",")[1] for line in lines[1:]) == ["http", "ndn"]
    assert "2 runs" in capsys.readouterr().out


def test_run_twice_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "A", "file_sizes": ["1MB"],
                                  "repetitions": 2, "lossy_access": "1%"})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o1")]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o2")]) == 0
    for name in ("records.csv", "summary.csv", "fig_A.dat"):
        assert (tmp_path / "o1" / name).read_bytes() == \
            (tmp_path / "o2" / name).read_bytes()


def test_parallel_jobs_match_sequential(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "A", "file_sizes": ["1MB"],
                                  "repetitions": 3, "lossy_access": "1%"})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "seq")]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "par"),
                 "--jobs", "3"]) == 0
    assert (tmp_path / "seq" / "records.csv").read_bytes() == \
        (tmp_path / "par" / "records.csv").read_bytes()


def test_run_with_trace_flag_writes_trace(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "B"})
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--trace"]) == 0
    lines = (out_dir / "trace.txt").read_text().splitlines()
    assert lines and all(len(line.split("\t")) == 4 for line in lines)


def test_run_trace_traces_its_first_world_without_building_another(tmp_path,
                                                                    monkeypatch):
    """B's 24 records come from 24 worlds with `--trace` too, its trace.txt
    is `cdnsim trace`'s, and `--jobs 2` writes the same directory."""
    built = []
    init = experiments.World.__init__

    def counting(world, *args, **kwargs):
        built.append(type(world).__name__)
        init(world, *args, **kwargs)

    monkeypatch.setattr(experiments.World, "__init__", counting)
    out_dir = tmp_path / "jobs1"
    assert main(["run", "--experiment", "B", "--trace", "--out", str(out_dir)]) == 0
    assert len((out_dir / "records.csv").read_text().splitlines()) == 1 + 24
    assert len(built) == 24
    assert main(["trace", "--experiment", "B", "--out", str(tmp_path / "t.txt")]) == 0
    assert (out_dir / "trace.txt").read_text() == (tmp_path / "t.txt").read_text()
    monkeypatch.undo()
    assert main(["run", "--experiment", "B", "--trace", "--jobs", "2",
                 "--out", str(tmp_path / "jobs2")]) == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert sorted(p.name for p in (tmp_path / "jobs2").iterdir()) == files
    for name in files:
        assert (tmp_path / "jobs2" / name).read_bytes() == (out_dir / name).read_bytes()


def test_run_experiment_flag_without_config(tmp_path):
    assert main(["run", "--experiment", "B",
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "fig_B.dat").exists()


def test_experiment_flag_keeps_the_config_files_other_keys(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "A", "plane": "ndn",
                                  "repetitions": 1, "file_sizes": ["8800B"]})
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--experiment", "B",
                 "--out", str(out_dir)]) == 0
    lines = (out_dir / "records.csv").read_text().splitlines()
    assert len(lines) > 1
    assert all(line.split(",")[:2] == ["B", "ndn"] for line in lines[1:])


def test_trace_writes_tab_separated_events(tmp_path, capsys):
    out = tmp_path / "trace.txt"
    assert main(["trace", "--experiment", "B", "--size", "8800",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines
    assert all(len(line.split("\t")) == 4 for line in lines)
    t0 = [float(line.split("\t")[0]) for line in lines]
    assert t0 == sorted(t0)


def test_trace_runtime_error_exits_1(monkeypatch, capsys):
    def broken_fetch(world, *args):
        raise RuntimeError("fetch broke")

    monkeypatch.setattr(NdnWorld, "fetch", broken_fetch)
    assert main(["trace", "--experiment", "B", "--size", "8800"]) == 1
    assert "error: fetch broke" in capsys.readouterr().err


def trace_fields(tmp_path, experiment):
    """The tab-separated fields of each line of `cdnsim trace` on the
    reduced shipped config of `experiment`."""
    name = f"experiment_{experiment.lower()}.json"
    raw = {**json.loads((CONFIG_DIR / name).read_text()), **REDUCED[name]}
    out = tmp_path / "trace.txt"
    assert main(["trace", "--config", write_config(tmp_path, raw),
                 "--out", str(out)]) == 0
    return [line.split("\t") for line in out.read_text().splitlines()]


def test_trace_replays_the_kill(tmp_path):
    kills = [f for f in trace_fields(tmp_path, "E") if f[2] == "killed"]
    assert [(f[0], f[1]) for f in kills] == [("1000", "int1")]


def test_trace_replays_the_degrade(tmp_path):
    changes = [f for f in trace_fields(tmp_path, "F") if f[2] == "link-change"]
    assert len(changes) == 1


def test_trace_replays_a_range_from_the_warm_cache(tmp_path):
    # D's first spec fetches 1 MB (120 segments) twice, from int1's cache
    # warmed with the file's first 2 MB: the origin is never reached.
    fields = trace_fields(tmp_path, "D")
    assert fields and not any("origin" in "\t".join(f) for f in fields)
    segments = [int(n) for f in fields if "Interest(" in f[3]
                for n in re.findall(r"segment=(\d+)", f[3])]
    assert segments and max(segments) <= 120


def test_trace_replays_the_switch(tmp_path):
    upstreams = {f[3].split()[0] for f in trace_fields(tmp_path, "C")
                 if f[1:3] == ["csc", "tx"] and "Interest(" in f[3]}
    assert upstreams == {"int1", "int2"}


def test_trace_size_is_validated_as_file_sizes(capsys):
    # D's default warm bytes and ranges do not fit an 8800-byte file.
    assert main(["trace", "--experiment", "D", "--size", "8800"]) == 2
    assert "warm_bytes: must not exceed file_sizes[0]" in capsys.readouterr().err


def test_http_run_traces_its_own_plane(tmp_path):
    # The HTTP plane logs only kills and link changes, and B has neither.
    out_dir = tmp_path / "out"
    assert main(["run", "--experiment", "B", "--plane", "http", "--reps", "1",
                 "--out", str(out_dir), "--trace"]) == 0
    assert "Interest" not in (out_dir / "trace.txt").read_text()


@pytest.mark.parametrize("size", ["0", "-5"])
def test_trace_refuses_a_size_below_one_byte(size, capsys):
    assert main(["trace", "--experiment", "A", "--size", size]) == 2
    captured = capsys.readouterr()
    assert "--size" in captured.err and captured.out == ""


def test_bad_reps_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "A"})
    assert main(["run", "--config", cfg, "--reps", "0",
                 "--out", str(tmp_path / "out")]) == 2


def test_version_matches_pyproject():
    # A regex, not tomllib: tomllib is missing on Python 3.10.
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"', text, re.MULTILINE)
    assert match and cdnsim.__version__ == match.group(1)
