"""Golden outputs: sha256 digests of what `cdnsim run` and `cdnsim trace`
write, pinned across commits.

Each shipped config runs at reduced repetitions and sizes so the whole
file takes a few seconds.  A change that alters any number, any line of
a trace, or the order of records fails here; a deliberate model change
must update the digests and say why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cdnsim.cli import main
from cdnsim.experiments import HttpWorld, run_specs
from cdnsim.network import instrument
from cdnsim.scenarios import config_from_dict, load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Shipped config -> keys overridden to keep the run small.  E's kill and
# F's degrade move earlier so they still land mid-transfer.
REDUCED = {
    "experiment_a.json": {"repetitions": 2, "file_sizes": ["1MB", "5MB"]},
    "experiment_b.json": {"repetitions": 1},
    "experiment_c.json": {"file_sizes": ["2MB"]},
    "experiment_d.json": {"file_sizes": ["4MB"], "ranges": ["1MB", "3MB"],
                          "warm_bytes": "2MB", "range_repeats": 2},
    "experiment_e.json": {"repetitions": 2, "file_sizes": ["4MB"],
                          "kill_time": "1s"},
    "experiment_f.json": {"repetitions": 2, "file_sizes": ["4MB"],
                          "degrade_time": "400ms", "strategy_interval": "50ms"},
}

GOLDEN = {
    "experiment_a.json": {
        "fig_A.dat": "6e37e06efbd6d42a3181c865c292430ab4abf277eab4fae506e746d6cbbb45e2",
        "records.csv": "ba1fed1063c17dc22715bb92afe811d979f7c9d57915f0dc8d3ecb47e3f81f62",
        "summary.csv": "2516a436b51607a71b007d8e771f412c1317dd4f6da87ad85091a07a5552e367",
    },
    "experiment_b.json": {
        "fig_B.dat": "7d6b3e155862ffe2d12a004b46cf7c66f2b6e92b73065a3807d7fb89b5c75337",
        "records.csv": "a7806f5e1bb46079b6dca6efe5eab4ba8d83263fc6ed915154284add5b1247ef",
        "summary.csv": "9d00516d421924d8ee811c3e4442b100fde0374c1f88f95b7d966e0eb2c9e460",
    },
    "experiment_c.json": {
        "fig_C.dat": "04fa18d038be6527ef73b1ab931b0bb3a198d484c4d38ef4dc214969f9e6e169",
        "records.csv": "0ebc5b9c5036d3f3f0992f8fd161515510b0e2de3796eb64c79be276bd84fd14",
        "summary.csv": "f1d0eeebda83cc7a932c7d8451c965da4ec5e2b329aa7651d1c8501e29ee5711",
    },
    "experiment_d.json": {
        "fig_D.dat": "e9ef3a98238854f370a6c2d0d121fa6a09e66f31dcb5ad932099245e6a0042db",
        "records.csv": "662972c856e3e747cae80ba3dbbf2bc888ec74e043119dc2132a09bf3e920185",
        "summary.csv": "190ecdd5dd96b64e17bc22330efbbdfcd0043b7cee51017a34a98a1a6034daa8",
    },
    "experiment_e.json": {
        "fig_E.dat": "99213dc8349bed5df7fdc92321eb8261a2c833ed4097724d1a8d68e1944a1b77",
        "records.csv": "c7bf82089e39f0eb35f1b33337ac43c9b41c4da452d46426c3f7402405d8aca9",
        "summary.csv": "3c66edaf7cef930ec63e9a7d480375d772fc007a36811b8c47cab622657f1b54",
    },
    "experiment_f.json": {
        "fig_F.dat": "c442d0121038f519abb688c80687468b7f0ae342c9b51a262324afb5cc943e86",
        "records.csv": "4fac59bebb4dd0a9bc62a8db7bab43ad54e0b55f310032c7404c151f4d905471",
        "summary.csv": "3dbbc4a031d9219200e05f2222aaf78f3de78ec485d79005b19c047c0efa7f7c",
    },
}

# Small lossy NDN runs of the shipped C config: csc's switch under
# retransmission, on both upstream links, with each cache choice.
LOSSY_C = {
    "c-256KB-switch-0.1": {
        "plane": "ndn", "repetitions": 2, "file_sizes": ["256KB"], "switch_fraction": 0.1,
        "cache_nodes": ["int1", "int2"],
        "topology": {"csc_int1_loss": "5%", "csc_int2_loss": "1%"}},
    "c-512KB-switch-0.5": {
        "plane": "ndn", "repetitions": 2, "file_sizes": ["512KB"], "switch_fraction": 0.5,
        "cache_nodes": ["int1"], "topology": {"csc_int1_loss": "2%", "csc_int2_loss": "3%"}},
    "c-1MB-switch-1": {
        "plane": "ndn", "repetitions": 1, "file_sizes": ["1MB"], "switch_fraction": 1,
        "cache_nodes": ["int2"], "topology": {"csc_int1_loss": "1%", "csc_int2_loss": "5%"}},
}

GOLDEN_LOSSY_C = {
    "c-256KB-switch-0.1": {
        "fig_C.dat": "f6ce63b0bd985e0d4f268b7ea2403126b5d6f2d9baa3315991a54a4aaa5d03bb",
        "records.csv": "5d9eadd81dc86082c9246a9ac529e0d6105a66911f07f187984423eacf3c5c55",
        "summary.csv": "4b3d04a0904f52deff32dce63613b364ff1cbb73784bbc018b1f932a88433a14",
    },
    "c-512KB-switch-0.5": {
        "fig_C.dat": "28e375592b437eaea20a69bc9cb594b5003a8ed69d64348d877702b0e77d1dd7",
        "records.csv": "9a6f907e12e4731a3153bf13c70b8cd7b40e09f1b5bd2b724fb9e00ca742262f",
        "summary.csv": "263d6355cae12f87721ab71585b6c80f4401a0a87384ffb7fb5524899e7bbb0a",
    },
    "c-1MB-switch-1": {
        "fig_C.dat": "aaf864056a23f56a698e5f1a36601d283bd8f0c36407226808062758a23eed64",
        "records.csv": "3d66b4d912be85d5a4c6cb0b8879ea71ee772f228f251b167a566ae13e75e04c",
        "summary.csv": "cffd5eb40d5e93d25494a4a30e5e4936eeb48b624ae6aae44cc7cd665b00e9cd",
    },
}

# sha256 of repr(run_specs(cfg)) for each shipped config, at full size.  In
# B, C, D and E every link is lossless, so a spec's seed reaches only NDN
# nonces and no output digest would catch a wrong seed label.
RUN_SPECS_SHA256 = {
    "experiment_a.json": "25aefe4765fa9f310595f121d4b3cf3f2460b1e15c525b21336163d9db5813f5",
    "experiment_b.json": "ee129e62b830b1364d112517abb3e95d2f2d23e20ccea79c37815ae452815a77",
    "experiment_c.json": "3341a5f436f0503adf08900cb6050d8d47887c1999b3edcf59cd27b074245521",
    "experiment_d.json": "0a0c989c34e27590a559eaebec12bbf3dddd788ca7f3df0df8eaa0516eaa4218",
    "experiment_e.json": "22627842f5a65d6490aa07c67000f3667a3899a13c604dfe62e5c6e2496896f2",
    "experiment_f.json": "fa0685a2397455f7d8b829f0c3c232da277f5c4f96bc412780b622165180cf70",
}

NDN_TRACE_LINES = 1368
NDN_TRACE_SHA256 = "097ac57b2bd577c74e0a6a2a64367f09dcf86a4e3956b8edf7714d0f6c4edd48"
HTTP_TRACE_SHA256 = "014e362f5260e8e3be57353739b3ed93c803e41bd8153c276043e900653e8049"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_files(tmp_path, config_name, overrides, jobs=1) -> dict:
    raw = json.loads((CONFIGS / config_name).read_text())
    raw.update(overrides)
    cfg_path = tmp_path / config_name
    cfg_path.write_text(json.dumps(raw))
    out_dir = tmp_path / f"out-jobs{jobs}"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_dir),
                 "--jobs", str(jobs)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def run_outputs(tmp_path, config_name, jobs=1) -> dict:
    files = run_files(tmp_path, config_name, REDUCED[config_name], jobs)
    return {name: sha256(data) for name, data in files.items()}


# The serial run keeps the plain config name as its test id.
@pytest.mark.parametrize("config_name, jobs", [
    pytest.param(name, jobs, id=name if jobs == 1 else f"{name}-jobs{jobs}")
    for name in sorted(REDUCED) for jobs in (1, 2)])
def test_run_outputs_match_golden(tmp_path, config_name, jobs):
    assert run_outputs(tmp_path, config_name, jobs) == GOLDEN[config_name]


@pytest.mark.parametrize("name", sorted(LOSSY_C))
def test_lossy_c_outputs_match_golden(tmp_path, name):
    files = run_files(tmp_path, "experiment_c.json", LOSSY_C[name])
    assert {file: sha256(data) for file, data in files.items()} == GOLDEN_LOSSY_C[name]


@pytest.mark.parametrize("config_name", sorted(RUN_SPECS_SHA256))
def test_run_specs_match_golden(config_name):
    specs = run_specs(load_config(str(CONFIGS / config_name)))
    assert sha256(repr(specs).encode()) == RUN_SPECS_SHA256[config_name]


def test_parallel_run_writes_the_serial_files(tmp_path):
    # C's plot file lists runs in order, so a pool that returned runs out
    # of order would change it.
    overrides = {"file_sizes": ["1MB"], "repetitions": 2}
    serial = run_files(tmp_path, "experiment_c.json", overrides, jobs=1)
    parallel = run_files(tmp_path, "experiment_c.json", overrides, jobs=2)
    assert list(serial) == ["fig_C.dat", "records.csv", "summary.csv"]
    assert parallel == serial


def test_ndn_trace_matches_golden(tmp_path):
    out = tmp_path / "trace.txt"
    assert main(["trace", "--experiment", "A", "--size", "1000000",
                 "--out", str(out)]) == 0
    text = out.read_bytes()
    assert len(text.splitlines()) == NDN_TRACE_LINES
    assert sha256(text) == NDN_TRACE_SHA256


def http_trace() -> str:
    cfg = config_from_dict({"experiment": "E", "file_sizes": ["1MB"]})
    world = HttpWorld(cfg, 7, cfg.file_sizes[0], lb_policy="round_robin")
    lines = instrument(world.net)
    world.net.schedule_link_change(300.0, "csc", "int2", delay=20.0, loss=0.01)
    world.net.schedule_kill(1000.0, "int1")
    world.fetch()
    return "\n".join(lines) + "\n"


def test_http_trace_matches_golden():
    text = http_trace()
    assert "\tkilled\t" in text and "\tlink-change\t" in text
    assert sha256(text.encode()) == HTTP_TRACE_SHA256
