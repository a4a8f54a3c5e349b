import json
import math
import signal
from dataclasses import asdict, fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cdnsim.cli import main
from cdnsim.experiments import execute, run_specs
from cdnsim.scenarios import (EXPERIMENTS, NODES, PLANES, ConfigError,
                              ScenarioConfig, TopologyConfig, config_from_dict,
                              load_config, parse_bytes, parse_duration_ms,
                              parse_loss)
from test_cli import CONFIG_DIR

MB = 1 << 20


def test_duration_units():
    assert parse_duration_ms(50) == 50.0
    assert parse_duration_ms("50ms") == 50.0
    assert parse_duration_ms("2s") == 2000.0
    assert parse_duration_ms("1.5s") == 1500.0
    assert parse_duration_ms("75") == 75.0


def test_duration_errors_name_the_field():
    with pytest.raises(ConfigError, match="kill_time"):
        parse_duration_ms("soon", "kill_time")
    with pytest.raises(ConfigError, match="kill_time"):
        parse_duration_ms(-5, "kill_time")
    with pytest.raises(ConfigError, match="kill_time"):
        parse_duration_ms(True, "kill_time")


def test_byte_units_are_1024_based():
    assert parse_bytes("1KB") == 1024
    assert parse_bytes("100MB") == 100 * MB
    assert parse_bytes("2GB") == 2 << 30
    assert parse_bytes("8800B") == 8800
    assert parse_bytes("0.5MB") == MB // 2
    assert parse_bytes(1234) == 1234


def test_byte_errors_name_the_field():
    with pytest.raises(ConfigError, match="warm_bytes"):
        parse_bytes("many", "warm_bytes")
    with pytest.raises(ConfigError, match="warm_bytes"):
        parse_bytes(-1, "warm_bytes")


def test_loss_units():
    assert parse_loss("0.08%") == pytest.approx(0.0008)
    assert parse_loss("1%") == pytest.approx(0.01)
    assert parse_loss(0.25) == 0.25
    assert parse_loss("0.5") == 0.5


def test_loss_errors_name_the_field():
    with pytest.raises(ConfigError, match="degrade_loss"):
        parse_loss("often", "degrade_loss")
    with pytest.raises(ConfigError, match="degrade_loss"):
        parse_loss(1.5, "degrade_loss")
    with pytest.raises(ConfigError, match="degrade_loss"):
        parse_loss("150%", "degrade_loss")


def test_minimal_config_gets_experiment_defaults():
    cfg = config_from_dict({"experiment": "C"})
    assert cfg.experiment == "C"
    assert cfg.file_sizes == [100 * MB]
    assert cfg.repetitions == 1
    assert cfg.cache_nodes == ["int1", "int2"]
    cfg_f = config_from_dict({"experiment": "F"})
    assert cfg_f.topology.csc_int1_delay == 50.0
    assert cfg_f.topology.csc_int2_loss == pytest.approx(1e-5)


def test_user_values_override_defaults():
    cfg = config_from_dict({"experiment": "C", "file_sizes": ["1MB"],
                            "repetitions": 3})
    assert cfg.file_sizes == [MB]
    assert cfg.repetitions == 3


def test_topology_merge_keeps_unmentioned_defaults():
    cfg = config_from_dict({"experiment": "F",
                            "topology": {"access_delay": "20ms"}})
    assert cfg.topology.access_delay == 20.0
    assert cfg.topology.csc_int1_delay == 50.0   # from the F defaults


def test_unknown_keys_are_rejected_by_name():
    with pytest.raises(ConfigError, match="loss_acces"):
        config_from_dict({"experiment": "A", "loss_acces": 0.1})
    with pytest.raises(ConfigError, match="topology.middle_delay"):
        config_from_dict({"experiment": "A",
                          "topology": {"middle_delay": 5}})


def test_missing_experiment_is_an_error():
    with pytest.raises(ConfigError, match="experiment"):
        config_from_dict({})
    with pytest.raises(ConfigError, match="experiment"):
        config_from_dict({"experiment": "Z"})


def test_validation_catches_bad_values():
    with pytest.raises(ConfigError, match="repetitions"):
        config_from_dict({"experiment": "A", "repetitions": 0})
    with pytest.raises(ConfigError, match="plane"):
        config_from_dict({"experiment": "A", "plane": "quic"})
    with pytest.raises(ConfigError, match="window"):
        config_from_dict({"experiment": "A", "window": 0})
    with pytest.raises(ConfigError, match="cache_nodes"):
        config_from_dict({"experiment": "A", "cache_nodes": ["edge9"]})
    with pytest.raises(ConfigError, match="kill_node"):
        config_from_dict({"experiment": "E", "kill_node": "nobody"})
    with pytest.raises(ConfigError, match="range_mode"):
        config_from_dict({"experiment": "D", "range_mode": "partial"})
    with pytest.raises(ConfigError, match="strategy"):
        config_from_dict({"experiment": "A", "strategy": "flooding"})
    with pytest.raises(ConfigError, match="file_sizes"):
        config_from_dict({"experiment": "A", "file_sizes": []})


def test_unit_suffixes_in_full_config():
    cfg = config_from_dict({
        "experiment": "A",
        "file_sizes": ["1MB", "10MB"],
        "lossy_access": "0.08%",
        "lossy_upstream": "0.01%",
        "kill_time": "3s",
        "cache_budget": "2GB",
    })
    assert cfg.file_sizes == [MB, 10 * MB]
    assert cfg.lossy_access == pytest.approx(0.0008)
    assert cfg.lossy_upstream == pytest.approx(0.0001)
    assert cfg.kill_time == 3000.0
    assert cfg.cache_budget == 2 << 30


def test_load_config_reports_json_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"experiment": "A",\n  broken\n}')
    with pytest.raises(ConfigError, match=r"line 2"):
        load_config(str(p))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))


def test_load_config_round_trip(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text(json.dumps({"experiment": "E", "file_sizes": ["2MB"]}))
    cfg = load_config(str(p))
    assert cfg.experiment == "E"
    assert cfg.file_sizes == [2 * MB]


# Configs that used to pass validation and then hung, crashed or wrote
# empty output; each must now be refused by the field its id names.
REFUSED = {
    "strategy_interval": {"experiment": "F", "strategy_interval": 0},
    # F's oracle ticks once per interval: this one never reached the end.
    "strategy_interval-tiny": {"experiment": "F", "strategy_interval": "0.000000001ms",
                               "file_sizes": ["64KB"], "repetitions": 1, "plane": "ndn"},
    "warm_bytes": {"experiment": "D", "file_sizes": ["1MB"],
                   "warm_bytes": "2MB"},
    "range_repeats": {"experiment": "D", "range_repeats": 0},
    "ranges": {"experiment": "D", "file_sizes": ["2MB"],
               "ranges": ["1MB", "3MB"], "warm_bytes": "1MB"},
    "pit_lifetime": {"experiment": "A", "pit_lifetime": 0},
    "max_retries": {"experiment": "A", "max_retries": -1},
    "random_topologies": {"experiment": "B", "random_topologies": -1},
    "kill_time": {"experiment": "E", "kill_time": -1},
    "ranges-empty": {"experiment": "D", "ranges": []},
    "cache_nodes-b": {"experiment": "B", "cache_nodes": []},
    "cache_nodes-d": {"experiment": "D", "cache_nodes": ["csc"],
                      "file_sizes": ["2MB"], "ranges": ["1MB"],
                      "warm_bytes": "1MB"},
    "cache_budget-b": {"experiment": "B", "cache_budget": 0},
    # A NaN time compares false with every time in the event heap, so
    # when it runs is undefined; an infinite size crashed the parser.
    "kill_time-nan": {"experiment": "E", "kill_time": "nan"},
    "kill_time-json-NaN": {"experiment": "E", "kill_time": math.nan},
    "pit_lifetime-nan": {"experiment": "A", "pit_lifetime": "nan"},
    "topology.access_delay-inf": {"experiment": "A",
                                  "topology": {"access_delay": "inf"}},
    "file_sizes-inf": {"experiment": "A", "file_sizes": ["infMB"]},
    # An integer too large for a float crashed the parser with exit 1.
    "kill_time-huge": {"experiment": "E", "kill_time": 10**400},
    # One over Python's 4,300-digit limit stopped json.load itself with
    # exit 1.  Given as file text, since json.dumps cannot write it either.
    "kill_time-digits": '{"experiment": "E", "kill_time": 1' + "0" * 5000 + "}",
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_validator_rejects_configs_that_hang_or_crash(tmp_path, capsys, case):
    body = REFUSED[case]
    field = case.partition("-")[0]  # an id may add "-<variant>" to the field
    path = tmp_path / "cfg.json"
    if isinstance(body, str):  # refused by the JSON reader, before any field
        path.write_text(body)
        field = "digits"
    else:
        with pytest.raises(ConfigError, match=field):
            config_from_dict(body)
        path.write_text(json.dumps(body))
    assert main(["validate-config", str(path)]) == 2
    assert field in capsys.readouterr().err
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Every key whose parser turns a JSON number into a float.
FLOAT_KEYS = ["kill_time", "degrade_time", "degrade_delay", "degrade_loss", "pit_lifetime",
              "strategy_interval", "lossy_access", "lossy_upstream", "switch_fraction",
              *(f"topology.{f.name}" for f in fields(TopologyConfig))]


@pytest.mark.parametrize("value", [10**400, -10**400], ids=["huge", "-huge"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_integers_too_large_for_a_float_are_refused(key, value):
    outer, _, inner = key.rpartition(".")
    raw = {"experiment": "E", **({outer: {inner: value}} if outer else {key: value})}
    with pytest.raises(ConfigError, match=f"^{key}: "):
        config_from_dict(raw)


# Keys that no run read: D runs both HTTP range modes and F runs
# weighted-best-path from their run specs, and A's lossless mode is lossless.
REMOVED_KEYS = {
    "range_mode": {"experiment": "D", "range_mode": "full_fetch"},
    "strategy": {"experiment": "F", "strategy": "weighted-best-path"},
    "loss_access": {"experiment": "A", "loss_access": "1%"},
    "loss_upstream": {"experiment": "A", "loss_upstream": "1%"},
}


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_keys_are_refused(tmp_path, capsys, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(REMOVED_KEYS[key]))
    assert main(["validate-config", str(path)]) == 2
    assert f"{key}: unknown field" in capsys.readouterr().err

# --- drawn configs -------------------------------------------------------------
# One strategy per config key, drawing valid raw JSON values, with sizes
# small enough for a run to take milliseconds.  Half the drawn configs then
# get one key replaced by a wrong type or an out-of-range value.
KB = 1 << 10
DELAY = st.one_of(st.integers(0, 200), st.just("10ms"))
LOSS = st.sampled_from([0, 0.0, "0.1%", "1%", 0.05])
TIME = st.one_of(st.integers(0, 2000), st.sampled_from(["1s", "2s"]))
# Shared by file_sizes, ranges and warm_bytes, so that D's ranges and
# warm bytes fall on both sides of file_sizes[0].
SIZE = st.one_of(st.sampled_from([1, 8800, "8KB", 64 * KB, 100_000, "256KB"]),
                 st.integers(1, 256 * KB))

TOPOLOGY_KEYS = {
    "access_delay": DELAY,
    "csc_int1_delay": DELAY,
    "csc_int2_delay": DELAY,
    "int1_origin_delay": DELAY,
    "int2_origin_delay": DELAY,
    "csc_int1_loss": LOSS,
    "csc_int2_loss": LOSS,
}

SCENARIO_KEYS = {
    "experiment": st.sampled_from([*EXPERIMENTS, "d"]),
    "plane": st.sampled_from(PLANES),
    "repetitions": st.sampled_from([1, 2]),
    # 64 B chunks make a cached fetch thousands of segments long.
    "chunk_size": st.sampled_from([64, 1024, "4KB", 8800]),
    "mss": st.sampled_from([536, "1460B"]),
    "window": st.sampled_from([1, 4, 64]),
    "max_retries": st.sampled_from([0, 2, 5]),
    "pit_lifetime": st.sampled_from([100, "1s", 4000]),
    "strategy_interval": st.sampled_from(["10ms", 100, "1s"]),
    "random_topologies": st.integers(0, 2),
    "range_repeats": st.integers(1, 2),
    "file_sizes": st.lists(SIZE, min_size=1, max_size=2),
    "ranges": st.lists(SIZE, max_size=2),
    "switch_fraction": st.sampled_from([0, 0.1, 0.5, 1]),
    "cache_nodes": st.lists(st.sampled_from(NODES), max_size=3, unique=True),
    "kill_node": st.sampled_from(NODES),
    "base_seed": st.integers(0, 1 << 32),
    "signature_size": st.sampled_from([0, 32, 256]),
    "lossy_access": LOSS,
    "lossy_upstream": LOSS,
    "cache_budget": st.sampled_from([0, "64KB", "2GB"]),
    "topology": st.fixed_dictionaries({}, optional=TOPOLOGY_KEYS),
    "kill_time": TIME,
    "warm_bytes": st.one_of(st.just(0), SIZE),
    "degrade_time": TIME,
    "degrade_delay": DELAY,
    "degrade_loss": LOSS,
}

REFUSED_VALUES = {
    "experiment": ["Z", 7], "plane": ["quic"], "repetitions": [0, "1", True],
    "chunk_size": [0, "big"], "mss": [0], "window": [0], "max_retries": [-1],
    "pit_lifetime": [0, "soon"], "strategy_interval": [0, "0.5ms"],
    "random_topologies": [-1], "range_repeats": [0],
    "file_sizes": [[], [0], "1MB"], "ranges": [[0], ["1MB"]],
    "switch_fraction": [1.5, "half"], "cache_nodes": [["edge9"], "csc"],
    "kill_node": ["nobody"], "base_seed": ["seed"], "signature_size": [-1],
    "lossy_access": [1.5, "often"], "cache_budget": ["lots"],
    "topology": ["flat", {"middle_delay": 5}, {"access_delay": -1},
                 {"csc_int1_loss": "often"}],
    "kill_time": [-1, "nan"], "warm_bytes": ["lots"], "degrade_time": [True],
    "degrade_delay": ["soon"], "degrade_loss": [2],
}

# These are always drawn: their shipped defaults are sized for files of
# many MB, up to 10 repetitions and 6 topologies, for minutes per config.
_ALWAYS = ("experiment", "file_sizes", "repetitions", "ranges", "warm_bytes",
           "random_topologies")


@st.composite
def raw_configs(draw):
    keys = [*_ALWAYS, *draw(st.lists(st.sampled_from(
        [k for k in SCENARIO_KEYS if k not in _ALWAYS]), max_size=8, unique=True))]
    raw = {key: draw(SCENARIO_KEYS[key]) for key in keys}
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(REFUSED_VALUES)))
        raw[key] = draw(st.sampled_from(REFUSED_VALUES[key]))
    return raw


class Hang(Exception):
    pass


def _hang(signum, frame):
    raise Hang("a drawn config ran for more than 10 s")


def _expected_bytes(cfg, rec):
    """What a successful record must deliver: size_bytes for each fetch it
    covers.  D's ranges are of file_sizes[0], which no fetch can exceed,
    and NDN serves them in whole segments."""
    if rec.experiment != "D":
        return rec.size_bytes * (2 if rec.experiment == "C" else 1)
    size = rec.size_bytes
    if rec.plane == "ndn":
        size = -(-size // cfg.chunk_size) * cfg.chunk_size
    return min(size, cfg.file_sizes[0])


@settings(derandomize=True, max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=raw_configs())
def test_drawn_configs_are_refused_or_run(raw):
    # The draws follow the schema: a new config key must join them, a
    # removed one must leave them, and they are drawn in declaration order.
    assert list(SCENARIO_KEYS) == [f.name for f in fields(ScenarioConfig)]
    assert list(TOPOLOGY_KEYS) == [f.name for f in fields(TopologyConfig)]
    assert set(REFUSED_VALUES) <= set(SCENARIO_KEYS)
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(10)
    try:
        specs = run_specs(cfg)
        assert specs, "a valid config makes at least one run"
        for spec in specs:
            records, _ = execute(cfg, spec)
            for rec in records:
                if rec.success:
                    assert rec.delivered_bytes == _expected_bytes(cfg, rec), rec
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _written_back(cfg):
    """cfg, resolved, written out as JSON and parsed again."""
    return config_from_dict(json.loads(json.dumps(asdict(cfg))))


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_shipped_configs_reparse_equal(name):
    cfg = load_config(str(CONFIG_DIR / name))
    assert _written_back(cfg) == cfg


def test_null_upstream_loss_is_unset():
    cfg = config_from_dict({"experiment": "F",
                            "topology": {"csc_int1_loss": None, "csc_int2_loss": "1%"}})
    assert cfg.topology.csc_int1_loss is None
    assert cfg.topology.csc_int2_loss == 0.01


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(raw=raw_configs())
def test_drawn_configs_reparse_equal(raw):
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    assert _written_back(cfg) == cfg
