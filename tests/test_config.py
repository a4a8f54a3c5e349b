import json

import pytest

from cdnsim.cli import main
from cdnsim.scenarios import (ConfigError, config_from_dict, load_config,
                              parse_bytes, parse_duration_ms, parse_loss)

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
    assert cfg_f.strategy == "weighted-best-path"
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
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_validator_rejects_configs_that_hang_or_crash(tmp_path, capsys, case):
    body = REFUSED[case]
    field = case.partition("-")[0]  # an id may add "-<variant>" to the field
    with pytest.raises(ConfigError, match=field):
        config_from_dict(body)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(body))
    assert main(["validate-config", str(path)]) == 2
    assert field in capsys.readouterr().err
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
