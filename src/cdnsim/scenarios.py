"""Scenario configuration: JSON schema, unit parsing, strict validation,
and per-experiment defaults.

A config plus a seed fully determines a run.  Values carrying units may
be written with suffixes: durations as "50ms"/"2s", sizes as
"100MB"/"8800B" (1024-based), loss as "0.08%" or a bare probability.
Unknown keys are rejected with the offending field named.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

MB = 1 << 20
GB = 1 << 30

EXPERIMENTS = ("A", "B", "C", "D", "E", "F")
PLANES = ("ndn", "http", "both")
NODES = ("client", "csc", "int1", "int2", "origin")

EXPERIMENT_SUMMARIES = {
    "A": "content retrieval goodput with and without link loss; loss favors "
         "the NDN plane because retransmissions are answered from the "
         "client-side cache",
    "B": "time to first byte, cold and warm; the HTTP plane pays one TCP "
         "handshake round trip on top of the path delay",
    "C": "intermediate-cache bytes after a mid-transfer upstream switch; "
         "packet-granular caching stores only what each upstream served",
    "D": "byte-range retrieval against a warm partial cache; segment reuse "
         "versus bypass / whole-file ingest proxy modes",
    "E": "upstream killed mid-transfer; hop-by-hop forwarding fails over "
         "while the TCP chain breaks and loses its progress",
    "F": "path-quality weights steer traffic to the better upstream when "
         "the active path degrades; TCP flows stick to the original path",
}


class ConfigError(Exception):
    pass


def parse_duration_ms(value, field_name: str = "duration") -> float:
    if isinstance(value, bool):
        raise ConfigError(f"{field_name}: expected a duration, got {value!r}")
    if isinstance(value, (int, float)):
        result = float(value)
    elif isinstance(value, str):
        text = value.strip()
        try:
            if text.endswith("ms"):
                result = float(text[:-2])
            elif text.endswith("s"):
                result = float(text[:-1]) * 1000.0
            else:
                result = float(text)
        except ValueError:
            raise ConfigError(f"{field_name}: cannot parse duration {value!r}") from None
    else:
        raise ConfigError(f"{field_name}: expected a duration, got {value!r}")
    if not 0 <= result < math.inf:  # refuses NaN too
        raise ConfigError(f"{field_name}: duration must be finite and non-negative")
    return result


def parse_bytes(value, field_name: str = "size") -> int:
    if isinstance(value, bool):
        raise ConfigError(f"{field_name}: expected a size, got {value!r}")
    if isinstance(value, int):
        result = value
    elif isinstance(value, str):
        text = value.strip()
        units = {"GB": GB, "MB": MB, "KB": 1 << 10, "B": 1}
        for suffix, factor in units.items():
            if text.endswith(suffix):
                try:
                    result = int(float(text[: -len(suffix)]) * factor)
                except (ValueError, OverflowError):  # NaN or infinite
                    raise ConfigError(f"{field_name}: cannot parse size {value!r}") from None
                break
        else:
            try:
                result = int(text)
            except ValueError:
                raise ConfigError(f"{field_name}: cannot parse size {value!r}") from None
    else:
        raise ConfigError(f"{field_name}: expected a size, got {value!r}")
    if result < 0:
        raise ConfigError(f"{field_name}: size must be non-negative")
    return result


def parse_loss(value, field_name: str = "loss") -> float:
    if isinstance(value, bool):
        raise ConfigError(f"{field_name}: expected a loss rate, got {value!r}")
    if isinstance(value, (int, float)):
        result = float(value)
    elif isinstance(value, str):
        text = value.strip()
        try:
            if text.endswith("%"):
                result = float(text[:-1]) / 100.0
            else:
                result = float(text)
        except ValueError:
            raise ConfigError(f"{field_name}: cannot parse loss {value!r}") from None
    else:
        raise ConfigError(f"{field_name}: expected a loss rate, got {value!r}")
    if not 0.0 <= result <= 1.0:
        raise ConfigError(f"{field_name}: loss must be a probability in [0, 1]")
    return result


def _parse_int(value, field_name):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field_name}: expected an integer, got {value!r}")
    return value


def _parse_float(value, field_name):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field_name}: expected a number, got {value!r}")
    return float(value)


def _parse_str(value, field_name):
    return str(value)


def _list_of(item_parser):
    def parse(value, field_name):
        if not isinstance(value, list):
            raise ConfigError(f"{field_name}: expected a list, got {value!r}")
        return [item_parser(item, f"{field_name}[{i}]") for i, item in enumerate(value)]
    return parse


def _key(default, parse, check=None):
    """A config key: its default (a callable makes a fresh one per config), its
    JSON parser `parse(value, name)` and its check: value -> error or None."""
    kind = "default_factory" if callable(default) else "default"
    return field(metadata={"parse": parse, "check": check}, **{kind: default})


def _error_if(fault, error):
    """A check giving error, formatted with the value, where fault(value)."""
    return lambda v: error.format(v) if fault(v) else None


def _at_least(low):
    return _error_if(lambda v: v < low, f"must be >= {low}")


def _one_of(choices, error):
    return _error_if(lambda v: v not in choices, error)


_POSITIVE = _error_if(lambda v: v <= 0, "must be positive")


@dataclass
class TopologyConfig:
    """Default layout: client -- csc -- {int1, int2} -- origin."""
    access_delay: float = _key(50.0, parse_duration_ms)
    csc_int1_delay: float = _key(10.0, parse_duration_ms)
    csc_int2_delay: float = _key(10.0, parse_duration_ms)
    int1_origin_delay: float = _key(10.0, parse_duration_ms)
    int2_origin_delay: float = _key(50.0, parse_duration_ms)
    csc_int1_loss: float | None = _key(None, parse_loss)  # None: the upstream loss
    csc_int2_loss: float | None = _key(None, parse_loss)


@dataclass
class ScenarioConfig:
    """Every config key, declared once, in the order `validate` checks them."""
    experiment: str = _key("A", lambda v, n: str(v).upper(),
                           _one_of(EXPERIMENTS, f"must be one of {EXPERIMENTS}"))
    plane: str = _key("both", _parse_str, _one_of(PLANES, f"must be one of {PLANES}"))
    repetitions: int = _key(10, _parse_int, _at_least(1))
    chunk_size: int = _key(8800, parse_bytes, _POSITIVE)
    mss: int = _key(1460, parse_bytes, _POSITIVE)
    window: int = _key(64, _parse_int, _at_least(1))
    max_retries: int = _key(5, _parse_int, _at_least(0))
    pit_lifetime: float = _key(4000.0, parse_duration_ms, _POSITIVE)
    # F's oracle ticks once per interval for the whole fetch.
    strategy_interval: float = _key(100.0, parse_duration_ms,
                                    _error_if(lambda v: v < 1.0, "must be at least 1ms"))
    random_topologies: int = _key(0, _parse_int, _at_least(0))
    range_repeats: int = _key(1, _parse_int, _at_least(1))
    file_sizes: list = _key(lambda: [MB, 10 * MB, 20 * MB, 50 * MB], _list_of(parse_bytes),
                            _error_if(lambda v: not v or min(v) <= 0,
                                      "must be non-empty and positive"))
    ranges: list = _key(lambda: [MB, 5 * MB, 10 * MB, 20 * MB, 50 * MB],
                        _list_of(parse_bytes),
                        _error_if(lambda v: any(r <= 0 for r in v), "must be positive"))
    switch_fraction: float = _key(0.1, _parse_float, _error_if(
        lambda v: not 0.0 <= v <= 1.0, "must be in [0, 1]"))
    cache_nodes: list = _key(lambda: ["csc", "int1", "int2"], _list_of(_parse_str),
                             lambda v: next((f"unknown node {n!r}" for n in v
                                             if n not in NODES), None))
    kill_node: str = _key("int1", _parse_str, _one_of(NODES, "unknown node {!r}"))
    # Parsing is all the checking these get, apart from the cross-field rules.
    base_seed: int = _key(1, _parse_int)
    signature_size: int = _key(32, parse_bytes)
    lossy_access: float = _key(0.0008, parse_loss)
    lossy_upstream: float = _key(0.0001, parse_loss)
    cache_budget: int = _key(2 * GB, parse_bytes)
    topology: TopologyConfig = _key(
        TopologyConfig, lambda v, n: _parse_fields(TopologyConfig(), v, n + "."))
    kill_time: float = _key(3000.0, parse_duration_ms)
    warm_bytes: int = _key(50 * MB, parse_bytes)
    degrade_time: float = _key(2000.0, parse_duration_ms)
    degrade_delay: float = _key(100.0, parse_duration_ms)
    degrade_loss: float = _key(0.01, parse_loss)

    def validate(self):
        for f in dataclasses.fields(self):
            check = f.metadata["check"]
            if check and (error := check(getattr(self, f.name))):
                raise ConfigError(f"{f.name}: {error}")
            for name, fault, error in _CROSS_RULES.get(f.name, ()):
                if fault(self):
                    raise ConfigError(f"{name}: " + error.format(self))
        return self

    @property
    def warmed(self):
        """The node that B (both planes) or D (NDN plane) warms, or None."""
        if self.experiment == "D" and self.plane != "http" and self.warm_bytes > 0:
            return "int1"
        return "csc" if self.experiment == "B" else None


# Rules over several fields, as (field named, fault(cfg), error formatted
# with cfg).  Each runs right after the check of the field it is listed
# under; that order decides which field a config with several faults names.
_CROSS_RULES = {
    "ranges": [  # D warms int1 with file_sizes[0]'s first warm_bytes, then
                 # requests its bytes 0..r-1 in one run per range r.
        ("ranges", lambda c: c.experiment == "D" and not c.ranges, "must not be empty"),
        ("warm_bytes", lambda c: c.experiment == "D" and c.warm_bytes > c.file_sizes[0],
         "must not exceed file_sizes[0]"),
        ("ranges", lambda c: c.experiment == "D"
         and any(r > c.file_sizes[0] for r in c.ranges), "must not exceed file_sizes[0]"),
    ],
    "kill_node": [
        ("cache_nodes", lambda c: c.warmed not in (None, *c.cache_nodes),
         "experiment {0.experiment} warms {0.warmed}, so it must be listed"),
        ("cache_budget", lambda c: c.warmed and c.cache_budget <= 0,
         "experiment {0.experiment} warms {0.warmed}, so it must be positive"),
    ],
}


# Experiment-specific defaults applied before user keys.
EXPERIMENT_DEFAULTS = {
    "A": {},
    "B": {"file_sizes": [8800], "random_topologies": 5, "repetitions": 1},
    "C": {"file_sizes": [100 * MB], "repetitions": 1, "cache_nodes": ["int1", "int2"]},
    "D": {"file_sizes": [100 * MB], "repetitions": 1},
    "E": {"file_sizes": [20 * MB]},
    "F": {"file_sizes": [20 * MB],
          "topology": {"csc_int1_delay": 50.0, "csc_int2_delay": 60.0,
                       "csc_int1_loss": 0.00001, "csc_int2_loss": 0.00001}},
}


def _parse_fields(obj, raw: dict, prefix: str = ""):
    """Set each key of raw on obj, in raw's order, through its parser;
    prefix names the object raw is, if it is a nested one."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{prefix[:-1]}: expected an object, got {raw!r}")
    fields = {f.name: f for f in dataclasses.fields(obj)}
    for key, value in raw.items():
        if key not in fields:
            raise ConfigError(f"{prefix}{key}: unknown field")
        setattr(obj, key, fields[key].metadata["parse"](value, prefix + key))
    return obj


def _merged(defaults: dict, raw: dict) -> dict:
    """raw over defaults, objects merged key by key; defaults' keys come first."""
    merged = dict(defaults)
    for key, value in raw.items():
        base = merged.get(key)
        both = isinstance(base, dict) and isinstance(value, dict)
        merged[key] = _merged(base, value) if both else value
    return merged


def config_from_dict(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if "experiment" not in raw:
        raise ConfigError("experiment: required field missing")
    cfg = _parse_fields(ScenarioConfig(), {"experiment": raw["experiment"]})
    defaults = EXPERIMENT_DEFAULTS.get(cfg.experiment)
    if defaults is not None:  # else validate refuses the experiment first
        _parse_fields(cfg, _merged(defaults, raw))
    return cfg.validate()


def read_config(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from None


def load_config(path: str) -> ScenarioConfig:
    return config_from_dict(read_config(path))
