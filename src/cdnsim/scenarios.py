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
    if result < 0:
        raise ConfigError(f"{field_name}: duration must be non-negative")
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
                except ValueError:
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


@dataclass
class TopologyConfig:
    """Default layout: client -- csc -- {int1, int2} -- origin."""
    access_delay: float = 50.0
    csc_int1_delay: float = 10.0
    csc_int2_delay: float = 10.0
    int1_origin_delay: float = 10.0
    int2_origin_delay: float = 50.0
    csc_int1_loss: float | None = None   # None: use the scenario's upstream loss
    csc_int2_loss: float | None = None


@dataclass
class ScenarioConfig:
    experiment: str = "A"
    plane: str = "both"
    repetitions: int = 10
    base_seed: int = 1
    chunk_size: int = 8800
    signature_size: int = 32
    mss: int = 1460
    window: int = 64
    max_retries: int = 5
    pit_lifetime: float = 4000.0
    strategy_interval: float = 100.0
    strategy: str = "best-route-failover"
    file_sizes: list = field(default_factory=lambda: [MB, 10 * MB, 20 * MB, 50 * MB])
    loss_access: float = 0.0
    loss_upstream: float = 0.0
    lossy_access: float = 0.0008
    lossy_upstream: float = 0.0001
    cache_nodes: list = field(default_factory=lambda: ["csc", "int1", "int2"])
    cache_budget: int = 2 * GB
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    random_topologies: int = 0
    switch_fraction: float = 0.1
    kill_time: float = 3000.0
    kill_node: str = "int1"
    ranges: list = field(default_factory=lambda: [MB, 5 * MB, 10 * MB, 20 * MB, 50 * MB])
    range_mode: str = "bypass"
    range_repeats: int = 1
    warm_bytes: int = 50 * MB
    degrade_time: float = 2000.0
    degrade_delay: float = 100.0
    degrade_loss: float = 0.01

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment: must be one of {EXPERIMENTS}")
        if self.plane not in PLANES:
            raise ConfigError(f"plane: must be one of {PLANES}")
        if self.repetitions < 1:
            raise ConfigError("repetitions: must be >= 1")
        if self.chunk_size <= 0:
            raise ConfigError("chunk_size: must be positive")
        if self.mss <= 0:
            raise ConfigError("mss: must be positive")
        if self.window < 1:
            raise ConfigError("window: must be >= 1")
        if self.max_retries < 0:
            raise ConfigError("max_retries: must be >= 0")
        if self.pit_lifetime <= 0:
            raise ConfigError("pit_lifetime: must be positive")
        if self.strategy_interval <= 0:
            raise ConfigError("strategy_interval: must be positive")
        if self.random_topologies < 0:
            raise ConfigError("random_topologies: must be >= 0")
        if self.range_repeats < 1:
            raise ConfigError("range_repeats: must be >= 1")
        if not self.file_sizes or any(s <= 0 for s in self.file_sizes):
            raise ConfigError("file_sizes: must be non-empty and positive")
        if any(r <= 0 for r in self.ranges):
            raise ConfigError("ranges: must be positive")
        if self.experiment == "D" and not self.ranges:
            # D makes one run per range; none would write empty output.
            raise ConfigError("ranges: must not be empty")
        if self.experiment == "D" and self.warm_bytes > self.file_sizes[0]:
            # D warms int1 with the first warm_bytes of file_sizes[0].
            raise ConfigError("warm_bytes: must not exceed file_sizes[0]")
        if self.experiment == "D" and any(r > self.file_sizes[0]
                                          for r in self.ranges):
            # D requests bytes 0..r-1 of file_sizes[0] for each range r.
            raise ConfigError("ranges: must not exceed file_sizes[0]")
        if not 0.0 <= self.switch_fraction <= 1.0:
            raise ConfigError("switch_fraction: must be in [0, 1]")
        if self.range_mode not in ("bypass", "full_fetch"):
            raise ConfigError("range_mode: must be bypass or full_fetch")
        if self.strategy not in ("best-route-failover", "weighted-best-path"):
            raise ConfigError("strategy: unknown strategy name")
        for n in self.cache_nodes:
            if n not in NODES:
                raise ConfigError(f"cache_nodes: unknown node {n!r}")
        if self.kill_node not in NODES:
            raise ConfigError(f"kill_node: unknown node {self.kill_node!r}")
        # B warms csc on both planes; D warms int1 on the NDN plane.
        warmed = None
        if self.experiment == "B":
            warmed = "csc"
        elif self.experiment == "D" and self.plane != "http" and self.warm_bytes > 0:
            warmed = "int1"
        if warmed is not None and warmed not in self.cache_nodes:
            raise ConfigError(f"cache_nodes: experiment {self.experiment} "
                              f"warms {warmed}, so it must be listed")
        if warmed is not None and self.cache_budget <= 0:
            raise ConfigError(f"cache_budget: experiment {self.experiment} "
                              f"warms {warmed}, so it must be positive")
        return self


# Experiment-specific defaults applied before user keys.
EXPERIMENT_DEFAULTS = {
    "A": {},
    "B": {"file_sizes": [8800], "random_topologies": 5, "repetitions": 1},
    "C": {"file_sizes": [100 * MB], "repetitions": 1,
          "cache_nodes": ["int1", "int2"]},
    "D": {"file_sizes": [100 * MB], "repetitions": 1},
    "E": {"file_sizes": [20 * MB]},
    "F": {"file_sizes": [20 * MB], "strategy": "weighted-best-path",
          "topology": {"csc_int1_delay": 50.0, "csc_int2_delay": 60.0,
                       "csc_int1_loss": 0.00001, "csc_int2_loss": 0.00001}},
}

_TOPOLOGY_PARSERS = {
    "access_delay": parse_duration_ms,
    "csc_int1_delay": parse_duration_ms,
    "csc_int2_delay": parse_duration_ms,
    "int1_origin_delay": parse_duration_ms,
    "int2_origin_delay": parse_duration_ms,
    "csc_int1_loss": parse_loss,
    "csc_int2_loss": parse_loss,
}

_FIELD_PARSERS = {
    "experiment": lambda v, n: str(v).upper(),
    "plane": lambda v, n: str(v),
    "repetitions": lambda v, n: _parse_int(v, n),
    "base_seed": lambda v, n: _parse_int(v, n),
    "chunk_size": parse_bytes,
    "signature_size": parse_bytes,
    "mss": parse_bytes,
    "window": lambda v, n: _parse_int(v, n),
    "max_retries": lambda v, n: _parse_int(v, n),
    "pit_lifetime": parse_duration_ms,
    "strategy_interval": parse_duration_ms,
    "strategy": lambda v, n: str(v),
    "file_sizes": lambda v, n: _parse_list(v, n, parse_bytes),
    "loss_access": parse_loss,
    "loss_upstream": parse_loss,
    "lossy_access": parse_loss,
    "lossy_upstream": parse_loss,
    "cache_nodes": lambda v, n: _parse_list(v, n, lambda x, m: str(x)),
    "cache_budget": parse_bytes,
    "random_topologies": lambda v, n: _parse_int(v, n),
    "switch_fraction": lambda v, n: _parse_float(v, n),
    "kill_time": parse_duration_ms,
    "kill_node": lambda v, n: str(v),
    "ranges": lambda v, n: _parse_list(v, n, parse_bytes),
    "range_mode": lambda v, n: str(v),
    "range_repeats": lambda v, n: _parse_int(v, n),
    "warm_bytes": parse_bytes,
    "degrade_time": parse_duration_ms,
    "degrade_delay": parse_duration_ms,
    "degrade_loss": parse_loss,
}


def _parse_int(value, field_name):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field_name}: expected an integer, got {value!r}")
    return value


def _parse_float(value, field_name):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field_name}: expected a number, got {value!r}")
    return float(value)


def _parse_list(value, field_name, item_parser):
    if not isinstance(value, list):
        raise ConfigError(f"{field_name}: expected a list, got {value!r}")
    return [item_parser(item, f"{field_name}[{i}]") for i, item in enumerate(value)]


def _parse_topology(raw, base: TopologyConfig) -> TopologyConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"topology: expected an object, got {raw!r}")
    topo = dataclasses.replace(base)
    for key, value in raw.items():
        parser = _TOPOLOGY_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"topology.{key}: unknown field")
        setattr(topo, key, parser(value, f"topology.{key}"))
    return topo


def config_from_dict(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if "experiment" not in raw:
        raise ConfigError("experiment: required field missing")
    experiment = str(raw["experiment"]).upper()
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: must be one of {EXPERIMENTS}")

    cfg = ScenarioConfig(experiment=experiment)
    defaults = EXPERIMENT_DEFAULTS[experiment]
    merged = dict(defaults)
    for key, value in raw.items():
        if key == "experiment":
            continue
        if key == "topology" and "topology" in merged:
            base = dict(merged["topology"])
            if not isinstance(value, dict):
                raise ConfigError("topology: expected an object")
            base.update(value)
            merged["topology"] = base
        else:
            merged[key] = value

    for key, value in merged.items():
        if key == "topology":
            cfg.topology = _parse_topology(value, cfg.topology)
            continue
        parser = _FIELD_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"{key}: unknown field")
        setattr(cfg, key, parser(value, key))
    return cfg.validate()


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from None
    return config_from_dict(raw)
