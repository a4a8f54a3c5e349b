"""Deterministic simulator comparing NDN content delivery with an HTTP
caching-proxy chain on a small CDN topology."""

from .cache import ContentStore, LruBytes
from .content import ContentObject, Data, Interest
from .experiments import ExperimentOutput, HttpWorld, NdnWorld, run_experiment
from .metrics import MetricsRecord, records_to_csv, summarize, summary_to_csv
from .names import Name, longest_prefix_match
from .ndn import (ConsumerPipeline, FaceQuality, FibEntry, NdnNode,
                  compute_path_weight, strategy_select)
from .network import Link, Network, Node
from .scenarios import (ConfigError, ScenarioConfig, TopologyConfig,
                        config_from_dict, load_config)
from .sim import Simulator, derive_seed, make_rng

__version__ = "0.1.0"

__all__ = [
    "ContentStore", "LruBytes", "ContentObject", "Data", "Interest",
    "ExperimentOutput", "HttpWorld", "NdnWorld", "run_experiment",
    "MetricsRecord", "records_to_csv", "summarize", "summary_to_csv",
    "Name", "longest_prefix_match", "ConsumerPipeline", "FaceQuality",
    "FibEntry", "NdnNode", "compute_path_weight", "strategy_select",
    "Link", "Network", "Node", "ConfigError", "ScenarioConfig",
    "TopologyConfig", "config_from_dict", "load_config",
    "Simulator", "derive_seed", "make_rng",
]
