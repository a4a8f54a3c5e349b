"""Spans and call counts wrapped around cdnsim's layer entry points.

The benchmark patches these functions from its own files; nothing under
`src/` knows about it.  A span records calls and self time: its duration
minus the time covered by spans it encloses.  Spans nest on one stack, so
a function that re-enters itself (the client's `NdnNode.receive` runs
inside `ConsumerPipeline._on_data`, which the client's `NdnNode.receive`
called) has each call's time counted once.  A function imported by name
is patched in every module that looks it up, because patching only its
home module leaves the other modules' references untouched.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# Layer entry points timed as spans: metric prefix -> patch targets.
SPANS = {
    "sim.run": ["cdnsim.sim:Simulator.run"],
    "sim.at": ["cdnsim.sim:Simulator.at"],
    "sim.make_rng": ["cdnsim.network:make_rng", "cdnsim.ndn:make_rng",
                     "cdnsim.experiments:make_rng"],
    "network.transmit": ["cdnsim.network:Network.transmit"],
    "network.deliver": ["cdnsim.network:Network._deliver"],
    "network.should_drop": ["cdnsim.network:Link.should_drop"],
    "names.lpm": ["cdnsim.ndn:longest_prefix_match",
                  "cdnsim.experiments:longest_prefix_match"],
    "content.segment_data": ["cdnsim.content:ContentObject.segment_data"],
    "cache.cs_insert": ["cdnsim.cache:ContentStore.insert"],
    "cache.cs_lookup": ["cdnsim.cache:ContentStore.lookup"],
    "ndn.receive": ["cdnsim.ndn:NdnNode.receive"],
    "ndn.strategy_select": ["cdnsim.ndn:strategy_select",
                            "cdnsim.experiments:strategy_select"],
    "ndn.mark_face_dead": ["cdnsim.ndn:NdnNode.mark_face_dead"],
    "consumer.issue": ["cdnsim.ndn:ConsumerPipeline._issue"],
    "consumer.on_data": ["cdnsim.ndn:ConsumerPipeline._on_data"],
    "tcp.round": ["cdnsim.tcp:TcpTransfer._round"],
    "tcp.arrive": ["cdnsim.tcp:TcpTransfer._arrive"],
    "tcp.ack": ["cdnsim.tcp:TcpTransfer._ack"],
    "httpproxy.serve": ["cdnsim.httpproxy:HttpPlane._serve"],
    "experiments.run": ["cdnsim.experiments:run_experiment"],
    "experiments.world_build": ["cdnsim.experiments:NdnWorld.__init__",
                                "cdnsim.experiments:HttpWorld.__init__"],
    "experiments.warm": ["cdnsim.experiments:NdnWorld.warm",
                         "cdnsim.httpproxy:HttpNode.warm_cache"],
    "scenarios.load": ["cdnsim.scenarios:load_config"],
    # The benchmark's own copy of `cdnsim run`'s output writing; run.py
    # wraps it directly.
    "metrics.output": [],
}

# Entry points whose calls are counted but not timed, because they are
# too small or too frequent for a span to say more than its own cost.
COUNTS = {
    "names.segment": ["cdnsim.names:Name.segment"],
    "names.with_segment": ["cdnsim.names:Name.with_segment"],
    "names.to_str": ["cdnsim.names:Name.__str__"],
    "cache.lru": ["cdnsim.cache:LruBytes.get", "cdnsim.cache:LruBytes.put"],
    "consumer.timeout": ["cdnsim.ndn:ConsumerPipeline._timeout"],
    "tcp.open": ["cdnsim.httpproxy:tcp_open"],
    "tcp.transfer": ["cdnsim.tcp:TcpTransfer.__init__"],
    "httpproxy.fetch_upstream": ["cdnsim.httpproxy:HttpPlane._fetch_upstream"],
    "experiments.fetch": ["cdnsim.experiments:NdnWorld.fetch",
                          "cdnsim.experiments:HttpWorld.fetch"],
}

# Node counters that cdnsim keeps and the benchmark reads from each world.
NODE_COUNTERS = {
    "ndn.pit_aggregated": "pit_aggregated",
    "ndn.dup_nonce_drops": "dup_nonce_drops",
    "ndn.failover_reforwards": "failover_reforwards",
    "ndn.no_route_drops": "no_route_drops",
    "httpproxy.failed_transfers": "failed_transfers",
}


class Tracer:
    """Call counts and self times of wrapped functions, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.loss_drops = 0
        self.worlds = []
        self.transfers = []
        self.fetches = []
        self.missing = []
        self._stack = []
        self._patches = []

    def span(self, name, fn):
        """Wrap fn so each call adds to name's calls and self time."""
        clock, stack = self.clock, self._stack
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [0.0]  # time covered by enclosed spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
        return wrapper

    def count(self, name, fn):
        """Wrap fn so each call adds to name's calls."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _keep_self(self, fn, into):
        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            into.append(obj)
        return wrapper

    def _keep_result(self, fn, into):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            into.append(result)
            return result
        return wrapper

    def _count_true(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            dropped = fn(*args, **kwargs)
            if dropped:
                self.loss_drops += 1
            return dropped
        return wrapper

    def _patch(self, target, wrap):
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(target)
            return
        setattr(owner, attr, wrap(original))
        self._patches.append((owner, attr, original))

    def install(self):
        """Patch every entry point; `missing` lists targets not found."""
        # Harvest hooks go innermost; their small cost counts in the self
        # time of the function they wrap.
        self._patch("cdnsim.network:Link.should_drop", self._count_true)
        for target in SPANS["experiments.world_build"]:
            self._patch(target, lambda fn: self._keep_self(fn, self.worlds))
        self._patch("cdnsim.tcp:TcpTransfer.__init__",
                    lambda fn: self._keep_self(fn, self.transfers))
        for target in COUNTS["experiments.fetch"]:
            self._patch(target, lambda fn: self._keep_result(fn, self.fetches))
        for name, targets in SPANS.items():
            for target in targets:
                self._patch(target, lambda fn, name=name: self.span(name, fn))
        for name, targets in COUNTS.items():
            for target in targets:
                self._patch(target, lambda fn, name=name: self.count(name, fn))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self):
        """Forget what was recorded; patches stay in place."""
        self.calls.clear()
        self.self_s.clear()
        self.loss_drops = 0
        self.worlds.clear()
        self.transfers.clear()
        self.fetches.clear()

    def harvest(self) -> dict:
        """Counts and self times recorded since the last reset, by metric."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in COUNTS:
            out[f"{name}.calls"] = self.calls[name]
        nodes = Counter()
        for world in self.worlds:
            for node in world.nodes.values():
                nodes.update(node.counters)
        for metric, key in NODE_COUNTERS.items():
            out[metric] = nodes[key]
        out["sim.events"] = sum(world.sim.executed for world in self.worlds)
        draws = self.calls["network.should_drop"]
        out["network.loss_drops"] = self.loss_drops
        out["network.loss_ratio"] = _ratio(self.loss_drops, draws)
        out["cache.cs_hit_ratio"] = _ratio(
            nodes["cs_hits"], nodes["cs_hits"] + nodes["cs_misses"])
        out["cache.http_hit_ratio"] = _ratio(
            nodes["cache_hits"], nodes["cache_hits"] + nodes["cache_misses"])
        events = Counter(event for transfer in self.transfers
                         for event, _ in transfer.result.cwnd_trace)
        out["tcp.rto_rounds"] = events["rto"]
        out["tcp.fast_recoveries"] = events["fr"]
        ndn = [r for r in self.fetches if hasattr(r, "retransmissions")]
        out["consumer.retx_ratio"] = _ratio(
            sum(r.retransmissions for r in ndn),
            sum(r.interests_sent for r in ndn))
        return out


def _ratio(part, whole) -> float:
    """part / whole, or 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0
