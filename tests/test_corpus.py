"""The pinned corpus of drawn configs (see corpus.py): the outputs of
`cdnsim run` on each, and the paths that the corpus as a whole reaches."""

from collections import Counter

import pytest

import corpus
from cdnsim import experiments
from cdnsim.cache import LruBytes


def _reach_counting(reach: Counter, monkeypatch):
    """Count, over every run, failover re-forwards, LRU evictions and the
    reasons client fetches end with."""
    put = LruBytes.put

    def counting_put(self, *args, **kwargs):
        evicted = put(self, *args, **kwargs)
        reach["evictions"] += len(evicted)
        return evicted

    class Ndn(experiments.NdnWorld):
        def fetch(self, *args, **kwargs):
            result = super().fetch(*args, **kwargs)
            reach["failover_reforwards"] += sum(
                node.failover_reforwards for node in self.nodes.values())
            reach[result.reason] += 1
            return result

    class Http(experiments.HttpWorld):
        def fetch(self, *args, **kwargs):
            result = super().fetch(*args, **kwargs)
            reach[result.reason] += 1
            return result

    monkeypatch.setattr(LruBytes, "put", counting_put)
    monkeypatch.setattr(experiments, "NdnWorld", Ndn)
    monkeypatch.setattr(experiments, "HttpWorld", Http)


@pytest.fixture(scope="module")
def corpus_run(tmp_path_factory):
    """Each config's outputs, and what the whole corpus reached."""
    reach = Counter()
    workdir = tmp_path_factory.mktemp("corpus")
    with pytest.MonkeyPatch.context() as monkeypatch:
        _reach_counting(reach, monkeypatch)
        outputs = [corpus.run_outputs(pin["config"], workdir) for pin in corpus.load_pins()]
    return outputs, reach


def test_corpus_is_the_drawn_one():
    assert [pin["config"] for pin in corpus.load_pins()] == corpus.draw_corpus()


def test_corpus_outputs_match_pins(corpus_run):
    outputs, _ = corpus_run
    pins = corpus.load_pins()
    differ = [i for i, (pin, got) in enumerate(zip(pins, outputs))
              if {"exit": pin["exit"], "digests": pin["digests"]} != got]
    assert not differ, f"configs {differ} of tests/corpus.json changed their outputs"


def test_corpus_reaches_the_paths_the_shipped_configs_miss(corpus_run):
    _, reach = corpus_run
    assert reach["failover_reforwards"] > 0
    assert reach["evictions"] > 0
    assert reach["upstream-died"] > 0
    assert reach["sender died"] > 0
