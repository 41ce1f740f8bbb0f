"""The benchmark's tracer wraps mirank functions by attribute name from
outside the package; every name it patches must still resolve, so that a
rename in ``src/`` fails here rather than in a later traced benchmark run."""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_functions_resolve(tracer):
    for owner, attr, name, _ in tracer.timed_phase_patches() + tracer.setup_patches():
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no function {attr!r}"


def test_counted_properties_resolve(tracer):
    for owner, attr, _ in tracer.counted_properties():
        assert isinstance(owner.__dict__.get(attr), property), f"{owner.__name__}.{attr} is not a property"


def test_advance_entries_takes_the_counted_arguments(tracer):
    """The work counter unpacks seven positional arguments of each call."""
    import mirank.ranker

    inspect.signature(mirank.ranker.advance_entries).bind(*range(7))


def test_traced_beam_counts_every_entry_item_pair(tracer, monkeypatch):
    """A traced beam search counts E*N pairs per step: the tracer reads N as
    the length of advance_entries' seventh argument, the (N, 4H) input
    projection, and E as the number of hidden rows."""
    import mirank.ranker
    from mirank import ModelConfig, init_model
    from mirank.core import make_rng
    from conftest import random_candidates

    entries = []
    advance = mirank.ranker.advance_entries

    def recorded(params, hiddens, *args, **kwargs):
        entries.append(len(hiddens))
        return advance(params, hiddens, *args, **kwargs)

    monkeypatch.setattr(mirank.ranker, "advance_entries", recorded)
    config = ModelConfig(d=3, hidden_sizes=(4,), lstm_hidden=4, attn_size=3, pos_size=2, max_positions=12)
    n = 6
    candidates = random_candidates(make_rng(5), n, config.d)
    with tracer.Tracer(tracer.timed_phase_patches()) as traced:
        mirank.ranker.beam_search(init_model("mirnn_attention", config, seed=0), candidates, 3)
    assert entries == [1, 3, 3, 3, 3, 3]
    assert traced.counts["models.advance_entries.calls"] == n
    assert traced.counts["models.advance_entries.pairs"] == n * sum(entries)


def test_traced_log_scoring_counts_every_forward_pass(tracer, monkeypatch):
    """logged_predictions runs one sequence_forward pass per chunk of equal
    length records, and reaches it through the mirank.nn attribute the tracer
    wraps: a name bound at import would read 0 passes here."""
    import mirank.metrics
    from collections import Counter
    from mirank import ModelConfig, init_model
    from conftest import mixed_length_log

    monkeypatch.setattr(mirank.metrics, "LOG_CHUNK", 2)
    lengths = (9, 4, 12, 6, 9, 15, 4, 12, 7, 9)
    records = mixed_length_log(lengths, d=3)
    config = ModelConfig(d=3, hidden_sizes=(4,), lstm_hidden=4, attn_size=3, pos_size=2, max_positions=16)
    params = init_model("mirnn_attention", config, seed=0)
    with tracer.Tracer(tracer.timed_phase_patches()) as traced:
        mirank.metrics.logged_predictions(params, records, attention_size=5)
    groups = sum(-(-count // 2) for count in Counter(lengths).values())
    assert groups == 7
    assert traced.counts["nn.recurrent.sequence_forward.calls"] == groups


def test_traced_training_counts_every_step(tracer):
    """One epoch of train runs lstm_step_batch once per position of every
    batch and adam_step once per batch; sequence_forward and train look
    both up as module globals at call time, so a name bound at import (a
    default argument, a closure, an alias) would read 0 calls here."""
    import sys
    from collections import Counter
    from mirank import ModelConfig, TrainConfig
    from conftest import mixed_length_log

    train = sys.modules["mirank.nn.train"].train
    lengths = (5, 3, 5, 7, 5, 3, 7, 5)
    records = mixed_length_log(lengths, d=3)
    config = ModelConfig(d=3, hidden_sizes=(4,), lstm_hidden=4, attn_size=3, pos_size=2, max_positions=8)
    with tracer.Tracer(tracer.timed_phase_patches()) as traced:
        train("mirnn_attention", records, config, TrainConfig(epochs=1, sequence_batch_size=3), seed=0)
    batches = {length: -(-count // 3) for length, count in Counter(lengths).items()}
    assert traced.counts["nn.optim.adam_step.calls"] == sum(batches.values()) == 4
    assert traced.counts["nn.lstm.lstm_step_batch.calls"] == sum(length * n for length, n in batches.items()) == 20
    assert traced.counts["nn.lstm.lstm_step_backward.calls"] == 20
