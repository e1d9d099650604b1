"""Bit-identity of the batched multi-group channel path.

The reuse engine services `conv_channel_group` calls as one multi-group
signature/group-by phase (`ReuseEngine.matmul_groups`).  The oracle,
``tests.helpers.PerCallEngine``, hashes and classifies each group on its
own (the seed behaviour) and multiplies a loop-built ``X'`` in one GEMM.
These tests assert the two are bit-identical: outputs, per-layer
statistics, signature-table state and MCACHE counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MercuryConfig
from repro.core.hitmap import HIT_CODE, MAU_CODE
from repro.core.hitmap_sim import simulate_hitmap, simulate_hitmap_grouped
from repro.core.reuse import ExactCountingEngine, ReuseEngine
from repro.core.rpq import ints_to_words
from repro.models.registry import build_model
from repro.nn.im2col import im2col
from repro.nn.layers.conv import Conv2D
from tests.helpers import PerCallEngine, ScalarOracleEngine


def _assert_simulations_equal(left, right):
    assert list(left.states) == list(right.states)
    np.testing.assert_array_equal(left.representative, right.representative)
    assert (left.hits, left.mau, left.mnu, left.unique_signatures) == \
        (right.hits, right.mau, right.mnu, right.unique_signatures)


class TestSimulateHitmapGrouped:
    def test_matches_per_group_simulation(self, make_trace):
        groups = [make_trace(300, 40, seed=s) for s in range(5)]
        grouped = simulate_hitmap_grouped(np.concatenate(groups),
                                          [len(g) for g in groups],
                                          num_sets=8, ways=4)
        for trace, simulation in zip(groups, grouped):
            _assert_simulations_equal(simulation,
                                      simulate_hitmap(trace, num_sets=8,
                                                      ways=4))

    def test_groups_do_not_share_cache_state(self):
        # The same signature in two groups must MAU twice (fresh cache
        # per group), and a full set in one group must not reject the
        # other group's inserts.
        sigs = np.array([5, 5, 5, 5], dtype=np.int64)
        grouped = simulate_hitmap_grouped(sigs, [2, 2], num_sets=2, ways=1)
        for simulation in grouped:
            assert list(simulation.states) == [MAU_CODE, HIT_CODE]
            assert simulation.representative[1] == 0

    def test_uneven_group_sizes(self, make_trace):
        groups = [make_trace(17, 6, seed=1), make_trace(120, 200, seed=2),
                  make_trace(1, 1, seed=3)]
        grouped = simulate_hitmap_grouped(np.concatenate(groups),
                                          [len(g) for g in groups],
                                          num_sets=4, ways=2)
        for trace, simulation in zip(groups, grouped):
            _assert_simulations_equal(simulation,
                                      simulate_hitmap(trace, num_sets=4,
                                                      ways=2))

    def test_multiword_groups(self):
        rng = np.random.default_rng(0)
        pool = [(1 << 70) + int(v) for v in rng.integers(0, 30, size=30)]
        groups = [np.array([pool[i] for i in
                            rng.integers(0, len(pool), size=80)],
                           dtype=object) for _ in range(3)]
        words = [ints_to_words(g, num_words=2) for g in groups]
        grouped = simulate_hitmap_grouped(np.vstack(words),
                                          [len(w) for w in words],
                                          num_sets=4, ways=2)
        for trace, simulation in zip(words, grouped):
            _assert_simulations_equal(simulation,
                                      simulate_hitmap(trace, num_sets=4,
                                                      ways=2))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simulate_hitmap_grouped(np.arange(4), [1, 1], num_sets=2, ways=1)

    def test_empty(self):
        assert simulate_hitmap_grouped(np.empty(0, dtype=np.int64), [],
                                       num_sets=2, ways=1) == []


def _stats_snapshot(engine):
    rows = []
    for record in engine.stats.all_records():
        rows.append((record.layer, record.phase, record.calls,
                     record.total_vectors, record.hits, record.mau,
                     record.mnu, record.unique_signatures,
                     record.vector_length, record.num_filters,
                     record.signature_computed_vectors,
                     record.signature_reloaded_vectors))
    return rows


def _paired_engines(**config_overrides):
    base = dict(adaptive_signature_length=False, adaptive_stoppage=False,
                conv_channel_group=1, mcache_entries=64, mcache_ways=4)
    base.update(config_overrides)
    oracle = PerCallEngine(MercuryConfig(**base))
    batched = ReuseEngine(MercuryConfig(**base))
    return oracle, batched


@pytest.mark.parametrize("channel_group,in_channels", [(1, 6), (2, 6),
                                                       (4, 6), (3, 7)])
def test_conv_forward_bit_identity(rng, channel_group, in_channels):
    oracle, batched = _paired_engines(conv_channel_group=channel_group)
    x = rng.normal(size=(3, in_channels, 10, 10))
    outputs = {}
    for engine in (oracle, batched):
        conv = Conv2D(in_channels, 5, 3, padding=1, seed=11)
        conv.engine = engine
        outputs[engine] = conv.forward(x)
    np.testing.assert_array_equal(outputs[oracle], outputs[batched])
    assert _stats_snapshot(oracle) == _stats_snapshot(batched)
    assert oracle.session.clears == batched.session.clears
    assert (oracle.mcache.stats.hits, oracle.mcache.stats.mau,
            oracle.mcache.stats.mnu) == (batched.mcache.stats.hits,
                                         batched.mcache.stats.mau,
                                         batched.mcache.stats.mnu)
    # The signature table holds the last group's record either way.
    for engine in (oracle, batched):
        record = engine.signature_table.get(conv.layer_name)
        assert record is not None
    left = oracle.signature_table.get(conv.layer_name)
    right = batched.signature_table.get(conv.layer_name)
    np.testing.assert_array_equal(left.signatures, right.signatures)
    assert left.vector_length == right.vector_length


def test_scalar_oracle_bit_identical_under_batching(rng):
    """Batched groups equal per-call groups classified on the scalar
    line-level MCACHE."""
    _, batched = _paired_engines(conv_channel_group=2)
    oracle = ScalarOracleEngine(batched.config)
    x = rng.normal(size=(2, 6, 8, 8))
    outputs = {}
    for engine in (oracle, batched):
        conv = Conv2D(6, 4, 3, seed=5)
        conv.engine = engine
        outputs[engine] = conv.forward(x)
    np.testing.assert_array_equal(outputs[oracle], outputs[batched])
    assert _stats_snapshot(oracle) == _stats_snapshot(batched)


def test_multiword_signature_bits_bit_identity(rng):
    oracle, batched = _paired_engines(signature_bits=70,
                                      max_signature_bits=80,
                                      conv_channel_group=2)
    x = rng.normal(size=(2, 4, 8, 8))
    outputs = {}
    for engine in (oracle, batched):
        conv = Conv2D(4, 3, 3, seed=7)
        conv.engine = engine
        outputs[engine] = conv.forward(x)
    np.testing.assert_array_equal(outputs[oracle], outputs[batched])
    assert _stats_snapshot(oracle) == _stats_snapshot(batched)


def test_detection_disabled_bit_identity(rng):
    oracle, batched = _paired_engines(reuse_forward=False,
                                      conv_channel_group=2)
    x = rng.normal(size=(2, 6, 8, 8))
    outputs = {}
    for engine in (oracle, batched):
        conv = Conv2D(6, 4, 3, seed=5)
        conv.engine = engine
        outputs[engine] = conv.forward(x)
    np.testing.assert_array_equal(outputs[oracle], outputs[batched])
    assert _stats_snapshot(oracle) == _stats_snapshot(batched)


@pytest.mark.parametrize("channel_group,in_channels", [(1, 6), (3, 7)])
@pytest.mark.parametrize("switch", ["reuse_forward", "stoppage"])
def test_detection_off_is_the_exact_gemm(rng, channel_group, in_channels,
                                         switch):
    """A conv whose detection is off — by config or by §III-D stoppage —
    computes exactly the product of the exact engine and the engine-less
    layer, and records the per-call oracle's statistics."""
    if switch == "reuse_forward":
        overrides = dict(reuse_forward=False)
    else:
        overrides = dict(adaptive_stoppage=True, stoppage_batches=1)
    oracle, batched = _paired_engines(conv_channel_group=channel_group,
                                      **overrides)
    x = rng.normal(size=(3, in_channels, 10, 10))

    def conv_on(engine):
        conv = Conv2D(in_channels, 5, 3, padding=1, seed=11)
        conv.engine = engine
        return conv

    outputs = {}
    for engine in (oracle, batched):
        conv = conv_on(engine)
        if switch == "stoppage":
            # One costly detection-on batch switches the layer off.
            conv.forward(x)
            engine.end_iteration()
            assert not engine.stoppage.is_enabled_for(conv.layer_name,
                                                      "forward")
        outputs[engine] = conv.forward(x)
    exact = conv_on(ExactCountingEngine()).forward(x)
    plain = conv_on(None).forward(x)
    np.testing.assert_array_equal(outputs[batched], exact)
    np.testing.assert_array_equal(outputs[batched], plain)
    np.testing.assert_array_equal(outputs[oracle], exact)
    assert _stats_snapshot(oracle) == _stats_snapshot(batched)
    assert (oracle.stats.get(conv.layer_name, "forward")
            == batched.stats.get(conv.layer_name, "forward"))


def test_engine_without_matmul_groups_gets_one_call_per_group(rng):
    """Engines with a channel group but no ``matmul_groups`` (the serving
    engine) get one ``matmul`` per group, summed from zeros."""

    class RecordingEngine:
        config = MercuryConfig(conv_channel_group=3)

        def __init__(self):
            self.widths = []

        def matmul(self, vectors, weights, *, layer, phase="forward"):
            self.widths.append(vectors.shape[1])
            return vectors @ weights

    engine = RecordingEngine()
    conv = Conv2D(7, 5, 3, padding=1, seed=11)
    conv.engine = engine
    x = rng.normal(size=(2, 7, 6, 6))
    out = conv.forward(x)
    assert engine.widths == [27, 27, 9]
    cols = im2col(x, 3, 3, 1, 1)
    weights = conv.weight.value.reshape(5, -1).T
    expected = np.zeros((len(cols), 5))
    for lo in (0, 27, 54):
        expected += cols[:, lo:lo + 27] @ weights[lo:lo + 27]
    np.testing.assert_array_equal(
        out, expected.reshape(2, 6, 6, 5).transpose(0, 3, 1, 2))


def test_full_model_training_step_bit_identity(rng):
    """A whole squeezenet forward/backward is unchanged by batching."""
    from repro.nn.losses import CrossEntropyLoss

    x = rng.normal(size=(4, 3, 12, 12))
    y = rng.integers(0, 3, size=4)
    results = {}
    for batched in (False, True):
        engine = (ReuseEngine if batched else PerCallEngine)(MercuryConfig(
            conv_channel_group=1,
            adaptive_signature_length=False, adaptive_stoppage=False,
            mcache_entries=256, mcache_ways=8))
        model = build_model("squeezenet", num_classes=3, seed=2)
        model.set_engine(engine)
        loss_fn = CrossEntropyLoss()
        logits = model(x)
        loss = loss_fn(logits, y)
        model.zero_grad()
        model.backward(loss_fn.backward())
        grads = np.concatenate([p.grad.ravel() for p in model.parameters()])
        results[batched] = (logits, float(loss), grads,
                            _stats_snapshot(engine))
    np.testing.assert_array_equal(results[False][0], results[True][0])
    assert results[False][1] == results[True][1]
    np.testing.assert_array_equal(results[False][2], results[True][2])
    assert results[False][3] == results[True][3]


def test_conv_backward_goes_through_matmul(rng, monkeypatch):
    """``matmul_groups`` serves the forward phase only: a grouped conv's
    backward step reaches the engine through one ``matmul`` call."""
    engine = ReuseEngine(MercuryConfig(adaptive_signature_length=False,
                                       adaptive_stoppage=False,
                                       conv_channel_group=1))
    calls = []
    for name in ("matmul", "matmul_groups"):
        def record(*args, _name=name, _original=getattr(engine, name),
                   **kwargs):
            calls.append((_name, kwargs.get("phase")))
            return _original(*args, **kwargs)
        monkeypatch.setattr(engine, name, record)
    conv = Conv2D(4, 3, 3, padding=1, seed=2)
    conv.engine = engine
    out = conv.forward(rng.normal(size=(2, 4, 6, 6)))
    conv.backward(np.ones_like(out))
    assert calls == [("matmul_groups", None), ("matmul", "backward")]
    assert engine.stats.get(conv.layer_name, "backward").calls == 1


def test_flash_clears_count_one_per_fresh_mcache(rng):
    """Three per-call classifications plus one 2-group call probe five
    fresh MCACHEs, so the session reports five flash clears."""
    engine = ReuseEngine(MercuryConfig(adaptive_signature_length=False,
                                       adaptive_stoppage=False))
    for _ in range(3):
        engine.matmul(rng.normal(size=(6, 5)), rng.normal(size=(5, 3)),
                      layer="L")
    engine.matmul_groups(rng.normal(size=(6, 10)), rng.normal(size=(10, 3)),
                         5, layer="G")
    assert engine.session.clears == 5
