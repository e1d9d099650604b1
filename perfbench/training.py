"""The two VGG-13 training workloads: reuse engine against exact engine.

Each run repeats *episodes* until ``seconds`` have been measured.  An
episode builds two identically initialised VGG-13 replicas, one on a
:class:`~repro.core.reuse.ReuseEngine` and one on an
:class:`~repro.core.reuse.ExactCountingEngine`, and trains both on the
same fixed cycle of batches, alternating one reuse step with one exact
step so both sides see the same machine noise.  Because every episode
starts from the same weights and data, its modeled speedup, loss gap
and hit counts must repeat exactly; the run checks that they do.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from repro.accelerator.mercury_sim import MercurySimulator
from repro.core.config import MercuryConfig
from repro.core.reuse import ExactCountingEngine, ReuseEngine
from repro.core.session import ReuseSession
from repro.data.synthetic_images import (ClusteredImageDataset,
                                         ImageDatasetConfig)
from repro.models.vgg import build_vgg13
from repro.nn.layers import conv as conv_module
from repro.training.trainer import Trainer, TrainingConfig

from perfbench.hostref import probe
from perfbench.stats import percentile
from perfbench.tracer import Tracer

BATCH_SIZE = 8
NUM_BATCHES = 16           # distinct batches, cycled in a fixed order
IMAGE_SIZE = 32            # the "paper" dataset scale's image size
NUM_CLASSES = 4
STEPS_PER_EPISODE = NUM_BATCHES
# Steps whose exact-engine loss must equal an engine-less replica's.
ORACLE_STEPS = 4

CONFIGS = {
    # Both adaptations off: every conv and linear layer-phase hashes,
    # classifies and rides on every step.
    "train-reuse-all": MercuryConfig(adaptive_signature_length=False,
                                     adaptive_stoppage=False),
    # The paper's default: signature growth plus §III-D stoppage.
    "train-adaptive": MercuryConfig(),
}


def _seeds(seed: int) -> tuple[int, int]:
    data_seed, model_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(data_seed), int(model_seed) % (2 ** 31)


def make_batches(seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    data_seed, _ = _seeds(seed)
    dataset = ClusteredImageDataset(ImageDatasetConfig(
        num_classes=NUM_CLASSES,
        samples_per_class=NUM_BATCHES * BATCH_SIZE // NUM_CLASSES,
        image_size=IMAGE_SIZE, seed=data_seed))
    return [(dataset.images[i * BATCH_SIZE:(i + 1) * BATCH_SIZE],
             dataset.labels[i * BATCH_SIZE:(i + 1) * BATCH_SIZE])
            for i in range(NUM_BATCHES)]


def make_trainer(seed: int, engine) -> Trainer:
    _, model_seed = _seeds(seed)
    model = build_vgg13(num_classes=NUM_CLASSES, seed=model_seed)
    return Trainer(model, TrainingConfig(batch_size=BATCH_SIZE),
                   engine=engine)


def setup(seed: int, config: MercuryConfig):
    """Data generation plus model, engine and trainer construction."""
    engine = ReuseEngine(config)
    return (make_batches(seed), make_trainer(seed, engine),
            make_trainer(seed, ExactCountingEngine()), engine)


def _trace_patches(tracer: Tracer, trainer: Trainer,
                   engine: ReuseEngine) -> None:
    """Wrap the public calls each layer exposes (reuse side only)."""
    tracer.patch(trainer, "train_step", "train_step", root=True)
    tracer.patch(trainer.optimizer, "step", "nn.optim")
    tracer.patch(conv_module, "im2col", "nn.im2col")
    tracer.patch(conv_module, "col2im", "nn.col2im")
    tracer.patch(engine, "matmul", "engine.matmul")
    tracer.patch(engine, "matmul_groups", "engine.matmul_groups")
    tracer.patch(engine.hasher, "signatures", "rpq.signatures")
    tracer.patch(engine.session, "classify", "session.classify")
    tracer.patch(engine.session, "classify_groups",
                 "session.classify_groups")
    tracer.patch(ReuseSession, "ride", "session.ride")
    tracer.patch(ReuseSession, "ride_groups", "session.ride_groups")


def _episode(seed, config, steps, tracer: Tracer | None):
    start = time.perf_counter()
    batches, reuse, exact, engine = setup(seed, config)
    setup_s = time.perf_counter() - start
    reuse_s, exact_s, gaps, probes = [], [], [], []
    finite = True
    if tracer is not None:
        _trace_patches(tracer, reuse, engine)
    try:
        for step in range(steps):
            inputs, targets = batches[step % len(batches)]
            start = time.perf_counter()
            reuse_loss = reuse.train_step(inputs, targets)
            middle = time.perf_counter()
            exact_loss = exact.train_step(inputs, targets)
            end = time.perf_counter()
            reuse_s.append(middle - start)
            exact_s.append(end - middle)
            finite = finite and math.isfinite(reuse_loss)
            gaps.append(reuse_loss - exact_loss)
            probes.append(probe())
    finally:
        if tracer is not None:
            tracer.restore()
    report = MercurySimulator(config).simulate(engine.stats)
    stats = engine.stats
    vectors = sum(r.total_vectors for r in stats.all_records())
    detected = sum(r.signature_computed_vectors + r.signature_reloaded_vectors
                   for r in stats.all_records())
    outcome = {
        "modeled_speedup": report.speedup,
        "loss_gap": float(np.mean(gaps)),
        "hits": int(stats.total_hits),
        "vectors": int(vectors),
        "detected_vectors": int(detected),
        "disabled_layer_phases": len(engine.disabled_layers()),
        "signature_bits": engine.signature_bits,
        "baseline_cycles": report.baseline_total_cycles,
        "mercury_cycles": report.mercury_total_cycles,
        "signature_cycle_frac": report.signature_fraction,
    }
    return setup_s, reuse_s, exact_s, finite, outcome, probes


def _oracle_check(batches, seed) -> tuple[int, int]:
    """Exact-engine losses equal an engine-less replica's, bit for bit."""
    exact = make_trainer(seed, ExactCountingEngine())
    plain = make_trainer(seed, None)
    failed = 0
    for inputs, targets in batches[:ORACLE_STEPS]:
        if exact.train_step(inputs, targets) != plain.train_step(inputs,
                                                                 targets):
            failed += 1
    return ORACLE_STEPS, failed


def run(workload: str, seed: int, seconds: float, trace: bool,
        steps_per_episode: int = STEPS_PER_EPISODE) -> dict:
    config = CONFIGS[workload]
    attempted, failed = _oracle_check(make_batches(seed), seed)
    checks = {"oracle_losses_equal": failed == 0,
              "reuse_losses_finite": True, "episodes_repeat_exactly": True}

    setup_s, reuse_s, exact_s = [], [], []     # untraced steps
    traced_reuse_s, probes = [], []
    tracer = Tracer() if trace else None
    reference = None
    episodes = 0
    began = time.perf_counter()
    # At least two episodes, so the repeat check always has a pair.
    while episodes < 2 or time.perf_counter() - began < seconds:
        traced = trace and episodes % 2 == 1
        setup_time, r, e, finite, outcome, p = _episode(
            seed, config, steps_per_episode, tracer if traced else None)
        setup_s.append(setup_time)
        probes.extend(p)
        (traced_reuse_s if traced else reuse_s).extend(r)
        if not traced:
            exact_s.extend(e)
        attempted += 2 * steps_per_episode
        if not finite:
            failed += 1
            checks["reuse_losses_finite"] = False
        if reference is None:
            reference = outcome
        elif outcome != reference:
            failed += 1
            checks["episodes_repeat_exactly"] = False
        episodes += 1

    metrics = {
        "reuse_samples_per_s": BATCH_SIZE * len(reuse_s) / sum(reuse_s),
        "exact_samples_per_s": BATCH_SIZE * len(exact_s) / sum(exact_s),
        "reuse_latency_ms_p50": percentile(reuse_s, 50) * 1e3,
        "reuse_latency_ms_tail": percentile(reuse_s, 90) * 1e3,
        "modeled_speedup": reference["modeled_speedup"],
        "setup_s": statistics.median(setup_s),
    }
    samples = {"reuse_steps": len(reuse_s), "exact_steps": len(exact_s),
               "episodes": episodes, "tail_percentile": 90,
               "beyond_tail": sum(1 for v in reuse_s
                                  if v > percentile(reuse_s, 90))}
    layer = {}
    if trace:
        layer = _layer_metrics(tracer, reference, reuse_s, exact_s,
                               traced_reuse_s)
        checks["self_times_sum_to_root"] = layer.pop("_self_sum_ok")
        failed += not checks["self_times_sum_to_root"]
    return {"attempted": attempted, "failed": failed, "checks": checks,
            "metrics": metrics, "per_layer": layer, "samples": samples,
            "probes": probes, "tracer": tracer}


def _layer_metrics(tracer, outcome, reuse_s, exact_s, traced_reuse_s):
    summary = tracer.summary("train_step")
    steps = max(summary["traces"], 1)
    self_s, calls = summary["self_s"], summary["calls"]

    def ms(*names):
        return sum(self_s.get(name, 0.0) for name in names) * 1e3 / steps

    def per_step(*names):
        return sum(calls.get(name, 0) for name in names) / steps

    exact_p50 = percentile(exact_s, 50)
    return {
        "nn.im2col_ms": ms("nn.im2col"),
        "nn.col2im_ms": ms("nn.col2im"),
        "nn.optim_ms": ms("nn.optim"),
        "nn.step_other_ms": ms("train_step"),
        "rpq.signatures_ms": ms("rpq.signatures"),
        "rpq.signature_calls": per_step("rpq.signatures"),
        "session.classify_ms": ms("session.classify",
                                  "session.classify_groups"),
        "session.classify_calls": per_step("session.classify",
                                           "session.classify_groups"),
        "session.ride_ms": ms("session.ride", "session.ride_groups"),
        "session.ride_calls": per_step("session.ride",
                                       "session.ride_groups"),
        "engine.self_ms": ms("engine.matmul", "engine.matmul_groups"),
        "engine.hit_fraction": outcome["hits"] / outcome["vectors"],
        "engine.detection_on_frac": (outcome["detected_vectors"]
                                     / outcome["vectors"]),
        "reuse_over_exact": percentile(reuse_s, 50) / exact_p50,
        "reuse_over_exact.base_ms": exact_p50 * 1e3,
        "loss_gap": outcome["loss_gap"],
        "adapt.disabled_layer_phases": outcome["disabled_layer_phases"],
        "adapt.signature_bits": outcome["signature_bits"],
        "accel.baseline_cycles": outcome["baseline_cycles"],
        "accel.mercury_cycles": outcome["mercury_cycles"],
        "accel.signature_cycle_frac": outcome["signature_cycle_frac"],
        "trace.root_ms": statistics.fmean(summary["root_s"]) * 1e3,
        "trace.overhead_ms": (percentile(traced_reuse_s, 50)
                              - percentile(reuse_s, 50)) * 1e3,
        "_self_sum_ok": summary["max_self_sum_error_s"] < 1e-9,
    }
