"""The serving workload: SqueezeNet behind the vector-granularity cache.

One asyncio process drives two phases against an
:class:`~repro.serving.server.InferenceServer` built at the serving
sweep's default point (12 px payloads, a pool of 24, Zipfian
popularity, the ``vector_exact`` policy, one shard, batch 8):

1. an **open loop**: independent users arriving as a Poisson process at
   a fixed 200 requests/s, each latency timed from the request's due
   time, so a stall also charges the requests queued behind it;
2. a **saturation** phase: rounds of requests all enqueued at once,
   alternating the reuse server with an identically built server
   without caches (the exact baseline), so both see the same noise.

Every served output is checked against the server's engine-less
per-request oracle within a float64 tolerance fixed in advance.
"""

from __future__ import annotations

import asyncio
import statistics
import time

import numpy as np

from repro.accelerator.mercury_sim import MercurySimulator
from repro.analysis.functional_sweep import derive_seed
from repro.analysis.serving_sweep import (TRACE_STREAM, ServingPoint,
                                          serving_pieces)
from repro.core.config import MercuryConfig
from repro.nn.layers import conv as conv_module
from repro.serving.loadgen import TrafficConfig, generate_trace

from perfbench.hostref import probe
from perfbench.stats import percentile
from perfbench.tracer import Tracer

OPEN_LOOP_RPS = 200.0
MIN_OPEN_LOOP_REQUESTS = 50
# Open-loop requests per segment (five seconds at 200 rps, so each
# segment's p99 has ten requests beyond it) and requests per saturation
# round; the run alternates the two.
SEGMENT_REQUESTS = 1000
SATURATION_REQUESTS = 800
# The exact server is about five times faster; repeating its rounds
# gives both sides a similar share of the run's time.
EXACT_REPEATS = 4
LATENCY_LIMIT_MS = 50.0
# BLAS reorders reductions per batch shape; the measured deviation
# from the per-request oracle is below 1.4e-15 relative.
OUTPUT_RTOL = 1e-12
# Host-speed probes taken between phases (see perfbench.hostref).
PROBES_PER_PAUSE = 3
# A second stream under the trace seed for the saturation rounds.
SATURATION_STREAM = TRACE_STREAM + 100


def setup(seed: int):
    """Pool, models and both servers (vector cache and no cache)."""
    _, pool, _, server = serving_pieces(
        ServingPoint(cache_policy="vector_exact", seed=seed))
    _, _, _, exact_server = serving_pieces(
        ServingPoint(cache_policy="none", seed=seed))
    return pool, server, exact_server


def _trace(seed: int, stream: int, requests: int, pool_size: int):
    return generate_trace(
        TrafficConfig(pattern="zipfian", num_requests=requests,
                      rate_rps=OPEN_LOOP_RPS,
                      seed=derive_seed(seed, stream)), pool_size)


async def _open_loop(server, trace, pool):
    """Send each request at its due time, regardless of replies."""
    count = len(trace)
    payloads = [pool[request.pool_index] for request in trace]
    outputs: list = [None] * count
    done_at = np.full(count, np.nan)
    due_at = np.empty(count)
    late_s = np.empty(count)

    async def one(k: int) -> None:
        try:
            outputs[k] = await server.infer(payloads[k])
        except RuntimeError:
            return                 # the batch failed; counted below
        done_at[k] = time.perf_counter()

    tasks = []
    origin = time.perf_counter() + 0.01 - trace[0].arrival_s
    for k, request in enumerate(trace):
        due_at[k] = origin + request.arrival_s
        delay = due_at[k] - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late_s[k] = max(time.perf_counter() - due_at[k], 0.0)
        tasks.append(asyncio.create_task(one(k)))
    await asyncio.gather(*tasks)
    # A failed request was never answered: its latency is infinite, so
    # it misses the latency limit at every percentile it reaches.
    failed = np.isnan(done_at)
    done_at[failed] = np.inf
    return outputs, payloads, done_at - due_at, late_s, int(failed.sum())


async def _saturate(server, payloads, repeats: int):
    """Enqueue every payload at once, ``repeats`` times in a row."""
    start = time.perf_counter()
    outputs = []
    for _ in range(repeats):
        outputs += await asyncio.gather(*(server.infer(p) for p in payloads),
                                        return_exceptions=True)
    return time.perf_counter() - start, outputs


def _trace_patches(tracer: Tracer, server) -> dict:
    """Wrap the serving layers; returns payload id -> batch span index."""
    batch_of: dict[int, int] = {}
    batcher = server.shards[0].batcher
    tracer.patch(batcher, "process_batch", "batcher.process_batch",
                 root=True)
    traced_batch = batcher.process_batch

    def process_batch(payloads):
        # The span this call is about to open (recorded even if it fails).
        index = len(tracer.spans)
        for payload in payloads:
            batch_of[id(payload)] = index
        return traced_batch(payloads)

    tracer.replace(batcher, "process_batch", process_batch)
    engine = server.vector_engine
    tracer.patch(engine.hasher, "signatures", "rpq.signatures")
    tracer.patch(conv_module, "im2col", "nn.im2col")
    tracer.patch(conv_module, "col2im", "nn.col2im")
    cache_for = engine.cache_for

    def traced_cache_for(layer, vector_length):
        cache = cache_for(layer, vector_length)
        if "serve" not in vars(cache):
            tracer.patch(cache, "serve", "session.serve")
        return cache

    tracer.replace(engine, "cache_for", traced_cache_for)
    return batch_of


async def _drive(seed, seconds, trace, pool, server, exact_server, tracer):
    """Alternate open-loop segments with saturation rounds until
    ``seconds`` have passed, so both phases sample the whole run."""
    open_requests = max(int(OPEN_LOOP_RPS * seconds), MIN_OPEN_LOOP_REQUESTS)
    segment = min(SEGMENT_REQUESTS, open_requests // 2)
    open_trace = _trace(seed, TRACE_STREAM, open_requests, len(pool))
    sat_trace = _trace(seed, SATURATION_STREAM,
                       min(SATURATION_REQUESTS, open_requests), len(pool))
    sat_payloads = [pool[request.pool_index] for request in sat_trace]
    telemetry = server.shards[0].batcher.telemetry
    batch_of = _trace_patches(tracer, server) if trace else {}
    sides = [("reuse", server, False, 1),
             ("exact", exact_server, False, EXACT_REPEATS)]
    if trace:
        sides.append(("traced", server, True, 1))
    data = {"latency_s": [], "segment_p99_s": [], "late_s": [], "failed": 0,
            "served": [],
            "open_payloads": [], "rounds": {side[0]: [] for side in sides},
            "traced_spans": [], "batches_per_round": [], "open_batches": 0,
            "open_rows": 0, "batch_of": batch_of, "setup_s": [], "probes": []}
    await server.start()
    await exact_server.start()
    try:
        began = time.perf_counter()
        offset = 0
        while offset + segment <= len(open_trace) and (
                offset < 2 * segment
                or time.perf_counter() - began < seconds):
            part = open_trace[offset:offset + segment]
            offset += segment
            before = telemetry.batches, telemetry.rows
            outputs, payloads, latency_s, late_s, failed = await _open_loop(
                server, part, pool)
            data["open_batches"] += telemetry.batches - before[0]
            data["open_rows"] += telemetry.rows - before[1]
            data["latency_s"].extend(latency_s)
            data["segment_p99_s"].append(percentile(latency_s, 99))
            data["late_s"].extend(late_s)
            data["failed"] += failed
            data["open_payloads"].extend(payloads)
            data["served"].extend(
                (request.pool_index, output)
                for request, output in zip(part, outputs)
                if output is not None)

            # Set-up is timed once per iteration too (the servers built
            # are discarded), so its median samples the whole run.
            start = time.perf_counter()
            setup(seed)
            data["setup_s"].append(time.perf_counter() - start)
            data["probes"] += [probe() for _ in range(PROBES_PER_PAUSE)]
            for side, target, traced, repeats in sides:
                tracer.enabled = traced
                first_span = len(tracer.spans)
                batches = telemetry.batches
                duration, results = await _saturate(target, sat_payloads,
                                                    repeats)
                data["rounds"][side].append((len(results), duration))
                data["probes"] += [probe() for _ in range(PROBES_PER_PAUSE)]
                if traced:
                    data["traced_spans"].append((first_span,
                                                 len(tracer.spans)))
                    data["batches_per_round"].append(telemetry.batches
                                                     - batches)
                for request, result in zip(sat_trace * repeats, results):
                    if isinstance(result, Exception):
                        data["failed"] += 1
                    else:
                        data["served"].append((request.pool_index, result))
                tracer.enabled = True
    finally:
        await server.stop()
        await exact_server.stop()
    return data


def _throughput(rounds) -> float:
    """Requests per second over all saturation rounds of one side."""
    return (sum(requests for requests, _ in rounds)
            / sum(duration for _, duration in rounds))


def _mismatches(served, oracle) -> int:
    """Served outputs further from the oracle than the fixed tolerance."""
    bad = 0
    for pool_index, output in served:
        reference = oracle[pool_index]
        deviation = np.max(np.abs(np.asarray(output) - reference))
        if not deviation <= OUTPUT_RTOL * np.max(np.abs(reference)):
            bad += 1
    return bad


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    pool, server, exact_server = setup(seed)
    setup_s = time.perf_counter() - start
    tracer = Tracer()
    try:
        run_data = asyncio.run(_drive(seed, seconds, trace, pool, server,
                                      exact_server, tracer))
    finally:
        tracer.restore()
    oracle = server.oracle_outputs(pool)
    mismatched = _mismatches(run_data["served"], oracle)
    rounds = run_data["rounds"]
    attempted = len(run_data["latency_s"]) + sum(
        requests for side in rounds.values() for requests, _ in side)
    failed = run_data["failed"] + mismatched
    checks = {"requests_answered": run_data["failed"] == 0,
              "outputs_match_oracle": mismatched == 0}

    latency_ms = np.asarray(run_data["latency_s"]) * 1e3
    reuse_rps = _throughput(rounds["reuse"])
    exact_rps = _throughput(rounds["exact"])
    stats = server.vector_engine.stats
    report = MercurySimulator(MercuryConfig()).simulate(stats)
    metrics = {
        "reuse_samples_per_s": reuse_rps,
        "exact_samples_per_s": exact_rps,
        "reuse_latency_ms_p50": percentile(latency_ms, 50),
        # A host stall during one segment inflates the whole run's
        # p99; the median over segments keeps it to that segment.
        "reuse_latency_ms_tail": statistics.median(
            run_data["segment_p99_s"]) * 1e3,
        "modeled_speedup": report.speedup,
        "setup_s": statistics.median([setup_s] + run_data["setup_s"]),
    }
    samples = {"open_loop_requests": len(latency_ms),
               "open_loop_segments": len(run_data["segment_p99_s"]),
               "run_p99_ms": percentile(latency_ms, 99),
               "saturation_rounds": len(rounds["reuse"]),
               "tail_percentile": 99,
               "beyond_tail": int(np.sum(
                   latency_ms > metrics["reuse_latency_ms_tail"])),
               "over_latency_limit": int(np.sum(latency_ms
                                                > LATENCY_LIMIT_MS))}
    layer = {}
    if trace:
        layer = _layer_metrics(tracer, run_data, server, report, stats,
                               reuse_rps, exact_rps)
        checks["self_times_sum_to_root"] = layer.pop("_self_sum_ok")
        failed += not checks["self_times_sum_to_root"]
    return {"attempted": attempted, "failed": failed, "checks": checks,
            "metrics": metrics, "per_layer": layer, "samples": samples,
            "probes": run_data["probes"], "tracer": tracer if trace else None}


def _layer_metrics(tracer, data, server, report, stats, reuse_rps,
                   exact_rps):
    spans = tracer.spans
    # Batcher layer: queue wait is latency minus the service time of
    # the batch that answered the request (open loop only).
    batch_of = data["batch_of"]
    open_batches = {batch_of[id(payload)]
                    for payload in data["open_payloads"]}
    service = {index: spans[index][2] - spans[index][1]
               for index in open_batches}
    waits = [latency - service[batch_of[id(payload)]]
             for payload, latency in zip(data["open_payloads"],
                                         data["latency_s"])]
    # Per-layer self times over the traced saturation rounds.
    summary = tracer.summary("batcher.process_batch",
                             within=data["traced_spans"])
    batches = max(summary["traces"], 1)
    self_s, calls = summary["self_s"], summary["calls"]

    def ms(name):
        return self_s.get(name, 0.0) * 1e3 / batches

    vectors = sum(r.total_vectors for r in stats.all_records())
    detected = sum(r.signature_computed_vectors for r in stats.all_records())
    counters = server.vector_engine.counters()
    # Each iteration runs one untraced and one traced round of the same
    # requests; the overhead is the median of their paired difference.
    extra_s = statistics.median(
        traced - untraced for (_, traced), (_, untraced)
        in zip(data["rounds"]["traced"], data["rounds"]["reuse"]))
    per_round = statistics.median(data["batches_per_round"])
    return {
        "nn.im2col_ms": ms("nn.im2col"),
        "nn.col2im_ms": ms("nn.col2im"),
        "nn.forward_ms": ms("batcher.process_batch"),
        "rpq.signatures_ms": ms("rpq.signatures"),
        "rpq.signature_calls": calls.get("rpq.signatures", 0) / batches,
        "session.serve_ms": ms("session.serve"),
        "session.serve_calls": calls.get("session.serve", 0) / batches,
        "engine.hit_fraction": stats.total_hits / vectors,
        "engine.detection_on_frac": detected / vectors,
        "reuse_over_exact": exact_rps / reuse_rps,
        "reuse_over_exact.base_ms": 1e3 / exact_rps,
        "adapt.signature_bits": server.policy.signature_bits,
        "accel.baseline_cycles": report.baseline_total_cycles,
        "accel.mercury_cycles": report.mercury_total_cycles,
        "accel.signature_cycle_frac": report.signature_fraction,
        "batcher.queue_wait_ms_p50": percentile(waits, 50) * 1e3,
        "batcher.queue_wait_ms_p99": percentile(waits, 99) * 1e3,
        "batcher.service_ms_p50": percentile(list(service.values()),
                                             50) * 1e3,
        "batcher.batch_size_mean": data["open_rows"] / data["open_batches"],
        "vector.hit_rate": counters.hit_rate,
        "vector.rejected": counters.rejected,
        "vector.collisions": counters.collisions,
        "loadgen.late_ms_p99": percentile(data["late_s"], 99) * 1e3,
        "trace.root_ms": statistics.fmean(summary["root_s"]) * 1e3,
        "trace.overhead_ms": extra_s * 1e3 / per_round,
        "_self_sum_ok": summary["max_self_sum_error_s"] < 1e-9,
    }
