"""Benchmark entry point: runs one workload, checks it, prints its metrics.

:func:`run_benchmark` returns a result with every metric by name and
unit, the correctness checks, the sample counts and a host fingerprint.
:func:`main` is the command line behind ``perfbench/run.py``: it saves
the full result (and, traced, the spans) under ``perfbench/results``,
prints one metric per line and ends with the JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
from pathlib import Path

import numpy as np

from perfbench import serving, training
from perfbench.hostref import speed_factor
from perfbench.report import metric_lines

HERE = Path(__file__).resolve().parent
METRICS = json.loads((HERE / "metrics.json").read_text())

WORKLOADS = {
    "train-reuse-all": training.run,
    "train-adaptive": training.run,
    "serve-zipf-vector": serving.run,
}


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use (None if not found)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def fingerprint() -> dict:
    """The host facts a timing depends on."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  **options) -> dict:
    """Run one workload; the metrics are per-layer ones when ``trace``.

    Times and rates are scaled to the reference host speed
    (:mod:`perfbench.hostref`); ``raw_metrics`` keeps them as measured.
    """
    raw = WORKLOADS[workload](workload, seed, seconds, trace, **options)
    end_to_end = dict(raw["metrics"])
    end_to_end["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    chosen = raw["per_layer"] if trace else end_to_end
    kind = "per_layer" if trace else "end_to_end"
    factor = speed_factor(raw["probes"])
    scale = {"ms": factor, "s": factor, "samples/s": 1.0 / factor}
    metrics, raw_metrics = {}, {}
    failed = raw["failed"]
    unknown = set(chosen) - set(METRICS[kind])
    if unknown:
        raise ValueError(f"metrics missing from metrics.json: {unknown}")
    for name, spec in METRICS[kind].items():
        # A layer the workload does not run reads 0; every end-to-end
        # metric must be measured.
        value = float(chosen.get(name, 0.0) if trace else chosen[name])
        if not math.isfinite(value):
            failed += 1
            raw["checks"][f"{name}_finite"] = False
            value = -1.0
        raw_metrics[name] = value
        metrics[name] = {"value": value * scale.get(spec["unit"], 1.0),
                         "unit": spec["unit"]}
    raw["samples"]["host_speed_factor"] = factor
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": bool(trace), "correct": failed == 0,
            "attempted": int(raw["attempted"]), "failed": int(failed),
            "checks": raw["checks"], "samples": raw["samples"],
            "metrics": metrics, "raw_metrics": raw_metrics,
            "fingerprint": fingerprint(),
            "tracer": raw["tracer"]}


def _save(result: dict, results_dir: Path) -> None:
    stem = (f"{result['workload']}-seed{result['seed']}"
            f"-trace{int(result['trace'])}")
    results_dir.mkdir(parents=True, exist_ok=True)
    tracer = result["tracer"]
    if tracer is not None:
        tracer.write(results_dir / f"{stem}-spans.json")
    saved = {key: value for key, value in result.items() if key != "tracer"}
    (results_dir / f"{stem}.json").write_text(json.dumps(saved, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", type=Path,
                        default=HERE / "results",
                        help="where the full result and the spans go")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    _save(result, args.results_dir)
    for line in metric_lines(result):
        print(line)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}, allow_nan=False))
    return 0
