"""One benchmark process, started fresh by ``perfbench/run.py``.

Roles:

* ``prep``: build the compiled kernels and read the artifact files once.
* ``setup``: a cold set-up only; reports its set-up time and digest.
* ``measure``: a cold set-up, then the measured phase and output checks.
* ``trace``: set-up with the layer wrappers installed, an untraced phase
  for the throughput comparison, then the traced phase.

The result goes to ``--out`` as one JSON object.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _prep() -> dict:
    from repro.xbar import _ckernels

    import perfbench.layers  # noqa: F401  (compiles the benchmark's own modules too)
    import perfbench.workloads  # noqa: F401

    for path in sorted((ROOT / "artifacts").glob("*.*")):
        if path.is_file():
            path.read_bytes()
    return {"ckernels": _ckernels.available()}


def _cache_stats() -> dict:
    from repro.xbar.engine_cache import ENGINE_CACHE

    stats = ENGINE_CACHE.stats
    return {"misses": stats.misses, "disk_stores": stats.disk_stores, "disk_hits": stats.disk_hits}


def _queue_stats() -> dict:
    from repro.parallel.backend import get_backend

    queue = getattr(get_backend(), "queue", None)
    return queue.stats.as_dict() if queue is not None else {}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _phase_dict(phase) -> dict:
    return {
        "items": phase.items,
        "elapsed": phase.elapsed,
        "throughput": phase.throughput,
        "raw_throughput": phase.raw_rate if phase.raw_rate is not None else phase.throughput,
        "host_factor": phase.host_factor,
        "units": phase.units,
        "latencies_ms": phase.latencies_ms,
        "attempted": phase.attempted,
        "failed": phase.failed,
    }


def _traced(workload, tracer, seconds: float, spans_path: Path) -> dict:
    from perfbench import layers
    from perfbench.spans import covered_share
    from perfbench.workloads import serve_layer_metrics

    tracer.restore()
    # Both phases start from the same item, so they do the same work.
    untraced = workload.measure(seconds / 2)
    models = workload.models()
    perf0, queue0 = layers.perf_totals(models), _queue_stats()
    tracer.counters.clear()
    layers.install(tracer, workload.variant_of)
    lo = time.perf_counter()
    phase = workload.measure(seconds / 2)
    hi = time.perf_counter()
    tracer.restore()
    perf1, queue1 = layers.perf_totals(models), _queue_stats()
    perf_delta = {k: perf1[k] - perf0[k] for k in perf1}
    queue_delta = {k: queue1.get(k, 0) - queue0.get(k, 0) for k in ("tasks", "steals", "resubmits", "duplicates")}
    work = phase.notes.get("work_items", phase.items)
    metrics = layers.layer_metrics(tracer, (lo, hi), work, perf_delta, queue_delta, dict(tracer.counters))
    metrics.update(serve_layer_metrics(phase))
    metrics.update({f"engine_cache.{k}": v for k, v in _cache_stats().items()})
    overhead = 1.0 - phase.throughput / untraced.throughput if untraced.throughput else 0.0
    metrics["trace.overhead"] = overhead
    coverage = {"measured": covered_share(tracer.spans, lo, hi)}
    for label, (a, b) in phase.notes.get("windows", {}).items():
        coverage[label] = covered_share(tracer.spans, a, b)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(str(spans_path))
    return {
        "phase": _phase_dict(phase),
        "untraced_throughput": untraced.throughput,
        "per_layer": metrics,
        "coverage": coverage,
        "self_times": layers.self_time_table(tracer, (lo, hi)),
        "spans": len(tracer.spans),
        "spans_path": str(spans_path.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("prep", "setup", "measure", "trace"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spawned = float(os.environ.get("PERFBENCH_SPAWNED", _STARTED))

    if args.role == "prep":
        result = _prep()
    else:
        from perfbench.workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed)
        tracer = None
        if args.role == "trace":
            from perfbench import layers
            from perfbench.spans import Tracer

            tracer = Tracer(f"{args.workload}-s{args.seed}-p{os.getpid()}")
            layers.install(tracer, workload.variant_of)
        workload.setup()
        setup_s = time.monotonic() - spawned
        result = {"setup_s": setup_s, "digest": workload.digest(), "item": workload.item}
        if args.role == "measure":
            phase = workload.measure(args.seconds)
            result["phase"] = _phase_dict(phase)
        elif args.role == "trace":
            spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-s{args.seed}.jsonl"
            result.update(_traced(workload, tracer, args.seconds, spans_path))
        if args.role != "setup":
            workload.verify()
        result["engine_cache"] = _cache_stats()
        workload.close()
        if result["engine_cache"]["disk_hits"]:
            workload.problems.append("engine cache served a disk snapshot: the run did not start cold")
        result["problems"] = workload.problems
        result["peak_rss_mb"] = _peak_rss_mb()
        from repro.xbar import _ckernels

        result["ckernels"] = _ckernels.available()
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
