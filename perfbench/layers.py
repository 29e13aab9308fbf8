"""Where the traced run puts its spans, and how spans become per-layer metrics.

Every wrapper sits on a public boundary of one ``repro`` layer, at the
name its callers look up when they call it.  Spans from pool workers
cannot be collected; for them the merged ``PerfCounters`` carry the
GENIEx time and call counts back to the parent.
"""

from __future__ import annotations

from dataclasses import fields

from perfbench.spans import Tracer, covered_share, summarize

#: Span names, one per wrapped boundary.
GENIEX = "geniex.predict"
DAC_STREAM = "dac.stream"
DAC_PLANE = "dac.plane"
MATVEC = "xbar.matvec"
IM2COL = "xbar.im2col"
XBAR_LAYER = "xbar.layer_forward"
CONVERT = "xbar.convert"
CALIBRATE = "xbar.calibrate"
NN_FORWARD = "nn.forward"
BACKWARD = "autograd.backward"
PGD = "attacks.pgd"
PREDICT = "attacks.predict_logits"
EVAL = "eval.variant."
RUN_TASKS = "parallel.run_tasks"
SHARE = "parallel.share"
REGISTRY_LOAD = "serve.registry_load"

VARIANTS = ("64x64_300k", "32x32_100k", "64x64_100k", "bitwidth4", "sap")

#: Every per-layer metric of a traced run: name, unit, which way is better.
#: ``/item`` is per item of the traced phase's work; set-up layers
#: (convert, calibrate, share, registry load, engine cache) are totals.
PER_LAYER = [
    ("geniex.predict_s", "s/item", "lower"),
    ("geniex.calls", "1/item", "lower"),
    ("geniex.rows", "1/item", "lower"),
    ("dac.stream_s", "s/item", "lower"),
    ("dac.plane_s", "s/item", "lower"),
    ("xbar.matvec_s", "s/item", "lower"),
    ("xbar.matvec_calls", "1/item", "lower"),
    ("xbar.matvec_rows", "1/item", "lower"),
    ("xbar.engine_self_s", "s/item", "lower"),
    ("xbar.im2col_s", "s/item", "lower"),
    ("xbar.stream_skip_ratio", "ratio", "higher"),
    ("xbar.plane_skip_ratio", "ratio", "higher"),
    ("xbar.row_compaction_ratio", "ratio", "higher"),
    ("xbar.convert_s", "s", "lower"),
    ("xbar.calibrate_s", "s", "lower"),
    ("engine_cache.misses", "count", "lower"),
    ("engine_cache.disk_stores", "count", "lower"),
    ("engine_cache.disk_hits", "count", "lower"),
    ("nn.digital_s", "s/item", "lower"),
    ("autograd.backward_s", "s/item", "lower"),
    ("autograd.backward_calls", "1/item", "lower"),
    ("attacks.self_s", "s/item", "lower"),
    *((f"eval.variant_s.{v}", "s/item", "lower") for v in VARIANTS),
    ("parallel.run_tasks_s", "s/item", "lower"),
    ("parallel.share_s", "s", "lower"),
    ("parallel.tasks", "1/item", "lower"),
    ("parallel.steals", "1/item", "lower"),
    ("parallel.resubmits", "1/item", "lower"),
    ("parallel.duplicate_ratio", "ratio", "lower"),
    ("serve.queue_wait_p50_ms", "ms", "lower"),
    ("serve.queue_wait_p99_ms", "ms", "lower"),
    ("serve.infer_p50_ms", "ms", "lower"),
    ("serve.infer_p99_ms", "ms", "lower"),
    ("serve.batch_size_mean", "req/batch", "higher"),
    ("serve.batching_efficiency", "req/batch", "higher"),
    ("serve.lane_utilization.0", "ratio", "higher"),
    ("serve.lane_utilization.1", "ratio", "higher"),
    ("serve.registry_load_s", "s", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def install(tracer: Tracer, variant_of) -> None:
    """Wrap every layer boundary; ``variant_of(model)`` names an evaluated model."""
    import repro.attacks.base as attacks_base
    import repro.core.evaluation as evaluation
    import repro.parallel.shm as shm
    import repro.xbar.simulator as simulator
    from repro.attacks.pgd import PGD as PGDAttack
    from repro.autograd.tensor import Tensor
    from repro.nn.resnet import ResNet
    from repro.parallel.backend import ProcessBackend
    from repro.serve.registry import ModelRegistry
    from repro.xbar.bitslice import StreamWorkspace
    from repro.xbar.geniex import GENIEx
    from repro.xbar.quant import PlaneWorkspace

    tracer.patch(GENIEx, "predict_from_bias", GENIEX, count=lambda a, k: {"geniex.rows": len(a[1])})
    tracer.patch(StreamWorkspace, "quantize_and_stream", DAC_STREAM)
    for method in ("quantize", "magnitudes", "planes"):
        tracer.patch(PlaneWorkspace, method, DAC_PLANE)
    tracer.patch(simulator.CrossbarEngine, "matvec", MATVEC, count=lambda a, k: {"xbar.matvec_rows": len(a[1])})
    tracer.patch(simulator, "im2col", IM2COL)
    tracer.patch(simulator.NonIdealConv2d, "forward", XBAR_LAYER)
    tracer.patch(simulator.NonIdealLinear, "forward", XBAR_LAYER)
    tracer.patch_everywhere(simulator.convert_to_hardware, CONVERT)
    tracer.patch_everywhere(simulator.calibrate_hardware, CALIBRATE)
    tracer.patch(ResNet, "__call__", NN_FORWARD)
    tracer.patch(Tensor, "backward", BACKWARD)
    tracer.patch(PGDAttack, "generate", PGD)
    tracer.patch_everywhere(attacks_base.predict_logits, PREDICT)
    tracer.patch_everywhere(
        evaluation.adversarial_accuracy, lambda a, k: EVAL + variant_of(a[0])
    )
    tracer.patch(ProcessBackend, "run_tasks", RUN_TASKS)
    tracer.patch(shm, "share", SHARE)
    tracer.patch(ModelRegistry, "load", REGISTRY_LOAD)


def perf_totals(models) -> dict[str, float]:
    """Sum of every distinct engine's ``PerfCounters`` over ``models``."""
    from repro.xbar.perf import PerfCounters, iter_engines

    total = {f.name: 0.0 for f in fields(PerfCounters)}
    seen = set()
    for model in models:
        for _name, engine in iter_engines(model):
            if id(engine) in seen:
                continue
            seen.add(id(engine))
            for key, value in engine.perf.as_dict().items():
                total[key] += value
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    window: tuple[float, float],
    items: float,
    perf_delta: dict[str, float],
    queue_delta: dict[str, float],
    counters_delta: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics of the traced measured phase ``window``.

    Hot-path times and counts are per work item of the phase (``items``);
    set-up layers (conversion, calibration, registry load, model sharing)
    are whole-process totals in seconds.
    """
    phase = summarize(tracer.spans, *window)
    whole = summarize(tracer.spans, float("-inf"), float("inf"))

    def total(name, rows=phase):
        return rows.get(name, {}).get("total_s", 0.0)

    def self_s(name, rows=phase):
        return rows.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return phase.get(name, {}).get("calls", 0)

    per = 1.0 / items if items else 0.0
    # Pool workers report GENIEx time and calls through merged counters;
    # what the counters hold beyond the in-process spans happened there.
    geniex_s = total(GENIEX) + max(0.0, perf_delta["predictor_seconds"] - total(GENIEX))
    geniex_calls = calls(GENIEX) + max(0.0, perf_delta["bank_evals"] - calls(GENIEX))
    geniex_rows = counters_delta.get("geniex.rows", 0)
    streams = perf_delta["streams_evaluated"] + perf_delta["streams_skipped"]
    planes = perf_delta["planes_evaluated"] + perf_delta["planes_skipped"]
    metrics = {
        "geniex.predict_s": geniex_s * per,
        "geniex.calls": geniex_calls * per,
        "geniex.rows": geniex_rows * per,
        "dac.stream_s": total(DAC_STREAM) * per,
        "dac.plane_s": total(DAC_PLANE) * per,
        "xbar.matvec_s": total(MATVEC) * per,
        "xbar.matvec_calls": calls(MATVEC) * per,
        "xbar.matvec_rows": counters_delta.get("xbar.matvec_rows", 0) * per,
        "xbar.engine_self_s": self_s(MATVEC) * per,
        "xbar.im2col_s": total(IM2COL) * per,
        "xbar.stream_skip_ratio": _ratio(perf_delta["streams_skipped"], streams),
        "xbar.plane_skip_ratio": _ratio(perf_delta["planes_skipped"], planes),
        # Rows the predictor was spared over rows it was asked for plus
        # those spared; only rows of in-process predictor calls are seen.
        "xbar.row_compaction_ratio": _ratio(
            perf_delta["rows_compacted"], perf_delta["rows_compacted"] + geniex_rows
        )
        if geniex_rows
        else 0.0,
        "xbar.convert_s": total(CONVERT, whole),
        "xbar.calibrate_s": total(CALIBRATE, whole),
        "nn.digital_s": self_s(NN_FORWARD) * per,
        "autograd.backward_s": total(BACKWARD) * per,
        "autograd.backward_calls": calls(BACKWARD) * per,
        "attacks.self_s": self_s(PGD) * per,
        "parallel.run_tasks_s": total(RUN_TASKS) * per,
        "parallel.share_s": total(SHARE, whole),
        "parallel.tasks": queue_delta.get("tasks", 0) * per,
        "parallel.steals": queue_delta.get("steals", 0) * per,
        "parallel.resubmits": queue_delta.get("resubmits", 0) * per,
        "parallel.duplicate_ratio": _ratio(queue_delta.get("duplicates", 0), queue_delta.get("tasks", 0)),
        "serve.registry_load_s": total(REGISTRY_LOAD, whole),
    }
    for variant in VARIANTS:
        metrics[f"eval.variant_s.{variant}"] = total(EVAL + variant) * per
    lo, hi = window
    metrics["trace.unattributed_share"] = 1.0 - covered_share(
        [s for s in tracer.spans if s.end > lo and s.start < hi], lo, hi
    )
    return metrics


def self_time_table(tracer: Tracer, window: tuple[float, float]) -> list[tuple[str, int, float, float]]:
    """``(span name, calls, total s, self s)`` rows of the phase, largest self time first."""
    rows = summarize(tracer.spans, *window)
    return sorted(
        ((name, r["calls"], r["total_s"], r["self_s"]) for name, r in rows.items()),
        key=lambda row: -row[3],
    )
