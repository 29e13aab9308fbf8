#!/usr/bin/env python
"""Hot-path performance benchmark: BENCH_14_hotpath.json.

Times the analog MVM hot path before/after the stacked-stream rework:

* micro-kernel — ``CrossbarEngine.matvec`` on one tiled layer, with the
  reference per-stream kernel vs. the vectorized stacked-stream kernel
  (bit-identical; only wall time differs);
* end-to-end — a non-ideal ResNet-20 forward pass under the same two
  configurations;
* engine cache — repeated ``convert_to_hardware`` with a cold vs. warm
  content-addressed cache, showing hits eliminate reprogramming;
* a perf-counter snapshot of the vectorized end-to-end run.

Scale is controlled by ``REPRO_BENCH_PROFILE`` (tiny | small | default;
this script defaults to ``tiny`` so it stays a CI smoke step).  Results
are written to ``BENCH_14_hotpath.json`` at the repo root — no timing
assertions here; trend tracking happens across commits.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.autograd import Tensor, no_grad  # noqa: E402
from repro.nn.resnet import resnet20  # noqa: E402
from repro.obs.sink import runtime_stamp  # noqa: E402
from repro.xbar.engine_cache import EngineCache, config_digest  # noqa: E402
from repro.xbar.perf import iter_engines, perf_report, reset_perf  # noqa: E402
from repro.xbar.presets import crossbar_preset, load_or_train_geniex  # noqa: E402
from repro.xbar.simulator import CrossbarEngine, convert_to_hardware  # noqa: E402

PRESET = "32x32_100k"

PROFILES = {
    # (matvec batch, resnet batch, timing repeats)
    "tiny": (64, 4, 3),
    "small": (256, 8, 3),
    "default": (512, 16, 5),
}


def profile_name() -> str:
    return os.environ.get("REPRO_BENCH_PROFILE", "tiny")


def best_of(fn, repeats: int) -> float:
    """Minimum wall time over ``repeats`` runs (least-noise estimator)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def set_kernel(engines, kernel: str) -> None:
    for engine in engines:
        engine.kernel = kernel


def bench_micro_matvec(config, geniex, batch: int, repeats: int) -> dict:
    rng = np.random.default_rng(0)
    weight = rng.normal(0, 0.3, size=(32, 72)).astype(np.float32)
    engine = CrossbarEngine(weight, config, geniex, np.random.default_rng(1))
    x = rng.random((batch, 72)).astype(np.float32)

    set_kernel([engine], "reference")
    before = best_of(lambda: engine.matvec(x), repeats)
    set_kernel([engine], "vectorized")
    after = best_of(lambda: engine.matvec(x), repeats)
    return {
        "shape": {"weight": [32, 72], "batch": batch},
        "reference_seconds": before,
        "vectorized_seconds": after,
        "speedup": before / after if after > 0 else float("inf"),
    }


def bench_resnet_forward(config, geniex, batch: int, repeats: int) -> dict:
    model = resnet20(num_classes=10, width=8)
    model.eval()
    hardware = convert_to_hardware(
        model, config, predictor=geniex, rng=np.random.default_rng(2),
        engine_cache=False,
    )
    engines = [engine for _name, engine in iter_engines(hardware)]
    x = Tensor(np.random.default_rng(0).random((batch, 3, 16, 16)).astype(np.float32))

    with no_grad():
        set_kernel(engines, "reference")
        before = best_of(lambda: hardware(x), repeats)
        set_kernel(engines, "vectorized")
        reset_perf(hardware)
        after = best_of(lambda: hardware(x), repeats)
    report = perf_report(hardware)
    return {
        "model": "resnet20-w8",
        "input": [batch, 3, 16, 16],
        "reference_seconds": before,
        "vectorized_seconds": after,
        "speedup": before / after if after > 0 else float("inf"),
        "perf_counters": report.total.as_dict(),
        "layers": len(report.layers),
    }


def bench_engine_cache(config, geniex) -> dict:
    model = resnet20(num_classes=10, width=8)
    model.eval()
    cache = EngineCache()

    start = time.perf_counter()
    convert_to_hardware(
        model, config, predictor=geniex, rng=np.random.default_rng(3),
        engine_cache=cache,
    )
    cold = time.perf_counter() - start
    start = time.perf_counter()
    convert_to_hardware(
        model, config, predictor=geniex, rng=np.random.default_rng(3),
        engine_cache=cache,
    )
    warm = time.perf_counter() - start
    return {
        "cold_convert_seconds": cold,
        "warm_convert_seconds": warm,
        "speedup": cold / warm if warm > 0 else float("inf"),
        "cache_stats": cache.stats.as_dict(),
    }


def main() -> int:
    profile = profile_name()
    if profile not in PROFILES:
        print(f"unknown REPRO_BENCH_PROFILE {profile!r}; use one of {sorted(PROFILES)}")
        return 2
    matvec_batch, resnet_batch, repeats = PROFILES[profile]
    config = crossbar_preset(PRESET)
    geniex = load_or_train_geniex(config)

    print(f"[bench_perf] profile={profile} preset={PRESET}")
    micro = bench_micro_matvec(config, geniex, matvec_batch, repeats)
    print(
        f"[bench_perf] micro matvec: {micro['reference_seconds'] * 1e3:.1f} ms -> "
        f"{micro['vectorized_seconds'] * 1e3:.1f} ms  ({micro['speedup']:.2f}x)"
    )
    e2e = bench_resnet_forward(config, geniex, resnet_batch, repeats)
    print(
        f"[bench_perf] resnet20 forward: {e2e['reference_seconds']:.2f} s -> "
        f"{e2e['vectorized_seconds']:.2f} s  ({e2e['speedup']:.2f}x)"
    )
    cache = bench_engine_cache(config, geniex)
    print(
        f"[bench_perf] convert_to_hardware: cold {cache['cold_convert_seconds']:.2f} s, "
        f"warm {cache['warm_convert_seconds']:.3f} s  ({cache['speedup']:.0f}x, "
        f"{cache['cache_stats']['hits']} hits / {cache['cache_stats']['misses']} misses)"
    )

    # Provenance stamp shared with --obs run manifests: git sha, numpy,
    # python, platform, timestamp — plus the preset's config digest and
    # the deterministic seeds used above, so bench points are
    # attributable across commits.
    payload = runtime_stamp(
        extra={
            "bench": "hotpath",
            "profile": profile,
            "preset": PRESET,
            "config_digest": config_digest(config),
            "seeds": {"micro": [0, 1], "resnet": [0, 2], "cache": [3]},
        }
    )
    payload.update(
        {
            "micro_matvec": micro,
            "resnet20_forward": e2e,
            "engine_cache": cache,
        }
    )
    out_path = REPO_ROOT / "BENCH_14_hotpath.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench_perf] wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
