#!/usr/bin/env python
"""FIFO work-queue benchmark: BENCH_20_queue.json.

Proves the three claims the scheduler makes, with in-script gates:

* **bit-identity** — ``predict_logits`` of a non-ideal model is bitwise
  identical under serial execution and the queue at 1, 2 and 3 workers
  (the merge is keyed by canonical micro-shard index);
* **skew flattening** — on a 10×-skewed synthetic shard-cost
  distribution (three 10-unit shards hiding at the head of nine
  1-unit shards) submit-all FIFO dispatch lands within 1.3× of the
  balanced-bound makespan at 3 workers, where a static contiguous
  partition (computed analytically from the cost list) serializes the
  heavy block (~2.4× bound);
* **low overhead** — on a uniform distribution FIFO dispatch (one pool
  task per shard) costs <5% over a measured static plan: ``workers``
  tasks, each sleeping the sum of its contiguous block.

The synthetic shard fn *sleeps* rather than computes, so wall times
measure scheduling even on a 1-core container; ``cpu_count`` is still
stamped so readers can interpret the identity-arm speedups honestly.

Scale via ``REPRO_BENCH_PROFILE`` (tiny | small | default).
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

from repro.attacks.base import predict_logits  # noqa: E402
from repro.nn.resnet import build_model  # noqa: E402
from repro.obs.sink import runtime_stamp  # noqa: E402
from repro.parallel import ProcessBackend, ShardTask, parallel_backend  # noqa: E402
from repro.xbar.presets import crossbar_preset  # noqa: E402
from repro.xbar.simulator import convert_to_hardware  # noqa: E402

PRESET = "32x32_100k"

PROFILES = {
    # (unit ms for the skew arm, uniform shard ms, eval images, repeats)
    "tiny": (40.0, 15.0, 12, 3),
    "small": (60.0, 20.0, 24, 3),
    "default": (80.0, 25.0, 48, 5),
}

#: Shard costs in units: a 10×-skewed head (the adversarial case for a
#: contiguous partition — all three heavies land in worker 0's block).
SKEW_UNITS = [10.0, 10.0, 10.0] + [1.0] * 9
SKEW_WORKERS = 3
UNIFORM_SHARDS = 12
UNIFORM_WORKERS = 2

#: Gates (asserted below; the bench exits non-zero when they fail).
FIFO_BOUND_FACTOR = 1.3
PARTITION_BOUND_FACTOR = 1.8  # the skew must actually bite the baseline
UNIFORM_OVERHEAD = 0.05


def profile_name() -> str:
    return os.environ.get("REPRO_BENCH_PROFILE", "tiny")


def static_blocks(costs: list[float], workers: int) -> list[list[float]]:
    """The static plan: balanced contiguous blocks, one per worker."""
    base, extra = divmod(len(costs), workers)
    blocks, start = [], 0
    for w in range(workers):
        stop = start + base + (1 if w < extra else 0)
        blocks.append(costs[start:stop])
        start = stop
    return blocks


def synthetic_tasks(costs_ms: list[float]) -> list[ShardTask]:
    return [
        ShardTask("synthetic", {"index": i, "sleep_ms": cost})
        for i, cost in enumerate(costs_ms)
    ]


def timed_map(backend: ProcessBackend, costs_ms: list[float], repeats: int):
    """Best-of-N wall time for one synthetic map; verifies the merge.

    Returns ``(seconds, pool tasks per map)``.
    """
    expected = [
        {"index": i, "value": (i * 0x9E3779B1) & 0xFFFFFFFF}
        for i in range(len(costs_ms))
    ]
    best = float("inf")
    tasks_before = backend.queue.stats.tasks
    for _ in range(repeats):
        tasks = synthetic_tasks(costs_ms)
        start = time.perf_counter()
        results = backend.run_tasks(None, tasks)
        best = min(best, time.perf_counter() - start)
        assert results == expected, "queue merge diverged from serial map"
    return best, (backend.queue.stats.tasks - tasks_before) // repeats


def bench_map(costs_ms: list[float], workers: int, repeats: int) -> dict:
    backend = ProcessBackend(workers)
    try:
        timed_map(backend, [1.0] * workers, 1)  # fork + warm the pool
        seconds, tasks = timed_map(backend, costs_ms, repeats)
    finally:
        backend.close()
    return {"seconds": seconds, "tasks": tasks, "shards": len(costs_ms)}


def bench_identity(eval_size: int) -> dict:
    """Real-model logit identity: serial vs queue at 1/2/3 workers."""
    config = crossbar_preset(PRESET)
    model = build_model("resnet10", num_classes=10, width=8, seed=1)
    model.eval()
    hardware = convert_to_hardware(
        model, config, rng=np.random.default_rng(2), engine_cache=False
    )
    rng = np.random.default_rng(0)
    x = rng.random((eval_size, 3, 16, 16)).astype(np.float32)
    serial = predict_logits(hardware, x, batch_size=4)
    entry: dict = {"workers": {}, "bit_identical": True}
    for workers in (1, 2, 3):
        start = time.perf_counter()
        with parallel_backend(workers):
            logits = predict_logits(hardware, x, batch_size=4)
        seconds = time.perf_counter() - start
        matches = logits.tobytes() == serial.tobytes()
        entry["workers"][str(workers)] = {
            "seconds": seconds,
            "bit_identical": matches,
        }
        entry["bit_identical"] &= matches
        print(
            f"[bench_queue] identity: {workers} worker(s) {seconds:.2f} s "
            f"(identical={matches})"
        )
    return entry


def main() -> int:
    profile = profile_name()
    if profile not in PROFILES:
        print(f"unknown REPRO_BENCH_PROFILE {profile!r}; use one of {sorted(PROFILES)}")
        return 2
    unit_ms, uniform_ms, eval_size, repeats = PROFILES[profile]
    cpu_count = os.cpu_count()
    print(f"[bench_queue] profile={profile} cpu_count={cpu_count}")

    # --- skew arm -----------------------------------------------------
    skew_costs = [u * unit_ms for u in SKEW_UNITS]
    bound_s = sum(skew_costs) / SKEW_WORKERS / 1e3
    fifo = bench_map(skew_costs, SKEW_WORKERS, repeats)
    fifo["vs_bound"] = fifo["seconds"] / bound_s
    partition_s = max(sum(b) for b in static_blocks(skew_costs, SKEW_WORKERS)) / 1e3
    skew = {
        "fifo": fifo,
        "partition_analytic": {
            "seconds": partition_s,
            "vs_bound": partition_s / bound_s,
        },
        "balanced_bound_seconds": bound_s,
    }
    print(
        f"[bench_queue] skew/fifo: {fifo['seconds']*1e3:.0f} ms "
        f"({fifo['vs_bound']:.2f}x bound, "
        f"tasks={fifo['tasks']} shards={fifo['shards']})"
    )
    print(
        f"[bench_queue] skew/partition (analytic): {partition_s*1e3:.0f} ms "
        f"({skew['partition_analytic']['vs_bound']:.2f}x bound)"
    )

    # --- uniform arm --------------------------------------------------
    uniform_costs = [uniform_ms] * UNIFORM_SHARDS
    static_costs = [sum(b) for b in static_blocks(uniform_costs, UNIFORM_WORKERS)]
    uniform = {
        "fifo": bench_map(uniform_costs, UNIFORM_WORKERS, repeats),
        "static": bench_map(static_costs, UNIFORM_WORKERS, repeats),
    }
    for name, arm in uniform.items():
        print(f"[bench_queue] uniform/{name}: {arm['seconds']*1e3:.0f} ms")
    overhead = uniform["fifo"]["seconds"] / uniform["static"]["seconds"] - 1.0
    uniform["fifo_overhead"] = overhead
    print(f"[bench_queue] uniform overhead: {overhead*100:.1f}%")

    # --- identity arm -------------------------------------------------
    identity = bench_identity(eval_size)

    # --- gates --------------------------------------------------------
    failures = []
    if fifo["vs_bound"] > FIFO_BOUND_FACTOR:
        failures.append(
            f"fifo skew makespan {fifo['vs_bound']:.2f}x bound "
            f"(gate {FIFO_BOUND_FACTOR}x)"
        )
    if skew["partition_analytic"]["vs_bound"] < PARTITION_BOUND_FACTOR:
        failures.append(
            f"static partition only {skew['partition_analytic']['vs_bound']:.2f}x "
            f"bound — the skew arm is not skewed enough to measure scheduling"
        )
    if overhead > UNIFORM_OVERHEAD:
        failures.append(f"uniform overhead {overhead*100:.1f}% (gate 5%)")
    if not identity["bit_identical"]:
        failures.append("queue logits diverged from serial")
    for failure in failures:
        print(f"[bench_queue] GATE FAILED: {failure}")

    payload = runtime_stamp(
        extra={
            "bench": "queue",
            "profile": profile,
            "preset": PRESET,
            "cpu_count": cpu_count,
            "gates": {
                "fifo_bound_factor": FIFO_BOUND_FACTOR,
                "partition_bound_factor": PARTITION_BOUND_FACTOR,
                "uniform_overhead": UNIFORM_OVERHEAD,
                "passed": not failures,
            },
        }
    )
    payload.update({"skew": skew, "uniform": uniform, "identity": identity})
    out_path = REPO_ROOT / "BENCH_20_queue.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench_queue] wrote {out_path}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
