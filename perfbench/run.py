"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout.  Every run starts from the same
state:

* an untimed prep process builds the compiled kernels and reads the
  artifact files once;
* every set-up happens in a fresh process with its own empty engine-cache
  disk tier and BLAS pinned to one thread;
* ``--trace 0`` makes ``SETUPS`` cold set-ups, the first of which goes on
  to the measured phase, and reports the median set-up time;
* ``--trace 1`` makes one traced run that reports the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed output check prints
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
WORKLOADS = ("table3-cell", "hil-pgd", "serve-mixed")
#: Cold set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Wall-clock budget of one run, under the 180 s a run may take.
BUDGET_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: What one latency sample is; latencies are printed, not gated (see README).
LATENCY_OF = {
    "table3-cell": "(one scoring pass of the cell)",
    "hil-pgd": "(one HIL-PGD attack call)",
    "serve-mixed": "(open-loop request, from its scheduled send time)",
}


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def child_env(scratch: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(scratch)
    return env


def run_child(role: str, index: int, args, scratch: Path, deadline: float) -> dict:
    """Start one fresh child process and return its JSON result."""
    tag = f"{role}-{index}"
    out = scratch / f"{tag}.json"
    env = child_env(scratch)
    # Each process gets a fresh, empty engine-cache disk tier: a cold start.
    cache = scratch / f"cache-{tag}"
    cache.mkdir()
    env["REPRO_XBAR_CACHE_DIR"] = str(cache)
    cmd = [sys.executable, "-m", "perfbench.child", "--role", role, "--out", str(out)]
    if role != "prep":
        cmd += ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    env["PERFBENCH_SPAWNED"] = repr(time.monotonic())
    # Its own process group, so a timeout also stops the pool workers it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{role} process exceeded the run's time budget")
    if code != 0:
        raise RuntimeError(f"{role} process exited with code {code}")
    return json.loads(out.read_text())


def provenance(args, ckernels: bool) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "ckernels": "on" if ckernels else "off",
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "seed": args.seed,
    }


def report(args, results: list[dict]) -> tuple[dict, list[str], int, int]:
    """End-to-end metrics of an untraced run, plus the human-readable lines."""
    from perfbench.stats import median, percentile, tail_percentile

    measured = results[0]
    phase = measured["phase"]
    setups = [r["setup_s"] for r in results]
    lat = phase["latencies_ms"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
        "scaled_throughput_per_s": (phase["throughput"], "1/s"),
    }
    attempted, failed = phase["attempted"], phase["failed"]
    lines = [
        "  setup_s          {:10.4f} s     median of {} cold set-ups: {}".format(
            metrics["setup_s"][0], len(setups), ", ".join(f"{s:.3f}" for s in setups)
        ),
        f"  peak_rss_mb      {metrics['peak_rss_mb'][0]:10.2f} MB    run process + largest reaped child",
        f"  throughput_per_s {phase['raw_throughput']:10.4f} 1/s   n={phase['items']} in {phase['elapsed']:.2f} s; "
        f"median over {phase['units']} units of work; item: {measured['item']}",
        f"  scaled_throughput_per_s {phase['throughput']:10.4f} 1/s   "
        + (
            "not scaled: equal to throughput_per_s"
            if phase["host_factor"] is None
            else f"each unit scaled by the host-speed probe; median probe {phase['host_factor']:.3f} x nominal"
        ),
        f"  latency_p50_ms   {median(lat):10.3f} ms    n={len(lat)} {LATENCY_OF[args.workload]}",
    ]
    tail = tail_percentile(len(lat))
    if args.workload == "serve-mixed":
        if tail == 99.0:
            lines.append(f"  latency_p99_ms   {percentile(lat, 99):10.3f} ms    n={len(lat)}")
        else:
            shown = f"p{tail:.0f} = {percentile(lat, tail):.3f} ms" if tail else "none"
            lines.append(
                f"  latency_p99_ms   not reported: n={len(lat)} leaves < 10 samples beyond p99; "
                f"highest percentile with >= 10 samples beyond it: {shown}"
            )
    lines.append(f"  error_rate       {failed / attempted if attempted else 0.0:10.4f} ratio {failed} failed / {attempted} attempted")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines, attempted, failed


def report_trace(result: dict) -> tuple[dict, list[str], int, int]:
    from perfbench.layers import PER_LAYER

    per_layer = result["per_layer"]
    # A layer the workload bypasses did no work: its metrics read 0.
    metrics = {name: {"value": per_layer.get(name, 0.0), "unit": unit} for name, unit, _ in PER_LAYER}
    phase = result["phase"]
    lines = [f"  traced phase: {phase['items']} items in {phase['elapsed']:.2f} s; {result['spans']} spans -> {result['spans_path']}"]
    lines.append(f"  {'span':28s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'self/wall':>10s}")
    for name, calls, total, self_s in result["self_times"]:
        lines.append(f"  {name:28s} {calls:8d} {total:10.4f} {self_s:10.4f} {self_s / phase['elapsed']:10.1%}")
    for label, share in result["coverage"].items():
        lines.append(f"  {label:28s} attributed {share:.1%}, unattributed {1 - share:.1%} of wall time")
    lines.append(
        "  tracing overhead: throughput {:.4f}/s traced vs {:.4f}/s untraced ({:+.1%})".format(
            phase["throughput"], result["untraced_throughput"], -per_layer["trace.overhead"]
        )
    )
    for name, m in metrics.items():
        lines.append(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    return metrics, lines, phase["attempted"], phase["failed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (ROOT / "artifacts").is_dir():
        return fail(f"{ROOT} is not a source checkout of repro (no src/repro or artifacts/)")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    deadline = time.monotonic() + BUDGET_S
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    try:
        prep = run_child("prep", 0, args, scratch, deadline)
        if args.trace:
            results = [run_child("trace", 0, args, scratch, deadline)]
        else:
            results = [run_child("measure", 0, args, scratch, deadline)]
            results += [run_child("setup", i, args, scratch, deadline) for i in range(1, SETUPS)]
    except RuntimeError as exc:
        return fail(str(exc), 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    sys.path.insert(0, str(ROOT))
    prov = provenance(args, prep["ckernels"] and all(r["ckernels"] for r in results))
    if args.trace:
        metrics, lines, attempted, failed = report_trace(results[0])
    else:
        metrics, lines, attempted, failed = report(args, results)
    problems = [problem for r in results for problem in r["problems"]]
    digests = {r["digest"] for r in results}
    if len(digests) != 1:
        problems.append(f"set-ups of one seed produced different digests: {sorted(digests)}")
    cache = results[0]["engine_cache"]
    print(f"perfbench {args.workload} " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(*lines, sep="\n")
    print(
        f"  engine cache: {cache['misses']} misses, {cache['disk_stores']} disk stores, "
        f"{cache['disk_hits']} disk hits; output digest {results[0]['digest']}"
    )
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print("  checks: " + ("all passed" if not problems else f"{len(problems)} failed"))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
