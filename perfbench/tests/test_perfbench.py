"""Tests of the benchmark's own machinery (not of the program it measures)."""

from __future__ import annotations

import json
import os
import re
import threading
import time
import types

import numpy as np
import pytest

from perfbench import layers, loadgen
from perfbench.spans import Span, Tracer, covered_share, merged_length, self_times, summarize
from perfbench.stats import percentile, tail_percentile
from perfbench.tests.conftest import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- percentile rule ---------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99.0), (5000, 99.0), (999, 98.0), (100, 90.0), (99, 89.0), (66, 84.0), (20, 50.0), (19, None), (0, None)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n * (100 - expected) / 100 >= 10
        if expected < 99:
            assert n * (100 - (expected + 1)) / 100 < 10


def test_percentile_matches_linear_interpolation():
    rng = np.random.default_rng(0)
    samples = rng.exponential(size=137).tolist()
    for q in (0, 10, 50, 84, 90, 99, 100):
        assert percentile(samples, q) == pytest.approx(float(np.percentile(samples, q)), rel=1e-12)


def test_percentile_counts_failures_as_missing_every_limit():
    samples = [1.0] * 95 + [float("inf")] * 5
    assert percentile(samples, 50) == 1.0
    assert percentile(samples, 99) == float("inf")


# -- self time ---------------------------------------------------------------
def _span(i, start, end, parent=None, thread=1):
    return Span(i, f"s{i}", start, end, parent, thread, "run")


def test_self_time_of_nested_spans():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 5.0, 6.0, parent=1),
        _span(4, 2.0, 3.0, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs == {1: pytest.approx(6.0), 2: pytest.approx(2.0), 3: pytest.approx(1.0), 4: pytest.approx(1.0)}
    # Self times of one thread's tree add up to its root's duration.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_overlapping_children_are_not_subtracted_twice():
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 5.0, parent=1), _span(3, 3.0, 12.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(1.0)  # children cover [1, 10] of [0, 10]
    assert merged_length([(1.0, 5.0), (3.0, 12.0)], 0.0, 10.0) == pytest.approx(9.0)


def test_spans_on_two_threads_keep_their_own_stacks():
    tracer = Tracer("two-threads")
    inner = tracer.wrap(lambda: time.sleep(0.02), "inner")
    started = threading.Event()

    def outer_body():
        started.set()
        time.sleep(0.05)
        inner()

    outer = tracer.wrap(outer_body, "outer")
    other = tracer.wrap(lambda: (started.wait(1.0), time.sleep(0.03)), "other")
    thread = threading.Thread(target=other)
    thread.start()
    outer()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    # The other thread's span overlaps "outer" in time but is not its child.
    assert by_name["other"].parent is None
    assert by_name["other"].thread != by_name["outer"].thread
    selfs = self_times(tracer.spans)
    assert selfs[by_name["outer"].id] == pytest.approx(by_name["outer"].duration - by_name["inner"].duration)
    assert selfs[by_name["other"].id] == pytest.approx(by_name["other"].duration)
    lo = min(s.start for s in tracer.spans)
    hi = max(s.end for s in tracer.spans)
    assert covered_share(tracer.spans, lo, hi) == pytest.approx(1.0)
    rows = summarize(tracer.spans, lo, hi)
    assert rows["outer"]["calls"] == rows["inner"]["calls"] == rows["other"]["calls"] == 1


def test_covered_share_counts_idle_gaps():
    spans = [_span(1, 0.0, 1.0), _span(2, 0.5, 2.0, thread=2), _span(3, 3.0, 4.0)]
    assert covered_share(spans, 0.0, 4.0) == pytest.approx(0.75)


# -- load generator ----------------------------------------------------------
def test_schedule_is_deterministic_per_seed():
    a = loadgen.poisson_schedule(7, 11.0, 200, ["fp", "q"], 16)
    b = loadgen.poisson_schedule(7, 11.0, 200, ["fp", "q"], 16)
    c = loadgen.poisson_schedule(8, 11.0, 200, ["fp", "q"], 16)
    assert a == b
    assert a != c
    times = [arrival.at for arrival in a]
    assert times == sorted(times) and times[0] > 0
    assert 200 / times[-1] == pytest.approx(11.0, rel=0.25)
    assert {arrival.tenant for arrival in a} == {"fp", "q"}
    assert all(0 <= arrival.image < 16 for arrival in a)
    picks = lambda seed, client: [next(g) for g in [loadgen.client_picks(seed, client, ["fp", "q"], 16)] for _ in range(50)]
    assert picks(7, 3) == picks(7, 3) != picks(8, 3)
    assert {t for t, _ in picks(7, 3)} == {"q"} and {t for t, _ in picks(7, 4)} == {"fp"}


def test_open_loop_times_from_the_scheduled_send_and_records_failures():
    import asyncio

    async def submit(tenant, image):
        await asyncio.sleep(0.01)
        if image == 0:
            raise RuntimeError("refused")
        return (tenant, image)

    schedule = [loadgen.Arrival(0.01 * i, "fp", i % 4) for i in range(12)]
    outcomes, wall = asyncio.run(loadgen.open_loop(submit, schedule))
    assert [o.arrival for o in outcomes] == schedule
    assert sum(o.error is not None for o in outcomes) == 3
    assert all(o.latency_s >= 0.01 - 1e-3 for o in outcomes)
    assert wall >= schedule[-1].at


# -- host-speed scaling ------------------------------------------------------
def test_host_clock_scales_each_unit_by_the_probes_around_it(monkeypatch):
    from perfbench import hostspeed

    probes = iter([0.01, 0.03, 0.02])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    monkeypatch.setattr(hostspeed, "NOMINAL_S", 0.01)
    clock = hostspeed.HostClock()
    assert clock.after_unit() == pytest.approx(2.0)
    assert clock.after_unit() == pytest.approx(2.5)


def test_phase_rates_are_medians_of_units():
    from perfbench.workloads import Phase

    phase = Phase()
    phase.items, phase.elapsed = 10, 5.0
    assert phase.throughput == 2.0  # no units: items / elapsed
    phase.set_rates([10.0, 1.0, 4.0], [1.0, 2.0, 1.5])
    assert (phase.raw_rate, phase.rate, phase.host_factor, phase.units) == (4.0, 6.0, 1.5, 3)
    assert phase.throughput == 6.0


# -- metric names ------------------------------------------------------------
def test_metric_names_and_units_follow_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [tuple(row) for row in layers.PER_LAYER]


# -- wrappers ----------------------------------------------------------------
def test_wrappers_put_every_original_back():
    import sys as _sys

    owner = types.SimpleNamespace(f=lambda x: x + 1)

    class Base:
        def __call__(self):
            return "base"

    class Child(Base):
        def method(self):
            return "method"

    original_f, original_method = owner.f, vars(Child)["method"]
    module = types.ModuleType("repro_fake_for_test")
    module.g = original_f
    _sys.modules[module.__name__] = module
    try:
        tracer = Tracer("restore")
        tracer.patch(owner, "f", "f")
        tracer.patch(Child, "method", "method")
        tracer.patch(Child, "__call__", "call")
        assert tracer.patch_everywhere(original_f, "g", prefix="repro_fake_for_test") == 1
        assert owner.f(1) == 2 and Child().method() == "method" and Child()() == "base"
        assert module.g(2) == 3
        assert [s.name for s in tracer.spans] == ["f", "method", "call", "g"]
        tracer.restore()
    finally:
        del _sys.modules[module.__name__]
    assert owner.f is original_f and module.g is original_f
    assert vars(Child)["method"] is original_method
    assert "__call__" not in vars(Child)
    assert not tracer._patches


def test_layer_wrappers_leave_the_program_unchanged():
    import repro.attacks.base as attacks_base
    import repro.core.evaluation as evaluation
    import repro.parallel.shm as shm
    import repro.xbar.simulator as simulator
    from repro.nn.resnet import ResNet
    from repro.xbar.geniex import GENIEx

    before = {
        "predict_from_bias": vars(GENIEx)["predict_from_bias"],
        "matvec": vars(simulator.CrossbarEngine)["matvec"],
        "im2col": simulator.im2col,
        "convert": simulator.convert_to_hardware,
        "convert_eval": evaluation.convert_to_hardware,
        "predict_logits": attacks_base.predict_logits,
        "predict_logits_eval": evaluation.predict_logits,
        "accuracy": evaluation.adversarial_accuracy,
        "share": shm.share,
    }
    tracer = Tracer("layers")
    layers.install(tracer, lambda model: "x")
    assert getattr(simulator.CrossbarEngine.matvec, "__wrapped_by_perfbench__", False)
    assert getattr(evaluation.convert_to_hardware, "__wrapped_by_perfbench__", False)
    assert "__call__" in vars(ResNet)
    if hasattr(os, "fork"):
        # A forked pool worker drops the wrappers at once.
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            os.write(write, b"1" if simulator.CrossbarEngine.matvec is before["matvec"] else b"0")
            os._exit(0)
        os.close(write)
        assert os.read(read, 1) == b"1"
        os.close(read)
        os.waitpid(pid, 0)
    tracer.restore()
    after = {
        "predict_from_bias": vars(GENIEx)["predict_from_bias"],
        "matvec": vars(simulator.CrossbarEngine)["matvec"],
        "im2col": simulator.im2col,
        "convert": simulator.convert_to_hardware,
        "convert_eval": evaluation.convert_to_hardware,
        "predict_logits": attacks_base.predict_logits,
        "predict_logits_eval": evaluation.predict_logits,
        "accuracy": evaluation.adversarial_accuracy,
        "share": shm.share,
    }
    assert all(after[key] is before[key] for key in before)
    assert "__call__" not in vars(ResNet)
