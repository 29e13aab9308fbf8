"""Golden regression for the analog hot path.

The vectorized stacked-stream kernel must be *bit-identical* (exact
float equality) to the reference per-stream kernel for every Table-I
preset, every predictor backend, with and without guard fallback and
fault injection — that is the numerical contract of the hot-path
optimization.  Likewise the fused GENIEx bank evaluation must match the
scalar-loop reference of :mod:`repro.verify.oracle` bit for bit.
"""

import os

import numpy as np
import pytest

from repro.xbar.faults import FaultConfig, GuardConfig, with_faults, with_guard
from repro.xbar.presets import crossbar_preset, load_or_train_geniex, preset_names
from repro.xbar.simulator import (
    KERNEL_MODES,
    CircuitPredictor,
    CrossbarEngine,
    IdealPredictor,
    default_kernel,
)

from tests.conftest import make_tiny_crossbar_config

PRESETS = preset_names()


def _weight_and_inputs(config, seed=0, out_features=10, batch=4, signed=True):
    """A weight spanning two ragged row banks plus a test batch."""
    rng = np.random.default_rng(seed)
    in_features = config.rows + 13
    weight = rng.normal(0, 0.4, size=(out_features, in_features)).astype(np.float32)
    x = rng.normal(size=(batch, in_features)).astype(np.float64)
    if not signed:
        x = np.abs(x)
    x[0, -3:] = 0.0  # give the trailing bank some zero entries
    return weight, x


def _engine(weight, config, predictor, kernel, seed=11):
    """Build one engine whose *entire* life (including the construction-
    time gain calibration) runs under the requested kernel."""
    previous = os.environ.get("REPRO_XBAR_KERNEL")
    os.environ["REPRO_XBAR_KERNEL"] = kernel
    try:
        return CrossbarEngine(weight, config, predictor, np.random.default_rng(seed))
    finally:
        if previous is None:
            del os.environ["REPRO_XBAR_KERNEL"]
        else:
            os.environ["REPRO_XBAR_KERNEL"] = previous


def _assert_kernels_bitwise_equal(weight, config, predictor, x):
    ref = _engine(weight, config, predictor, "reference")
    vec = _engine(weight, config, predictor, "vectorized")
    assert ref.kernel == "reference" and vec.kernel == "vectorized"
    # Gains were calibrated through the respective kernels at build time.
    assert np.array_equal(ref.gain, vec.gain)
    out_ref = ref.matvec(x)
    out_vec = vec.matvec(x)
    assert np.array_equal(out_ref, out_vec), (
        f"kernels diverge: max |delta| = {np.abs(out_ref - out_vec).max()}"
    )
    return ref, vec


class TestGoldenKernelEquality:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_geniex_bitwise(self, preset):
        config = crossbar_preset(preset)
        weight, x = _weight_and_inputs(config, signed=True)
        _assert_kernels_bitwise_equal(weight, config, load_or_train_geniex(config), x)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_ideal_bitwise(self, preset):
        config = crossbar_preset(preset)
        weight, x = _weight_and_inputs(config, seed=1, signed=True)
        _assert_kernels_bitwise_equal(weight, config, IdealPredictor(), x)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_circuit_bitwise(self, preset):
        import dataclasses

        # No probe calibration: circuit solves are the expensive part.
        config = dataclasses.replace(crossbar_preset(preset), gain_calibration=0)
        weight, x = _weight_and_inputs(config, seed=2, batch=2, signed=False)
        _assert_kernels_bitwise_equal(weight, config, CircuitPredictor(config), x)

    @pytest.mark.parametrize("guard_mode", ["off", "fallback"])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_guard_modes_bitwise(self, preset, guard_mode):
        """Guard off and a force-tripped fallback must both be exact.

        ``saturation_factor=1e-9`` trips the guard on every evaluated
        stream, so the fallback substitution path itself is compared.
        """
        guard = GuardConfig(
            mode=guard_mode,
            saturation_factor=1e-9 if guard_mode == "fallback" else None,
        )
        config = with_guard(crossbar_preset(preset), guard)
        weight, x = _weight_and_inputs(config, seed=3, signed=True)
        ref, vec = _assert_kernels_bitwise_equal(
            weight, config, load_or_train_geniex(crossbar_preset(preset)), x
        )
        assert ref.guard_trips == vec.guard_trips
        if guard_mode == "fallback":
            assert vec.guard_trips > 0  # the fallback path really ran

    def test_faults_bitwise(self):
        """Stuck cells, drift and dead lines keep the kernels in lockstep."""
        faults = FaultConfig(
            stuck_at_gmin_rate=0.05,
            stuck_at_gmax_rate=0.02,
            drift_time=1e3,
            dead_row_rate=0.02,
            dead_col_rate=0.02,
            seed=3,
        )
        config = with_faults(crossbar_preset("32x32_100k"), faults)
        weight, x = _weight_and_inputs(config, seed=4, signed=True)
        predictor = load_or_train_geniex(crossbar_preset("32x32_100k"))
        ref, vec = _assert_kernels_bitwise_equal(weight, config, predictor, x)
        assert ref.fault_summary == vec.fault_summary
        assert vec.fault_summary.stuck_gmin + vec.fault_summary.stuck_gmax > 0


class TestGENIExBlockModes:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_gemm_matches_legacy_bitwise(self, preset):
        """The fused fixed-order evaluation of every Table I surrogate
        equals the scalar-loop ``naive_geniex_currents`` reference."""
        from repro.verify.invariants import check_predictor_matches_naive

        config = crossbar_preset(preset)
        geniex = load_or_train_geniex(config)
        check_predictor_matches_naive(geniex, config, seed=5, batch=3)

    def test_small_chunks_bitwise(self, tiny_geniex, rng):
        """Forcing many tiny blocks must not change a single bit."""
        config = make_tiny_crossbar_config()
        weight = rng.normal(0, 0.4, size=(5, 12)).astype(np.float32)
        engine = CrossbarEngine(weight, config, tiny_geniex)
        bank = engine.banks[0]
        voltages = rng.random((9, config.rows))
        full = tiny_geniex.predict_from_bias(voltages, bank.handle)
        blocked = tiny_geniex.predict_from_bias(voltages, bank.handle, chunk=2)
        assert np.array_equal(full, blocked)


class TestPredictorChunkContract:
    """The satellite fix: every backend honors the ``chunk`` argument."""

    def test_ideal_predictor_chunks_bitwise(self, rng):
        bias = rng.standard_normal((8, 6))
        v = rng.random((11, 8))
        full = IdealPredictor.predict_from_bias(v, bias, chunk=10_000)
        blocked = IdealPredictor.predict_from_bias(v, bias, chunk=3)
        assert np.array_equal(full, blocked)

    def test_circuit_predictor_chunks_bitwise(self, rng):
        config = make_tiny_crossbar_config()
        predictor = CircuitPredictor(config)
        g = np.full((8, 8), config.device.g_min) * rng.integers(1, 4, size=(8, 8))
        handle = predictor.prepare_crossbar(g, used_cols=5)
        v = rng.random((7, 8)) * config.device.v_read
        full = predictor.predict_from_bias(v, handle, chunk=10_000)
        blocked = predictor.predict_from_bias(v, handle, chunk=2)
        assert full.shape == (7, 5)
        assert np.array_equal(full, blocked)


class TestKernelSelection:
    def test_env_override(self, monkeypatch, rng):
        monkeypatch.setenv("REPRO_XBAR_KERNEL", "reference")
        assert default_kernel() == "reference"
        config = make_tiny_crossbar_config(gain_calibration=0)
        weight = rng.normal(size=(3, 8)).astype(np.float32)
        engine = CrossbarEngine(weight, config, IdealPredictor())
        assert engine.kernel == "reference"

    def test_invalid_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_XBAR_KERNEL", "warp-speed")
        with pytest.raises(ValueError, match="REPRO_XBAR_KERNEL"):
            default_kernel()

    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv("REPRO_XBAR_KERNEL", raising=False)
        assert default_kernel() == "vectorized"
        assert set(KERNEL_MODES) == {"vectorized", "reference"}


class TestCompiledKernels:
    """The optional C kernels must be bit-identical to their numpy
    equivalents and transparently optional."""

    def test_vectorized_matches_with_kernels_disabled(self, monkeypatch):
        from repro.xbar import _ckernels

        config = crossbar_preset("32x32_100k")
        geniex = load_or_train_geniex(config)
        weight, x = _weight_and_inputs(config, seed=6, signed=True)
        engine = _engine(weight, config, geniex, "vectorized")
        out_fast = engine.matvec(x)
        monkeypatch.setattr(_ckernels, "available", lambda: False)
        out_numpy = engine.matvec(x)
        assert np.array_equal(out_fast, out_numpy)

    def test_env_kill_switch(self, monkeypatch):
        from repro.xbar import _ckernels

        monkeypatch.setenv("REPRO_XBAR_CKERNELS", "0")
        monkeypatch.setattr(_ckernels, "_tried", False)
        monkeypatch.setattr(_ckernels, "_lib", None)
        assert not _ckernels.available()
        v = np.zeros((2, 3), dtype=np.float32)
        assert _ckernels.geniex_currents(
            v, v, np.zeros((2, 1), dtype=np.float32), np.zeros((3, 4), dtype=np.float32),
            np.zeros((3, 2), dtype=np.float32), np.zeros((2, 4), dtype=np.float32),
            np.zeros(2, dtype=np.float32), 0.0, np.zeros(5), 1.0, 1.0, 0.0,
        ) is None
        # The ordered product still answers, through its numpy twin.
        a = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(_ckernels.ordered_matmul(a, np.eye(3)), a)

    def test_dequant_dots_matches_numpy_chain(self, rng):
        from repro.xbar import _ckernels

        if not _ckernels.available():
            pytest.skip("no C compiler in this environment")
        full_scale, g_min, denom = 0.004, 3e-5, 2e-6
        for bits in (None, 6):
            lsb = full_scale / (2**bits - 1) if bits is not None else 1.0
            cur = rng.normal(0, full_scale, size=(9, 7))
            cur[0, :4] = [-0.0, np.nan, np.inf, full_scale * 3]
            v_sum = rng.random((9, 1))
            v_sum[1, 0] = 0.0
            colw = rng.choice([-4.0, 1.0, 8.0], size=7)
            if bits is None:
                q = np.asarray(cur)
            else:
                q = np.rint(np.clip(cur, 0.0, full_scale) / lsb) * lsb
            expected = ((q - g_min * v_sum) / denom) * colw
            got, sick = _ckernels.dequant_dots(
                cur, v_sum, colw, adc_bits=bits, full_scale=full_scale,
                lsb=lsb, g_min=g_min, denom=denom,
            )
            assert not sick  # no health check requested
            assert np.array_equal(expected, got, equal_nan=True)
            # The fused health probe flags the injected NaN/inf rows.
            _got, sick = _ckernels.dequant_dots(
                cur, v_sum, colw, adc_bits=bits, full_scale=full_scale,
                lsb=lsb, g_min=g_min, denom=denom, check=1,
            )
            assert sick

    def test_geniex_tail_matches_numpy_chain(self, rng):
        """The post-MLP tail inside the fused kernel follows the numpy
        chain.  One input row with ``v = 1`` makes ``ideal = G`` and one
        hidden unit with zero drive, ``w2 = 1``, ``b2 = 0`` makes the MLP
        output ``relu(bias) = bias`` exactly, so the tail sees chosen
        ``ideal`` / ``deviation`` values."""
        from repro.xbar import _ckernels

        if not _ckernels.available():
            pytest.skip("no C compiler in this environment")
        ideal = rng.normal(0, 1e-3, size=(1, 5)).astype(np.float32)
        deviation = np.abs(rng.normal(0, 1, size=(1, 5))).astype(np.float32)
        poly = rng.normal(0, 0.1, size=5)
        i_norm, std, mean = 0.02, 0.7, -0.05
        for v_frac in (np.float32(0.0), np.float32(rng.random())):
            one = np.ones((1, 1), dtype=np.float32)
            got = _ckernels.geniex_currents(
                one, one, np.full((1, 1), v_frac), ideal,
                np.zeros((1, 1), dtype=np.float32), deviation, one[0], 0.0,
                poly, i_norm, std, mean,
            )
            dev = deviation * std + mean
            i_frac = (ideal / np.float32(i_norm)).astype(np.float32, copy=False)
            p = (
                poly[0] + poly[1] * i_frac + poly[2] * i_frac * i_frac
                + poly[3] * v_frac + poly[4] * i_frac * v_frac
            )
            expected = ideal - (dev + p) * i_norm
            assert np.array_equal(expected, got)

    def test_axpy_block_matches_numpy(self, rng):
        from repro.xbar import _ckernels

        if not _ckernels.available():
            pytest.skip("no C compiler in this environment")
        out = rng.normal(size=(5, 12))
        src = rng.normal(size=(5, 20))
        expected = out.copy()
        expected[:, 3:9] += 0.125 * src[:, 10:16]
        assert _ckernels.axpy_block(out[:, 3:9], src[:, 10:16], 0.125)
        assert np.array_equal(expected, out)


class TestPerfCounters:
    def test_counters_track_streams_and_calls(self, rng):
        config = make_tiny_crossbar_config(gain_calibration=0)
        weight = rng.normal(0, 0.4, size=(4, 20)).astype(np.float32)  # 3 banks
        engine = CrossbarEngine(weight, config, IdealPredictor())
        x = rng.random((6, 20))
        x[:, 8:] = 0.0  # banks 2 and 3 see all-zero streams
        engine.matvec(x)
        perf = engine.perf
        assert perf.matvec_calls == 1
        assert perf.matvec_rows == 6
        # Bank 1 evaluated in one stacked call; banks 2-3 fully skipped.
        assert perf.bank_evals == 1
        num_streams = config.bitslice.num_streams
        assert perf.streams_evaluated == num_streams
        assert perf.streams_skipped == 2 * num_streams
        assert perf.predictor_seconds >= 0.0
        perf.reset()
        assert perf.matvec_calls == 0 and perf.streams_evaluated == 0

    def test_merge_and_as_dict(self):
        from repro.xbar.perf import PerfCounters

        a = PerfCounters(matvec_calls=1, streams_evaluated=4, predictor_seconds=0.5)
        b = PerfCounters(matvec_calls=2, streams_skipped=3, predictor_seconds=0.25)
        a.merge(b)
        assert a.matvec_calls == 3
        assert a.streams_evaluated == 4 and a.streams_skipped == 3
        assert a.as_dict()["predictor_seconds"] == pytest.approx(0.75)
        assert "streams" in a.format()


class TestLargeBatchCompaction:
    """Regression: GENIEx stacked/compacted evaluation vs. the reference.

    With enough stacked rows the predictor's BLAS matmuls used to switch
    micro-kernels, so the vectorized kernel (one big packed batch plus a
    cached zero-row substitute) drifted from the reference kernel (one
    ``(n, rows)`` call per stream) by ~1e6 ULP after dequantization.
    Surfaced by the differential oracle harness; fixed by making the
    predictor matmuls row-stable (see repro.xbar.numerics).
    """

    def test_geniex_bitwise_single_row(self, tiny_geniex):
        """n=1 is the smallest reproduction: the reference kernel's
        per-stream single-row predictor calls take BLAS's gemv dispatch
        while the stacked kernel's two-row batch takes gemm."""
        rng = np.random.default_rng(0)
        weight = rng.normal(size=(7, 10)).astype(np.float32)
        x = rng.random((1, 10))
        config = make_tiny_crossbar_config(adc_bits=None, gain_calibration=8)
        _assert_kernels_bitwise_equal(weight, config, tiny_geniex, x)

    def test_geniex_bitwise_across_kernels(self, tiny_geniex):
        config = make_tiny_crossbar_config(adc_bits=None, gain_calibration=8)
        weight, x = _weight_and_inputs(config, seed=3, batch=10)
        x[4] = 0.0  # exercise zero-row compaction and the cached currents
        x[6, : config.rows] = 0.0
        _assert_kernels_bitwise_equal(weight, config, tiny_geniex, x)

    def test_geniex_bitwise_with_adc(self, tiny_geniex):
        config = make_tiny_crossbar_config(adc_bits=6, gain_calibration=8)
        weight, x = _weight_and_inputs(config, seed=4, batch=12)
        x[0] = 0.0
        _assert_kernels_bitwise_equal(weight, config, tiny_geniex, x)
