"""Property tests: the compiled fixed-order kernels vs. their numpy twins.

``repro.xbar._ckernels`` specifies its own reduction order (ascending
index, from the first product, one rounding per operation) and
implements it twice.  Hypothesis drives both implementations over
generated shapes — hidden sizes 16 and 32, column counts on both sides
of the 64-wide block, empty and single-row batches, batches crossing
the 32-row tile — and over NaN / +-inf / -0.0 operands, and demands the
same bits.  NaNs must land in the same places (their payload is not
part of the contract); every other element must match exactly,
including the sign of zero.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.xbar import _ckernels
from repro.xbar.device import DeviceConfig
from repro.xbar.geniex import GENIEx, _BankHandle

pytestmark = [
    pytest.mark.fast,
    pytest.mark.skipif(not _ckernels.available(), reason="no C compiler in this environment"),
]

SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0]


@contextlib.contextmanager
def numpy_twin():
    """Route every ``_ckernels`` entry point to its numpy fallback."""
    lib = _ckernels._lib
    _ckernels._lib = None
    try:
        yield
    finally:
        _ckernels._lib = lib


def values(dtype, shape, special_rate: float):
    finite = st.floats(-2.0, 2.0, width=np.dtype(dtype).itemsize * 8)
    elements = (
        st.one_of(finite, st.sampled_from(SPECIALS)) if special_rate else finite
    )
    return arrays(dtype, shape, elements=elements)


def assert_same_bits(expected: np.ndarray, got: np.ndarray) -> None:
    assert expected.shape == got.shape and expected.dtype == got.dtype
    nan = np.isnan(expected)
    np.testing.assert_array_equal(nan, np.isnan(got))
    uint = np.uint32 if expected.dtype == np.float32 else np.uint64
    np.testing.assert_array_equal(expected[~nan].view(uint), got[~nan].view(uint))


COLS = st.one_of(st.sampled_from([1, 63, 64, 65, 130]), st.integers(1, 80))
BATCH = st.sampled_from([0, 1, 2, 31, 33])


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_geniex_currents_match_numpy_twin(data) -> None:
    hidden = data.draw(st.sampled_from([16, 32]), label="hidden")
    rows = data.draw(st.integers(1, 9), label="rows")
    cols = data.draw(COLS, label="cols")
    n = data.draw(BATCH, label="batch")
    special = data.draw(st.booleans(), label="specials")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    device = DeviceConfig()
    geniex = GENIEx(
        w1=rng.normal(0, 0.5, size=(hidden, 2 * rows + GENIEx.EXTRA_FEATURES)),
        b1=rng.normal(0, 0.1, size=hidden),
        w2=rng.normal(0, 0.5, size=hidden),
        b2=float(rng.normal()),
        rows=rows,
        device=device,
        poly=rng.normal(0, 0.1, size=GENIEx.POLY_TERMS),
        target_mean=float(rng.normal(0, 0.1)),
        target_std=float(rng.random() + 0.5),
    )
    handle = _BankHandle(
        bias=data.draw(values(np.float32, (hidden, cols), special), label="bias"),
        conductances=data.draw(
            values(np.float32, (rows, cols), special), label="conductances"
        ) * np.float32(device.g_max),
    )
    volts = data.draw(values(np.float32, (n, rows), special), label="volts")
    volts = volts * np.float32(device.v_read)

    with np.errstate(all="ignore"):
        compiled = geniex.predict_from_bias(volts, handle)
        with numpy_twin():
            twin = geniex.predict_from_bias(volts, handle)
    assert_same_bits(twin, compiled)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_ordered_matmul_matches_numpy_twin(data) -> None:
    dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    n = data.draw(BATCH, label="n")
    k = data.draw(st.integers(0, 9), label="k")
    m = data.draw(COLS, label="m")
    special = data.draw(st.booleans(), label="specials")
    a = data.draw(values(dtype, (n, k), special), label="a")
    b = data.draw(values(dtype, (k, m), special), label="b")

    with np.errstate(all="ignore"):
        compiled = _ckernels.ordered_matmul(a, b)
        with numpy_twin():
            twin = _ckernels.ordered_matmul(a, b)
    assert_same_bits(twin, compiled)


def test_ordered_matmul_starts_from_the_first_product() -> None:
    """``-0.0 * 1`` summed alone stays ``-0.0`` (a sum seeded with +0.0
    would turn it into +0.0) in both implementations."""
    a = np.array([[-0.0]], dtype=np.float32)
    b = np.ones((1, 70), dtype=np.float32)
    for twin in (False, True):
        with numpy_twin() if twin else contextlib.nullcontext():
            out = _ckernels.ordered_matmul(a, b)
        assert np.signbit(out).all()


def test_ordered_matmul_rejects_mixed_dtypes() -> None:
    with pytest.raises(TypeError):
        _ckernels.ordered_matmul(np.ones((2, 2), np.float32), np.ones((2, 2)))


def test_plain_build_matches_the_multiversioned_one(monkeypatch, tiny_geniex) -> None:
    """A compiler that rejects ``target_clones`` gets a plain build of
    the same source, and that build (baseline ISA) gives the same bits
    as the dispatched clone."""
    build = _ckernels._build
    monkeypatch.setattr(
        _ckernels, "_build", lambda flags: build(flags) if _ckernels._NO_CLONES[0] in flags else None
    )
    plain = _ckernels._compile()
    assert plain is not None

    device = tiny_geniex.device
    rng = np.random.default_rng(4)
    g = device.g_min + rng.integers(0, 4, size=(8, 70)) * device.g_step  # full + ragged block
    handle = tiny_geniex.column_bias(g)
    v = rng.random((40, 8)) * device.v_read
    dispatched = tiny_geniex.predict_from_bias(v, handle)
    monkeypatch.setattr(_ckernels, "_lib", plain)
    np.testing.assert_array_equal(tiny_geniex.predict_from_bias(v, handle), dispatched)
