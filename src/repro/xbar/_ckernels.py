"""Optional compiled kernels for the analog hot path.

Tiny C loops compiled at first use with the system compiler (no
third-party dependency: ctypes + ``cc``), under strict IEEE semantics.
Every kernel has a numpy twin that produces the same bits; the
compiled one is an accelerator, never a requirement.

Fixed-order reductions
----------------------
The GENIEx bank evaluation and the ideal ``V @ G`` backend do not go
through BLAS: a BLAS GEMM picks its summation split by batch shape and
by the CPU it detects at run time, so the same row could round
differently in different batches or on different machines.  Instead
``repro`` specifies the order itself:

* ``ordered_matmul(a, b)[i, j] = sum_p a[i, p] * b[p, j]`` with ``p``
  ascending, starting from the first product (not from 0), one
  rounding per multiply and per add, in the operands' dtype (float32
  or float64).  GENIEx's ideal term ``V @ G``, its hidden drive
  ``V_norm @ w1v.T`` and its column biases ``features @ w1g.T`` all use
  it, as does :class:`~repro.xbar.simulator.IdealPredictor` (float64).
* ``geniex_currents`` — the whole ``GENIEx.predict_from_bias`` in one
  pass: the two ordered products above, then
  ``dev[i,c] = sum_h relu(hv[i,h] + bias[h,c]) * w2[h]`` (``h``
  ascending, from the first product) ``+ float32(b2)``, then the
  post-MLP tail (polynomial backbone, de-standardization, current
  reconstruction) in the exact order and precisions of the numpy
  chain.  The ReLU reproduces ``np.maximum(t, 0.0)``: NaN propagates,
  ``-0.0`` becomes ``+0.0``.  Columns are the vector dimension: a
  64-column block accumulates in registers/L1 with the bias stored
  ``(hidden, cols)``, so the ``(rows, cols, hidden)`` pre-activation is
  never materialised.

Why every build gives the same bits
-----------------------------------
Compilation uses ``-ffp-contract=off`` and ``-fno-fast-math``, so no
multiply-add is fused and no sum is reassociated.  On x86-64 with GCC
the reduction kernels are multiversioned (``target_clones`` for
x86-64-v4, x86-64-v3 and the baseline); each variant only vectorizes
*across* independent outputs (columns, hidden units), so every output
element sees the same sequence of lane-wise IEEE operations whatever
the SIMD width — the clones differ in speed, not in bits.  A compiler
that rejects the attribute gets a plain build of the same source.

The numpy fallback (``REPRO_XBAR_CKERNELS=0`` or no compiler) runs the
same loops over ``p`` / ``h`` as vectorised axpys over ``(rows,
cols)``.  That is one ufunc call per reduction step: at GENIEx shapes
a whole bank evaluation takes 11-14x the compiled pass (and 2.6-4.5x
the BLAS-based evaluation it replaced) — the price of owning the order.
It is the correctness twin, not the fast path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = r"""
/* IEEE-strict kernels for the analog hot path.  Compiled with
 * -ffp-contract=off so no multiply-add is fused: every operation
 * rounds exactly once, like the numpy ufunc chain it replaces.
 *
 * The reduction kernels vectorize across *independent* outputs
 * (columns, hidden units) and never split or reassociate a sum, so
 * every SIMD width -- each target_clones variant, and the scalar tail
 * of a vectorized loop -- performs the same IEEE operations on each
 * output element in the same order and yields the same bits. */

#include <math.h>
#include <stdlib.h>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(REPRO_NO_CLONES)
#define MULTIVERSIONED \
    __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define MULTIVERSIONED
#endif

#define INLINE static inline __attribute__((always_inline))

/* Columns per register/L1 accumulator block; rows per L1 tile. */
#define COL_BLOCK 64
#define ROW_TILE 32

/* np.maximum(t, 0.0): NaN propagates, -0.0 -> +0.0 */
INLINE float relu(float t) { return (t == t) ? (t > 0.0f ? t : 0.0f) : t; }

/* o[j] = sum_p a[p] * b[p*m + j] for j < w: p ascending, starting from
 * the first product (k >= 1), one rounding per multiply and per add. */
#define GEMV_BLOCK(NAME, T)                                              \
    INLINE void NAME(const T *a, const T *b, T *o, long k, long m, long w) \
    {                                                                    \
        T acc[COL_BLOCK];                                                \
        for (long j = 0; j < w; ++j)                                     \
            acc[j] = a[0] * b[j];                                        \
        for (long p = 1; p < k; ++p) {                                   \
            const T ap = a[p];                                           \
            const T *bp = b + p * m;                                     \
            for (long j = 0; j < w; ++j)                                 \
                acc[j] = acc[j] + ap * bp[j];                            \
        }                                                                \
        for (long j = 0; j < w; ++j)                                     \
            o[j] = acc[j];                                               \
    }

/* out = a @ b for (n, k) x (k, m), k >= 1, in that fixed order.  Full
 * blocks get a compile-time width (register accumulators); the ragged
 * last block runs the same per-element sequence. */
#define ORDERED_GEMM(NAME, BLOCK, T)                                     \
    MULTIVERSIONED void NAME(const T *a, const T *b, T *out,             \
                             long n, long k, long m)                     \
    {                                                                    \
        for (long i = 0; i < n; ++i) {                                   \
            long j0 = 0;                                                 \
            for (; j0 + COL_BLOCK <= m; j0 += COL_BLOCK)                 \
                BLOCK(a + i * k, b + j0, out + i * m + j0, k, m, COL_BLOCK); \
            if (j0 < m)                                                  \
                BLOCK(a + i * k, b + j0, out + i * m + j0, k, m, m - j0); \
        }                                                                \
    }

GEMV_BLOCK(gemv_block_f32, float)
GEMV_BLOCK(gemv_block_f64, double)
ORDERED_GEMM(ordered_gemm_f32, gemv_block_f32, float)
ORDERED_GEMM(ordered_gemm_f64, gemv_block_f64, double)

/* One (row, column block) of the GENIEx bank evaluation:
 *   ideal[j] = sum_r v[r] * g[r, j]                          (float32)
 *   dev[j]   = sum_h relu(hv[h] + bias_t[h, j]) * w2[h] + b2 (float32)
 * then the post-MLP tail in the numpy chain's order and precisions:
 *   i_frac    = ideal / float32(i_norm)
 *   deviation = dev * target_std + target_mean               (float32)
 *   deviation = deviation + poly(i_frac, v_frac)             (float64)
 *   currents  = ideal - deviation * i_norm                   (float64)
 * with poly = ((((c0 + c1*x) + (c2*x)*x) + c3*v) + (c4*x)*v). */
INLINE void geniex_block(const float *v, const float *g, const float *hv,
                         const float *bias_t, const float *w2, float b2,
                         const double *c, double vf, double *o,
                         long rows, long cols, long hidden, long w,
                         float inorm32, float std32, float mean32, double inorm)
{
    float ideal[COL_BLOCK], dev[COL_BLOCK];
    for (long j = 0; j < w; ++j)
        ideal[j] = v[0] * g[j];
    for (long r = 1; r < rows; ++r) {
        const float vr = v[r];
        const float *gr = g + r * cols;
        for (long j = 0; j < w; ++j)
            ideal[j] = ideal[j] + vr * gr[j];
    }
    for (long j = 0; j < w; ++j)
        dev[j] = relu(hv[0] + bias_t[j]) * w2[0];
    for (long h = 1; h < hidden; ++h) {
        const float hh = hv[h], wh = w2[h];
        const float *bh = bias_t + h * cols;
        for (long j = 0; j < w; ++j)
            dev[j] = dev[j] + relu(hh + bh[j]) * wh;
    }
    const double c3v = c[3] * vf;
    for (long j = 0; j < w; ++j) {
        float x32 = ideal[j] / inorm32;
        double x = (double)x32;
        double poly = c[0] + c[1] * x;
        poly = poly + (c[2] * x) * x;
        poly = poly + c3v;
        poly = poly + (c[4] * x) * vf;
        float d = dev[j] + b2;
        d = d * std32;
        d = d + mean32;
        double dd = (double)d + poly;
        o[j] = (double)ideal[j] - dd * inorm;
    }
}

/* GENIEx bank currents for n voltage rows (rows, hidden >= 1).
 * v, vn: (n, rows) volts and normalized volts; g: (rows, cols)
 * conductances; w1t: (rows, hidden) voltage half of the first layer;
 * bias_t: (hidden, cols) per-column hidden constants; v_frac: (n,).
 * Rows are tiled so one column block's conductances and biases stay
 * in L1 across the tile; hv (ROW_TILE x hidden) is the only scratch.
 * Returns nonzero (out untouched) if that scratch can't be had. */
MULTIVERSIONED
int geniex_currents(const float *v, const float *vn, const float *g,
                    const float *w1t, const float *bias_t, const float *w2,
                    float b2, const float *v_frac, const double *c,
                    double *out, long n, long rows, long cols, long hidden,
                    float inorm32, float std32, float mean32, double inorm)
{
    float *hv = (float *)malloc(sizeof(float) * ROW_TILE * hidden);
    if (hv == NULL)
        return 1;
    for (long i0 = 0; i0 < n; i0 += ROW_TILE) {
        long nt = n - i0 < ROW_TILE ? n - i0 : ROW_TILE;
        for (long t = 0; t < nt; ++t) {
            const float *a = vn + (i0 + t) * rows;
            float *o = hv + t * hidden;
            long h0 = 0;
            for (; h0 + COL_BLOCK <= hidden; h0 += COL_BLOCK)
                gemv_block_f32(a, w1t + h0, o + h0, rows, hidden, COL_BLOCK);
            if (h0 < hidden)
                gemv_block_f32(a, w1t + h0, o + h0, rows, hidden, hidden - h0);
        }
        for (long j0 = 0; j0 < cols; j0 += COL_BLOCK) {
            long w = cols - j0 < COL_BLOCK ? cols - j0 : COL_BLOCK;
            for (long t = 0; t < nt; ++t) {
                long i = i0 + t;
                /* constant width: register accumulators, as above */
                if (w == COL_BLOCK)
                    geniex_block(v + i * rows, g + j0, hv + t * hidden,
                                 bias_t + j0, w2, b2, c, (double)v_frac[i],
                                 out + i * cols + j0, rows, cols, hidden,
                                 COL_BLOCK, inorm32, std32, mean32, inorm);
                else
                    geniex_block(v + i * rows, g + j0, hv + t * hidden,
                                 bias_t + j0, w2, b2, c, (double)v_frac[i],
                                 out + i * cols + j0, rows, cols, hidden,
                                 w, inorm32, std32, mean32, inorm);
            }
        }
    }
    free(hv);
    return 0;
}

int dequant_dots(const double *cur, const double *v_sum, const double *colw,
                 double *out, long n, long cols, int adc_on,
                 double hi, double lsb, double g_min, double denom,
                 int check, double sat_limit)
{
    /* Fuses the engine's per-bank dequantization chain (float64, the
     * dtype predictor currents arrive in):
     *   q    = rint(clip(cur, 0, full_scale) / lsb) * lsb
     *   dots = (q - g_min * v_sum) / (g_step * v_step)
     *   out  = dots * col_weight
     * np.clip semantics: NaN propagates and -0.0 survives the lower
     * bound (clip tests x < lo, unlike np.maximum).
     *
     * The same pass doubles as the tile-health probe: with check=1 the
     * raw currents are tested for finiteness, with check=2 also
     * against the saturation limit.  Returns nonzero when anything is
     * sick — the caller then discards ``out`` and reruns the bank
     * through the reference guard path. */
    int sick = 0;
    for (long i = 0; i < n; ++i) {
        double gv = g_min * v_sum[i];
        long base = i * cols;
        for (long j = 0; j < cols; ++j) {
            double q = cur[base + j];
            if (check && (!isfinite(q) || (check == 2 && fabs(q) > sat_limit)))
                sick = 1;
            if (adc_on && q == q) {
                double t = q < 0.0 ? 0.0 : q;
                t = t > hi ? hi : t;
                q = rint(t / lsb) * lsb;
            }
            double d = (q - gv) / denom;
            out[base + j] = d * colw[j];
        }
        if (sick)
            return 1;
    }
    return 0;
}

void axpy2d(double *dst, const double *src, double a, long n, long w,
            long dst_stride, long src_stride)
{
    /* dst += a * src over 2-D row-strided views: multiply then add,
     * each rounding once, exactly like the numpy temporary it avoids. */
    for (long i = 0; i < n; ++i) {
        double *d = dst + i * dst_stride;
        const double *s = src + i * src_stride;
        for (long j = 0; j < w; ++j)
            d[j] = d[j] + a * s[j];
    }
}

void adc_codes(const double *cur, int *out, long total, double hi, double lsb)
{
    /* Integer ADC read-out: out = rint(clip(cur, 0, full_scale) / lsb)
     * as int32 codes.  A non-finite current reads back as code 0 — a
     * real converter always emits *some* code, and NaN/Inf must never
     * reach the integer accumulators (the guard handles sick tiles). */
    for (long i = 0; i < total; ++i) {
        double q = cur[i];
        if (!isfinite(q)) { out[i] = 0; continue; }
        double t = q < 0.0 ? 0.0 : q;
        t = t > hi ? hi : t;
        out[i] = (int)rint(t / lsb);
    }
}

void int_axpy(long long *dst, const int *src, long long a, long n, long w,
              long dst_stride, long src_stride)
{
    /* dst += a * src for int64 dst / int32 src row-strided views.
     * Integer arithmetic is exact, so this is identical (not merely
     * bit-identical) to the numpy fallback. */
    for (long i = 0; i < n; ++i) {
        long long *d = dst + i * dst_stride;
        const int *s = src + i * src_stride;
        for (long j = 0; j < w; ++j)
            d[j] += a * (long long)s[j];
    }
}

void int_dot(const int *a, const int *b, long long *out,
             long n, long k, long m)
{
    /* Exact integer GEMM with int64 accumulation; rows of ``a`` are
     * DAC pulse planes, so the zero-skip pays off on sparse codes. */
    for (long i = 0; i < n; ++i) {
        const int *ai = a + i * k;
        long long *oi = out + i * m;
        for (long j = 0; j < m; ++j)
            oi[j] = 0;
        for (long p = 0; p < k; ++p) {
            long long av = (long long)ai[p];
            if (av == 0)
                continue;
            const int *bp = b + p * m;
            for (long j = 0; j < m; ++j)
                oi[j] += av * (long long)bp[j];
        }
    }
}
"""

_CFLAGS = [
    "-O3",
    "-shared",
    "-fPIC",
    "-fno-fast-math",
    "-ffp-contract=off",
    "-fno-unsafe-math-optimizations",
]

#: Plain build of the same source for compilers that reject
#: ``target_clones`` (the variants only differ in speed, not in bits).
_NO_CLONES = ["-DREPRO_NO_CLONES"]

_lib: ctypes.CDLL | None = None
_tried = False


def _build_dir() -> Path:
    override = os.environ.get("REPRO_ARTIFACTS")
    if override:
        return Path(override)
    repo_root = Path(__file__).resolve().parents[3]
    if (repo_root / "pyproject.toml").exists():
        return repo_root / "artifacts"
    return Path(tempfile.gettempdir())


def _build(flags: list[str]) -> Path | None:
    digest = hashlib.sha256((_SOURCE + " ".join(flags)).encode()).hexdigest()[:16]
    build_dir = _build_dir()
    build_dir.mkdir(parents=True, exist_ok=True)
    so_path = build_dir / f"repro-ckernels-{digest}.so"
    if not so_path.exists():
        src_path = so_path.with_suffix(".c")
        src_path.write_text(_SOURCE)
        tmp = so_path.with_suffix(f".tmp{os.getpid()}.so")
        cmd = ["cc", *flags, "-o", str(tmp), str(src_path)]
        result = subprocess.run(cmd, capture_output=True, timeout=120)
        if result.returncode != 0:
            return None
        os.replace(tmp, so_path)  # atomic vs. concurrent builders
    return so_path


def _compile() -> ctypes.CDLL | None:
    so_path = _build(_CFLAGS) or _build(_CFLAGS + _NO_CLONES)
    if so_path is None:
        return None
    lib = ctypes.CDLL(str(so_path))
    for name in ("ordered_gemm_f32", "ordered_gemm_f64"):
        getattr(lib, name).argtypes = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_long, ctypes.c_long, ctypes.c_long,
        ]
        getattr(lib, name).restype = None
    lib.geniex_currents.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_float, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
        ctypes.c_float, ctypes.c_float, ctypes.c_float, ctypes.c_double,
    ]
    lib.geniex_currents.restype = ctypes.c_int
    lib.dequant_dots.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_long, ctypes.c_long, ctypes.c_int,
        ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_int, ctypes.c_double,
    ]
    lib.dequant_dots.restype = ctypes.c_int
    lib.axpy2d.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_double,
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
    ]
    lib.adc_codes.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long,
        ctypes.c_double, ctypes.c_double,
    ]
    lib.int_axpy.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_longlong,
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
    ]
    lib.int_dot.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_long, ctypes.c_long, ctypes.c_long,
    ]
    return lib


def available() -> bool:
    """Whether the compiled kernels are usable in this environment."""
    global _lib, _tried
    if not _tried:
        _tried = True
        if os.environ.get("REPRO_XBAR_CKERNELS", "1") != "0":
            try:
                _lib = _compile()
            except Exception:
                _lib = None
    return _lib is not None


def ordered_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` summed in the fixed order of this module's docstring.

    Both operands must share a float32 or float64 dtype.  Row ``i`` of
    the result is a pure function of ``a[i]`` and ``b`` — independent
    of the batch, the BLAS build and the CPU.  Compiled when
    available; otherwise the numpy k-loop, which gives the same bits.
    """
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"expected (n, k) @ (k, m) operands, got {a.shape} @ {b.shape}")
    if a.dtype != b.dtype or a.dtype not in (np.float32, np.float64):
        raise TypeError(f"operands must share float32/float64, got {a.dtype}, {b.dtype}")
    (n, k), m = a.shape, b.shape[1]
    out = np.empty((n, m), dtype=a.dtype)
    if k == 0:
        out.fill(0.0)
    elif available():
        kernel = _lib.ordered_gemm_f32 if a.dtype == np.float32 else _lib.ordered_gemm_f64
        kernel(a.ctypes.data, b.ctypes.data, out.ctypes.data, n, k, m)
    else:
        np.multiply(a[:, :1], b[0], out=out)
        step = np.empty_like(out)
        for p in range(1, k):
            np.multiply(a[:, p : p + 1], b[p], out=step)
            out += step
    return out


def geniex_currents(
    volts: np.ndarray,
    v_norm: np.ndarray,
    v_frac: np.ndarray,
    conductances: np.ndarray,
    w1v_t: np.ndarray,
    bias_t: np.ndarray,
    w2: np.ndarray,
    b2: float,
    coef: np.ndarray,
    i_norm: float,
    target_std: float,
    target_mean: float,
) -> np.ndarray | None:
    """``GENIEx.predict_from_bias`` in one compiled pass, or None.

    Shapes: ``volts``/``v_norm`` (n, rows) float32, ``v_frac`` (n, 1)
    float32, ``conductances`` (rows, cols), ``w1v_t`` (rows, hidden),
    ``bias_t`` (hidden, cols), ``w2`` (hidden,) float32; ``coef`` the
    five float64 backbone coefficients.  Returns (n, cols) float64
    currents, or None when the library is unavailable or the operands
    don't qualify — the caller then runs the numpy twin.
    """
    if not available():
        return None
    f32 = np.float32
    operands = (volts, v_norm, v_frac, conductances, w1v_t, bias_t, w2)
    if not (
        all(x.dtype == f32 and x.flags.c_contiguous for x in operands)
        and coef.dtype == np.float64 and coef.flags.c_contiguous and coef.size == 5
        and volts.ndim == 2 and bias_t.ndim == 2 and v_norm.shape == volts.shape
        and v_frac.shape == (volts.shape[0], 1)
    ):
        return None
    n, rows = volts.shape
    hidden, cols = bias_t.shape
    if (
        rows < 1 or hidden < 1 or conductances.shape != (rows, cols)
        or w1v_t.shape != (rows, hidden) or w2.shape != (hidden,)
    ):
        return None
    out = np.empty((n, cols), dtype=np.float64)
    failed = _lib.geniex_currents(
        volts.ctypes.data, v_norm.ctypes.data, conductances.ctypes.data,
        w1v_t.ctypes.data, bias_t.ctypes.data, w2.ctypes.data, float(f32(b2)),
        v_frac.ctypes.data, coef.ctypes.data, out.ctypes.data,
        n, rows, cols, hidden, i_norm, target_std, target_mean, i_norm,
    )
    return None if failed else out


def dequant_dots(
    currents: np.ndarray,
    v_sum: np.ndarray,
    col_weight: np.ndarray,
    *,
    adc_bits: int | None,
    full_scale: float,
    lsb: float,
    g_min: float,
    denom: float,
    check: int = 0,
    sat_limit: float = 0.0,
) -> tuple[np.ndarray, bool] | None:
    """ADC quantization + dot recovery + column weighting in one pass.

    Equivalent to::

        q = np.rint(np.clip(currents, 0.0, full_scale) / lsb) * lsb
        dots = (q - g_min * v_sum) / denom
        return dots * col_weight

    with ``adc_bits is None`` skipping the quantization step, matching
    :func:`repro.xbar.adc.quantize_current`.  The same pass can probe
    tile health on the raw currents: ``check=1`` flags non-finite
    values, ``check=2`` additionally flags ``|I| > sat_limit``.

    Returns ``(weighted, sick)`` — the output is only valid when
    ``sick`` is False — or None to signal the caller to take the numpy
    path.
    """
    if not available():
        return None
    n, cols = currents.shape
    if not (
        currents.dtype == np.float64 and v_sum.dtype == np.float64
        and col_weight.dtype == np.float64 and v_sum.shape == (n, 1)
        and col_weight.shape == (cols,)
        and currents.flags.c_contiguous and v_sum.flags.c_contiguous
        and col_weight.flags.c_contiguous
    ):
        return None
    out = np.empty((n, cols), dtype=np.float64)
    sick = _lib.dequant_dots(
        currents.ctypes.data, v_sum.ctypes.data, col_weight.ctypes.data,
        out.ctypes.data, n, cols, 0 if adc_bits is None else 1,
        full_scale, lsb, g_min, denom, check, sat_limit,
    )
    return out, bool(sick)


def axpy_block(dst: np.ndarray, src: np.ndarray, a: float) -> bool:
    """``dst += a * src`` for 2-D float64 row-strided views.

    Avoids the ``a * src`` temporary of the numpy expression while
    keeping its two-roundings-per-element arithmetic.  Returns False
    (dst untouched) when the layouts don't qualify.
    """
    if not available():
        return False
    itemsize = 8
    if not (
        dst.dtype == np.float64 and src.dtype == np.float64
        and dst.ndim == 2 and dst.shape == src.shape
        and dst.strides[1] == itemsize and src.strides[1] == itemsize
        and dst.strides[0] % itemsize == 0 and src.strides[0] % itemsize == 0
    ):
        return False
    _lib.axpy2d(
        dst.ctypes.data, src.ctypes.data, a, dst.shape[0], dst.shape[1],
        dst.strides[0] // itemsize, src.strides[0] // itemsize,
    )
    return True


def adc_codes(currents: np.ndarray, out: np.ndarray, *, full_scale: float, lsb: float) -> bool:
    """Integer ADC read-out: ``out = rint(clip(I, 0, fs) / lsb)`` (int32).

    Non-finite currents read back as code 0 (see the C comment); the
    numpy fallback in the engine implements the identical rule.
    Returns False (out untouched) when the layouts don't qualify.
    """
    if not available():
        return False
    if not (
        currents.dtype == np.float64 and out.dtype == np.int32
        and out.shape == currents.shape
        and currents.flags.c_contiguous and out.flags.c_contiguous
    ):
        return False
    _lib.adc_codes(currents.ctypes.data, out.ctypes.data, currents.size, full_scale, lsb)
    return True


def int_axpy(dst: np.ndarray, src: np.ndarray, a: int) -> bool:
    """``dst += a * src`` for int64 dst / int32 src 2-D row-strided views.

    Exact integer arithmetic — identical to the numpy fallback by
    construction.  Returns False (dst untouched) when the layouts
    don't qualify.
    """
    if not available():
        return False
    if not (
        dst.dtype == np.int64 and src.dtype == np.int32
        and dst.ndim == 2 and dst.shape == src.shape
        and dst.strides[1] == 8 and src.strides[1] == 4
        and dst.strides[0] % 8 == 0 and src.strides[0] % 4 == 0
    ):
        return False
    _lib.int_axpy(
        dst.ctypes.data, src.ctypes.data, int(a), dst.shape[0], dst.shape[1],
        dst.strides[0] // 8, src.strides[0] // 4,
    )
    return True


def int_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Exact integer GEMM ``a @ b`` (int32 × int32 → int64), or None."""
    if not available():
        return None
    if not (
        a.dtype == np.int32 and b.dtype == np.int32
        and a.ndim == 2 and b.ndim == 2 and a.shape[1] == b.shape[0]
        and a.flags.c_contiguous and b.flags.c_contiguous
    ):
        return None
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.int64)
    _lib.int_dot(
        a.ctypes.data, b.ctypes.data, out.ctypes.data,
        a.shape[0], a.shape[1], b.shape[1],
    )
    return out
