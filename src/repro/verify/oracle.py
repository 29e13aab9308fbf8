"""Deliberately naive reference implementation of the analog MVM chain.

:class:`OracleEngine` re-implements the full PUMA-style pipeline —
weight quantization -> tiling -> bit-slicing -> differential programming
-> per-(bank, stream) analog evaluation -> ADC -> dummy-column
subtraction -> shift-and-add -> gain trim — as straight-line Python
loops, **independently of** :mod:`repro.xbar.simulator`.  It exists to
differentially test every fast path the production engine grew
(stacked-stream kernel, zero-row compaction, compiled C kernels, the
engine cache): the fast paths must reproduce the oracle *bit for bit*.

Independence boundary
---------------------
The oracle never imports the simulator module.  It deliberately shares
two primitives with it, because they are part of the numerical
contract rather than of the implementation under test:

* the **column predictor** itself (``prepare_crossbar`` /
  ``concat_bias`` / ``predict_from_bias``) — the analog backend is the
  function being wrapped, not a fast path.  Predictors promise
  per-row batch independence; the oracle leans on that promise when
  the engine regroups rows (stream stacking, zero-row compaction), and
  the compaction invariants test it.  The promise holds by
  construction: every predictor reduction is summed in the fixed
  order of :mod:`repro.xbar._ckernels` (ascending index, from the
  first product, one rounding per operation), never by BLAS, so a
  row's bits depend neither on its batch nor on the BLAS build or CPU.
  The predictor is itself pinned to a scalar-loop reference,
  :func:`naive_geniex_currents` / :func:`naive_ideal_currents` below;
* ``np.sum`` / ``np.mean`` pairwise reductions for per-row voltage
  sums, the gain statistics and GENIEx's mean drive ``v_frac``.
  Pairwise summation order is part of the contract: a naive
  left-to-right loop sum differs in the last ULPs, so the oracle pins
  the same reduction the periphery (engine) uses.

Everything else — quantization, slicing, tiling, ADC transfer, the
dequantization and shift-and-add accumulation — is explicit per-element
arithmetic in the engine's documented accumulation order (banks
ascending, streams ascending, chunks in column-tile x slice x +/- sign
order).  The guard's ideal digital fallback and the calibration ideal
go through the scalar-loop :func:`naive_ideal_currents`, so no BLAS
call is left on the contract.  Floating-point addition is not associative, so this order is
itself part of the contract the differential tests pin.

ULP-tolerance policy
--------------------
The oracle and the engine are expected to agree **exactly** (0 ULP) on
every path: all scale factors in the shift-and-add are powers of two
(exact), the per-element transforms are identical expressions, and the
accumulation orders match.  The comparison helpers in
:mod:`repro.verify.ulp` still measure ULP distance so a future,
documented relaxation is a one-line tolerance change rather than a
rewrite — any check that needs a nonzero tolerance must say why.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.xbar.faults import FaultModel, FaultSummary, TileHealthError
from repro.xbar.presets import CrossbarConfig

#: Per-column gain clip bounds.  Deliberately *redeclared* rather than
#: imported from the simulator: the bounds are part of the periphery
#: contract, and the differential tests fail loudly if the simulator's
#: ``GAIN_CLIP`` ever drifts from this value.
GAIN_CLIP = (0.25, 4.0)


# ----------------------------------------------------------------------
# Naive bit-manipulation helpers (pure-loop mirrors of repro.xbar.bitslice)
# ----------------------------------------------------------------------
def naive_slice_lsb_first(
    values: np.ndarray, total_bits: int, chunk_bits: int
) -> list[np.ndarray]:
    """Loop-based LSB-first slicing of unsigned integers."""
    values = np.asarray(values, dtype=np.int64)
    if total_bits % chunk_bits != 0:
        raise ValueError(f"chunk_bits {chunk_bits} must divide total_bits {total_bits}")
    mask = (1 << chunk_bits) - 1
    chunks = [np.zeros(values.shape, dtype=np.int64) for _ in range(total_bits // chunk_bits)]
    flat = values.reshape(-1)
    for k, chunk in enumerate(chunks):
        dst = chunk.reshape(-1)
        shift = k * chunk_bits
        for i in range(flat.size):
            dst[i] = (int(flat[i]) >> shift) & mask
    return chunks


def naive_reassemble(chunks: list[np.ndarray], chunk_bits: int) -> np.ndarray:
    """Loop-based shift-and-add inverse of :func:`naive_slice_lsb_first`."""
    first = np.asarray(chunks[0], dtype=np.int64)
    out = np.zeros(first.shape, dtype=np.int64)
    flat_out = out.reshape(-1)
    for k, chunk in enumerate(chunks):
        flat = np.asarray(chunk, dtype=np.int64).reshape(-1)
        shift = k * chunk_bits
        for i in range(flat.size):
            flat_out[i] += int(flat[i]) << shift
    return out


def naive_plane_split(
    magnitudes: np.ndarray, magnitude_bits: int, stream_bits: int
) -> list[np.ndarray]:
    """Loop-based LSB-first pulse-plane split (quantized path).

    Unlike :func:`naive_slice_lsb_first` the last plane may carry fewer
    than ``stream_bits`` significant bits, mirroring
    :func:`repro.xbar.quant.plane_split`.
    """
    magnitudes = np.asarray(magnitudes, dtype=np.int64)
    count = max(1, -(-magnitude_bits // stream_bits))
    mask = (1 << stream_bits) - 1
    planes = [np.zeros(magnitudes.shape, dtype=np.int64) for _ in range(count)]
    flat = magnitudes.reshape(-1)
    for k, plane in enumerate(planes):
        dst = plane.reshape(-1)
        shift = k * stream_bits
        for i in range(flat.size):
            dst[i] = (int(flat[i]) >> shift) & mask
    return planes


# ----------------------------------------------------------------------
# Scalar-loop predictor references (the fixed reduction order)
# ----------------------------------------------------------------------
def _ordered_dot(a: np.ndarray, b: np.ndarray, j: int, dtype) -> np.generic:
    """``sum_p a[p] * b[p, j]``: ascending ``p``, from the first product."""
    acc = dtype(a[0]) * dtype(b[0, j])
    for p in range(1, a.shape[0]):
        acc = acc + dtype(a[p]) * dtype(b[p, j])
    return acc


def naive_ideal_currents(voltages: np.ndarray, conductances: np.ndarray) -> np.ndarray:
    """Scalar-loop reference for :class:`IdealPredictor` (float64)."""
    v = np.atleast_2d(np.asarray(voltages, dtype=np.float64))
    g = np.asarray(conductances, dtype=np.float64)
    out = np.zeros((v.shape[0], g.shape[1]))
    for i in range(v.shape[0]):
        for c in range(g.shape[1]):
            out[i, c] = _ordered_dot(v[i], g, c, np.float64)
    return out


def _relu32(t: np.float32) -> np.float32:
    """``np.maximum(t, 0.0)``: NaN propagates, ``-0.0`` becomes ``+0.0``."""
    if t != t:
        return t
    return t if t > 0 else np.float32(0.0)


def naive_geniex_currents(
    geniex, voltages: np.ndarray, conductances: np.ndarray, used_cols: int | None = None
) -> np.ndarray:
    """Scalar-loop reference for ``GENIEx.prepare_crossbar`` + ``predict_from_bias``.

    Rebuilt from the raw trained parameters, one output element at a
    time, in the order the fast paths must follow:

    * ``bias[c,h] = sum_k feat[c,k] * w1g[h,k] + b1[h]`` (float32);
    * ``ideal[i,c] = sum_r v[i,r] * G[r,c]`` and
      ``hv[i,h] = sum_k v_norm[i,k] * w1v[h,k]`` (float32);
    * ``dev[i,c] = sum_h relu(hv[i,h] + bias[c,h]) * w2[h] + b2`` (float32);
    * the float64 polynomial-backbone tail.

    Every sum runs ascending from its first product with one rounding
    per multiply and per add.  The input normalization
    (``bias_feature_matrix``, ``v / v_read`` and the pairwise mean
    drive) is shared with the predictor as part of the contract.
    """
    f32 = np.float32
    rows = geniex.rows
    g = np.asarray(conductances, dtype=np.float64)
    used = g.shape[1] if used_cols is None else used_cols
    feats = geniex.bias_feature_matrix(g, geniex.device)  # (C, R + E)
    w1v = geniex.w1[:, :rows].T  # (R, H)
    w1g = geniex.w1[:, rows:].T  # (R + E, H)
    hidden = geniex.w1.shape[0]
    bias = np.zeros((used, hidden), dtype=f32)
    for c in range(used):
        for h in range(hidden):
            bias[c, h] = _ordered_dot(feats[c], w1g, h, f32) + geniex.b1[h]
    g32 = g[:, :used].astype(f32)
    v32 = np.atleast_2d(np.asarray(voltages, dtype=f32))
    v_norm = v32 / f32(geniex.device.v_read)
    v_frac = v_norm.mean(axis=1)
    coef = [float(x) for x in geniex.poly]
    i_norm = geniex._i_norm
    out = np.zeros((v32.shape[0], used))
    for i in range(v32.shape[0]):
        hv = [_ordered_dot(v_norm[i], w1v, h, f32) for h in range(hidden)]
        vf = float(v_frac[i])
        for c in range(used):
            ideal = _ordered_dot(v32[i], g32, c, f32)
            dev = _relu32(hv[0] + bias[c, 0]) * geniex.w2[0]
            for h in range(1, hidden):
                dev = dev + _relu32(hv[h] + bias[c, h]) * geniex.w2[h]
            dev = dev + f32(geniex.b2)
            dev = dev * f32(geniex.target_std)
            dev = dev + f32(geniex.target_mean)
            x = float(ideal / f32(i_norm))
            poly = coef[0] + coef[1] * x
            poly = poly + (coef[2] * x) * x
            poly = poly + coef[3] * vf
            poly = poly + (coef[4] * x) * vf
            out[i, c] = float(ideal) - (float(dev) + poly) * i_norm
    return out


# ----------------------------------------------------------------------
# Oracle data model
# ----------------------------------------------------------------------
@dataclass
class _OracleChunk:
    """One physical crossbar's used columns within a bank."""

    col_start: int  # first global output feature served
    col_stop: int
    slice_index: int  # weight slice, LSB first
    sign: float  # +1.0 positive array, -1.0 negative array
    offset: int  # first bank column
    width: int  # used columns


@dataclass
class _OracleBank:
    """All crossbars fed by one input-row segment."""

    handle: object  # predictor-prepared state for the used columns
    row_start: int
    row_stop: int
    chunks: list[_OracleChunk] = field(default_factory=list)
    total_cols: int = 0
    ideal_bias: np.ndarray | None = None  # fault-free conductances (guard fallback)


class OracleEngine:
    """Naive reference for ``x @ W.T`` on non-ideal crossbar hardware.

    Mirrors the construction semantics of the production engine —
    including fault injection, programming noise, guard fallback and
    probe-based gain calibration — but evaluates everything with the
    slowest possible code: one predictor call per (bank, stream), dense
    voltages, per-element ADC and dequantization.
    """

    def __init__(
        self,
        weight: np.ndarray,
        config: CrossbarConfig,
        predictor,
        rng: np.random.Generator | None = None,
    ):
        weight = np.asarray(weight)
        if weight.ndim != 2:
            raise ValueError(f"weight must be 2-D (out, in), got {weight.shape}")
        bs = config.bitslice
        dev = config.device
        if dev.levels_bits != bs.slice_bits:
            raise ValueError(
                f"device levels_bits ({dev.levels_bits}) must equal "
                f"bit-slice slice_bits ({bs.slice_bits})"
            )
        if config.quant.enabled and config.adc.bits is None:
            raise ValueError(
                f"quantized inference (quant.mode={config.quant.mode!r}) requires "
                "an ADC: the integer pulse-expansion path accumulates ADC codes, "
                "so adc.bits must be set"
            )
        self.config = config
        self.predictor = predictor
        self.out_features, self.in_features = weight.shape
        self._rng = rng or np.random.default_rng(0)
        self.guard_trips = 0
        self.fault_summary = FaultSummary()
        # Static input scale of the quantized mode; None keeps the
        # float path (mirrors CrossbarEngine.x_scale).
        self.x_scale: float | None = None

        # --- weight quantization (per element) -------------------------
        matrix = np.asarray(weight, dtype=np.float64).T  # (in, out)
        w_abs_max = 0.0
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[1]):
                w_abs_max = max(w_abs_max, abs(float(matrix[i, j])))
        self.w_scale = w_abs_max / (bs.weight_levels - 1) if w_abs_max > 0 else 1.0
        top = bs.weight_levels - 1
        pos_int = np.zeros(matrix.shape, dtype=np.int64)
        neg_int = np.zeros(matrix.shape, dtype=np.int64)
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[1]):
                v = float(matrix[i, j])
                pos_int[i, j] = int(np.clip(np.rint(max(v, 0.0) / self.w_scale), 0, top))
                neg_int[i, j] = int(np.clip(np.rint(max(-v, 0.0) / self.w_scale), 0, top))

        # --- tiling + slicing + differential programming ----------------
        rows_t, cols_t = config.rows, config.cols
        grid_rows = -(-self.in_features // rows_t)
        grid_cols = -(-self.out_features // cols_t)

        fault_model: FaultModel | None = None
        if config.faults.enabled:
            chip_token = int(self._rng.integers(0, 2**31 - 1))
            fault_model = FaultModel(config.faults, dev, chip_token)
        keep_ideal = config.guard.mode == "fallback"

        tile_index = 0
        self.banks: list[_OracleBank] = []
        for r in range(grid_rows):
            row_start = r * rows_t
            row_stop = min(row_start + rows_t, self.in_features)
            bank = _OracleBank(handle=None, row_start=row_start, row_stop=row_stop)
            handles: list = []
            ideal_handles: list[np.ndarray] = []
            offset = 0
            for c in range(grid_cols):
                col_start = c * cols_t
                col_stop = min(col_start + cols_t, self.out_features)
                used = col_stop - col_start
                pos_tile = self._extract_tile(pos_int, row_start, col_start, rows_t, cols_t)
                neg_tile = self._extract_tile(neg_int, row_start, col_start, rows_t, cols_t)
                pos_slices = naive_slice_lsb_first(pos_tile, bs.weight_bits, bs.slice_bits)
                neg_slices = naive_slice_lsb_first(neg_tile, bs.weight_bits, bs.slice_bits)
                for s in range(bs.num_slices):
                    for sign, levels in ((1.0, pos_slices[s]), (-1.0, neg_slices[s])):
                        conductances = self._program(levels)
                        if fault_model is not None:
                            conductances, tile_faults = fault_model.inject(
                                conductances, tile_index
                            )
                            self.fault_summary.merge(tile_faults)
                        tile_index += 1
                        handles.append(predictor.prepare_crossbar(conductances, used))
                        if keep_ideal:
                            ideal_handles.append(
                                self._ideal_conductances(levels)[:, :used]
                            )
                        bank.chunks.append(
                            _OracleChunk(
                                col_start=col_start,
                                col_stop=col_stop,
                                slice_index=s,
                                sign=sign,
                                offset=offset,
                                width=used,
                            )
                        )
                        offset += used
            bank.handle = predictor.concat_bias(handles)
            bank.total_cols = offset
            if keep_ideal:
                bank.ideal_bias = np.concatenate(ideal_handles, axis=1)
            self.banks.append(bank)

        self._adc_full_scale = config.rows * dev.g_max * dev.v_read
        self.gain = np.ones(self.out_features)
        if config.gain_calibration > 0:
            self.gain = self._calibrate_gain(weight, config.gain_calibration)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _extract_tile(
        matrix: np.ndarray, row_start: int, col_start: int, rows: int, cols: int
    ) -> np.ndarray:
        """Zero-padded (rows, cols) tile starting at (row_start, col_start)."""
        tile = np.zeros((rows, cols), dtype=np.int64)
        row_stop = min(row_start + rows, matrix.shape[0])
        col_stop = min(col_start + cols, matrix.shape[1])
        for i in range(row_stop - row_start):
            for j in range(col_stop - col_start):
                tile[i, j] = matrix[row_start + i, col_start + j]
        return tile

    def _ideal_conductances(self, levels: np.ndarray) -> np.ndarray:
        """Per-element ``g_min + level * g_step`` (the programming map)."""
        dev = self.config.device
        g = np.empty(levels.shape, dtype=np.float64)
        for i in range(levels.shape[0]):
            for j in range(levels.shape[1]):
                g[i, j] = dev.g_min + float(levels[i, j]) * dev.g_step
        return g

    def _program(self, levels: np.ndarray) -> np.ndarray:
        """Program one crossbar: ideal map plus optional write noise.

        The lognormal draw is a single array call so the oracle consumes
        the generator stream exactly as the engine does (RNG consumption
        order is part of the construction contract).
        """
        dev = self.config.device
        g = self._ideal_conductances(levels)
        if dev.program_sigma > 0:
            g = g * self._rng.lognormal(0.0, dev.program_sigma, size=g.shape)
            g = np.clip(g, dev.g_min, dev.g_max)
        return g

    def _calibrate_gain(self, weight: np.ndarray, num_vectors: int) -> np.ndarray:
        """Probe-based per-column gain fit (fixed RNG, shared reductions)."""
        rng = np.random.default_rng(12345)
        probes = rng.random((num_vectors, self.in_features))
        probes *= rng.random((num_vectors, self.in_features)) < 0.6
        analog = self._matvec_unsigned(probes)
        ideal = naive_ideal_currents(probes, np.asarray(weight, dtype=np.float64).T)
        sum_ai = np.sum(analog * ideal, axis=0)
        sum_aa = np.sum(analog * analog, axis=0)
        gains = np.divide(
            sum_ai, sum_aa, out=np.ones(self.out_features), where=sum_aa > 0
        )
        return np.clip(gains, *GAIN_CLIP)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Non-ideal ``x @ W.T`` including the digital gain trim."""
        return self.gain * self.matvec_raw(x)

    def matvec_raw(self, x: np.ndarray) -> np.ndarray:
        """Analog result before the gain trim (signed via two passes)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"input shape {x.shape} incompatible with in_features={self.in_features}"
            )
        if not np.isfinite(x).all():
            raise ValueError("oracle input contains non-finite values")
        if self.config.quant.enabled and self.x_scale is not None:
            return self._matvec_int(x)
        if (x >= 0).all():
            return self._matvec_unsigned(x)
        positive = self._matvec_unsigned(np.maximum(x, 0.0))
        negative = self._matvec_unsigned(np.maximum(-x, 0.0))
        return positive - negative

    def set_input_scale(self, scale: float) -> None:
        """Install the static input scale (mirrors the engine's setter)."""
        if not self.config.quant.enabled:
            raise ValueError("input scale is only meaningful with quant.mode enabled")
        scale = float(scale)
        if not scale > 0.0 or not np.isfinite(scale):
            raise ValueError(f"input scale must be positive and finite, got {scale}")
        self.x_scale = scale

    def _matvec_int(self, x: np.ndarray) -> np.ndarray:
        """Naive quantized-mode MVM: integer shift-and-add over ADC codes.

        Pins the integer path's numerical contract: activations
        quantize once against the static scale (per element), each
        sign-magnitude pass splits into LSB-first pulse planes, every
        (pass, bank, plane) evaluation's **raw** ADC codes accumulate
        into exact python-int matrices with power-of-two factors, and a
        single dequantization multiply recovers the output.  The
        ``G_min`` dummy-column term is common-mode across each
        differential tile pair (equal and opposite factors), so no
        per-evaluation subtraction appears anywhere.  Guard fallbacks
        accumulate exact integer ideal dot products in a separate
        matrix ``B``, dequantized by ``x_scale * w_scale`` alone.
        """
        qc = self.config.quant
        bs = self.config.bitslice
        dev = self.config.device
        adc = self.config.adc
        n = x.shape[0]
        out = np.zeros((n, self.out_features), dtype=np.float64)
        if n == 0:
            return out
        half = qc.half_level
        scale = self.x_scale
        codes = np.zeros(x.shape, dtype=np.int64)
        for i in range(n):
            for j in range(x.shape[1]):
                codes[i, j] = int(np.clip(np.rint(x[i, j] / scale), -half, half))

        rows = self.config.rows
        v_step = dev.v_read / (qc.plane_levels - 1)
        full_scale = adc.full_scale_fraction * self._adc_full_scale
        lsb = full_scale / (2**adc.bits - 1)
        denom = dev.g_step * v_step

        A = [[0] * self.out_features for _ in range(n)]
        B = [[0] * self.out_features for _ in range(n)]
        any_fallback = False
        passes = [1] + ([-1] if bool((codes < 0).any()) else [])
        for sign in passes:
            mags = np.maximum(sign * codes, 0)
            if not mags.any():
                continue
            planes = naive_plane_split(mags, qc.magnitude_bits, qc.stream_bits)
            for bank in self.banks:
                width = bank.row_stop - bank.row_start
                for t, plane in enumerate(planes):
                    seg = plane[:, bank.row_start : bank.row_stop]
                    if not seg.any():
                        continue  # an all-zero plane drives no voltage
                    voltages = np.zeros((n, rows), dtype=np.float64)
                    for i in range(n):
                        for j in range(width):
                            voltages[i, j] = float(seg[i, j]) * v_step
                    currents = self.predictor.predict_from_bias(voltages, bank.handle)
                    fallback = self._guard_mask(currents, bank)
                    # Whole differential column groups fall back
                    # together (a lone pos/neg array would break the
                    # common-mode cancellation).
                    marked: set[tuple[int, int]] = set()
                    if fallback is not None:
                        marked = {
                            (c.col_start, c.col_stop)
                            for c in bank.chunks
                            if fallback[c.offset]
                        }
                    for chunk in bank.chunks:
                        factor = (
                            int(sign)
                            * int(chunk.sign)
                            * (1 << (bs.slice_bits * chunk.slice_index + qc.stream_bits * t))
                        )
                        if (chunk.col_start, chunk.col_stop) in marked:
                            any_fallback = True
                            for i in range(n):
                                for k in range(chunk.width):
                                    dot = 0
                                    for j in range(width):
                                        level = int(
                                            np.rint(
                                                (
                                                    bank.ideal_bias[j, chunk.offset + k]
                                                    - dev.g_min
                                                )
                                                / dev.g_step
                                            )
                                        )
                                        dot += int(seg[i, j]) * level
                                    B[i][chunk.col_start + k] += factor * dot
                        else:
                            for i in range(n):
                                for k in range(chunk.width):
                                    current = currents[i, chunk.offset + k]
                                    if not np.isfinite(current):
                                        code = 0  # a dead ADC lane reads zero
                                    else:
                                        code = int(
                                            np.rint(np.clip(current, 0.0, full_scale) / lsb)
                                        )
                                    A[i][chunk.col_start + k] += factor * code
        k_dot = scale * self.w_scale
        k_code = k_dot * (lsb / denom)
        for i in range(n):
            for o in range(self.out_features):
                val = float(A[i][o]) * k_code
                if any_fallback:
                    val += float(B[i][o]) * k_dot
                out[i, o] = val
        return out

    def _matvec_unsigned(self, x: np.ndarray) -> np.ndarray:
        bs = self.config.bitslice
        dev = self.config.device
        n = x.shape[0]
        out = np.zeros((n, self.out_features), dtype=np.float64)
        if n == 0:
            return out
        x_max = float(x.max())
        if x_max == 0.0:
            return out
        x_lsb = x_max / (bs.input_levels - 1)
        top = bs.input_levels - 1
        x_int = np.zeros(x.shape, dtype=np.int64)
        for i in range(n):
            for j in range(x.shape[1]):
                x_int[i, j] = int(np.clip(np.rint(x[i, j] / x_lsb), 0, top))
        streams = naive_slice_lsb_first(x_int, bs.input_bits, bs.stream_bits)

        rows = self.config.rows
        v_step = dev.v_read / (bs.stream_levels - 1)
        for bank in self.banks:
            width = bank.row_stop - bank.row_start
            for t, stream in enumerate(streams):
                seg = stream[:, bank.row_start : bank.row_stop]
                if not seg.any():
                    continue  # an all-zero stream drives no voltage
                voltages = np.zeros((n, rows), dtype=np.float64)
                for i in range(n):
                    for j in range(width):
                        voltages[i, j] = float(seg[i, j]) * v_step
                currents = self.predictor.predict_from_bias(voltages, bank.handle)
                fallback = self._guard_mask(currents, bank)
                quantized = self._adc(currents)
                if fallback is not None:
                    # Ideal digital fallback: exact integer partial
                    # products via the fault-free conductances, summed
                    # in the fixed ascending order.
                    quantized[:, fallback] = naive_ideal_currents(
                        voltages, bank.ideal_bias[:, fallback]
                    )
                stream_scale = float(2.0 ** (bs.stream_bits * t))
                for i in range(n):
                    # Pairwise np.sum: the row-voltage reduction is part
                    # of the shared numerical contract (see module doc).
                    v_sum = float(voltages[i].sum())
                    for chunk in bank.chunks:
                        significance = float(2.0 ** (bs.slice_bits * chunk.slice_index))
                        factor = chunk.sign * significance * stream_scale
                        for k in range(chunk.width):
                            current = quantized[i, chunk.offset + k]
                            dot = (current - dev.g_min * v_sum) / (dev.g_step * v_step)
                            out[i, chunk.col_start + k] += factor * dot
        return out * (x_lsb * self.w_scale)

    def _adc(self, currents: np.ndarray) -> np.ndarray:
        """Per-element ADC transfer: clip to full scale, round to LSB."""
        adc = self.config.adc
        if adc.bits is None:
            return np.array(currents, dtype=np.float64, copy=True)
        full_scale = adc.full_scale_fraction * self._adc_full_scale
        lsb = full_scale / (2**adc.bits - 1)
        out = np.empty(currents.shape, dtype=np.float64)
        for i in range(currents.shape[0]):
            for j in range(currents.shape[1]):
                clipped = np.clip(currents[i, j], 0.0, full_scale)
                out[i, j] = np.rint(clipped / lsb) * lsb
        return out

    def _guard_mask(self, currents: np.ndarray, bank: _OracleBank) -> np.ndarray | None:
        """Naive mirror of the engine's tile-health guard semantics."""
        guard = self.config.guard
        if not guard.active:
            return None
        sick = ~np.isfinite(currents)
        if guard.saturation_factor is not None:
            limit = guard.saturation_factor * self._adc_full_scale
            sick |= np.abs(currents) > limit
        if not sick.any():
            return None
        self.guard_trips += 1
        if guard.mode == "raise":
            raise TileHealthError("oracle: crossbar tile output unhealthy")
        if guard.mode != "fallback":
            return None  # warn: keep the analog values
        sick_cols = sick.any(axis=0)
        fallback = np.zeros_like(sick_cols)
        for chunk in bank.chunks:
            span = slice(chunk.offset, chunk.offset + chunk.width)
            if sick_cols[span].any():
                fallback[span] = True
        return fallback
