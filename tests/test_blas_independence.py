"""Predictor outputs do not depend on the BLAS kernel the CPU selects.

A DYNAMIC_ARCH OpenBLAS picks its GEMM/GEMV micro-kernels at load time
from the detected CPU, and ``OPENBLAS_CORETYPE`` overrides that choice.
Different micro-kernels split sums differently, so any predictor
reduction left to BLAS would change its last bits between machines.
This test evaluates the GENIEx and ideal backends in fresh processes
under several core types and demands one output digest.  Each process
also checks that the compiled kernels and their numpy twins agree.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

pytestmark = pytest.mark.fast

REPO = Path(__file__).resolve().parents[1]

CORETYPES = (None, "Prescott", "Nehalem", "Haswell")

_DIGEST_SCRIPT = r"""
import hashlib
import numpy as np
from repro.xbar import _ckernels
from repro.xbar.presets import crossbar_preset, load_or_train_geniex
from repro.xbar.simulator import IdealPredictor

config = crossbar_preset("64x64_100k")
dev = config.device
rng = np.random.default_rng(20)
tiles = [
    dev.g_min + rng.integers(0, 4, size=(config.rows, config.cols)) * dev.g_step
    for _ in range(3)
]
volts = rng.random((97, config.rows)) * dev.v_read
volts[rng.random(volts.shape) < 0.4] = 0.0


def digest():
    h = hashlib.sha256()
    for predictor in (load_or_train_geniex(config), IdealPredictor()):
        bank = predictor.concat_bias(
            [predictor.prepare_crossbar(g, config.cols - i) for i, g in enumerate(tiles)]
        )
        for rows in (slice(0, 1), slice(0, 7), slice(None)):
            h.update(np.ascontiguousarray(predictor.predict_from_bias(volts[rows], bank)).tobytes())
    return h.hexdigest()


compiled = digest()
_ckernels._lib = None  # the numpy twins
assert digest() == compiled, "compiled kernels and numpy twins disagree"
print(compiled)
"""


def _dynamic_openblas() -> str | None:
    """Why the test can't run here, or None when it can."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS configuration"
    config = str(blas.get("openblas configuration", ""))
    if "openblas" not in str(blas.get("name", "")).lower() or "DYNAMIC_ARCH" not in config:
        return f"numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS ({blas.get('name')})"
    return None


@pytest.mark.skipif(_dynamic_openblas() is not None, reason=str(_dynamic_openblas()))
def test_predictor_digest_is_identical_across_openblas_coretypes() -> None:
    digests = {}
    for coretype in CORETYPES:
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
        )
        env["OPENBLAS_NUM_THREADS"] = "1"
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        result = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        digests[coretype or "default"] = result.stdout.strip()
    assert len(set(digests.values())) == 1, digests
