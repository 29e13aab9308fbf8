"""Host-speed probe: a fixed piece of work that does not use the program.

On a shared host the CPU can run this benchmark's work at half speed for
minutes at a time, whatever the program does.  ``hil-pgd`` and
``serve-mixed`` time this probe between their units of measured work
(attack calls, closed-loop rounds) and scale each unit's rate
by ``probe seconds / NOMINAL_S``: the rate the unit would have had on a
host where the probe takes ``NOMINAL_S``.  Of the kinds of work tried
(interpreted Python, small and large float32 GEMMs, streaming and
random-access array passes, dict lookups, ``tanh``), interpreted Python
and random reads from a 2 MB table slowed the most with the host, though
still less than the workloads; the probe is mostly those two plus a few
small GEMMs.  A change to the program cannot change the probe, so every
change to the program's speed still shows in full.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: Median probe time on an otherwise idle 2-vCPU Intel Xeon virtual machine.
NOMINAL_S = 0.0157

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((512, 64)).astype(np.float32)
_B = _RNG.standard_normal((64, 32)).astype(np.float32)
_H = np.empty((512, 32), dtype=np.float32)
_TABLE = _RNG.standard_normal(1 << 19).astype(np.float32)  # 2 MB
_INDEX = _RNG.integers(0, _TABLE.size, size=1 << 16)
_GATHERED = np.empty(_INDEX.size, dtype=np.float32)


def _work() -> float:
    total = 0
    for i in range(60000):
        total += i * i % 7
    for _ in range(12):
        np.take(_TABLE, _INDEX, out=_GATHERED)
    for _ in range(75):
        np.matmul(_A, _B, out=_H)
        np.maximum(_H, 0.0, out=_H)
    return total + float(_GATHERED[0] + _H[0, 0])


def probe() -> float:
    """Seconds the fixed probe work takes right now.

    The probe allocates nothing the garbage collector tracks, and the
    collector is off while it runs, so the size of the calling process's
    heap does not change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Probe times around consecutive units of work, and the scale factor of each unit."""

    def __init__(self):
        self.probes = [probe()]

    def after_unit(self) -> float:
        """Probe once more; returns ``probe / NOMINAL_S`` for the unit just ended.

        The unit's probe time is the mean of the probes just before and
        just after it.
        """
        self.probes.append(probe())
        return (self.probes[-2] + self.probes[-1]) / 2.0 / NOMINAL_S
