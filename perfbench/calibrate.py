"""A fixed reference kernel that tracks the machine's momentary speed.

On a shared 2-vCPU Intel Xeon virtual machine, speed changes by up to
half within a process, in phases that last seconds, and between processes,
with CPU time equal to wall time.  Timing the kernel next to the program's
units and dividing it out cancels most of that drift.

The interference slows different kinds of work by different amounts, so
the kernel does the three kinds the program does between its Python lines:
interpreter work on small objects, dicts and strings; small dense linear
algebra (8x8 complex matmul and vdot, 4x4 Hermitian ``eigh``); and
vectorized sampling (10k-draw Philox ``choice`` and ``bincount``).  Each
part alone tracked some workload badly.  Spread of the unit median across
five or six seeds in one busy hour (quartile distance over median), every
kernel timed in the same runs:

    workload        raw    objects  8x8+dict/str  eigh+sampling  sum
    small_sweep     0.163  0.099    0.104         0.066          0.097
    verify_cli      0.273  0.105    0.154         0.061          0.068
    family_checks   0.166  0.047    0.055         0.075          0.024

The kernel never calls ``qcontour``, so no change to the program can
change it.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# bound now: a traced run replaces numpy.linalg.eigh to count the program's
# calls, and the kernel's own calls must not be counted
_eigh = np.linalg.eigh

#: the kernel's time at reference speed: about its median on a 2-vCPU
#: Intel Xeon virtual machine with Python 3.11, numpy 2.4.6 and OpenBLAS
#: 0.3.31 on one thread.  Calibrated times are "seconds at reference speed".
KERNEL_REF_S = 0.005

#: minimum time between two calibrations
EVERY_S = 0.1


class _Record:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def kernel_seconds() -> float:
    """Wall time of one pass of the reference kernel.

    The garbage collector is paused meanwhile: the kernel's own objects
    would otherwise start a collection whose length depends on what else
    the process holds, not on the machine's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel()
    finally:
        if enabled:
            gc.enable()


def _kernel() -> float:
    start = time.perf_counter()
    records = [_Record(i, (i, str(i))) for i in range(3000)]
    table = {r.key: r for r in records[::3]}
    acc = sum(len(r.value[1]) + r.key % 7 for r in records)
    acc += sum(r.key for r in table.values())
    counts: dict[int, int] = {}
    for i in range(4000):
        counts[i % 97] = counts.get(i % 97, 0) + i * 3
        acc += len(str(i))

    a = np.eye(8, dtype=complex) * (1 + 1j)
    v = np.ones(8, dtype=complex)
    for _ in range(500):
        acc += complex(np.vdot(v, a @ v)).real
    h = np.arange(16, dtype=float).reshape(4, 4)
    h = h + h.T + 0j
    for _ in range(75):
        w, _ = _eigh(h)
        acc += float(w[0])

    probs = np.full(8, 0.125)
    for i in range(4):
        rng = np.random.Generator(np.random.Philox(i))
        acc += int(np.bincount(rng.choice(8, size=10_000, p=probs))[0])
    return time.perf_counter() - start


class CalibratedClock:
    """Unit wall times, each scaled by the calibrations around its block.

    Call ``start`` before the first unit, ``record`` after every unit and
    ``finish`` after the last.  A calibration runs after a unit once
    ``EVERY_S`` has passed since the previous one; the units between two
    calibrations form a block, scaled by the mean of the two.
    """

    def __init__(self):
        self.walls: list[float] = []
        self.blocks: list[int] = []
        self.kernel: list[float] = []
        self._last = 0.0

    def _calibrate(self) -> None:
        self.kernel.append(kernel_seconds())
        self._last = time.perf_counter()

    def start(self) -> None:
        self._calibrate()

    def record(self, wall: float) -> None:
        self.walls.append(wall)
        self.blocks.append(len(self.kernel) - 1)
        if time.perf_counter() - self._last >= EVERY_S:
            self._calibrate()

    def finish(self) -> None:
        if not self.blocks or self.blocks[-1] == len(self.kernel) - 1:
            self._calibrate()

    def calibrated(self) -> list[float]:
        """Unit times in seconds at reference speed."""
        k = self.kernel
        return [w * 2.0 * KERNEL_REF_S / (k[b] + k[b + 1])
                for w, b in zip(self.walls, self.blocks)]
