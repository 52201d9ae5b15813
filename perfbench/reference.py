"""Fixed reference computations, timed next to every measured interval, so
that the interval can be expressed in units of the reference's own time.

The benchmark's host shares its cores with other tenants, and its speed
drifts by up to 1.7x over tens of seconds while the benchmark holds the
CPU the whole time.  A time divided by the reference time measured around
it cancels most of that drift, provided the reference does the same kind
of work.  Serial in-process work (`threshold`) is compared with
`reference_kernel`, a Python loop over complex phases and binomials plus
small dense least-squares solves; work on paradist's 8-thread pools
(`scan`) with `pooled_reference_kernel`; fresh `paradist` processes (`cli`)
with `StartupReference`, a fresh interpreter that imports numpy.  None
uses paradist, so no change to the program can move them.
"""

from __future__ import annotations

import bisect
import cmath
import math
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_RNG = np.random.default_rng(20261017)
_A = _RNG.standard_normal((27, 91))
_B = _RNG.standard_normal(27)


def reference_kernel(loops: int = 6) -> float:
    """About 7 ms of work on the 2-core Xeon host, with the default loops."""
    acc = 0j
    for _ in range(loops):
        for j in range(13):
            for k in range(91):
                acc += math.comb(12, j % 7) * (-1) ** k * cmath.exp(1j * 1e-3 * (j + k))
    for cols in range(5, 45):
        sol, *_ = np.linalg.lstsq(_A[:, :cols], _B, rcond=None)
        acc += float(np.min(sol)) + float(np.linalg.norm(_B - _A[:, :cols] @ sol))
    return acc.real


def pooled_reference_kernel() -> None:
    """The reference kernel split over an 8-thread pool, as paradist's own
    pools split a scan over grid points."""
    with ThreadPoolExecutor(max_workers=8) as pool:
        for future in [pool.submit(reference_kernel, 3) for _ in range(8)]:
            future.result()


class StartupReference:
    """A fresh interpreter that imports numpy and exits."""

    def __init__(self, cwd, env: dict):
        self.cwd, self.env = cwd, env

    def __call__(self) -> None:
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=self.cwd, env=self.env,
                       check=True, capture_output=True, timeout=120)


class Calibrator:
    """Times a reference on demand and looks up the reference time around a
    measured interval."""

    def __init__(self, reference):
        self.reference = reference
        self.ticks: list[tuple[float, float]] = []  # (start, seconds)

    def tick(self) -> None:
        start = time.perf_counter()
        self.reference()
        self.ticks.append((start, time.perf_counter() - start))

    def around(self, start: float, wall: float) -> float:
        """Mean time of the last tick before the interval and the first after it."""
        starts = [t for t, _ in self.ticks]
        before = bisect.bisect_right(starts, start) - 1
        after = bisect.bisect_left(starts, start + wall)
        near = [self.ticks[k][1] for k in (before, after) if 0 <= k < len(self.ticks)]
        if not near:
            raise ValueError("no reference tick around the interval")
        return sum(near) / len(near)
