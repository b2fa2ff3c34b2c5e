"""Host-speed probe: a fixed numpy computation timed between operations.

The shared VM this benchmark was tuned on changes speed in steps that last
seconds to many minutes, by up to a third, and a whole run can fall in a
slow or a fast stretch.  The probe measures that speed with code that is
not the library's: the broadcast multiply-accumulate over 4x4 tiles that
the fine4 kernel is made of, once on normal floats and once on floats
whose products are subnormal (decay products underflow at n = 1024, and
subnormal arithmetic is what slows most with the host).  Its inputs are
fixed, so it does the same work in every run of every commit.

`scale()` turns a run's times into seconds at the reference speed,
REFERENCE_S / mean probe time.  The correction assumes the library does
not change the process's floating-point environment; `run()` fails if
subnormal products flush to zero.
"""

from __future__ import annotations

import math
import time

import numpy as np

from checks import CheckFailed
from spans import mean

TILES = 2048          # tile pairs per pass
TINY = 1e-20          # both factors scaled: products near 1e-40, subnormal in float32
REFERENCE_S = 0.065   # mean probe time on the 2-vCPU VM of README.md


def _mac(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """acc[g,p,q,i,j] = sum over r,k of x[g,p,r,i,k] y[g,r,q,k,j], float32."""
    acc = np.zeros((x.shape[0], 4, 4, 4, 4), np.float32)
    for r in range(4):
        for k in range(4):
            acc += x[:, :, r, :, k][:, :, None, :, None] * y[:, r, :, k, :][:, None, :, None, :]
    return acc


class Probe:
    def __init__(self):
        x, y = np.random.default_rng(0).random((2, TILES, 4, 4, 4, 4), dtype=np.float32) + 0.5
        tiny = np.float32(TINY)
        self.passes = ((x, y), (x * tiny, y * tiny))
        self.times: list[float] = []

    def run(self) -> None:
        """One probe: both passes, recorded as their geometric mean."""
        seconds = []
        for x, y in self.passes:
            t0 = time.perf_counter()
            acc = _mac(x, y)
            seconds.append(time.perf_counter() - t0)
        if not acc.all():
            raise CheckFailed("subnormal products flushed to zero; the probe no longer "
                              "measures the host, so times cannot be scaled")
        self.times.append(math.sqrt(seconds[0] * seconds[1]))

    def scale(self) -> float:
        return REFERENCE_S / mean(self.times)
