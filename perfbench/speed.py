"""The machine's current speed, measured next to every timed sample.

On a shared machine the speed of one core drifts by up to 1.6x over
minutes, as other tenants' load comes and goes. Raw pass times from runs a
few minutes apart then differ by more than any useful regression bound.
So every timed sample (a pass, or a set-up probe) is bracketed by a fixed
calibration workload. The sample is reported scaled to the reference speed:

    scaled = raw * CALIBRATION_REF_S / mean(calibration before, after)

That is the time the sample would have taken on a machine that runs the
calibration in CALIBRATION_REF_S seconds. A change to toricflow cannot move
the calibration, so a scaled time moves 1:1 with the program's own cost.
The raw times are printed next to the scaled ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

CALIBRATION_REF_S = 0.1
_LOOP = 900_000
_ARRAY = 100_000
_SWEEPS = 90


def calibration_s() -> float:
    """Wall seconds of a fixed mix of interpreter and numpy work: 0.065 to
    0.1 s on the 2-core Xeon VM the benchmark was tuned on."""
    start = perf_counter()
    total = 0
    for i in range(_LOOP):
        total += i * i
    a = np.arange(_ARRAY, dtype=float)
    for _ in range(_SWEEPS):
        a = np.sqrt(a * 1.0001 + 1.0)
    return perf_counter() - start


class Bracket:
    """Calibrations around a sequence of back-to-back samples: the one
    after a sample is the one before the next."""

    def __init__(self):
        self._last = None

    def factor(self, sample):
        """Run `sample()`; return its result and the slowdown factor, the
        mean calibration around it over the reference."""
        before = self._last if self._last is not None else calibration_s()
        result = sample()
        self._last = calibration_s()
        return result, (before + self._last) / 2 / CALIBRATION_REF_S
