"""The machine's speed, measured on the same core as the work it scales.

The 2-core VMs this benchmark was defined on change speed by up to 1.8x for
tens of seconds at a time, and the change is per core: a process on the
other core does not see it.  So the harness pins all of its processes to
one core and, between the operations it times, runs a fixed reference
computation that does not touch oscov.  An operation's time divided by the reference
time around it, times ``NOMINAL_S``, is the operation's time at a fixed
nominal speed: the speed at which the reference takes ``NOMINAL_S``.

The reference mixes the kinds of work oscov's operations do (interpreter
loops, numpy calls on small arrays, passes over arrays larger than the
cache, and FFTs), so that a slow spell stretches it by about as much as it
stretches them: within about 10 % in the slowest spells measured.
"""

from __future__ import annotations

import os
import time

import numpy as np

# A reference time typical of a 2-core Xeon VM, so that scaled times read
# as seconds on that machine.
NOMINAL_S = 0.035

# The shortest time between two reference measurements inside a cycle.
GAP_S = 0.4


class Reference:
    """A fixed computation, independent of oscov, whose time tracks the core's speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = np.linspace(0.1, 5.0, 90)
        self._big = rng.standard_normal((128, 64, 64))
        self._cube = rng.standard_normal((64, 64, 64))
        self()  # page in the arrays and warm the FFT plan cache

    def __call__(self) -> float:
        """Runs the computation once and returns its wall time in seconds."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += (i * 7) % 13
        x = self._small
        total = 0.0
        for i in range(600):
            y = np.exp(-x / 2.0) * np.cos(1.2 * x + i * 1e-3)
            total += float(np.sum(y * y))
        a = self._big
        for k in (1, 2, 3):
            d = a[k:] - a[:-k]
            total += float(np.mean(d * d))
        total += float(np.fft.irfftn(np.fft.rfftn(self._cube), self._cube.shape,
                                     axes=(0, 1, 2))[0, 0, 0])
        return time.perf_counter() - t0


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` at nominal speed, given the reference times around it."""
    return seconds * NOMINAL_S / (0.5 * (ref_before + ref_after))


def pin_to_one_core():
    """Pins this process, and every process it starts later, to one core.

    Where the affinity cannot be set, the processes stay unpinned.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
