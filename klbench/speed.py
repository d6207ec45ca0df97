"""A fixed machine-speed probe, for timings that do not swing with the host.

This VM's speed drifts with the load of its neighbours: the same solve, and
a pure-Python loop alike, took up to 1.8 times as long from one stretch of
seconds to the next. The probe below is a fixed mix of numpy on 200x200
arrays, like a solver sweep, and interpreter steps. Its temporaries are
above malloc's mmap threshold, so it page-faults as the solvers' m x n
temporaries do. It shares no code with the program, so a change to the
program cannot move it. It runs before and after every timed operation, and
the operation's time is scaled by ``REFERENCE_S`` over the mean of those two
probe times, which gives its time on a machine where the probe takes
``REFERENCE_S``. Over ten 30-second runs of each workload, the spread (IQR
over median) of the runs' medians was 0.05-0.18 raw and 0.03-0.09
normalized.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

#: Median probe time on the reference machine (see README.md).
REFERENCE_S = 0.03

_ARRAY_ROUNDS = 48
_LOOP_STEPS = 120_000


class Probe:
    """Numpy on cache-resident 200x200 arrays, then interpreter steps."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.uniform(0.1, 1.0, (200, 200))
        self._b = rng.uniform(0.1, 1.0, (200, 200))
        self._w = rng.uniform(0.0, 1.0, (10, 200))
        self.samples: list[float] = []

    def _work(self) -> float:
        total = 0.0
        for _ in range(_ARRAY_ROUNDS):
            ratio = self._a / self._b
            total += float((self._w @ ratio).sum()) + float(np.log(ratio).sum())
        acc = 0
        for step in range(_LOOP_STEPS):
            acc += step * step
        return total + acc

    def __call__(self) -> float:
        """Run the probe once; returns (and keeps) its wall time in seconds."""
        start = time.perf_counter()
        self._work()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed


def speed_factor(probe_times) -> float:
    """Scale that maps times measured alongside ``probe_times`` to the reference."""
    return REFERENCE_S / statistics.median(probe_times)
