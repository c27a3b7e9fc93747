"""Machine-speed calibration, so timings survive a shared host's slow phases.

On a shared machine the speed of one core drifts by tens of percent over
tens of seconds, as neighbours come and go, and flips between a fast and a
slow mode many times a second.  ``Sampler`` runs a fixed ~2 ms kernel that
uses no ``spinfringe`` code every ``PERIOD_S`` on a background thread of the
measuring process, which is pinned to one CPU, so the samples see the same
core at the same moments as the commands.  The kernel mixes what the
workloads do: vectorized cosines, small-array numpy calls in a Python loop,
17-digit float rendering and JSON rendering.

A time t measured over a window is reported as ``t * REFERENCE_S / k``,
with k the mean kernel time in that window: the time on a machine where
the kernel takes ``REFERENCE_S``.  A change to ``spinfringe`` moves t but
not k, so it shows in full.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time

import numpy as np

#: Kernel time that defines the reference machine speed (about its median
#: on a 2-vCPU shared x86-64 host with Python 3.11 and numpy 2.4).
REFERENCE_S = 0.003
PERIOD_S = 0.05

_SMALL = np.linspace(-3.0, 3.0, 400)
_GRID = np.linspace(-3.0, 3.0, 5000)
_ROTATION = np.array([[0.6, -0.8], [0.8, 0.6]])


def kernel() -> float:
    """Run the calibration work once; returns the CPU time it took this thread.

    CPU time, not wall time: when a command releases the GIL inside numpy
    the two threads share the CPU, and wall time would count the command.
    """
    t0 = time.thread_time()
    for k in range(1, 5):
        np.cos(_GRID * k).sum()
    v = np.array([1.0, 0.0])
    for _ in range(60):
        v = _ROTATION @ v
        np.kron(v, v)
    ",".join(f"{x:.16e}" for x in _SMALL[:150].tolist())
    json.dumps({"rows": [{"x": x, "y": x * x} for x in _SMALL[:30].tolist()]}, sort_keys=True, indent=2)
    return time.thread_time() - t0


def pin_to_one_cpu() -> None:
    """Restrict this process, and what it starts later, to one allowed CPU if it may."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass  # unpinned, the sampler may see another core; the times stay valid


class Sampler:
    """Times ``kernel`` every ``PERIOD_S`` on a daemon thread while in a ``with`` block."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end time, kernel time)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="calib-sampler", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            duration = kernel()
            self.samples.append((time.perf_counter(), duration))

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mean_between(self, start: float, end: float) -> tuple[float, int]:
        """(mean kernel time, sample count) of the samples taken in [start, end].

        A window too short to hold a sample falls back to the nearest one.
        """
        window = [d for t, d in self.samples if start <= t <= end]
        if not window:
            nearest = min(self.samples, key=lambda s: abs(s[0] - end), default=(end, REFERENCE_S))
            window = [nearest[1]]
        return statistics.fmean(window), len(window)
