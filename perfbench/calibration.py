"""Calibration loop: a fixed piece of work that measures the host's speed.

The benchmark runs on a shared host whose speed drifts by a quarter or
more within minutes, in step for the Python loops and the small dense
linear algebra the pipeline is made of. A slice of this loop mixes the two
kinds of work in about equal parts and never changes with the program. The
benchmark times slices between its repetitions; their trimmed mean over
``REFERENCE_SLICE_S`` is the host's slowdown during the run, and the
calibrated metrics are the measured ones scaled to the reference speed.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Mean slice time on the machine the bounds were set on (one vCPU of an
# Intel Xeon, Sapphire Rapids class); it only sets the scale.
REFERENCE_SLICE_S = 0.040
# share of the slowest and of the fastest slices left out of the mean
TRIM = 0.1

_rng = np.random.default_rng(20120701)
_Z = _rng.standard_normal((200, 96))
_y = _rng.standard_normal(200)
_v = _rng.standard_normal(64).tolist()


def _linear_algebra() -> float:
    acc = 0.0
    for k in range(40):
        Zc = _Z[:, k % 6 : k % 6 + 90]
        G = Zc.T @ Zc
        acc += np.linalg.slogdet(G)[1]
        acc += float(np.linalg.solve(G, Zc.T @ _y)[0])
        acc += float(np.linalg.cholesky(G)[-1, -1])
    return acc


def _interpreter() -> float:
    acc = 0.0
    v = _v
    for i in range(120000):
        x = v[i & 63]
        acc += x * x if i % 3 else math.sqrt(abs(x) + 1.0)
    return acc


def slice_seconds() -> float:
    """Wall time of one calibration slice."""
    t0 = time.perf_counter()
    _linear_algebra()
    _interpreter()
    return time.perf_counter() - t0


class Calibration:
    """Slice times collected over a run, and the slowdown they give."""

    def __init__(self):
        self.slices: list[float] = []

    def sample(self, count: int) -> None:
        self.slices += [slice_seconds() for _ in range(count)]

    def slowdown(self) -> float:
        """Trimmed mean slice time over the reference slice time."""
        ordered = sorted(self.slices)
        cut = int(len(ordered) * TRIM)
        return statistics.fmean(ordered[cut : len(ordered) - cut]) / REFERENCE_SLICE_S
