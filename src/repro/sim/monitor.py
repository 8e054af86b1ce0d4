"""Streaming scalar statistics for the metrics layer.

:class:`RunningStats` is a small, dependency-free accumulator; the
histograms the run instruments record live in
:mod:`repro.obs.instruments`.
"""

from __future__ import annotations

import math

__all__ = ["RunningStats"]


class RunningStats:
    """Streaming count/mean/variance/min/max (Welford's algorithm)."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0 if self.count else math.nan
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance) if self.count else math.nan

