"""Arrival processes for HRTDM message classes.

Section 2.2 argues that realistic network-layer arrivals are neither
periodic nor Poisson and adopts the *unimodal arbitrary* model: any pattern
bounded by ``a`` arrivals per sliding window ``w``.  This module provides:

* :class:`PeriodicArrivals` / :class:`SporadicArrivals` — classic models,
  included both as baselines and because both *are* admissible unimodal
  arbitrary patterns (with suitable (a, w));
* :class:`PoissonArrivals` — the stochastic model the paper warns about;
  deliberately NOT density-bounded, used to show what the FCs do not cover;
* :class:`GreedyBurstArrivals` — the adversary: saturates the (a, w) bound
  at every instant (a-sized burst, then just outside the window, again);
* :class:`JitteredPeriodicArrivals` — periodic plus bounded release jitter,
  the "transit times are inevitably variable" motivation of section 2.2;
* :class:`TraceArrivals` — replay of an explicit list.

Every generator is deterministic given its seed, and yields nondecreasing
integer arrival times (bit-times).  Stochastic generators draw from a
named :class:`~repro.sim.rng.SeedSequenceRegistry` stream derived from
their ``seed`` (or from an explicitly supplied stream), so adding another
random consumer to a simulation never perturbs existing draws.
"""

from __future__ import annotations

import abc
import dataclasses
import random
import typing
from collections.abc import Iterator, Sequence

from repro.model.message import DensityBound
from repro.model.units import BitTime
from repro.sim.rng import SeedSequenceRegistry

__all__ = [
    "ArrivalProcess",
    "PeriodicArrivals",
    "SporadicArrivals",
    "JitteredPeriodicArrivals",
    "PoissonArrivals",
    "GreedyBurstArrivals",
    "TraceArrivals",
    "take_until",
]


class ArrivalProcess(abc.ABC):
    """A (possibly infinite) nondecreasing stream of arrival times."""

    #: Whether :meth:`times` draws from a random stream.  An orchestrator
    #: builds no stream for a process that never does; a process that
    #: does not say keeps its stream.
    draws: typing.ClassVar[bool] = True

    @abc.abstractmethod
    def times(self, rng: random.Random | None = None) -> Iterator[BitTime]:
        """Yield arrival times in nondecreasing order, from time 0 onward.

        ``rng`` lets an orchestrator (e.g.
        :class:`~repro.net.network.NetworkSimulation`) supply a dedicated
        registry stream; deterministic processes ignore it.
        """

    def _stream(self, rng: random.Random | None, name: str) -> random.Random:
        """``rng`` if supplied, else this process's own registry stream."""
        if rng is not None:
            return rng
        seed = int(getattr(self, "seed", 0))
        return SeedSequenceRegistry(seed).stream(f"arrivals/{name}")

    def implied_bound(self) -> DensityBound | None:
        """The (a, w) density bound this process is guaranteed to respect.

        ``None`` means no finite guarantee (e.g. Poisson) — such a process
        is outside <m.HRTDM> and the feasibility conditions do not apply.
        """
        return None


def take_until(
    process: ArrivalProcess,
    horizon: BitTime,
    rng: random.Random | None = None,
) -> list[BitTime]:
    """Materialise all arrivals strictly before ``horizon``."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    out: list[BitTime] = []
    for t in process.times(rng):
        if t >= horizon:
            break
        out.append(t)
    return out


@dataclasses.dataclass(frozen=True, slots=True)
class PeriodicArrivals(ArrivalProcess):
    """Strictly periodic arrivals: ``phase, phase + period, ...``."""

    draws = False

    period: BitTime
    phase: BitTime = 0

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if self.phase < 0:
            raise ValueError(f"phase must be >= 0, got {self.phase}")

    def times(self, rng: random.Random | None = None) -> Iterator[BitTime]:
        t = self.phase
        while True:
            yield t
            t += self.period

    def implied_bound(self) -> DensityBound:
        return DensityBound(a=1, w=self.period)


@dataclasses.dataclass(frozen=True, slots=True)
class SporadicArrivals(ArrivalProcess):
    """Sporadic arrivals: random gaps, never closer than ``min_interarrival``.

    Gap = ``min_interarrival + Geometric(extra)`` (integer slack), seeded.
    """

    min_interarrival: BitTime
    mean_slack: float
    seed: int = 0
    phase: BitTime = 0

    def __post_init__(self) -> None:
        if self.min_interarrival < 1:
            raise ValueError(
                f"min_interarrival must be >= 1, got {self.min_interarrival}"
            )
        if self.mean_slack < 0:
            raise ValueError(f"mean_slack must be >= 0, got {self.mean_slack}")

    def times(self, rng: random.Random | None = None) -> Iterator[BitTime]:
        rng = self._stream(rng, "sporadic")
        t = self.phase
        while True:
            yield t
            slack = 0
            if self.mean_slack > 0:
                slack = round(rng.expovariate(1.0 / self.mean_slack))
            t += self.min_interarrival + slack

    def implied_bound(self) -> DensityBound:
        return DensityBound(a=1, w=self.min_interarrival)


@dataclasses.dataclass(frozen=True, slots=True)
class JitteredPeriodicArrivals(ArrivalProcess):
    """Periodic releases delayed by bounded jitter in ``[0, jitter]``.

    Models section 2.2's point that OS/stack layers make submission times
    variable even for periodic tasks.  With jitter J, the stream respects
    ``a = ceil((J + period) / period)`` arrivals per window ``period``
    in the worst case; we report the simple safe bound (2, period) when
    ``jitter < period``.
    """

    period: BitTime
    jitter: BitTime
    seed: int = 0
    phase: BitTime = 0

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if not 0 <= self.jitter < self.period:
            raise ValueError(
                f"jitter must be in [0, period), got {self.jitter}"
            )

    def times(self, rng: random.Random | None = None) -> Iterator[BitTime]:
        rng = self._stream(rng, "jittered-periodic")
        release = self.phase
        previous = -1
        while True:
            t = release + rng.randint(0, self.jitter)
            if t < previous:  # keep the stream nondecreasing
                t = previous
            previous = t
            yield t
            release += self.period

    def implied_bound(self) -> DensityBound:
        if self.jitter == 0:
            return DensityBound(a=1, w=self.period)
        return DensityBound(a=2, w=self.period)


@dataclasses.dataclass(frozen=True, slots=True)
class PoissonArrivals(ArrivalProcess):
    """Poisson arrivals with mean interarrival ``mean_interarrival``.

    No finite (a, w) bound exists — :meth:`implied_bound` returns ``None``.
    Included to reproduce the paper's argument that stochastic models give
    no hard guarantee.
    """

    mean_interarrival: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mean_interarrival <= 0:
            raise ValueError(
                f"mean_interarrival must be > 0, got {self.mean_interarrival}"
            )

    def times(self, rng: random.Random | None = None) -> Iterator[BitTime]:
        rng = self._stream(rng, "poisson")
        t = 0
        while True:
            t += max(1, round(rng.expovariate(1.0 / self.mean_interarrival)))
            yield t

    def implied_bound(self) -> None:
        return None


@dataclasses.dataclass(frozen=True, slots=True)
class GreedyBurstArrivals(ArrivalProcess):
    """The unimodal-arbitrary adversary: saturate ``(a, w)`` forever.

    Emits ``a`` back-to-back arrivals at ``phase``, then the next burst of
    ``a`` exactly ``w`` bit-times after the previous burst started — the
    densest pattern the bound admits.  The feasibility conditions assume
    precisely this peak load; tests check :meth:`DensityBound.admits`.
    """

    draws = False

    bound: DensityBound
    phase: BitTime = 0
    burst_spacing: BitTime = 0

    def __post_init__(self) -> None:
        if self.phase < 0:
            raise ValueError(f"phase must be >= 0, got {self.phase}")
        if self.burst_spacing < 0:
            raise ValueError(
                f"burst_spacing must be >= 0, got {self.burst_spacing}"
            )
        if self.burst_spacing * (self.bound.a - 1) >= self.bound.w:
            raise ValueError("burst_spacing spreads the burst beyond the window")

    def times(self, rng: random.Random | None = None) -> Iterator[BitTime]:
        start = self.phase
        while True:
            for i in range(self.bound.a):
                yield start + i * self.burst_spacing
            start += self.bound.w

    def implied_bound(self) -> DensityBound:
        return self.bound


@dataclasses.dataclass(frozen=True, slots=True)
class TraceArrivals(ArrivalProcess):
    """Replay an explicit arrival-time list (must be nondecreasing)."""

    draws = False

    trace: Sequence[BitTime]

    def __post_init__(self) -> None:
        previous = -1
        for t in self.trace:
            if t < previous:
                raise ValueError("trace must be nondecreasing")
            if t < 0:
                raise ValueError("trace times must be >= 0")
            previous = t

    def times(self, rng: random.Random | None = None) -> Iterator[BitTime]:
        yield from self.trace
