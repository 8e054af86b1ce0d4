"""Simulation substrate (built from scratch for this project).

One integer clock, :class:`Environment`, shared by the channels that run
side by side on it, with the per-slot round loop that steps them; plus
deterministic RNG streams and a running-statistics accumulator.  The
broadcast network simulator (:mod:`repro.net`) keeps its time on this
clock.
"""

from repro.sim.engine import Environment
from repro.sim.monitor import RunningStats
from repro.sim.rng import SeedSequenceRegistry

__all__ = [
    "Environment",
    "RunningStats",
    "SeedSequenceRegistry",
]
