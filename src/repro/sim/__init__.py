"""Discrete-event simulation substrate (built from scratch for this project).

A compact generator-based kernel in the SimPy tradition: processes yield
:class:`Event` objects and the :class:`Environment` drives the event queue,
plus deterministic RNG streams and a running-statistics accumulator.  The
broadcast network simulator (:mod:`repro.net`) runs entirely on this
kernel.
"""

from repro.sim.engine import Environment
from repro.sim.errors import Interrupt, SimulationError, StopSimulation
from repro.sim.events import AllOf, AnyOf, Condition, Event, Timeout
from repro.sim.monitor import RunningStats
from repro.sim.process import Process, ProcessGenerator
from repro.sim.rng import SeedSequenceRegistry

__all__ = [
    "Environment",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "AllOf",
    "AnyOf",
    "Condition",
    "Event",
    "Timeout",
    "RunningStats",
    "Process",
    "ProcessGenerator",
    "SeedSequenceRegistry",
]
