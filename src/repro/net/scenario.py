"""Declarative simulation scenarios: one frozen object per configuration.

A :class:`Scenario` freezes the complete configuration of one
:class:`~repro.net.network.NetworkSimulation` into a single immutable
value with explicit defaults, so that

* ``NetworkSimulation.from_scenario(scenario)`` builds a simulation from
  one object;
* ``dataclasses.replace(scenario, noise_rate=0.01, root_seed=3)``
  derives a grid point's variant without touching the other fields;
* a scenario can be passed around, stored on fixtures and compared
  (identity-wise) without consulting a constructor signature.

A scenario is *configuration*, not identity: it may hold live objects
(arrival processes, protocol factories, a monitor suite), so unlike
:class:`~repro.runtime.spec.RunSpec` it has no content hash and no
serialised form.  Specs name cacheable computations; scenarios describe
one concrete simulation build.
"""

from __future__ import annotations

import dataclasses
import typing
from collections.abc import Callable, Mapping

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.models import FaultPlan
    from repro.model.arrival import ArrivalProcess
    from repro.model.problem import HRTDMProblem
    from repro.model.source import SourceSpec
    from repro.net.phy import MediumProfile
    from repro.net.topology import Topology
    from repro.protocols.base import MACProtocol
    from repro.sim.invariants import MonitorSuite

__all__ = ["ProtocolFactory", "Scenario"]

#: Builds one MAC instance for a source (stations must not share MACs).
ProtocolFactory = Callable[["SourceSpec"], "MACProtocol"]


@dataclasses.dataclass(frozen=True)
class Scenario:
    """Everything that defines one simulation build, immutably.

    ``arrivals`` maps message-class name to an
    :class:`~repro.model.arrival.ArrivalProcess`; classes without an entry
    default to the greedy unimodal-arbitrary adversary saturating their
    declared (a, w) bound — the peak-load assumption of the feasibility
    analysis.  The mapping is copied into a plain dict at construction, so
    later mutation of the caller's mapping cannot leak into a frozen
    scenario.

    ``root_seed`` roots the run's
    :class:`~repro.sim.rng.SeedSequenceRegistry`; ``noise_seed`` is folded
    into the noise stream's name so existing callers that vary only the
    noise seed still get distinct corruption patterns.

    A scenario has no engine field: the run takes the ambient engine
    (:func:`repro.net.engine.use_engine`, ``batch`` outside any scope;
    a run the batch kernel cannot take says why in
    :attr:`RunResult.engine_fallback
    <repro.net.network.RunResult.engine_fallback>`).  Engines are
    result-equivalent: the same run under either yields byte-identical
    statistics, completions and flight-recorder dumps.

    ``faults`` arms a :class:`~repro.faults.models.FaultPlan` on the
    channel; ``None`` (default) picks up the ambient scoped plan
    (:func:`repro.faults.context.use_fault_plan` — how the experiments
    registry applies a spec's plan), pass an empty plan to force a
    fault-free run.  The injector draws from its own named registry
    stream, so arming faults never perturbs arrival or noise streams.

    ``monitors`` arms online invariant monitors
    (:mod:`repro.sim.invariants`): ``True`` for the standard suite, a
    :class:`~repro.sim.invariants.MonitorSuite` for a custom one,
    ``False`` for none.  The default ``None`` auto-arms the standard
    suite exactly when a fault plan is active, and the resulting
    :class:`~repro.sim.invariants.InvariantReport` lands in
    :attr:`RunResult.invariants
    <repro.net.network.RunResult.invariants>` — identical under every
    engine.

    A scenario has no telemetry field: the run records its instruments
    (:mod:`repro.obs`) into the ambient registry
    (:func:`repro.obs.context.use_telemetry`), the shared no-op
    :data:`~repro.obs.instruments.NULL_TELEMETRY` outside any scope.
    Whoever scopes the registry builds the run's manifest from it
    (:mod:`repro.obs.manifest`), as the runtime executor does for each
    spec execution.  Instrument values are a pure function of the run,
    identical under every engine.

    A scenario has no tracing field either: to trace a run, scope
    ``use_tracer(FlightRecorder(capacity=...))``
    (:func:`repro.obs.context.use_tracer`) around building and running
    it.  The channel picks the recorder up at construction and records
    busy slots and runs of silent slots into it; the idle leap stays on.
    """

    problem: "HRTDMProblem"
    medium: "MediumProfile"
    protocol_factory: ProtocolFactory
    arrivals: Mapping[str, "ArrivalProcess"] | None = None
    check_consistency: bool = False
    noise_rate: float = 0.0
    noise_seed: int = 0
    root_seed: int = 0
    faults: "FaultPlan | None" = None
    monitors: "bool | MonitorSuite | None" = None
    #: Namespace prefix for the run's telemetry instruments (the fabric
    #: gives each segment its own — ``seg0/slots/...``); the empty default
    #: keeps single-segment runs byte-identical to the historical names.
    telemetry_prefix: str = ""

    def __post_init__(self) -> None:
        if self.arrivals is not None:
            object.__setattr__(self, "arrivals", dict(self.arrivals))

    def as_topology(self, name: str = "seg0") -> "Topology":
        """This scenario as a one-segment :class:`~repro.net.topology.Topology`.

        The single-segment sugar of the fabric API: a
        :class:`~repro.net.fabric.Fabric` built from the result is
        byte-identical to ``NetworkSimulation.from_scenario(self)`` —
        stats, recorder dumps, telemetry content — under either engine (the
        differential suite holds the two surfaces together).
        """
        from repro.net.topology import SegmentSpec, Topology

        return Topology(
            segments=(
                SegmentSpec(
                    name=name,
                    problem=self.problem,
                    medium=self.medium,
                    protocol_factory=self.protocol_factory,
                    arrivals=self.arrivals,
                    noise_rate=self.noise_rate,
                    noise_seed=self.noise_seed,
                ),
            ),
            bridges=(),
            check_consistency=self.check_consistency,
            root_seed=self.root_seed,
            faults=self.faults,
            monitors=self.monitors,
        )
