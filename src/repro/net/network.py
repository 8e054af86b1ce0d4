"""Simulation orchestration: problem + medium + protocol -> results.

Builds a :class:`~repro.net.channel.BroadcastChannel` with one station per
HRTDM source, feeds each message class from an arrival process, runs the
channel to a horizon on the ambient engine and returns a :class:`RunResult`
with completions, backlog, channel statistics and (for DDCR) the per-run
tree-search records the bounds analysis consumes.

All randomness in a run flows from one
:class:`~repro.sim.rng.SeedSequenceRegistry` rooted at ``root_seed``:
each (station, class) arrival process and the channel's noise source draw
from their own named streams, so runs are reproducible per root seed and
adding a consumer never perturbs the other streams.  A simulation is
described by plain picklable inputs (problem, medium profile, seeds); the
runtime layer (:mod:`repro.runtime`) exploits this to rebuild and execute
runs inside worker processes from declarative specs.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

from repro.faults.context import current_fault_plan
from repro.model.arrival import GreedyBurstArrivals
from repro.model.source import SourceSpec
from repro.net.channel import BroadcastChannel, ChannelStats
from repro.net.scenario import ProtocolFactory, Scenario
from repro.net.station import CompletionRecord, Station
from repro.obs.context import current_telemetry
from repro.obs.instruments import SEARCH_DEPTH_EDGES, Telemetry
from repro.sim.engine import Environment
from repro.sim.invariants import InvariantReport, MonitorSuite, standard_suite
from repro.sim.rng import SeedSequenceRegistry

__all__ = ["RunResult", "NetworkSimulation", "ProtocolFactory", "Scenario"]


@dataclasses.dataclass
class RunResult:
    """Everything a simulation run produced.

    The aggregate views (:attr:`completions`, :attr:`delivered`,
    :attr:`dropped`) are cached on first access: station records do not
    change once the run has finished, and the metrics layer reads them
    repeatedly.
    """

    horizon: int
    stations: list[Station]
    stats: ChannelStats
    #: Invariant-monitor report (:mod:`repro.sim.invariants`); ``None``
    #: when the run had no monitors armed.
    invariants: InvariantReport | None = None
    #: Why the batch kernel did not run (the channel's fallback note),
    #: ``None`` when it ran or was not requested.
    engine_fallback: str | None = None

    @functools.cached_property
    def completions(self) -> list[CompletionRecord]:
        """All completions across stations, in completion-time order."""
        records = [
            record
            for station in self.stations
            for record in station.completions
        ]
        records.sort(key=lambda r: r.completion)
        return records

    @functools.cached_property
    def delivered(self) -> int:
        return sum(1 for record in self.completions if not record.dropped)

    @functools.cached_property
    def dropped(self) -> int:
        return sum(1 for record in self.completions if record.dropped)

    def backlog(self) -> list:
        """Messages still queued at the horizon."""
        return [
            message
            for station in self.stations
            for message in station.backlog()
        ]

    def utilization(self) -> float:
        return self.stats.utilization(self.horizon)


class NetworkSimulation:
    """One configured simulation, ready to run.

    Build one from a frozen :class:`~repro.net.scenario.Scenario` with
    :meth:`from_scenario` (the scenario documents each field); describe
    multi-segment networks with a :class:`~repro.net.topology.Topology`
    and run them on a :class:`~repro.net.fabric.Fabric`.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.problem = scenario.problem
        self.medium = scenario.medium
        self.protocol_factory = scenario.protocol_factory
        self.arrivals = dict(scenario.arrivals) if scenario.arrivals else {}
        self.check_consistency = scenario.check_consistency
        self.noise_rate = scenario.noise_rate
        self.noise_seed = scenario.noise_seed
        self.root_seed = scenario.root_seed
        self.faults = scenario.faults
        self.monitors = scenario.monitors
        self.telemetry_prefix = scenario.telemetry_prefix
        #: Extra invariant monitors appended to whatever ``monitors``
        #: resolves to — the fabric's seam for arming bridge monitors on
        #: a segment run without re-deriving the standard suite.
        self.extra_monitors: tuple = ()

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "NetworkSimulation":
        """Build a simulation from one frozen :class:`Scenario`."""
        return cls(scenario)

    def _arrival_process(self, class_name: str, source: SourceSpec):
        if class_name in self.arrivals:
            return self.arrivals[class_name]
        bound = source.class_named(class_name).bound
        return GreedyBurstArrivals(bound=bound)

    def run(self, horizon: int) -> RunResult:
        """Simulate up to ``horizon`` bit-times and gather results.

        A fresh stream registry is built per call, so repeated ``run()``
        invocations of one simulation object are identical.  The run
        takes the ambient engine (:func:`repro.net.engine.use_engine`)
        and records into the ambient telemetry registry
        (:func:`repro.obs.context.use_telemetry`).
        """
        telemetry = current_telemetry()
        rng = SeedSequenceRegistry(self.root_seed)
        channel = BroadcastChannel(
            Environment(),
            self.medium,
            check_consistency=self.check_consistency,
            noise_rate=self.noise_rate,
            # Streams are seeded by name, so one never built shifts no
            # other: a noiseless channel and a process that never draws
            # get none.
            noise_rng=(
                rng.stream(f"channel/noise/{self.noise_seed}")
                if self.noise_rate > 0.0
                else None
            ),
            telemetry=telemetry,
            telemetry_prefix=self.telemetry_prefix,
        )
        stations: list[Station] = []
        sources_by_station: dict[int, SourceSpec] = {}
        # One run-local instance-id counter shared by all stations: message
        # identity (EDF FIFO tie-break, completion records) is then a pure
        # function of the run, identical across engines and repetitions.
        seq_source = itertools.count()
        for source in self.problem.sources:
            mac = self.protocol_factory(source)
            station = Station(
                station_id=source.source_id,
                mac=mac,
                static_indices=source.static_indices,
                seq_source=seq_source,
            )
            for msg_class in source.message_classes:
                process = self._arrival_process(msg_class.name, source)
                station.load_arrivals(
                    msg_class,
                    process,
                    horizon,
                    rng=rng.stream(
                        f"arrivals/{source.source_id}/{msg_class.name}"
                    ) if process.draws else None,
                )
            channel.attach(station)
            stations.append(station)
            sources_by_station[source.source_id] = source
        plan = self.faults if self.faults is not None else current_fault_plan()
        injector = None
        if plan is not None and not plan.is_empty:
            # Imported here, not at module top: the injector module needs
            # ``repro.net.frames``, which would cycle back into this
            # package when ``repro.faults`` is imported first.
            from repro.faults.runtime import FaultInjector

            # The injector's own stream: arming faults never perturbs the
            # arrival or noise draws of an existing root seed.
            injector = FaultInjector(plan, rng=rng.stream("faults/injector"))

            def reset_mac(station: Station) -> None:
                fresh = self.protocol_factory(
                    sources_by_station[station.station_id]
                )
                station.mac = fresh
                fresh.attach(station)

            def resolve_class(station: Station, class_name: str | None):
                source = sources_by_station[station.station_id]
                if class_name is None:
                    return source.message_classes[0]
                return source.class_named(class_name)

            injector.arm(
                channel, reset_mac=reset_mac, resolve_class=resolve_class
            )
            channel.faults = injector
        suite = self._resolve_monitors(stations, faulted=injector is not None)
        if suite is not None:
            channel.monitors = suite
        # The channel's unified entry point reads the engine and owns
        # all dispatch: ``des`` steps every round on the clock's per-slot
        # loop, ``batch`` runs the struct-of-arrays kernel with fast-loop
        # fallback on structurally ineligible runs.  Why the kernel did
        # not run is returned as the fallback note and lands in the
        # result.
        engine_fallback = channel.run(horizon)
        invariants = None
        if suite is not None:
            invariants = suite.finalize(
                horizon,
                stations,
                down=injector.down if injector is not None else None,
            )
        if telemetry.enabled:
            _finalize_telemetry(
                telemetry, stations, injector, prefix=self.telemetry_prefix
            )
        return RunResult(
            horizon=horizon,
            stations=stations,
            stats=channel.stats,
            invariants=invariants,
            engine_fallback=engine_fallback,
        )

    def _resolve_monitors(
        self, stations: list[Station], faulted: bool
    ) -> MonitorSuite | None:
        """``monitors=None`` auto-arms the standard suite on faulted runs.

        :attr:`extra_monitors` (if any) ride along with whatever the
        ``monitors`` setting resolves to; when it resolves to nothing
        they form a suite of their own.
        """
        monitors = self.monitors
        suite: MonitorSuite | None = None
        if isinstance(monitors, MonitorSuite):
            suite = monitors
        elif monitors is True or (monitors is None and faulted):
            suite = standard_suite(stations)
        extra = tuple(self.extra_monitors)
        if extra:
            base = suite.monitors if suite is not None else ()
            suite = MonitorSuite(tuple(base) + extra)
        return suite


def _finalize_telemetry(
    telemetry: Telemetry,
    stations: list[Station],
    injector,
    prefix: str = "",
) -> None:
    """Fold end-of-run state into the registry.

    Search-depth histograms come from the protocols' per-run search
    records (every station holds a replica of the common-knowledge
    searches, so entries are per-station views: a fault-free z-station
    run records each search z times — counts scale by z, quantiles are
    unaffected).  Fault-gate fire counts come from the armed injector.
    All of it is a pure function of the run, identical across engines.
    """
    has_search = any(
        hasattr(station.mac, "tts_records") for station in stations
    )
    if has_search:
        tts_hist = telemetry.histogram(
            f"{prefix}search/tts_wasted_slots", SEARCH_DEPTH_EDGES
        )
        sts_hist = telemetry.histogram(
            f"{prefix}search/sts_wasted_slots", SEARCH_DEPTH_EDGES
        )
        tts_runs = telemetry.counter(f"{prefix}search/tts_runs")
        sts_runs = telemetry.counter(f"{prefix}search/sts_runs")
        empty_runs = telemetry.counter(f"{prefix}search/empty_tts_runs")
        for station in stations:
            mac = station.mac
            if not hasattr(mac, "tts_records"):
                continue
            for record in mac.tts_records:
                tts_hist.record(record.wasted_slots)
            for record in mac.sts_records:
                sts_hist.record(record.wasted_slots)
            tts_runs.inc(len(mac.tts_records))
            sts_runs.inc(len(mac.sts_records))
            empty_runs.inc(getattr(mac, "empty_tts_runs", 0))
    if injector is not None:
        for kind in sorted(injector.fire_counts):
            count = injector.fire_counts[kind]
            if count:
                telemetry.counter(f"{prefix}faults/{kind}").inc(count)
