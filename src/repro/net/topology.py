"""Multi-segment broadcast topologies: segments, bridges, routes.

The paper's protocol lives on one broadcast domain (section 3.1's
single shared medium).  Real deployments chain several such domains —
a backbone bus bridged to floor busses, say — so this module adds the
*declarative* half of that story: a :class:`Topology` is a frozen value
naming the segments (each a complete HRTDM instance on its own medium)
and the store-and-forward :class:`BridgeSpec` s joining them.  The
*executable* half is :class:`repro.net.fabric.Fabric`, which runs the
segments and moves frames across bridges.

Bridge semantics
----------------
A bridge listens on its ``source`` segment (broadcast: it hears every
success), filters by ``class_map`` keys, and re-injects each heard
message on its ``target`` segment after ``forwarding_latency`` slots,
re-classed to the mapped *relay class* — a class owned by the bridge's
station on the target segment's HRTDM instance.  Relay classes are
fed exclusively by the bridge (the topology rejects explicit arrival
processes for them), so the target segment's feasibility analysis of
the relay class *is* the analysis of the forwarded traffic.

The bridge graph must be feed-forward (acyclic): a frame never returns
to a segment that already broadcast it, so store-and-forward floods
terminate and the fabric can run segments in topological order.

Constraints chosen for analyzability (checked at construction):

* within one target segment, each relay class is fed by at most one
  bridge (otherwise two journals would interleave on one class and
  per-class FIFO across the bridge would be unverifiable);
* each (segment, class) pair is forwarded by at most one bridge out of
  that segment (routes are chains, not multicast trees — one composed
  bound per forwarded class).

Together these make every forwarded class's journey a unique
:class:`~repro.model.route.Route`, and end-to-end deadline analysis a
sum of per-hop ``B_DDCR`` bounds plus bridge latencies
(:func:`repro.core.composition.compose_route_bound`).
"""

from __future__ import annotations

import dataclasses
import typing
from collections.abc import Mapping

from repro.model.route import Hop, Route
from repro.net.scenario import ProtocolFactory

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.models import FaultPlan
    from repro.model.arrival import ArrivalProcess
    from repro.model.problem import HRTDMProblem
    from repro.net.phy import MediumProfile
    from repro.sim.invariants import MonitorSuite

__all__ = ["BridgeSpec", "SegmentSpec", "Topology", "TopologyError"]


class TopologyError(ValueError):
    """An inconsistent topology (bad reference, cycle, ambiguous relay)."""


@dataclasses.dataclass(frozen=True)
class SegmentSpec:
    """One broadcast segment: a complete HRTDM instance on its own medium.

    The fields mirror the per-segment subset of
    :class:`~repro.net.scenario.Scenario`; run-wide concerns (seed,
    faults, monitors) live on :class:`Topology`.
    """

    name: str
    problem: "HRTDMProblem"
    medium: "MediumProfile"
    protocol_factory: ProtocolFactory
    arrivals: Mapping[str, "ArrivalProcess"] | None = None
    noise_rate: float = 0.0
    noise_seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("segment needs a non-empty name")
        if self.arrivals is not None:
            object.__setattr__(self, "arrivals", dict(self.arrivals))

    def class_names(self) -> frozenset[str]:
        return frozenset(c.name for c in self.problem.all_classes())


@dataclasses.dataclass(frozen=True)
class BridgeSpec:
    """A store-and-forward bridge from one segment onto another.

    ``station_id`` names the bridge's station on the *target* segment —
    an ordinary source of the target's HRTDM instance whose classes
    include every ``class_map`` value (the relay classes).  The bridge
    queues heard frames for ``forwarding_latency`` slots, then offers
    them through that station under the target segment's MAC; the queue
    holds at most ``queue_capacity`` frames (exceeding it is reported
    by the bridge-conservation invariant monitor, not silently
    dropped — at feasible loads the composed bound keeps occupancy
    below any sane capacity, and past it you want a violation, not
    quiet loss).
    """

    source: str
    target: str
    station_id: int
    class_map: Mapping[str, str]
    forwarding_latency: int = 0
    queue_capacity: int = 64

    def __post_init__(self) -> None:
        if not self.source or not self.target:
            raise TopologyError("bridge needs source and target segments")
        if self.source == self.target:
            raise TopologyError(
                f"bridge cannot forward {self.source!r} onto itself "
                "(broadcast already delivered the frame there)"
            )
        if not self.class_map:
            raise TopologyError(
                f"bridge {self.name} forwards no classes (empty class_map)"
            )
        if self.forwarding_latency < 0:
            raise TopologyError(
                f"bridge {self.name}: forwarding latency must be >= 0"
            )
        if self.queue_capacity < 1:
            raise TopologyError(
                f"bridge {self.name}: queue capacity must be >= 1"
            )
        object.__setattr__(self, "class_map", dict(self.class_map))

    @property
    def name(self) -> str:
        return f"{self.source}->{self.target}"

    @property
    def relay_classes(self) -> frozenset[str]:
        """The target-segment classes this bridge injects into."""
        return frozenset(self.class_map.values())


@dataclasses.dataclass(frozen=True)
class Topology:
    """A frozen multi-segment configuration: the fabric's input value.

    Segment-local knobs live on each :class:`SegmentSpec`; everything
    here below ``bridges`` is run-wide and means exactly what it means
    on :class:`~repro.net.scenario.Scenario`.  Construction validates
    all cross-references and derives the topological segment order, so
    a :class:`~repro.net.fabric.Fabric` built from a Topology never
    discovers a structural problem mid-run.
    """

    segments: tuple[SegmentSpec, ...]
    bridges: tuple[BridgeSpec, ...] = ()
    check_consistency: bool = False
    root_seed: int = 0
    faults: "FaultPlan | None" = None
    monitors: "bool | MonitorSuite | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "bridges", tuple(self.bridges))
        if not self.segments:
            raise TopologyError("topology needs at least one segment")
        names = [seg.name for seg in self.segments]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise TopologyError(f"duplicate segment names: {dupes}")
        self._validate_bridges()
        # Derived, cached on the frozen instance (order is pure data).
        object.__setattr__(self, "_order", self._topological_order())

    # -- lookups -----------------------------------------------------

    def segment(self, name: str) -> SegmentSpec:
        for seg in self.segments:
            if seg.name == name:
                return seg
        raise KeyError(f"no segment named {name!r}")

    def bridges_from(self, name: str) -> tuple[BridgeSpec, ...]:
        return tuple(b for b in self.bridges if b.source == name)

    def bridges_into(self, name: str) -> tuple[BridgeSpec, ...]:
        return tuple(b for b in self.bridges if b.target == name)

    def relay_classes(self, name: str) -> frozenset[str]:
        """Classes of segment ``name`` fed by bridges, not local traffic."""
        out: set[str] = set()
        for bridge in self.bridges_into(name):
            out |= bridge.relay_classes
        return frozenset(out)

    def segment_order(self) -> tuple[str, ...]:
        """Segment names in feed-forward (topological) order.

        Ties keep declaration order, so the staged execution sequence
        — hence any derived seeding — is deterministic.
        """
        return self._order  # type: ignore[attr-defined]

    # -- validation ----------------------------------------------------

    def _validate_bridges(self) -> None:
        names = {seg.name for seg in self.segments}
        forwarded: set[tuple[str, str]] = set()
        fed: set[tuple[str, str]] = set()
        for bridge in self.bridges:
            for end, label in ((bridge.source, "source"),
                               (bridge.target, "target")):
                if end not in names:
                    raise TopologyError(
                        f"bridge {bridge.name}: {label} segment "
                        f"{end!r} is not in the topology"
                    )
            source_seg = self.segment(bridge.source)
            target_seg = self.segment(bridge.target)
            try:
                station = target_seg.problem.source_by_id(bridge.station_id)
            except (KeyError, ValueError):
                raise TopologyError(
                    f"bridge {bridge.name}: target segment has no "
                    f"station {bridge.station_id}"
                ) from None
            station_classes = {c.name for c in station.message_classes}
            source_classes = source_seg.class_names()
            for heard, relay in bridge.class_map.items():
                if heard not in source_classes:
                    raise TopologyError(
                        f"bridge {bridge.name}: forwards unknown class "
                        f"{heard!r} of segment {bridge.source!r}"
                    )
                if relay not in station_classes:
                    raise TopologyError(
                        f"bridge {bridge.name}: relay class {relay!r} is "
                        f"not owned by station {bridge.station_id} on "
                        f"segment {bridge.target!r}"
                    )
                key = (bridge.source, heard)
                if key in forwarded:
                    raise TopologyError(
                        f"class {heard!r} of segment {bridge.source!r} is "
                        "forwarded by more than one bridge (routes must "
                        "be chains)"
                    )
                forwarded.add(key)
                relay_key = (bridge.target, relay)
                if relay_key in fed:
                    raise TopologyError(
                        f"relay class {relay!r} on segment "
                        f"{bridge.target!r} is fed by more than one "
                        "bridge (per-class FIFO would be ambiguous)"
                    )
                fed.add(relay_key)
            if target_seg.arrivals:
                clash = bridge.relay_classes & set(target_seg.arrivals)
                if clash:
                    raise TopologyError(
                        f"bridge {bridge.name}: relay classes "
                        f"{sorted(clash)} also have explicit arrival "
                        "processes on the target segment (relay classes "
                        "are fed exclusively by their bridge)"
                    )

    def _topological_order(self) -> tuple[str, ...]:
        names = [seg.name for seg in self.segments]
        indegree = {name: 0 for name in names}
        for bridge in self.bridges:
            indegree[bridge.target] += 1
        # Kahn's algorithm, always emitting the first ready segment in
        # declaration order — the result depends only on the topology,
        # never on bridge declaration order.
        remaining = list(names)
        order: list[str] = []
        while remaining:
            name = next((n for n in remaining if indegree[n] == 0), None)
            if name is None:
                break
            remaining.remove(name)
            order.append(name)
            for bridge in self.bridges_from(name):
                indegree[bridge.target] -= 1
        if len(order) != len(names):
            cyclic = sorted(n for n in names if n not in order)
            raise TopologyError(
                f"bridge graph is cyclic through segments {cyclic} "
                "(store-and-forward loops would forward forever)"
            )
        return tuple(order)

    # -- routes --------------------------------------------------------

    def route_for(self, segment: str, class_name: str) -> Route:
        """The journey of class ``class_name`` originating on ``segment``.

        Follows the unique bridge chain forward; a class that is never
        forwarded yields a single-hop route.  Raises ``KeyError`` for an
        unknown (segment, class) pair, and rejects relay classes (their
        journeys originate upstream — ask for the origin class instead).
        """
        seg = self.segment(segment)
        if class_name not in seg.class_names():
            raise KeyError(
                f"segment {segment!r} has no class {class_name!r}"
            )
        if class_name in self.relay_classes(segment):
            raise TopologyError(
                f"{class_name!r} is a relay class on {segment!r}; routes "
                "originate at the first broadcast of a message"
            )
        hops = [Hop(segment, class_name)]
        current, cls = segment, class_name
        while True:
            step = None
            for bridge in self.bridges_from(current):
                if cls in bridge.class_map:
                    step = (bridge.target, bridge.class_map[cls])
                    break
            if step is None:
                return Route(tuple(hops))
            current, cls = step
            hops.append(Hop(current, cls))

    def routes(self) -> tuple[Route, ...]:
        """All multi-hop routes, one per forwarded origin class.

        Ordered by (declaration order of origin segment, class name) so
        downstream tables are stable.
        """
        relay: set[tuple[str, str]] = set()
        for bridge in self.bridges:
            relay |= {(bridge.target, r) for r in bridge.relay_classes}
        out: list[Route] = []
        for seg in self.segments:
            forwarded = {
                heard
                for bridge in self.bridges_from(seg.name)
                for heard in bridge.class_map
            }
            for name in sorted(forwarded):
                if (seg.name, name) in relay:
                    continue  # mid-chain: covered by the origin's route
                out.append(self.route_for(seg.name, name))
        return tuple(out)
