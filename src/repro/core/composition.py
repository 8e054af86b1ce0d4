"""End-to-end deadline bounds across a multi-segment fabric.

The paper's ``B_DDCR(s_i, M)`` (section 4.3) bounds the residence time
of one message class on *one* broadcast segment: from arrival in the
source's queue to the end of its successful broadcast.  A fabric
(:mod:`repro.net.fabric`) chains segments through store-and-forward
bridges, so a relayed message's end-to-end latency decomposes hop by
hop:

* on hop ``k`` the message travels as class ``M_k`` of that segment's
  HRTDM instance, arriving at time ``T_k`` and completing by
  ``T_k + B_DDCR(segment_k, M_k)`` whenever the segment satisfies FC
  (theorems P5/P6 — the bound covers every queue rank and interference
  pattern, including the bridge's relay traffic, because the relay
  class is part of the segment's analysed instance);
* the bridge then holds the frame for its fixed ``forwarding_latency``
  before it becomes an arrival on hop ``k+1``: ``T_{k+1} =
  completion_k + latency_k``.

Summing telescopes into the composed bound this module computes:

    ``end_to_end <= sum_k B_DDCR(segment_k, M_k) + sum_k latency_k``

valid whenever *every* hop's segment passes FC.  The FABRIC experiment
and the fabric tests hold this inequality against simulated worst-case
end-to-end latencies; the composition itself is pure analysis and never
runs a simulation.
"""

from __future__ import annotations

import dataclasses
import typing
from collections.abc import Mapping, Sequence

from repro.core.feasibility import (
    ClassFeasibility,
    TreeParameters,
    latency_bound,
)
from repro.model.route import Route

if typing.TYPE_CHECKING:  # pragma: no cover - layering guard
    from repro.model.problem import HRTDMProblem
    from repro.net.phy import MediumProfile

__all__ = [
    "HopBound",
    "RouteBound",
    "SegmentAnalysis",
    "compose_route_bound",
]


@dataclasses.dataclass(frozen=True, slots=True)
class SegmentAnalysis:
    """One segment's analytic inputs: instance, medium, tree shape."""

    problem: "HRTDMProblem"
    medium: "MediumProfile"
    trees: TreeParameters


@dataclasses.dataclass(frozen=True, slots=True)
class HopBound:
    """One hop's contribution to a composed route bound.

    ``ingress_latency`` is the forwarding latency of the bridge that
    delivered the message *onto* this hop (zero for the origin hop).
    """

    segment: str
    class_name: str
    feasibility: ClassFeasibility
    ingress_latency: int = 0

    @property
    def contribution(self) -> float:
        """What this hop adds to the end-to-end bound."""
        return self.ingress_latency + self.feasibility.bound


@dataclasses.dataclass(frozen=True, slots=True)
class RouteBound:
    """The composed end-to-end bound of one route.

    ``feasible`` demands FC on every hop — each per-segment bound at or
    under its class deadline.  When it is false the composed ``bound``
    is still the honest sum, but nothing guarantees the simulation
    stays under it (an infeasible hop may queue without limit).
    """

    route: Route
    hops: tuple[HopBound, ...]

    @property
    def bound(self) -> float:
        """``sum B_DDCR + sum bridge latencies`` in bit-times."""
        return sum(h.contribution for h in self.hops)

    @property
    def end_to_end_deadline(self) -> int:
        """The deadline the composed journey inherits: per-hop class
        deadlines plus the fixed bridge latencies in between."""
        return sum(
            h.ingress_latency + h.feasibility.deadline for h in self.hops
        )

    @property
    def feasible(self) -> bool:
        return all(h.feasibility.feasible for h in self.hops)

    @property
    def slack(self) -> float:
        """End-to-end deadline minus composed bound (negative when some
        hop is infeasible)."""
        return self.end_to_end_deadline - self.bound

    def describe(self) -> str:
        parts = " + ".join(
            (
                f"{h.feasibility.bound:.0f}[{h.segment}:{h.class_name}]"
                if h.ingress_latency == 0
                else f"{h.ingress_latency} + "
                f"{h.feasibility.bound:.0f}[{h.segment}:{h.class_name}]"
            )
            for h in self.hops
        )
        return f"{self.route.describe()}: {parts} = {self.bound:.0f}"


def compose_route_bound(
    route: Route,
    segments: Mapping[str, SegmentAnalysis],
    bridge_latencies: Sequence[int] = (),
) -> RouteBound:
    """Compose per-hop ``B_DDCR`` bounds along ``route``.

    ``segments`` maps segment name to its :class:`SegmentAnalysis`;
    ``bridge_latencies`` gives the forwarding latency of each bridge
    crossed, in route order (length ``route.bridge_count``).
    """
    if len(bridge_latencies) != route.bridge_count:
        raise ValueError(
            f"route {route.describe()!r} crosses {route.bridge_count} "
            f"bridges but {len(bridge_latencies)} latencies were given"
        )
    hops: list[HopBound] = []
    for index, hop in enumerate(route.hops):
        try:
            analysis = segments[hop.segment]
        except KeyError:
            raise KeyError(
                f"no analysis for segment {hop.segment!r}"
            ) from None
        problem = analysis.problem
        for source, cls in problem.iter_source_classes():
            if cls.name == hop.class_name:
                break
        else:
            raise KeyError(
                f"segment {hop.segment!r} has no class {hop.class_name!r}"
            )
        feasibility = latency_bound(
            cls, source, problem, analysis.medium, analysis.trees
        )
        hops.append(
            HopBound(
                segment=hop.segment,
                class_name=hop.class_name,
                feasibility=feasibility,
                ingress_latency=(
                    0 if index == 0 else int(bridge_latencies[index - 1])
                ),
            )
        )
    return RouteBound(route=route, hops=tuple(hops))
