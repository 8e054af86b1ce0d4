"""Shared plumbing for the simulation experiments.

Provides sensible default CSMA/DDCR configurations derived from a problem
instance and medium, and protocol factories for every protocol in the
comparison set, so each experiment module stays focused on its question.
"""

from __future__ import annotations

import math

from repro.core.feasibility import TreeParameters
from repro.core.trees import BalancedTree
from repro.model.problem import HRTDMProblem
from repro.model.source import SourceSpec
from repro.model.workloads import relay_chain_problems
from repro.net.network import NetworkSimulation, ProtocolFactory
from repro.net.phy import GIGABIT_ETHERNET, MediumProfile
from repro.net.scenario import Scenario
from repro.net.topology import BridgeSpec, SegmentSpec, Topology
from repro.protocols.base import MACProtocol
from repro.protocols.csma_cd import CSMACDProtocol
from repro.protocols.dcr import DCRProtocol
from repro.protocols.ddcr.config import DDCRConfig
from repro.protocols.ddcr.protocol import DDCRProtocol
from repro.protocols.slotted_aloha import SlottedAlohaProtocol
from repro.protocols.tdma import TDMAProtocol

__all__ = [
    "default_ddcr_config",
    "ddcr_factory",
    "csma_cd_factory",
    "dcr_factory",
    "slotted_aloha_factory",
    "tdma_factory",
    "PROTOCOL_FACTORIES",
    "build_simulation",
    "build_chain_topology",
]

_MS = 1_000_000


def default_ddcr_config(
    problem: HRTDMProblem,
    medium: MediumProfile,
    time_f: int = 64,
    time_m: int = 4,
    theta_factor: float = 1.0,
) -> DDCRConfig:
    """A reasonable CSMA/DDCR configuration for a problem on a medium.

    The class width c is sized so the scheduling horizon ``c * F`` covers
    the largest relative deadline with headroom (deadline classes spread
    over roughly half the time tree), and never drops below one slot time
    (deadlines cannot be distinguished at sub-slot granularity — compare
    the paper's remark that sub-4.096 us deadline accuracy is uncommon on
    Gigabit Ethernet).  Alpha defaults to two slot times of lead.
    """
    max_deadline = max(cls.deadline for cls in problem.all_classes())
    class_width = max(
        medium.slot_time, math.ceil(2 * max_deadline / time_f)
    )
    return DDCRConfig(
        time_f=time_f,
        time_m=time_m,
        class_width=class_width,
        static_q=problem.static_q,
        static_m=problem.static_m,
        alpha=2 * medium.slot_time,
        theta_factor=theta_factor,
    )


def ddcr_factory(config: DDCRConfig) -> ProtocolFactory:
    """All stations share one immutable config, each gets its own automaton."""

    def build(source: SourceSpec) -> MACProtocol:
        return DDCRProtocol(config)

    return build


def csma_cd_factory(seed: int = 0) -> ProtocolFactory:
    """Independent, deterministic backoff stream per station."""

    def build(source: SourceSpec) -> MACProtocol:
        return CSMACDProtocol(seed=seed * 1_000_003 + source.source_id)

    return build


def dcr_factory(problem: HRTDMProblem) -> ProtocolFactory:
    """CSMA/DCR over the problem's static tree."""
    tree = BalancedTree.of(m=problem.static_m, leaves=problem.static_q)

    def build(source: SourceSpec) -> MACProtocol:
        return DCRProtocol(tree)

    return build


def slotted_aloha_factory(
    seed: int = 0, transmit_probability: float = 0.25
) -> ProtocolFactory:
    """Independent, deterministic retry stream per station."""

    def build(source: SourceSpec) -> MACProtocol:
        return SlottedAlohaProtocol(
            transmit_probability=transmit_probability,
            seed=seed * 1_000_003 + source.source_id,
        )

    return build


def tdma_factory(problem: HRTDMProblem) -> ProtocolFactory:
    """Round-robin TDMA over the problem's source roster."""
    roster = tuple(source.source_id for source in problem.sources)

    def build(source: SourceSpec) -> MACProtocol:
        return TDMAProtocol(roster)

    return build


def PROTOCOL_FACTORIES(
    problem: HRTDMProblem, medium: MediumProfile, seed: int = 0
) -> dict[str, ProtocolFactory]:
    """The standard comparison set keyed by protocol name."""
    config = default_ddcr_config(problem, medium)
    return {
        "CSMA/DDCR": ddcr_factory(config),
        "CSMA-CD/BEB": csma_cd_factory(seed),
        "CSMA/DCR": dcr_factory(problem),
        "S-ALOHA": slotted_aloha_factory(seed),
        "TDMA": tdma_factory(problem),
    }


def build_chain_topology(
    segments: int = 3,
    z: int = 4,
    scale: float = 1.0,
    medium: MediumProfile = GIGABIT_ETHERNET,
    forwarding_latency: int = 2_048,
    queue_capacity: int = 64,
    deadline: int = 10 * _MS,
    a: int = 1,
    w: int = 5 * _MS,
    root_seed: int = 0,
    monitors: object = None,
) -> tuple[Topology, dict[str, TreeParameters]]:
    """A bridged DDCR chain: the fabric experiments' standard topology.

    ``segments`` homogeneous busses (``z`` local stations each, workload
    from :func:`~repro.model.workloads.relay_chain_problems`) joined in
    a line; bridge k forwards segment k's head class onto the relay
    class owned by station 0 of segment k+1, so ``local-0`` of segment
    0 traverses the whole chain.  Returns the topology plus the
    name-keyed :class:`TreeParameters` that
    :meth:`~repro.net.fabric.Fabric.route_bounds` consumes (each
    segment's DDCR config is derived with :func:`default_ddcr_config`,
    so the analysis matches what actually runs).
    """
    problems = relay_chain_problems(
        segments, z=z, deadline=deadline, a=a, w=w, scale=scale
    )
    specs = []
    trees: dict[str, TreeParameters] = {}
    for k, problem in enumerate(problems):
        config = default_ddcr_config(problem, medium)
        specs.append(
            SegmentSpec(
                name=f"seg{k}",
                problem=problem,
                medium=medium,
                protocol_factory=ddcr_factory(config),
            )
        )
        trees[f"seg{k}"] = config.tree_parameters()
    bridges = tuple(
        BridgeSpec(
            source=f"seg{k}",
            target=f"seg{k + 1}",
            station_id=0,
            class_map={("local-0" if k == 0 else f"relay-{k}"): f"relay-{k + 1}"},
            forwarding_latency=forwarding_latency,
            queue_capacity=queue_capacity,
        )
        for k in range(segments - 1)
    )
    topology = Topology(
        segments=tuple(specs),
        bridges=bridges,
        root_seed=root_seed,
        monitors=monitors,  # type: ignore[arg-type]
    )
    return topology, trees


def build_simulation(
    problem: HRTDMProblem,
    medium: MediumProfile,
    factory: ProtocolFactory,
    check_consistency: bool = False,
) -> NetworkSimulation:
    """A simulation under the default peak-load (greedy adversary) arrivals."""
    return NetworkSimulation.from_scenario(
        Scenario(
            problem=problem,
            medium=medium,
            protocol_factory=factory,
            check_consistency=check_consistency,
        )
    )
