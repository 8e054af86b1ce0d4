"""Shared builders for protocol-level tests.

``run_network`` wires stations with explicit arrival traces onto an ideal
medium and runs the channel — compact enough that each test reads as a
scenario description.
"""

from __future__ import annotations

import pytest

from repro.model.arrival import TraceArrivals
from repro.model.message import DensityBound, MessageClass
from repro.net.channel import BroadcastChannel
from repro.net.engine import use_engine
from repro.net.phy import MediumProfile, ideal_medium
from repro.net.station import Station
from repro.sim.engine import Environment


def make_class(
    name: str = "c",
    length: int = 1000,
    deadline: int = 1_000_000,
    a: int = 1,
    w: int = 1_000_000,
) -> MessageClass:
    return MessageClass(
        name=name, length=length, deadline=deadline,
        bound=DensityBound(a=a, w=w),
    )


def run_network(
    macs: list,
    arrivals: dict[int, list[int]],
    horizon: int,
    medium: MediumProfile | None = None,
    msg_class: MessageClass | None = None,
    static_indices: dict[int, tuple[int, ...]] | None = None,
    check_consistency: bool = True,
):
    """Run stations 0..len(macs)-1 with the given arrival-time traces."""
    medium = medium if medium is not None else ideal_medium(slot_time=64)
    msg_class = msg_class if msg_class is not None else make_class()
    env = Environment()
    channel = BroadcastChannel(
        env, medium, check_consistency=check_consistency
    )
    stations = []
    for station_id, mac in enumerate(macs):
        indices = (
            static_indices[station_id]
            if static_indices is not None
            else (station_id,)
        )
        station = Station(
            station_id=station_id, mac=mac, static_indices=indices
        )
        trace = arrivals.get(station_id, [])
        if trace:
            station.load_arrivals(
                msg_class, TraceArrivals(trace=tuple(trace)), horizon
            )
        channel.attach(station)
        stations.append(station)
    with use_engine("des"):
        channel.run(horizon)
    return channel, stations


@pytest.fixture
def ideal():
    return ideal_medium(slot_time=64)
