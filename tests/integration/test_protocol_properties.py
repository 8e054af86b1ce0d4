"""Property-based invariants over randomised protocol runs.

Hypothesis generates small random HRTDM scenarios (station counts, message
sizes, deadlines, arrival traces, protocol parameters) and checks the
invariants every MAC protocol must preserve:

* conservation — every arrival is delivered, dropped, or still queued;
* safety — successful transmissions never overlap on the wire
  (<p.HRTDM> mutual exclusion);
* integrity — each message instance completes at most once, after its
  arrival;
* lockstep — deterministic protocols stay slot-consistent (asserted by the
  channel when enabled);
* determinism — identical seeds give identical schedules.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.arrival import TraceArrivals
from repro.model.message import DensityBound, MessageClass
from repro.net.channel import BroadcastChannel
from repro.net.engine import use_engine
from repro.net.phy import ideal_medium
from repro.net.station import Station
from repro.protocols.csma_cd import CSMACDProtocol
from repro.protocols.dcr import DCRProtocol
from repro.protocols.ddcr import DDCRConfig, DDCRProtocol
from repro.protocols.tdma import TDMAProtocol
from repro.core.trees import BalancedTree
from repro.sim.engine import Environment

HORIZON = 1_200_000


@st.composite
def scenario(draw):
    """A small random scenario: station count + per-station arrival trace."""
    z = draw(st.integers(2, 5))
    length = draw(st.sampled_from([500, 1_000, 4_000]))
    deadline = draw(st.sampled_from([200_000, 400_000, 800_000]))
    arrivals = {}
    for sid in range(z):
        count = draw(st.integers(0, 4))
        times = sorted(
            draw(
                st.lists(
                    st.integers(0, HORIZON // 3),
                    min_size=count,
                    max_size=count,
                )
            )
        )
        arrivals[sid] = times
    return z, length, deadline, arrivals


def _build_and_run(protocol_builder, z, length, deadline, arrivals,
                   check_consistency=True, noise_rate=0.0):
    cls = MessageClass(
        name="p",
        length=length,
        deadline=deadline,
        bound=DensityBound(a=8, w=1_000),  # loose: traces are arbitrary
    )
    env = Environment()
    channel = BroadcastChannel(
        env,
        ideal_medium(slot_time=256),
        check_consistency=check_consistency,
        noise_rate=noise_rate,
        noise_seed=13,
    )
    stations = []
    for sid in range(z):
        station = Station(sid, protocol_builder(sid, z), static_indices=(sid,))
        if arrivals[sid]:
            station.load_arrivals(
                cls, TraceArrivals(trace=tuple(arrivals[sid])), HORIZON
            )
        channel.attach(station)
        stations.append(station)
    with use_engine("des"):
        channel.run(HORIZON)
    return stations


def _ddcr_builder(z):
    config = DDCRConfig(
        time_f=16,
        time_m=2,
        class_width=100_000,
        static_q=8,
        static_m=2,
        theta_factor=1.0,
    )
    return lambda sid, z: DDCRProtocol(config)


def _dcr_builder(z):
    tree = BalancedTree.of(m=2, leaves=8)
    return lambda sid, z: DCRProtocol(tree)


def _tdma_builder(z):
    return lambda sid, z_: TDMAProtocol(tuple(range(z)))


def _beb_builder(z):
    return lambda sid, z_: CSMACDProtocol(seed=sid + 1)


_BUILDERS = {
    "ddcr": (_ddcr_builder, True),
    "dcr": (_dcr_builder, True),
    "tdma": (_tdma_builder, True),
    "beb": (_beb_builder, False),
}


@settings(max_examples=25)
@given(scenario(), st.sampled_from(sorted(_BUILDERS)))
def test_conservation_and_safety(scn, protocol_name):
    z, length, deadline, arrivals = scn
    builder, lockstep = _BUILDERS[protocol_name]
    stations = _build_and_run(
        builder(z), z, length, deadline, arrivals,
        check_consistency=lockstep,
    )
    total_arrivals = sum(len(times) for times in arrivals.values())
    accounted = sum(
        len(s.completions) + len(s.backlog()) for s in stations
    )
    assert accounted == total_arrivals
    # Safety: wire intervals of successes never overlap.
    intervals = sorted(
        (r.started, r.completion)
        for s in stations
        for r in s.completions
        if not r.dropped
    )
    for (_, end_a), (start_b, _) in zip(intervals, intervals[1:]):
        assert start_b >= end_a
    # Integrity: unique completions, none before arrival.
    seqs = [
        r.message.seq for s in stations for r in s.completions
    ]
    assert len(seqs) == len(set(seqs))
    for s in stations:
        for r in s.completions:
            assert r.completion > r.message.arrival


@settings(max_examples=10)
@given(scenario())
def test_ddcr_under_noise_keeps_invariants(scn):
    z, length, deadline, arrivals = scn
    builder, _ = _BUILDERS["ddcr"]
    stations = _build_and_run(
        builder(z), z, length, deadline, arrivals,
        check_consistency=True, noise_rate=0.05,
    )
    total_arrivals = sum(len(times) for times in arrivals.values())
    accounted = sum(len(s.completions) + len(s.backlog()) for s in stations)
    assert accounted == total_arrivals


@settings(max_examples=10)
@given(scenario())
def test_ddcr_deterministic(scn):
    z, length, deadline, arrivals = scn
    builder, _ = _BUILDERS["ddcr"]

    def run_once():
        stations = _build_and_run(
            builder(z), z, length, deadline, arrivals
        )
        return sorted(
            (r.started, r.completion, r.message.source_id)
            for s in stations
            for r in s.completions
        )

    assert run_once() == run_once()
