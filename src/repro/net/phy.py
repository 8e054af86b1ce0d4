"""Physical medium profiles (sections 3.2 and 5).

A broadcast medium is characterised by:

* slot time ``x`` — long enough that a channel state transition triggered at
  time T is seen by every source before ``T + x/2``;
* nominal throughput ``psi``;
* physical encapsulation: a Data Link PDU of ``l`` bits becomes a Ph-PDU of
  ``l'(l) > l`` bits (preamble, framing, FCS, interframe gap, padding);
* collision semantics — *destructive* on Ethernet-like LANs (a collision
  slot carries nothing) or *non-destructive* on short busses internal to
  ATM switches, where an exclusive-OR at bus level lets the winner of a
  collision slot be deduced (section 3.2's remark on small x).

Profiles are value objects in integer bit-times, so 1 bit-time = 1/psi s.
"""

from __future__ import annotations

import dataclasses

from repro.model.units import (
    GIGABIT_PER_SECOND,
    MEGABIT_PER_SECOND,
    BitTime,
    Throughput,
)

__all__ = [
    "MediumProfile",
    "GIGABIT_ETHERNET",
    "CLASSIC_ETHERNET",
    "ATM_BUS",
    "MEDIA",
    "ideal_medium",
]


@dataclasses.dataclass(frozen=True, slots=True)
class MediumProfile:
    """Value object describing one broadcast medium."""

    name: str
    throughput: Throughput
    slot_time: BitTime
    preamble_bits: int
    framing_bits: int
    min_frame_bits: int
    interframe_gap_bits: int
    destructive_collisions: bool

    def __post_init__(self) -> None:
        if self.slot_time < 1:
            raise ValueError(f"slot time must be >= 1 bit, got {self.slot_time}")
        for field in (
            "preamble_bits",
            "framing_bits",
            "min_frame_bits",
            "interframe_gap_bits",
        ):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be >= 0")

    def encapsulate(self, length_bits: int) -> int:
        """``l'(msg)``: the Ph-PDU bit length of an ``l``-bit DL-PDU.

        Padding to the minimum frame, plus preamble, framing and the
        interframe gap (the gap occupies the channel exactly like bits).
        Always strictly greater than ``length_bits``, as the paper requires.
        """
        if length_bits < 1:
            raise ValueError(f"length must be >= 1, got {length_bits}")
        padded = max(length_bits + self.framing_bits, self.min_frame_bits)
        return padded + self.preamble_bits + self.interframe_gap_bits

    def transmission_time(self, length_bits: int) -> BitTime:
        """Channel occupancy of one successful transmission, in bit-times."""
        return self.encapsulate(length_bits)

    def slot_seconds(self) -> float:
        return self.throughput.to_seconds(self.slot_time)


#: Half-duplex Gigabit Ethernet (IEEE 802.3z): 512-byte slot (carrier
#: extension), 8-byte preamble, 18-byte MAC framing, 64-byte minimum frame,
#: 96-bit interframe gap.
GIGABIT_ETHERNET = MediumProfile(
    name="gigabit-ethernet",
    throughput=Throughput(GIGABIT_PER_SECOND),
    slot_time=4096,
    preamble_bits=64,
    framing_bits=144,
    min_frame_bits=512,
    interframe_gap_bits=96,
    destructive_collisions=True,
)

#: Classic 10 Mb/s Ethernet (IEEE 802.3): 512-bit slot.
CLASSIC_ETHERNET = MediumProfile(
    name="classic-ethernet",
    throughput=Throughput(10 * MEGABIT_PER_SECOND),
    slot_time=512,
    preamble_bits=64,
    framing_bits=144,
    min_frame_bits=512,
    interframe_gap_bits=96,
    destructive_collisions=True,
)

#: Bus internal to an ATM switch: physically tiny span, so x is a few bit
#: times and an exclusive-OR at bus level makes collisions non-destructive
#: (section 3.2).  Cell-sized frames (53 bytes), minimal overhead.
ATM_BUS = MediumProfile(
    name="atm-bus",
    throughput=Throughput(GIGABIT_PER_SECOND),
    slot_time=4,
    preamble_bits=0,
    framing_bits=40,
    min_frame_bits=424,
    interframe_gap_bits=0,
    destructive_collisions=False,
)

#: The named media a configuration or a CLI can pick, keyed by profile name.
MEDIA: dict[str, MediumProfile] = {
    profile.name: profile
    for profile in (GIGABIT_ETHERNET, CLASSIC_ETHERNET, ATM_BUS)
}


def ideal_medium(
    slot_time: BitTime = 1, destructive: bool = True
) -> MediumProfile:
    """A frictionless medium for unit tests and analytic comparisons.

    One-bit slot, 1-bit framing overhead (the paper requires l' > l),
    no padding — analytic formulas then match simulations exactly.
    ``destructive=False`` models an idealised XOR/OR bus (collision slots
    reveal child occupancy to tree protocols).
    """
    return MediumProfile(
        name="ideal" if destructive else "ideal-xor",
        throughput=Throughput(GIGABIT_PER_SECOND),
        slot_time=slot_time,
        preamble_bits=0,
        framing_bits=1,
        min_frame_bits=0,
        interframe_gap_bits=0,
        destructive_collisions=destructive,
    )
