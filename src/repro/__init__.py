"""repro — reproduction of Hermant & Le Lann, "A Protocol and Correctness
Proofs for Real-Time High-Performance Broadcast Networks" (ICDCS 1998).

Subpackages:

* :mod:`repro.core`      — Problems P1/P2 and the feasibility conditions.
* :mod:`repro.model`     — the HRTDM problem model (messages, arrivals).
* :mod:`repro.sim`       — the simulation clock, RNG streams, monitors.
* :mod:`repro.net`       — slotted broadcast-medium simulator.
* :mod:`repro.protocols` — CSMA/DDCR and baseline MAC protocols.
* :mod:`repro.analysis`  — metrics, bound checking, adversaries, reports.
* :mod:`repro.experiments` — one module per paper figure/bound (see DESIGN.md).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
