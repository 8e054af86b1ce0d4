"""Simulation engine selection: the per-slot reference, the slot-loop
fast path, or batch.

Three engines can turn the broadcast channel's crank:

* ``des`` — the per-slot reference: :meth:`Environment.run
  <repro.sim.engine.Environment.run>` steps every round of the channels
  on one clock, the one that starts first next, ties in registration
  order and then in the order the previous rounds ran.  It never leaps.
* ``fastloop`` — the slot-synchronous fast path: the round loop runs as
  one direct Python loop over the channels on one clock (a lone channel,
  or both busses of a dual bus) that advances ``env.now`` itself.  Idle
  stretches are leapt on every station's own replica, any MAC protocol,
  noise or not on a lone channel, and jointly across channels sharing a
  clock; so are jammed stretches on DDCR replicas stuck re-probing a
  static-tree leaf (a failed dual bus's tail).
* ``batch`` — the fast loop with the struct-of-arrays kernel
  (:mod:`repro.net.batch`) as the station side of each round:
  per-station EDF keys, tree positions and roster positions live in
  plain list columns and one shadow protocol replica digests each slot
  and each leapt stretch, so per-slot cost is near-constant in the
  station count.  The round body, the leaps and the clock loop are the
  fast loop's own, so it leaps what the fast loop leaps — idle
  stretches, queued messages sitting them out included, in O(1), also
  with the standard and bridge-conservation invariant monitors armed,
  which digest a leap through ``on_idle``.
  Structurally limited to homogeneous single-bus runs of the lockstep
  protocols, CSMA/DDCR, CSMA/DCR and TDMA; anything else (BEB, slotted
  ALOHA, mixed MAC types, bursting, fault injectors, consistency checks,
  channels sharing a clock, non-destructive media) falls back to
  ``fastloop`` with the reason recorded in the run manifest
  (``engine_fallback``).  Selecting it is therefore always safe too.
* ``auto`` — the default: takes the ``batch`` path, so every eligible run
  executes the kernel and every ineligible one runs the fast loop with
  the same ``batch engine unavailable (...): ran fastloop`` note.  The
  per-slot ``des`` loop stays the reference the three-way differential
  suite holds both leaping engines to.

All engines execute the *identical* round semantics and draw from the
same RNG streams in the same order, so results — channel statistics,
completion records, trace streams — are byte-identical.  The runtime
layer therefore excludes the engine from result cache keys.  This
equivalence extends to the fault-injection and invariant layers: an armed
:class:`~repro.faults.runtime.FaultInjector` and any
:class:`~repro.sim.invariants.MonitorSuite` are driven identically, so
fault timelines and violation reports are also byte-identical across
engines (enforced by the three-way differential tests).

The process-wide default is ``auto``; override it with the
``REPRO_ENGINE`` environment variable, per-simulation via
``Scenario(engine=...)``, or per-run via the experiment CLIs'
``--engine`` flag (which scopes the override with :func:`use_engine`).
"""

from __future__ import annotations

import os

from repro.context import ScopedValue

__all__ = [
    "ENGINES",
    "default_engine",
    "set_default_engine",
    "resolve_engine",
    "use_engine",
]

#: Legal engine names.
ENGINES = ("auto", "des", "fastloop", "batch")


def _validate(name: str) -> str:
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {name!r}; choose one of {', '.join(ENGINES)}"
        )
    return name


#: The ambient engine choice.  ``None`` entering a scope means "inherit"
#: (``use_engine(None)`` is a no-op), matching the CLI convention that an
#: absent ``--engine`` keeps the process default.
_SCOPE: ScopedValue[str] = ScopedValue(
    "engine",
    default=lambda: os.environ.get("REPRO_ENGINE", "auto"),
    coerce=_validate,
    none_is_noop=True,
)

#: The process-wide engine default (``REPRO_ENGINE`` or ``auto``),
#: shadowed inside any active :func:`use_engine` scope.
default_engine = _SCOPE.current

#: Set the innermost engine default; returns the previous value.  Outside
#: any scope this is the process-wide default; inside a scope the change
#: dies when the scope exits.
set_default_engine = _SCOPE.set_default

#: Scoped default-engine override (no-op when the name is ``None``).  The
#: runtime executor wraps each spec execution in this, so a spec's engine
#: choice reaches every simulation the experiment builds without
#: threading a parameter through every experiment module.
use_engine = _SCOPE.using


def resolve_engine(name: str | None) -> str:
    """Resolve an engine request (``None`` means "use the default")."""
    if name is None:
        return default_engine()
    return _validate(name)
