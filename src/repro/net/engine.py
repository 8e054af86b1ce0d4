"""Simulation engine selection: the batch default or the per-slot reference.

Two engines can turn the broadcast channel's crank:

* ``batch`` — the default: the slot-synchronous loop, which advances
  ``env.now`` itself and crosses provably idle (and jammed) stretches in
  one step, with the struct-of-arrays kernel (:mod:`repro.net.batch`) as
  the station side of each round wherever a channel is eligible:
  per-station EDF keys, tree positions and roster positions live in
  plain list columns and one shadow protocol replica digests each slot
  and each leapt stretch, so per-slot cost is near-constant in the
  station count.  The kernel is limited to homogeneous single-bus runs
  of the lockstep protocols, CSMA/DDCR, CSMA/DCR and TDMA; anything else
  (BEB, slotted ALOHA, mixed MAC types, bursting, fault injectors,
  consistency checks, channels sharing a clock, non-destructive media)
  runs the same loop on every station's own replica (the fast loop),
  which leaps on each replica's say-so, and the run returns
  ``batch engine unavailable (<reason>): ran fastloop``, kept on the
  run's result (``engine_fallback``).
* ``des`` — the per-slot reference: :meth:`Environment.run
  <repro.sim.engine.Environment.run>` steps every round of the channels
  on one clock, the one that starts first next, ties in registration
  order and then in the order the previous rounds ran.  It never leaps.

Both engines execute the *identical* round semantics and draw from the
same RNG streams in the same order, so results — channel statistics,
completion records, trace streams — are byte-identical.  The runtime
layer therefore excludes the engine from result cache keys.  This
equivalence extends to the fault-injection and invariant layers: an armed
:class:`~repro.faults.runtime.FaultInjector` and any
:class:`~repro.sim.invariants.MonitorSuite` are driven identically, so
fault timelines and violation reports are also byte-identical across
engines (enforced by the engine-differential tests).

The engine is ambient: :func:`use_engine` scopes it for a dynamic extent
(every CLI's ``--engine`` flag enters it, and executor pool workers start
on the one in scope), and :meth:`BroadcastChannel.run
<repro.net.channel.BroadcastChannel.run>` reads it when a run starts.
Nothing else selects an engine: no simulation object, run spec or sweep
campaign carries one.
"""

from __future__ import annotations

from repro.context import ScopedValue

__all__ = [
    "ENGINES",
    "default_engine",
    "set_default_engine",
    "resolve_engine",
    "use_engine",
]

#: Legal engine names; the first is the process default.
ENGINES = ("batch", "des")


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
    default=lambda: ENGINES[0],
    coerce=_validate,
    none_is_noop=True,
)

#: The process-wide engine default (``batch``), shadowed inside any
#: active :func:`use_engine` scope.
default_engine = _SCOPE.current

#: Set the innermost engine default; returns the previous value.  Outside
#: any scope this is the process-wide default; inside a scope the change
#: dies when the scope exits.
set_default_engine = _SCOPE.set_default

#: Scoped default-engine override (no-op when the name is ``None``).  A
#: CLI wraps its whole run in this, so ``--engine`` reaches every
#: simulation an experiment builds without threading a parameter through
#: every experiment module.
use_engine = _SCOPE.using


def resolve_engine(name: str | None) -> str:
    """Resolve an engine request (``None`` means "use the default")."""
    if name is None:
        return default_engine()
    return _validate(name)
