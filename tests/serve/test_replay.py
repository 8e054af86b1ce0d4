"""Differential replay: cold run, log replay and mid-trace resume must
produce byte-identical decision logs — also with the persistent xi store
disabled."""

from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.xi_store import use_xi_store
from repro.serve.service import (
    AdmissionService,
    ServeConfig,
    read_event_log,
    replay_event_log,
)
from repro.serve.traces import TraceConfig, generate_trace

_CONFIG = ServeConfig(static_q=64)
_TRACE = TraceConfig(events=120, stations=12, seed=21, template="city")


def _decision_lines(log_dir) -> list[str]:
    return (log_dir / "decisions.jsonl").read_text().splitlines()


def _cold_run(log_dir) -> list[str]:
    with AdmissionService(_CONFIG, log_dir=log_dir) as service:
        decisions = service.run_trace(generate_trace(_TRACE))
        assert not service.incidents
    return [decision.to_json() for decision in decisions]


@pytest.mark.parametrize("replayer", ["default", "python"])
def test_replay_is_byte_identical(tmp_path, replayer):
    """``default`` replays in this process.  ``python`` replays through
    ``python -m repro.serve replay`` in a fresh interpreter with its own
    string-hash seed, as a resume after a crash does, so a decision that
    hangs on the iteration order of str-keyed sets or dicts, or on any
    other state of the process that wrote the log, shows as a mismatch."""
    log_dir = tmp_path / "log"
    cold = _cold_run(log_dir)
    assert _decision_lines(log_dir) == cold
    if replayer == "default":
        replayed = replay_event_log(log_dir)
        assert replayed.incidents == []  # every decision byte-compared inside
        return
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="random")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.serve", "replay", str(log_dir)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"replayed {len(cold)} event(s): 0 mismatch(es)" in proc.stdout


def test_replay_without_xi_store_is_byte_identical(tmp_path):
    """REPRO_XI_CACHE=off equivalent: the ambient store disabled.  The
    xi tables are recomputed instead of loaded, and the decision log must
    not move by a byte."""
    log_dir = tmp_path / "log"
    cold = _cold_run(log_dir)
    with use_xi_store(None):
        replayed = replay_event_log(log_dir)
    assert replayed.incidents == []
    assert _decision_lines(log_dir) == cold


def test_resume_mid_trace_continues_the_same_log(tmp_path):
    """Replay the first half with ``attach``, serve the second half live:
    the combined decision log must equal the cold run's byte for byte."""
    cold_dir = tmp_path / "cold"
    cold = _cold_run(cold_dir)
    trace = generate_trace(_TRACE)
    half = len(trace) // 2

    # First half served "yesterday"...
    partial_dir = tmp_path / "partial"
    with AdmissionService(_CONFIG, log_dir=partial_dir) as first:
        first.run_trace(trace[:half])

    # ...process restarts: replay the log, re-attach, serve the rest.
    resumed = replay_event_log(partial_dir, attach=True)
    assert resumed.incidents == []
    assert resumed._last_seq == trace[half - 1].seq
    with resumed:
        resumed.run_trace(trace[half:])
    assert _decision_lines(partial_dir) == cold


def test_resume_rejects_out_of_order_continuation(tmp_path):
    log_dir = tmp_path / "log"
    trace = generate_trace(_TRACE)
    with AdmissionService(_CONFIG, log_dir=log_dir) as service:
        service.run_trace(trace[:10])
    resumed = replay_event_log(log_dir, attach=True)
    with resumed:
        decision = resumed.handle(trace[3])  # stale seq
    assert decision.verdict == "error"


def test_read_event_log_round_trips(tmp_path):
    log_dir = tmp_path / "log"
    _cold_run(log_dir)
    config, events = read_event_log(log_dir)
    assert config == _CONFIG
    assert len(events) == _TRACE.events
    requests = [request for request, _ in events]
    assert [r.to_json() for r in requests] == [
        r.to_json() for r in generate_trace(_TRACE)
    ]


def test_journal_bytes_match_the_pinned_digests(tmp_path):
    """The journal bytes themselves, not just run-vs-replay agreement.

    Both digests were measured when decisions still read full FC
    reports; a change to how decisions or journal lines are computed
    must leave every byte in place."""
    log_dir = tmp_path / "log"
    trace = generate_trace(TraceConfig(events=500, seed=7, template="city"))
    with use_xi_store(None):
        with AdmissionService(
            ServeConfig(check_every=64), log_dir=log_dir
        ) as service:
            service.run_trace(trace)
        assert service.incidents == []
        digests = {
            name: hashlib.sha256((log_dir / name).read_bytes()).hexdigest()
            for name in ("decisions.jsonl", "events.jsonl")
        }
        assert digests == {
            "decisions.jsonl": "b9f90e5bc5418f215f696c8f6db2c87b"
            "2867a379649f233b48805832b4f04900",
            "events.jsonl": "dd43892030d089d33b8e8ed532aad195"
            "dc9f02956e428fda99b362f669d150d4",
        }
        assert replay_event_log(log_dir).incidents == []
