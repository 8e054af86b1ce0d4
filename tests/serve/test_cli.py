"""``python -m repro.serve`` CLI: subcommands, exit codes, artifacts."""

from __future__ import annotations

import json

import pytest

from repro.serve.cli import main


def test_trace_writes_jsonl(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    assert main(["trace", str(path), "--events", "25", "--stations", "6",
                 "--trace-seed", "4"]) == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 25
    assert json.loads(lines[0])["seq"] == 0


def test_trace_to_stdout(capsys):
    assert main(["trace", "-", "--events", "5"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5


def test_trace_is_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["--events", "40", "--trace-seed", "8"]
    main(["trace", str(a), *args])
    main(["trace", str(b), *args])
    assert a.read_bytes() == b.read_bytes()


def test_run_then_replay_then_verify(tmp_path, capsys):
    log_dir = tmp_path / "log"
    cache = str(tmp_path / "cache")
    code = main(["run", str(log_dir), "--events", "30", "--stations", "6",
                 "--trace-seed", "2", "--static-q", "64",
                 "--check-every", "10", "--cache-dir", cache])
    assert code == 0
    assert (log_dir / "events.jsonl").exists()
    assert (log_dir / "decisions.jsonl").exists()
    out = capsys.readouterr().out
    assert "0 incident(s)" in out

    assert main(["replay", str(log_dir)]) == 0
    assert "0 mismatch(es)" in capsys.readouterr().out

    assert main(["verify", str(log_dir), "--cache-dir", cache,
                 "--check-every", "10"]) == 0
    assert "0 incident(s)" in capsys.readouterr().out


def test_run_from_trace_file(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    main(["trace", str(trace_path), "--events", "20", "--stations", "5"])
    log_dir = tmp_path / "log"
    code = main(["run", str(log_dir), "--trace-file", str(trace_path),
                 "--static-q", "64", "--no-cache",
                 "--cache-dir", str(tmp_path / "unused")])
    assert code == 0
    events = (log_dir / "events.jsonl").read_text().splitlines()
    assert len(events) == 21  # header + 20 events


def test_run_writes_telemetry_manifest(tmp_path):
    manifest = tmp_path / "tel.jsonl"
    code = main(["run", str(tmp_path / "log"), "--events", "10",
                 "--stations", "4", "--no-cache",
                 "--cache-dir", str(tmp_path / "unused"),
                 "--telemetry", str(manifest)])
    assert code == 0
    doc = json.loads(manifest.read_text().splitlines()[0])
    assert doc["counters"]["serve/requests"] == 10
    assert "serve/decision_latency_us" in doc["histograms"]


def test_corrupted_log_fails_replay(tmp_path, capsys):
    log_dir = tmp_path / "log"
    main(["run", str(log_dir), "--events", "15", "--stations", "4",
          "--no-cache", "--cache-dir", str(tmp_path / "unused")])
    events = log_dir / "events.jsonl"
    lines = events.read_text().splitlines()
    # Flip one logged verdict: replay must detect the mismatch.
    doc = json.loads(lines[1])
    doc["decision"]["verdict"] = (
        "reject" if doc["decision"]["verdict"] != "reject" else "admit"
    )
    lines[1] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    events.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(log_dir)]) == 2
    assert "replay-mismatch" in capsys.readouterr().err


def test_bad_jobs_errors(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", str(tmp_path / "log"), "--jobs", "0"])


@pytest.mark.parametrize("command", ["run", "replay", "verify"])
def test_engine_flag_scopes_the_command(command, tmp_path, monkeypatch):
    """``--engine`` is in scope for the whole command, so the SERVE-CHECK
    counter-checks it runs simulate on the engine asked for."""
    from repro.net.engine import default_engine
    from repro.serve import cli

    seen = []

    def handler(args):
        seen.append(default_engine())
        return 0

    monkeypatch.setattr(cli, f"_cmd_{command}", handler)
    assert main([command, str(tmp_path / "log"), "--engine", "des"]) == 0
    assert main([command, str(tmp_path / "log")]) == 0
    assert seen == ["des", "batch"]
