"""RunTelemetry manifests: snapshot, serialisation, JSONL round-trips,
and the ambient registry context."""

from __future__ import annotations

import json

import pytest

from repro.faults.models import FaultPlan, StationCrash
from repro.obs.context import current_telemetry, use_telemetry
from repro.obs.instruments import NULL_TELEMETRY, Telemetry
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunTelemetry,
    fault_plan_hash,
    git_rev,
    read_manifests,
    write_manifests,
)


def _populated_registry() -> Telemetry:
    telemetry = Telemetry()
    telemetry.counter("slots/success").inc(3)
    telemetry.gauge("failovers").set(1)
    telemetry.histogram("latency/a", edges=(10, 20)).record(15)
    with telemetry.span("run"):
        with telemetry.span("spec/execute"):
            pass
    return telemetry


class TestFromRegistry:
    def test_snapshot_collects_every_instrument_kind(self):
        doc = RunTelemetry.from_registry(
            _populated_registry(), run_id="X", engine="des", seed=7
        )
        assert doc.counters == {"slots/success": 3}
        assert doc.gauges == {"failovers": 1}
        assert doc.histograms["latency/a"]["count"] == 1
        assert doc.spans[0]["name"] == "run"
        assert doc.spans[0]["children"][0]["name"] == "spec/execute"
        assert doc.engine == "des"
        assert doc.seed == 7
        assert doc.git_rev == git_rev()

    def test_git_rev_runs_git_at_most_once_per_process(self, monkeypatch):
        """One probe per process: ``rev-parse`` and, inside a work tree,
        the ``diff`` that marks it dirty; later manifests run no git."""
        import subprocess

        calls = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        git_rev.cache_clear()
        first = RunTelemetry.from_registry(Telemetry(), run_id="a")
        probe = len(calls)
        assert probe <= 2
        second = RunTelemetry.from_registry(Telemetry(), run_id="b")
        assert first.git_rev == second.git_rev == git_rev()
        assert len(calls) == probe

    def test_fault_plan_hash_is_stable_across_forms(self):
        plan = FaultPlan((StationCrash(0, at=10),))
        assert fault_plan_hash(plan) == fault_plan_hash(plan.dumps())
        assert fault_plan_hash(None) is None
        assert len(fault_plan_hash(plan)) == 16

    def test_from_registry_hashes_the_plan(self):
        plan = FaultPlan((StationCrash(0, at=10),))
        doc = RunTelemetry.from_registry(
            Telemetry(), run_id="X", faults=plan
        )
        assert doc.fault_plan == fault_plan_hash(plan)


class TestGitRev:
    """``git_rev`` against a stubbed ``subprocess.run``."""

    @pytest.fixture(autouse=True)
    def _fresh_probe(self):
        git_rev.cache_clear()
        yield
        git_rev.cache_clear()

    @staticmethod
    def _stub(monkeypatch, rev_returncode=0, diff_returncode=0, git=True):
        """Answer ``rev-parse`` and ``diff``; record each command run."""
        import subprocess

        commands = []

        def fake_run(args, **kwargs):
            commands.append(args[1])
            if not git:
                raise FileNotFoundError(args[0])
            if args[1] == "rev-parse":
                stdout = "abc1234\n" if rev_returncode == 0 else ""
                return subprocess.CompletedProcess(
                    args, rev_returncode, stdout, "fatal: not a git repository"
                )
            assert args[1:] == ["diff", "--quiet", "HEAD", "--"]
            return subprocess.CompletedProcess(args, diff_returncode, "", "")

        monkeypatch.setattr(subprocess, "run", fake_run)
        return commands

    def test_clean_tree_names_head(self, monkeypatch):
        commands = self._stub(monkeypatch, diff_returncode=0)
        assert git_rev() == "abc1234"
        assert commands == ["rev-parse", "diff"]

    def test_dirty_tree_is_marked_and_memoized(self, monkeypatch):
        commands = self._stub(monkeypatch, diff_returncode=1)
        assert git_rev() == "abc1234-dirty"
        assert git_rev() == "abc1234-dirty"
        assert commands == ["rev-parse", "diff"]

    def test_outside_a_work_tree_is_unknown(self, monkeypatch):
        commands = self._stub(monkeypatch, rev_returncode=128)
        assert git_rev() == "unknown"
        assert commands == ["rev-parse"]

    def test_without_git_is_unknown(self, monkeypatch):
        commands = self._stub(monkeypatch, git=False)
        assert git_rev() == "unknown"
        assert commands == ["rev-parse"]


class TestSerialisation:
    def test_dict_round_trip(self):
        doc = RunTelemetry.from_registry(
            _populated_registry(), run_id="X", engine="batch", seed=1
        )
        reread = RunTelemetry.from_dict(doc.to_dict())
        assert reread == doc

    def test_to_dict_carries_schema(self):
        assert RunTelemetry(run_id="X").to_dict()["schema"] == MANIFEST_SCHEMA

    def test_from_dict_ignores_unknown_keys(self):
        doc = RunTelemetry.from_dict(
            {"run_id": "X", "schema": MANIFEST_SCHEMA, "future_field": 1}
        )
        assert doc.run_id == "X"

    def test_to_json_is_one_line(self):
        line = RunTelemetry(run_id="X").to_json()
        assert "\n" not in line
        assert json.loads(line)["run_id"] == "X"

    def test_content_projection_excludes_execution_details(self):
        doc = RunTelemetry.from_registry(
            _populated_registry(),
            run_id="X",
            engine="des",
            seed=3,
            source="pool",
            wall_seconds=1.5,
        )
        content = doc.content_dict()
        assert "engine" not in content
        assert "source" not in content
        assert "wall_seconds" not in content
        assert content["seed"] == 3
        # span structure survives, wall-clock durations do not
        assert content["spans"][0]["name"] == "run"
        assert "seconds" not in content["spans"][0]
        assert "seconds" not in content["spans"][0]["children"][0]


class TestJsonl:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        docs = [
            RunTelemetry.from_registry(_populated_registry(), run_id="A"),
            RunTelemetry(run_id="B", engine="des"),
        ]
        assert write_manifests(path, docs) == 2
        reread = read_manifests(path)
        assert reread == docs

    def test_append_mode(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        write_manifests(path, [RunTelemetry(run_id="A")])
        write_manifests(path, [RunTelemetry(run_id="B")], append=True)
        assert [d.run_id for d in read_manifests(path)] == ["A", "B"]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(RunTelemetry(run_id="A").to_json() + "\n\n\n")
        assert len(read_manifests(path)) == 1

    def test_corrupt_line_reports_location(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"run_id": "A"}\nnot json\n')
        with pytest.raises(ValueError, match=r":2: not valid JSON"):
            read_manifests(path)


class TestContext:
    def test_default_is_null(self):
        assert current_telemetry() is NULL_TELEMETRY

    def test_use_scopes_a_registry(self):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            assert current_telemetry() is telemetry
            with use_telemetry(None):  # None shadows with the null registry
                assert current_telemetry() is NULL_TELEMETRY
            assert current_telemetry() is telemetry
        assert current_telemetry() is NULL_TELEMETRY

    def test_scope_unwinds_on_exception(self):
        telemetry = Telemetry()
        with pytest.raises(RuntimeError):
            with use_telemetry(telemetry):
                raise RuntimeError("x")
        assert current_telemetry() is NULL_TELEMETRY
