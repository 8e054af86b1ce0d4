"""Checkpoint/resume: zero resubmissions and byte-identical aggregates."""

from __future__ import annotations

import json

import pytest

from repro.net.engine import use_engine
from repro.runtime.cache import ResultCache
from repro.sweep import Campaign, JournalMismatch, run_campaign


def fig1_campaign(batch_size: int = 1) -> Campaign:
    # FIG1 needs t to be a power of m, so the shapes are a zipped axis.
    return Campaign.make(
        "resume-fig1",
        experiment="FIG1",
        zipped={"m": (2, 2, 3, 3), "t": (8, 16, 9, 27)},
        batch_size=batch_size,
    )


class TestResume:
    def test_killed_then_resumed_matches_uninterrupted_run(self, tmp_path):
        campaign = fig1_campaign()
        journal = tmp_path / "campaign.journal.jsonl"
        cache = ResultCache(tmp_path / "cache")

        # The reference: one uninterrupted run against its own cache.
        reference = run_campaign(
            campaign, cache=ResultCache(tmp_path / "ref-cache")
        )
        assert reference.complete and reference.ok

        # "Kill" the campaign after two of four shards...
        partial = run_campaign(
            campaign, cache=cache, journal_path=journal, max_shards=2
        )
        assert not partial.complete
        assert partial.executed_shards == 2
        assert len(partial.outcomes) == 2

        # ...then resume: the journaled shards replay from the cache
        # without a single executor submission.
        resumed = run_campaign(
            campaign, cache=cache, journal_path=journal, resume=True
        )
        assert resumed.complete and resumed.ok
        assert resumed.replayed_shards == 2
        assert resumed.executed_shards == 2
        assert resumed.submissions == 2  # only the never-run shards
        assert resumed.aggregate_json() == reference.aggregate_json()

    def test_fully_journaled_resume_resubmits_nothing(self, tmp_path):
        campaign = fig1_campaign(batch_size=2)
        journal = tmp_path / "campaign.journal.jsonl"
        cache = ResultCache(tmp_path / "cache")

        cold = run_campaign(campaign, cache=cache, journal_path=journal)
        assert cold.complete and cold.submissions == 4

        resumed = run_campaign(
            campaign, cache=cache, journal_path=journal, resume=True
        )
        assert resumed.submissions == 0
        assert resumed.executed_shards == 0
        assert resumed.replayed_shards == resumed.total_shards == 2
        assert all(o.source == "journal" for o in resumed.outcomes)
        assert resumed.aggregate_json() == cold.aggregate_json()

    def test_resume_without_journal_file_degrades_to_fresh_run(
        self, tmp_path
    ):
        campaign = fig1_campaign(batch_size=4)
        result = run_campaign(
            campaign,
            cache=ResultCache(tmp_path / "cache"),
            journal_path=tmp_path / "never-written.jsonl",
            resume=True,
        )
        assert result.complete
        assert result.replayed_shards == 0
        assert result.executed_shards == 1

    def test_cache_eviction_falls_back_to_re_execution(self, tmp_path):
        campaign = fig1_campaign(batch_size=2)
        journal = tmp_path / "campaign.journal.jsonl"
        cache = ResultCache(tmp_path / "cache")
        cold = run_campaign(campaign, cache=cache, journal_path=journal)

        # Evict one journaled point: its shard must re-run, the other
        # still replays, and the aggregate is unchanged.
        cache.path_for(campaign.points()[0].spec).unlink()
        resumed = run_campaign(
            campaign, cache=cache, journal_path=journal, resume=True
        )
        assert resumed.complete
        assert resumed.replayed_shards == 1
        assert resumed.executed_shards == 1
        assert resumed.aggregate_json() == cold.aggregate_json()

    def test_truncated_journal_tail_is_skipped(self, tmp_path):
        campaign = fig1_campaign()
        journal = tmp_path / "campaign.journal.jsonl"
        cache = ResultCache(tmp_path / "cache")
        run_campaign(campaign, cache=cache, journal_path=journal)

        # Simulate a crash mid-append: chop the last line in half.
        text = journal.read_text()
        journal.write_text(text[: len(text) - 25])
        resumed = run_campaign(
            campaign, cache=cache, journal_path=journal, resume=True
        )
        assert resumed.complete
        assert resumed.replayed_shards == 3
        assert resumed.executed_shards == 1

    def test_stale_journal_is_rejected(self, tmp_path):
        journal = tmp_path / "campaign.journal.jsonl"
        cache = ResultCache(tmp_path / "cache")
        run_campaign(
            fig1_campaign(), cache=cache, journal_path=journal
        )
        # Same journal, different grid: the campaign hash no longer
        # matches, so resuming must refuse rather than replay garbage.
        edited = Campaign.make(
            "resume-fig1",
            experiment="FIG1",
            zipped={"m": (2, 2), "t": (8, 16)},
        )
        with pytest.raises(JournalMismatch):
            run_campaign(
                edited, cache=cache, journal_path=journal, resume=True
            )

    def test_resume_needs_journal_and_cache(self, tmp_path):
        with pytest.raises(ValueError, match="journal_path"):
            run_campaign(
                fig1_campaign(),
                cache=ResultCache(tmp_path / "cache"),
                resume=True,
            )
        with pytest.raises(ValueError, match="cache"):
            run_campaign(
                fig1_campaign(),
                journal_path=tmp_path / "j.jsonl",
                resume=True,
            )


class TestEngineIdentity:
    def test_aggregate_is_byte_identical_across_engines(self, tmp_path):
        # The acceptance bar: same campaign, both engines, separate
        # caches — the deterministic aggregate must not move a byte.
        campaign = Campaign.make(
            "proto-engine-pair",
            experiment="PROTO",
            seeds=(7,),
            batch_size=1,
        )
        aggregates = {}
        for engine in ("des", "batch"):
            with use_engine(engine):
                result = run_campaign(
                    campaign,
                    cache=ResultCache(tmp_path / f"cache-{engine}"),
                    journal_path=tmp_path / f"{engine}.journal.jsonl",
                )
            assert result.complete and result.ok
            aggregates[engine] = result.aggregate_json()
        assert aggregates["des"] == aggregates["batch"]
        # Sanity: the aggregate actually carries content to compare.
        doc = json.loads(aggregates["des"])
        assert doc["points"] and doc["axes"]
