"""Campaign expansion: reserved axes, hashing, shards, serialisation."""

from __future__ import annotations

import json

import pytest

from repro.faults.models import preset_plan
from repro.sweep import Campaign, Grid, builtin_campaigns


class TestPointExpansion:
    def test_points_bind_specs_in_grid_order(self):
        campaign = Campaign.make(
            "demo", experiment="FIG1", zipped={"m": [2, 3], "t": [8, 27]}
        )
        points = campaign.points()
        assert [p.index for p in points] == [0, 1]
        assert points[0].spec.experiment_id == "FIG1"
        assert points[0].spec.kwargs() == {"m": 2, "t": 8}
        assert points[1].spec.kwargs() == {"m": 3, "t": 27}

    def test_seed_axis_becomes_root_seed(self):
        campaign = Campaign.make("demo", experiment="PROTO", seeds=(7, 11))
        seeds = [p.spec.root_seed for p in campaign.points()]
        assert seeds == [7, 11]
        assert all("seed" not in p.spec.kwargs() for p in campaign.points())

    def test_experiment_axis_overrides_default(self):
        campaign = Campaign.make(
            "demo", axes={"experiment": ["FIG1", "FIG2"]}
        )
        ids = [p.spec.experiment_id for p in campaign.points()]
        assert ids == ["FIG1", "FIG2"]

    def test_missing_experiment_rejected(self):
        campaign = Campaign.make("demo", axes={"m": [2]})
        with pytest.raises(ValueError, match="selects no experiment"):
            campaign.points()

    def test_fault_axis_expands_presets(self):
        campaign = Campaign.make(
            "demo", experiment="PROTO", axes={"fault": ["crash"]}
        )
        (point,) = campaign.points()
        assert point.spec.faults == preset_plan("crash").dumps()

    def test_fault_and_faults_conflict(self):
        campaign = Campaign.make(
            "demo",
            experiment="PROTO",
            axes={"fault": ["crash"]},
            params={},
        )
        conflicted = campaign.replace(
            grid=Grid.make(
                axes={
                    "fault": ["crash"],
                    "faults": [preset_plan("crash").dumps()],
                }
            )
        )
        with pytest.raises(ValueError, match="both 'fault' and 'faults'"):
            conflicted.points()

    def test_base_params_layer_under_axes(self):
        campaign = Campaign.make(
            "demo",
            experiment="FC",
            axes={"z": [4, 8]},
            params={"deadlines_ms": (2, 4)},
        )
        for point in campaign.points():
            assert point.spec.kwargs()["deadlines_ms"] == (2, 4)

    def test_axis_overrides_base_param(self):
        campaign = Campaign.make(
            "demo", experiment="FC", axes={"z": [16]}, params={"z": 8}
        )
        (point,) = campaign.points()
        assert point.spec.kwargs() == {"z": 16}


class TestShardsAndHash:
    def test_shards_chunk_in_order(self):
        campaign = Campaign.make(
            "demo", experiment="FIG1", zipped={"m": [2] * 5, "t": [8] * 5},
            batch_size=2,
        )
        # Degenerate grid (identical points) still shards positionally.
        shards = campaign.shards()
        assert [len(shard) for shard in shards] == [2, 2, 1]
        assert [p.index for shard in shards for p in shard] == list(range(5))

    def test_hash_stable_for_equal_campaigns(self):
        make = lambda: Campaign.make(  # noqa: E731
            "demo", experiment="FIG1", zipped={"m": [2, 3], "t": [8, 27]}
        )
        assert make().campaign_hash() == make().campaign_hash()

    def test_hash_changes_with_grid(self):
        a = Campaign.make("demo", experiment="FIG1", axes={"m": [2]})
        b = Campaign.make("demo", experiment="FIG1", axes={"m": [3]})
        assert a.campaign_hash() != b.campaign_hash()

    def test_hash_changes_with_batch_size(self):
        a = Campaign.make("demo", experiment="FIG1", axes={"m": [2]})
        assert (
            a.campaign_hash()
            != a.replace(batch_size=2).campaign_hash()
        )

    def test_with_seeds_replaces_replicas(self):
        campaign = Campaign.make("demo", experiment="PROTO", seeds=(7, 11))
        reseeded = campaign.with_seeds((13,))
        assert [p.spec.root_seed for p in reseeded.points()] == [13]

    def test_batch_size_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            Campaign.make("demo", experiment="FIG1", batch_size=0)


class TestSerialisation:
    def test_round_trip(self):
        campaign = Campaign.make(
            "demo",
            experiment="FC",
            axes={"z": [4, 8]},
            seeds=[7],
            params={"deadlines_ms": (2, 4)},
            batch_size=3,
            description="round trip",
        )
        clone = Campaign.from_dict(campaign.to_dict())
        assert clone == campaign
        assert clone.campaign_hash() == campaign.campaign_hash()

    def test_load_from_json_file(self, tmp_path):
        doc = {
            "name": "file-campaign",
            "experiment": "FIG1",
            "zip": {"m": [2, 3], "t": [8, 27]},
            "batch_size": 2,
        }
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(doc))
        campaign = Campaign.load(path)
        assert campaign.name == "file-campaign"
        assert campaign.grid.size == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign key"):
            Campaign.from_dict({"name": "x", "bogus": 1})

    def test_engine_key_rejected(self):
        # A campaign names no engine: its points run on the one
        # ``sweep --engine`` scopes.
        with pytest.raises(ValueError, match=r"unknown campaign key.*'engine'"):
            Campaign.from_dict(
                {"name": "x", "experiment": "FIG1", "engine": "des"}
            )

    def test_nameless_rejected(self):
        with pytest.raises(ValueError, match="name"):
            Campaign.from_dict({"experiment": "FIG1"})


class TestBuiltins:
    def test_ports_of_the_hand_rolled_sweeps_registered(self):
        campaigns = builtin_campaigns()
        assert "fc-frontier" in campaigns
        assert "proto-seeds" in campaigns

    def test_fc_frontier_sweeps_z(self):
        campaign = builtin_campaigns()["fc-frontier"]
        assert campaign.experiment == "FC"
        zs = [p.spec.kwargs()["z"] for p in campaign.points()]
        assert zs == [4, 8, 16]

    def test_proto_seeds_replicates_the_full_comparison(self):
        campaign = builtin_campaigns()["proto-seeds"]
        assert campaign.experiment == "PROTO"
        # Scale is never an axis: the PROTO cross-scale checks only hold
        # over the whole scale set, so replicas vary the seed instead.
        assert [p.spec.kwargs() for p in campaign.points()] == [{}] * 3
        assert [p.spec.root_seed for p in campaign.points()] == [7, 11, 13]
