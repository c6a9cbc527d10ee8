"""Elastic rebalancing: shard splits must never change the science.

Covers the pure re-partition (``split_shard``), the race-safe queue
protocol (``begin_split`` / ``commit_split`` / ``recover_splits``), the
resume path (``expand_splits``), the pace-observing :class:`Rebalancer`,
and the end-to-end property the whole feature hangs on: a campaign whose
shards were split for stragglers merges bit-identically to the serial
run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data import SynthCIFAR
from repro.dist import (
    DistError,
    ExhaustiveContext,
    Rebalancer,
    ShardQueue,
    ShardWorker,
    expand_splits,
    make_exhaustive_shards,
    merge_exhaustive,
    split_shard,
)
from repro.faults import FaultSpace, InferenceEngine, OutcomeTable
from repro.ieee754 import FLOAT16
from repro.models import ResNetCIFAR
from repro.telemetry import Journal, Telemetry, read_journal


@pytest.fixture(scope="module")
def campaign_setup():
    model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
    model.eval()
    data = SynthCIFAR("test", size=8, seed=42)
    engine = InferenceEngine(model, data.images, data.labels, fmt=FLOAT16)
    space = FaultSpace(engine.layers, fmt=FLOAT16)
    return engine, space


@pytest.fixture(scope="module")
def serial_table(campaign_setup):
    engine, space = campaign_setup
    return OutcomeTable.from_exhaustive(engine, space)


def submitted_queue(tmp_path, campaign_setup, *, shards=4):
    engine, space = campaign_setup
    queue = ShardQueue(tmp_path / "q")
    config, specs = make_exhaustive_shards(engine, space, shards=shards)
    queue.submit(specs, config=config)
    return queue, config, specs


class TestSplitShard:
    def test_children_cover_parent_exactly(self, campaign_setup):
        _, specs = make_exhaustive_shards(*campaign_setup, shards=2)
        parent = specs[0]
        children = split_shard(parent, 3)
        assert len(children) == 3
        covered = [unit for child in children for unit in child.units]
        assert sorted(covered) == sorted(parent.units)
        # Round-robin partition, parent order preserved within a child.
        assert children[0].units == tuple(list(parent.units)[0::3])

    def test_deterministic_ids_and_history(self, campaign_setup):
        _, specs = make_exhaustive_shards(*campaign_setup, shards=2)
        parent = specs[0]
        once = split_shard(parent, 2)
        again = split_shard(parent, 2)
        assert [c.shard_id for c in once] == [c.shard_id for c in again]
        assert len({c.shard_id for c in once} | {parent.shard_id}) == 3
        assert all(
            c.history[-1] == f"split {i + 1}/2 of {parent.shard_id}"
            for i, c in enumerate(once)
        )
        assert all(c.config_hash == parent.config_hash for c in once)

    def test_degenerate_parts_rejected(self, campaign_setup):
        _, specs = make_exhaustive_shards(*campaign_setup, shards=2)
        parent = specs[0]
        with pytest.raises(ValueError, match=">= 2 parts"):
            split_shard(parent, 1)
        single = split_shard(parent, len(parent.units))[0]
        with pytest.raises(DistError, match="nothing to split"):
            split_shard(single, 2)

    def test_oversized_parts_clamp_to_unit_count(self, campaign_setup):
        _, specs = make_exhaustive_shards(*campaign_setup, shards=2)
        parent = specs[0]
        children = split_shard(parent, len(parent.units) * 10)
        assert len(children) == len(parent.units)
        assert all(len(c.units) == 1 for c in children)


class TestQueueSplitProtocol:
    def test_commit_rewrites_campaign_and_enqueues(
        self, tmp_path, campaign_setup
    ):
        queue, _, specs = submitted_queue(tmp_path, campaign_setup)
        parent = specs[1]
        claimed = queue.begin_split(parent.shard_id)
        assert claimed is not None
        # While splitting, the parent is invisible to worker claims.
        assert not (queue.pending_dir / f"{parent.shard_id}.json").exists()
        children = split_shard(claimed, 2)
        queue.commit_split(claimed, children)

        campaign = queue.campaign()
        shards = campaign["shards"]
        assert parent.shard_id not in shards
        # Children take the parent's slot, order preserved around it.
        at = shards.index(children[0].shard_id)
        assert shards[at + 1] == children[1].shard_id
        assert shards[0] == specs[0].shard_id
        assert campaign["splits"][parent.shard_id] == {
            "children": [c.shard_id for c in children],
            "parts": 2,
        }
        for child in children:
            assert (queue.pending_dir / f"{child.shard_id}.json").exists()
        assert not queue.splitting_path(parent.shard_id).exists()

    def test_begin_split_loses_to_a_claim(self, tmp_path, campaign_setup):
        queue, _, specs = submitted_queue(tmp_path, campaign_setup)
        spec, lease = queue.claim(worker="w1", lease_seconds=30.0)
        assert queue.begin_split(spec.shard_id) is None
        lease.release()

    def test_commit_rejects_foreign_shard(self, tmp_path, campaign_setup):
        queue, _, specs = submitted_queue(tmp_path, campaign_setup)
        parent = specs[0]
        foreign = split_shard(parent, 2)[0]
        with pytest.raises(DistError, match="not part of the campaign"):
            queue.commit_split(foreign, split_shard(parent, 2))

    def test_recover_uncommitted_split_restores_parent(
        self, tmp_path, campaign_setup
    ):
        queue, _, specs = submitted_queue(tmp_path, campaign_setup)
        parent = specs[2]
        queue.begin_split(parent.shard_id)
        # Crash before commit_split: campaign.json never changed.
        recovered = queue.recover_splits()
        assert recovered == [parent.shard_id]
        assert (queue.pending_dir / f"{parent.shard_id}.json").exists()
        assert parent.shard_id in queue.campaign()["shards"]

    def test_recover_committed_split_rederives_children(
        self, tmp_path, campaign_setup
    ):
        queue, _, specs = submitted_queue(tmp_path, campaign_setup)
        parent = specs[0]
        claimed = queue.begin_split(parent.shard_id)
        children = split_shard(claimed, 2)
        queue.commit_split(claimed, children)
        # Simulate the crash window after the campaign.json rewrite:
        # children vanished, the .splitting parent is still on disk.
        for child in children:
            (queue.pending_dir / f"{child.shard_id}.json").unlink()
        queue.splitting_path(parent.shard_id).write_text(
            claimed.to_json() + "\n"
        )
        recovered = queue.recover_splits()
        assert recovered == [parent.shard_id]
        for child in children:
            assert (queue.pending_dir / f"{child.shard_id}.json").exists()
        assert not queue.splitting_path(parent.shard_id).exists()

    def test_resubmit_expands_recorded_splits(self, tmp_path, campaign_setup):
        queue, config, specs = submitted_queue(tmp_path, campaign_setup)
        parent = specs[0]
        claimed = queue.begin_split(parent.shard_id)
        children = split_shard(claimed, 2)
        queue.commit_split(claimed, children)
        # Resume with the *original* shard list: the recorded split must
        # re-derive the children instead of resurrecting the parent.
        _, fresh_specs = make_exhaustive_shards(*campaign_setup, shards=4)
        queue.submit(fresh_specs, config=config)
        assert not (queue.pending_dir / f"{parent.shard_id}.json").exists()
        assert parent.shard_id not in queue.campaign()["shards"]
        for child in children:
            assert child.shard_id in queue.campaign()["shards"]

    def test_expand_splits_validates_derivation(self, campaign_setup):
        _, specs = make_exhaustive_shards(*campaign_setup, shards=2)
        parent = specs[0]
        children = split_shard(parent, 2)
        record = {
            parent.shard_id: {
                "children": [c.shard_id for c in children],
                "parts": 2,
            }
        }
        expanded = expand_splits(specs, record)
        assert [s.shard_id for s in expanded] == [
            children[0].shard_id,
            children[1].shard_id,
            specs[1].shard_id,
        ]
        # Grandchildren: splits of splits replay recursively.
        grand = split_shard(children[0], 2)
        record[children[0].shard_id] = {
            "children": [g.shard_id for g in grand],
            "parts": 2,
        }
        deep = expand_splits(specs, record)
        assert grand[0].shard_id in {s.shard_id for s in deep}
        # A tampered record (ids that split_shard cannot re-derive) is an
        # integrity failure, not something to silently re-enqueue.
        record[parent.shard_id]["children"] = ["bogus", "ids"]
        with pytest.raises(DistError, match="does not reproduce"):
            expand_splits(specs, record)


def write_lease(queue, shard_id, *, worker, acquired, heartbeats):
    queue.leased_dir.mkdir(parents=True, exist_ok=True)
    (queue.leased_dir / f"{shard_id}.lease.json").write_text(
        json.dumps(
            {
                "shard_id": shard_id,
                "worker": worker,
                "acquired": acquired,
                "heartbeats": heartbeats,
                "deadline": acquired + 3600.0,
                "lease_seconds": 3600.0,
            }
        )
    )


class TestRebalancer:
    def test_observe_reads_lease_progress(self, tmp_path, campaign_setup):
        queue, _, specs = submitted_queue(tmp_path, campaign_setup)
        write_lease(
            queue, "a" * 16, worker="fast", acquired=1000.0, heartbeats=50
        )
        write_lease(
            queue, "b" * 16, worker="slow", acquired=1000.0, heartbeats=2
        )
        rebalancer = Rebalancer(queue)
        rates = {r.worker: r for r in rebalancer.observe(now=1100.0)}
        assert rates["fast"].rate == pytest.approx(0.5)
        assert rates["slow"].rate == pytest.approx(0.02)

    def test_straggler_pace_splits_pending_shards(
        self, tmp_path, campaign_setup
    ):
        queue, _, specs = submitted_queue(tmp_path, campaign_setup, shards=4)
        # Three healthy workers, one straggler at 1/25th their rate.
        for i, heartbeats in enumerate((50, 50, 50)):
            write_lease(
                queue,
                f"{i}" * 16,
                worker=f"fast{i}",
                acquired=1000.0,
                heartbeats=heartbeats,
            )
        write_lease(
            queue, "f" * 16, worker="laggard", acquired=1000.0, heartbeats=2
        )
        journal = tmp_path / "rebalance.jsonl"
        rebalancer = Rebalancer(
            queue,
            # Healthy pace: 0.5 units/s -> 2 s/unit.  The straggler runs
            # at 50 s/unit, so a ~28-unit pending shard prices at ~1400s
            # against a 60s target and must split.
            target_shard_seconds=60.0,
            telemetry=Telemetry(journal=Journal(journal)),
        )
        report = rebalancer.tick(now=1100.0)
        assert report.stragglers == ["laggard"]
        assert report.seconds_per_unit == pytest.approx(50.0)
        assert report.split_count == 4  # every pending shard was oversized
        campaign_shards = queue.campaign()["shards"]
        for parent_id, child_ids in report.splits:
            assert parent_id not in campaign_shards
            assert all(c in campaign_shards for c in child_ids)
        events = read_journal(journal)
        assert [e.type for e in events].count("shard_split") == 4
        assert events[0].fields["children"] == list(report.splits[0][1])

    def test_healthy_fleet_does_not_split_fine_shards(
        self, tmp_path, campaign_setup
    ):
        queue, _, _ = submitted_queue(tmp_path, campaign_setup, shards=4)
        write_lease(
            queue, "a" * 16, worker="fast", acquired=1000.0, heartbeats=500
        )
        rebalancer = Rebalancer(queue, target_shard_seconds=60.0)
        report = rebalancer.tick(now=1100.0)
        assert report.stragglers == []
        assert report.split_count == 0

    def test_no_observations_and_no_prior_never_splits(
        self, tmp_path, campaign_setup
    ):
        queue, _, _ = submitted_queue(tmp_path, campaign_setup, shards=2)
        rebalancer = Rebalancer(queue, target_shard_seconds=0.001)
        report = rebalancer.tick(now=1100.0)
        assert report.seconds_per_unit is None
        assert report.split_count == 0

    def test_prior_pace_splits_before_any_lease(
        self, tmp_path, campaign_setup
    ):
        queue, _, specs = submitted_queue(tmp_path, campaign_setup, shards=2)
        rebalancer = Rebalancer(
            queue, target_shard_seconds=30.0, seconds_per_unit=10.0
        )
        report = rebalancer.tick(now=1100.0)
        assert report.split_count == 2
        # Idempotent: children now fit the target at the same pace.
        min_child = min(
            len(s.units) for s in map(queue._read_spec, queue.pending_dir.glob("*.json"))
        )
        assert min_child * 10.0 <= 30.0 or min_child >= rebalancer.min_units


class TestSplitCampaignMergesIdentically:
    def test_straggler_split_campaign_is_bit_identical(
        self, tmp_path, campaign_setup, serial_table
    ):
        """The acceptance property: split shards, drain, merge, compare."""
        engine, space = campaign_setup
        queue, _, specs = submitted_queue(tmp_path, campaign_setup, shards=3)
        # A rebalance pass with a pessimistic prior splits every pending
        # shard before the fleet arrives (the worst-case storm).
        rebalancer = Rebalancer(
            queue, target_shard_seconds=1.0, seconds_per_unit=1.0
        )
        report = rebalancer.tick()
        assert report.split_count == 3
        context = ExhaustiveContext(engine, space)
        completed = ShardWorker(
            queue, context, worker_id="w1", lease_seconds=60.0
        ).run()
        assert completed == len(queue.campaign()["shards"])
        assert queue.is_complete()
        merged = merge_exhaustive(queue)
        assert merged.num_layers == serial_table.num_layers
        for left, right in zip(serial_table.outcomes, merged.outcomes):
            assert np.array_equal(left, right)
