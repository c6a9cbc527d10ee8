"""Sharded campaigns merge bit-identically to serial runs.

The deterministic-merge guarantee is the whole point of ``repro.dist``:
however a campaign is sharded, however many workers drain it, whatever
order shards complete in, the merged result must equal the serial run
bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SynthCIFAR
from repro.dist import (
    DistError,
    ExhaustiveContext,
    MergeError,
    SampledContext,
    ShardQueue,
    ShardWorker,
    make_exhaustive_shards,
    make_sampled_shards,
    merge_exhaustive,
    merge_sampled,
    run_sharded_campaign,
    run_sharded_exhaustive,
    verify_context_config,
)
from repro.faults import (
    FaultSpace,
    InferenceEngine,
    OutcomeTable,
    TableOracle,
)
from repro.ieee754 import FLOAT16
from repro.models import ResNetCIFAR
from repro.sfi import CampaignRunner, DataUnawareSFI
from repro.telemetry import Telemetry, resolve_telemetry


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


def assert_tables_identical(a: OutcomeTable, b: OutcomeTable) -> None:
    assert a.num_layers == b.num_layers
    for left, right in zip(a.outcomes, b.outcomes):
        assert left.dtype == right.dtype == np.uint8
        assert np.array_equal(left, right)


class TestShardedExhaustive:
    def test_sharded_matches_serial_bit_for_bit(
        self, campaign_setup, serial_table, tmp_path
    ):
        engine, space = campaign_setup
        merged = run_sharded_exhaustive(
            engine, space, tmp_path / "q", shards=4, workers=2
        )
        assert_tables_identical(serial_table, merged)
        assert merged.metadata["inference_count"] == (
            serial_table.metadata["inference_count"]
        )
        assert merged.metadata["shards"] == 4
        assert merged.metadata["merged"] is True

    def test_shard_count_does_not_change_the_table(
        self, campaign_setup, serial_table, tmp_path
    ):
        engine, space = campaign_setup
        for shards in (1, 7):
            merged = run_sharded_exhaustive(
                engine, space, tmp_path / f"q{shards}",
                shards=shards, workers=1,
            )
            assert_tables_identical(serial_table, merged)

    def test_completion_order_does_not_change_the_table(
        self, campaign_setup, serial_table, tmp_path
    ):
        """Drain shards explicitly in reverse claim order."""
        engine, space = campaign_setup
        queue = ShardQueue(tmp_path / "q")
        config, specs = make_exhaustive_shards(engine, space, shards=4)
        queue.submit(specs, config=config)
        context = ExhaustiveContext(engine, space)
        claimed = []
        while (got := queue.claim(worker="w", lease_seconds=60.0)):
            claimed.append(got)
        for spec, lease in reversed(claimed):
            arrays = context.run_shard(
                spec, resolve_telemetry(None), lambda: None
            )
            queue.complete(spec, arrays, lease=lease)
        assert_tables_identical(serial_table, merge_exhaustive(queue))


class TestShardedSampled:
    @pytest.fixture(scope="class")
    def sampled_setup(self, campaign_setup, serial_table):
        engine, space = campaign_setup
        oracle = TableOracle(serial_table, space)
        plan = DataUnawareSFI(0.2, 0.95).plan(space)
        serial = CampaignRunner(oracle, space).run(plan, seed=7)
        return engine, space, oracle, plan, serial

    def test_sharded_matches_serial_exactly(self, sampled_setup, tmp_path):
        engine, space, oracle, plan, serial = sampled_setup
        merged = run_sharded_campaign(
            oracle,
            space,
            plan,
            tmp_path / "q",
            seed=7,
            shards=4,
            workers=2,
            golden_sha256=engine.fingerprint(),
        )
        assert merged.cell_tallies == serial.cell_tallies
        assert merged.assumed_p == serial.assumed_p
        assert merged.network_estimate() == serial.network_estimate()

    def test_shard_count_does_not_change_the_result(
        self, sampled_setup, tmp_path
    ):
        engine, space, oracle, plan, serial = sampled_setup
        for shards in (1, 5):
            merged = run_sharded_campaign(
                oracle, space, plan, tmp_path / f"q{shards}",
                seed=7, shards=shards, workers=1,
            )
            assert merged.cell_tallies == serial.cell_tallies
            assert merged.assumed_p == serial.assumed_p


class TestMergeRefusals:
    def test_incomplete_queue_is_refused(self, campaign_setup, tmp_path):
        engine, space = campaign_setup
        queue = ShardQueue(tmp_path / "q")
        config, specs = make_exhaustive_shards(engine, space, shards=4)
        queue.submit(specs, config=config)
        with pytest.raises(MergeError, match="incomplete"):
            merge_exhaustive(queue)

    def test_mismatched_config_fingerprint_is_refused(
        self, campaign_setup, tmp_path
    ):
        """Results produced under one campaign config must not merge
        into another, even if shard ids were forged to line up."""
        import json

        engine, space = campaign_setup
        queue = ShardQueue(tmp_path / "q")
        config, specs = make_exhaustive_shards(engine, space, shards=2)
        queue.submit(specs, config=config)
        context = ExhaustiveContext(engine, space)
        while (got := queue.claim(worker="w", lease_seconds=60.0)):
            spec, lease = got
            arrays = context.run_shard(
                spec, resolve_telemetry(None), lambda: None
            )
            queue.complete(spec, arrays, lease=lease)
        # Tamper with the published campaign fingerprint: the done
        # results now carry a different config hash than the campaign.
        campaign = queue.campaign()
        campaign["config_hash"] = "f" * 64
        queue.campaign_path.write_text(json.dumps(campaign))
        with pytest.raises(MergeError, match="was produced under config"):
            merge_exhaustive(queue)

    def test_wrong_kind_is_refused(self, campaign_setup, tmp_path):
        engine, space = campaign_setup
        queue = ShardQueue(tmp_path / "q")
        config, specs = make_exhaustive_shards(engine, space, shards=2)
        queue.submit(specs, config=config)
        with pytest.raises(MergeError, match="expected 'sampled'"):
            merge_sampled(queue, space)


class TestWorkerVerification:
    def test_mismatched_engine_fingerprint_is_refused(self, campaign_setup):
        engine, space = campaign_setup
        config = {"kind": "exhaustive", "golden_sha256": "0" * 64}
        with pytest.raises(DistError, match="fingerprint mismatch"):
            verify_context_config(ExhaustiveContext(engine, space), config)

    def test_matching_engine_passes(self, campaign_setup):
        engine, space = campaign_setup
        config = {
            "kind": "exhaustive",
            "golden_sha256": engine.fingerprint(),
            "layer_sizes": [layer.size for layer in space.layers],
        }
        verify_context_config(ExhaustiveContext(engine, space), config)

    def test_kind_mismatch_is_refused(self, campaign_setup, serial_table):
        engine, space = campaign_setup
        oracle = TableOracle(serial_table, space)
        plan = DataUnawareSFI(0.2, 0.95).plan(space)
        context = SampledContext(oracle, space, plan)
        with pytest.raises(DistError, match="does not match"):
            verify_context_config(context, {"kind": "exhaustive"})


class TestWorkerTelemetry:
    def test_shard_lifecycle_is_journaled(
        self, campaign_setup, tmp_path
    ):
        engine, space = campaign_setup
        queue = ShardQueue(tmp_path / "q")
        config, specs = make_exhaustive_shards(engine, space, shards=2)
        queue.submit(specs, config=config)
        events = []
        telemetry = Telemetry(on_event=events.append)
        worker = ShardWorker(
            queue,
            ExhaustiveContext(engine, space),
            worker_id="test-worker",
            telemetry=telemetry,
        )
        assert worker.run() == 2
        types = [e.type for e in events]
        assert types.count("shard_claim") == 2
        assert types.count("shard_done") == 2
        heartbeats = [e for e in events if e.type == "worker_heartbeat"]
        assert len(heartbeats) == len(space.layers) * space.bits
        assert all(
            e.fields["worker"] == "test-worker"
            for e in events
            if e.type in {"shard_claim", "shard_done"}
        )

    def test_drained_worker_emits_idle_event(self, campaign_setup, tmp_path):
        engine, space = campaign_setup
        queue = ShardQueue(tmp_path / "q")
        config, specs = make_exhaustive_shards(engine, space, shards=2)
        queue.submit(specs, config=config)
        events = []
        worker = ShardWorker(
            queue,
            ExhaustiveContext(engine, space),
            worker_id="idler",
            telemetry=Telemetry(on_event=events.append),
        )
        worker.run()
        idle = [e for e in events if e.type == "worker_idle"]
        assert len(idle) == 1
        assert idle[0].fields["worker"] == "idler"
        assert idle[0].fields["reason"] == "drained"
        assert idle[0].fields["units_done"] == len(space.layers) * space.bits
        # The idle event is the worker's last word.
        assert events[-1].type == "worker_idle"

    def test_heartbeat_interval_throttles_events_not_leases(
        self, campaign_setup, tmp_path
    ):
        engine, space = campaign_setup
        queue = ShardQueue(tmp_path / "q")
        config, specs = make_exhaustive_shards(engine, space, shards=1)
        queue.submit(specs, config=config)
        events = []
        worker = ShardWorker(
            queue,
            ExhaustiveContext(engine, space),
            worker_id="quiet",
            telemetry=Telemetry(on_event=events.append),
            heartbeat_interval=3600.0,  # nothing is due after the first
        )
        assert worker.run() == 1
        heartbeats = [e for e in events if e.type == "worker_heartbeat"]
        assert len(heartbeats) == 1  # first unit always heartbeats
        # Lease renewal kept running underneath the throttled events.
        spec, _arrays = queue.load_result(specs[0].shard_id)
        assert spec["shard_id"] == specs[0].shard_id


class TestHeartbeatIntervalResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        from repro.dist import resolve_heartbeat_interval

        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "9.5")
        assert resolve_heartbeat_interval(2.0) == 2.0
        assert resolve_heartbeat_interval() == 9.5

    def test_default_is_per_unit(self, monkeypatch):
        from repro.dist import resolve_heartbeat_interval

        monkeypatch.delenv("REPRO_HEARTBEAT_INTERVAL", raising=False)
        assert resolve_heartbeat_interval() == 0.0

    def test_negative_clamps_to_zero(self):
        from repro.dist import resolve_heartbeat_interval

        assert resolve_heartbeat_interval(-5.0) == 0.0

    def test_bad_env_value_fails_loudly(self, monkeypatch):
        from repro.dist import resolve_heartbeat_interval

        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "soon")
        with pytest.raises(ValueError, match="not a number"):
            resolve_heartbeat_interval()
