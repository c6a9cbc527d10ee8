"""Parallel and resumable exhaustive campaigns through the local fleet.

The unit of work is one (layer, bit) cell, run as one ``repro.dist``
shard; these tests pin down the two engineering guarantees the campaign
makes:

- draining the shards over a local worker fleet changes nothing about
  the result, and
- a campaign killed mid-run resumes from its finished shards to a table
  bit-identical to an uninterrupted run, without waiting for the killed
  workers' leases to expire.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pytest

from repro.data import SynthCIFAR
from repro.dist import (
    DistError,
    RetryPolicy,
    ShardQueue,
    make_exhaustive_shards,
    run_sharded_exhaustive,
)
from repro.faults import FaultSpace, InferenceEngine, OutcomeTable
from repro.ieee754 import FLOAT16
from repro.models import ResNetCIFAR
from repro.sfi.artifacts import _discard_stale_queue
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def campaign_setup():
    """A tiny model + eval set + float16 space (fast exhaustive runs)."""
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


def cells_of(space: FaultSpace) -> int:
    return len(space.layers) * space.bits


#: Leases far longer than a resume takes: a resume that waited for the
#: killed fleet's leases to expire would fail the elapsed-time check.
LONG_LEASES = RetryPolicy(lease_seconds=120.0)


def run_fleet(engine, space, root, *, workers=2, telemetry=None, policy=None):
    """The cold-cache campaign: one shard per cell, *workers* processes."""
    return run_sharded_exhaustive(
        engine,
        space,
        root,
        shards=cells_of(space),
        workers=workers,
        telemetry=telemetry,
        policy=policy,
    )


class TestParallelExhaustive:
    def test_parallel_matches_serial_bit_for_bit(
        self, campaign_setup, serial_table, tmp_path
    ):
        engine, space = campaign_setup
        parallel = run_fleet(engine, space, tmp_path / "q")
        assert_tables_identical(serial_table, parallel)
        assert parallel.metadata["inference_count"] == (
            serial_table.metadata["inference_count"]
        )

    def test_progress_reaches_total(self, campaign_setup, tmp_path):
        engine, space = campaign_setup
        calls = []
        run_fleet(
            engine, space, tmp_path / "q", telemetry=_progress_recorder(calls)
        )
        assert calls, "no progress event was emitted"
        dones = [done for done, _ in calls]
        assert dones == sorted(dones)
        assert calls[-1] == (space.total_population, space.total_population)

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="speedup is only observable with >= 2 cores",
    )
    def test_parallel_is_faster_on_multicore(self, campaign_setup, tmp_path):
        """Median of alternating serial/fleet pairs, so one slow moment
        on a shared host cannot decide the verdict."""
        engine, space = campaign_setup
        ratios = []
        for pair in range(3):
            start = time.perf_counter()
            OutcomeTable.from_exhaustive(engine, space)
            serial_elapsed = time.perf_counter() - start
            start = time.perf_counter()
            run_fleet(
                engine, space, tmp_path / f"q{pair}", workers=os.cpu_count()
            )
            parallel_elapsed = time.perf_counter() - start
            ratios.append(serial_elapsed / parallel_elapsed)
        assert statistics.median(ratios) > 1.5, ratios


def _progress_recorder(calls: list) -> Telemetry:
    """Telemetry appending ``(done, total)`` of every progress event."""

    def on_event(event) -> None:
        if event.type == "progress":
            calls.append((event.fields["done"], event.fields["total"]))

    return Telemetry(on_event=on_event)


class _KillAfter:
    """Telemetry hook that simulates a crash at the *n*-th *kind* event."""

    def __init__(self, n: int, kind: str = "progress") -> None:
        self.remaining = n
        self.kind = kind

    def __call__(self, event) -> None:
        if event.type != self.kind:
            return
        self.remaining -= 1
        if self.remaining <= 0:
            raise KeyboardInterrupt("simulated kill")


def killed_run(engine, space, root, *, after: int) -> set[str]:
    """Run the fleet into *root* and kill it; returns the done shard ids."""
    with pytest.raises(KeyboardInterrupt):
        run_fleet(
            engine,
            space,
            root,
            telemetry=Telemetry(on_event=_KillAfter(after)),
            policy=LONG_LEASES,
        )
    return ShardQueue(root).done_ids()


class TestCheckpointResume:
    def test_kill_and_resume_is_bit_identical(
        self, campaign_setup, serial_table, tmp_path
    ):
        engine, space = campaign_setup
        root = tmp_path / "q"
        persisted = killed_run(engine, space, root, after=3)
        assert persisted, "kill happened before any shard was done"
        assert len(persisted) < cells_of(space), "campaign finished before kill"

        calls = []
        start = time.monotonic()
        resumed = run_fleet(
            engine,
            space,
            root,
            telemetry=_progress_recorder(calls),
            policy=LONG_LEASES,
        )
        # The killed fleet's shards were reclaimed, not left to expire.
        assert time.monotonic() - start < LONG_LEASES.lease_seconds / 2
        assert_tables_identical(serial_table, resumed)
        # The resumed run skipped the finished cells: its first progress
        # report already covers their population.
        _, specs = make_exhaustive_shards(engine, space, shards=cells_of(space))
        resumed_faults = sum(
            space.layers[int(layer)].size * len(space.fault_models)
            for spec in specs
            if spec.shard_id in persisted
            for layer, _bit in spec.units
        )
        assert calls[0][0] >= resumed_faults

    @pytest.mark.parametrize(
        "workers, kill_at",
        # Inline: killed holding its first claim, the same cell each time.
        # Fleet: interrupted at its first progress report, cells in flight.
        [(1, "shard_claim"), (2, "progress")],
    )
    def test_kills_are_not_failed_attempts(
        self, campaign_setup, serial_table, tmp_path, workers, kill_at
    ):
        """Three kills that each catch a cell in flight, under the default
        three-attempt policy, neither poison nor retry a shard."""
        engine, space = campaign_setup
        root = tmp_path / "q"
        for _ in range(3):
            with pytest.raises(KeyboardInterrupt):
                run_fleet(
                    engine,
                    space,
                    root,
                    workers=workers,
                    telemetry=Telemetry(on_event=_KillAfter(1, kill_at)),
                )
        table = run_fleet(engine, space, root, workers=workers)
        assert_tables_identical(serial_table, table)
        queue = ShardQueue(root)
        attempts = {
            queue.load_result(shard_id)[0]["attempts"]
            for shard_id in queue.done_ids()
        }
        assert attempts == {0}

    def test_checkpointed_run_matches_plain_run(
        self, campaign_setup, serial_table, tmp_path
    ):
        """A single worker drains the queue inline, same table."""
        engine, space = campaign_setup
        table = run_fleet(engine, space, tmp_path / "clean", workers=1)
        assert_tables_identical(serial_table, table)

    def test_stale_checkpoint_from_other_config_is_discarded(
        self, campaign_setup, tmp_path
    ):
        engine, space = campaign_setup
        root = tmp_path / "q"
        killed_run(engine, space, root, after=2)
        # Same queue path, different policy: its shards must not be reused.
        other_engine = InferenceEngine(
            engine.model,
            engine.images,
            engine.labels,
            fmt=space.fmt,
            policy="any_mismatch",
        )
        other_space = FaultSpace(other_engine.layers, fmt=space.fmt)
        with pytest.raises(DistError, match="different config"):
            run_fleet(other_engine, other_space, root)
        # The cold-cache path discards the foreign queue first.
        queue = ShardQueue(root)
        _discard_stale_queue(
            queue,
            *make_exhaustive_shards(
                other_engine, other_space, shards=cells_of(other_space)
            ),
        )
        assert not root.exists()
        table = run_fleet(other_engine, other_space, root)
        expected = OutcomeTable.from_exhaustive(other_engine, other_space)
        assert_tables_identical(expected, table)

    def test_matching_queue_is_kept_for_resume(self, campaign_setup, tmp_path):
        engine, space = campaign_setup
        root = tmp_path / "q"
        persisted = killed_run(engine, space, root, after=2)
        _discard_stale_queue(
            ShardQueue(root),
            *make_exhaustive_shards(engine, space, shards=cells_of(space)),
        )
        assert ShardQueue(root).done_ids() == persisted
        # Another shard layout of the same campaign is not resumed.
        _discard_stale_queue(
            ShardQueue(root), *make_exhaustive_shards(engine, space, shards=4)
        )
        assert not root.exists()


class TestColdCache:
    """``load_or_run_exhaustive`` on a cold cache: the fleet path end to
    end, on a tiny stand-in model."""

    @pytest.fixture
    def cold_store(self, tmp_path, monkeypatch):
        import repro.sfi.artifacts as artifacts

        def tiny_model(name, *, pretrained=False, seed=0):
            model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
            model.eval()
            return model

        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path / "store"))
        monkeypatch.setattr(artifacts, "create_model", tiny_model)
        return artifacts

    def test_cold_run_discards_foreign_queue_and_caches(self, cold_store):
        path = cold_store.exhaustive_table_path("tiny", eval_size=2)
        queue_root = path.with_suffix(".queue")
        (queue_root / "done").mkdir(parents=True)
        (queue_root / "campaign.json").write_text('{"config_hash": "other"}')
        (queue_root / "done" / "stale.npz").write_bytes(b"not a result")

        table, space, engine = cold_store.load_or_run_exhaustive(
            "tiny", eval_size=2, workers=2
        )
        assert path.is_file()
        assert not queue_root.exists()
        assert_tables_identical(
            OutcomeTable.from_exhaustive(engine, space), table
        )
        # The second call is served from the verified cache.
        cached, _, _ = cold_store.load_or_run_exhaustive("tiny", eval_size=2)
        assert_tables_identical(table, cached)
