"""Chaos: a worker SIGKILLed mid-shard must not corrupt the campaign.

The killed worker leaves a leased shard with no process behind it; the
lease expires, a surviving worker releases and re-claims it, and the
merged table is still bit-identical to the serial run.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.data import SynthCIFAR
from repro.dist import (
    ExhaustiveContext,
    ShardQueue,
    ShardWorker,
    make_exhaustive_shards,
    merge_exhaustive,
)
from repro.faults import FaultSpace, InferenceEngine, OutcomeTable
from repro.ieee754 import FLOAT16
from repro.models import ResNetCIFAR

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="chaos test needs fork + SIGKILL"
)

LEASE_SECONDS = 0.3


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


def test_killed_worker_mid_shard_is_reassigned_and_merge_is_identical(
    campaign_setup, serial_table, tmp_path
):
    engine, space = campaign_setup
    queue = ShardQueue(tmp_path / "q")
    config, specs = make_exhaustive_shards(engine, space, shards=4)
    queue.submit(specs, config=config)
    context = ExhaustiveContext(engine, space)

    def doomed_worker():
        # SIGKILL ourselves after the first completed unit: the claimed
        # shard stays leased with no heartbeat behind it — no Python
        # cleanup, no lease release, exactly like a machine dying.
        worker = ShardWorker(
            queue,
            context,
            worker_id="doomed",
            lease_seconds=LEASE_SECONDS,
            on_unit=lambda _spec: os.kill(os.getpid(), signal.SIGKILL),
        )
        worker.run()

    ctx = multiprocessing.get_context("fork")
    victim = ctx.Process(target=doomed_worker)
    victim.start()
    victim.join(timeout=30)
    assert victim.exitcode == -signal.SIGKILL

    # The victim died holding one shard: still leased, nothing done.
    status = queue.status()
    assert len(status.leased) == 1
    assert status.leased[0]["worker"] == "doomed"
    killed_shard = status.leased[0]["shard_id"]
    assert not status.done

    # Until the lease deadline passes nothing may be released ...
    assert queue.release_expired(lease_seconds=LEASE_SECONDS) == []
    time.sleep(LEASE_SECONDS + 0.1)
    # ... after it, the dead worker's shard goes back to pending.
    released = queue.release_expired(lease_seconds=LEASE_SECONDS)
    assert released == [(killed_shard, "requeued")]

    # A surviving worker drains everything, including the re-dispatched
    # shard (claiming past its retry backoff window).
    survivor = ShardWorker(
        queue,
        context,
        worker_id="survivor",
        lease_seconds=30.0,
        backoff_base=0.01,
    )
    completed = survivor.run()
    assert completed == 4
    assert queue.is_complete()
    requeued_spec, _arrays = queue.load_result(killed_shard)
    assert requeued_spec["attempts"] == 1  # the expiry was recorded

    merged = merge_exhaustive(queue)
    assert merged.num_layers == serial_table.num_layers
    for left, right in zip(serial_table.outcomes, merged.outcomes):
        assert np.array_equal(left, right)
