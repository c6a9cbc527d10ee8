"""Plan attestation across the distributed trust boundary.

Plan-engine campaigns record the verified plan's structural fingerprint
at submit time; every completed shard stamps the fingerprint its worker
actually verified, and the merge refuses shards whose plan never passed
``repro-check`` — so a worker running stale or tampered code cannot
contribute results to a verified campaign.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SynthCIFAR
from repro.dist import (
    ExhaustiveContext,
    MergeError,
    ShardQueue,
    ShardWorker,
    make_exhaustive_shards,
    merge_exhaustive,
    plan_attestation_runtime,
)
from repro.faults import FaultSpace, InferenceEngine
from repro.faults.table import cell_key
from repro.ieee754 import FLOAT16
from repro.models import ResNetCIFAR
from repro.runtime import PlanEngine


@pytest.fixture(scope="module")
def plan_setup():
    model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
    model.eval()
    data = SynthCIFAR("test", size=8, seed=42)
    engine = PlanEngine(model, data.images, data.labels, fmt=FLOAT16)
    space = FaultSpace(engine.layers, fmt=FLOAT16)
    return engine, space


def zero_arrays(spec, config):
    """Correctly-shaped placeholder results (merge checks identity and
    shape, not values — values are covered by the bit-identity tests)."""
    sizes = config["layer_sizes"]
    n_models = len(config["fault_models"])
    return {
        f"cell_{cell_key(int(u[0]), int(u[1]))}": np.zeros(
            (sizes[int(u[0])], n_models), dtype=np.uint8
        )
        for u in spec.units
    }


def submitted_queue(tmp_path, engine, space, *, runtime, shards=2):
    config, specs = make_exhaustive_shards(engine, space, shards=shards)
    queue = ShardQueue(tmp_path / "queue")
    queue.submit(specs, config=config, runtime=runtime)
    return queue, config, specs


class TestAttestationStamps:
    def test_plan_engine_runtime_pins_fingerprint(self, plan_setup):
        engine, _space = plan_setup
        runtime = plan_attestation_runtime(engine)
        assert runtime == {
            "engine": "plan",
            "plan_sha256": engine.plan_fingerprint,
        }

    def test_module_engine_contributes_no_attestation(self, plan_setup):
        _engine, space = plan_setup
        model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
        model.eval()
        data = SynthCIFAR("test", size=8, seed=42)
        module_engine = InferenceEngine(
            model, data.images, data.labels, fmt=FLOAT16
        )
        assert plan_attestation_runtime(module_engine) == {}
        context = ExhaustiveContext(module_engine, space)
        assert context.attestation() == {}

    def test_context_attests_verified_plan(self, plan_setup):
        engine, space = plan_setup
        context = ExhaustiveContext(engine, space)
        assert context.attestation() == {
            "plan_sha256": engine.plan_fingerprint,
            "plan_verified": True,
        }


class TestMergeEnforcement:
    def test_attested_shards_merge(self, plan_setup, tmp_path):
        engine, space = plan_setup
        queue, config, specs = submitted_queue(
            tmp_path, engine, space,
            runtime=plan_attestation_runtime(engine),
        )
        stamp = ExhaustiveContext(engine, space).attestation()
        for spec in specs:
            queue.complete(spec, zero_arrays(spec, config), meta=stamp)
        table = merge_exhaustive(queue)
        assert table.num_layers == len(config["layer_sizes"])

    def test_unattested_shard_refused(self, plan_setup, tmp_path):
        engine, space = plan_setup
        queue, config, specs = submitted_queue(
            tmp_path, engine, space,
            runtime=plan_attestation_runtime(engine),
        )
        stamp = ExhaustiveContext(engine, space).attestation()
        queue.complete(specs[0], zero_arrays(specs[0], config), meta=stamp)
        queue.complete(specs[1], zero_arrays(specs[1], config), meta={})
        with pytest.raises(MergeError, match="never passed"):
            merge_exhaustive(queue)

    def test_foreign_fingerprint_refused(self, plan_setup, tmp_path):
        engine, space = plan_setup
        queue, config, specs = submitted_queue(
            tmp_path, engine, space,
            runtime=plan_attestation_runtime(engine),
        )
        stamp = ExhaustiveContext(engine, space).attestation()
        queue.complete(specs[0], zero_arrays(specs[0], config), meta=stamp)
        queue.complete(
            specs[1],
            zero_arrays(specs[1], config),
            meta={"plan_sha256": "0" * 64, "plan_verified": True},
        )
        with pytest.raises(MergeError, match="does not attest"):
            merge_exhaustive(queue)

    def test_unverified_flag_refused(self, plan_setup, tmp_path):
        engine, space = plan_setup
        queue, config, specs = submitted_queue(
            tmp_path, engine, space,
            runtime=plan_attestation_runtime(engine),
        )
        stamp = ExhaustiveContext(engine, space).attestation()
        queue.complete(specs[0], zero_arrays(specs[0], config), meta=stamp)
        queue.complete(
            specs[1],
            zero_arrays(specs[1], config),
            meta={
                "plan_sha256": engine.plan_fingerprint,
                "plan_verified": False,
            },
        )
        with pytest.raises(MergeError, match="verified=False"):
            merge_exhaustive(queue)

    def test_legacy_campaigns_merge_without_attestation(
        self, plan_setup, tmp_path
    ):
        # Queues submitted before attestation existed carry no
        # plan_sha256 in their runtime — they must keep merging.
        engine, space = plan_setup
        queue, config, specs = submitted_queue(
            tmp_path, engine, space, runtime={},
        )
        for spec in specs:
            queue.complete(spec, zero_arrays(spec, config), meta={})
        table = merge_exhaustive(queue)
        assert table.num_layers == len(config["layer_sizes"])


class TestMixedEngineMerge:
    def test_incompatible_shard_still_refused(self, plan_setup, tmp_path):
        """There is no compatibility registry: a shard attesting any
        other verified fingerprint is refused, whatever engine made it."""
        engine, space = plan_setup
        queue, config, specs = submitted_queue(
            tmp_path, engine, space,
            runtime=plan_attestation_runtime(engine),
        )
        stamp = ExhaustiveContext(engine, space).attestation()
        assert set(stamp) == {"plan_sha256", "plan_verified"}
        queue.complete(specs[0], zero_arrays(specs[0], config), meta=stamp)
        queue.complete(
            specs[1],
            zero_arrays(specs[1], config),
            meta={"plan_sha256": "f" * 64, "plan_verified": True},
        )
        with pytest.raises(MergeError, match="does not attest"):
            merge_exhaustive(queue)


class TestWorkerPath:
    def test_worker_stamps_attestation_into_done_results(
        self, plan_setup, tmp_path
    ):
        engine, space = plan_setup
        config, specs = make_exhaustive_shards(
            engine, space, shards=len(space.layers) * space.bits
        )
        # One single-cell shard keeps the real classification cheap.
        queue = ShardQueue(tmp_path / "queue")
        queue.submit(specs[:1], config=config, runtime=plan_attestation_runtime(engine))
        worker = ShardWorker(
            queue, ExhaustiveContext(engine, space), lease_seconds=60.0
        )
        assert worker.run(max_shards=1, wait=False) == 1
        meta, arrays = queue.load_result(specs[0].shard_id)
        assert meta["plan_sha256"] == engine.plan_fingerprint
        assert meta["plan_verified"] is True
        assert len(arrays) == len(specs[0].units)
