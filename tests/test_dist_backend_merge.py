"""Shards stamped by a non-reference kernel backend at the merge boundary.

Earlier releases could run shards on a non-reference kernel backend,
which folded its attestation into the plan fingerprint and stamped its
name into each shard result.  Such shards are input from disk now: the
merge must keep refusing them against a reference campaign, and
campaigns submitted before plan attestation existed keep merging
untouched.  Reference stamps never carry a backend entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SynthCIFAR
from repro.dist import (
    ExhaustiveContext,
    MergeError,
    ShardQueue,
    make_exhaustive_shards,
    merge_exhaustive,
    plan_attestation_runtime,
)
from repro.faults import FaultSpace
from repro.faults.table import cell_key
from repro.ieee754 import FLOAT16
from repro.models import ResNetCIFAR
from repro.runtime import PlanEngine

#: A shard stamp as a non-reference backend wrote it: a backend-qualified
#: plan fingerprint (any value other than the reference plan's) plus the
#: backend's name and version.
LEGACY_BACKEND_STAMP = {
    "plan_sha256": "5787d56cedfd65d8501b539a5eabd87cdcc64ac16f23943364d633b32b89607d",
    "plan_verified": True,
    "backend": {"name": "shifted", "version": np.__version__},
}


@pytest.fixture(scope="module")
def backend_setup():
    model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
    model.eval()
    data = SynthCIFAR("test", size=8, seed=42)
    reference = PlanEngine(model, data.images, data.labels, fmt=FLOAT16)
    space = FaultSpace(reference.layers, fmt=FLOAT16)
    return reference, space


def zero_arrays(spec, config):
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


class TestBackendIdentity:
    def test_reference_stamp_has_no_backend_key(self, backend_setup):
        reference, space = backend_setup
        stamp = ExhaustiveContext(reference, space).attestation()
        assert "backend" not in stamp


class TestCrossBackendMerge:
    def test_undeclared_cross_backend_shard_refused(
        self, backend_setup, tmp_path
    ):
        reference, space = backend_setup
        queue, config, specs = submitted_queue(
            tmp_path, reference, space,
            runtime=plan_attestation_runtime(reference),
        )
        ref_stamp = ExhaustiveContext(reference, space).attestation()
        queue.complete(specs[0], zero_arrays(specs[0], config), meta=ref_stamp)
        queue.complete(
            specs[1], zero_arrays(specs[1], config), meta=LEGACY_BACKEND_STAMP
        )
        with pytest.raises(MergeError, match="does not attest"):
            merge_exhaustive(queue)

    def test_legacy_campaign_merges_without_backend_attestation(
        self, backend_setup, tmp_path
    ):
        # Queues submitted before plan/backend attestation carry no
        # plan_sha256; backend stamps must not break their merge.
        reference, space = backend_setup
        queue, config, specs = submitted_queue(
            tmp_path, reference, space, runtime={},
        )
        for spec in specs:
            queue.complete(
                spec, zero_arrays(spec, config), meta=LEGACY_BACKEND_STAMP
            )
        table = merge_exhaustive(queue)
        assert table.num_layers == len(config["layer_sizes"])
