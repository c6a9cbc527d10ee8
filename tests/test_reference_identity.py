"""Reference identity is pinned: plan structure and campaign config.

Checkpoints, dist queues and shard stamps written by earlier releases
are accepted only while the reference engine reproduces the same
identity bytes.  These values were measured on the release that still
carried the fusion mode and alternative kernel backends; a change here
orphans every recorded campaign, so it must be deliberate.
"""

from __future__ import annotations

import pytest

from repro.check import plan_fingerprint
from repro.data import SynthCIFAR
from repro.faults import FaultSpace
from repro.faults.table import campaign_config
from repro.models import create_model
from repro.runtime import capture_plan, create_engine

PLAN_FINGERPRINTS = {
    "resnet8_mini": (
        "e178ade153d48f7c8456957a6e34677fe5d2fe208073bdcedced9d725d3c494e"
    ),
    "mobilenetv2_mini": (
        "d06d75d65e52bca90c3542cf4ac6149d0e9a42c36f82c995c504eeb52b90389d"
    ),
}


@pytest.mark.parametrize("name", sorted(PLAN_FINGERPRINTS))
def test_structural_plan_fingerprint_is_pinned(name):
    plan = capture_plan(create_model(name))
    assert plan_fingerprint(plan) == PLAN_FINGERPRINTS[name]


def test_default_engine_campaign_config_is_pinned():
    model = create_model("resnet8_mini")
    data = SynthCIFAR("test", size=4, seed=1234)
    engine = create_engine(model, data.images, data.labels)
    config = campaign_config(engine, FaultSpace(engine.layers))
    # golden_sha256 hashes the generated images and weights; everything
    # else is host-independent.
    del config["golden_sha256"]
    assert config == {
        "fmt": "float32",
        "fault_models": ["stuck-at-0", "stuck-at-1"],
        "policy": "accuracy_drop",
        "threshold": 0.0,
        "eval_images": 4,
        "layer_sizes": [108, 144, 144, 216, 324, 432, 576, 80],
        "engine": "plan",
        "fusions": [],
    }
