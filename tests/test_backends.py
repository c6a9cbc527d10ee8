"""The reference kernel class: shared instance, attestation, parity.

Covers the ``repro.backends`` contract: every engine executes on one
shared :class:`NumpyBackend` instance (so wrapping that instance's
methods observes every kernel call), the attestation record, per-kernel
agreement with :mod:`repro.nn.functional`, and the
declaration-completeness guard that subclasses (the op_db mutation
fakes) must pass.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn.functional as F
from repro.backends import (
    BACKEND_OP_KINDS,
    BACKEND_PRIMITIVES,
    NumpyBackend,
    resolve_backend,
)
from repro.nn import Conv2d, Linear
from repro.runtime import capture_plan, create_engine


class TestRegistry:
    def test_instances_are_cached(self):
        assert resolve_backend() is resolve_backend(None)

    def test_backend_must_declare_every_op_kind(self):
        class Partial(NumpyBackend):
            name = "partial"
            OP_TOLERANCE = {"conv2d": "bitexact"}
            OP_INVARIANCE = {"conv2d": "kernel"}

        with pytest.raises(TypeError, match="linear"):
            Partial()


class TestResolution:
    def test_default_is_reference(self):
        assert resolve_backend(None).name == "numpy"

    def test_instance_passes_through(self):
        backend = NumpyBackend()
        assert resolve_backend(backend) is backend


class TestAttestation:
    def test_attestation_covers_every_kind_and_primitive(self):
        attestation = resolve_backend().attestation()
        declared = set(attestation["ops"])
        assert declared == set(BACKEND_OP_KINDS) | set(BACKEND_PRIMITIVES)

    def test_attestation_is_deterministic(self):
        backend = resolve_backend()
        assert backend.attestation() == backend.attestation()

    def test_attestation_carries_name_and_version(self):
        attestation = resolve_backend().attestation()
        assert attestation["name"] == "numpy"
        assert attestation["version"] == np.__version__


class TestReferenceKernels:
    """The kernel class is a pure reorganisation of nn.functional."""

    def test_conv2d_matches_functional(self, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        conv = Conv2d(3, 5, 3, stride=1, padding=1, bias=True, rng=rng)
        backend = resolve_backend()
        out = backend.conv2d(
            x, conv.weight.data, conv.bias.data, stride=1, padding=1
        )
        expected = F.conv2d(
            x, conv.weight.data, conv.bias.data, stride=1, padding=1
        )
        np.testing.assert_array_equal(out, expected)

    def test_linear_matches_functional(self, rng):
        x = rng.standard_normal((4, 7)).astype(np.float32)
        layer = Linear(7, 3, rng=rng)
        backend = resolve_backend()
        out = backend.linear(x, layer.weight.data, layer.bias.data)
        expected = F.linear(x, layer.weight.data, layer.bias.data)
        np.testing.assert_array_equal(out, expected)

    def test_relu_and_pad_match_functional(self, rng):
        x = rng.standard_normal((2, 4, 5, 5)).astype(np.float32)
        backend = resolve_backend()
        np.testing.assert_array_equal(backend.relu(x), F.relu(x))
        np.testing.assert_array_equal(
            backend.pad_channels(x, 2, 3), F.pad_channels(x, 2, 3)
        )


class TestPlanBackendWiring:
    def test_bare_plan_defaults_to_reference(
        self, tiny_model, tiny_eval_set, monkeypatch
    ):
        """Every op of a captured plan runs on the shared instance, so
        wrapping its ``run_op`` observes the whole forward pass."""
        backend = resolve_backend()
        seen = []
        run_op = backend.run_op

        def recording(op, inputs):
            seen.append(op.index)
            return run_op(op, inputs)

        monkeypatch.setattr(backend, "run_op", recording)
        plan = capture_plan(tiny_model)
        images, _labels = tiny_eval_set
        plan.execute(images[:2])
        assert seen == [op.index for op in plan.ops]


class TestEngineRestrictions:
    def test_plan_engine_reference_backend_unchanged(
        self, tiny_model, tiny_eval_set
    ):
        images, labels = tiny_eval_set
        engine = create_engine(tiny_model, images, labels, kind="plan")
        assert engine.backend is resolve_backend(None)


class TestCampaignConfigBackend:
    def test_reference_config_has_no_backend_key(
        self, tiny_model, tiny_eval_set
    ):
        from repro.faults import FaultSpace
        from repro.faults.table import campaign_config

        images, labels = tiny_eval_set
        engine = create_engine(tiny_model, images, labels, kind="plan")
        config = campaign_config(engine, FaultSpace(engine.layers))
        assert "backend" not in config
