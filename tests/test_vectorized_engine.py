"""Certified plan engine guarantees: bit-identity against the oracle.

The plan engine's whole contract is that no-flip certification,
variant stacking and dense delegation change throughput, never
outcomes: its predictions and tables must be bit-identical to the
module engine's (the plain module-tree forward pass, kept as the
oracle) and to the committed exhaustive artifacts, under its one
``"plan"`` identity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.check import run_conformance
from repro.data import SynthCIFAR
from repro.dist import (
    DistError,
    ExhaustiveContext,
    exhaustive_config,
    verify_context_config,
)
from repro.faults import (
    Fault,
    FaultModel,
    FaultSpace,
    InferenceEngine,
    OutcomeTable,
)
from repro.faults.table import timed_classify_cell
from repro.ieee754 import FLOAT16
from repro.models import ResNetCIFAR, create_model
from repro.runtime import DEFAULT_BATCH_SIZE, PlanEngine, create_engine
from repro.sfi.artifacts import exhaustive_table_path
from repro.telemetry import resolve_telemetry


@pytest.fixture(scope="module")
def tiny_setup():
    """The module-engine oracle and the plan engine over one tiny model."""
    model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
    model.eval()
    data = SynthCIFAR("test", size=8, seed=42)
    oracle = InferenceEngine(model, data.images, data.labels, fmt=FLOAT16)
    engine = PlanEngine(
        model, data.images, data.labels, fmt=FLOAT16, batch_size=64
    )
    space = FaultSpace(engine.layers, fmt=FLOAT16)
    return oracle, engine, space


def all_layer_faults(engine, *, bits=None) -> list[Fault]:
    """A deterministic sample hitting every layer (so every op kind)."""
    total = engine.injector.fmt.total_bits
    if bits is None:
        bits = (0, 1, total // 2, total - 2, total - 1)
    faults = []
    for layer_idx, layer in enumerate(engine.layers):
        for bit in bits:
            for model in (FaultModel.STUCK_AT_0, FaultModel.STUCK_AT_1):
                fault = Fault(
                    layer=layer_idx,
                    index=(layer_idx * 7) % layer.size,
                    bit=bit,
                    model=model,
                )
                if not engine.injector.is_masked(fault):
                    faults.append(fault)
    return faults


class TestBitIdentity:
    def test_exhaustive_table_is_bit_identical(self, tiny_setup):
        oracle, engine, space = tiny_setup
        table_oracle = OutcomeTable.from_exhaustive(oracle, space, workers=1)
        table_plan = OutcomeTable.from_exhaustive(engine, space, workers=1)
        for left, right in zip(table_oracle.outcomes, table_plan.outcomes):
            assert left.dtype == right.dtype == np.uint8
            assert np.array_equal(left, right)
        assert table_plan.metadata["inference_count"] == (
            table_oracle.metadata["inference_count"]
        )

    def test_prediction_matrix_is_bit_identical(self, tiny_setup):
        oracle, engine, _ = tiny_setup
        faults = all_layer_faults(engine)
        preds_oracle = oracle.predictions_for_faults(faults)
        preds_plan = engine.predictions_for_faults(faults)
        assert np.array_equal(np.asarray(preds_oracle), np.asarray(preds_plan))

    def test_mobilenet_depthwise_fallback_is_bit_identical(self):
        """Depthwise/grouped convs are not batch-invariant; the engine
        must take the exact per-variant path for them and still match."""
        model = create_model("mobilenetv2_mini")
        model.eval()
        data = SynthCIFAR("test", size=8, seed=42)
        oracle = InferenceEngine(model, data.images, data.labels)
        engine = PlanEngine(model, data.images, data.labels, batch_size=64)
        faults = all_layer_faults(engine, bits=(1, 24, 30))
        preds_oracle = oracle.predictions_for_faults(faults)
        preds_plan = engine.predictions_for_faults(faults)
        assert np.array_equal(np.asarray(preds_oracle), np.asarray(preds_plan))
        assert oracle.classify_many(faults) == engine.classify_many(faults)


class TestArtifactCells:
    #: Two committed-artifact cells per model that, together, take every
    #: strategy: pre-certified faults, rows certified while seeding or
    #: walking, and mostly-alive variants delegated to the dense tail.
    CELLS = {
        "resnet8_mini": ((5, 26), (6, 26)),
        "mobilenetv2_mini": ((9, 26), (10, 30)),
    }

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_default_engine_reproduces_artifact_cells(self, name):
        table = OutcomeTable.load(exhaustive_table_path(name))
        model = create_model(name, pretrained=True)
        data = SynthCIFAR("test", size=64, seed=1234)
        engine = create_engine(model, data.images, data.labels)
        space = FaultSpace(engine.layers)
        telemetry = resolve_telemetry(None)
        for layer, bit in self.CELLS[name]:
            cell, _, _ = timed_classify_cell(
                engine, space, layer, bit, telemetry
            )
            expected = table.outcomes[layer][:, bit, :]
            assert cell.dtype == expected.dtype
            assert np.array_equal(cell, expected), (layer, bit)
        assert engine.precertified > 0
        assert engine.certified_rows > 0
        assert engine.dense_fallback_faults > 0


class TestFingerprints:
    def test_create_engine_wiring(self, tiny_setup):
        _, engine, _ = tiny_setup
        data = SynthCIFAR("test", size=8, seed=42)
        default = create_engine(engine.model, data.images, data.labels)
        assert type(default) is PlanEngine
        assert default.kind == "plan"
        assert default.batch_size == DEFAULT_BATCH_SIZE == 16
        assert default.plan_fingerprint == engine.plan_fingerprint
        with pytest.raises(ValueError, match="unknown engine kind"):
            create_engine(
                engine.model, data.images, data.labels,
                kind="plan_vectorized",
            )


class TestMixedEngineDist:
    def test_undeclared_engines_stay_refused(self, tiny_setup):
        """An engine over different golden weights is refused."""
        _, engine, _ = tiny_setup
        other_model = ResNetCIFAR(
            blocks_per_stage=1, widths=(2, 4, 6), seed=7
        )
        other_model.eval()
        data = SynthCIFAR("test", size=8, seed=42)
        other = PlanEngine(
            other_model, data.images, data.labels, fmt=FLOAT16, batch_size=8
        )
        other_space = FaultSpace(other.layers, fmt=FLOAT16)
        config = exhaustive_config(other, other_space)
        with pytest.raises(DistError, match="fingerprint mismatch"):
            verify_context_config(
                ExhaustiveContext(engine, other_space), config
            )


class TestConformance:
    def test_conformance_on_tiny_model(self):
        model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
        model.eval()
        report = run_conformance(model, eval_size=8, faults=48, seed=1)
        assert report.ok
        assert report.prediction_flips == 0
        assert report.outcome_flips == 0
        assert report.faults == 48
        payload = report.to_dict()
        assert payload["model"] == "ResNetCIFAR"
        assert payload["flipped_faults"] == []
        assert "tolerance" not in payload


class TestCliWiring:
    def test_check_conform_parser(self):
        from repro.cli.check import build_parser

        args = build_parser().parse_args(["conform"])
        assert args.model is None
        assert args.faults == 128
        assert not hasattr(args, "tolerance")
        args = build_parser().parse_args(
            ["conform", "--model", "resnet14_mini", "--model",
             "mobilenetv2_mini", "--faults", "64"]
        )
        assert args.model == ["resnet14_mini", "mobilenetv2_mini"]
        assert args.faults == 64
        with pytest.raises(SystemExit):
            build_parser().parse_args(["conform", "--tolerance", "0.1"])

    def test_check_lint_default_covers_benchmarks(self):
        from repro.cli.check import build_parser

        args = build_parser().parse_args(["lint"])
        assert args.paths == ["src/repro", "benchmarks"]
