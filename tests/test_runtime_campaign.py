"""Campaign-level guarantees of the plan engine.

The plan engine must be a drop-in replacement for the module engine in
exhaustive campaigns: same tables bit-for-bit, same checkpoint/resume
behaviour — and the two engines' artifacts must never silently mix
(checkpoints are wiped, dist shards are refused).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SynthCIFAR
from repro.dist import (
    DistError,
    ExhaustiveContext,
    exhaustive_config,
    verify_context_config,
)
from repro.faults import FaultSpace, InferenceEngine, OutcomeTable
from repro.ieee754 import FLOAT16
from repro.models import ResNetCIFAR
from repro.runtime import PlanEngine
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def campaign_setup():
    """Module and plan engines over the same tiny model + eval set."""
    model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
    model.eval()
    data = SynthCIFAR("test", size=8, seed=42)
    module_engine = InferenceEngine(
        model, data.images, data.labels, fmt=FLOAT16
    )
    plan_engine = PlanEngine(
        model, data.images, data.labels, fmt=FLOAT16, batch_size=8
    )
    space = FaultSpace(module_engine.layers, fmt=FLOAT16)
    return module_engine, plan_engine, space


@pytest.fixture(scope="module")
def module_table(campaign_setup):
    module_engine, _, space = campaign_setup
    return OutcomeTable.from_exhaustive(module_engine, space, workers=1)


def assert_tables_identical(a: OutcomeTable, b: OutcomeTable) -> None:
    assert a.num_layers == b.num_layers
    for left, right in zip(a.outcomes, b.outcomes):
        assert left.dtype == right.dtype == np.uint8
        assert np.array_equal(left, right)


class _KillAfter:
    """Telemetry hook that simulates a crash at the *n*-th progress event."""

    def __init__(self, n: int) -> None:
        self.remaining = n

    def __call__(self, event) -> None:
        if event.type != "progress":
            return
        self.remaining -= 1
        if self.remaining <= 0:
            raise KeyboardInterrupt("simulated kill")


class TestPlanCampaign:
    def test_plan_table_is_bit_identical_to_module_table(
        self, campaign_setup, module_table
    ):
        _, plan_engine, space = campaign_setup
        plan_table = OutcomeTable.from_exhaustive(
            plan_engine, space, workers=1
        )
        assert_tables_identical(module_table, plan_table)
        assert plan_table.metadata["inference_count"] == (
            module_table.metadata["inference_count"]
        )

    def test_kill_and_resume_plan_campaign(
        self, campaign_setup, module_table, tmp_path
    ):
        _, plan_engine, space = campaign_setup
        checkpoint = tmp_path / "plan.ckpt"
        with pytest.raises(KeyboardInterrupt):
            OutcomeTable.from_exhaustive(
                plan_engine,
                space,
                checkpoint=checkpoint,
                telemetry=Telemetry(on_event=_KillAfter(3)),
                progress_every=1,
            )
        persisted = {p.stem for p in checkpoint.glob("*.npy")}
        assert persisted, "kill happened before any chunk was persisted"
        assert len(persisted) < len(space.layers) * space.bits

        resumed = OutcomeTable.from_exhaustive(
            plan_engine, space, checkpoint=checkpoint
        )
        assert_tables_identical(module_table, resumed)

    def test_module_checkpoint_not_resumed_by_plan_engine(
        self, campaign_setup, module_table, tmp_path
    ):
        """The checkpoint config embeds the engine kind: chunks written
        under the module engine are discarded, not resumed, when a plan
        engine reuses the path — and the rerun still matches."""
        module_engine, plan_engine, space = campaign_setup
        checkpoint = tmp_path / "cross.ckpt"
        with pytest.raises(KeyboardInterrupt):
            OutcomeTable.from_exhaustive(
                module_engine,
                space,
                checkpoint=checkpoint,
                telemetry=Telemetry(on_event=_KillAfter(2)),
                progress_every=1,
            )
        table = OutcomeTable.from_exhaustive(
            plan_engine, space, checkpoint=checkpoint
        )
        assert_tables_identical(module_table, table)


class TestPlanTelemetry:
    def test_journal_carries_batching_metrics(self, campaign_setup, tmp_path):
        """repro-stats surfaces the plan engine's batching and op-cache
        effectiveness from the journal alone."""
        from repro.telemetry import (
            Journal,
            Telemetry,
            format_summary,
            read_journal,
            summarize_journal,
        )

        _, plan_engine, space = campaign_setup
        path = tmp_path / "plan.jsonl"
        OutcomeTable.from_exhaustive(
            plan_engine,
            space,
            workers=1,
            telemetry=Telemetry(journal=Journal(path)),
        )
        events = read_journal(path)
        start = next(e for e in events if e.type == "campaign_start")
        assert start.fields["engine"] == "plan"
        assert start.fields["batch_size"] == plan_engine.batch_size

        summary = summarize_journal(path)[0]
        assert summary.tail_passes > 0
        assert summary.ops_cached > 0
        assert summary.batched_faults_per_pass > 1.0
        assert 0.0 < summary.op_cache_hit_rate < 1.0
        assert "plan engine:" in format_summary(summary)


class TestDistRefusal:
    def test_worker_refuses_other_engine_kind(self, campaign_setup):
        """A campaign submitted with the plan engine is refused by a
        worker that rebuilt a module engine (and vice versa): their
        fingerprints differ."""
        module_engine, plan_engine, space = campaign_setup
        config = exhaustive_config(plan_engine, space)
        context = ExhaustiveContext(module_engine, space)
        with pytest.raises(DistError, match="fingerprint mismatch"):
            verify_context_config(context, config)

    def test_worker_refuses_fused_against_unfused(self, campaign_setup):
        """A config recorded by a release that still had BN-folding
        fusion pins the fused engine's fingerprint; no worker rebuilds
        it, so the campaign is refused rather than rerun unfused."""
        _, plan_engine, space = campaign_setup
        config = exhaustive_config(plan_engine, space)
        assert config["fusions"] == []
        # This campaign as the last release with fusion recorded it
        # under ``fuse=True`` (same weights, images and fault space).
        config.update(
            fusions=["bn_fold", "im2col_workspace"],
            golden_sha256=(
                "9beb68612fe252f66428f8109cc71509"
                "adced8c78fd684e3810f42f4fd55cfe7"
            ),
        )
        context = ExhaustiveContext(plan_engine, space)
        with pytest.raises(DistError, match="fingerprint mismatch"):
            verify_context_config(context, config)

    def test_matching_plan_config_is_accepted(self, campaign_setup):
        _, plan_engine, space = campaign_setup
        config = exhaustive_config(plan_engine, space)
        assert config["engine"] == "plan"
        verify_context_config(ExhaustiveContext(plan_engine, space), config)


class TestCliWiring:
    def test_repro_run_engine_flags(self):
        """One engine: only its batch size is tunable."""
        from repro.cli.run import build_parser

        args = build_parser().parse_args([])
        assert not hasattr(args, "engine")
        assert args.batch_size is None
        args = build_parser().parse_args(["--batch-size", "4"])
        assert args.batch_size == 4
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--engine", "module"])

    def test_repro_dist_submit_engine_flags(self):
        from repro.cli.dist import build_parser

        args = build_parser().parse_args(
            ["submit", "q", "--model", "resnet8_mini"]
        )
        assert not hasattr(args, "engine")
        for argv in (["submit", "q"], ["work", "q"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args([*argv, "--engine", "plan"])

    @pytest.mark.parametrize(
        "module, argv",
        [
            ("repro.cli.run", ["--help"]),
            ("repro.cli.dist", ["submit", "--help"]),
            ("repro.cli.dist", ["work", "--help"]),
            ("repro.cli.plan", ["--help"]),
        ],
    )
    def test_no_engine_flag(self, module, argv, capsys):
        import importlib

        parser = importlib.import_module(module).build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
        assert "--engine" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "module, argv",
        [
            ("repro.cli.run", ["--help"]),
            ("repro.cli.dist", ["submit", "--help"]),
            ("repro.cli.dist", ["work", "--help"]),
            ("repro.cli.check", ["plan", "--help"]),
            ("repro.cli.check", ["conform", "--help"]),
        ],
    )
    def test_no_fusion_or_backend_flags(self, module, argv, capsys):
        import importlib

        parser = importlib.import_module(module).build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
        out = capsys.readouterr().out
        assert "--fuse" not in out and "--backend" not in out
