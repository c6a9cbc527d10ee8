"""Campaign-level guarantees of the plan engine.

The plan engine must be a drop-in replacement for the module engine in
exhaustive campaigns: same tables bit-for-bit, same kill/resume
behaviour through the local fleet — and the two engines' artifacts must
never silently mix (a foreign queue is refused or discarded, dist shards
are refused).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SynthCIFAR
from repro.dist import (
    DistError,
    ExhaustiveContext,
    ShardQueue,
    exhaustive_config,
    make_exhaustive_shards,
    run_sharded_exhaustive,
    verify_context_config,
)
from repro.faults import FaultSpace, InferenceEngine, OutcomeTable
from repro.ieee754 import FLOAT16
from repro.models import ResNetCIFAR
from repro.runtime import PlanEngine
from repro.sfi.artifacts import _discard_stale_queue
from repro.telemetry import (
    Journal,
    Telemetry,
    fit_cost_model,
    summarize_journal,
)


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
    return OutcomeTable.from_exhaustive(module_engine, space)


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


def run_fleet(engine, space, root, *, telemetry=None):
    """The cold-cache campaign: one shard per cell, two workers."""
    return run_sharded_exhaustive(
        engine,
        space,
        root,
        shards=len(space.layers) * space.bits,
        workers=2,
        telemetry=telemetry,
    )


class TestPlanCampaign:
    def test_plan_table_is_bit_identical_to_module_table(
        self, campaign_setup, module_table
    ):
        _, plan_engine, space = campaign_setup
        plan_table = OutcomeTable.from_exhaustive(plan_engine, space)
        assert_tables_identical(module_table, plan_table)
        assert plan_table.metadata["inference_count"] == (
            module_table.metadata["inference_count"]
        )

    def test_kill_and_resume_plan_campaign(
        self, campaign_setup, module_table, tmp_path
    ):
        _, plan_engine, space = campaign_setup
        root = tmp_path / "plan.queue"
        with pytest.raises(KeyboardInterrupt):
            run_fleet(
                plan_engine,
                space,
                root,
                telemetry=Telemetry(on_event=_KillAfter(3)),
            )
        persisted = ShardQueue(root).done_ids()
        assert persisted, "kill happened before any shard was done"
        assert len(persisted) < len(space.layers) * space.bits

        resumed = run_fleet(plan_engine, space, root)
        assert_tables_identical(module_table, resumed)

    def test_module_checkpoint_not_resumed_by_plan_engine(
        self, campaign_setup, module_table, tmp_path
    ):
        """The queue config embeds the engine kind: a queue a module
        engine left behind is refused by a plan engine and discarded,
        not resumed, by the cold-cache path — and the rerun matches."""
        module_engine, plan_engine, space = campaign_setup
        root = tmp_path / "cross.queue"
        with pytest.raises(KeyboardInterrupt):
            run_fleet(
                module_engine,
                space,
                root,
                telemetry=Telemetry(on_event=_KillAfter(2)),
            )
        with pytest.raises(DistError, match="different config"):
            run_fleet(plan_engine, space, root)
        _discard_stale_queue(
            ShardQueue(root),
            *make_exhaustive_shards(
                plan_engine, space, shards=len(space.layers) * space.bits
            ),
        )
        table = run_fleet(plan_engine, space, root)
        assert_tables_identical(module_table, table)


class TestPlanTelemetry:
    def test_journal_carries_batching_metrics(self, campaign_setup, tmp_path):
        """repro-stats surfaces the plan engine's batching and op-cache
        effectiveness from the journal alone."""
        from repro.telemetry import format_summary, read_journal

        _, plan_engine, space = campaign_setup
        path = tmp_path / "plan.jsonl"
        OutcomeTable.from_exhaustive(
            plan_engine,
            space,
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

    def test_cold_fleet_journal_fits_the_plan_engine(
        self, campaign_setup, tmp_path
    ):
        """A cold-cache fleet run declares its engine and batch, so the
        cost model fitted from its journal prices the plan engine at its
        measured cost rather than rescaling module-engine times."""
        _, plan_engine, space = campaign_setup
        path = tmp_path / "fleet.jsonl"
        run_fleet(
            plan_engine,
            space,
            tmp_path / "q",
            telemetry=Telemetry(journal=Journal(path)),
        )
        (summary,) = summarize_journal(path)
        assert len(summary.cells) == len(space.layers) * space.bits
        model = fit_cost_model([summary])
        assert model.measured_engine == "plan"
        assert model.measured_batch_size == plan_engine.batch_size
        assert model.engine_scale("plan") == 1.0


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
