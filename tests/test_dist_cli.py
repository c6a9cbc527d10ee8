"""``repro-dist`` end to end: submit -> work -> status -> merge."""

from __future__ import annotations

import json

import pytest

from repro.cli.dist import main as dist_main
from repro.models import pretrained_path
from repro.sfi.artifacts import exhaustive_table_path

pytestmark = pytest.mark.skipif(
    not (
        pretrained_path("resnet8_mini").is_file()
        and exhaustive_table_path("resnet8_mini").is_file()
    ),
    reason="needs the committed resnet8_mini artifacts",
)

SUBMIT = [
    "--kind",
    "sampled",
    "--model",
    "resnet8_mini",
    "--method",
    "data-unaware",
    "--error-margin",
    "0.1",
    "--seed",
    "5",
    "--shards",
    "4",
]


class TestSampledRoundTrip:
    def test_submit_work_status_merge(self, tmp_path, capsys):
        root = str(tmp_path / "q")
        assert dist_main(["submit", root, *SUBMIT]) == 0
        out = capsys.readouterr().out
        assert "4 shard(s), 4 enqueued" in out

        assert dist_main(["status", root, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["kind"] == "sampled"
        assert len(status["pending"]) == 4
        assert not status["complete"]

        journal = tmp_path / "worker.jsonl"
        assert dist_main(["work", root, "--trace", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "completed 4 shard(s)" in out
        assert journal.is_file()

        assert dist_main(["status", root, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert len(status["done"]) == 4
        assert status["complete"]

        assert dist_main(["merge", root]) == 0
        out = capsys.readouterr().out
        assert "data-unaware" in out
        assert "injections" in out

    def test_merged_result_matches_serial_runner(self, tmp_path, capsys):
        from repro.dist import ShardQueue, merge_sampled
        from repro.faults import TableOracle
        from repro.sfi import CampaignRunner, DataUnawareSFI
        from repro.sfi.artifacts import load_or_run_exhaustive

        root = str(tmp_path / "q")
        assert dist_main(["submit", root, *SUBMIT]) == 0
        assert dist_main(["work", root]) == 0
        capsys.readouterr()

        table, space, _engine = load_or_run_exhaustive("resnet8_mini")
        plan = DataUnawareSFI(0.1, 0.99).plan(space)
        serial = CampaignRunner(TableOracle(table, space), space).run(
            plan, seed=5
        )
        merged = merge_sampled(ShardQueue(root), space)
        assert merged.cell_tallies == serial.cell_tallies
        assert merged.assumed_p == serial.assumed_p
        assert merged.network_estimate() == serial.network_estimate()

    def test_resubmit_resumes_instead_of_restarting(self, tmp_path, capsys):
        root = str(tmp_path / "q")
        assert dist_main(["submit", root, *SUBMIT]) == 0
        capsys.readouterr()
        assert dist_main(["work", root, "--max-shards", "2"]) == 0
        capsys.readouterr()
        assert dist_main(["submit", root, *SUBMIT]) == 0
        out = capsys.readouterr().out
        assert "0 enqueued (2 already done)" in out

    def test_merge_refuses_incomplete_queue(self, tmp_path, capsys):
        root = str(tmp_path / "q")
        assert dist_main(["submit", root, *SUBMIT]) == 0
        capsys.readouterr()
        assert dist_main(["merge", root]) == 2
        err = capsys.readouterr().err
        assert "incomplete" in err

    def test_mismatched_submission_is_refused(self, tmp_path, capsys):
        root = str(tmp_path / "q")
        assert dist_main(["submit", root, *SUBMIT]) == 0
        capsys.readouterr()
        different = [arg if arg != "5" else "6" for arg in SUBMIT]
        assert dist_main(["submit", root, *different]) == 2
        err = capsys.readouterr().err
        assert "different config fingerprint" in err


class TestLegacyQueues:
    #: Structural plan fingerprints of resnet8_mini as recorded by the
    #: last release with ``--fuse`` and ``--backend``: the BN-folded plan,
    #: and the plan qualified by a non-reference backend's attestation.
    FUSED_PLAN = "b804167cd53015c4f703253234b79344aabbe923fcf3487319e44871d695d424"
    BACKEND_PLAN = "5787d56cedfd65d8501b539a5eabd87cdcc64ac16f23943364d633b32b89607d"

    def test_work_refuses_queue_recorded_with_fuse_or_backend(
        self, tmp_path, capsys
    ):
        """A queue whose runtime records ``fuse: true`` or a ``backend``
        entry is refused by the plan-fingerprint check before any shard
        is claimed — never rerun on the reference numerics."""
        root = tmp_path / "q"
        submit = [
            "submit", str(root), "--kind", "exhaustive",
            "--model", "resnet8_mini", "--eval-size", "8", "--shards", "2",
        ]
        assert dist_main(submit) == 0
        capsys.readouterr()
        campaign_path = root / "campaign.json"
        record = json.loads(campaign_path.read_text())
        runtime = record["runtime"]
        for legacy in (
            {"fuse": True, "plan_sha256": self.FUSED_PLAN},
            {"backend": "shifted", "plan_sha256": self.BACKEND_PLAN},
        ):
            record["runtime"] = dict(runtime, **legacy)
            campaign_path.write_text(json.dumps(record))
            assert dist_main(["work", str(root), "--no-wait"]) == 2
            assert "execution-plan mismatch" in capsys.readouterr().err
            assert dist_main(["status", str(root), "--json"]) == 0
            status = json.loads(capsys.readouterr().out)
            assert len(status["pending"]) == 2
            assert not status["leased"] and not status["done"]

    #: Structural plan fingerprint of resnet8_mini as the last release
    #: with the separate vectorized engine recorded it.
    VECTORIZED_PLAN = (
        "5859963b148ef01cf26fe2d8941e0fed9c6e477d2c1bbdc2bace1db7b427fca8"
    )

    def _submitted_record(self, root, capsys):
        submit = [
            "submit", str(root), "--kind", "exhaustive",
            "--model", "resnet8_mini", "--eval-size", "8", "--shards", "2",
        ]
        assert dist_main(submit) == 0
        capsys.readouterr()
        return json.loads((root / "campaign.json").read_text())

    def test_work_refuses_queue_recorded_with_vectorized_engine(
        self, tmp_path, capsys
    ):
        """A queue recorded under the removed ``plan_vectorized`` engine
        is refused, naming the engine, before any shard is claimed."""
        root = tmp_path / "q"
        record = self._submitted_record(root, capsys)
        record["runtime"].update(
            engine="plan_vectorized", plan_sha256=self.VECTORIZED_PLAN
        )
        (root / "campaign.json").write_text(json.dumps(record))
        assert dist_main(["work", str(root), "--no-wait"]) == 2
        assert "'plan_vectorized'" in capsys.readouterr().err
        assert dist_main(["status", str(root), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert len(status["pending"]) == 2
        assert not status["leased"] and not status["done"]

    def test_merge_names_removed_engine_for_vectorized_shard(
        self, tmp_path, capsys
    ):
        """A ``plan`` queue partly drained by a worker of the removed
        vectorized engine holds a shard attesting that engine's plan
        fingerprint: the merge refuses it and names the likely cause."""
        import numpy as np

        from repro.dist import ShardQueue
        from repro.faults.table import cell_key

        root = tmp_path / "q"
        record = self._submitted_record(root, capsys)
        queue = ShardQueue(root)
        config = record["config"]
        stamps = [
            {"plan_sha256": record["runtime"]["plan_sha256"]},
            {"plan_sha256": self.VECTORIZED_PLAN},
        ]
        for stamp in stamps:
            spec, lease = queue.claim(worker="w", lease_seconds=60.0)
            arrays = {
                f"cell_{cell_key(int(u[0]), int(u[1]))}": np.zeros(
                    (config["layer_sizes"][int(u[0])],
                     len(config["fault_models"])),
                    dtype=np.uint8,
                )
                for u in spec.units
            }
            queue.complete(
                spec, arrays, lease=lease, meta=dict(stamp, plan_verified=True)
            )
        assert dist_main(["merge", str(root)]) == 2
        err = capsys.readouterr().err
        assert "does not attest" in err
        assert self.VECTORIZED_PLAN[:12] in err
        assert "removed engine kind" in err

    def test_queues_recorded_with_either_engine_still_build(self):
        """Queues recorded as ``plan``, as ``module`` or with no engine
        key (the module engine, before engine selection existed) pass
        the engine gate and rebuild their engine."""
        from repro.cli.dist import _build_engine

        base = {"model": "resnet8_mini", "eval_size": 4}
        for runtime, kind in (
            (dict(base, engine="plan"), "plan"),
            (dict(base, engine="module"), "module"),
            (base, "module"),
        ):
            engine, _space = _build_engine(runtime)
            assert engine.kind == kind
