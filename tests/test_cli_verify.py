"""Tests for ``repro-verify-artifacts``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli.verify import main
from repro.store import load_manifest, save_verified_npz


@pytest.fixture()
def store_tree(tmp_path):
    """An artifact tree mirroring the real layout (weights + exhaustive)."""
    weights = tmp_path / "weights"
    exhaustive = tmp_path / "exhaustive"
    for directory, names in (
        (weights, ["resnet8_mini.npz", "resnet14_mini.npz"]),
        (exhaustive, ["resnet8_mini_n64_accuracy_drop.npz"]),
    ):
        for name in names:
            save_verified_npz(
                directory / name, {"x": np.arange(256, dtype=np.float32)}
            )
    return tmp_path


class TestVerifyCLI:
    def test_clean_store_passes(self, store_tree, capsys):
        assert main(["--artifacts", str(store_tree)]) == 0
        out = capsys.readouterr().out
        assert "all 3 artifact(s) verified" in out

    def test_corrupt_artifact_fails_with_nonzero_exit(self, store_tree, capsys):
        victim = store_tree / "weights" / "resnet8_mini.npz"
        victim.write_bytes(victim.read_bytes()[:80])
        assert main(["--artifacts", str(store_tree)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "resnet8_mini.npz" in out

    def test_every_truncated_artifact_is_reported(self, store_tree, capsys):
        for path in store_tree.rglob("*.npz"):
            path.write_bytes(path.read_bytes()[:60])
        assert main(["--artifacts", str(store_tree)]) == 1
        out = capsys.readouterr().out
        assert "3 of 3 artifact(s) FAILED" in out

    def test_missing_listed_artifact_fails(self, store_tree):
        (store_tree / "weights" / "resnet14_mini.npz").unlink()
        assert main(["--artifacts", str(store_tree)]) == 1

    def test_missing_artifact_listed_only_in_the_log_fails(self, tmp_path):
        """A shard queue's ``done/`` keeps its checksums in
        ``MANIFEST.log``; a listed result that vanished is still found."""
        done = tmp_path / "q" / "done"
        save_verified_npz(done / "s0.npz", {"x": np.arange(3)}, append=True)
        assert main(["--artifacts", str(tmp_path)]) == 0
        (done / "s0.npz").unlink()
        assert main(["--artifacts", str(tmp_path)]) == 1

    def test_unlisted_but_valid_artifact_passes(self, store_tree, capsys):
        extra = store_tree / "weights" / "handmade.npz"
        np_arrays = {"x": np.arange(4)}
        import io

        buffer = io.BytesIO()
        np.savez_compressed(buffer, **np_arrays)
        extra.write_bytes(buffer.getvalue())
        assert main(["--artifacts", str(store_tree)]) == 0
        assert "unlisted" in capsys.readouterr().out

    def test_write_manifest_skips_corrupt_files(self, store_tree):
        victim = store_tree / "weights" / "resnet8_mini.npz"
        victim.write_bytes(victim.read_bytes()[:80])
        main(["--artifacts", str(store_tree), "--write-manifest"])
        entries = load_manifest(store_tree / "weights")
        assert "resnet14_mini.npz" in entries
        assert "resnet8_mini.npz" not in entries

    def test_salvage_to_recovers_members(self, store_tree, tmp_path):
        arrays = {
            f"arr{i}": np.random.default_rng(i)
            .normal(size=(40, 40))
            .astype(np.float32)
            for i in range(6)
        }
        victim = store_tree / "weights" / "big.npz"
        save_verified_npz(victim, arrays)
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size * 3 // 5])
        out_dir = tmp_path / "recovered"
        assert (
            main(
                [
                    "--artifacts",
                    str(store_tree),
                    "--salvage-to",
                    str(out_dir),
                ]
            )
            == 1
        )
        recovered = dict(np.load(out_dir / "big.npz"))
        assert recovered
        for name, array in recovered.items():
            assert np.array_equal(array, arrays[name])

    def test_missing_root_fails(self, tmp_path):
        assert main(["--artifacts", str(tmp_path / "nope")]) == 1
