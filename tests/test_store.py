"""Tests for the verified artifact store (repro.store)."""

from __future__ import annotations

import io
import json
import os
import time

import numpy as np
import pytest

from repro.store import (
    CorruptArtifactError,
    atomic_savez,
    atomic_write,
    load_manifest,
    load_verified_npz,
    record_artifact,
    salvage_npz,
    save_verified_npz,
    sha256_file,
    validate_npz,
    verify_artifact,
    verify_directory,
    write_manifest,
)


def _make_npz_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


class TestAtomicWrite:
    def test_writes_bytes_and_cleans_up(self, tmp_path):
        path = tmp_path / "sub" / "a.bin"
        with atomic_write(path) as stream:
            stream.write(b"payload")
        assert path.read_bytes() == b"payload"
        leftovers = [p for p in path.parent.iterdir() if p != path]
        assert leftovers == []

    def test_failure_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"original")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as stream:
                stream.write(b"half-writ")
                raise RuntimeError("killed mid-write")
        assert path.read_bytes() == b"original"
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]

    def test_atomic_savez_roundtrip(self, tmp_path):
        path = tmp_path / "arrays.npz"
        atomic_savez(path, x=np.arange(5), y=np.eye(3))
        with np.load(path) as archive:
            assert np.array_equal(archive["x"], np.arange(5))
            assert np.array_equal(archive["y"], np.eye(3))


class TestManifest:
    def test_record_and_verify(self, tmp_path):
        path = tmp_path / "a.npz"
        atomic_savez(path, x=np.arange(4))
        entry = record_artifact(path)
        assert entry["sha256"] == sha256_file(path)
        assert verify_artifact(path) is None

    def test_detects_modification(self, tmp_path):
        path = tmp_path / "a.npz"
        atomic_savez(path, x=np.arange(4))
        record_artifact(path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # same size, different content
        path.write_bytes(bytes(data))
        problem = verify_artifact(path)
        assert problem is not None and "SHA-256" in problem

    def test_detects_truncation_by_size(self, tmp_path):
        path = tmp_path / "a.npz"
        atomic_savez(path, x=np.arange(100))
        record_artifact(path)
        path.write_bytes(path.read_bytes()[:50])
        problem = verify_artifact(path)
        assert problem is not None and "size mismatch" in problem

    def test_unlisted_file_is_not_an_error(self, tmp_path):
        path = tmp_path / "handmade.npz"
        atomic_savez(path, x=np.arange(4))
        assert verify_artifact(path) is None

    def test_verify_directory_report(self, tmp_path):
        good = tmp_path / "good.npz"
        atomic_savez(good, x=np.arange(4))
        record_artifact(good)
        bad = tmp_path / "bad.npz"
        atomic_savez(bad, x=np.arange(64))
        record_artifact(bad)
        bad.write_bytes(bad.read_bytes()[:32])
        gone = tmp_path / "gone.npz"
        atomic_savez(gone, x=np.arange(4))
        record_artifact(gone)
        gone.unlink()
        unlisted = tmp_path / "unlisted.npz"
        atomic_savez(unlisted, x=np.arange(4))
        report = verify_directory(tmp_path)
        assert report.ok == ["good.npz"]
        assert list(report.failed) == ["bad.npz"]
        assert report.missing == ["gone.npz"]
        assert report.unlisted == ["unlisted.npz"]
        assert not report.clean

    def test_write_manifest_selected_names(self, tmp_path):
        for name in ("a.npz", "b.npz"):
            atomic_savez(tmp_path / name, x=np.arange(3))
        write_manifest(tmp_path, names=["a.npz"])
        assert sorted(load_manifest(tmp_path)) == ["a.npz"]


class TestVerifiedNpz:
    def test_save_load_roundtrip_updates_manifest(self, tmp_path):
        path = tmp_path / "a.npz"
        save_verified_npz(path, {"x": np.arange(6)})
        assert "a.npz" in load_manifest(tmp_path)
        loaded = load_verified_npz(path)
        assert np.array_equal(loaded["x"], np.arange(6))

    def test_truncation_raises_domain_error_naming_file(self, tmp_path):
        path = tmp_path / "resnet8_mini.npz"
        save_verified_npz(path, {"x": np.arange(512)})
        path.write_bytes(path.read_bytes()[:100])
        command = "python examples/train_models.py --model resnet8_mini"
        with pytest.raises(CorruptArtifactError) as excinfo:
            load_verified_npz(path, regenerate=command)
        message = str(excinfo.value)
        assert "resnet8_mini.npz" in message
        assert command in message
        # No bare BadZipFile escapes.
        assert excinfo.value.path == os.fspath(path)

    def test_validate_npz_detects_damage(self, tmp_path):
        path = tmp_path / "a.npz"
        atomic_savez(path, x=np.arange(256))
        assert validate_npz(path) is None
        path.write_bytes(path.read_bytes()[:64])
        assert validate_npz(path) is not None
        assert validate_npz(tmp_path / "absent.npz") == "file is missing"

    def test_missing_file_error(self, tmp_path):
        with pytest.raises(CorruptArtifactError, match="missing"):
            load_verified_npz(tmp_path / "never-written.npz")


class TestSalvage:
    def test_recovers_intact_members_from_truncated_archive(self, tmp_path):
        arrays = {
            f"arr{i}": np.random.default_rng(i)
            .normal(size=(40, 40))
            .astype(np.float32)
            for i in range(6)
        }
        blob = _make_npz_bytes(arrays)
        path = tmp_path / "damaged.npz"
        path.write_bytes(blob[: int(len(blob) * 0.6)])
        assert validate_npz(path) is not None  # np.load would fail
        recovered = salvage_npz(path)
        assert 0 < len(recovered) < len(arrays)
        for name, array in recovered.items():
            assert np.array_equal(array, arrays[name])

    def test_healthy_archive_salvages_fully(self, tmp_path):
        arrays = {"x": np.arange(10), "y": np.linspace(0, 1, 7)}
        path = tmp_path / "healthy.npz"
        path.write_bytes(_make_npz_bytes(arrays))
        recovered = salvage_npz(path)
        assert sorted(recovered) == sorted(arrays)
        for name, array in arrays.items():
            assert np.array_equal(recovered[name], array)

    def test_garbage_returns_empty(self, tmp_path):
        path = tmp_path / "noise.npz"
        path.write_bytes(os.urandom(2048))
        assert salvage_npz(path) == {}


class TestManifestFormat:
    def test_manifest_is_sorted_versioned_json(self, tmp_path):
        save_verified_npz(tmp_path / "b.npz", {"x": np.arange(3)})
        save_verified_npz(tmp_path / "a.npz", {"x": np.arange(3)})
        with open(tmp_path / "MANIFEST.json", encoding="utf-8") as stream:
            payload = json.load(stream)
        assert payload["version"] == 1
        assert list(payload["artifacts"]) == ["a.npz", "b.npz"]


class TestConcurrentManifestWriters:
    @staticmethod
    def fork_writers(directory, *, append: bool) -> None:
        """More writers than cores saving into one directory (a local
        fleet completing shards into ``done/``); asserts every entry
        landed."""
        writers, per_writer = (os.cpu_count() or 1) + 1, 40
        pids = []
        for writer in range(writers):
            pid = os.fork()
            if pid == 0:  # child: write, then leave without cleanup
                code = 0
                try:
                    for i in range(per_writer):
                        save_verified_npz(
                            directory / f"w{writer}_{i:03d}.npz",
                            {"x": np.full(4, i, dtype=np.int64)},
                            append=append,
                        )
                except BaseException:
                    code = 1
                os._exit(code)
            pids.append(pid)
        deadline = time.monotonic() + 120.0
        codes = {}
        while len(codes) < len(pids) and time.monotonic() < deadline:
            for pid in pids:
                if pid not in codes:
                    done, status = os.waitpid(pid, os.WNOHANG)
                    if done:
                        codes[pid] = os.waitstatus_to_exitcode(status)
            time.sleep(0.01)
        for pid in pids:
            if pid not in codes:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
        assert sorted(codes.values()) == [0] * writers, "a writer hung or failed"
        files = sorted(p.name for p in directory.glob("*.npz"))
        assert len(files) == writers * per_writer
        assert sorted(load_manifest(directory)) == files
        report = verify_directory(directory)
        assert report.clean and not report.unlisted

    def test_forked_writers_lose_no_manifest_entry(self, tmp_path):
        self.fork_writers(tmp_path, append=False)

    def test_forked_appending_writers_lose_no_manifest_entry(self, tmp_path):
        self.fork_writers(tmp_path, append=True)
        assert (tmp_path / "MANIFEST.log").is_file()


class TestManifestLog:
    """``append=True`` records into ``MANIFEST.log`` at constant cost."""

    def test_appended_entries_verify_and_catch_tampering(self, tmp_path):
        for name in ("a.npz", "b.npz"):
            save_verified_npz(tmp_path / name, {"x": np.arange(3)}, append=True)
        assert not (tmp_path / "MANIFEST.json").exists()
        assert sorted(load_manifest(tmp_path)) == ["a.npz", "b.npz"]
        atomic_savez(tmp_path / "b.npz", x=np.arange(4))  # bypasses the store
        report = verify_directory(tmp_path)
        assert report.ok == ["a.npz"] and list(report.failed) == ["b.npz"]

    def test_later_line_wins_and_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "a.npz"
        save_verified_npz(path, {"x": np.arange(3)}, append=True)
        save_verified_npz(path, {"x": np.arange(5)}, append=True)
        with open(tmp_path / "MANIFEST.log", "a", encoding="utf-8") as log:
            log.write('{"name": "b.npz", "sha2')  # a killed writer's line
        assert sorted(load_manifest(tmp_path)) == ["a.npz"]
        assert verify_artifact(path) is None

    def test_rewrite_folds_the_log_into_the_manifest(self, tmp_path):
        save_verified_npz(tmp_path / "a.npz", {"x": np.arange(3)}, append=True)
        save_verified_npz(tmp_path / "b.npz", {"x": np.arange(3)})
        assert not (tmp_path / "MANIFEST.log").exists()
        with open(tmp_path / "MANIFEST.json", encoding="utf-8") as stream:
            assert sorted(json.load(stream)["artifacts"]) == ["a.npz", "b.npz"]

    def test_preloaded_entries_verify_like_a_fresh_read(self, tmp_path):
        path = tmp_path / "a.npz"
        save_verified_npz(path, {"x": np.arange(3)}, append=True)
        entries = load_manifest(tmp_path)
        assert load_verified_npz(path, entries=entries)["x"].tolist() == [0, 1, 2]
        atomic_savez(path, x=np.arange(4))
        with pytest.raises(CorruptArtifactError):
            load_verified_npz(path, entries=entries)
