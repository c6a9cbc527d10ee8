"""Model-checker counterexamples replayed against a real tmpdir queue.

Every counterexample class the protocol checker produced during
development — the five mutation classes plus the requeue race it found
in the real ``fail()``/``release_expired()`` — is replayed here as a
concrete schedule against a real :class:`ShardQueue`.  A crash is
simulated by truncating the operation sequence at the model's crash
point and running only the recovery path (``recover_splits`` /
``release_expired`` / re-claim) afterwards.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.dist import DistError, ShardQueue, ShardSpec, config_hash
from repro.dist.spec import _shard_id, split_shard
from repro.store import atomic_write_bytes, save_verified_npz

CONFIG = {"kind": "exhaustive", "fmt": "float16", "layer_sizes": [4, 8]}
CFG_HASH = config_hash(CONFIG)
FUTURE = time.time() + 3600.0


def make_specs(n: int = 2, units_per_shard: int = 4) -> list[ShardSpec]:
    specs = []
    for index in range(n):
        units = tuple((index, j) for j in range(units_per_shard))
        specs.append(
            ShardSpec(
                shard_id=_shard_id(
                    CFG_HASH, "exhaustive", index, n, units, None
                ),
                kind="exhaustive",
                index=index,
                total=n,
                config_hash=CFG_HASH,
                units=units,
            )
        )
    return specs


@pytest.fixture
def queue(tmp_path):
    queue = ShardQueue(tmp_path / "q")
    queue.submit(make_specs(), config=CONFIG)
    return queue


def drain(queue: ShardQueue, *, now: float = FUTURE + 3600.0) -> list[str]:
    """The model checker's recovery drain against the real queue."""
    queue.recover_splits()
    queue.release_expired(
        lease_seconds=0.0, max_attempts=99, backoff_base=0.0, now=now
    )
    completed = []
    for _ in range(32):
        claimed = queue.claim(worker="drain", lease_seconds=60.0, now=now)
        if claimed is None:
            break
        spec, lease = claimed
        queue.complete(spec, {"tallies": np.ones(3)}, lease=lease)
        completed.append(spec.shard_id)
    return completed


class TestClaimCrashWindow:
    """Crash between the claim rename and the lease write (Q310 class)."""

    def test_release_expired_recovers_via_mtime_fallback(self, queue):
        sid = queue.status().pending[0]
        # Truncated claim: the rename happened, the lease write did not.
        os.rename(
            queue.pending_dir / f"{sid}.json",
            queue.leased_dir / f"{sid}.json",
        )
        assert queue.status().pending.count(sid) == 0
        released = queue.release_expired(lease_seconds=0.0, now=FUTURE)
        assert (sid, "requeued") in released
        assert sorted(drain(queue)) == sorted(queue.campaign()["shards"])
        assert queue.is_complete()


class TestCompleteCrashWindow:
    """Crash inside ``complete`` — result first means nothing is lost,
    and the redundant requeue is dropped at claim time (Q310/Q311)."""

    def test_crash_after_result_write_duplicates_nothing(self, queue):
        spec, _lease = queue.claim(worker="w0", lease_seconds=0.0)
        # Truncated complete: result durable, spec retirement lost.
        save_verified_npz(
            queue.result_path(spec.shard_id), {"tallies": np.ones(3)}
        )
        assert (queue.leased_dir / f"{spec.shard_id}.json").exists()
        drain(queue)
        assert queue.is_complete()
        # Exactly one result per campaign shard: no double merge input.
        done = sorted(p.stem for p in queue.done_dir.glob("*.npz"))
        assert done == sorted(queue.campaign()["shards"])
        assert not list(queue.pending_dir.glob("*.json"))
        assert not list(queue.leased_dir.glob("*.json"))


class TestRecoverSplitWindows:
    """Both PR 7 ``recover_splits`` crash windows, plus idempotence
    (Q312/Q313 classes)."""

    def _split_target(self, queue):
        campaign = queue.campaign()
        by_id = {s.shard_id: s for s in make_specs()}
        sid = campaign["shards"][0]
        return by_id[sid]

    def test_window_before_commit_restores_parent(self, queue):
        spec = self._split_target(queue)
        taken = queue.begin_split(spec.shard_id)
        assert taken is not None
        assert queue.splitting_path(spec.shard_id).exists()
        # Crash before commit_split: no record exists — recovery must
        # rename the parent straight back (the exact rename the
        # dropped-recovery-rename mutant deletes).
        recovered = queue.recover_splits()
        assert spec.shard_id in recovered
        assert not queue.splitting_path(spec.shard_id).exists()
        assert (queue.pending_dir / f"{spec.shard_id}.json").exists()
        drain(queue)
        assert queue.is_complete()

    def test_window_after_commit_rederives_children(self, queue, monkeypatch):
        spec = self._split_target(queue)
        taken = queue.begin_split(spec.shard_id)
        children = split_shard(taken, 2)

        def boom(_children):
            raise RuntimeError("crash between commit and enqueue")

        monkeypatch.setattr(queue, "_enqueue_children", boom)
        with pytest.raises(RuntimeError):
            queue.commit_split(taken, children)
        monkeypatch.undo()
        # The record is durable but no child was enqueued.
        record = queue.campaign()["splits"][spec.shard_id]
        assert record["parts"] == 2
        for child in children:
            assert not (queue.pending_dir / f"{child.shard_id}.json").exists()
        recovered = queue.recover_splits()
        assert spec.shard_id in recovered
        for child in children:
            assert (queue.pending_dir / f"{child.shard_id}.json").exists()
        drain(queue)
        assert queue.is_complete()

    def test_recovery_is_idempotent_after_full_commit(self, queue):
        spec = self._split_target(queue)
        taken = queue.begin_split(spec.shard_id)
        children = split_shard(taken, 2)
        queue.commit_split(taken, children)
        # Resurrect the .splitting file (crash replay of a stale pass).
        atomic_write_bytes(
            queue.splitting_path(spec.shard_id),
            (taken.to_json() + "\n").encode("utf-8"),
        )
        before = sorted(p.name for p in queue.pending_dir.glob("*.json"))
        queue.recover_splits()
        after = sorted(p.name for p in queue.pending_dir.glob("*.json"))
        assert before == after  # no duplicate children
        assert not queue.splitting_path(spec.shard_id).exists()

    def test_split_partition_is_disjoint_and_complete(self):
        # The Q311 mutant corrupts exactly this property.
        spec = make_specs()[0]
        children = split_shard(spec, 3)
        got = [tuple(u) for child in children for u in child.units]
        assert sorted(got) == sorted(tuple(u) for u in spec.units)

    def test_corrupt_split_record_is_refused_on_resume(self, queue):
        # The Q313 mutant records a part count that does not re-derive
        # the recorded children; the real resume path must refuse it.
        spec = self._split_target(queue)
        taken = queue.begin_split(spec.shard_id)
        queue.commit_split(taken, split_shard(taken, 2))
        campaign = queue.campaign()
        campaign["splits"][spec.shard_id]["parts"] = 3
        atomic_write_bytes(
            queue.campaign_path,
            (__import__("json").dumps(campaign) + "\n").encode("utf-8"),
        )
        with pytest.raises(DistError, match="does not reproduce"):
            queue.submit(make_specs(), config=CONFIG)


class TestRequeueRace:
    """The lost-shard race ``repro-check protocol`` found in the real
    ``fail()``: requeue must be one atomic rename so a concurrent claim
    of the requeued copy can never be clobbered (Q310 class)."""

    def test_crash_between_rewrite_and_rename_is_recoverable(self, queue):
        spec, _lease = queue.claim(worker="w0", lease_seconds=0.0)
        # Truncated fail(): the leased copy was rewritten with the
        # bumped attempt count, the requeue rename never happened.
        updated = spec.with_failure("boom", not_before=0.0)
        atomic_write_bytes(
            queue.leased_dir / f"{spec.shard_id}.json",
            (updated.to_json() + "\n").encode("utf-8"),
        )
        drain(queue)
        assert queue.is_complete()

    def test_concurrent_claim_is_never_clobbered(self, queue):
        spec, lease0 = queue.claim(worker="w0", lease_seconds=0.0)
        # w0's fail() runs its first two effects: rewrite + rename.
        updated = spec.with_failure("boom", not_before=0.0)
        leased = queue.leased_dir / f"{spec.shard_id}.json"
        atomic_write_bytes(leased, (updated.to_json() + "\n").encode("utf-8"))
        os.rename(leased, queue.pending_dir / f"{spec.shard_id}.json")
        # A peer claims the requeued copy before w0 finishes its fail().
        reclaimed = queue.claim(worker="w1", lease_seconds=60.0, now=FUTURE)
        assert reclaimed is not None and reclaimed[0].shard_id == spec.shard_id
        # w0's trailing lease release must not destroy the peer's spec —
        # under the old write-pending-then-unlink-leased ordering this
        # step unlinked leased/<id>.json and lost the shard.
        lease0.release()
        assert (queue.leased_dir / f"{spec.shard_id}.json").exists()
        drain(queue)
        assert queue.is_complete()

    def test_fail_leaves_no_leased_copy_behind(self, queue):
        spec, lease = queue.claim(worker="w0", lease_seconds=60.0)
        outcome = queue.fail(spec, "boom", lease=lease)
        assert outcome == "requeued"
        assert not (queue.leased_dir / f"{spec.shard_id}.json").exists()
        requeued = queue._read_spec(
            queue.pending_dir / f"{spec.shard_id}.json"
        )
        assert requeued is not None and requeued.attempts == 1


class TestReleaseCompletionWindow:
    """The holder completes its shard while ``release_expired`` is
    between reading the leased spec and requeueing it.  Requeueing then
    would recreate the retired spec, redo the shard and count a failed
    attempt (``dist.shards_retried`` on healthy runs)."""

    def test_shard_completed_inside_the_window_is_not_requeued(
        self, queue, monkeypatch
    ):
        spec, lease = queue.claim(worker="w0", lease_seconds=60.0)
        read_spec = queue._read_spec

        def read_then_complete(path):
            read = read_spec(path)
            if path.parent == queue.leased_dir:
                # The holder finishes right after the releaser's read.
                queue.complete(spec, {"tallies": np.ones(3)}, lease=lease)
            return read

        monkeypatch.setattr(queue, "_read_spec", read_then_complete)
        released = queue.release_expired(lease_seconds=0.0, now=FUTURE)
        monkeypatch.undo()
        assert released == []
        assert spec.shard_id in queue.done_ids()
        assert not (queue.pending_dir / f"{spec.shard_id}.json").exists()
        assert not (queue.leased_dir / f"{spec.shard_id}.json").exists()
        assert queue.poisoned() == []

    def test_completion_after_the_recheck_is_absorbed_by_claim(
        self, queue, monkeypatch
    ):
        """The window the model's separate re-check step explores: the
        holder completes after the releaser's re-check but before its
        requeue write.  The redundant copy is requeued, and ``claim``
        drops it instead of running the shard again."""
        spec, lease = queue.claim(worker="w0", lease_seconds=60.0)
        fail = queue.fail

        def complete_then_fail(victim, error, **kwargs):
            queue.complete(spec, {"tallies": np.ones(3)}, lease=lease)
            return fail(victim, error, **kwargs)

        monkeypatch.setattr(queue, "fail", complete_then_fail)
        released = queue.release_expired(lease_seconds=0.0, now=FUTURE)
        monkeypatch.undo()
        assert released == [(spec.shard_id, "requeued")]
        assert (queue.pending_dir / f"{spec.shard_id}.json").exists()
        assert spec.shard_id not in drain(queue)
        assert queue.is_complete()
        assert not (queue.pending_dir / f"{spec.shard_id}.json").exists()

    def test_result_written_but_spec_not_retired_is_retired(self, queue):
        """The holder died inside ``complete``: the expired spec is
        retired as ``complete`` would have, not requeued."""
        spec, _lease = queue.claim(worker="w0", lease_seconds=0.0)
        save_verified_npz(
            queue.result_path(spec.shard_id), {"tallies": np.ones(3)}
        )
        released = queue.release_expired(lease_seconds=0.0, now=FUTURE)
        assert released == []
        assert not (queue.leased_dir / f"{spec.shard_id}.json").exists()
        assert not (queue.leased_dir / f"{spec.shard_id}.lease.json").exists()
        assert not (queue.pending_dir / f"{spec.shard_id}.json").exists()
        drain(queue)
        assert queue.is_complete()


class TestReclaim:
    """A killed run's leases go back to pending without counting an
    attempt: a kill is not a failed shard."""

    def test_reclaimed_shards_keep_their_attempt_count(self, queue):
        for _ in range(3):  # three runs killed while holding the shard
            spec, _lease = queue.claim(worker="killed", lease_seconds=60.0)
            assert queue.reclaim() == [spec.shard_id]
        assert not list(queue.leased_dir.iterdir())
        again = queue._read_spec(queue.pending_dir / f"{spec.shard_id}.json")
        assert again is not None and again.attempts == 0
        drain(queue)
        assert queue.is_complete() and queue.poisoned() == []

    def test_completed_shard_is_retired_not_requeued(self, queue):
        spec, _lease = queue.claim(worker="w0", lease_seconds=60.0)
        save_verified_npz(
            queue.result_path(spec.shard_id), {"tallies": np.ones(3)}
        )
        assert queue.reclaim() == []
        assert not list(queue.leased_dir.iterdir())
        assert not (queue.pending_dir / f"{spec.shard_id}.json").exists()


class TestScheduleIndependentMerge:
    """Q314 class: the merged table must not depend on attempt history."""

    def test_result_after_retry_matches_first_try_result(self, tmp_path):
        arrays = {"tallies": np.arange(6, dtype=np.float64)}
        results = {}
        for name, with_retry in (("a", False), ("b", True)):
            queue = ShardQueue(tmp_path / name)
            queue.submit(make_specs(1), config=CONFIG)
            spec, lease = queue.claim(worker="w0", lease_seconds=60.0)
            if with_retry:
                queue.fail(spec, "transient", lease=lease)
                spec, lease = queue.claim(
                    worker="w1", lease_seconds=60.0, now=FUTURE
                )
                assert spec.attempts == 1
            queue.complete(spec, arrays, lease=lease)
            meta, loaded = queue.load_result(spec.shard_id)
            results[name] = (meta, loaded)
        meta_a, arrays_a = results["a"]
        meta_b, arrays_b = results["b"]
        np.testing.assert_array_equal(arrays_a["tallies"], arrays_b["tallies"])
        # Identity metadata (what the merge validates) is attempt-free.
        for key in ("shard_id", "kind", "config_hash", "units"):
            assert meta_a[key] == meta_b[key]
