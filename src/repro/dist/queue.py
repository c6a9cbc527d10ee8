"""File-backed shard queue: ``pending/ -> leased/ -> done/`` (or ``poison/``).

The queue is a directory tree that any number of processes — on this
host or on others sharing the filesystem — drain cooperatively:

.. code-block:: text

    <root>/
      campaign.json          # config + fingerprint + ordered shard ids
      pending/<id>.json      # shard specs awaiting a worker
      leased/<id>.json       # claimed specs (+ <id>.lease.json deadlines)
      done/<id>.npz          # per-shard results (verified store; checksums
                             # appended to done/MANIFEST.log)
      poison/<id>.json       # shards that failed repeatedly, with history

Every transition is a single atomic ``rename`` or an atomic write from
:mod:`repro.store`, so a claim can never be won by two workers, a crash
can never leave a half-written spec or result, and readers can trust the
``done/`` manifest checksums at merge time.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.dist.lease import Lease, lease_deadline, read_lease
from repro.dist.spec import DistError, ShardSpec, config_hash, split_shard
from repro.store import atomic_write_bytes, load_verified_npz, save_verified_npz

CAMPAIGN_NAME = "campaign.json"

#: Suffix marking a pending spec mid-split.  Workers claim via
#: ``glob("*.json")``, so the renamed file is invisible to them — the
#: rename is the rebalancer's atomic "claim" on the shard.
SPLITTING_SUFFIX = ".json.splitting"


def expand_splits(
    specs: list[ShardSpec], splits: dict[str, dict]
) -> list[ShardSpec]:
    """Replay recorded splits over freshly derived shard specs.

    A resubmitted campaign re-derives the *original* partition from its
    config; any shard the rebalancer split since must be expanded into
    the same children (splits are pure functions of (spec, parts), so
    the recorded part count reproduces the recorded child ids exactly).
    Recursive: a child split again expands again.
    """
    expanded: list[ShardSpec] = []
    for spec in specs:
        record = splits.get(spec.shard_id)
        if not record:
            expanded.append(spec)
            continue
        children = split_shard(spec, int(record["parts"]))
        derived = [child.shard_id for child in children]
        if derived != list(record["children"]):
            raise DistError(
                f"recorded split of shard {spec.shard_id} does not "
                f"reproduce (expected {record['children']}, derived "
                f"{derived}); the queue metadata is corrupt"
            )
        expanded.extend(expand_splits(children, splits))
    return expanded


@dataclass
class QueueStatus:
    """Snapshot of a queue's state (see :meth:`ShardQueue.status`)."""

    pending: list[str] = field(default_factory=list)
    leased: list[dict] = field(default_factory=list)
    done: list[str] = field(default_factory=list)
    poisoned: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return (
            len(self.pending)
            + len(self.leased)
            + len(self.done)
            + len(self.poisoned)
        )

    @property
    def complete(self) -> bool:
        return not self.pending and not self.leased and not self.poisoned


class ShardQueue:
    """One campaign's work queue rooted at *root*."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.pending_dir = self.root / "pending"
        self.leased_dir = self.root / "leased"
        self.done_dir = self.root / "done"
        self.poison_dir = self.root / "poison"

    # -- campaign metadata -----------------------------------------------

    @property
    def campaign_path(self) -> Path:
        return self.root / CAMPAIGN_NAME

    def campaign(self) -> dict:
        """The campaign record written at submit time."""
        try:
            with open(self.campaign_path, encoding="utf-8") as stream:
                return json.load(stream)
        except (OSError, json.JSONDecodeError) as exc:
            raise DistError(
                f"no submitted campaign at {self.root} "
                f"(missing or unreadable {CAMPAIGN_NAME}): {exc}"
            ) from exc

    # -- submission --------------------------------------------------------

    def submit(
        self,
        specs: list[ShardSpec],
        *,
        config: dict,
        runtime: dict | None = None,
    ) -> int:
        """Publish the campaign and enqueue its shards.

        Re-submitting the *same* campaign (matching config fingerprint)
        is the resume path: shards already in ``done/`` stay done, and
        only the missing ones are re-enqueued.  Submitting a *different*
        campaign into a non-empty root is refused — stale shards must
        never leak into a new campaign.

        Returns the number of shards actually enqueued.
        """
        cfg_hash = config_hash(config)
        for spec in specs:
            if spec.config_hash != cfg_hash:
                raise DistError(
                    f"shard {spec.shard_id} was built for config "
                    f"{spec.config_hash[:12]}, not {cfg_hash[:12]}"
                )
        splits: dict[str, dict] = {}
        if self.campaign_path.exists():
            existing = self.campaign()
            if existing.get("config_hash") != cfg_hash:
                raise DistError(
                    f"{self.root} already holds campaign "
                    f"{existing.get('config_hash', '?')[:12]} with a "
                    f"different config fingerprint; refusing to mix "
                    f"shards (use a fresh directory)"
                )
            # The resume path must honour rebalancer splits recorded by
            # the earlier submission: re-enqueue the children, never the
            # split parents.
            splits = existing.get("splits", {})
            specs = expand_splits(specs, splits)
        for directory in (
            self.pending_dir,
            self.leased_dir,
            self.done_dir,
            self.poison_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        record = {
            "config": config,
            "config_hash": cfg_hash,
            "campaign_id": cfg_hash[:12],
            "shards": [spec.shard_id for spec in specs],
            "runtime": runtime or {},
        }
        if splits:
            record["splits"] = splits
        atomic_write_bytes(
            self.campaign_path,
            (json.dumps(record, indent=2, sort_keys=True) + "\n").encode(
                "utf-8"
            ),
        )
        done = self.done_ids()
        enqueued = 0
        for spec in specs:
            if spec.shard_id in done:
                continue
            if (self.leased_dir / f"{spec.shard_id}.json").exists():
                continue
            if (self.poison_dir / f"{spec.shard_id}.json").exists():
                continue
            path = self.pending_dir / f"{spec.shard_id}.json"
            if path.exists():
                continue
            atomic_write_bytes(path, (spec.to_json() + "\n").encode("utf-8"))
            enqueued += 1
        return enqueued

    # -- rebalancing -------------------------------------------------------

    def splitting_path(self, shard_id: str) -> Path:
        return self.pending_dir / f"{shard_id}{SPLITTING_SUFFIX}"

    def begin_split(self, shard_id: str) -> ShardSpec | None:
        """Atomically take one *pending* shard out of workers' sight.

        Renames ``pending/<id>.json`` to the ``.splitting`` name (which
        no worker globs) and returns the spec, or ``None`` if the shard
        was claimed/completed first — the split loses claim races by
        design, a running worker beats a re-partition.
        """
        source = self.pending_dir / f"{shard_id}.json"
        target = self.splitting_path(shard_id)
        try:
            os.rename(source, target)
        except OSError:
            return None
        spec = self._read_spec(target)
        if spec is None:
            self.abort_split(shard_id)  # torn spec: leave it to fail()
            return None
        return spec

    def abort_split(self, shard_id: str) -> None:
        """Put an un-committed split's parent back into the queue."""
        try:
            os.rename(
                self.splitting_path(shard_id),
                self.pending_dir / f"{shard_id}.json",
            )
        except OSError:
            pass

    def commit_split(
        self, spec: ShardSpec, children: list[ShardSpec]
    ) -> None:
        """Replace a split parent with its children, atomically.

        The campaign.json rewrite is the commit point: the parent id is
        replaced in ``shards`` (order preserved) and the split recorded
        under ``splits`` so resubmissions and crash recovery re-derive
        the same children.  Only then are the child specs enqueued and
        the parent's ``.splitting`` file dropped — a crash in between
        leaves a committed record from which :meth:`recover_splits`
        re-derives the missing children deterministically.

        Single-writer by contract: the supervisor's rebalance pass is
        the only thing that rewrites campaign.json after submission.
        """
        campaign = self.campaign()
        shards = list(campaign.get("shards", []))
        if spec.shard_id not in shards:
            raise DistError(
                f"cannot split shard {spec.shard_id}: not part of the "
                f"campaign at {self.root}"
            )
        for child in children:
            if child.config_hash != campaign.get("config_hash"):
                raise DistError(
                    f"split child {child.shard_id} belongs to config "
                    f"{child.config_hash[:12]}, campaign is "
                    f"{str(campaign.get('config_hash'))[:12]}"
                )
        at = shards.index(spec.shard_id)
        campaign["shards"] = (
            shards[:at]
            + [child.shard_id for child in children]
            + shards[at + 1 :]
        )
        splits = campaign.setdefault("splits", {})
        splits[spec.shard_id] = {
            "children": [child.shard_id for child in children],
            "parts": len(children),
        }
        atomic_write_bytes(
            self.campaign_path,
            (json.dumps(campaign, indent=2, sort_keys=True) + "\n").encode(
                "utf-8"
            ),
        )
        self._enqueue_children(children)
        try:
            self.splitting_path(spec.shard_id).unlink()
        except OSError:
            pass

    def _enqueue_children(self, children: list[ShardSpec]) -> None:
        done = self.done_ids()
        for child in children:
            if child.shard_id in done:
                continue
            path = self.pending_dir / f"{child.shard_id}.json"
            if path.exists():
                continue
            if (self.leased_dir / f"{child.shard_id}.json").exists():
                continue
            atomic_write_bytes(
                path, (child.to_json() + "\n").encode("utf-8")
            )

    def recover_splits(self) -> list[str]:
        """Repair splits interrupted by a crash; returns touched ids.

        Two windows exist.  Before the campaign.json rewrite the split
        never happened — the ``.splitting`` parent goes straight back to
        pending.  After it, the split is committed — the children are
        re-derived from the parent spec and the recorded part count
        (pure, so ids match the record) and any missing ones enqueued.
        """
        if not self.pending_dir.is_dir():
            return []
        recovered = []
        try:
            campaign = self.campaign()
        except DistError:
            campaign = {}
        splits = campaign.get("splits", {})
        for path in sorted(self.pending_dir.glob(f"*{SPLITTING_SUFFIX}")):
            shard_id = path.name[: -len(SPLITTING_SUFFIX)]
            record = splits.get(shard_id)
            if record is None:
                self.abort_split(shard_id)
                recovered.append(shard_id)
                continue
            spec = self._read_spec(path)
            if spec is not None:
                self._enqueue_children(
                    split_shard(spec, int(record["parts"]))
                )
            try:
                path.unlink()
            except OSError:
                pass
            recovered.append(shard_id)
        return recovered

    # -- claiming ----------------------------------------------------------

    def _read_spec(self, path: Path) -> ShardSpec | None:
        try:
            return ShardSpec.from_json(path.read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError):
            return None

    def claim(
        self,
        *,
        worker: str,
        lease_seconds: float,
        now: float | None = None,
    ) -> tuple[ShardSpec, Lease] | None:
        """Atomically take one pending shard, or ``None`` if none is ready.

        Shards are taken in the campaign's shard order: an exhaustive
        campaign's cells layer by layer, so a worker's consecutive cells
        share the engine's per-layer caches.  The winning rename moves
        the spec into ``leased/``; the lease file written right after
        carries the deadline.  Shards inside their retry backoff window
        (``not_before`` in the future) are skipped; shards that already
        have a result in ``done/`` are dropped rather than re-executed.
        """
        now = time.time() if now is None else now
        try:
            names = os.listdir(self.pending_dir)
        except OSError:
            names = []  # nothing submitted yet
        try:
            shards = self.campaign().get("shards", [])
        except DistError:
            shards = []
        order = {shard_id: at for at, shard_id in enumerate(shards)}
        names.sort(
            key=lambda name: (order.get(name[: -len(".json")], len(order)), name)
        )
        for name in names:
            if not name.endswith(".json"):
                continue  # a split in progress or a staged write
            path = self.pending_dir / name
            spec = self._read_spec(path)
            if spec is None:
                continue
            if self.result_path(spec.shard_id).exists():
                # A previous holder finished after its lease expired; the
                # requeued copy is redundant.
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            if spec.not_before > now:
                continue
            target = self.leased_dir / path.name
            try:
                os.rename(path, target)
            except OSError:
                continue  # lost the race to another worker
            # Refresh the mtime so the no-lease-file fallback deadline
            # counts from the claim, not from submission.
            try:
                os.utime(target)
            except OSError:
                pass
            lease = Lease.acquire(
                self.leased_dir / f"{spec.shard_id}.lease.json",
                shard_id=spec.shard_id,
                worker=worker,
                lease_seconds=lease_seconds,
            )
            return spec, lease
        return None

    # -- completion --------------------------------------------------------

    def result_path(self, shard_id: str) -> Path:
        return self.done_dir / f"{shard_id}.npz"

    def complete(
        self,
        spec: ShardSpec,
        arrays: dict[str, np.ndarray],
        *,
        lease: Lease | None = None,
        meta: dict | None = None,
    ) -> Path:
        """Persist a shard's result and retire the spec.

        The result lands in ``done/`` through the verified store (atomic
        write, checksum appended to the manifest log), stamped with the
        shard's identity so the merge can refuse results from a different
        campaign.  *meta* adds worker-side attestations (e.g. the
        verified plan fingerprint) to that stamp.  Completion is
        idempotent: a worker whose lease expired mid-run may finish
        after a re-dispatch already did, and simply overwrites the
        identical result.
        """
        payload = dict(arrays)
        payload["shard"] = np.frombuffer(
            json.dumps(
                {
                    "shard_id": spec.shard_id,
                    "kind": spec.kind,
                    "index": spec.index,
                    "total": spec.total,
                    "config_hash": spec.config_hash,
                    "units": [
                        list(u) if isinstance(u, tuple) else u
                        for u in spec.units
                    ],
                    "seed": spec.seed,
                    "attempts": spec.attempts,
                    **(meta or {}),
                },
                sort_keys=True,
            ).encode("utf-8"),
            dtype=np.uint8,
        )
        self.done_dir.mkdir(parents=True, exist_ok=True)
        path = self.result_path(spec.shard_id)
        save_verified_npz(path, payload, append=True)
        for stale in (
            self.leased_dir / f"{spec.shard_id}.json",
            self.pending_dir / f"{spec.shard_id}.json",
        ):
            try:
                stale.unlink()
            except OSError:
                pass
        if lease is not None:
            lease.release()
        return path

    def load_result(
        self,
        shard_id: str,
        *,
        regenerate: str | None = None,
        manifest: dict | None = None,
    ) -> tuple[dict, dict[str, np.ndarray]]:
        """Load and validate one shard result: ``(shard_meta, arrays)``.

        *manifest*: ``done/``'s manifest, when the caller read it once.
        """
        archive = load_verified_npz(
            self.result_path(shard_id), regenerate=regenerate, entries=manifest
        )
        arrays = dict(archive)
        meta_raw = arrays.pop("shard", None)
        if meta_raw is None:
            raise DistError(
                f"shard result {self.result_path(shard_id)} carries no "
                "shard metadata; it was not written by this queue"
            )
        meta = json.loads(bytes(meta_raw).decode("utf-8"))
        return meta, arrays

    # -- failure handling --------------------------------------------------

    def fail(
        self,
        spec: ShardSpec,
        error: str,
        *,
        lease: Lease | None = None,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        now: float | None = None,
    ) -> str:
        """Record a failed attempt: requeue with backoff or poison.

        Returns ``"requeued"`` or ``"poisoned"``.  The backoff doubles
        per attempt (capped), written into the spec's ``not_before`` so
        every worker observes it.

        The requeue is a single atomic rename of the *leased* copy
        (rewritten in place with the bumped attempt count first).  The
        earlier write-pending-then-unlink-leased ordering had a lost
        shard race, found by ``repro-check protocol``: a peer could
        claim the freshly requeued pending copy — renaming it back to
        ``leased/<id>.json`` — before the failing process unlinked that
        very path, destroying the new claimer's spec file.  A rename
        moves exactly one inode, so it can never clobber a concurrent
        claim, and every crash point leaves the spec in ``leased/``
        (re-dispatched by :meth:`release_expired`) or in its target.
        """
        # The backoff deadline is wall-clock by design: every worker must
        # observe the same real-time gate.  It lands in the spec's
        # not_before field, never in a fingerprint.
        now = time.time() if now is None else now  # repro-check: ignore[D203]
        attempts = spec.attempts + 1
        delay = min(backoff_base * (2 ** (attempts - 1)), backoff_cap)
        updated = spec.with_failure(error, not_before=now + delay)
        if attempts >= max_attempts:
            outcome = "poisoned"
            target = self.poison_dir / f"{spec.shard_id}.json"
        else:
            outcome = "requeued"
            target = self.pending_dir / f"{spec.shard_id}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        leased = self.leased_dir / f"{spec.shard_id}.json"
        atomic_write_bytes(leased, (updated.to_json() + "\n").encode("utf-8"))
        try:
            os.rename(leased, target)
        except OSError:
            pass
        if lease is not None:
            lease.release()
        return outcome

    def release_expired(
        self,
        *,
        lease_seconds: float,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        now: float | None = None,
    ) -> list[tuple[str, str]]:
        """Re-dispatch every leased shard whose deadline has passed.

        Any process may call this — peer workers do it before each claim,
        the supervisor on every tick — so a single dead worker never
        wedges the campaign.  Returns ``[(shard_id, outcome), ...]``
        where outcome is ``"requeued"`` or ``"poisoned"``.

        A shard its holder has completed is not requeued: requeueing it
        would recreate the retired spec and count a failed attempt.  A
        spec that has left ``leased/`` since it was read is skipped; one
        whose result is already in ``done/`` (its holder died inside
        :meth:`complete`) is retired as :meth:`complete` would have.  A
        completion landing between that re-check and the requeue write
        is still requeued; :meth:`claim` then drops the redundant copy
        without running it.

        *now* decides expiry only.  The retry backoff of a requeued shard
        counts from the real clock, so a caller forcing expiry with a
        future *now* (a dead local fleet) does not also hold the shard
        back until that future time.
        """
        now = time.time() if now is None else now
        released = []
        for path in sorted(self.leased_dir.glob("*.json")):
            if path.name.endswith(".lease.json"):
                continue
            spec = self._read_spec(path)
            if spec is None:
                continue
            lease_path = self.leased_dir / f"{spec.shard_id}.lease.json"
            deadline = lease_deadline(
                lease_path, path, default_lease_seconds=lease_seconds
            )
            if deadline > now:
                continue
            record = read_lease(lease_path) or {}
            holder = record.get("worker", "unknown worker")
            if not path.exists():
                continue  # retired or requeued since the spec was read
            if self.result_path(spec.shard_id).exists():
                for stale in (path, lease_path):
                    try:
                        stale.unlink()
                    except OSError:
                        pass
                continue
            outcome = self.fail(
                spec,
                f"lease expired (held by {holder}, deadline {deadline:.3f})",
                max_attempts=max_attempts,
                backoff_base=backoff_base,
                backoff_cap=backoff_cap,
            )
            try:
                lease_path.unlink()
            except OSError:
                pass
            released.append((spec.shard_id, outcome))
        return released

    def reclaim(self) -> list[str]:
        """Put every leased shard back in ``pending/``; returns their ids.

        For leases no live worker holds (a killed run's, a stopped local
        fleet's).  A kill is not a failed shard: unlike
        :meth:`release_expired` no attempt is counted.  A shard whose
        result is already in ``done/`` is retired instead.
        """
        reclaimed = []
        for path in sorted(self.leased_dir.glob("*.json")):
            if path.name.endswith(".lease.json"):
                continue
            shard_id = path.stem
            try:
                (self.leased_dir / f"{shard_id}.lease.json").unlink()
            except OSError:
                pass
            if self.result_path(shard_id).exists():
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            try:
                os.rename(path, self.pending_dir / path.name)
            except OSError:
                continue
            reclaimed.append(shard_id)
        return reclaimed

    # -- inspection --------------------------------------------------------

    def done_ids(self) -> set[str]:
        if not self.done_dir.is_dir():
            return set()
        return {path.stem for path in self.done_dir.glob("*.npz")}

    def poisoned(self) -> list[ShardSpec]:
        specs = []
        if self.poison_dir.is_dir():
            for path in sorted(self.poison_dir.glob("*.json")):
                spec = self._read_spec(path)
                if spec is not None:
                    specs.append(spec)
        return specs

    def status(self, *, now: float | None = None) -> QueueStatus:
        now = time.time() if now is None else now
        status = QueueStatus()
        if self.pending_dir.is_dir():
            status.pending = sorted(
                path.stem for path in self.pending_dir.glob("*.json")
            )
        if self.leased_dir.is_dir():
            for path in sorted(self.leased_dir.glob("*.json")):
                if path.name.endswith(".lease.json"):
                    continue
                shard_id = path.stem
                lease_path = self.leased_dir / f"{shard_id}.lease.json"
                record = read_lease(lease_path) or {}
                deadline = lease_deadline(
                    lease_path, path, default_lease_seconds=0.0
                )
                status.leased.append(
                    {
                        "shard_id": shard_id,
                        "worker": record.get("worker"),
                        "heartbeats": record.get("heartbeats", 0),
                        "deadline": deadline,
                        "expires_in": deadline - now,
                    }
                )
        status.done = sorted(self.done_ids())
        status.poisoned = [spec.shard_id for spec in self.poisoned()]
        return status

    def is_complete(self) -> bool:
        """Every submitted shard has a verified result in ``done/``."""
        try:
            shards = self.campaign()["shards"]
        except DistError:
            return False
        done = self.done_ids()
        return all(shard_id in done for shard_id in shards)
