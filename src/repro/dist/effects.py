"""Declared filesystem-effect protocol of the distributed queue.

Every queue method that mutates disk state declares its ordered
sequence of atomic effects here, in terms of path *roles* (``pending``,
``leased``, ``lease``, ``done``, ``poison``, ``splitting``,
``campaign``).  The static pass in :mod:`repro.check.protocol.effects`
derives the *actual* effect sequence from the AST of
:mod:`repro.dist.queue` / :mod:`repro.dist.lease` /
:mod:`repro.dist.rebalance` and checks it against this spec — so a
refactor that reorders a rename past a commit point, drops a cleanup
unlink, or sneaks in a non-atomic write fails CI with a named Q3xx
rule instead of a flaky chaos test.

The declaration order *is* the crash-safety argument:

- ``complete`` writes the ``done/`` result **before** retiring the
  leased/pending spec copies — a crash in between duplicates work but
  never loses the shard.
- ``commit_split`` rewrites ``campaign.json`` (the commit point)
  **before** enqueueing children or dropping the ``.splitting`` parent
  — a crash in between is healed by ``recover_splits`` re-deriving the
  children from the durable record.
- ``release_expired`` retires, rather than requeues, a leased spec whose
  result it finds already in ``done/`` — requeueing finished work would
  only recreate the retired spec and count a failed attempt.
- ``reclaim`` drops the lease file **before** moving the spec back to
  ``pending/`` — a crash in between leaves a lease-less leased spec,
  which the next ``reclaim`` moves.
- ``fail`` requeues/poisons the spec copy **before** unlinking the
  leased one — a crash in between leaves a duplicate that ``claim``'s
  done-set check later drops.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DeclaredEffect:
    """One slot in a method's declared effect sequence.

    ``kind`` is ``write`` / ``append`` / ``unlink`` / ``rename``; roles
    name the path(s) the effect may touch (rename roles are
    ``"src->dst"`` strings).  ``repeat`` slots absorb any number of
    consecutive matching effects (loops, multiple call sites);
    ``optional`` slots may be skipped (conditional cleanup).
    """

    kind: str
    roles: frozenset[str]
    repeat: bool = False
    optional: bool = False


def _e(
    kind: str, *roles: str, repeat: bool = False, optional: bool = False
) -> DeclaredEffect:
    return DeclaredEffect(
        kind=kind, roles=frozenset(roles), repeat=repeat, optional=optional
    )


#: ``module -> qualified function name -> ordered declared effects``.
#: A module entry whose mapping is empty (``repro.dist.rebalance``)
#: declares that *no* function in it may touch the filesystem directly:
#: the rebalancer acts exclusively through the ``ShardQueue`` API.
PROTOCOL_SPEC: dict[str, dict[str, tuple[DeclaredEffect, ...]]] = {
    "repro.dist.queue": {
        "ShardQueue.submit": (
            _e("write", "campaign"),
            _e("write", "pending", repeat=True, optional=True),
        ),
        "ShardQueue.begin_split": (
            _e("rename", "pending->splitting"),
            # The torn-spec bail-out inlines abort_split.
            _e("rename", "splitting->pending", optional=True),
        ),
        "ShardQueue.abort_split": (
            _e("rename", "splitting->pending"),
        ),
        "ShardQueue.commit_split": (
            # campaign.json rewrite is the commit point: nothing below
            # may move above it.
            _e("write", "campaign"),
            _e("write", "pending", repeat=True, optional=True),
            _e("unlink", "splitting"),
        ),
        "ShardQueue._enqueue_children": (
            _e("write", "pending", repeat=True, optional=True),
        ),
        "ShardQueue.recover_splits": (
            _e("rename", "splitting->pending", repeat=True, optional=True),
            _e("write", "pending", repeat=True, optional=True),
            _e("unlink", "splitting", repeat=True, optional=True),
        ),
        "ShardQueue.claim": (
            # Dropping a redundant requeued copy of a done shard.
            _e("unlink", "pending", repeat=True, optional=True),
            _e("rename", "pending->leased"),
            _e("write", "lease"),
        ),
        "ShardQueue.complete": (
            # Result durability first; spec retirement after.
            _e("write", "done"),
            _e("unlink", "leased", "pending", repeat=True),
            _e("unlink", "lease", optional=True),
        ),
        "ShardQueue.fail": (
            # Rewrite the leased copy with the bumped attempt count,
            # then requeue/poison it with one atomic rename — a rename
            # moves exactly one inode, so it can never clobber a
            # concurrent claim of an already-requeued copy (the lost
            # shard race repro-check protocol found in the old
            # write-pending-then-unlink-leased ordering).
            _e("write", "leased"),
            _e("rename", "leased->pending", "leased->poison"),
            _e("unlink", "lease", optional=True),
        ),
        "ShardQueue.release_expired": (
            # A completed shard (result already in done/) is retired,
            # never requeued: its holder's complete() tail, finished.
            _e("unlink", "leased", "lease", repeat=True, optional=True),
            _e("write", "leased", repeat=True, optional=True),
            _e(
                "rename",
                "leased->pending",
                "leased->poison",
                repeat=True,
                optional=True,
            ),
            _e("unlink", "lease", repeat=True, optional=True),
        ),
        "ShardQueue.reclaim": (
            _e("unlink", "lease", repeat=True, optional=True),
            # A completed shard is retired; any other moves back as is.
            _e("unlink", "leased", repeat=True, optional=True),
            _e("rename", "leased->pending", repeat=True, optional=True),
        ),
    },
    "repro.dist.lease": {
        "Lease.acquire": (_e("write", "lease"),),
        "Lease._write": (_e("write", "lease"),),
        "Lease.renew": (_e("write", "lease"),),
        "Lease.maybe_renew": (_e("write", "lease", optional=True),),
        "Lease.release": (_e("unlink", "lease"),),
        "LeaseKeeper.on_event": (_e("write", "lease", optional=True),),
    },
    # The rebalancer must never touch campaign state directly — every
    # mutation goes through the ShardQueue protocol methods above.
    "repro.dist.rebalance": {},
}


@dataclass(frozen=True)
class MethodEffects:
    """Convenience view pairing a method with its declared sequence."""

    qualname: str
    effects: tuple[DeclaredEffect, ...] = field(default_factory=tuple)
