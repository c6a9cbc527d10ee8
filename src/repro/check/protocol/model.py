"""The distributed queue protocol as an abstract, steppable model.

Each :class:`~repro.dist.queue.ShardQueue` operation is modelled as a
small-step state machine whose every step applies exactly one atomic
filesystem effect to a :class:`~repro.check.protocol.fs.ModelFS` — the
same granularity at which the real implementation can crash.  The
checker (:mod:`repro.check.protocol.checker`) interleaves these machines
arbitrarily and injects crashes between steps; because reads are free
and every mutation is atomic, the model's crash states are exactly the
real protocol's reachable disk states.

Shard payloads are abstracted away: a shard is an id plus a tuple of
opaque unit tokens, and a completed result records one deterministic
cell value per unit.  ``campaign.json`` becomes a ``("campaign",
shards, splits)`` tuple, specs become ``("spec", id, units, attempts)``,
leases ``("lease", worker, expired)`` — wall-clock deadlines are
replaced by an adversarial ``expire`` action, which covers every timing
the real clock could produce.

Mutant subclasses (:data:`MUTANT_MODELS`) re-introduce the corruption
classes the checker must catch — reordered unlinks, overlapping split
partitions, dropped recovery renames, corrupt split records,
execution-history leaking into results — for the mutation test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.check.protocol.fs import Content, ModelFS

#: A worker's in-memory handle on its claimed shard: ``(sid, units,
#: attempts)``.  Volatile — a crash drops it, only the filesystem
#: survives.
Held = tuple[str, tuple[str, ...], int]


class OpState(NamedTuple):
    """One in-flight operation: which op, how far along, its locals."""

    op: str
    pc: int
    data: tuple


class StepResult(NamedTuple):
    """Outcome of applying one step of an operation."""

    next: OpState | None  # None when the operation finished (or aborted)
    held: tuple | None  # ("set", Held) | ("clear",) | None (unchanged)
    label: str  # human-readable effect description for traces


@dataclass(frozen=True)
class Scenario:
    """The campaign the model checker runs: shard ids and their units."""

    #: A 3-unit shard plus a 1-unit shard: splits are enabled (including
    #: nested re-splits of the larger child) and part-count corruption
    #: is observable (3 units do not clamp parts=3 back to parts=2).
    shards: tuple[tuple[str, tuple[str, ...]], ...] = (
        ("s0", ("u0", "u1", "u2")),
        ("s1", ("u3",)),
    )
    max_attempts: int = 99
    split_parts: int = 2

    @property
    def all_units(self) -> tuple[str, ...]:
        return tuple(u for _sid, units in self.shards for u in units)


def model_split(
    sid: str, units: tuple[str, ...], parts: int
) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Abstract twin of :func:`repro.dist.spec.split_shard`.

    Pure and deterministic: round-robin unit partition, child ids
    derived from the parent id and the part count — so replaying a
    recorded ``(parent, parts)`` split always re-derives the same
    children, which is the property Q313 checks.
    """
    parts = min(parts, len(units))
    if parts < 2:
        raise ValueError(f"cannot split {sid}: {len(units)} unit(s)")
    return tuple(
        (f"{sid}.{i}o{parts}", tuple(units[i::parts])) for i in range(parts)
    )


class ProtocolModel:
    """Correct-by-construction model of the queue protocol's effects.

    Every public queue operation appears as a ``_step_<op>`` machine;
    mutation subclasses override the small hook methods (never the
    machines themselves) to introduce one precise corruption each.
    """

    name = "correct"

    def __init__(self, scenario: Scenario | None = None) -> None:
        self.scenario = scenario or Scenario()

    # -- paths -------------------------------------------------------------

    @staticmethod
    def pending(sid: str) -> str:
        return f"pending/{sid}"

    @staticmethod
    def splitting(sid: str) -> str:
        return f"pending/{sid}.splitting"

    @staticmethod
    def leased(sid: str) -> str:
        return f"leased/{sid}"

    @staticmethod
    def lease(sid: str) -> str:
        return f"leased/{sid}.lease"

    @staticmethod
    def done(sid: str) -> str:
        return f"done/{sid}"

    @staticmethod
    def poison(sid: str) -> str:
        return f"poison/{sid}"

    # -- mutation hooks ----------------------------------------------------

    #: Order of the atomic effects inside ``complete`` — the real
    #: protocol writes the result *before* retiring the spec, so a crash
    #: in between can only duplicate work, never lose it.
    COMPLETE_PHASES: tuple[str, ...] = (
        "write_result",
        "unlink_leased",
        "unlink_pending",
        "unlink_lease",
    )

    def split(
        self, sid: str, units: tuple[str, ...], parts: int
    ) -> tuple[tuple[str, tuple[str, ...]], ...]:
        return model_split(sid, units, parts)

    def cell_value(self, unit: str, attempts: int, worker: str) -> Content:
        """The merged value one unit contributes — must be pure in *unit*."""
        return ("cell", unit)

    def commit_shards(
        self, shards: tuple[str, ...], at: int, child_ids: tuple[str, ...]
    ) -> tuple[str, ...]:
        """Shard-list splice the campaign rewrite commits."""
        return shards[:at] + child_ids + shards[at + 1 :]

    def split_record_parts(self, children: tuple) -> int:
        """Part count recorded in the split record (Q313's input)."""
        return len(children)

    def recover_unrecorded(self, sid: str) -> tuple[tuple, ...]:
        """Recovery plan for a ``.splitting`` file with no split record."""
        return (("rename_back", sid),)

    # -- shared helpers ----------------------------------------------------

    def read_campaign(
        self, fs: ModelFS
    ) -> tuple[tuple[str, ...], dict[str, tuple[tuple[str, ...], int]]]:
        """``(shards, {parent: (children, parts)})`` or ``((), {})``."""
        record = fs.read("campaign")
        if record is None:
            return (), {}
        _tag, shards, splits = record
        return shards, {p: (c, n) for p, c, n in splits}

    def expand(
        self,
        specs: tuple[tuple[str, tuple[str, ...]], ...],
        splits: dict[str, tuple[tuple[str, ...], int]],
    ) -> tuple[tuple[str, tuple[str, ...]], ...] | None:
        """Replay recorded splits over the original partition.

        The abstract twin of :func:`repro.dist.queue.expand_splits`:
        returns ``None`` when a recorded split does not reproduce —
        the model-level Q313 condition.
        """
        out: list[tuple[str, tuple[str, ...]]] = []
        for sid, units in specs:
            record = splits.get(sid)
            if record is None:
                out.append((sid, units))
                continue
            children_ids, parts = record
            try:
                derived = self.split(sid, units, parts)
            except ValueError:
                return None
            if tuple(cid for cid, _u in derived) != tuple(children_ids):
                return None
            expanded = self.expand(derived, splits)
            if expanded is None:
                return None
            out.extend(expanded)
        return tuple(out)

    def spec_of(self, content: Content) -> Held:
        _tag, sid, units, attempts = content
        return (sid, units, attempts)

    def _write_spec(
        self, fs: ModelFS, path: str, sid: str, units: tuple[str, ...], attempts: int
    ) -> None:
        fs.write(path, ("spec", sid, units, attempts))

    # -- operation machines ------------------------------------------------
    #
    # Each ``_step_<op>`` applies the single effect at ``pc`` and returns
    # the successor.  The checker guarantees ``start_*`` enabledness was
    # evaluated in the same instant as pc 0 (starting an op applies its
    # first step), so machines never see stale preconditions at pc 0.

    def step(self, fs: ModelFS, actor: str, op: OpState) -> StepResult:
        return getattr(self, f"_step_{op.op}")(fs, actor, op.pc, op.data)

    # submit: campaign rewrite, then one pending write per missing shard.

    def _step_submit(
        self, fs: ModelFS, actor: str, pc: int, data: tuple
    ) -> StepResult:
        if pc == 0:
            _shards, splits = self.read_campaign(fs)
            expanded = self.expand(self.scenario.shards, splits)
            if expanded is None:
                return StepResult(None, None, "submit refused: recorded "
                                  "split does not reproduce")
            shard_ids = tuple(sid for sid, _units in expanded)
            split_rows = tuple(
                sorted((p, c, n) for p, (c, n) in splits.items())
            )
            fs.write("campaign", ("campaign", shard_ids, split_rows))
            todo = tuple(
                (sid, units)
                for sid, units in expanded
                if not fs.exists(self.done(sid))
                and not fs.exists(self.leased(sid))
                and not fs.exists(self.poison(sid))
                and not fs.exists(self.pending(sid))
            )
            nxt = OpState("submit", 1, todo) if todo else None
            return StepResult(nxt, None, "submit: write campaign")
        sid, units = data[pc - 1]
        self._write_spec(fs, self.pending(sid), sid, units, 0)
        nxt = OpState("submit", pc + 1, data) if pc < len(data) else None
        return StepResult(nxt, None, f"submit: enqueue pending/{sid}")

    # claim: atomic rename wins the shard, then the lease file appears.

    def _step_claim(
        self, fs: ModelFS, actor: str, pc: int, data: tuple
    ) -> StepResult:
        if pc == 0:
            sid = data[0]
            spec = fs.read(self.pending(sid))
            if spec is None:
                return StepResult(None, None, f"claim {sid}: lost the race")
            if fs.exists(self.done(sid)):
                fs.unlink(self.pending(sid))
                return StepResult(
                    None, None, f"claim {sid}: dropped (already done)"
                )
            fs.rename(self.pending(sid), self.leased(sid))
            return StepResult(
                OpState("claim", 1, (sid,) + self.spec_of(spec)[1:]),
                None,
                f"claim {sid}: rename pending -> leased",
            )
        sid, units, attempts = data
        fs.write(self.lease(sid), ("lease", actor, False))
        return StepResult(
            None,
            ("set", (sid, units, attempts)),
            f"claim {sid}: write lease for {actor}",
        )

    # complete: result first, then retire the spec copies and the lease.

    def _step_complete(
        self, fs: ModelFS, actor: str, pc: int, data: tuple
    ) -> StepResult:
        sid, units, attempts = data
        phase = self.COMPLETE_PHASES[pc]
        if phase == "write_result":
            payload = tuple(
                (u, self.cell_value(u, attempts, actor)) for u in units
            )
            fs.write(self.done(sid), ("result", sid, units, payload))
            label = f"complete {sid}: write done/{sid}"
        elif phase == "unlink_leased":
            fs.unlink(self.leased(sid))
            label = f"complete {sid}: unlink leased/{sid}"
        elif phase == "unlink_pending":
            fs.unlink(self.pending(sid))
            label = f"complete {sid}: unlink stale pending/{sid}"
        else:
            fs.unlink(self.lease(sid))
            label = f"complete {sid}: release lease"
        if pc + 1 < len(self.COMPLETE_PHASES):
            return StepResult(OpState("complete", pc + 1, data), None, label)
        return StepResult(None, ("clear",), label)

    # fail: rewrite the leased copy with attempts+1, requeue it with one
    # atomic rename (can never clobber a concurrent claim), drop lease.

    def _step_fail(
        self, fs: ModelFS, actor: str, pc: int, data: tuple
    ) -> StepResult:
        sid, units, attempts = data
        if pc == 0:
            self._write_spec(fs, self.leased(sid), sid, units, attempts + 1)
            return StepResult(
                OpState("fail", 1, data),
                None,
                f"fail {sid}: rewrite leased spec (attempts={attempts + 1})",
            )
        if pc == 1:
            target = (
                self.poison(sid)
                if attempts + 1 >= self.scenario.max_attempts
                else self.pending(sid)
            )
            fs.rename(self.leased(sid), target)
            return StepResult(
                OpState("fail", 2, data),
                None,
                f"fail {sid}: rename leased -> {target}",
            )
        fs.unlink(self.lease(sid))
        return StepResult(None, ("clear",), f"fail {sid}: release lease")

    # expire: the adversarial clock — one lease's deadline passes.

    def _step_expire(
        self, fs: ModelFS, actor: str, pc: int, data: tuple
    ) -> StepResult:
        (sid,) = data
        record = fs.read(self.lease(sid))
        if record is not None:
            _tag, worker, _expired = record
            fs.write(self.lease(sid), ("lease", worker, True))
        return StepResult(None, None, f"expire: lease on {sid} times out")

    # release_expired: plan computed at start; per victim a re-check
    # (skip a spec that left leased/, retire a completed one) and then
    # three effects, which a completion landing after the re-check
    # still applies (claim's done-check drops the duplicate).

    def release_plan(self, fs: ModelFS) -> tuple[tuple, ...]:
        """Effects a release pass would apply, from the disk state *now*.

        A leased spec whose lease file is missing counts as expired —
        the model twin of the real mtime-fallback deadline for a worker
        that crashed between its claim rename and its lease write.
        """
        effects: list[tuple] = []
        for path in fs.sorted_under("leased/"):
            if path.endswith(".lease"):
                continue
            spec = fs.read(path)
            if spec is None:
                continue
            sid, units, attempts = self.spec_of(spec)
            record = fs.read(self.lease(sid))
            expired = record is None or record[2]
            if not expired:
                continue
            effects.append(("recheck", sid))
            effects.append(("requeue_write", sid, units, attempts))
            effects.append(("requeue_rename", sid, attempts))
            effects.append(("unlink_lease", sid))
        return tuple(effects)

    def _step_release_expired(
        self, fs: ModelFS, actor: str, pc: int, data: tuple
    ) -> StepResult:
        effect = data[pc]
        step = 1
        if effect[0] == "recheck":
            # Re-read right before acting, as the real pass does: a
            # shard completed since the plan was taken is not requeued.
            sid = effect[1]
            if not fs.exists(self.leased(sid)):
                step = 4
                label = f"release {sid}: skipped (spec left leased/)"
            elif fs.exists(self.done(sid)):
                fs.unlink(self.leased(sid))
                step = 3
                label = f"release {sid}: retire completed leased spec"
            else:
                label = f"release {sid}: re-check passed"
        elif effect[0] == "requeue_write":
            _kind, sid, units, attempts = effect
            self._write_spec(fs, self.leased(sid), sid, units, attempts + 1)
            label = f"release {sid}: rewrite leased spec (attempts={attempts + 1})"
        elif effect[0] == "requeue_rename":
            _kind, sid, attempts = effect
            target = (
                self.poison(sid)
                if attempts + 1 >= self.scenario.max_attempts
                else self.pending(sid)
            )
            fs.rename(self.leased(sid), target)
            label = f"release {sid}: rename leased -> {target}"
        else:
            fs.unlink(self.lease(effect[1]))
            label = f"release {effect[1]}: unlink lease file"
        if pc + step < len(data):
            return StepResult(
                OpState("release_expired", pc + step, data), None, label
            )
        return StepResult(None, None, label)

    # begin_split: one rename takes the parent out of workers' sight.

    def _step_begin_split(
        self, fs: ModelFS, actor: str, pc: int, data: tuple
    ) -> StepResult:
        (sid,) = data
        spec = fs.read(self.pending(sid))
        if spec is None:
            return StepResult(None, None, f"begin_split {sid}: lost to claim")
        fs.rename(self.pending(sid), self.splitting(sid))
        return StepResult(
            None,
            ("set", self.spec_of(spec)),
            f"begin_split {sid}: rename pending -> .splitting",
        )

    # commit_split: campaign rewrite is the commit point, then children.

    def _step_commit_split(
        self, fs: ModelFS, actor: str, pc: int, data: tuple
    ) -> StepResult:
        if pc == 0:
            sid, units, attempts, parts = data
            shards, splits = self.read_campaign(fs)
            if sid not in shards:
                return StepResult(
                    None, None, f"commit_split {sid}: refused (not in "
                    "campaign)"
                )
            children = self.split(sid, units, parts)
            child_ids = tuple(cid for cid, _u in children)
            at = shards.index(sid)
            new_shards = self.commit_shards(shards, at, child_ids)
            splits[sid] = (child_ids, self.split_record_parts(children))
            split_rows = tuple(
                sorted((p, c, n) for p, (c, n) in splits.items())
            )
            fs.write("campaign", ("campaign", new_shards, split_rows))
            return StepResult(
                OpState("commit_split", 1, (sid, children, attempts)),
                None,
                f"commit_split {sid}: rewrite campaign (commit point)",
            )
        sid, children, attempts = data
        child_index = pc - 1
        if child_index < len(children):
            cid, cunits = children[child_index]
            if (
                fs.exists(self.done(cid))
                or fs.exists(self.pending(cid))
                or fs.exists(self.leased(cid))
            ):
                label = f"commit_split {sid}: child {cid} already present"
            else:
                self._write_spec(fs, self.pending(cid), cid, cunits, attempts)
                label = f"commit_split {sid}: enqueue pending/{cid}"
            return StepResult(
                OpState("commit_split", pc + 1, data), None, label
            )
        fs.unlink(self.splitting(sid))
        return StepResult(
            None,
            ("clear",),
            f"commit_split {sid}: unlink .splitting",
        )

    # abort_split: the parent goes straight back into the queue.

    def _step_abort_split(
        self, fs: ModelFS, actor: str, pc: int, data: tuple
    ) -> StepResult:
        (sid,) = data
        fs.rename(self.splitting(sid), self.pending(sid))
        return StepResult(
            None,
            ("clear",),
            f"abort_split {sid}: rename .splitting -> pending",
        )

    # recover_splits: heal both crash windows from the durable record.

    def recover_plan(self, fs: ModelFS) -> tuple[tuple, ...]:
        """Effects a recovery pass would apply, from the disk state now."""
        _shards, splits = self.read_campaign(fs)
        effects: list[tuple] = []
        for path in fs.sorted_under("pending/"):
            if not path.endswith(".splitting"):
                continue
            spec = fs.read(path)
            if spec is None:
                continue
            sid, units, attempts = self.spec_of(spec)
            record = splits.get(sid)
            if record is None:
                effects.extend(self.recover_unrecorded(sid))
                continue
            _children_ids, parts = record
            try:
                derived = self.split(sid, units, parts)
            except ValueError:
                derived = ()
            for cid, cunits in derived:
                effects.append(("write_child", cid, cunits, attempts))
            effects.append(("unlink_splitting", sid))
        return tuple(effects)

    def _step_recover_splits(
        self, fs: ModelFS, actor: str, pc: int, data: tuple
    ) -> StepResult:
        effect = data[pc]
        if effect[0] == "rename_back":
            fs.rename(self.splitting(effect[1]), self.pending(effect[1]))
            label = f"recover {effect[1]}: abort (rename back to pending)"
        elif effect[0] == "write_child":
            _kind, cid, cunits, attempts = effect
            if (
                fs.exists(self.done(cid))
                or fs.exists(self.pending(cid))
                or fs.exists(self.leased(cid))
            ):
                label = f"recover: child {cid} already present"
            else:
                self._write_spec(fs, self.pending(cid), cid, cunits, attempts)
                label = f"recover: enqueue pending/{cid}"
        else:
            fs.unlink(self.splitting(effect[1]))
            label = f"recover {effect[1]}: unlink .splitting"
        if pc + 1 < len(data):
            return StepResult(
                OpState("recover_splits", pc + 1, data), None, label
            )
        return StepResult(None, None, label)


# -- mutation classes ------------------------------------------------------
#
# Each mutant corrupts exactly one protocol decision, mirroring the edit
# a future refactor could plausibly make.  The mutation suite asserts
# the checker rejects every one with its characteristic Q-code.


class MutCompleteUnlinkFirst(ProtocolModel):
    """Retire the leased spec before writing the result (reordered
    unlink): a crash in the window loses the shard — Q310."""

    name = "complete-unlink-before-result"
    COMPLETE_PHASES = (
        "unlink_leased",
        "write_result",
        "unlink_pending",
        "unlink_lease",
    )


class MutOverlappingSplit(ProtocolModel):
    """Split partition bug: the first child keeps *all* parent units, so
    two children cover the same unit and the merge consumes it twice —
    Q311."""

    name = "overlapping-split-partition"

    def split(
        self, sid: str, units: tuple[str, ...], parts: int
    ) -> tuple[tuple[str, tuple[str, ...]], ...]:
        children = model_split(sid, units, parts)
        first_id, _first_units = children[0]
        return ((first_id, units),) + children[1:]


class MutDroppedAbortRename(ProtocolModel):
    """``recover_splits`` drops the abort rename for unrecorded
    ``.splitting`` parents: the shard stays invisible forever — Q312
    (and the campaign can never complete)."""

    name = "dropped-recovery-rename"

    def recover_unrecorded(self, sid: str) -> tuple[tuple, ...]:
        return ()


class MutCorruptSplitRecord(ProtocolModel):
    """The split record lies about the part count, so replaying it
    derives different children than were enqueued — Q313."""

    name = "corrupt-split-record"

    def split_record_parts(self, children: tuple) -> int:
        return len(children) + 1


class MutHistoryTaintedResult(ProtocolModel):
    """Result cells leak the attempt count (execution history), so the
    merged table depends on the schedule — Q314."""

    name = "history-tainted-result"

    def cell_value(self, unit: str, attempts: int, worker: str) -> Content:
        return ("cell", unit, attempts)


#: The mutation-harness registry: every entry must produce at least one
#: counterexample whose violations include the paired Q-code.
MUTANT_MODELS: dict[str, tuple[type[ProtocolModel], str]] = {
    MutCompleteUnlinkFirst.name: (MutCompleteUnlinkFirst, "Q310"),
    MutOverlappingSplit.name: (MutOverlappingSplit, "Q311"),
    MutDroppedAbortRename.name: (MutDroppedAbortRename, "Q312"),
    MutCorruptSplitRecord.name: (MutCorruptSplitRecord, "Q313"),
    MutHistoryTaintedResult.name: (MutHistoryTaintedResult, "Q314"),
}
