"""Campaign supervision: lease expiry, local worker fleets, end-to-end runs.

The :class:`Supervisor` owns the retry policy and periodically ticks the
queue — releasing expired leases and poisoning shards that failed too
often.  :func:`run_sharded_exhaustive` and :func:`run_sharded_campaign`
bundle the whole lifecycle for the common single-host case: submit,
fork a local worker fleet, supervise until drained, merge.  Multi-host
campaigns use the same queue directory through the ``repro-dist`` CLI
instead (any worker that can see the filesystem can drain shards).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable

from repro.dist.merge import merge_exhaustive, merge_sampled
from repro.dist.queue import ShardQueue
from repro.dist.rebalance import Rebalancer
from repro.dist.spec import (
    DistError,
    ShardSpec,
    make_exhaustive_shards,
    make_sampled_shards,
)
from repro.dist.worker import (
    ExhaustiveContext,
    SampledContext,
    ShardWorker,
    plan_attestation_runtime,
)
from repro.faults.engine import FaultInjectionEngine
from repro.faults.space import FaultSpace
from repro.faults.table import OutcomeTable, resolve_workers
from repro.sfi.planners import CampaignPlan
from repro.sfi.results import CampaignResult
from repro.telemetry import Telemetry, resolve_telemetry


#: Seconds between a local fleet's supervision ticks (lease expiry,
#: progress events) while no worker has exited.
FLEET_POLL_SECONDS = 0.25

#: Idle poll of a local worker: the parent joins every worker before it
#: merges, so this is the latency from the last result to the merge.
FLEET_IDLE_POLL_SECONDS = 0.01


@dataclass(frozen=True)
class RetryPolicy:
    """How long leases live and how failures are retried.

    ``backoff_base`` doubles per attempt up to ``backoff_cap``; a shard
    reaching ``max_attempts`` (counting both worker-reported failures
    and expired leases) is quarantined into ``poison/`` instead of
    wedging the campaign forever.
    """

    lease_seconds: float = 30.0
    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 30.0


class Supervisor:
    """Applies a :class:`RetryPolicy` to a queue from the outside."""

    def __init__(
        self,
        queue: ShardQueue,
        *,
        policy: RetryPolicy | None = None,
        telemetry: Telemetry | None = None,
        rebalancer: Rebalancer | None = None,
    ) -> None:
        self.queue = queue
        self.policy = policy or RetryPolicy()
        self.telemetry = resolve_telemetry(telemetry)
        self.rebalancer = rebalancer

    def tick(self, *, now: float | None = None) -> list[tuple[str, str]]:
        """Release expired leases once; returns ``[(shard_id, outcome)]``.

        When an elastic :class:`Rebalancer` is attached, each tick also
        runs one rebalance pass — observing fleet pace from the lease
        files and splitting oversized pending shards for stragglers.
        """
        released = self.queue.release_expired(
            lease_seconds=self.policy.lease_seconds,
            max_attempts=self.policy.max_attempts,
            backoff_base=self.policy.backoff_base,
            backoff_cap=self.policy.backoff_cap,
            now=now,
        )
        if self.telemetry.enabled:
            for shard_id, outcome in released:
                self.telemetry.emit(
                    "shard_requeue" if outcome == "requeued" else "shard_poison",
                    shard=shard_id,
                    reason="lease expired",
                )
        if self.rebalancer is not None:
            self.rebalancer.tick(now=now)
        return released

    def wait(
        self,
        *,
        poll_seconds: float = 0.1,
        timeout: float | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> bool:
        """Tick until the campaign completes; ``False`` on timeout/stop."""
        start = time.monotonic()
        while True:
            self.tick()
            if self.queue.is_complete():
                return True
            status = self.queue.status()
            if not status.pending and not status.leased:
                return False  # only poison left — nothing will complete it
            if timeout is not None and time.monotonic() - start > timeout:
                return False
            if should_stop is not None and should_stop():
                return False
            time.sleep(poll_seconds)


def _raise_on_poison(queue: ShardQueue) -> None:
    poisoned = queue.poisoned()
    if poisoned:
        details = "; ".join(
            f"{spec.shard_id} after {spec.attempts} attempts "
            f"(last: {spec.history[-1] if spec.history else 'unknown'})"
            for spec in poisoned[:3]
        )
        raise DistError(
            f"{len(poisoned)} shard(s) were poisoned and the campaign "
            f"cannot complete: {details} — inspect "
            f"{queue.poison_dir} and resubmit after fixing the cause"
        )


def _release_dead_fleet(supervisor: Supervisor, policy: RetryPolicy) -> None:
    """Requeue every leased shard now, as if its lease had expired.

    Only for the leases of a local fleet whose every worker died: the
    attempt counts, so a shard that keeps killing its worker is poisoned.
    """
    supervisor.tick(now=time.time() + policy.lease_seconds + 1)


def _drain_inline(
    worker: ShardWorker,
    on_progress: Callable[[], None],
    *,
    parent: int | None = None,
) -> None:
    """Drain the queue in this process, reporting after every shard.

    With *parent*, a fleet worker stops claiming once that process died.
    """
    while (parent is None or os.getppid() == parent) and worker.run(
        max_shards=1
    ):
        on_progress()


def _drain_with_local_fleet(
    queue: ShardQueue,
    context: ExhaustiveContext | SampledContext,
    *,
    workers: int,
    policy: RetryPolicy,
    telemetry: Telemetry | None,
    rebalancer: Rebalancer | None = None,
    on_progress: Callable[[], None] | None = None,
) -> None:
    """Fork *workers* local processes and drain the queue to completion.

    The caller owns the queue while this runs, so the leases a killed
    earlier run left behind are reclaimed at entry (the resume neither
    waits for them to expire nor counts them as failed attempts).

    Falls back to draining inline when fork is unavailable or a single
    worker was requested.  The parent acts as supervisor while children
    work; if every child dies with work still pending, the parent
    releases their leases and drains the remainder inline rather than
    deadlocking.  If the parent itself is interrupted it terminates its
    children and reclaims their shards, and a child whose parent died
    stops before claiming another shard, so a killed run leaves no fleet
    behind.  *on_progress* is called in this process as shards complete
    (the parent's ``progress`` events).
    """

    def make_worker(worker_id: str) -> ShardWorker:
        return ShardWorker(
            queue,
            context,
            worker_id=worker_id,
            lease_seconds=policy.lease_seconds,
            max_attempts=policy.max_attempts,
            backoff_base=policy.backoff_base,
            backoff_cap=policy.backoff_cap,
            poll_seconds=FLEET_IDLE_POLL_SECONDS,
            telemetry=telemetry,
        )

    supervisor = Supervisor(
        queue, policy=policy, telemetry=telemetry, rebalancer=rebalancer
    )
    queue.reclaim()
    progress = on_progress or (lambda: None)
    parent = os.getpid()
    workers = max(1, int(workers))
    ctx = None
    if workers > 1:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = None  # platform without fork: drain inline
    if ctx is None:
        _drain_inline(make_worker(f"local:{parent}"), progress)
        return

    procs = [
        ctx.Process(
            target=lambda wid: _drain_inline(
                make_worker(wid), lambda: None, parent=parent
            ),
            args=(f"local:{parent}:w{i}",),
            daemon=True,
        )
        for i in range(workers)
    ]
    for proc in procs:
        proc.start()
    try:
        while True:
            supervisor.tick()
            progress()
            if queue.is_complete():
                break
            status = queue.status()
            if not status.pending and not status.leased:
                break  # only poison left
            if not any(proc.is_alive() for proc in procs):
                # The whole fleet died (kill -9, OOM, ...): release
                # whatever they still lease and finish the job here.
                _release_dead_fleet(supervisor, policy)
                _drain_inline(make_worker(f"local:{parent}:fallback"), progress)
                break
            # Sleep until a worker exits (they do once the queue drains)
            # or the next supervision tick is due.
            wait(
                [proc.sentinel for proc in procs if proc.is_alive()],
                timeout=FLEET_POLL_SECONDS,
            )
    except BaseException:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join(timeout=10)
        queue.reclaim()
        raise
    finally:
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)


class _ShardProgress:
    """``progress`` events of a sharded exhaustive campaign.

    Counted from the ``done/`` results by the supervising process alone,
    so the sequence is monotonic whichever worker completes a shard.
    """

    def __init__(
        self,
        queue: ShardQueue,
        space: FaultSpace,
        specs: list[ShardSpec],
        telemetry: Telemetry,
    ) -> None:
        per_cell = len(space.fault_models)
        self.queue = queue
        self.telemetry = telemetry
        self.total = space.total_population
        self.faults = {
            spec.shard_id: sum(
                space.layers[int(unit[0])].size * per_cell
                for unit in spec.units
            )
            for spec in specs
        }
        self.reported = 0

    def done(self) -> int:
        return sum(self.faults.get(sid, 0) for sid in self.queue.done_ids())

    def __call__(self, done: int | None = None) -> None:
        done = self.done() if done is None else done
        if done > self.reported:
            self.reported = done
            self.telemetry.emit("progress", done=done, total=self.total)


def run_sharded_exhaustive(
    engine: FaultInjectionEngine,
    space: FaultSpace,
    root: str | os.PathLike,
    *,
    shards: int = 4,
    workers: int | None = None,
    policy: RetryPolicy | None = None,
    telemetry: Telemetry | None = None,
    runtime: dict | None = None,
    rebalancer: Rebalancer | None = None,
) -> OutcomeTable:
    """Submit, execute and merge a sharded exhaustive campaign locally.

    The merged table is bit-identical to a serial
    :meth:`OutcomeTable.from_exhaustive` run.  *root* is the queue
    directory, owned by this call while it runs; resubmitting into an
    existing root with the same configuration resumes it (done shards
    are kept, leases a killed earlier run left are released at once),
    so a killed campaign picks up where it stopped.

    With *telemetry* the journal gets ``campaign_start``/``_end``, the
    workers' per-cell events, ``progress`` events from this process as
    shards complete, and ``checkpoint_resume`` when done shards were
    reused.
    """
    policy = policy or RetryPolicy()
    workers = resolve_workers(workers)
    queue = ShardQueue(root)
    config, specs = make_exhaustive_shards(engine, space, shards=shards)
    extras = {"golden_accuracy": engine.golden_accuracy}
    extras.update(plan_attestation_runtime(engine))
    if runtime:
        extras.update(runtime)
    queue.submit(specs, config=config, runtime=extras)
    tele = resolve_telemetry(telemetry)
    cells_total = len(space.layers) * space.bits
    done_before = queue.done_ids()
    cells_resumed = sum(
        len(spec.units) for spec in specs if spec.shard_id in done_before
    )
    progress: _ShardProgress | None = None
    if tele.enabled:
        progress = _ShardProgress(queue, space, specs, tele)
        tele.emit(
            "campaign_start",
            kind="exhaustive",
            sharded=True,
            shards=len(specs),
            workers=workers,
            total=space.total_population,
            cells_total=cells_total,
            fmt=space.fmt.name,
            eval_images=int(len(engine.images)),
            policy=engine.policy,
            engine=getattr(engine, "kind", "module"),
            batch_size=int(getattr(engine, "batch_size", 1)),
        )
        if cells_resumed:
            tele.emit(
                "checkpoint_resume",
                cells_resumed=cells_resumed,
                cells_total=cells_total,
                faults_resumed=progress.done(),
            )
    start = time.monotonic()
    _drain_with_local_fleet(
        queue,
        ExhaustiveContext(engine, space),
        workers=workers,
        policy=policy,
        telemetry=telemetry,
        rebalancer=rebalancer,
        on_progress=progress,
    )
    _raise_on_poison(queue)
    table = merge_exhaustive(queue, telemetry=telemetry)
    elapsed = time.monotonic() - start
    table.metadata["elapsed_seconds"] = elapsed
    if progress is not None:
        progress(progress.total)
        tele.emit(
            "campaign_end",
            elapsed_seconds=elapsed,
            faults=space.total_population,
            shards=len(specs),
            cells_resumed=cells_resumed,
        )
        # The workers' registries die with them; the parent's snapshot
        # keeps the campaign totals.
        tele.counter("campaign.cells_resumed").add(cells_resumed)
        tele.counter("campaign.cells_computed").add(cells_total - cells_resumed)
        tele.gauge("campaign.workers").set(workers)
        tele.gauge("campaign.elapsed_seconds").set(elapsed)
    return table


def run_sharded_campaign(
    oracle: Any,
    space: FaultSpace,
    plan: CampaignPlan,
    root: str | os.PathLike,
    *,
    seed: int = 0,
    shards: int = 4,
    workers: int | None = None,
    policy: RetryPolicy | None = None,
    telemetry: Telemetry | None = None,
    golden_sha256: str | None = None,
    runtime: dict | None = None,
    rebalancer: Rebalancer | None = None,
) -> CampaignResult:
    """Submit, execute and merge a sharded sampled campaign locally.

    The merged result equals a serial ``CampaignRunner.run(plan,
    seed=seed)`` exactly (per-stratum seed substreams make every
    stratum's draws independent of shard and worker assignment).
    """
    policy = policy or RetryPolicy()
    workers = resolve_workers(workers)
    queue = ShardQueue(root)
    config, specs = make_sampled_shards(
        plan, space, seed=seed, shards=shards, golden_sha256=golden_sha256
    )
    queue.submit(specs, config=config, runtime=dict(runtime or {}))
    tele = resolve_telemetry(telemetry)
    if tele.enabled:
        tele.emit(
            "campaign_start",
            kind="sampled",
            sharded=True,
            method=plan.method,
            seed=seed,
            shards=len(specs),
            workers=workers,
            total=plan.total_injections,
        )
    start = time.monotonic()
    _drain_with_local_fleet(
        queue,
        SampledContext(oracle, space, plan),
        workers=workers,
        policy=policy,
        telemetry=telemetry,
        rebalancer=rebalancer,
    )
    _raise_on_poison(queue)
    result = merge_sampled(queue, space, telemetry=telemetry)
    if tele.enabled:
        tele.emit(
            "campaign_end",
            elapsed_seconds=time.monotonic() - start,
            injections=result.total_injections,
            criticals=result.total_criticals,
            masked=result.total_masked,
        )
    return result
