"""Shard execution: claim, run, heartbeat, complete (or fail and retry).

A :class:`ShardWorker` drains a :class:`~repro.dist.queue.ShardQueue`
until nothing is left to do.  Each claimed shard is executed through a
*context* — :class:`ExhaustiveContext` (an inference engine + fault
space) or :class:`SampledContext` (an oracle + plan) — and its result is
retired into ``done/`` through the verified store.  Workers are
cooperative supervisors: before every claim they release expired peer
leases, so a campaign survives any subset of its workers dying.
"""

from __future__ import annotations

import os
import socket
import time
import traceback

import numpy as np

from typing import Any, Callable

from repro.dist.lease import Lease, LeaseKeeper
from repro.dist.queue import ShardQueue
from repro.dist.spec import EXHAUSTIVE, SAMPLED, DistError, ShardSpec
from repro.faults.engine import FaultInjectionEngine
from repro.faults.space import FaultSpace
from repro.faults.table import cell_key, timed_classify_cell
from repro.sfi.planners import CampaignPlan
from repro.sfi.runner import execute_plan_items
from repro.telemetry import Telemetry, resolve_telemetry


def tallies_to_arrays(
    tallies: dict[tuple[int, int], list[int]],
    assumed: dict[tuple[int, int], float],
) -> dict[str, np.ndarray]:
    """Encode sampled-shard observations as deterministic arrays.

    ``tallies`` becomes an ``(k, 5)`` int64 array of
    ``[layer, bit, injections, criticals, masked]`` rows and ``assumed``
    an ``(m, 3)`` float64 array of ``[layer, bit, p]`` rows, both sorted
    by (layer, bit) so the encoding is independent of observation order.
    """
    tally_rows = sorted(
        (layer, bit, *counts) for (layer, bit), counts in tallies.items()
    )
    assumed_rows = sorted(
        (float(layer), float(bit), p) for (layer, bit), p in assumed.items()
    )
    return {
        "tallies": np.array(tally_rows, dtype=np.int64).reshape(-1, 5),
        "assumed": np.array(assumed_rows, dtype=np.float64).reshape(-1, 3),
    }


def arrays_to_tallies(
    arrays: dict[str, np.ndarray],
) -> tuple[dict[tuple[int, int], list[int]], dict[tuple[int, int], float]]:
    """Inverse of :func:`tallies_to_arrays`."""
    tallies = {
        (int(row[0]), int(row[1])): [int(row[2]), int(row[3]), int(row[4])]
        for row in np.asarray(arrays["tallies"]).reshape(-1, 5)
    }
    assumed = {
        (int(row[0]), int(row[1])): float(row[2])
        for row in np.asarray(arrays["assumed"]).reshape(-1, 3)
    }
    return tallies, assumed


def resolve_heartbeat_interval(interval: float | None = None) -> float:
    """Heartbeat-event spacing: explicit arg, else env, else per-unit.

    Mirrors :func:`repro.faults.table.resolve_workers`: an explicit
    argument wins, then ``REPRO_HEARTBEAT_INTERVAL`` (seconds), and the
    default of ``0.0`` emits one ``worker_heartbeat`` event per
    completed unit.  Negative values are clamped to 0.
    """
    if interval is None:
        raw = os.environ.get("REPRO_HEARTBEAT_INTERVAL", "").strip()
        if not raw:
            return 0.0
        try:
            interval = float(raw)
        except ValueError as exc:
            raise ValueError(
                f"REPRO_HEARTBEAT_INTERVAL={raw!r} is not a number"
            ) from exc
    return max(0.0, float(interval))


def _plan_attestation(fingerprint: str) -> dict:
    """Worker-side plan stamp embedded in every completed shard result."""
    from repro.check import is_plan_verified

    return {
        "plan_sha256": fingerprint,
        "plan_verified": bool(is_plan_verified(fingerprint)),
    }


def plan_attestation_runtime(engine: Any) -> dict:
    """Submit-side runtime entries pinning the verified plan's identity.

    Recorded alongside the campaign so that the merge can demand every
    shard result attest the same verified plan fingerprint.  Engines
    without a plan (module engine) contribute nothing.
    """
    fingerprint = getattr(engine, "plan_fingerprint", None)
    if fingerprint is None:
        return {}
    return {
        "engine": getattr(engine, "kind", "plan"),
        "plan_sha256": fingerprint,
    }


class ExhaustiveContext:
    """Executes exhaustive shards: one (layer, bit) cell per unit."""

    kind = EXHAUSTIVE

    def __init__(self, engine: FaultInjectionEngine, space: FaultSpace) -> None:
        self.engine = engine
        self.space = space

    def attestation(self) -> dict:
        """Worker-side stamp embedded in every completed shard result.

        Plan engines attest the structural fingerprint their verified
        plan carries; the merge refuses results from workers whose plan
        never passed :func:`repro.check.check_plan`.
        """
        fingerprint = getattr(self.engine, "plan_fingerprint", None)
        if fingerprint is None:
            return {}
        return _plan_attestation(fingerprint)

    def run_shard(
        self,
        spec: ShardSpec,
        telemetry: Telemetry,
        heartbeat: Callable[[], None],
    ) -> dict[str, np.ndarray]:
        arrays: dict[str, np.ndarray] = {}
        for unit in spec.units:
            layer_idx, bit = int(unit[0]), int(unit[1])
            cell, _seconds, _inferences = timed_classify_cell(
                self.engine, self.space, layer_idx, bit, telemetry
            )
            arrays[f"cell_{cell_key(layer_idx, bit)}"] = cell
            heartbeat()
        return arrays


class SampledContext:
    """Executes sampled shards: one plan item (stratum) per unit.

    Stratum *i* always draws from the ``SeedSequence(seed, spawn_key=(i,))``
    substream, so its samples are identical no matter which shard,
    worker or host runs it — the property the deterministic merge
    relies on.
    """

    kind = SAMPLED

    def __init__(
        self, oracle: Any, space: FaultSpace, plan: CampaignPlan
    ) -> None:
        self.oracle = oracle
        self.space = space
        self.plan = plan

    def attestation(self) -> dict:
        engine = getattr(self.oracle, "engine", None)
        fingerprint = getattr(engine, "plan_fingerprint", None)
        if fingerprint is None:
            return {}
        return _plan_attestation(fingerprint)

    def run_shard(
        self,
        spec: ShardSpec,
        telemetry: Telemetry,
        heartbeat: Callable[[], None],
    ) -> dict[str, np.ndarray]:
        if spec.seed is None:
            raise DistError(f"sampled shard {spec.shard_id} carries no seed")
        indices = [int(u) for u in spec.units]
        out_of_range = [i for i in indices if i >= len(self.plan.items)]
        if out_of_range:
            raise DistError(
                f"shard {spec.shard_id} references plan items "
                f"{out_of_range} but the plan has only "
                f"{len(self.plan.items)}; the worker's plan does not "
                "match the submitted campaign"
            )
        tallies, assumed = execute_plan_items(
            self.plan,
            self.oracle,
            indices,
            seed=int(spec.seed),
            on_item=lambda _idx: heartbeat(),
        )
        return tallies_to_arrays(tallies, assumed)


class ShardWorker:
    """Claims and executes shards until the queue is drained.

    Parameters
    ----------
    queue, context:
        The work queue and the campaign context executing its shards.
    worker_id:
        Stable name recorded in leases and telemetry (defaults to
        ``host:pid``).
    lease_seconds:
        Lease lifetime; the worker heartbeats (and renews) once per
        completed unit, so a shard whose units take longer than this to
        classify individually will be treated as stuck.
    heartbeat_interval:
        Minimum seconds between ``worker_heartbeat`` *events* (default
        0.0: one event per completed unit).  Raising it thins the
        journal on fast campaigns; the lease deadline still advances on
        every unit either way, through the direct renewal path.
        Resolved from ``REPRO_HEARTBEAT_INTERVAL`` when not given.
    max_attempts / backoff_base / backoff_cap:
        Retry policy applied both to this worker's own failures and to
        expired peer leases it releases.
    telemetry:
        Shard lifecycle and per-cell events land here; ``worker_heartbeat``
        events renew the active lease via :class:`LeaseKeeper`.
    on_unit:
        Test hook called after every completed unit (cell or stratum).
    """

    def __init__(
        self,
        queue: ShardQueue,
        context: ExhaustiveContext | SampledContext,
        *,
        worker_id: str | None = None,
        lease_seconds: float = 30.0,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        poll_seconds: float = 0.05,
        heartbeat_interval: float | None = None,
        telemetry: Telemetry | None = None,
        on_unit: Callable[[], None] | None = None,
    ) -> None:
        self.queue = queue
        self.context = context
        self.worker_id = worker_id or f"{socket.gethostname()}:{os.getpid()}"
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.poll_seconds = poll_seconds
        self.heartbeat_interval = resolve_heartbeat_interval(
            heartbeat_interval
        )
        self.telemetry = resolve_telemetry(telemetry)
        self.on_unit = on_unit
        self._keeper = LeaseKeeper()
        self._units_done = 0
        self._last_heartbeat_t = 0.0  # monotonic; 0.0 = never emitted

    # -- heartbeating ------------------------------------------------------

    def _heartbeat(self, lease: Lease, spec: ShardSpec) -> None:
        """One unit of progress: emit the event and keep the lease alive.

        With telemetry enabled the ``worker_heartbeat`` event renews the
        lease through the :class:`LeaseKeeper` hook (the journal is the
        liveness signal); with telemetry off the lease is renewed
        directly — the deadline must move either way.
        """
        self._units_done += 1
        now_t = time.monotonic()
        due = (
            self._last_heartbeat_t == 0.0
            or now_t - self._last_heartbeat_t >= self.heartbeat_interval
        )
        if self.telemetry.enabled and due:
            self._last_heartbeat_t = now_t
            self.telemetry.emit(
                "worker_heartbeat",
                worker=self.worker_id,
                shard=spec.shard_id,
                units_done=self._units_done,
            )
        else:
            # Event throttled (or telemetry off): the lease deadline
            # must still move with every completed unit.
            lease.maybe_renew()
        if self.on_unit is not None:
            self.on_unit(spec)

    def _emit_idle(self, reason: str) -> None:
        """Record that this worker stopped for lack of work, not speed.

        The cost model reads ``worker_idle`` to distinguish a starved
        fleet (queue drained while capacity remained — submit finer
        shards) from a slow one (workers busy to the end).
        """
        if self.telemetry.enabled:
            self.telemetry.emit(
                "worker_idle",
                worker=self.worker_id,
                reason=reason,
                units_done=self._units_done,
            )

    # -- main loop ---------------------------------------------------------

    def run(self, *, max_shards: int | None = None, wait: bool = True) -> int:
        """Drain the queue; returns the number of shards completed here.

        Exits when the queue holds nothing pending or leased (the
        campaign is complete, or only poisoned shards remain), or after
        *max_shards* completions.  With ``wait=True`` the worker idles
        through other workers' leases and retry backoff windows instead
        of giving up.
        """
        completed = 0
        while max_shards is None or completed < max_shards:
            released = self.queue.release_expired(
                lease_seconds=self.lease_seconds,
                max_attempts=self.max_attempts,
                backoff_base=self.backoff_base,
                backoff_cap=self.backoff_cap,
            )
            if self.telemetry.enabled:
                for shard_id, outcome in released:
                    self.telemetry.emit(
                        "shard_requeue" if outcome == "requeued" else "shard_poison",
                        shard=shard_id,
                        worker=self.worker_id,
                        reason="lease expired",
                    )
            claimed = self.queue.claim(
                worker=self.worker_id, lease_seconds=self.lease_seconds
            )
            if claimed is None:
                status = self.queue.status()
                if not status.pending and not status.leased:
                    # Complete (or only poison left) — nothing to wait on.
                    self._emit_idle("drained")
                    break
                if not wait:
                    self._emit_idle("no_claimable")
                    break
                time.sleep(self.poll_seconds)
                continue
            spec, lease = claimed
            self._keeper.lease = lease
            self.telemetry.on_event = self._keeper.chain(
                self.telemetry.on_event
            )
            if self.telemetry.enabled:
                self.telemetry.emit(
                    "shard_claim",
                    shard=spec.shard_id,
                    worker=self.worker_id,
                    kind=spec.kind,
                    units=len(spec.units),
                    attempt=spec.attempts + 1,
                )
            start = time.monotonic()
            try:
                arrays = self.context.run_shard(
                    spec, self.telemetry, lambda: self._heartbeat(lease, spec)
                )
            except Exception as exc:
                error = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
                outcome = self.queue.fail(
                    spec,
                    error,
                    lease=lease,
                    max_attempts=self.max_attempts,
                    backoff_base=self.backoff_base,
                    backoff_cap=self.backoff_cap,
                )
                if self.telemetry.enabled:
                    self.telemetry.emit(
                        "shard_fail",
                        shard=spec.shard_id,
                        worker=self.worker_id,
                        error=error,
                        outcome=outcome,
                        attempt=spec.attempts + 1,
                    )
                continue
            finally:
                self._keeper.lease = None
            attestation = getattr(self.context, "attestation", dict)()
            self.queue.complete(spec, arrays, lease=lease, meta=attestation)
            completed += 1
            if self.telemetry.enabled:
                self.telemetry.emit(
                    "shard_done",
                    shard=spec.shard_id,
                    worker=self.worker_id,
                    seconds=time.monotonic() - start,
                    units=len(spec.units),
                )
                self.telemetry.counter("dist.shards_completed").add(1)
        return completed


def verify_context_config(
    context: ExhaustiveContext | SampledContext, config: dict
) -> None:
    """Refuse to run shards against a mismatched campaign configuration.

    An exhaustive context must reproduce the submitted engine
    fingerprint (golden weight bits + eval images) exactly; a worker
    holding retrained weights or a different eval set would silently
    corrupt the merged table otherwise.
    """
    if config.get("kind") != context.kind:
        raise DistError(
            f"campaign kind {config.get('kind')!r} does not match the "
            f"worker context kind {context.kind!r}"
        )
    if isinstance(context, ExhaustiveContext):
        fingerprint = context.engine.fingerprint()
        expected = config.get("golden_sha256")
        if expected is not None and fingerprint != expected:
            raise DistError(
                "engine fingerprint mismatch: campaign was submitted for "
                f"golden weights {expected[:12]}, this worker rebuilt "
                f"{fingerprint[:12]} — refusing to classify shards "
                "(retrained weights, a different eval set, or another "
                "engine kind?)"
            )
        sizes = [layer.size for layer in context.space.layers]
        if config.get("layer_sizes") not in (None, sizes):
            raise DistError(
                "fault-space shape mismatch between the submitted "
                "campaign and this worker's model"
            )


def spec_metadata_matches(meta: dict, campaign: dict) -> str | None:
    """Check one done-shard's embedded identity against the campaign.

    Returns ``None`` when consistent, else a description of the
    mismatch (used by the merge to refuse foreign results).
    """
    if meta.get("config_hash") != campaign.get("config_hash"):
        return (
            f"shard {meta.get('shard_id')} was produced under config "
            f"{str(meta.get('config_hash'))[:12]}, campaign is "
            f"{str(campaign.get('config_hash'))[:12]}"
        )
    if meta.get("shard_id") not in campaign.get("shards", []):
        return (
            f"shard {meta.get('shard_id')} is not part of this campaign"
        )
    return None
