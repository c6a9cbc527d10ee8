"""Shard identity: stable ids, config fingerprints and partitioning.

A shard is a self-describing slice of a campaign: which work units it
covers (exhaustive (layer, bit) cells or sampled plan items), which
campaign configuration it belongs to, and — for sampled shards — the
base seed whose :class:`numpy.random.SeedSequence` substreams drive each
stratum.  Everything about a shard is a pure function of the campaign
configuration, so two submitters on different hosts produce byte-for-byte
identical shard specs, and a worker can verify it is executing against
the same engine the campaign was planned for.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.faults.engine import FaultInjectionEngine
from repro.faults.space import FaultSpace
from repro.faults.table import campaign_config
from repro.sfi.planners import CampaignPlan

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"


class DistError(RuntimeError):
    """A distributed-campaign invariant was violated."""


def config_hash(config: dict) -> str:
    """Stable hex fingerprint of a campaign configuration dict."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def plan_hash(plan: CampaignPlan, *, seed: int) -> str:
    """Stable hex fingerprint of a campaign plan (plus its base seed).

    Covers every planned stratum (identity, population, sample size,
    assumed prior) and the statistical parameters, so two plans that
    would draw different samples never share a hash.
    """
    payload = {
        "method": plan.method,
        "granularity": plan.granularity.value,
        "error_margin": plan.error_margin,
        "confidence": plan.confidence,
        "t": plan.t,
        "seed": seed,
        "items": [
            [
                list(item.subpopulation.key),
                item.subpopulation.population,
                item.sample_size,
                item.p_assumed,
            ]
            for item in plan.items
        ],
    }
    return config_hash(payload)


def exhaustive_config(engine: FaultInjectionEngine, space: FaultSpace) -> dict:
    """Identity of an exhaustive campaign: its ``campaign_config`` + kind."""
    config = dict(campaign_config(engine, space))
    config["kind"] = EXHAUSTIVE
    config["bits"] = space.bits
    return config


def sampled_config(
    plan: CampaignPlan,
    space: FaultSpace,
    *,
    seed: int,
    golden_sha256: str | None = None,
) -> dict:
    """Identity of a sampled campaign: plan hash + space + base seed."""
    return {
        "kind": SAMPLED,
        "method": plan.method,
        "granularity": plan.granularity.value,
        "t": plan.t,
        "seed": seed,
        "plan_sha256": plan_hash(plan, seed=seed),
        "fmt": space.fmt.name,
        "bits": space.bits,
        "fault_models": [m.value for m in space.fault_models],
        "layer_sizes": [layer.size for layer in space.layers],
        "golden_sha256": golden_sha256,
    }


@dataclass(frozen=True)
class ShardSpec:
    """One self-describing slice of a campaign.

    Attributes
    ----------
    shard_id:
        Stable identity, derived from the campaign's config fingerprint,
        the shard's position and its work units — identical across
        submitters and across resubmissions of the same campaign.
    kind:
        ``"exhaustive"`` (units are ``(layer, bit)`` cells) or
        ``"sampled"`` (units are plan-item indices).
    units:
        The work units, in deterministic order.
    seed:
        Base seed of the sampled campaign (``None`` for exhaustive);
        stratum *i* draws from ``SeedSequence(seed, spawn_key=(i,))``
        regardless of which shard or worker executes it.
    attempts:
        Times this shard has been dispatched (leased) so far.
    not_before:
        Wall-clock time before which the shard must not be claimed
        (exponential-backoff retry after a failure).
    history:
        Human-readable failure records from earlier attempts.
    """

    shard_id: str
    kind: str
    index: int
    total: int
    config_hash: str
    units: tuple
    seed: int | None = None
    attempts: int = 0
    not_before: float = 0.0
    history: tuple[str, ...] = field(default=())

    def with_failure(
        self, error: str, *, not_before: float
    ) -> "ShardSpec":
        """A copy recording one more failed attempt."""
        return replace(
            self,
            attempts=self.attempts + 1,
            not_before=not_before,
            history=self.history + (error,),
        )

    # -- serialisation ---------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "shard_id": self.shard_id,
                "kind": self.kind,
                "index": self.index,
                "total": self.total,
                "config_hash": self.config_hash,
                "units": [list(u) if isinstance(u, tuple) else u for u in self.units],
                "seed": self.seed,
                "attempts": self.attempts,
                "not_before": self.not_before,
                "history": list(self.history),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ShardSpec":
        record = json.loads(text)
        units = tuple(
            tuple(u) if isinstance(u, list) else u for u in record["units"]
        )
        return cls(
            shard_id=record["shard_id"],
            kind=record["kind"],
            index=record["index"],
            total=record["total"],
            config_hash=record["config_hash"],
            units=units,
            seed=record.get("seed"),
            attempts=record.get("attempts", 0),
            not_before=record.get("not_before", 0.0),
            history=tuple(record.get("history", ())),
        )


def _shard_id(
    cfg_hash: str,
    kind: str,
    index: int,
    total: int,
    units: Sequence[object],
    seed: int | None,
) -> str:
    payload = json.dumps(
        [cfg_hash, kind, index, total, [list(u) if isinstance(u, tuple) else u for u in units], seed],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _partition(units: list, shards: int) -> list[list]:
    """Round-robin split: shard *i* takes ``units[i::shards]``.

    Round-robin (rather than contiguous ranges) spreads a model's big
    early layers across shards, so shard wall times stay comparable.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return [units[i::shards] for i in range(shards)]


def split_shard(spec: ShardSpec, parts: int) -> list[ShardSpec]:
    """Re-partition one shard's pending units into *parts* child shards.

    Pure and deterministic: the same (spec, parts) always yields the
    same children, with ids derived through the standard
    :func:`_shard_id` rules — so a rebalancer on any host splits a
    straggling campaign identically, and a merge over split shards stays
    bit-identical to the unsplit run (children cover exactly the
    parent's units, in the parent's round-robin order).

    Children keep the parent's ``index``/``total`` (their position in
    the *original* partition) and append a sub-index; identity comes
    from the unit tuple, which differs per child.  Attempt counts and
    failure history carry over so a poison-bound shard cannot dodge its
    quarantine by being split.
    """
    if parts < 2:
        raise ValueError(f"split needs >= 2 parts, got {parts}")
    if parts > len(spec.units):
        parts = len(spec.units)
    if parts < 2:
        raise DistError(
            f"shard {spec.shard_id} has {len(spec.units)} unit(s); "
            "nothing to split"
        )
    children = []
    for sub, unit_part in enumerate(_partition(list(spec.units), parts)):
        units = tuple(unit_part)
        children.append(
            replace(
                spec,
                shard_id=_shard_id(
                    spec.config_hash,
                    spec.kind,
                    spec.index,
                    spec.total,
                    units,
                    spec.seed,
                ),
                units=units,
                history=spec.history
                + (f"split {sub + 1}/{parts} of {spec.shard_id}",),
            )
        )
    return children


def make_exhaustive_shards(
    engine: FaultInjectionEngine, space: FaultSpace, *, shards: int
) -> tuple[dict, list[ShardSpec]]:
    """Split an exhaustive campaign's (layer, bit) cells into shards.

    Returns ``(config, specs)``; empty shards (more shards than cells)
    are dropped.
    """
    config = exhaustive_config(engine, space)
    cfg_hash = config_hash(config)
    cells = [
        (layer_idx, bit)
        for layer_idx in range(len(space.layers))
        for bit in range(space.bits)
    ]
    specs = []
    parts = _partition(cells, shards)
    for index, part in enumerate(parts):
        if not part:
            continue
        units = tuple(part)
        specs.append(
            ShardSpec(
                shard_id=_shard_id(
                    cfg_hash, EXHAUSTIVE, index, len(parts), units, None
                ),
                kind=EXHAUSTIVE,
                index=index,
                total=len(parts),
                config_hash=cfg_hash,
                units=units,
            )
        )
    return config, specs


def make_sampled_shards(
    plan: CampaignPlan,
    space: FaultSpace,
    *,
    seed: int,
    shards: int,
    golden_sha256: str | None = None,
) -> tuple[dict, list[ShardSpec]]:
    """Split a sampled campaign's plan items into shards.

    Items with a zero sample size are distributed too — their assumed
    priors must land in the merged result exactly as in a serial run.
    """
    config = sampled_config(
        plan, space, seed=seed, golden_sha256=golden_sha256
    )
    cfg_hash = config_hash(config)
    items = list(range(len(plan.items)))
    specs = []
    parts = _partition(items, shards)
    for index, part in enumerate(parts):
        if not part:
            continue
        units = tuple(part)
        specs.append(
            ShardSpec(
                shard_id=_shard_id(
                    cfg_hash, SAMPLED, index, len(parts), units, seed
                ),
                kind=SAMPLED,
                index=index,
                total=len(parts),
                config_hash=cfg_hash,
                units=units,
                seed=seed,
            )
        )
    return config, specs
