"""Deterministic merge of per-shard results.

The merge is a pure function of the ``done/`` directory: shard results
are loaded through the verified store (zip structure + manifest
checksum), each result's embedded config fingerprint is checked against
the campaign's, and the table/result is assembled in a fixed order — so
the output is bit-identical to a serial run no matter how many shards or
workers produced it, in what order they finished, or how many times a
shard was re-dispatched after a kill.
"""

from __future__ import annotations

import os
from typing import Any, Iterator

import numpy as np

from repro.dist.queue import ShardQueue
from repro.dist.spec import EXHAUSTIVE, SAMPLED, DistError
from repro.dist.worker import arrays_to_tallies, spec_metadata_matches
from repro.faults.engine import FaultOutcome
from repro.faults.space import FaultSpace
from repro.faults.table import OutcomeTable, cell_key
from repro.ieee754 import format_by_name
from repro.sfi.granularity import Granularity
from repro.sfi.results import CampaignResult
from repro.store import load_manifest
from repro.telemetry import Telemetry, resolve_telemetry


class MergeError(DistError):
    """The shard results cannot be merged into one campaign result."""


def _ready_campaign(
    queue_or_root: ShardQueue | str | os.PathLike,
    *,
    kind: str,
    allow_partial: bool,
) -> tuple[ShardQueue, dict]:
    queue = (
        queue_or_root
        if isinstance(queue_or_root, ShardQueue)
        else ShardQueue(queue_or_root)
    )
    campaign = queue.campaign()
    config = campaign.get("config", {})
    if config.get("kind") != kind:
        raise MergeError(
            f"campaign at {queue.root} is {config.get('kind')!r}, "
            f"expected {kind!r}"
        )
    if not allow_partial:
        status = queue.status()
        done = set(status.done)
        missing = [s for s in campaign["shards"] if s not in done]
        if missing:
            raise MergeError(
                f"campaign at {queue.root} is incomplete: "
                f"{len(missing)}/{len(campaign['shards'])} shards missing "
                f"({len(status.pending)} pending, {len(status.leased)} "
                f"leased, {len(status.poisoned)} poisoned); run more "
                "workers (or inspect poison/) before merging"
            )
    return queue, campaign


def _expected_plan_attestation(campaign: dict) -> str | None:
    """Plan fingerprint every shard must attest, or None if not required.

    Plan-engine campaigns submitted by this version record the verified
    plan's structural sha256 in the campaign runtime; older queues (or
    module-engine campaigns) carry none and are merged as before.  Only
    exhaustive shards are gated: sampled shards may legitimately replay
    from a cached outcome table without holding any plan at all.
    """
    if campaign.get("config", {}).get("kind") != EXHAUSTIVE:
        return None
    runtime = campaign.get("runtime") or {}
    return runtime.get("plan_sha256")


def _shard_results(
    queue: ShardQueue, campaign: dict
) -> Iterator[tuple[str, dict, dict[str, np.ndarray]]]:
    """Yield each done shard's (meta, arrays), refusing foreign results."""
    expected_plan = _expected_plan_attestation(campaign)
    manifest = load_manifest(queue.done_dir)
    for shard_id in campaign["shards"]:
        if not queue.result_path(shard_id).is_file():
            continue  # allow_partial merges skip missing shards
        meta, arrays = queue.load_result(
            shard_id,
            regenerate=(
                "delete the file and re-run `repro-dist work "
                f"{queue.root}`"
            ),
            manifest=manifest,
        )
        problem = spec_metadata_matches(meta, campaign)
        if problem is not None:
            raise MergeError(
                f"refusing to merge {queue.result_path(shard_id)}: {problem}"
            )
        if expected_plan is not None:
            attested = meta.get("plan_sha256")
            if attested != expected_plan or not meta.get("plan_verified"):
                if attested is not None and attested != expected_plan:
                    cause = (
                        "it attests a different plan, most likely because "
                        "a worker of a removed engine kind (the former "
                        "vectorized plan engine) completed it; delete the "
                        "result and rerun the shard"
                    )
                else:
                    cause = (
                        "it was produced by a worker whose plan never "
                        "passed repro-check verification"
                    )
                raise MergeError(
                    f"refusing to merge {queue.result_path(shard_id)}: the "
                    "shard does not attest the campaign's verified "
                    f"execution plan (campaign plan {expected_plan[:12]}, "
                    f"shard attests {str(attested)[:12]} "
                    f"verified={bool(meta.get('plan_verified'))}) — "
                    f"{cause}"
                )
        yield shard_id, meta, arrays


def merge_exhaustive(
    queue_or_root: ShardQueue | str | os.PathLike,
    *,
    telemetry: Telemetry | None = None,
) -> OutcomeTable:
    """Reassemble a sharded exhaustive campaign into an `OutcomeTable`.

    The outcome arrays are bit-identical to
    :meth:`OutcomeTable.from_exhaustive` run serially with the same
    engine and space.  Raises :class:`MergeError` if any shard is
    missing, fails verification, or belongs to a different campaign
    configuration.
    """
    queue, campaign = _ready_campaign(
        queue_or_root, kind=EXHAUSTIVE, allow_partial=False
    )
    config = campaign["config"]
    layer_sizes = config["layer_sizes"]
    fmt = format_by_name(config["fmt"])
    bits = int(config.get("bits", fmt.total_bits))
    n_models = len(config["fault_models"])

    cells: dict[tuple[int, int], np.ndarray] = {}
    for shard_id, meta, arrays in _shard_results(queue, campaign):
        for unit in meta["units"]:
            layer_idx, bit = int(unit[0]), int(unit[1])
            name = f"cell_{cell_key(layer_idx, bit)}"
            if name not in arrays:
                raise MergeError(
                    f"shard {shard_id} result is missing cell "
                    f"{cell_key(layer_idx, bit)} it was assigned"
                )
            cell = np.asarray(arrays[name], dtype=np.uint8)
            expected = (layer_sizes[layer_idx], n_models)
            if cell.shape != expected:
                raise MergeError(
                    f"shard {shard_id} cell {cell_key(layer_idx, bit)} has "
                    f"shape {cell.shape}, expected {expected}"
                )
            cells[(layer_idx, bit)] = cell

    missing_cells = [
        cell_key(layer_idx, bit)
        for layer_idx in range(len(layer_sizes))
        for bit in range(bits)
        if (layer_idx, bit) not in cells
    ]
    if missing_cells:
        raise MergeError(
            f"merged shards do not cover the fault space: "
            f"{len(missing_cells)} cells missing "
            f"(first: {missing_cells[:4]})"
        )

    outcomes = []
    for layer_idx, size in enumerate(layer_sizes):
        table = np.empty((size, bits, n_models), dtype=np.uint8)
        for bit in range(bits):
            table[:, bit, :] = cells[(layer_idx, bit)]
        outcomes.append(table)
    total = sum(size * bits * n_models for size in layer_sizes)
    masked = sum(int((arr == FaultOutcome.MASKED).sum()) for arr in outcomes)
    metadata = {
        "fmt": config["fmt"],
        "fault_models": list(config["fault_models"]),
        "policy": config["policy"],
        "threshold": config["threshold"],
        "eval_images": config["eval_images"],
        "inference_count": total - masked,
        "shards": len(campaign["shards"]),
        "merged": True,
    }
    runtime = campaign.get("runtime", {})
    if "golden_accuracy" in runtime:
        metadata["golden_accuracy"] = runtime["golden_accuracy"]
    if "model" in runtime:
        metadata["model"] = runtime["model"]
    tele = resolve_telemetry(telemetry)
    if tele.enabled:
        tele.emit(
            "merge_done",
            kind=EXHAUSTIVE,
            shards=len(campaign["shards"]),
            faults=total,
            masked=masked,
        )
    return OutcomeTable(outcomes, metadata=metadata)


def merge_sampled(
    queue_or_root: ShardQueue | str | os.PathLike,
    space: FaultSpace,
    *,
    telemetry: Telemetry | None = None,
) -> CampaignResult:
    """Reassemble a sharded sampled campaign into a `CampaignResult`.

    Per-stratum tallies and assumed priors are summed across shards;
    because every stratum draws from its own seed substream, the merged
    result equals a serial :meth:`CampaignRunner.run` with the same
    plan and seed exactly (tallies, estimates and all).
    """
    queue, campaign = _ready_campaign(
        queue_or_root, kind=SAMPLED, allow_partial=False
    )
    config = campaign["config"]
    sizes = [layer.size for layer in space.layers]
    if config.get("layer_sizes") != sizes:
        raise MergeError(
            "the fault space handed to merge_sampled does not match the "
            f"campaign (layer sizes {config.get('layer_sizes')} vs {sizes})"
        )
    result = CampaignResult(
        method=config["method"],
        granularity=Granularity(config["granularity"]),
        t=float(config["t"]),
        space=space,
        seed=int(config["seed"]),
    )
    for _shard_id, _meta, arrays in _shard_results(queue, campaign):
        tallies, assumed = arrays_to_tallies(arrays)
        for (layer, bit), counts in tallies.items():
            tally = result.cell_tallies.setdefault((layer, bit), [0, 0, 0])
            tally[0] += counts[0]
            tally[1] += counts[1]
            tally[2] += counts[2]
        result.assumed_p.update(assumed)
    tele = resolve_telemetry(telemetry)
    if tele.enabled:
        tele.emit(
            "merge_done",
            kind=SAMPLED,
            shards=len(campaign["shards"]),
            injections=result.total_injections,
            criticals=result.total_criticals,
        )
    return result


def save_merged_table(
    queue_or_root: ShardQueue | str | os.PathLike,
    path: str | os.PathLike,
    **kwargs: Any,
) -> OutcomeTable:
    """Merge an exhaustive campaign and persist the table (verified .npz)."""
    table = merge_exhaustive(queue_or_root, **kwargs)
    table.save(path)
    return table
