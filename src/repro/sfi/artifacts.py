"""Cached exhaustive ground truth for the mini models.

The exhaustive campaign is the expensive part of the reproduction (it is
what took the paper 37-54 GPU-days at full scale).  This module runs it
once per (model, eval size, policy) configuration and caches the
:class:`~repro.faults.OutcomeTable` under the artifacts directory; every
benchmark and example replays from the cache.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.data import SynthCIFAR
from repro.dist import (
    DistError,
    ShardQueue,
    ShardSpec,
    config_hash,
    make_exhaustive_shards,
    run_sharded_exhaustive,
)
from repro.faults import FaultInjectionEngine, FaultSpace, OutcomeTable
from repro.models import create_model
from repro.telemetry import Telemetry, resolve_telemetry
from repro.utils import artifacts_dir


def exhaustive_table_path(
    model_name: str, *, eval_size: int = 64, policy: str = "accuracy_drop"
) -> Path:
    """Cache location for one exhaustive configuration.

    Both engine kinds share the cache entry: their outcomes are
    bit-identical.
    """
    return (
        artifacts_dir() / "exhaustive" / f"{model_name}_n{eval_size}_{policy}.npz"
    )


def regenerate_command(
    model_name: str, *, eval_size: int = 64, policy: str = "accuracy_drop"
) -> str:
    """Command that rebuilds one cached exhaustive table from scratch."""
    command = f"repro-run --model {model_name} --eval-size {eval_size}"
    if policy != "accuracy_drop":
        command += f"  (policy {policy})"
    return f"delete the file and run `{command}`"


def _discard_stale_queue(
    queue: ShardQueue, config: dict, specs: list[ShardSpec]
) -> None:
    """Delete a leftover queue another configuration left at *queue*.

    Only a queue submitted for the same campaign and the same shards is
    resumed; anything else (other weights or eval set, another shard
    layout, an unreadable record) must never leak into this table.
    """
    if not queue.root.exists():
        return
    try:
        campaign = queue.campaign()
    except DistError:
        campaign = {}
    if campaign.get("config_hash") != config_hash(config) or campaign.get(
        "shards"
    ) != [spec.shard_id for spec in specs]:
        shutil.rmtree(queue.root)


def load_or_run_exhaustive(
    model_name: str,
    *,
    eval_size: int = 64,
    policy: str = "accuracy_drop",
    engine_kind: str = "plan",
    batch_size: int | None = None,
    workers: int | None = 1,
    telemetry: Telemetry | None = None,
) -> tuple[OutcomeTable, FaultSpace, FaultInjectionEngine]:
    """Return the exhaustive table for a pretrained mini model.

    Loads from the artifact cache when present; otherwise runs the full
    exhaustive campaign (minutes for the mini models) and caches it.
    Always returns a live ``(table, space, engine)`` triple for the same
    model/eval configuration, so sampled campaigns can either replay
    from the table or re-inject through the engine.

    A cold campaign runs through :func:`repro.dist.run_sharded_exhaustive`
    with one shard per (layer, bit) cell, drained by *workers* local
    processes (see :func:`~repro.faults.table.resolve_workers`) through
    a private ``<table>.queue`` directory next to the cache file.  A
    killed campaign resumes from the shards it finished; a leftover
    queue of another configuration is discarded.  The merged table is
    bit-identical to a serial :meth:`OutcomeTable.from_exhaustive` run.

    *engine_kind* selects the engine (see
    :func:`repro.runtime.create_engine`); outcomes are bit-identical
    across kinds, so both share the cache.  *batch_size* tunes how many
    same-layer faults the plan engine evaluates per batch.

    *telemetry* journals the campaign (or an ``artifact_cache_hit``
    event when the table is served from the cache).
    """
    # Late import: repro.runtime is only needed to build live engines.
    from repro.runtime import create_engine

    tele = resolve_telemetry(telemetry)
    model = create_model(model_name, pretrained=True)
    data = SynthCIFAR("test", size=eval_size, seed=1234)
    engine = create_engine(
        model,
        data.images,
        data.labels,
        kind=engine_kind,
        policy=policy,
        batch_size=batch_size,
        telemetry=telemetry,
    )
    space = FaultSpace(engine.layers)
    path = exhaustive_table_path(model_name, eval_size=eval_size, policy=policy)
    if path.is_file():
        with tele.span("artifacts.load_exhaustive", emit=True, model=model_name):
            table = OutcomeTable.load(
                path,
                regenerate=regenerate_command(
                    model_name, eval_size=eval_size, policy=policy
                ),
            )
        if table.num_layers != len(space.layers):
            raise ValueError(
                f"cached table at {path} does not match model {model_name}"
            )
        if tele.enabled:
            tele.emit(
                "artifact_cache_hit", model=model_name, path=str(path)
            )
            tele.counter("artifacts.cache_hits").add(1)
        return table, space, engine
    queue = ShardQueue(path.with_suffix(".queue"))
    cells = len(space.layers) * space.bits
    _discard_stale_queue(
        queue, *make_exhaustive_shards(engine, space, shards=cells)
    )
    table = run_sharded_exhaustive(
        engine,
        space,
        queue.root,
        shards=cells,
        workers=workers,
        telemetry=telemetry,
        runtime={
            "model": model_name,
            "eval_size": eval_size,
            "policy": policy,
            "engine": engine.kind,
        },
    )
    table.metadata["model"] = model_name
    table.save(path)
    # The finished table is persisted and verified; the queue has served
    # its purpose.
    shutil.rmtree(queue.root, ignore_errors=True)
    return table, space, engine
