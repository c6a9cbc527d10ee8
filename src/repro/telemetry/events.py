"""Typed telemetry events.

Every record in a campaign journal is one :class:`Event`: a type drawn
from a small closed vocabulary, two timestamps, the run id tying the
record to one campaign, the emitting process id, and free-form fields.

Two timestamps because they answer different questions:

- ``t`` is ``time.monotonic()`` — durations and ordering.  On Linux this
  is ``CLOCK_MONOTONIC``, which is system-wide, so spans measured in
  forked fleet workers are comparable with the parent's.
- ``wall`` is ``time.time()`` — "when did this happen" for humans
  correlating a journal with logs from other systems.
"""

from __future__ import annotations

import json
import os
import secrets
import time
from dataclasses import dataclass, field

#: The event vocabulary.  Emitting an unknown type raises immediately —
#: a journal full of misspelled types is worse than no journal.
EVENT_TYPES = frozenset(
    {
        "campaign_start",  # an exhaustive or sampled campaign begins
        "campaign_end",  # ... and finishes (elapsed, totals)
        "cell_start",  # one (layer, bit) cell begins classification
        "cell_done",  # ... and finishes (seconds, faults, inferences)
        # Written by releases that kept a per-cell checkpoint directory;
        # still accepted so their journals read back.
        "checkpoint_write",
        "checkpoint_resume",  # a resumed campaign reused finished shards
        "worker_heartbeat",  # a fleet worker finished a unit (renews lease)
        "progress",  # (done, total) faults classified so far
        "span",  # a profiled code section (name, seconds)
        "epoch_done",  # one training epoch finished
        "artifact_cache_hit",  # an exhaustive table was served from cache
        "shard_claim",  # a distributed worker leased a shard
        "shard_done",  # ... and completed it (seconds, units)
        "shard_fail",  # ... or failed it (error, requeued/poisoned)
        "shard_requeue",  # an expired/failed shard went back to pending
        "shard_poison",  # a shard exhausted its attempts and was quarantined
        "shard_split",  # a pending shard was re-partitioned for stragglers
        "merge_done",  # shard results reassembled into one campaign result
        "campaign_predicted",  # cost-model prediction issued before a run
        "worker_idle",  # a worker found nothing claimable (queue drained)
    }
)


def new_run_id() -> str:
    """A short random id tying one campaign's events together."""
    return secrets.token_hex(6)


@dataclass(frozen=True)
class Event:
    """One journal record."""

    type: str
    run_id: str
    t: float  # monotonic seconds (durations / ordering)
    wall: float  # unix epoch seconds (human correlation)
    pid: int
    fields: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.type not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {self.type!r}; "
                f"expected one of {sorted(EVENT_TYPES)}"
            )

    @classmethod
    def now(cls, type: str, run_id: str, **fields) -> "Event":
        """An event stamped with the current clocks and process id."""
        return cls(
            type=type,
            run_id=run_id,
            t=time.monotonic(),
            wall=time.time(),
            pid=os.getpid(),
            fields=fields,
        )

    def to_json(self) -> str:
        """One JSONL line (no newline)."""
        record = {
            "type": self.type,
            "run_id": self.run_id,
            "t": self.t,
            "wall": self.wall,
            "pid": self.pid,
        }
        record.update(self.fields)
        return json.dumps(record, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "Event":
        """Parse one JSONL line (raises on malformed input)."""
        record = json.loads(line)
        return cls(
            type=record.pop("type"),
            run_id=record.pop("run_id"),
            t=record.pop("t"),
            wall=record.pop("wall"),
            pid=record.pop("pid"),
            fields=record,
        )
