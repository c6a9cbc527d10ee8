"""In-memory span tracing around calls into the program's public functions.

The traced run wraps public functions and methods of each layer of
``repro`` (see :data:`LAYERS`) with timing wrappers installed from this
benchmark's own code; no span is placed inside the program.  A span
records its name, layer, start, end, parent span and process id.  Spans
stay in memory and are written out when the run ends; forked workers
write their own spans to a file each, merged by the parent afterwards.

A layer's *self time* is a span's duration minus the time its direct
child spans (same process) cover; summing self times by layer splits
the traced wall-clock between the layers without double counting.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Layers a span can be attributed to.  ``bench`` is this benchmark's own
#: code (the measuring loop and its correctness comparisons).
LAYERS = ("bench", "faults", "runtime", "backends", "sfi", "dist", "store", "check")

_MISSING = object()


class Tracer:
    """Span recorder plus the patch table that installs its wrappers."""

    def __init__(self, child_dir: Path | None = None) -> None:
        self.pid = os.getpid()
        self.child_dir = child_dir
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._counter = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, layer: str) -> dict:
        self._counter += 1
        record = {
            "id": f"{os.getpid()}:{self._counter}",
            "parent": self._stack[-1] if self._stack else None,
            "pid": os.getpid(),
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self._stack.append(record["id"])
        return record

    def _close(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(record)

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        record = self._open(name, layer)
        record["attrs"].update(attrs)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, fn, name: str, layer: str, describe=None, after=None):
        """*fn* wrapped in a span; ``describe(args, result)`` adds attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    record["attrs"].update(describe(args, result))
                return result
            finally:
                self._close(record)
                if after is not None:
                    after()

        return traced

    # -- installing wrappers -----------------------------------------------

    def patch(self, owner, attr: str, name: str, layer: str, describe=None,
              after=None) -> None:
        """Replace ``owner.attr`` with its traced wrapper until :meth:`unpatch`.

        *owner* is a module, a class or an instance; an instance attribute
        shadows the class method only for that object.
        """
        own = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, self.wrap(original, name, layer, describe, after))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- forked workers ----------------------------------------------------

    def dump_if_child(self) -> None:
        """In a forked worker, write the spans this process recorded."""
        pid = os.getpid()
        if pid == self.pid or self.child_dir is None:
            return
        mine = [s for s in self.spans if s["pid"] == pid]
        path = self.child_dir / f"spans-{pid}.json"
        path.write_text(json.dumps(mine, sort_keys=True), encoding="utf-8")

    def collect_children(self) -> list[dict]:
        """Spans written by forked workers (files are consumed)."""
        spans: list[dict] = []
        if self.child_dir is None or not self.child_dir.is_dir():
            return spans
        for path in sorted(self.child_dir.glob("spans-*.json")):
            spans.extend(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()
        return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-span self time: duration minus direct same-process children."""
    covered: dict[str, float] = defaultdict(float)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            covered[parent["id"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in spans}


def layer_self_seconds(spans: list[dict], pid: int) -> dict[str, float]:
    """Self time by layer over the spans of process *pid*."""
    own = [s for s in spans if s["pid"] == pid]
    selfs = self_times(own)
    totals = {layer: 0.0 for layer in LAYERS}
    for s in own:
        totals[s["layer"]] += selfs[s["id"]]
    return totals


def write_span_file(path: Path, spans: list[dict], meta: dict) -> None:
    """Write the run's spans (parent and workers) as one JSON document."""
    ordered = sorted(spans, key=lambda s: (s["start"], s["id"]))
    payload = {"meta": meta, "spans": ordered}
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
