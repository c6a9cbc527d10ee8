"""In-process metrics: counters, gauges and histogram timers.

The registry is deliberately tiny — a campaign needs throughput numbers
(faults/sec, inferences/sec), a handful of gauges, and wall-time
histograms per profiled section, all snapshotted to JSON at the end of a
run.  It is not a live monitoring system; the journal is the durable
record, the registry is the cheap aggregate view.

Fork caveat: forked fleet workers get a copy-on-write *copy* of the
registry, so worker-side increments never reach the parent.  Anything
workers must report flows through the journal (events survive the
process boundary).
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from typing import Iterator

from repro.store.atomic import atomic_write_bytes


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, n: int | float = 1) -> None:
        self.value += n

    def snapshot(self) -> int | float:
        return self.value


class Gauge:
    """A last-write-wins scalar."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> float | None:
        return self.value


class Timer:
    """A wall-time histogram: count / total / min / max / mean.

    Stores aggregates, not samples — a campaign classifies hundreds of
    cells and millions of faults, and the per-(layer, bit) detail lives
    in the journal already.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    @contextmanager
    def time(self) -> Iterator[None]:
        start = time.monotonic()
        try:
            yield
        finally:
            self.observe(time.monotonic() - start)

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total_seconds": self.total,
            "min_seconds": self.min if self.count else 0.0,
            "max_seconds": self.max,
            "mean_seconds": self.total / self.count if self.count else 0.0,
        }


class MetricsRegistry:
    """Named counters/gauges/timers with a JSON snapshot."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Timer] = {}

    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        return self._gauges.setdefault(name, Gauge())

    def timer(self, name: str) -> Timer:
        return self._timers.setdefault(name, Timer())

    def snapshot(self) -> dict:
        """All metrics as one JSON-serialisable dict."""
        return {
            "counters": {
                name: c.snapshot() for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.snapshot() for name, g in sorted(self._gauges.items())
            },
            "timers": {
                name: t.snapshot() for name, t in sorted(self._timers.items())
            },
        }

    def save(self, path: str | os.PathLike) -> None:
        """Atomically write the snapshot as JSON."""
        atomic_write_bytes(
            path,
            (json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n").encode(
                "utf-8"
            ),
        )
