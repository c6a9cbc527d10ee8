"""Disabled telemetry must be free.

The acceptance bar for the observability work: with telemetry disabled
(the default ``NullTelemetry``), the instrumented hot path costs < 2%
over a hand-inlined loop with no telemetry code at all.

One whole-sweep timing per path is at the mercy of whatever else the
host runs during it: a burst of load landing on one side skews the
ratio by tens of percent.  The fault list is therefore cut into short
chunks and each chunk is timed under both paths back to back (order
alternating), so both halves of a pair see the same load.  The verdict
is the median of the per-pair ratios over many sweeps, which bursts
hitting a minority of pairs cannot move.
"""

from __future__ import annotations

import statistics
import time

from repro.data import SynthCIFAR
from repro.faults import FaultSpace, InferenceEngine
from repro.faults.engine import classify_predictions
from repro.ieee754 import FLOAT16
from repro.models import ResNetCIFAR

#: Faults per timed pair (a few milliseconds of inference per side).
CHUNK = 16
#: Passes over the fault list; each yields len(faults) / CHUNK pairs.
SWEEPS = 10
MAX_OVERHEAD = 0.02


def _setup():
    model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
    model.eval()
    data = SynthCIFAR("test", size=8, seed=42)
    engine = InferenceEngine(model, data.images, data.labels, fmt=FLOAT16)
    space = FaultSpace(engine.layers, fmt=FLOAT16)
    faults = list(space.iter_layer(0))[:192]
    return engine, faults


def _baseline_classify_many(engine, faults):
    """The pre-telemetry hot loop, inlined with zero telemetry code."""
    outcomes = []
    for fault in faults:
        if engine.injector.is_masked(fault):
            outcomes.append(0)
            continue
        predictions = engine._predictions_with_fault(fault)
        outcomes.append(
            classify_predictions(
                predictions,
                engine.golden_predictions,
                engine.labels,
                policy=engine.policy,
                threshold=engine.threshold,
            )
        )
    return outcomes


def _timed(run, faults) -> float:
    start = time.perf_counter()
    run(faults)
    return time.perf_counter() - start


def test_null_telemetry_overhead_under_two_percent():
    engine, faults = _setup()
    assert engine.telemetry.enabled is False  # the shipped default

    def baseline(chunk):
        return _baseline_classify_many(engine, chunk)

    # Warm both paths (allocations, caches) before timing.
    baseline(faults)
    engine.classify_many(faults)

    chunks = [faults[i : i + CHUNK] for i in range(0, len(faults), CHUNK)]
    ratios = []
    for sweep in range(SWEEPS):
        for index, chunk in enumerate(chunks):
            # Alternate which path goes first so drift within a pair
            # hits both paths alike.
            if (sweep + index) % 2 == 0:
                bare = _timed(baseline, chunk)
                shipped = _timed(engine.classify_many, chunk)
            else:
                shipped = _timed(engine.classify_many, chunk)
                bare = _timed(baseline, chunk)
            ratios.append(shipped / bare)

    overhead = statistics.median(ratios) - 1.0
    assert overhead < MAX_OVERHEAD, (
        f"NullTelemetry path is {overhead:.2%} slower than the bare loop "
        f"(median over {len(ratios)} paired chunks)"
    )
