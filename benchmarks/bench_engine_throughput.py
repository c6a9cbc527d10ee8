"""Engine throughput trajectory: the plan engine against the module oracle.

Times the two engine kinds on the same deterministic,
campaign-representative fault sample from ``resnet14_mini`` (layers drawn
proportionally to their weight count, all 32 bit positions, both stuck-at
models — the population the committed exhaustive artifact enumerates) and
writes ``BENCH_engine.json`` so CI can track faults/sec across commits:

- ``module`` — the plain module-tree forward pass with stage-granular
               prefix caching, one fault at a time (the oracle),
- ``plan``   — the plan engine at its default batch size: no-flip
               certification, channel-sparse fault rows, stacked suffix
               walk and the exact dense tail.

Outcomes must be bit-identical (asserted here); the run aborts if they
ever diverge, so a throughput number never ships for an engine that
changed the science.  The run also aborts, before writing anything, if
the plan engine's speedup over the module engine falls more than
:data:`REGRESSION_MARGIN` below the committed ``BENCH_engine.json``'s
(and always if it falls below 1.0x).

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        [--out BENCH_engine.json] [--faults 768]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.data import SynthCIFAR
from repro.faults import Fault, FaultModel
from repro.models import create_model, pretrained_path
from repro.runtime import create_engine
from repro.store import atomic_write_bytes
from repro.train import train_reference_model

MODEL = "resnet14_mini"
EVAL_SIZE = 64

#: The committed bench whose plan speedup sets the regression floor.
REFERENCE = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Fraction of the reference plan-vs-module speedup a run may lose
#: before the bench fails (the ratio is measured within one run, so it
#: transfers across hosts far better than absolute faults/sec).
REGRESSION_MARGIN = 0.2


def speed_floor(reference: Path, batch_size: int) -> float:
    """Lowest acceptable plan-vs-module speedup given the reference file.

    ``1 - REGRESSION_MARGIN`` of the reference's plan speedup when the
    reference measured the plan engine at the same batch size, never
    below 1.0x (the plan engine must not be slower than the oracle).
    """
    floor = 1.0
    try:
        with open(reference, encoding="utf-8") as stream:
            previous = json.load(stream)
    except (OSError, json.JSONDecodeError):
        return floor
    row = previous.get("engines", {}).get("plan", {})
    speedup = previous.get("speedup_vs_module", {}).get("plan")
    if speedup is not None and row.get("batch_size") == batch_size:
        floor = max(floor, (1.0 - REGRESSION_MARGIN) * float(speedup))
    return floor


def sample_faults(engine, count: int, seed: int = 0) -> list[Fault]:
    """A deterministic, non-masked sample mirroring the exhaustive campaign.

    Layers are drawn proportionally to their weight count, bits uniformly
    over all 32 positions, and models over the two stuck-at variants —
    the same population the committed exhaustive artifact enumerates — so
    the reported faults/sec predicts real campaign wall-clock rather than
    flattering the layers an engine happens to be fastest on.  Masked
    faults short-circuit without inference in every engine and are
    excluded (the campaign tallies them for free).
    """
    rng = np.random.default_rng(seed)
    faults: list[Fault] = []
    layers = engine.layers
    sizes = np.array([layer.size for layer in layers], dtype=np.float64)
    weights = sizes / sizes.sum()
    models = [FaultModel.STUCK_AT_0, FaultModel.STUCK_AT_1]
    while len(faults) < count:
        layer = int(rng.choice(len(layers), p=weights))
        fault = Fault(
            layer=layer,
            index=int(rng.integers(layers[layer].size)),
            bit=int(rng.integers(0, 32)),
            model=models[int(rng.integers(2))],
        )
        if not engine.injector.is_masked(fault):
            faults.append(fault)
    return faults


def time_engine(engine, faults: list[Fault]) -> tuple[float, list]:
    # Warm prefix caches with one full batch so the timed
    # run measures steady-state throughput.
    engine.classify_many(faults[: max(8, engine.batch_size)])
    start = time.perf_counter()
    outcomes = engine.classify_many(faults)
    return time.perf_counter() - start, outcomes


def _appended_history(out: Path, payload: dict) -> list[dict]:
    """Prior runs' engine rates plus this one, oldest first.

    The bench file carries its own trajectory instead of being
    overwritten, so engine-throughput drift is visible across commits.
    Entries are keyed by run order, not wall time — the repo's
    determinism lint forbids clock reads next to serialization, and the
    git history already dates each entry.
    """
    history: list[dict] = []
    if out.is_file():
        try:
            with open(out, encoding="utf-8") as stream:
                previous = json.load(stream)
        except (OSError, json.JSONDecodeError):
            previous = {}
        history = list(previous.get("history", []))
        if not history and "engines" in previous:
            # Upgrade a pre-history file: its latest block becomes the
            # first trajectory entry.
            history = [
                {
                    "engines": previous["engines"],
                    "faults": previous.get("faults"),
                    "speedup_vs_module": previous.get("speedup_vs_module"),
                }
            ]
    history.append(
        {
            "engines": payload["engines"],
            "faults": payload["faults"],
            "speedup_vs_module": payload["speedup_vs_module"],
            "backend": payload["backend"],
        }
    )
    return history


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("BENCH_engine.json"))
    parser.add_argument("--faults", type=int, default=768)
    args = parser.parse_args(argv)

    if not pretrained_path(MODEL).is_file():
        train_reference_model(MODEL)
    model = create_model(MODEL, pretrained=True)
    data = SynthCIFAR("test", size=EVAL_SIZE, seed=1234)

    engines = {
        "module": create_engine(
            model, data.images, data.labels, kind="module"
        ),
        "plan": create_engine(model, data.images, data.labels),
    }
    faults = sample_faults(engines["module"], args.faults)

    results: dict[str, dict] = {}
    reference = None
    for name, engine in engines.items():
        seconds, outcomes = time_engine(engine, faults)
        if reference is None:
            reference = outcomes
        elif outcomes != reference:
            raise SystemExit(
                f"engine {name!r} diverged from the module outcomes — "
                "refusing to report throughput for broken numerics"
            )
        results[name] = {
            "seconds": round(seconds, 4),
            "faults_per_sec": round(len(faults) / seconds, 2),
            "batch_size": engine.batch_size,
        }
        print(
            f"{name:7s} {seconds:7.2f} s  "
            f"{len(faults) / seconds:8.1f} faults/s"
        )

    floor = speed_floor(REFERENCE, engines["plan"].batch_size)
    module_rate = results["module"]["faults_per_sec"]
    # Stamp the kernels' numpy version beside the rates they measured.
    backend = engines["plan"].backend
    payload = {
        "benchmark": "engine_throughput",
        "model": MODEL,
        "eval_size": EVAL_SIZE,
        "faults": len(faults),
        "backend": {"name": backend.name, "version": backend.version},
        "engines": results,
        "speedup_vs_module": {
            name: round(row["faults_per_sec"] / module_rate, 2)
            for name, row in results.items()
        },
        "outcomes_identical": True,
    }
    speedup = payload["speedup_vs_module"]["plan"]
    print(f"plan speedup vs module: {speedup:.2f}x (floor {floor:.2f}x)")
    if speedup < floor:
        raise SystemExit(
            f"plan engine is {speedup:.2f}x the module engine, below the "
            f"{floor:.2f}x floor set by {REFERENCE.name}"
        )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    payload["history"] = _appended_history(args.out, payload)
    serialized = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(args.out, serialized.encode("utf-8"))
    print(
        f"wrote {args.out} "
        f"({len(payload['history'])} history entr"
        f"{'y' if len(payload['history']) == 1 else 'ies'})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
