"""One measuring process: set up a workload, run it, print one JSON line.

Started by ``run.py`` (never by hand): with ``--setup-only`` it stops
once set-up is done and reports ``setup_s``; otherwise it repeats whole
passes of the workload's units for about ``--seconds`` (at least the
workload's ``min_passes``) and reports the end-to-end figures, or with
``--trace 1`` one untraced and one traced pass and the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.check
import repro.dist.queue
import repro.dist.supervisor
import repro.dist.worker
import repro.faults.table
import repro.nn.serialization
import repro.sfi.runner
import repro.store.atomic
import repro.store.manifest
import repro.store.npz
import workloads
from repro.backends import resolve_backend
from repro.dist import SampledContext, ShardQueue, ShardWorker
from repro.faults import OutcomeTable, TableOracle
from repro.runtime import DEFAULT_BATCH_SIZE, create_engine
from repro.sfi.planners import DataAwareSFI, DataUnawareSFI
from repro.sfi.runner import CampaignRunner
from tracing import Tracer, layer_self_seconds, write_span_file
from workloads import WORKLOADS, UnitOutcome

#: Op kinds of the unfused ResNet plans, plus the two primitives the
#: engine calls outside plan dispatch.
BACKEND_KINDS = (
    "conv2d", "batchnorm2d", "linear", "relu", "global_avg_pool2d",
    "add", "subsample2d", "pad_channels", "gemm", "im2col",
)
#: Fault layers reported one by one (resnet8_mini, the inference workload's
#: model, has 8).
MAX_FAULT_LAYERS = 8
#: Extra units beyond the tail percentile, per the percentile rule.
TAIL_BEYOND = 10


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = [f"runtime.layer{i:02d}.ms_per_fault" for i in range(MAX_FAULT_LAYERS)]
    names += [
        "runtime.self_s", "runtime.precertified_frac", "runtime.dense_fallback_frac",
        "runtime.certified_rows_frac", "runtime.ops_cached_frac", "runtime.build_s",
    ]
    for kind in BACKEND_KINDS:
        names += [f"backends.{kind}.s", f"backends.{kind}.calls"]
    names += [
        "backends.gemm.gflop", "backends.gemm.gflops", "backends.self_s",
        "faults.masked_frac", "faults.oracle_us_per_fault", "faults.table_load_s",
        "faults.self_s",
        "sfi.plan_s", "sfi.sample_us_per_fault", "sfi.validate_s", "sfi.self_s",
        "dist.submit_ms", "dist.merge_ms", "dist.worker_busy_frac", "dist.idle_ms",
        "dist.shards_retried", "dist.shards_poisoned", "dist.self_s",
        "store.atomic_writes", "store.write_ms", "store.verify_s", "store.self_s",
        "check.verify_plan_s",
        "trace.overhead_frac", "trace.accounted_frac",
    ]
    return names


@dataclass
class UnitRecord:
    pass_index: int
    wall: float
    cpu: float
    layer: int | None
    outcome: UnitOutcome


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(workload, pass_index: int) -> list[UnitRecord]:
    """Execute one pass; an exception fails its unit, not the run."""
    records = []
    for unit in workload.units(pass_index):
        layer = workload.fault_layer(unit)
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            output = workload.execute(unit)
        except Exception as exc:  # a failed unit is counted, the run goes on
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
            traceback.print_exc(file=sys.stderr)
            records.append(
                UnitRecord(pass_index, wall, cpu, layer, UnitOutcome(0, 0, False, repr(exc)))
            )
            continue
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        try:
            outcome = workload.check(unit, output)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            outcome = UnitOutcome(0, 0, False, repr(exc))
        records.append(UnitRecord(pass_index, wall, cpu, layer, outcome))
    return records


def run_for(workload, seconds: float) -> tuple[list[UnitRecord], int]:
    """Whole passes, at least ``min_passes``, ending as near *seconds* as passes allow."""
    records: list[UnitRecord] = []
    passes = 0
    start = time.perf_counter()
    while True:
        records += run_pass(workload, passes)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= workload.min_passes and elapsed + 0.5 * elapsed / passes > seconds:
            return records, passes


def tail_percentile(units: int) -> float:
    """Highest nearest-rank percentile leaving TAIL_BEYOND of *units* beyond it."""
    return max(0.0, 100.0 * (units - TAIL_BEYOND) / units)


def rank_of(percentile: float, count: int) -> int:
    """Nearest rank of *percentile* among *count* values (1-based).

    The product is rounded first: 91.66...% of 120 must give rank 110,
    not the 111 that ``ceil`` of ``110.00000000000001`` would.
    """
    return max(1, math.ceil(round(percentile / 100.0 * count, 9)))


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[rank_of(percentile, len(ordered)) - 1]


def end_to_end(records: list[UnitRecord], min_units: int) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced run, plus their sample counts.

    Rates are medians over passes; unit times pool every unit of every
    pass.  The tail percentile is
    fixed per workload by *min_units*, the units of its minimum run.
    """
    walls = [r.wall for r in records]
    passes = sorted({r.pass_index for r in records})
    per_pass = [[r for r in records if r.pass_index == k] for k in passes]
    faults = [sum(r.outcome.faults for r in rs) for rs in per_pass]
    failed = sum(not r.outcome.ok for r in records)
    percentile = tail_percentile(min_units)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "faults_per_s": statistics.median(
            f / sum(r.wall for r in rs) for f, rs in zip(faults, per_pass)
        ),
        "unit_p50_ms": 1000.0 * statistics.median(walls),
        "unit_tail_ms": 1000.0 * nearest_rank(walls, percentile),
        "peak_rss_mb": (own + kids) / 1024.0,
        "cpu_ms_per_fault": statistics.median(
            1000.0 * sum(r.cpu for r in rs) / max(f, 1) for f, rs in zip(faults, per_pass)
        ),
        "failed_frac": failed / len(records),
    }
    samples = {
        "passes": len(passes),
        "units": len(records),
        "faults": sum(faults),
        "failed": failed,
        "tail_percentile": round(percentile, 4),
        "units_beyond_tail": len(records) - rank_of(percentile, len(records)),
    }
    return metrics, samples


# -- tracing hooks -------------------------------------------------------------


def _n_faults(args, result):
    return {"n": len(args[-1])}


def _cell(args, result):
    return {"n": int(result[0].size), "fault_layer": int(args[2])}


def _fault_batch(args, result):
    faults = args[0]
    return {"n": len(faults), "fault_layer": int(faults[0].layer) if faults else -1}


def _run_op(args, result):
    op = args[0]
    attrs = {"kind": op.kind}
    if op.kind in ("conv2d", "linear"):
        weight = op.module.weight.data
        attrs["flops"] = 2.0 * result.size * (weight.size // weight.shape[0])
    return attrs


def _gemm(args, result):
    return {"kind": "gemm", "flops": 2.0 * result.size * args[0].shape[-1]}


def _im2col(args, result):
    return {"kind": "im2col"}


def _sample(args, result):
    return {"n": int(args[1])}


def _fail(args, result):
    return {"outcome": str(result), "error": str(args[2])[:300]}


def install_static_hooks(tracer: Tracer) -> None:
    """Wrap module functions and class methods of every layer."""
    p = tracer.patch
    backend = resolve_backend(None)
    p(backend, "run_op", "backends.run_op", "backends", _run_op)
    p(backend, "gemm", "backends.gemm", "backends", _gemm)
    p(backend, "im2col", "backends.im2col", "backends", _im2col)
    p(workloads, "create_engine", "runtime.create_engine", "runtime")
    p(repro.check, "check_plan", "check.check_plan", "check")
    p(workloads, "timed_classify_cell", "faults.timed_classify_cell", "faults", _cell)
    p(OutcomeTable, "load", "faults.OutcomeTable.load", "faults")
    p(TableOracle, "classify_many", "faults.TableOracle.classify_many", "faults", _n_faults)
    p(DataAwareSFI, "plan", "sfi.plan", "sfi")
    p(DataUnawareSFI, "plan", "sfi.plan", "sfi")
    for module in (repro.sfi.runner, repro.dist.worker):
        p(module, "execute_plan_items", "sfi.execute_plan_items", "sfi")
    p(repro.sfi.runner, "sample_subpopulation", "sfi.sample_subpopulation", "sfi", _sample)
    p(CampaignRunner, "run", "sfi.CampaignRunner.run", "sfi")
    p(workloads, "validate_campaign", "sfi.validate_campaign", "sfi")
    p(workloads, "run_sharded_campaign", "dist.run_sharded_campaign", "dist")
    p(ShardQueue, "submit", "dist.submit", "dist")
    p(ShardQueue, "fail", "dist.fail", "dist", _fail)
    p(repro.dist.supervisor, "merge_sampled", "dist.merge_sampled", "dist")
    p(SampledContext, "run_shard", "dist.run_shard", "dist")
    p(ShardWorker, "run", "dist.ShardWorker.run", "dist", after=tracer.dump_if_child)
    for module in (repro.store.atomic, repro.store.manifest, repro.dist.queue):
        p(module, "atomic_write_bytes", "store.atomic_write_bytes", "store")
    p(repro.dist.queue, "save_verified_npz", "store.save_verified_npz", "store")
    for module in (repro.dist.queue, repro.faults.table, repro.nn.serialization):
        p(module, "load_verified_npz", "store.load_verified_npz", "store")
    p(repro.store.npz, "verify_artifact", "store.verify_artifact", "store")


def install_instance_hooks(tracer: Tracer, workload) -> None:
    """Wrap the live engine's classification entry points."""
    engine = workload.engine
    if engine is None:
        return
    tracer.patch(engine, "classify_many", "faults.classify_many", "faults", _n_faults)
    tracer.patch(engine, "predictions_for_faults", "runtime.predictions_for_faults",
                 "runtime", _fault_batch)


# -- per-layer metrics -----------------------------------------------------------


def _sum(spans, name, field=None):
    chosen = [s for s in spans if s["name"] == name]
    if field is None:
        return sum(s["end"] - s["start"] for s in chosen)
    return sum(s["attrs"].get(field, 0) for s in chosen)


def _engine_counters(engine) -> dict:
    names = ("inference_count", "precertified", "dense_fallback_faults",
             "certified_rows", "ops_cached", "ops_executed")
    if engine is None:
        return {}
    return {n: getattr(engine, n) for n in names if hasattr(engine, n)}


def per_layer(setup_spans, pass_spans, pid, records, workload, counters,
              traced_wall, untraced_wall) -> dict:
    """Derive every per-layer metric from one traced pass and its set-up."""
    m = {name: 0.0 for name in per_layer_names()}
    parent = [s for s in pass_spans if s["pid"] == pid]
    faults = sum(r.outcome.faults for r in records)
    masked = sum(r.outcome.masked for r in records)

    layer_faults: dict[int, int] = {}
    for r in records:
        if r.layer is not None:
            layer_faults[r.layer] = layer_faults.get(r.layer, 0) + r.outcome.faults
    for span in parent:
        if span["name"] == "runtime.predictions_for_faults":
            layer = span["attrs"]["fault_layer"]
            if layer < MAX_FAULT_LAYERS and layer_faults.get(layer):
                key = f"runtime.layer{layer:02d}.ms_per_fault"
                m[key] += 1000.0 * (span["end"] - span["start"]) / layer_faults[layer]

    before, after = counters
    delta = {k: after[k] - before[k] for k in after}
    inferences = delta.get("inference_count", 0)
    if inferences:
        images = len(workload.engine.images)
        m["runtime.precertified_frac"] = delta.get("precertified", 0) / inferences
        m["runtime.dense_fallback_frac"] = delta.get("dense_fallback_faults", 0) / inferences
        m["runtime.certified_rows_frac"] = delta.get("certified_rows", 0) / (inferences * images)
    ops = delta.get("ops_cached", 0) + delta.get("ops_executed", 0)
    if ops:
        m["runtime.ops_cached_frac"] = delta["ops_cached"] / ops
    m["runtime.build_s"] = _sum(setup_spans, "runtime.create_engine")

    gemm_flops = gemm_time = 0.0
    for span in pass_spans:
        if not span["name"].startswith("backends."):
            continue
        kind = span["attrs"].get("kind")
        if kind in BACKEND_KINDS:
            m[f"backends.{kind}.s"] += span["end"] - span["start"]
            m[f"backends.{kind}.calls"] += 1
        if "flops" in span["attrs"]:
            gemm_flops += span["attrs"]["flops"]
            gemm_time += span["end"] - span["start"]
    m["backends.gemm.gflop"] = gemm_flops / 1e9
    m["backends.gemm.gflops"] = gemm_flops / 1e9 / gemm_time if gemm_time else 0.0

    m["faults.masked_frac"] = masked / faults if faults else 0.0
    oracle_n = _sum(pass_spans, "faults.TableOracle.classify_many", "n")
    if oracle_n:
        m["faults.oracle_us_per_fault"] = (
            1e6 * _sum(pass_spans, "faults.TableOracle.classify_many") / oracle_n
        )
    m["faults.table_load_s"] = _sum(setup_spans, "faults.OutcomeTable.load")

    m["sfi.plan_s"] = _sum(setup_spans, "sfi.plan")
    sampled = _sum(pass_spans, "sfi.sample_subpopulation", "n")
    if sampled:
        m["sfi.sample_us_per_fault"] = (
            1e6 * _sum(pass_spans, "sfi.sample_subpopulation") / sampled
        )
    m["sfi.validate_s"] = _sum(pass_spans, "sfi.validate_campaign")

    campaigns = [s for s in parent if s["name"] == "dist.run_sharded_campaign"]
    if campaigns:
        m.update(_dist_metrics(pass_spans, campaigns))
    units = max(len(campaigns), 1)
    writes = [s for s in pass_spans if s["name"] == "store.atomic_write_bytes"]
    m["store.atomic_writes"] = len(writes) / units
    by_id = {s["id"]: s for s in pass_spans}
    top_writes = [
        s for s in pass_spans
        if s["name"] in ("store.atomic_write_bytes", "store.save_verified_npz")
        and by_id.get(s["parent"], {"layer": ""})["layer"] != "store"
    ]
    m["store.write_ms"] = 1000.0 * sum(s["end"] - s["start"] for s in top_writes) / units
    m["store.verify_s"] = _sum(setup_spans, "store.verify_artifact")
    m["check.verify_plan_s"] = _sum(setup_spans, "check.check_plan")

    selfs = layer_self_seconds(pass_spans, pid)
    for layer in ("runtime", "backends", "faults", "sfi", "dist", "store"):
        m[f"{layer}.self_s"] = selfs[layer]
    accounted = sum(v for k, v in selfs.items() if k != "bench")
    m["trace.accounted_frac"] = accounted / traced_wall
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return m


def _dist_metrics(spans, campaigns) -> dict:
    """Submit/merge cost and worker utilisation per sharded campaign."""
    children: dict[str, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    submit = merge = busy_total = capacity = idle = 0.0
    retried = poisoned = 0
    for c in campaigns:
        kids = children.get(c["id"], [])
        sub = [s for s in kids if s["name"] == "dist.submit"]
        mer = [s for s in kids if s["name"] == "dist.merge_sampled"]
        submit += sum(s["end"] - s["start"] for s in sub)
        merge += sum(s["end"] - s["start"] for s in mer)
        drain_start = max((s["end"] for s in sub), default=c["start"])
        drain_end = min((s["start"] for s in mer), default=c["end"])
        drain = max(drain_end - drain_start, 1e-9)
        workers = [s for s in kids if s["name"] == "dist.ShardWorker.run"
                   and s["pid"] != c["pid"]]
        busy = [
            sum(x["end"] - x["start"] for x in children.get(w["id"], [])
                if x["name"] == "dist.run_shard")
            for w in workers
        ]
        busy_total += sum(busy)
        capacity += max(len(workers), 1) * drain
        idle += drain - max(busy, default=0.0)
    # Worker failures and lease expiries both end in ShardQueue.fail.
    for s in spans:
        if s["name"] == "dist.fail":
            retried += s["attrs"].get("outcome") == "requeued"
            poisoned += s["attrs"].get("outcome") == "poisoned"
    n = len(campaigns)
    return {
        "dist.submit_ms": 1000.0 * submit / n,
        "dist.merge_ms": 1000.0 * merge / n,
        "dist.worker_busy_frac": busy_total / capacity,
        "dist.idle_ms": 1000.0 * idle / n,
        "dist.shards_retried": float(retried),
        "dist.shards_poisoned": float(poisoned),
    }


def stamp(workload) -> dict:
    """The measuring process's half of the environment stamp."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    engine = workload.engine
    backend = engine.backend if engine is not None else resolve_backend(None)
    defaults = {
        "kind": create_engine.__kwdefaults__["kind"],
        "batch_size": DEFAULT_BATCH_SIZE,
    }
    if engine is not None:
        defaults = {"kind": engine.kind, "batch_size": int(engine.batch_size)}
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "backend": backend.attestation(),
        "engine": defaults,
    }


def traced_run(args, tracer: Tracer, workload, out_dir: Path) -> dict:
    """Untraced then traced pass of the same inputs -> per-layer metrics."""
    setup_spans = list(tracer.spans)
    tracer.unpatch()
    tracer.spans.clear()
    start = time.perf_counter()
    run_pass(workload, 0)
    untraced_wall = time.perf_counter() - start

    install_static_hooks(tracer)
    install_instance_hooks(tracer, workload)
    before = _engine_counters(workload.engine)
    with tracer.span("bench.pass", "bench") as root:
        records = run_pass(workload, 0)
    tracer.unpatch()
    after = _engine_counters(workload.engine)
    traced_wall = root["end"] - root["start"]
    pass_spans = tracer.spans + tracer.collect_children()
    metrics = per_layer(setup_spans, pass_spans, os.getpid(), records, workload,
                        (before, after), traced_wall, untraced_wall)
    span_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_root": root["id"],
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "setup_span_ids": [s["id"] for s in setup_spans],
    }
    write_span_file(span_path, setup_spans + pass_spans, meta)
    return {
        "metrics": metrics,
        "records": records,
        "span_file": str(span_path),
        "spans": len(setup_spans) + len(pass_spans),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--flip-reference", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        spans_dir = args.out / f"worker-spans-{os.getpid()}"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer = Tracer(child_dir=spans_dir)
        install_static_hooks(tracer)
    workload = WORKLOADS[args.workload](args.seed, flip_reference=args.flip_reference)
    workload.setup()
    setup_s = time.monotonic() - args.spawned_at
    result: dict = {"setup_s": setup_s, "stamp": stamp(workload)}
    try:
        if args.setup_only:
            pass
        elif tracer is None:
            units_per_pass = len(workload.units(0))
            records, _ = run_for(workload, args.seconds)
            metrics, samples = end_to_end(records, workload.min_passes * units_per_pass)
            samples.update(units_per_pass=units_per_pass)
            result.update(metrics=metrics, samples=samples)
        else:
            traced = traced_run(args, tracer, workload, args.out)
            records = traced.pop("records")
            samples = {"units": len(records), "faults": sum(r.outcome.faults for r in records)}
            result.update(traced, samples=samples)
            shutil.rmtree(spans_dir, ignore_errors=True)
        if not args.setup_only:
            result["attempted"] = len(records)
            result["failed"] = sum(not r.outcome.ok for r in records)
            result["failures"] = [r.outcome.detail for r in records if not r.outcome.ok][:5]
    finally:
        workload.close()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
