"""Tests of the campaign benchmark itself.

Run from the repository root (the end-to-end tests take a few minutes)::

    PYTHONPATH=src python3 -m pytest campaignbench/test_campaignbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=240,
    )


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    end_to_end, _ = run.metric_units()
    record = measure.UnitRecord(0, 0.1, 0.1, None, workloads.UnitOutcome(10, 5, True))
    measured, _ = measure.end_to_end([record] * 12, 12)
    assert set(end_to_end) == {*measured, "setup_s"} - {"failed_frac"}
    assert [m["name"] for m in spec["per_layer"]] == measure.per_layer_names()


def test_exhaustive_slice_covers_every_bit_once_and_every_layer_equally():
    cells = workloads.exhaustive_slice(8)
    assert sorted(bit for _, bit in cells) == list(range(32))
    assert [sum(1 for layer, _ in cells if layer == l) for l in range(8)] == [4] * 8


def test_tail_percentile_leaves_ten_units_beyond():
    for units in (64, 60, 120):
        values = list(range(units))
        q = measure.tail_percentile(units)
        assert values[-10:][0] > measure.nearest_rank(values, q)
        assert sum(v > measure.nearest_rank(values, q) for v in values) == 10


def test_self_time_subtracts_only_same_process_children():
    spans = [
        {"id": "1:1", "parent": None, "pid": 1, "layer": "bench", "start": 0.0, "end": 10.0},
        {"id": "1:2", "parent": "1:1", "pid": 1, "layer": "sfi", "start": 1.0, "end": 5.0},
        {"id": "1:3", "parent": "1:2", "pid": 1, "layer": "faults", "start": 2.0, "end": 3.0},
        {"id": "2:4", "parent": "1:2", "pid": 2, "layer": "dist", "start": 2.0, "end": 9.0},
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {"1:1": 6.0, "1:2": 3.0, "1:3": 1.0, "2:4": 7.0}
    by_layer = tracing.layer_self_seconds(spans, 1)
    assert by_layer["bench"] == 6.0 and by_layer["dist"] == 0.0
    assert sum(by_layer.values()) == 10.0


def test_patch_records_spans_and_unpatch_restores_every_owner():
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f

    class Owner:
        def method(self, x):
            return module.f(x) * 2

    obj = Owner()
    tracer = tracing.Tracer()
    tracer.patch(module, "f", "mod.f", "sfi")
    tracer.patch(Owner, "method", "owner.method", "faults")
    tracer.patch(obj, "method", "obj.method", "runtime", lambda a, r: {"r": r})
    assert obj.method(1) == 4
    names = {s["name"]: s for s in tracer.spans}
    assert set(names) == {"mod.f", "owner.method", "obj.method"}
    assert names["mod.f"]["parent"] == names["owner.method"]["id"]
    assert names["owner.method"]["parent"] == names["obj.method"]["id"]
    assert names["obj.method"]["attrs"] == {"r": 4}
    tracer.unpatch()
    assert module.f is original
    assert "method" not in vars(obj)
    assert Owner.__dict__["method"].__name__ == "method"


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "exhaustive_resnet8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_flipped_reference_outcome_fails_the_run(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--flip-reference")
    assert proc.returncode == 1, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "FAILED:" in proc.stdout
