"""Campaign benchmark: one command, two workloads, every metric by name.

Run from the repository root::

    python3 campaignbench/run.py --workload exhaustive_resnet8 --seed 1 \
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics (tracing off); ``--trace 1``
runs the traced pass and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric with its unit and sample counts and the environment stamp.
The full result, stamp included, is also written under
``campaignbench/out/``.  The exit code is 0 only when every unit matched
its reference and ``artifacts/`` is byte-identical after the run.

This file uses the standard library only, so it can refuse to run (exit
code 2, no result) where the program's sources or artifacts are absent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exhaustive_resnet8", "replay_sharded_resnet14")
#: Fresh processes whose set-up times give the median ``setup_s``
#: (the measuring process is one of them).
SETUP_SAMPLES = 3
#: Thread-count variables pinned to 1 in the measuring process, whatever
#: the caller set.  On the 2-core reference host two BLAS threads gave a
#: data-aware MobileNet campaign about the same throughput with 40-50%
#: more CPU per fault and a several times wider run-to-run spread
#: (threads spin between the small GEMMs).  A change that wants more
#: threads must set them in the program.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Seconds all measuring processes of one run may take before they are killed.
RUN_TIMEOUT = 170.0



def metric_units() -> tuple[list[str], dict[str, str]]:
    """End-to-end metric names and every metric's unit, from BENCHMARK.json.

    ``failed_frac`` is printed besides them but is not listed there: it
    is 0 on a correct run, so it cannot carry a relative bound; the
    result's ``attempted``/``failed`` counts carry it.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return [m["name"] for m in spec["end_to_end"]], units


def sample_note(name: str, samples: dict) -> str:
    """How many samples an end-to-end figure rests on."""
    if name in ("faults_per_s", "cpu_ms_per_fault"):
        return f"median of {samples['passes']} passes, {samples['faults']} faults"
    if name == "unit_p50_ms":
        return f"{samples['units']} units"
    if name == "unit_tail_ms":
        return (f"p{samples['tail_percentile']:g} of {samples['units']} units, "
                f"{samples['units_beyond_tail']} beyond")
    if name == "setup_s":
        return f"median of {len(samples['setup_samples'])} fresh processes"
    return "whole run"


def artifact_digests() -> dict[str, str]:
    """SHA-256 of every file under ``artifacts/`` (manifests included)."""
    digests = {}
    base = ROOT / "artifacts"
    for path in sorted(p for p in base.rglob("*") if p.is_file()):
        digests[str(path.relative_to(base))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def source_digest() -> str:
    """SHA-256 over the program's Python sources (the checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def child_env(out: Path) -> dict[str, str]:
    """The measuring process's environment: defaults, and no escape from the checkout.

    ``REPRO_*`` overrides are dropped so the program's defaults are what
    is measured, and thread counts are pinned; temporary files stay
    inside ``out``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(dict.fromkeys(PINNED_THREADS, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_ARTIFACTS"] = str(ROOT / "artifacts")
    env["TMPDIR"] = str(out / "tmp")
    return env


def spawn(args, out: Path, deadline: float, *, setup_only: bool) -> dict:
    """Run one measuring process to completion; its last line is its result."""
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out), "--spawned-at", repr(time.monotonic()),
    ]
    if setup_only:
        command.append("--setup-only")
    if args.flip_reference:
        command.append("--flip-reference")
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(out), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"run exceeded {RUN_TIMEOUT:.0f} s")
    finally:
        # Forked campaign workers share the session; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"measuring process failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--flip-reference", action="store_true",
        help="corrupt one reference outcome in memory; the run must fail",
    )
    args = parser.parse_args(argv)

    missing = [p for p in ("src/repro", "artifacts/exhaustive", "artifacts/weights")
               if not (ROOT / p).is_dir()]
    if missing:
        print(f"campaignbench: not a repository checkout, missing {missing}", file=sys.stderr)
        return 2

    out = HERE / "out"
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    stamp = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "openblas_num_threads_measured": child_env(out)["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
    }
    before = artifact_digests()
    deadline = time.monotonic() + RUN_TIMEOUT
    setups: list[float] = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(args, out, deadline, setup_only=True)["setup_s"])
        result = spawn(args, out, deadline, setup_only=False)
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"campaignbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out / "tmp", ignore_errors=True)
    setups.append(result["setup_s"])
    stamp.update(result.pop("stamp"), loadavg_end=os.getloadavg())
    untouched = artifact_digests() == before

    end_to_end, units = metric_units()
    values = result["metrics"]
    if not args.trace:
        values = dict(values, setup_s=statistics.median(setups))
    names = list(values) if args.trace else end_to_end
    metrics = {n: (values[n], units[n]) for n in names}
    samples = dict(result["samples"], setup_samples=setups)
    correct = result["failed"] == 0 and untouched

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"samples {json.dumps(samples, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        note = "" if args.trace else f"  ({sample_note(name, samples)})"
        print(f"  {name:<34} {value:>14.6g} {unit}{note}")
    if not args.trace:
        print(f"  {'failed_frac':<34} {values['failed_frac']:>14.6g} fraction"
              f"  ({result['failed']} of {result['attempted']} units)")
    if not untouched:
        print("FAILED: artifacts/ changed during the run")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print(f"stamp {json.dumps(stamp, sort_keys=True)}")

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "stamp": stamp, "samples": samples,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "failed_frac": result["failed"] / result["attempted"],
        "attempted": result["attempted"], "failed": result["failed"],
        "artifacts_untouched": untouched, "span_file": result.get("span_file"),
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")

    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
