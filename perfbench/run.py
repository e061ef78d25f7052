"""The zoqlab benchmark: one workload per call, each in a fresh process.

    python3 perfbench/run.py --workload zo_w4a4 --seed 0 --seconds 15 --trace 0

Workloads and metrics are declared in BENCHMARK.json at the repository root.
With --trace 0 the last line of stdout is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric, taken from
a separate traced run. Each call also writes
.perfbench_out/BENCH_<workload>_seed<seed>_trace<trace>.json with the metrics
(value, unit, better), the correctness checks, the per-span table of a traced
run and the environment (CPUs, BLAS and its threads, versions, commit, seed).

The workload runs in a child process (worker.py) with BLAS pinned to
BLAS_THREADS threads; children run one at a time. setup_s is the median over
SETUP_RUNS processes of the time from spawning the process until the
workload is ready, imports included. End-to-end times are scaled to a
reference machine speed measured during the run (speed.py); the raw times
are in the result file too.

The smoke tests (test_smoke.py) run every workload with --size tiny.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
BLAS_THREADS = 1
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170


def pinned_env() -> dict:
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, result: Path, setup_only: bool) -> dict:
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--out", str(args.out),
        "--result", str(result),
        "--spawned-at", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=pinned_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker for {args.workload} exited with code {proc.returncode}")
    out = json.loads(result.read_text())
    result.unlink()
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for smoke tests")
    p.add_argument("--out", type=Path, default=ROOT / ".perfbench_out")
    args = p.parse_args(argv)
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    scratch = args.out / f"worker-{os.getpid()}.json"

    setups = []
    if not args.trace:
        setups = [run_worker(args, scratch, setup_only=True) for _ in range(SETUP_RUNS - 1)]
    res = run_worker(args, scratch, setup_only=False)
    computed = dict(res["metrics"])
    if not args.trace:
        setups.append(res)
        computed["setup_s"] = statistics.median(s["setup_s"] for s in setups)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in computed]
    if missing:
        raise SystemExit(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}
    correct = res["failed"] == 0 and not res["failures"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "metrics": {m["name"]: dict(metrics[m["name"]], better=m["better"]) for m in declared},
        "op": res["op"],
        "setup_runs": [{k: s[k] for k in ("setup_s", "setup_s_raw")} for s in setups],
        "speed_probe_ms": res["speed_probe_ms"],
        "environment": dict(res["environment"], blas_threads_pinned=BLAS_THREADS),
        "reps": res["reps"],
        "traced_reps": res["traced_reps"],
        "spans": res["spans"],
    }
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (args.out / name).write_text(json.dumps(record, indent=1))

    for failure in res["failures"]:
        print(f"check failed: {failure}")
    for key, m in metrics.items():
        print(f"{key:45s} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
