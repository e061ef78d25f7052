"""Smoke tests of the benchmark itself: every workload at tiny size, untraced and traced.

    python3 -m pytest -q perfbench/test_smoke.py

They take about a minute, most of it verify_quick, whose suite has no tiny size.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENVIRONMENT_KEYS = {"cpu_count", "blas", "blas_threads", "python", "numpy", "scipy", "git_commit", "seed"}


def bench(cwd: Path, out: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, tmp_path):
    records = {}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(ROOT, tmp_path, workload, trace)
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        declared = SPEC[kind]
        assert list(line["metrics"]) == [m["name"] for m in declared]
        record = json.loads((tmp_path / f"BENCH_{workload}_seed0_trace{trace}.json").read_text())
        for m in declared:
            emitted, recorded = line["metrics"][m["name"]], record["metrics"][m["name"]]
            assert emitted["unit"] == recorded["unit"] == m["unit"]
            assert recorded["better"] == m["better"]
            assert emitted["value"] == recorded["value"] and math.isfinite(emitted["value"])
        assert ENVIRONMENT_KEYS <= set(record["environment"])
        records[trace] = record
    traced_ppl = records[1]["metrics"]["eval_ppl_final"]["value"]
    assert {r["quality"].get("eval_ppl_final", 0.0) for r in records[0]["reps"]} == {traced_ppl}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, tmp_path / "out", "zo_w4a4", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_per_op_table(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/ops.py", "--size", "tiny", "--repeat", "1", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads((tmp_path / "BENCH_ops.json").read_text())["rows"]
    ops = {r["op"] for r in rows}
    assert {"fake_quant act", "fake_quant weight", "normals_at n=1", "reconstruct_layer mlp_down"} <= ops
    assert all(r["per_call_ms"] > 0 for r in rows)
