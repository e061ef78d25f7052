"""One workload in one fresh process; started by run.py, never by hand.

Imports zoqlab from the checkout's own src/ (and refuses any other copy),
sets the workload up, reports how long that took since run.py spawned the
process, then runs reps for the requested time and writes one JSON result
file. Untraced runs time every rep without spans and scale each time by the
machine's speed around it (speed.py). Traced runs alternate an untraced and
a traced rep, both unscaled, so the per-layer figures and the tracing
overhead come from the same process. A per-layer metric of a layer that the
workload never calls reads 0.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy
import scipy

import speed

ROOT = Path(__file__).resolve().parent.parent

# relative tolerance of eval_ppl_final against the value recorded for the seed
PPL_RTOL = 1e-6
# share of the zo_step span that its five phase spans must cover
PHASE_COVERAGE_MIN = 0.9

LINEARS = ("attn_q", "attn_k", "attn_v", "attn_o", "mlp_up", "mlp_down")
CALIB_LAYERS = tuple(f"block{b}.{n}" for b in range(2) for n in LINEARS)


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import zoqlab

    if Path(zoqlab.__file__).resolve().parent != ROOT / "src" / "zoqlab":
        raise SystemExit(f"zoqlab imported from {zoqlab.__file__}, not from this checkout")


def environment(seed: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def quantile(values, q):
    return float(numpy.percentile(values, q)) if values else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end(reps, probe) -> dict:
    for r in reps:
        r["wall_s_scaled"] = r["wall_s"] * probe.scale(r["start"], r["end"])
    op_ms = [(b - a - probing) * 1e3 * probe.scale(a, b) for r in reps for a, b, probing in r["ops"]]
    return {
        "wall_s": statistics.median(r["wall_s_scaled"] for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": ratio(len(op_ms), sum(r["wall_s_scaled"] for r in reps)),
        "op_p50_ms": quantile(op_ms, 50),
        "op_p90_ms": quantile(op_ms, 90),
    }


def per_layer(tr, traced, untraced, memory) -> dict:
    from tracer import CALLS, INCL, SELF, THEORY_FUNCTIONS, WORK

    n = len(traced)
    step = "zo.zo_step"
    steps = tr.total(step, CALLS)
    step_s = tr.total(step, INCL)

    def per_rep(name, field, scale=1.0):
        return tr.total(name, field) * scale / n

    def per_step_ms(name, field=INCL):
        return ratio(tr.total(name, field, phase=step) * 1e3, steps)

    normals = "numerics.normals_at"
    phases = {
        "zo.perturb_ms": "zo.add_direction",
        "zo.loss_eval_ms": "model.loss",
        "zo.update_ms": "zo.apply_directions",
        "zo.clamp_ms": "model.clamp_parameters",
        "zo.view_build_ms": "model.trainable_parameters",
    }
    m = {
        "numerics.normals_at.calls_per_step": ratio(tr.total(normals, CALLS, phase=step), steps),
        "numerics.normals_at.self_ms_per_step": per_step_ms(normals, SELF),
        "numerics.normals_at.draws_per_call": ratio(tr.total(normals, WORK), tr.total(normals, CALLS)),
        "numerics.normals_at.calls": per_rep(normals, CALLS),
        "numerics.normals_at.self_s": per_rep(normals, SELF),
    }
    m.update({metric: per_step_ms(span) for metric, span in phases.items()})
    m["zo.regen_share"] = ratio(tr.total(normals, SELF, phase=step), step_s)
    m["zo.phase_coverage"] = ratio(sum(tr.total(s, INCL, phase=step) for s in phases.values()), step_s)

    fq_act, fq_w = "quantizer.fake_quant.act", "quantizer.fake_quant.weight"
    m["quantizer.fake_quant.act_ms"] = per_rep(fq_act, INCL, 1e3)
    m["quantizer.fake_quant.weight_ms"] = per_rep(fq_w, INCL, 1e3)
    m["quantizer.fake_quant.calls"] = per_rep(fq_act, CALLS) + per_rep(fq_w, CALLS)
    m["quantizer.init_range.self_ms"] = per_rep("quantizer.init_range", SELF, 1e3)
    m["smoothing.apply_smoothing.self_ms"] = per_rep("smoothing.apply_smoothing", SELF, 1e3)

    for name in LINEARS:
        m[f"model.linear_forward.{name}.ms"] = per_rep(f"model.linear_forward.{name}", INCL, 1e3)
    m["model.forward.self_ms"] = per_rep("model.forward", SELF, 1e3)
    m["model.cross_entropy.ms"] = per_rep("model.cross_entropy", INCL, 1e3)
    m["model.forward.peak_traced_mb"] = memory["peak_bytes"] / 2**20
    m["diagnostics.fwd_bytes_model_ratio"] = ratio(memory["peak_bytes"], memory["model_bytes"])

    m["calibration.capture_activations.ms"] = per_rep("calibration.capture_activations", INCL, 1e3)
    for shape in ("attn", "mlp_up", "mlp_down"):
        m[f"calibration.reconstruct_layer.{shape}.s"] = per_rep(f"calibration.reconstruct_layer.{shape}", INCL)
    calibrate = "calibration.calibrate_model"
    layers = sum(
        tr.total(f"calibration.reconstruct_layer.{s}", CALLS) for s in ("attn", "mlp_up", "mlp_down")
    )
    fq_calib = tr.total(fq_act, CALLS, phase=calibrate) + tr.total(fq_w, CALLS, phase=calibrate)
    m["calibration.fake_quant_calls_per_layer"] = ratio(fq_calib, layers)

    for name in THEORY_FUNCTIONS:
        m[f"theory.{name}.s"] = per_rep(f"theory.{name}", INCL)
    m["theory.zo_gradient_scale.calls"] = per_rep("theory.zo_gradient_scale", CALLS)

    m["diagnostics.track.ms"] = per_rep("diagnostics.track", INCL, 1e3)
    m["cli.save_checkpoint.ms"] = per_rep("cli.save_checkpoint", INCL, 1e3)
    m["cli.sample_batch.ms"] = per_rep("cli.sample_batch", INCL, 1e3)

    quality = traced[-1]["quality"]
    m["eval_ppl_final"] = quality.get("eval_ppl_final", 0.0)
    m["ppl_drop_per_s"] = quality.get("ppl_drop_per_s", 0.0)
    m["calib_loss_ratio"] = quality.get("calib_loss_ratio", 0.0)
    ratios = quality.get("loss_ratio", {})
    for layer in CALIB_LAYERS:
        m[f"calibration.loss_ratio.{layer}"] = ratios.get(layer, 0.0)
    m["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in untraced
    )
    return m


def forward_memory(workload) -> dict:
    """tracemalloc peak of one qat forward of the workload's last model, and the model's estimate."""
    from zoqlab.diagnostics import transient_forward_bytes

    model = workload.last_model
    if model is None:
        return {"peak_bytes": 0, "model_bytes": 0}
    tracemalloc.start()
    try:
        model.forward(workload.memory_batch, mode="qat")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"peak_bytes": peak, "model_bytes": transient_forward_bytes(model.config, len(workload.memory_batch))}


def check(workload_name, seed, size, reps, metrics, traced) -> list:
    """Names of the failed correctness checks (empty when all pass)."""
    failures = sorted({f for r in reps for f in r["failures"]})
    finals = {r["quality"]["eval_ppl_final"] for r in reps if "eval_ppl_final" in r["quality"]}
    if len(finals) > 1:
        failures.append(f"eval_ppl_final differs between reps: {sorted(finals)}")
    recorded = json.loads((ROOT / "perfbench" / "expected_ppl.json").read_text())
    expected = recorded.get(size, {}).get(workload_name, {}).get(str(seed))
    if expected is not None:
        for got in finals:
            if abs(got - expected) > PPL_RTOL * expected:
                failures.append(f"eval_ppl_final {got!r} != recorded {expected!r} (rtol {PPL_RTOL})")
    if traced and workload_name.startswith("zo_") and metrics["zo.phase_coverage"] < PHASE_COVERAGE_MIN:
        failures.append(f"zo phases cover {metrics['zo.phase_coverage']:.3f} of zo_step")
    return failures


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import_program()
    import workloads

    workload = workloads.make(args.workload, args.seed, args.size, args.out)
    setup_s = time.monotonic() - args.spawned_at
    probe = speed.NoProbe() if args.trace else speed.SpeedProbe()
    probe.sample(5)
    result = {"setup_s_raw": setup_s}
    if not args.trace:
        result["setup_s"] = setup_s * speed.REF_MS / statistics.median(probe.ms)
    if not args.setup_only:
        result.update(measure(workload, args, probe))
    Path(args.result).write_text(json.dumps(result))
    return 0


def summary(rep) -> dict:
    keys = ("wall_s", "wall_s_scaled", "attempted", "failed", "quality")
    return dict({k: rep[k] for k in keys if k in rep}, ops=len(rep["ops"]))


def measure(workload, args, probe) -> dict:
    import workloads
    from tracer import Tracer

    tr = Tracer() if args.trace else None
    untraced, traced = [], []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        untraced.append(workload.rep(workloads.Untraced, probe))
        if tr is not None:
            tr.install()
            try:
                traced.append(workload.rep(tr, probe))
            finally:
                tr.uninstall()
        now = time.perf_counter()
        if now - t_start + (now - t_round) > args.seconds:
            break
    reps = untraced + traced
    if tr is None:
        metrics = end_to_end(untraced, probe)
    else:
        metrics = per_layer(tr, traced, untraced, forward_memory(workload))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    metrics["failed_frac"] = failed / attempted
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": check(args.workload, args.seed, args.size, reps, metrics, tr is not None),
        "environment": environment(args.seed),
        "op": workload.op,
        "reps": [summary(r) for r in untraced],
        "traced_reps": [summary(r) for r in traced],
        "speed_probe_ms": getattr(probe, "ms", []),
        "spans": tr.table() if tr is not None else [],
    }


if __name__ == "__main__":
    sys.exit(main())
