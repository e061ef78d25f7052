"""Per-op timing table: direct calls of single zoqlab functions on captured inputs.

    python3 perfbench/ops.py [--seed 0] [--repeat 7] [--size full]

Reproduces the rows of the ROADMAP Baseline table one op at a time: a
forward + loss in qat and fp, each linear in fp and qat, fake_quant on an
activation and on a weight, init_range, apply_smoothing, cross_entropy,
normals_at at several draw counts (cost per call against cost per draw), one
zo_step, and reconstruct_layer for each layer shape. Inputs are captured from
one full-precision forward of a seeded batch. Each time is the median over
--repeat samples; a sample loops the call until it lasts MIN_SAMPLE_S, and an
op stops sampling after OP_BUDGET_S. BLAS is pinned as in run.py. The table
and the environment go to .perfbench_out/BENCH_ops.json.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import statistics
import time

from run import BLAS_THREADS, ROOT, pinned_env

os.environ.update(pinned_env())  # before numpy loads, as for the workers

from worker import environment, import_program  # noqa: E402

MIN_SAMPLE_S = 0.05
OP_BUDGET_S = 10.0


def per_call_s(fn, repeat: int) -> float:
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    loops = max(1, int(MIN_SAMPLE_S / max(first, 1e-9)))
    samples = [] if loops > 1 else [first]
    spent = first
    while len(samples) < repeat and (spent < OP_BUDGET_S or not samples):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        dt = time.perf_counter() - t0
        spent += dt
        samples.append(dt / loops)
    return statistics.median(samples)


def ops(seed: int, size_name: str):
    """(op, what the call covers, callable) for every row of the table."""
    import workloads
    from zoqlab import cli
    from zoqlab.calibration import capture_activations, reconstruct_layer
    from zoqlab.model import QuantPlan, build_model, cross_entropy, linear_forward
    from zoqlab.numerics import normals_at
    from zoqlab.quantizer import fake_quant, init_range
    from zoqlab.smoothing import apply_smoothing
    from zoqlab.zo import zo_step

    size = workloads.SIZES[size_name]
    train, _ = cli.ingest_corpus(cli.default_corpus_path(), size.model.context, seed)
    model = build_model(size.model, QuantPlan(4, 4), seed)
    batch = cli.sample_batch(train, workloads.BATCH_SIZE, seed, 0)
    captured = {}
    model.forward(batch, mode="fp", capture=captured)
    calib = capture_activations(model, train[: size.calib_seqs])
    block = model.blocks[0]
    x = captured["block0.attn_q"][0]
    q = block.linears["attn_q"]
    logits = model.forward(batch, mode="qat")
    act_state = init_range(x, q.att.act_spec)
    zo_model = copy.deepcopy(model)
    cfg = workloads.zo_config(seed, size.zo_steps)

    def shape(a):
        return "x".join(map(str, a.shape))

    yield "model.loss qat", f"batch {shape(batch)}", lambda: model.loss(batch, mode="qat")
    yield "model.loss fp", f"batch {shape(batch)}", lambda: model.loss(batch, mode="fp")
    for name, lin in block.linears.items():
        xin = captured[f"block0.{name}"][0]
        for mode in ("fp", "qat"):
            yield (
                f"linear_forward {name} {mode}",
                f"{shape(xin)} @ {shape(lin.w)}",
                lambda xin=xin, lin=lin, mode=mode: linear_forward(xin, lin, mode),
            )
    yield "fake_quant act", f"{shape(x)} per-token", lambda: fake_quant(x, q.att.act_spec, act_state)
    yield "fake_quant weight", f"{shape(q.w)} per-channel", lambda: fake_quant(
        q.w, q.att.weight_spec, q.att.weight_state
    )
    yield "init_range act", f"{shape(x)} per-token", lambda: init_range(x, q.att.act_spec)
    yield "apply_smoothing", f"{shape(x)} @ {shape(q.w)}", lambda: apply_smoothing(x, q.w, q.b, q.att.smoothing)
    yield "cross_entropy", f"logits {shape(logits[:, :-1])}", lambda: cross_entropy(logits[:, :-1], batch[:, 1:])
    for n in (1, 8, 65_536, zo_model.trainable_parameters().size):
        yield f"normals_at n={n}", f"{n} draws", lambda n=n: normals_at(seed, 1, 0, n)
    yield "zo_step q=1", f"view {zo_model.trainable_parameters().size}", lambda: zo_step(zo_model, batch, cfg, 0)
    for kind, name in (("attn", "attn_q"), ("mlp_up", "mlp_up"), ("mlp_down", "mlp_down")):
        lin = block.linears[name]
        caps = calib.captures[f"block0.{name}"]
        rows = sum(c.shape[0] for c in caps)
        yield (
            f"reconstruct_layer {kind}",
            f"{rows} rows, {shape(lin.w)}, {size.calib_epochs} epochs",
            lambda lin=lin, caps=caps: reconstruct_layer(lin.w, lin.b, caps, lin.att, epochs=size.calib_epochs),
        )


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeat", type=int, default=7)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--out", default=str(ROOT / ".perfbench_out"))
    args = p.parse_args(argv)
    import_program()

    rows = []
    for op, covers, fn in ops(args.seed, args.size):
        t = per_call_s(fn, args.repeat)
        row = {"op": op, "covers": covers, "per_call_ms": t * 1e3}
        if op.startswith("normals_at"):
            row["per_draw_ns"] = t * 1e9 / int(op.split("=")[1])
        rows.append(row)
        extra = f"  {row['per_draw_ns']:.2f} ns/draw" if "per_draw_ns" in row else ""
        print(f"{op:32s} {covers:34s} {t * 1e3:12.4f} ms{extra}", flush=True)
    os.makedirs(args.out, exist_ok=True)
    record = {
        "size": args.size,
        "repeat": args.repeat,
        "environment": dict(environment(args.seed), blas_threads_pinned=BLAS_THREADS),
        "rows": rows,
    }
    with open(os.path.join(args.out, "BENCH_ops.json"), "w") as f:
        json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
