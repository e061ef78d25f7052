"""The benchmark workloads, built only from zoqlab's public functions.

A workload is set up once per process (the part `setup_s` measures) and then
runs repetitions ("reps") of one fixed unit of work. Every rep starts from the
same set-up state, so every rep does the same work and gives the same
results; the worker times reps and checks that they agree.

The unit operation whose latency the benchmark reports is the call a user
waits for: one zo_step, one calibrate_model, one run_verification. Each rep
returns its wall time less the time spent in the speed probe (`wall_s`), its
start and end on the perf_counter clock, every operation as (start, end,
seconds of probing inside it) (`ops`), the count of attempted and failed
operations (ZO steps, calibrated layers, verification rows), quality
figures, and the correctness checks it failed. The probe (speed.SpeedProbe)
is sampled between calls into zoqlab so the worker can scale each time by
the machine's speed around it.
"""

from __future__ import annotations

import copy
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import zoqlab.calibration
import zoqlab.theory
from zoqlab import cli, diagnostics
from zoqlab.calibration import calibrate_model, capture_activations
from zoqlab.model import ModelConfig, QuantPlan, build_model, set_lightweight
from zoqlab.zo import ZoConfig, zo_step


@dataclass(frozen=True)
class Size:
    model: ModelConfig
    zo_steps: int  # zo_step calls per rep
    eval_seqs: int  # eval sequences scored at the start and end of a rep
    calib_seqs: int  # train sequences captured for calibration
    calib_epochs: int


SIZES = {
    "full": Size(ModelConfig(), zo_steps=50, eval_seqs=16, calib_seqs=2, calib_epochs=2),
    # for the smoke tests: same code paths, a model small enough to run in seconds
    "tiny": Size(
        ModelConfig(d_model=16, n_layers=1, n_heads=2, context=32),
        zo_steps=3,
        eval_seqs=4,
        calib_seqs=1,
        calib_epochs=1,
    ),
}

BATCH_SIZE = 4
# The suite runs at the seed `zoqlab verify --quick` uses, not the benchmark
# seed: its 3-SE rows have no multiple-comparison correction and fail by
# chance at some seeds (6 and 14 of 0-19), which is a theory-suite defect to
# fix in the program, not a timing signal. Its run time does not depend on it.
VERIFY_SEED = 0


def zo_config(seed: int, steps: int) -> ZoConfig:
    """Every ZoConfig field set explicitly.

    lr_weights is 1e-5, not the 1e-3 default: at 1e-3 training on 115k ZO
    coordinates diverges and then raises, which leaves nothing steady to time.
    """
    return ZoConfig(
        epsilon=1e-3,
        directions=1,
        steps=steps,
        seed=seed,
        lr_weights=1e-5,
        lr_smoothing=5e-6,
        lr_clipping=1e-5,
        lr_quant_affine=1e-5,
        lr_schedule="linear_decay",
        batch_size=BATCH_SIZE,
        chunk_size=1 << 16,
        train_quant_affine=True,
    )


class Untraced:
    """Stands in for the Tracer in untraced reps: calls straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def label_linears(model) -> None:
        pass


@contextmanager
def probing(owner, attr: str, probe):
    """Let the probe sample ahead of every call of owner.attr."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        probe.maybe()
        return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class _ModelWorkload:
    """Shared set-up: corpus split and a range-initialized model, both from the seed."""

    def __init__(self, seed: int, size: Size, plan: QuantPlan):
        self.seed = seed
        self.size = size
        self.train, eval_set = cli.ingest_corpus(cli.default_corpus_path(), size.model.context, seed)
        self.eval_batch = eval_set[: size.eval_seqs]
        self.base = build_model(size.model, plan, seed)
        self.memory_batch = cli.sample_batch(self.train, BATCH_SIZE, seed, 0)
        self.last_model = None

    def fresh_model(self, tr):
        model = copy.deepcopy(self.base)
        tr.label_linears(model)
        self.last_model = model
        return model


class ZoTraining(_ModelWorkload):
    """N zo_step calls between an eval at the start and at the end, then a checkpoint."""

    op = "zo_step"

    def __init__(self, seed, size, out_dir, plan, lightweight):
        super().__init__(seed, size, plan)
        if lightweight:
            set_lightweight(self.base)
        self.cfg = zo_config(seed, size.zo_steps)
        # the config the checkpoint manifest records; RunConfig spells "no activation quantizer" as 16 bits
        self.run_cfg = cli.RunConfig(
            model=size.model,
            w_bits=plan.w_bits,
            a_bits=plan.a_bits or 16,
            group_size=plan.group_size,
            zo=self.cfg,
            seed=seed,
        )
        self.ckpt = os.path.join(out_dir, f"ckpt-{os.getpid()}.ckpt")

    def rep(self, tr, probe):
        model = self.fresh_model(tr)
        cfg = self.cfg
        ops = []
        failed = 0
        spent = probe.spent_s
        t0 = time.perf_counter()
        start = tr.call("diagnostics.track", diagnostics.track, model, self.eval_batch, None, 0, cfg=cfg)
        for step in range(cfg.steps):
            batch = tr.call("cli.sample_batch", cli.sample_batch, self.train, cfg.batch_size, self.seed, step)
            probe.sample()
            ts = time.perf_counter()
            try:
                loss = tr.call("zo.zo_step", zo_step, model, batch, cfg, step).loss
            except Exception:
                loss = float("nan")
            ops.append((ts, time.perf_counter(), 0.0))
            if not _finite(loss):
                failed += 1
        final = tr.call(
            "diagnostics.track", diagnostics.track, model, self.eval_batch, None, cfg.steps, cfg=cfg
        )
        tr.call("cli.save_checkpoint", cli.save_checkpoint, self.ckpt, self.run_cfg, model, cfg.steps)
        probe.sample()
        t1 = time.perf_counter()
        failures = []
        if failed:
            failures.append(f"{failed} zo_step calls raised or gave a non-finite loss")
        if not _finite(start.eval_loss, final.eval_loss):
            failures.append("eval loss not finite")
        if os.path.getsize(self.ckpt) <= 0:
            failures.append("empty checkpoint")
        os.remove(self.ckpt)
        train_s = sum(b - a for a, b, _ in ops)
        return {
            "wall_s": t1 - t0 - (probe.spent_s - spent),
            "start": t0,
            "end": t1,
            "ops": ops,
            "attempted": cfg.steps,
            "failed": failed,
            "failures": failures,
            "quality": {
                "eval_ppl_start": start.eval_ppl,
                "eval_ppl_final": final.eval_ppl,
                "ppl_drop_per_s": (start.eval_ppl - final.eval_ppl) / train_s,
            },
        }


class Calibration(_ModelWorkload):
    """capture_activations then calibrate_model, then an eval of the calibrated model."""

    op = "calibrate_model"

    def __init__(self, seed, size):
        super().__init__(seed, size, QuantPlan(4, 4))
        self.layers = sum(1 for _ in self.base.iter_attachments())

    def rep(self, tr, probe):
        model = self.fresh_model(tr)
        size = self.size
        ops = []
        rows = []
        failures = []
        spent = probe.spent_s
        t0 = time.perf_counter()
        calib = tr.call(
            "calibration.capture_activations", capture_activations, model, self.train[: size.calib_seqs]
        )
        probe.sample()
        ts, in_probe = time.perf_counter(), probe.spent_s
        try:
            with probing(zoqlab.calibration, "reconstruct_layer", probe), probing(
                zoqlab.calibration, "fake_quant", probe
            ):
                rows = tr.call(
                    "calibration.calibrate_model", calibrate_model, model, calib, size.calib_epochs
                )
        except Exception as e:
            failures.append(f"calibrate_model raised {type(e).__name__}: {e}")
        ops.append((ts, time.perf_counter(), probe.spent_s - in_probe))
        probe.sample()
        final = tr.call("diagnostics.track", diagnostics.track, model, self.eval_batch, None, 0)
        t1 = time.perf_counter()
        good = [
            r
            for r in rows
            if _finite(r["loss_before"], r["loss_after"]) and r["loss_after"] <= r["loss_before"]
        ]
        if not _finite(final.eval_loss):
            failures.append("eval loss not finite")
        ratios = {r["layer_id"]: r["loss_after"] / r["loss_before"] for r in rows if r["loss_before"] > 0}
        return {
            "wall_s": t1 - t0 - (probe.spent_s - spent),
            "start": t0,
            "end": t1,
            "ops": ops,
            "attempted": self.layers,
            "failed": self.layers - len(good),
            "failures": failures,
            "quality": {
                "eval_ppl_final": final.eval_ppl,
                "calib_loss_ratio": float(np.mean(list(ratios.values()))) if ratios else float("nan"),
                "loss_ratio": ratios,
            },
        }


class Verification:
    """theory.run_verification(quick=True), as `zoqlab verify --quick` runs it."""

    op = "run_verification"
    last_model = None

    def rep(self, tr, probe):
        ops = []
        failures = []
        spent = probe.spent_s
        t0 = time.perf_counter()
        probe.sample()
        ts, in_probe = time.perf_counter(), probe.spent_s
        try:
            with probing(zoqlab.theory, "zo_gradient_scale", probe):
                report = tr.call(
                    "theory.run_verification", zoqlab.theory.run_verification, quick=True, seed=VERIFY_SEED
                )
            bad = [r for r in report.rows if r.passed is False]
            attempted, failed = len(report.rows), len(bad)
            failures += [f"row failed: {r.name} ({r.config})" for r in bad]
        except Exception as e:
            attempted, failed = 1, 1
            failures.append(f"run_verification raised {type(e).__name__}: {e}")
        ops.append((ts, time.perf_counter(), probe.spent_s - in_probe))
        probe.sample()
        t1 = time.perf_counter()
        return {
            "wall_s": t1 - t0 - (probe.spent_s - spent),
            "start": t0,
            "end": t1,
            "ops": ops,
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
            "quality": {},
        }


def make(name: str, seed: int, size_name: str, out_dir: str):
    size = SIZES[size_name]
    if name == "zo_w4a4":
        return ZoTraining(seed, size, out_dir, QuantPlan(4, 4), lightweight=False)
    if name == "zo_light_w4a16g16":
        return ZoTraining(seed, size, out_dir, QuantPlan(4, None, group_size=16), lightweight=True)
    if name == "calib_w4a4":
        return Calibration(seed, size)
    if name == "verify_quick":
        return Verification()
    raise ValueError(f"unknown workload {name!r}")
