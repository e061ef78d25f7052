"""Byte identity of a short run: calibration, three ZO steps, their update norms and the evals.

Each part is held to a recorded digest. A change that means to keep the
numbers (a refactor, a faster path) must leave every digest here as it is;
a change that means to move them records new ones and says why. The run is `train`'s own sequence on the CLI tests'
tiny model (d_model 16, 1 layer, context 32), where no GEMM is large
enough for BLAS to split it over threads, so the bytes do not depend on
the thread count. The plans cover the per-channel weight path with
activation quantizers (W4A4), the frozen layers of lightweight mode
(W4A16g16) and the grouped weight path with smoothing and the bound search
(W3A8g16).
"""

import hashlib

import numpy as np
import pytest

from zoqlab import cli, diagnostics
from zoqlab.model import ModelConfig
from zoqlab.zo import GROUP_ORDER, ZoConfig, zo_step

TINY = ModelConfig(d_model=16, n_layers=1, n_heads=2, context=32)

PLANS = {
    "W4A4": ({"w_bits": 4, "a_bits": 4}, False),
    "light-W4A16g16": ({"w_bits": 4, "a_bits": 16, "group_size": 16}, True),
    "W3A8g16": ({"w_bits": 3, "a_bits": 8, "group_size": 16}, False),
}

# sha256 (first 16 hex digits) of each part of the run, recorded before the
# weight quantizer moved to the weight's own layout; the update norms (each
# step's, in GROUP_ORDER) recorded after the ZO view's plan became flat windows
RECORDED = {
    "W4A4": {
        "calib_rows": "2a723ccbfc8f37cb",
        "losses": "4074399366f36185",
        "tensors": "8b4c3601e34036c8",
        "qat_logits": "19d8a0c1887cc9d1",
        "eval_ppl": "9248ab42c3c90c64",
        "update_norms": "767d39fe8e8e58a0",
    },
    "light-W4A16g16": {
        "calib_rows": "9a8a4f63d5930fcd",
        "losses": "9c71ffef0aa7c3d4",
        "tensors": "00c3a238044bcb28",
        "qat_logits": "c26ee89fa819343b",
        "eval_ppl": "33fc525e6b002e08",
        "update_norms": "5c337f1221b53118",
    },
    "W3A8g16": {
        "calib_rows": "df9caeb8bd0994d1",
        "losses": "b63ceb022b54928e",
        "tensors": "f8dc9449c71e0096",
        "qat_logits": "b070a75fb6747b92",
        "eval_ppl": "90877493b694f0d5",
        "update_norms": "557642d7093d27a8",
    },
}


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()[:16]


def run_digests(plan):
    quant, lightweight = PLANS[plan]
    cfg = cli.RunConfig(model=TINY, zo=ZoConfig(steps=3), calib_samples=2, **quant)
    train, eval_batch = cli._prepare_data(cfg)
    model, _, rows = cli._initialize(cfg, train, lightweight)
    reports = [
        zo_step(model, cli.sample_batch(train, cfg.zo.batch_size, cfg.seed, step), cfg.zo, step)
        for step in range(cfg.zo.steps)
    ]
    tensors = [part for name, _, owner, attr in model.tensors() for part in (name.encode(), getattr(owner, attr))]
    ppl = diagnostics.track(model, eval_batch, None, cfg=cfg.zo).eval_ppl
    return {
        "calib_rows": digest(
            *(row["layer_id"].encode() for row in rows),
            np.array([[row[k] for k in ("loss_before", "loss_after", "delta_loss")] for row in rows]),
        ),
        "losses": digest(np.array([report.loss for report in reports])),
        "tensors": digest(*tensors),
        "qat_logits": digest(model.forward(eval_batch[:4], mode="qat")),
        "eval_ppl": digest(np.float64(ppl)),
        "update_norms": digest(
            *(np.array([r.update_norms[g] for g in GROUP_ORDER if g in r.update_norms]) for r in reports)
        ),
    }


@pytest.mark.parametrize("plan", PLANS)
def test_a_short_run_keeps_its_recorded_bytes(plan):
    assert run_digests(plan) == RECORDED[plan]
