import copy

import numpy as np
import pytest

from zoqlab.calibration import calibrate_model, capture_activations
from zoqlab.diagnostics import layer_reconstruction_loss
from zoqlab.model import (
    LIGHTWEIGHT_TRAINABLE,
    ModelConfig,
    QuantPlan,
    build_model,
    cross_entropy,
    linear_forward,
    set_lightweight,
)
from zoqlab.smoothing import SCALE_FLOOR
from zoqlab.zo import ZoConfig, zo_step

from oracles import hand_cross_entropy, reference_transformer_logits

TINY = ModelConfig(vocab_size=128, d_model=16, n_layers=1, n_heads=2, context=16)

PLANS = {
    "W4A4": QuantPlan(4, 4),
    "W3A16g8": QuantPlan(3, None, group_size=8),
    "W2A4-symmetric": QuantPlan(2, 4, scheme="symmetric"),
}


def tokens(n, length=TINY.context, seed=0):
    return np.random.default_rng(seed).integers(0, TINY.vocab_size, size=(n, length))


def calibrated(plan):
    model = build_model(TINY, plan, seed=1)
    calib = capture_activations(model, tokens(2))
    rows = calibrate_model(model, calib, epochs=2)
    return model, calib, rows


@pytest.mark.parametrize("plan", PLANS.values(), ids=PLANS.keys())
class TestQuantizedLinear:
    """Calibration, the live forward and the frozen forward evaluate one kernel."""

    def test_calibrated_loss_is_the_layer_reconstruction_loss(self, plan):
        model, calib, rows = calibrated(plan)
        lins = dict(model.iter_attachments())
        assert len(rows) == len(lins)
        for row in rows:
            captures = calib.captures[row["layer_id"]]
            assert row["loss_after"] == layer_reconstruction_loss(lins[row["layer_id"]], captures)

    def test_frozen_linear_equals_live_linear(self, plan):
        model, calib, _ = calibrated(plan)
        live = copy.deepcopy(model)
        set_lightweight(model)
        frozen = 0
        pairs = zip(model.iter_attachments(), live.iter_attachments())
        for (layer_id, lin), (_, live_lin) in pairs:
            if layer_id.split(".")[1] in LIGHTWEIGHT_TRAINABLE:
                continue
            assert lin.att.pre_quantized
            x = np.concatenate(calib.captures[layer_id], axis=0)
            assert np.array_equal(linear_forward(x, lin, "qat"), linear_forward(x, live_lin, "qat"))
            frozen += 1
        assert frozen == 4


def test_fp_forward_matches_reference_transformer():
    model = build_model(TINY, PLANS["W4A4"], seed=2)
    seq = tokens(1, length=6, seed=3)[0]
    want = reference_transformer_logits(model, seq.tolist())
    np.testing.assert_allclose(model.forward(seq, mode="fp"), want, rtol=1e-9, atol=1e-12)


def test_cross_entropy_matches_hand_oracle():
    rng = np.random.default_rng(4)
    logits = rng.normal(scale=3.0, size=(2, 5, 11))
    targets = rng.integers(0, 11, size=(2, 5))
    want = hand_cross_entropy(logits, targets)
    assert cross_entropy(logits, targets) == pytest.approx(want, rel=1e-12)


class TestSmoothingScaleFloor:
    def test_zo_step_survives_a_scale_at_the_clamp_bound(self):
        model = build_model(TINY, PLANS["W4A4"], seed=0)
        model.blocks[0].linears["attn_q"].att.smoothing.scale[:] = SCALE_FLOOR
        report = zo_step(model, tokens(4), ZoConfig(epsilon=1e-3, lr_weights=1e-5, steps=1), 0)
        assert np.isfinite(report.loss)
        assert np.all(model.blocks[0].linears["attn_q"].att.smoothing.scale >= SCALE_FLOOR)

    def test_floor_applies_to_a_copy(self):
        model = build_model(TINY, PLANS["W4A4"], seed=0)
        lin = model.blocks[0].linears["attn_q"]
        x = np.random.default_rng(5).normal(size=(8, TINY.d_model))
        lin.att.smoothing.scale[:3] = SCALE_FLOOR
        at_floor = linear_forward(x, lin, "qat")
        lin.att.smoothing.scale[:3] = [-1e-3, 0.0, 5e-5]
        below = lin.att.smoothing.scale.copy()
        assert np.array_equal(linear_forward(x, lin, "qat"), at_floor)
        assert np.array_equal(lin.att.smoothing.scale, below)
