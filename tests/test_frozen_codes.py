"""A frozen layer holds its weight as integer codes and computes what the float64 fake-quantized weight computed.

freeze_linear (through set_lightweight and rtn_quantize) stores each frozen
weight's codes; dequantized_weight gives step * (code - rint(zero)) back.
The reference here is the float path the codes replace: the same model
with each frozen layer holding fake_quant's float64 output of its folded
weight, and no weight quantizer of its own. A float weight does not mark a
layer as frozen, so the reference is told which layers are.
"""

import copy
import tracemalloc

import numpy as np
import pytest

from zoqlab.calibration import capture_activations, rtn_quantize
from zoqlab.cli import default_corpus_path, ingest_corpus
from zoqlab.diagnostics import layer_reconstruction_loss, memory_report
from zoqlab.errors import DataError
from zoqlab.model import (
    LIGHTWEIGHT_TRAINABLE,
    LayerAttachment,
    ModelConfig,
    QuantPlan,
    build_model,
    dequantized_weight,
    holds_codes,
    set_lightweight,
)
from zoqlab.quantizer import QuantSpec, fake_quant
from zoqlab.smoothing import fold_smoothing
from zoqlab.zo import ZoConfig, zo_step

from oracles import all_rows_linear, batched_forward, coded_layers

CONFIG = ModelConfig(d_model=32, n_layers=2, n_heads=2, context=32)
PLANS = {
    "W4A16g16": QuantPlan(4, None, group_size=16),
    "W3A8g16": QuantPlan(3, 8, group_size=16),
    "W2A16g16": QuantPlan(2, None, group_size=16),
    "W4A4 asymmetric": QuantPlan(4, 4),
    "W4A4 symmetric": QuantPlan(4, 4, scheme="symmetric"),
}
FREEZES = {"lightweight": set_lightweight, "rtn": rtn_quantize}
CFG = ZoConfig(steps=3, seed=0, batch_size=2, lr_weights=1e-3)


def corpus(config):
    train, _ = ingest_corpus(default_corpus_path(), config.context, 0)
    return train


def float_path(model, before):
    """A copy of model, frozen from `before`, whose frozen layers hold fake_quant's float64 weight.

    Each such layer's weight is fake_quant of `before`'s weight folded with
    the frozen layer's smoothing, under its weight state: what freeze_linear
    stored before it stored codes. The copy's frozen layers drop their
    weight quantizer, so they read that float weight as it is. The copy is
    told which layers are frozen: its forward is oracles.batched_forward
    with those layers frozen, and its tensors() leaves their tensors
    unlabelled. Its clamp_parameters still visits their smoothing scales,
    which lie inside the clamp range, so it leaves them as they are.
    """
    ref = copy.deepcopy(model)
    frozen = coded_layers(ref)
    for (layer_id, lin), (_, pre) in zip(ref.iter_attachments(), before.iter_attachments()):
        if layer_id not in frozen:
            continue
        att = lin.att
        w = pre.w if att.smoothing is None else fold_smoothing(pre.w, pre.b, att.smoothing)[0]
        lin.w = fake_quant(w, att.weight_spec, att.weight_state)
        att.weight_spec = att.weight_state = None
    walk = ref.tensors
    ref.forward = lambda tokens, mode="qat", capture=None: batched_forward(ref, tokens, mode, capture, frozen=frozen)
    ref.tensors = lambda: (
        (name, None if ".".join(name.split(".")[:2]) in frozen else label, owner, attr)
        for name, label, owner, attr in walk()
    )
    return ref


def frozen_pair(plan, freeze):
    """(model frozen to codes, its float path) from one seed-built model with a random smoothing."""
    before = build_model(CONFIG, PLANS[plan], seed=0)
    rng = np.random.default_rng(1)
    for _, lin in before.iter_attachments():
        if lin.att.smoothing is not None:
            lin.att.smoothing.scale[:] = rng.uniform(0.5, 2.0, size=lin.att.smoothing.scale.shape)
            lin.att.smoothing.shift[:] = rng.normal(scale=0.1, size=lin.att.smoothing.shift.shape)
    model = FREEZES[freeze](copy.deepcopy(before))
    return model, float_path(model, before)


def trainable_bytes(model):
    return [(name, label, getattr(owner, attr).tobytes()) for name, label, owner, attr in model.tensors() if label]


@pytest.mark.parametrize("freeze", FREEZES)
@pytest.mark.parametrize("plan", PLANS)
def test_codes_give_the_bytes_of_the_float_path(plan, freeze):
    """Logits in both modes, probe losses, and losses and trained tensors over 3 zo_steps."""
    model, ref = frozen_pair(plan, freeze)
    train = corpus(CONFIG)
    batch = train[:2]
    for mode in ("qat", "fp"):
        assert model.forward(batch, mode=mode).tobytes() == ref.forward(batch, mode=mode).tobytes(), mode
    probe = capture_activations(ref, train[2:4]).captures
    for (layer_id, lin), (_, ref_lin) in zip(model.iter_attachments(), ref.iter_attachments()):
        if holds_codes(lin):
            x = probe[layer_id]
            diff = x @ ref_lin.w + ref_lin.b - all_rows_linear(x, ref_lin, "qat", True)
            assert layer_reconstruction_loss(lin, x) == float(np.mean(diff * diff)), layer_id
    assert trainable_bytes(model) == trainable_bytes(ref)
    for step in range(CFG.steps):
        batch = train[2 * step : 2 * step + 2]
        got, want = zo_step(model, batch, CFG, step), zo_step(ref, batch, CFG, step)
        assert got.loss.hex() == want.loss.hex(), step
    assert trainable_bytes(model) == trainable_bytes(ref)


@pytest.mark.parametrize("freeze", FREEZES)
@pytest.mark.parametrize("plan", PLANS)
def test_a_dequantized_weight_differs_from_fake_quant_only_in_the_sign_of_zero(plan, freeze):
    model, ref = frozen_pair(plan, freeze)
    frozen = 0
    for (layer_id, lin), (_, ref_lin) in zip(model.iter_attachments(), ref.iter_attachments()):
        if not holds_codes(lin):
            continue
        frozen += 1
        assert lin.w.dtype == lin.att.weight_spec.code_dtype, layer_id
        w, want = dequantized_weight(lin), ref_lin.w
        assert w.dtype == np.float64 and w.flags.c_contiguous and w.shape == want.shape
        assert np.array_equal(w, want), layer_id
        negative_zero = (want == 0) & np.signbit(want)
        assert np.array_equal(w.view(np.int64) != want.view(np.int64), negative_zero), layer_id
        assert not np.any(np.signbit(w) & (w == 0))
    assert frozen == (4 if freeze == "lightweight" else 6) * CONFIG.n_layers


def test_the_default_lightweight_model_holds_one_byte_per_frozen_weight():
    """At seed 0, 3,802 of the 81,920 frozen entries are -0.0 in fake_quant's weight and +0.0 from the codes."""
    before = build_model(ModelConfig(), PLANS["W4A16g16"], seed=0)
    model = set_lightweight(copy.deepcopy(before))
    ref = float_path(model, before)
    frozen = [(lin, ref_lin) for (_, lin), (_, ref_lin) in zip(model.iter_attachments(), ref.iter_attachments())
              if holds_codes(lin)]
    assert {lin.w.dtype for lin, _ in frozen} == {np.dtype(np.uint8)}
    assert sum(lin.w.size for lin, _ in frozen) == memory_report(model, ZoConfig())["quantized_frozen"] == 81_920
    differing = sum(int(np.sum(dequantized_weight(lin).view(np.int64) != r.w.view(np.int64))) for lin, r in frozen)
    assert differing == sum(int(np.sum(np.signbit(r.w) & (r.w == 0))) for _, r in frozen) == 3_802


def test_dequantizing_holds_one_float_weight_and_no_transposed_copy():
    """mlp_down of a d_model 256 lightweight W4A16g16 model: (1024, 256) codes in groups of 16 rows.

    Past the 2 MiB result, numpy's ufunc buffers (a fixed 8,192 elements an
    operand) are the only scratch; a copy of the weight would double the peak.
    """
    config = ModelConfig(d_model=256, n_layers=1, n_heads=4, context=8)
    model = set_lightweight(build_model(config, PLANS["W4A16g16"], seed=0))
    lin = model.blocks[0].linears["mlp_down"]
    dequantized_weight(lin)
    tracemalloc.start()
    try:
        w = dequantized_weight(lin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.nbytes <= peak <= w.nbytes * 5 // 4


def test_rtn_then_lightweight_trains_query_and_value_from_their_dequantized_weights():
    before = rtn_quantize(build_model(CONFIG, PLANS["W4A4 asymmetric"], seed=0))
    dequantized = {layer_id: dequantized_weight(lin) for layer_id, lin in before.iter_attachments()}
    model = set_lightweight(before)
    trained = []
    for layer_id, lin in model.iter_attachments():
        if layer_id.split(".")[1] in LIGHTWEIGHT_TRAINABLE:
            assert not holds_codes(lin) and lin.att == LayerAttachment()
            assert lin.w.tobytes() == dequantized[layer_id].tobytes()
            trained.append(lin.w)
        else:
            assert holds_codes(lin)
    assert [getattr(owner, attr) for _, label, owner, attr in model.tensors() if label] == trained


@pytest.mark.parametrize(
    "bits, scheme, dtype",
    [
        (2, "asymmetric", np.uint8),
        (8, "asymmetric", np.uint8),
        (8, "symmetric", np.int8),
        (9, "asymmetric", np.uint16),
        (9, "symmetric", np.int16),
        (16, "asymmetric", np.uint16),
        (16, "symmetric", np.int16),
    ],
)
def test_codes_take_the_smallest_integer_dtype_of_their_range(bits, scheme, dtype):
    spec = QuantSpec(bits, scheme, "weight")
    info = np.iinfo(spec.code_dtype)
    assert spec.code_dtype == dtype and info.min <= spec.q_n and spec.q_p <= info.max


def test_codes_wider_than_16_bits_have_no_dtype():
    with pytest.raises(DataError, match="17-bit"):
        QuantSpec(17, "asymmetric", "weight").code_dtype
