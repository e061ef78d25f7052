import copy
import tracemalloc
import warnings

import numpy as np
import pytest

import zoqlab.model
from zoqlab.calibration import calibrate_model, capture_activations, rtn_quantize
from zoqlab.cli import default_corpus_path, ingest_corpus
from zoqlab.diagnostics import layer_reconstruction_loss, memory_report, track, transient_forward_bytes
from zoqlab.errors import DataError, DimensionError
from zoqlab.model import (
    LIGHTWEIGHT_TRAINABLE,
    LINEAR_NAMES,
    ModelConfig,
    QuantPlan,
    _STEP_FLOOR,
    _applied_state,
    _below,
    _gelu,
    _layer_norm,
    _softmax,
    build_model,
    cross_entropy,
    holds_codes,
    linear_forward,
    set_lightweight,
)
from zoqlab.numerics import normals_at
from zoqlab.quantizer import QuantState, fake_quant, init_range
from zoqlab.smoothing import SCALE_FLOOR, SmoothingParams, applied_scale, apply_smoothing, smooth_activation
from zoqlab.zo import ZoConfig, zo_step

from oracles import (
    hand_cross_entropy,
    out_of_place_cross_entropy,
    out_of_place_gelu,
    out_of_place_layer_norm,
    out_of_place_smooth_activation,
    out_of_place_softmax,
    reference_trainable_entries,
    reference_transformer_logits,
)

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
            assert holds_codes(lin)
            x = calib.captures[layer_id]
            assert np.array_equal(linear_forward(x, lin, "qat"), linear_forward(x, live_lin, "qat"))
            frozen += 1
        assert frozen == 4


def test_qat_linear_equals_the_stateful_composition():
    """Smoothing, fake-quant under init_range of the activations, fake-quant of the weight, GEMM."""
    model = build_model(TINY, PLANS["W4A4"], seed=5)
    rng = np.random.default_rng(12)
    for _, lin in model.iter_attachments():
        lin.att.smoothing.scale[:] = rng.uniform(0.5, 2.0, size=lin.att.smoothing.scale.shape)
        lin.att.smoothing.shift[:] = rng.normal(scale=0.1, size=lin.att.smoothing.shift.shape)
    capture = {}
    model.forward(tokens(2, seed=13), mode="qat", capture=capture)
    for layer_id, lin in model.iter_attachments():
        att = lin.att
        (x,) = capture[layer_id]
        xs, ws, bs = apply_smoothing(x, lin.w, lin.b, att.smoothing)
        xq = fake_quant(xs, att.act_spec, init_range(xs, att.act_spec))
        want = xq @ fake_quant(ws, att.weight_spec, att.weight_state) + bs
        assert linear_forward(x, lin, "qat").tobytes() == want.tobytes(), layer_id


def test_init_weights_are_consecutive_slices_of_the_init_stream():
    """embed, then each block's linears in LINEAR_NAMES order, read the stream
    (seed, _INIT_STREAM) one after another, scaled as build_model scales them."""
    config = ModelConfig(vocab_size=50, d_model=16, n_layers=2, n_heads=2, context=16)
    model = build_model(config, PLANS["W4A4"], seed=5)
    tensors = [(model.embed, 0.02)]
    for block in model.blocks:
        for name in LINEAR_NAMES:
            w = block.linears[name].w
            tensors.append((w, 1.0 / np.sqrt(w.shape[0])))
    total = sum(t.size for t, _ in tensors)
    stream = normals_at(5, zoqlab.model._INIT_STREAM, 0, total)
    start = 0
    for t, scale in tensors:
        want = scale * stream[start : start + t.size].reshape(t.shape)
        assert t.tobytes() == want.tobytes()
        start += t.size


def test_fp_forward_matches_reference_transformer():
    model = build_model(TINY, PLANS["W4A4"], seed=2)
    seq = tokens(1, length=6, seed=3)[0]
    want = reference_transformer_logits(model, seq.tolist())
    np.testing.assert_allclose(model.forward(seq[None], mode="fp")[0], want, rtol=1e-9, atol=1e-12)


def test_forward_takes_only_a_nonempty_token_matrix():
    model = build_model(TINY, PLANS["W4A4"], seed=2)
    seq = tokens(1, length=6, seed=3)[0]
    with pytest.raises(DimensionError):
        model.loss(seq)
    refused = {
        "wrong rank": (seq, DimensionError, "matrix"),
        "empty batch": (np.zeros((0, 6), dtype=np.int64), DataError, "empty batch"),
        "out-of-range id": (np.array([[0, TINY.vocab_size]]), DataError, "out of range"),
        "longer than the context": (tokens(1, length=TINY.context + 1), DataError, "exceeds context"),
        "float ids": (np.zeros((1, 6)), DataError, "integer ids"),
        "boolean ids": (np.zeros((1, 6), dtype=bool), DataError, "integer ids"),
        "string ids": (np.array([["a", "b"]]), DataError, "integer ids"),
    }
    for bad, error, message in refused.values():
        for stage in (lambda t: model.forward(t, mode="fp"), model.embed_tokens):
            with pytest.raises(error, match=message):
                stage(bad)


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


def helper_inputs():
    """Named float arrays the forward's helpers must treat exactly as the oracles do.

    Random scores under the causal mask (rows with -inf entries), for
    sequences of 16 and of 1, 2 and 3 positions and with one NaN score,
    values of magnitude up to 1e8, values offset by 1e6, exact zeros, and
    the logits of a W4A4 qat forward.
    """
    rng = np.random.default_rng(6)

    def masked_scores(t):
        return rng.normal(scale=4.0, size=(3, 2, t, t)) + np.triu(np.full((t, t), -np.inf), k=1)

    model = build_model(TINY, PLANS["W4A4"], seed=3)
    inputs = {
        "masked scores": masked_scores(16),
        "large": rng.normal(size=(5, 40)) * np.logspace(-3, 8, 40),
        "offset": 1e6 + rng.normal(size=(6, 33)),
        "with zeros": np.where(rng.random((7, 12)) < 0.3, 0.0, rng.normal(size=(7, 12))),
        "qat logits": model.forward(tokens(3, seed=7), mode="qat"),
    }
    inputs.update({f"length-{t} scores": masked_scores(t) for t in (1, 2, 3)})
    inputs["NaN score"] = masked_scores(16)
    inputs["NaN score"][1, 0, 9, 4] = np.nan  # below the diagonal: a kept score
    return inputs


INPUTS = helper_inputs()


def finite(x):
    """x with the causal mask's -inf entries set to 0, for helpers that never see them."""
    return np.where(np.isfinite(x), x, 0.0)


@pytest.mark.parametrize("name", INPUTS)
class TestInPlaceHelpersMatchOutOfPlace:
    """The forward's in-place helpers equal their out-of-place formulas byte for byte."""

    def test_softmax(self, name):
        x = INPUTS[name]
        want = out_of_place_softmax(x).tobytes()
        # the mask of the -inf entries, as one matrix broadcast the way the forward passes it
        keep = x[(0,) * (x.ndim - 2)] != -np.inf
        assert np.array_equal(np.broadcast_to(keep, x.shape), x != -np.inf)
        assert _softmax(x.copy(), keep).tobytes() == want

    def test_gelu(self, name):
        x = finite(INPUTS[name])
        assert _gelu(x.copy()).tobytes() == out_of_place_gelu(x).tobytes()

    def test_layer_norm(self, name):
        x = finite(INPUTS[name])
        rng = np.random.default_rng(8)
        gain, bias = rng.normal(size=x.shape[-1]), rng.normal(size=x.shape[-1])
        before = x.copy()
        got = _layer_norm(x, gain, bias)
        assert got.tobytes() == out_of_place_layer_norm(x, gain, bias).tobytes()
        assert x.tobytes() == before.tobytes()

    def test_smooth_activation(self, name):
        x = finite(INPUTS[name]).reshape(-1, INPUTS[name].shape[-1])
        rng = np.random.default_rng(9)
        p = SmoothingParams(rng.uniform(-0.5, 3.0, size=x.shape[1]), rng.normal(size=x.shape[1]))
        before = x.copy()
        want = out_of_place_smooth_activation(x, p.scale, p.shift, SCALE_FLOOR)
        assert smooth_activation(x, p).tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()

    def test_cross_entropy(self, name):
        x = INPUTS[name]
        targets = np.random.default_rng(10).integers(0, x.shape[-1], size=x.shape[:-1])
        assert cross_entropy(x, targets).hex() == out_of_place_cross_entropy(x, targets).hex()  # NaN equals NaN


@pytest.mark.parametrize("mode", ["qat", "fp"])
@pytest.mark.parametrize("lightweight", [False, True], ids=["full", "lightweight"])
def test_forward_writes_no_array_it_does_not_own(monkeypatch, mode, lightweight):
    """Model arrays, the tokens and earlier captures stay as they were.

    Every captured activation also equals the input its linear saw.
    """
    model = build_model(TINY, PLANS["W4A4"], seed=4)
    if lightweight:
        set_lightweight(model)
    seqs = tokens(2, seed=11)
    arrays_before = [(name, getattr(o, a).copy()) for name, _, o, a in model.tensors()]
    tokens_before = seqs.copy()
    capture = {}
    model.forward(seqs, mode=mode, capture=capture)
    captures_before = {key: [c.copy() for c in caps] for key, caps in capture.items()}
    layer_of = {id(lin): layer_id for layer_id, lin in model.iter_attachments()}
    seen = {}

    def recording(x2d, lin, mode):
        seen[layer_of[id(lin)]] = x2d.copy()
        return linear_forward(x2d, lin, mode)

    monkeypatch.setattr(zoqlab.model, "linear_forward", recording)
    model.forward(seqs, mode=mode, capture=capture)

    def assert_unwritten():
        for (name, before), (_, _, owner, attr) in zip(arrays_before, model.tensors()):
            assert getattr(owner, attr).tobytes() == before.tobytes(), name
        assert seqs.tobytes() == tokens_before.tobytes()
        for key, caps in capture.items():
            assert caps[0].tobytes() == captures_before[key][0].tobytes(), key
            assert caps[1].tobytes() == seen[key].tobytes(), key

    assert_unwritten()
    assert capture.keys() == seen.keys() == dict(model.iter_attachments()).keys()
    # the block stage writes only the residual stream it is handed
    x = model.embed_tokens(seqs)
    assert model.run_blocks(x, mode, capture) is x
    assert_unwritten()


@pytest.mark.parametrize("shape", [(2, 5), (7,)], ids=["3-D", "2-D"])
def test_head_is_the_final_norm_then_the_tied_embedding(shape):
    model = build_model(TINY, PLANS["W4A4"], seed=4)
    rng = np.random.default_rng(12)
    model.ln_f_gain, model.ln_f_bias = rng.normal(size=(2, TINY.d_model))
    x = rng.normal(scale=3.0, size=shape + (TINY.d_model,))
    want = out_of_place_layer_norm(x, model.ln_f_gain, model.ln_f_bias) @ model.embed.T
    assert model.head(x).tobytes() == want.tobytes()


class TestAppliedGuards:
    """A perturbed step or scale is floored on a copy; the live array is left alone."""

    def test_applied_state_floors_the_step_of_a_copy(self):
        state = QuantState(step=[1.0, 1e-12, -0.5, -np.inf, np.nan], zero_point=np.zeros(5),
                           clip_lo=np.zeros(5), clip_hi=np.ones(5))
        before = state.copy()
        got = _applied_state(state)
        assert got is not state and got.step is not state.step
        assert got.step[:4].tolist() == [1.0, _STEP_FLOOR, _STEP_FLOOR, _STEP_FLOOR]
        assert np.isnan(got.step[4])
        for part in ("step", "zero_point", "clip_lo", "clip_hi"):
            assert getattr(state, part).tobytes() == getattr(before, part).tobytes(), part

    @pytest.mark.parametrize("part", ["step", "clip_lo", "clip_hi"])
    def test_a_nan_alone_makes_a_copy_that_keeps_it(self, part):
        state = QuantState(step=np.ones(3), zero_point=np.zeros(3), clip_lo=np.zeros(3), clip_hi=np.ones(3))
        getattr(state, part)[1] = np.nan
        before = getattr(state, part).tobytes()
        got = _applied_state(state)
        assert got is not state and np.isnan(getattr(got, part)[1])
        assert getattr(state, part).tobytes() == before

    def test_a_valid_state_is_applied_as_it_is(self):
        state = QuantState(step=[_STEP_FLOOR, 2.0], zero_point=[0.0, 1.0], clip_lo=[0.0, -np.inf], clip_hi=[1.0, 0.0])
        assert _applied_state(state) is state

    def test_applied_scale_floors_a_copy(self):
        p = SmoothingParams(scale=[1.0, 1e-5, -2.0, -np.inf, np.nan], shift=np.zeros(5))
        before = p.scale.tobytes()
        got = applied_scale(p)
        assert got is not p.scale
        assert got[:4].tolist() == [1.0, SCALE_FLOOR, SCALE_FLOOR, SCALE_FLOOR] and np.isnan(got[4])
        assert p.scale.tobytes() == before
        nan_only = SmoothingParams(scale=[1.0, np.nan], shift=np.zeros(2))
        assert applied_scale(nan_only) is not nan_only.scale and np.isnan(applied_scale(nan_only)[1])

    def test_a_scale_at_or_above_the_floor_is_applied_as_it_is(self):
        p = SmoothingParams(scale=[SCALE_FLOOR, 1.0, np.inf], shift=np.zeros(3))
        assert applied_scale(p) is p.scale


class TestClipBoundsAtLargeMagnitude:
    """Clip bounds stay strictly apart where an absolute gap is below one ulp."""

    def test_applied_state_separates_equal_bounds(self):
        model = build_model(TINY, PLANS["W4A4"], seed=0)
        lin = model.blocks[0].linears["attn_q"]
        lin.att.weight_state.clip_lo[:] = 1e8
        lin.att.weight_state.clip_hi[:] = 1e8
        _applied_state(lin.att.weight_state).validate()
        x = np.random.default_rng(12).normal(size=(8, TINY.d_model))
        assert np.all(np.isfinite(linear_forward(x, lin, "qat")))

    def test_clamp_parameters_separates_equal_bounds(self):
        model = build_model(TINY, PLANS["W4A4"], seed=0)
        state = model.blocks[0].linears["mlp_up"].att.weight_state
        state.clip_lo[:] = 1e11
        state.clip_hi[:] = 1e11
        model.clamp_parameters()
        state.validate()

    def test_representable_gap_is_unchanged(self):
        hi = np.array([-3.0, 0.0, 1.0, 1e6, 1e7])
        for gap in (1e-9, 1e-6):
            assert _below(hi, gap).tobytes() == (hi - gap).tobytes()
        assert _below(np.array([1e8]), 1e-9)[0] == np.nextafter(1e8, 0.0)


@pytest.mark.parametrize("plan", ["W4A4", "W3A16g8"])
def test_forward_memory_model_is_a_lower_bound(plan):
    model = build_model(TINY, PLANS[plan], seed=0)
    seqs = tokens(4)
    model.forward(seqs, mode="qat")
    tracemalloc.start()
    try:
        model.forward(seqs, mode="qat")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak >= transient_forward_bytes(TINY, len(seqs))


@pytest.mark.parametrize("train_quant_affine", [True, False])
def test_memory_report_counts_the_scalars_zo_step_trains(monkeypatch, train_quant_affine):
    model = build_model(TINY, PLANS["W4A4"], seed=0)
    cfg = ZoConfig(steps=1, seed=0, train_quant_affine=train_quant_affine)
    views = []
    trainable = model.trainable_parameters

    def recording(**kwargs):
        views.append(trainable(**kwargs))
        return views[-1]

    monkeypatch.setattr(model, "trainable_parameters", recording)
    zo_step(model, tokens(2), cfg, 0)
    monkeypatch.undo()
    assert len(views) == 1
    assert memory_report(model, cfg)["parameters"] == 8 * views[0].size
    with_affine = trainable(include_quant_affine=True).size
    assert (views[0].size < with_affine) != train_quant_affine


@pytest.mark.parametrize(
    "plan, freeze, held",
    [
        (QuantPlan(4, None, group_size=16), set_lightweight, 81_920),
        (QuantPlan(4, 4), rtn_quantize, 98_304),
        (QuantPlan(4, 4), lambda model: model, 0),
        (None, set_lightweight, 655_360),
    ],
    ids=["lightweight W4A16g16", "rtn W4A4", "not frozen", "lightweight fp"],
)
def test_quantized_frozen_is_the_bytes_of_the_frozen_weights_held(plan, freeze, held):
    """The default model: 2 blocks of attn_k, attn_o, mlp_up and mlp_down (and q, v under rtn).

    One uint8 code each where the layer has a weight quantizer; in
    lightweight full precision those weights stay float64 and do not train.
    """
    model = freeze(build_model(ModelConfig(), plan, seed=0))
    frozen = [
        lin.w
        for layer_id, lin in model.iter_attachments()
        if holds_codes(lin) or (model.lightweight and layer_id.split(".")[1] not in LIGHTWEIGHT_TRAINABLE)
    ]
    assert memory_report(model, ZoConfig())["quantized_frozen"] == sum(w.nbytes for w in frozen) == held
    assert not hasattr(model, "frozen_quantized_scalars")


ORDER_CONFIG = ModelConfig(vocab_size=128, d_model=16, n_layers=2, n_heads=2, context=16)
ORDER_PLANS = {
    "fp": None,
    "W4A4": QuantPlan(4, 4),
    "W4A16g16": QuantPlan(4, None, group_size=16),
    "W3A8-symmetric": QuantPlan(3, 8, scheme="symmetric"),
}
STAGES = {"built": lambda model: model, "lightweight": set_lightweight, "rtn": rtn_quantize}


def memory_span(a):
    return a.__array_interface__["data"][0], a.nbytes


@pytest.mark.parametrize("include_quant_affine", [True, False], ids=["affine", "no-affine"])
@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("plan", ORDER_PLANS)
def test_trainable_view_keeps_the_order_of_the_reference_walk(plan, stage, include_quant_affine):
    """Position k of a ZO direction perturbs the same scalar as in the hand-written walk."""
    model = STAGES[stage](build_model(ORDER_CONFIG, ORDER_PLANS[plan], seed=0))
    view = model.trainable_parameters(include_quant_affine=include_quant_affine)
    want = reference_trainable_entries(model, include_quant_affine)
    got = [(label, flat) for label, flat, _, _ in view._segments]
    assert [label for label, _ in got] == [label for label, _ in want]
    assert [memory_span(a) for _, a in got] == [memory_span(a) for _, a in want]
    assert view.size == sum(a.size for _, a in want)


EVAL_PLANS = {
    "W4A4": (QuantPlan(4, 4), False),
    "W3A8g8": (QuantPlan(3, 8, group_size=8), False),
    "light-W4A16g16": (QuantPlan(4, None, group_size=16), True),
    "fp": (None, False),
}


@pytest.fixture(scope="module")
def eval_models():
    """Default-config models and 16 corpus eval sequences: the shapes the benchmark scores."""
    config = ModelConfig()
    _, eval_set = ingest_corpus(default_corpus_path(), config.context, 0)
    models = {}
    for name, (plan, lightweight) in EVAL_PLANS.items():
        model = build_model(config, plan, seed=0)
        models[name] = set_lightweight(model) if lightweight else model
    return models, eval_set[:16]


@pytest.mark.parametrize("n_seqs", [16, 7, 1])
@pytest.mark.parametrize("plan", EVAL_PLANS)
def test_chunked_eval_loss_is_the_bytes_of_one_forward(eval_models, plan, n_seqs):
    models, eval_set = eval_models
    model, seqs = models[plan], eval_set[:n_seqs]
    whole = model.loss(seqs, mode="qat")
    for batch_size in (4, 3, 1):
        got = track(model, seqs, None, cfg=ZoConfig(batch_size=batch_size)).eval_loss
        assert got.hex() == whole.hex(), batch_size


def test_an_eval_set_that_is_not_a_token_matrix_is_refused():
    model = build_model(TINY, PLANS["W4A4"], seed=0)
    for bad in (np.arange(10), tokens(2)[None]):
        with pytest.raises(DimensionError, match="matrix"):
            track(model, bad, None)


@pytest.mark.parametrize("plan", [None, QuantPlan(4, 4)], ids=["fp", "W4A4"])
def test_eval_ppl_past_the_float_range_is_inf_without_a_warning(plan):
    model = build_model(TINY, plan, seed=0)
    seqs = tokens(2)
    record = track(model, seqs, None)
    assert record.eval_ppl.hex() == float(np.exp(record.eval_loss)).hex()
    # tied embeddings: the logits grow with the embedding, and so does the loss
    while model.loss(seqs, mode="qat") <= 710:
        model.embed *= 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = track(model, seqs, None)
    assert record.eval_loss > 710
    assert record.eval_ppl == np.inf
