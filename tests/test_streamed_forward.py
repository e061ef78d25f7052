"""The streamed forward gives the bytes of the all-rows composition and holds only live activations.

ModelGraph.forward computes attention one sequence at a time, and each
linear's activation side and GELU's erf buffer run over row blocks. The
oracle, oracles.batched_forward, computes every sequence's attention
matrices at once and runs each linear over all rows in one pass.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import zoqlab.model
from zoqlab.calibration import calibrate_model, capture_activations
from zoqlab.cli import default_corpus_path, ingest_corpus
from zoqlab.diagnostics import memory_report, transient_forward_bytes
from zoqlab.model import (
    ModelConfig,
    ModelGraph,
    QuantPlan,
    build_model,
    cross_entropy,
    holds_codes,
    linear_forward,
    row_blocks,
    set_lightweight,
)
from zoqlab.quantizer import fake_quant
from zoqlab.zo import ZoConfig

from oracles import all_rows_linear, batched_forward, coded_layers

CONFIGS = {
    "tiny": ModelConfig(vocab_size=128, d_model=16, n_layers=1, n_heads=2, context=16),
    "default": ModelConfig(),
}
PLANS = {
    "fp": (None, False),
    "W4A4": (QuantPlan(4, 4), False),
    "W3A8g16": (QuantPlan(3, 8, group_size=16), False),
    "light-W4A16g16": (QuantPlan(4, None, group_size=16), True),
}
MIB = 2**20


def build(config, plan):
    """The plan's model with a random smoothing on every attachment that has one."""
    plan, lightweight = PLANS[plan]
    model = build_model(config, plan, seed=0)
    rng = np.random.default_rng(0)
    for _, lin in model.iter_attachments():
        if lin.att.smoothing is not None:
            lin.att.smoothing.scale[:] = rng.uniform(0.5, 2.0, size=lin.att.smoothing.scale.shape)
            lin.att.smoothing.shift[:] = rng.normal(scale=0.1, size=lin.att.smoothing.shift.shape)
    return set_lightweight(model) if lightweight else model


def corpus(config):
    train, _ = ingest_corpus(default_corpus_path(), config.context, 0)
    return train


@pytest.fixture(scope="module")
def models():
    return {(c, p): build(CONFIGS[c], p) for c in CONFIGS for p in PLANS}


def assert_forward_and_loss_match(model, seqs):
    for mode in ("qat", "fp"):
        want = batched_forward(model, seqs, mode, frozen=coded_layers(model))
        assert model.forward(seqs, mode=mode).tobytes() == want.tobytes(), mode
        assert model.loss(seqs, mode=mode).hex() == cross_entropy(want[:, :-1], seqs[:, 1:]).hex(), mode


@pytest.mark.parametrize("bsz", [1, 2, 3, 5])
@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("config", CONFIGS)
def test_forward_and_loss_are_the_bytes_of_the_batched_composition(models, config, plan, bsz):
    assert_forward_and_loss_match(models[config, plan], corpus(CONFIGS[config])[:bsz])


@pytest.mark.parametrize("plan", PLANS)
def test_three_row_blocks_keep_the_bytes(monkeypatch, models, plan):
    """With a budget of one float every block has 3 rows, the tail 3 to 5."""
    monkeypatch.setattr(zoqlab.model, "_BLOCK_FLOATS", 1)
    config = CONFIGS["tiny"]
    seqs = corpus(config)
    assert_forward_and_loss_match(models["tiny", plan], seqs[:5])
    assert_forward_and_loss_match(models["tiny", plan], seqs[:1, :4])


def tail_rows(rng, n, width):
    """Rows with a minimum within half a step below zero, whose index -0.0 meets
    the +0.0 bound of code 0: the clamp returns the bound's +0.0, at any row count."""
    x = rng.uniform(0.0, 1.0, size=(n, width))
    x[:, :3] = [-1e-3, 1.0, -0.0]
    return x


@pytest.mark.parametrize("extra", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("plan", ["W4A4", "W3A8g16", "light-W4A16g16"])
def test_linear_forward_is_the_bytes_of_one_pass_over_all_rows(monkeypatch, models, plan, k, extra):
    """k blocks plus 0-3 rows; a tail of 1 or 2 rows joins the block before it."""
    model = models["default", plan]
    rng = np.random.default_rng(100 * k + extra)
    quantized = []

    def recording(x, spec, state=None):
        out = fake_quant(x, spec, state)
        if spec.role == "activation":
            quantized.append((x, out))
        return out

    monkeypatch.setattr(zoqlab.model, "fake_quant", recording)
    for layer_id, lin in model.iter_attachments():
        width = lin.w.shape[0]
        n = k * (zoqlab.model._BLOCK_FLOATS // width) + extra
        x = rng.normal(size=(n, width))
        x[-3:] = tail_rows(rng, 3, width)
        quantized.clear()
        want = all_rows_linear(x, lin, "qat", holds_codes(lin))
        assert linear_forward(x, lin, "qat").tobytes() == want.tobytes(), layer_id
        if lin.att.act_spec is None:
            assert not quantized, layer_id
            continue
        assert len(quantized) == k + (extra == 3), layer_id
        assert min(len(xs) for xs, _ in quantized) >= 3, layer_id
        whole = fake_quant(np.concatenate([xs for xs, _ in quantized]), lin.att.act_spec)
        assert np.concatenate([out for _, out in quantized]).tobytes() == whole.tobytes(), layer_id


@pytest.mark.parametrize("width", [1, 64, 256, 2**15, 2**17])
def test_row_blocks_cover_the_rows_with_no_block_under_three_rows(width):
    size = max(zoqlab.model._BLOCK_FLOATS // width, 3)
    counts = {0, 1, 2, 3, 4, 5, 6, 7} | {j * size + e for j in (1, 2, 3) for e in (-1, 0, 1, 2, 3)}
    for n in sorted(counts):
        blocks = row_blocks(n, width)
        assert blocks[0].start == 0 and blocks[-1].stop == n, n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:])), n
        lengths = [b.stop - b.start for b in blocks]
        assert all(min(n, 3) <= rows < size + 3 for rows in lengths), (n, lengths)
        assert all(rows == size for rows in lengths[:-1]), (n, lengths)


def test_calibration_keeps_its_bytes_under_the_batched_forward(monkeypatch):
    """The calib_w4a4 set-up: rows as hex and every tensor equal those from the oracle's captures."""
    config = CONFIGS["default"]
    train = corpus(config)

    def calibrated():
        model = build_model(config, QuantPlan(4, 4), seed=0)
        rows = calibrate_model(model, capture_activations(model, train[:2]), epochs=2)
        hex_rows = [{k: v if isinstance(v, str) else float(v).hex() for k, v in row.items()} for row in rows]
        return hex_rows, {name: getattr(owner, attr).tobytes() for name, _, owner, attr in model.tensors()}

    streamed = calibrated()
    monkeypatch.setattr(
        ModelGraph,
        "forward",
        lambda self, tokens, mode="qat", capture=None: batched_forward(
            self, tokens, mode, capture, frozen=coded_layers(self)
        ),
    )
    assert calibrated() == streamed


def forward_peak(model, batch):
    """tracemalloc peak of one qat forward of batch, after a warm-up forward."""
    model.forward(batch, mode="qat")
    tracemalloc.start()
    try:
        model.forward(batch, mode="qat")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def default_w4a4_peaks():
    config = CONFIGS["default"]
    model = build_model(config, QuantPlan(4, 4), seed=0)
    train = corpus(config)
    return {bsz: forward_peak(model, train[:bsz]) for bsz in (4, 8)}


def test_a_default_w4a4_forward_holds_only_live_activations(default_w4a4_peaks):
    """Batch 4 peaks under 3.5 MiB, and 4 more sequences add only their rows
    of the residual stream (d), the mlp hidden (4 d) and its output (d): no
    (bsz, h, t, t) attention matrices or (bsz * t, 4 d) scratch."""
    config = CONFIGS["default"]
    assert default_w4a4_peaks[4] <= 3.5 * MIB
    per_row = 8 * (config.d_model + 4 * config.d_model + config.d_model)
    assert default_w4a4_peaks[8] - default_w4a4_peaks[4] <= 4 * config.context * per_row + MIB // 8


@pytest.mark.parametrize("d_model, plan", [(64, "W4A4"), (64, "light-W4A16g16"), (256, "W3A8g16")])
def test_forward_memory_model_is_within_2x_of_the_default_forward(default_w4a4_peaks, d_model, plan):
    """Lightweight: the frozen linears dequantize their codes into a float64 weight per call.

    At d_model 256 the weight side sets the peak: W3A8g16 measures 11.6 MiB,
    1.93x the model without the weight the GEMM reads and 1.45x with it.
    """
    config = replace(CONFIGS["default"], d_model=d_model)
    if (d_model, plan) == (64, "W4A4"):
        peak = default_w4a4_peaks[4]
    else:
        peak = forward_peak(build(config, plan), corpus(config)[:4])
    modelled = transient_forward_bytes(config, 4)
    assert modelled <= peak <= 2 * modelled


def test_forward_memory_model_is_a_lower_bound_in_full_precision():
    """An fp model's GEMMs read the held weights; at d_model 256 the forward measured 6.21 MiB."""
    config = replace(CONFIGS["default"], d_model=256)
    model = build_model(config, None, seed=0)
    peak = forward_peak(model, corpus(config)[:4])
    assert memory_report(model, ZoConfig(batch_size=4))["transient_forward"] == transient_forward_bytes(
        config, 4, quantized=False
    )
    assert transient_forward_bytes(config, 4, quantized=False) <= peak
