import copy

import numpy as np
import pytest

import zoqlab.calibration as calibration
from zoqlab.calibration import (
    _INNER_STEPS,
    _BoundGrid,
    _LayerObjective,
    _apply_block,
    _block_vector,
    _fd_gradient,
    _range_moves,
    _row_extremes,
    _search_bounds,
    calibrate_model,
    capture_activations,
    reconstruct_layer,
)
from zoqlab.cli import default_corpus_path, ingest_corpus
from zoqlab.errors import DataError
from zoqlab.model import ModelConfig, QuantPlan, build_model, regrid_weight_state
from zoqlab.quantizer import clamp_bounds

from oracles import bound_move_changes, coordinate_fd_gradient, greedy_bound_search

TINY = ModelConfig(vocab_size=128, d_model=16, n_layers=1, n_heads=2, context=16)

PLANS = {
    "W4A4": QuantPlan(4, 4),
    "W3A16g8": QuantPlan(3, None, group_size=8),
    "W2A4-symmetric": QuantPlan(2, 4, scheme="symmetric"),
}
BLOCKS = [
    (plan, block) for plan in PLANS if PLANS[plan].a_bits is not None for block in ("log_scale", "shift")
]

# The batched probes sum in another order than a full evaluation. Measured,
# the gradients differ by at most 1.5e-13 of their largest entry on these
# layers, and by 5e-13 on the layers of the default ModelConfig.
GRAD_RTOL = 1e-7


def tokens(n, length=TINY.context, seed=0):
    return np.random.default_rng(seed).integers(0, TINY.vocab_size, size=(n, length))


def model_and_captures(plan):
    model = build_model(TINY, PLANS[plan], seed=1)
    return model, capture_activations(model, tokens(2))


def off_init_model(plan):
    """A tiny model and its captures, every attachment moved off the range init.

    The smoothing is random, and every clip_hi sits within h/2 of a rounding
    threshold of clip_hi * q_p, on alternating sides, so the clip
    coefficients are off the integer grid. Under W2A4-symmetric some groups
    collapse to lo == hi.
    """
    model, calib = model_and_captures(plan)
    rng = np.random.default_rng(3)
    for _, lin in model.iter_attachments():
        att = lin.att
        if att.smoothing is not None:
            att.smoothing.scale = np.exp(rng.normal(scale=0.3, size=att.smoothing.scale.shape))
            att.smoothing.shift = rng.normal(scale=0.1, size=att.smoothing.shift.shape)
        state, q_p = att.weight_state, att.weight_spec.q_p
        side = np.where(np.arange(state.n_groups) % 2 == 0, 1.0, -1.0)
        state.clip_hi = 1.0 - (rng.integers(0, 3, state.n_groups) + 0.5) / q_p + side * 4e-4
        state.clip_lo = np.minimum(state.clip_lo, state.clip_hi - 1e-6)
    return model, calib


def layer_points(plan):
    """(layer_id, objective, state, smoothing) of every layer of off_init_model(plan)."""
    model, calib = off_init_model(plan)
    points = []
    for layer_id, lin in model.iter_attachments():
        att = lin.att
        x = np.concatenate(calib.captures[layer_id], axis=0)
        obj = _LayerObjective(x, lin.w, lin.b, att.weight_spec, att.act_spec)
        smoothing = att.smoothing.copy() if att.smoothing is not None else None
        obj.set_smoothing(smoothing)
        state = regrid_weight_state(obj.w_s, obj.wspec, att.weight_state)
        points.append((layer_id, obj, state, smoothing))
    return points


def at_base(obj, state, smoothing, block):
    base = _block_vector(smoothing, block)
    _apply_block(obj, smoothing, block, base)
    return base


@pytest.mark.parametrize("plan, block", BLOCKS)
def test_batched_gradient_matches_the_coordinate_loop(plan, block):
    for layer_id, obj, state, smoothing in layer_points(plan):
        base = at_base(obj, state, smoothing, block)
        got = _fd_gradient(obj, state, smoothing, block, base)
        want = coordinate_fd_gradient(obj, state, smoothing, block, base)
        scale = np.max(np.abs(want))
        assert scale > 0, layer_id
        assert np.max(np.abs(got - want)) <= GRAD_RTOL * scale, layer_id


def brute_force_moves(xs, xs_probe):
    """Every (row, probe) whose row min or max changes, one column at a time."""
    pairs = set()
    for j in range(xs.shape[1]):
        rows = xs.copy()
        rows[:, j] = xs_probe[:, j]
        moved = (rows.min(axis=1) != xs.min(axis=1)) | (rows.max(axis=1) != xs.max(axis=1))
        pairs |= {(int(i), j) for i in np.nonzero(moved)[0]}
    return pairs


@pytest.mark.parametrize("plan", ["W4A4", "W2A4-symmetric"])
def test_rows_whose_range_moves_are_found_exactly(plan):
    found = 0
    for _, obj, state, smoothing in layer_points(plan):
        for block in ("log_scale", "shift"):
            base = at_base(obj, state, smoothing, block)
            for sign in (1.0, -1.0):
                probe = smoothing.copy()
                if block == "log_scale":
                    probe.scale = np.exp(base + sign * calibration._FD_H)
                else:
                    probe.shift = base + sign * calibration._FD_H
                xs_probe = calibration.smooth_activation(obj.x, probe)
                rows, cols = _range_moves(_row_extremes(obj.xs), xs_probe)
                pairs = set(zip(rows.tolist(), cols.tolist()))
                assert pairs == brute_force_moves(obj.xs, xs_probe)
                found += len(pairs)
    # the fixture reaches the full re-quantization path
    assert found > 0


def test_row_extremes_count_a_repeated_extreme_twice():
    xs = np.array([[1.0, -2.0, 5.0, -2.0, 5.0], [3.0, 0.0, 7.0, 1.0, 2.0]])
    lo, lo_at, lo2, hi, hi_at, hi2 = _row_extremes(xs)
    assert lo.tolist() == [-2.0, 0.0] and lo2.tolist() == [-2.0, 1.0]
    assert hi.tolist() == [5.0, 7.0] and hi2.tolist() == [5.0, 3.0]
    assert lo_at.tolist() == [1, 1] and hi_at.tolist() == [2, 2]


def base_bound_changes(obj, state):
    """Every group's move changes as the search scores them, all from the residual at state."""
    grid = _BoundGrid(obj, state)
    _, resid = obj.residual(state)
    lo, hi = clamp_bounds(obj.wspec, state)
    change = np.empty((4, state.n_groups))
    for k in range(grid.slots):
        change[:, k :: grid.slots] = grid.changes(lo, hi, resid.T @ obj.xq, k)[0]
    return change


@pytest.mark.parametrize("plan", PLANS)
def test_bound_moves_score_a_full_evaluation_per_move(plan):
    collapsed = improving = 0
    for layer_id, obj, state, _ in layer_points(plan):
        got = base_bound_changes(obj, state)
        want = bound_move_changes(obj, state)
        assert np.array_equal(np.isinf(got), np.isinf(want)), layer_id
        finite = np.isfinite(want)
        scale = np.max(np.abs(want[finite]))
        assert np.max(np.abs(got[finite] - want[finite])) <= GRAD_RTOL * scale, layer_id
        lo, hi = clamp_bounds(obj.wspec, state)
        collapsed += int(np.sum(lo == hi))
        improving += int(np.sum(want < 0))
    assert improving > 0
    if plan == "W2A4-symmetric":
        # groups whose clamp range is a single code, which only moves outward
        assert collapsed > 0


@pytest.mark.parametrize("plan", PLANS)
def test_bound_search_takes_the_moves_of_the_move_by_move_search(plan):
    moved = 0
    for layer_id, obj, state, _ in layer_points(plan):
        loss = obj.eval(state)
        got, got_loss = _search_bounds(obj, state.copy(), loss)
        want, want_loss = greedy_bound_search(obj, state.copy(), loss, _INNER_STEPS)
        assert np.array_equal(got.clip_lo, want.clip_lo), layer_id
        assert np.array_equal(got.clip_hi, want.clip_hi), layer_id
        assert got_loss == want_loss == obj.eval(got), layer_id
        moved += int(got_loss < loss)
    assert moved > 0


@pytest.mark.parametrize("bits", [2, 3], ids=["W2A16g16", "W3A16g16"])
def test_weight_only_calibration_lowers_the_loss_of_the_default_model(bits):
    config = ModelConfig()
    model = build_model(config, QuantPlan(bits, None, group_size=16), seed=0)
    train, _ = ingest_corpus(default_corpus_path(), config.context, 0)
    rows = calibrate_model(model, capture_activations(model, train[:2]), epochs=2)
    assert len(rows) == 12
    assert all(r["loss_after"] <= r["loss_before"] for r in rows)
    assert sum(r["loss_after"] < r["loss_before"] for r in rows) >= 10


@pytest.mark.parametrize("plan", PLANS)
def test_calibrated_loss_matches_a_run_on_the_coordinate_loop(plan, monkeypatch):
    model, calib = off_init_model(plan)
    reference = copy.deepcopy(model)
    rows = calibrate_model(model, calib, epochs=2)
    monkeypatch.setattr(calibration, "_fd_gradient", coordinate_fd_gradient)
    want = calibrate_model(reference, calib, epochs=2)
    assert [r["layer_id"] for r in rows] == [r["layer_id"] for r in want]
    for got, ref in zip(rows, want):
        assert got["loss_before"] == ref["loss_before"]
        assert got["loss_after"] == pytest.approx(ref["loss_after"], rel=1e-9, abs=0)
        assert got["loss_after"] <= got["loss_before"]
    # calibration moved something, so the comparison is not vacuous
    assert any(r["loss_after"] < r["loss_before"] for r in rows)


def test_zero_epochs_return_the_range_initialized_state():
    model, calib = model_and_captures("W4A4")
    lin = model.blocks[0].linears["mlp_down"]
    att = lin.att
    scale, shift = att.smoothing.scale.copy(), att.smoothing.shift.copy()
    state = att.weight_state.copy()
    result = reconstruct_layer(lin.w, lin.b, calib.captures["block0.mlp_down"], att, epochs=0)
    assert result.loss_after == result.loss_before
    assert np.array_equal(result.smoothing.scale, scale)
    assert np.array_equal(result.smoothing.shift, shift)
    for field in ("step", "zero_point", "clip_lo", "clip_hi"):
        assert np.array_equal(getattr(result.quant_state, field), getattr(state, field)), field
    assert result.smoothing is not att.smoothing


def test_empty_captures_are_a_data_error():
    model, _ = model_and_captures("W4A4")
    lin = model.blocks[0].linears["attn_q"]
    with pytest.raises(DataError, match="at least one capture"):
        reconstruct_layer(lin.w, lin.b, [], lin.att)
    with pytest.raises(DataError, match="empty calibration corpus"):
        capture_activations(model, np.zeros((0, 8), dtype=np.int64))
