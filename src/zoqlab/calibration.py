"""Layer-wise reconstruction initialization and the round-to-nearest baseline.

Before ZO training, each attached linear layer gets its smoothing and
clipping parameters initialized by derivative-free block-coordinate descent
on the layer reconstruction error (full-precision output vs quantized
smoothed output over captured calibration activations). Improvements are
accepted only when measured, so the returned parameters never score worse
than the starting point.

The smoothing blocks take central differences in every coordinate, their
probes scored in one batch from the residual at the base point: a probe
moves one column of the smoothed input and one row of the smoothed weight,
a low-rank update of the cached residual. The loss depends on the clipping
coefficients only through each group's integer clamp bounds
rint(clip * q_p), so it is piecewise constant in them; the clip block
searches those bounds directly, scoring each one-code move from the weights
at or beyond the moved bound. Every quantized value a probe or a move sees
is the one a full evaluation would compute; only the order of the sums
differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .model import ModelGraph, freeze_linear, regrid_weight_state
from .quantizer import QuantSpec, QuantState, clamp_bounds, fake_quant, init_range, quant_codes, to_groups
from .smoothing import (
    SCALE_CEIL, SCALE_FLOOR, SmoothingParams, fold_smoothing, smooth_activation, smooth_weight,
)

# gradient steps or bound-search passes per block per epoch, and the fixed
# step-size ladder tried at each gradient step (first improvement wins)
_INNER_STEPS = 2
_STEP_LADDER = (1.0, 0.25, 0.0625)
_FD_H = 1e-3
# (row, probe) pairs re-quantized together; bounds the transient memory of a
# probe batch
_PROBE_CHUNK = 256
# (d_lo, d_hi) of the four one-code moves of a group's clamp bounds
_MOVES = np.array([[0, 1], [0, -1], [-1, 0], [1, 0]])


@dataclass
class CalibSet:
    """Per-layer input activations recorded from full-precision forwards."""

    captures: dict[str, list[np.ndarray]]


def capture_activations(model: ModelGraph, corpus_sample) -> CalibSet:
    """Record each attached linear's full-precision inputs, one capture per sequence."""
    corpus_sample = np.asarray(corpus_sample)
    if corpus_sample.size == 0:
        raise DataError("empty calibration corpus")
    if corpus_sample.ndim == 1:
        corpus_sample = corpus_sample[None, :]
    captures: dict[str, list[np.ndarray]] = {}
    for row in corpus_sample:
        model.forward(row, mode="fp", capture=captures)
    return CalibSet(captures=captures)


@dataclass
class ReconstructionResult:
    smoothing: SmoothingParams | None
    quant_state: QuantState
    loss_before: float
    loss_after: float


class _LayerObjective:
    """Mean squared reconstruction error of one quantized linear layer.

    Evaluates the layer as model.linear_forward composes it, with the pieces
    that depend only on the smoothing (smoothed and quantized input, the
    input's per-token quantizer state, smoothed weight and bias) cached, so
    the bound search and the weight re-grid skip the activation re-quantization.
    """

    def __init__(self, x, w, b, weight_spec: QuantSpec, act_spec: QuantSpec | None, smoothing=None):
        self.x = x
        self.w = w
        self.b = b
        self.wspec = weight_spec
        self.aspec = act_spec
        self.y_fp = x @ w + b
        self.set_smoothing(smoothing)

    def set_smoothing(self, smoothing: SmoothingParams | None):
        if smoothing is None:
            self.xs, self.w_s, self.b_s = self.x, self.w, self.b
        else:
            self.xs = smooth_activation(self.x, smoothing)
            self.w_s, self.b_s = fold_smoothing(self.w, self.b, smoothing)
        if self.aspec is not None:
            self.act_state = init_range(self.xs, self.aspec)
            self.xq = fake_quant(self.xs, self.aspec, self.act_state)
        else:
            self.xq = self.xs

    def residual(self, state: QuantState) -> tuple[np.ndarray, np.ndarray]:
        """(quantized weight, y_fp - quantized output) under the weight state."""
        wq = fake_quant(self.w_s, self.wspec, state)
        return wq, self.y_fp - (self.xq @ wq + self.b_s)

    def eval(self, state: QuantState) -> float:
        _, diff = self.residual(state)
        return float(np.mean(diff * diff))


def reconstruct_layer(
    w, b, captures: list[np.ndarray], attachment, epochs: int = 2
) -> ReconstructionResult:
    """Minimize layer reconstruction error over (scale, shift, clip_lo, clip_hi).

    Block-coordinate zeroth-order descent. Per epoch, the smoothing blocks
    (log-scale, shift) take central-difference gradient steps from a fixed
    step ladder, accepted only if the measured loss improves; the 2d probes
    of a gradient are scored together from the residual at the base point
    (_fd_gradient). The clipping block then searches each group's integer
    clamp bounds one code at a time (_search_bounds). Ladder candidates,
    search passes and the returned losses are full evaluations, so
    loss_after is the layer's reconstruction loss exactly. The quantizer
    step/zero are re-derived from the smoothed weight after every epoch
    (again accept-if-improved). epochs=0 returns the range-initialized
    parameters untouched.
    """
    if not captures:
        raise DataError("reconstruct_layer needs at least one capture")
    if attachment.weight_spec is None:
        raise DataError("reconstruct_layer needs a weight quantizer attachment")
    x = np.concatenate([np.asarray(c, dtype=np.float64) for c in captures], axis=0)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    smoothing = attachment.smoothing.copy() if attachment.smoothing is not None else None
    obj = _LayerObjective(x, w, b, attachment.weight_spec, attachment.act_spec, smoothing)
    state = regrid_weight_state(obj.w_s, obj.wspec, attachment.weight_state)
    loss_before = loss = obj.eval(state)
    if not np.isfinite(loss):
        raise NumericError("non-finite reconstruction loss at initialization")

    act_scale = float(np.mean(np.abs(x))) + 1e-3

    for epoch in range(epochs):
        if smoothing is not None:
            loss = _descend_block(obj, state, smoothing, "log_scale", 1.0, loss)
            loss = _descend_block(obj, state, smoothing, "shift", act_scale, loss)
        state, loss = _search_bounds(obj, state, loss)
        # refresh the affine grid for the current smoothing, keep if better
        candidate = regrid_weight_state(obj.w_s, obj.wspec, state)
        cand_loss = obj.eval(candidate)
        if cand_loss < loss:
            state, loss = candidate, cand_loss
        if not np.isfinite(loss):
            raise NumericError(f"non-finite reconstruction loss at epoch {epoch}")
    return ReconstructionResult(smoothing, state, loss_before, loss)


def _block_vector(smoothing, block):
    if block == "log_scale":
        return np.log(smoothing.scale)
    return smoothing.shift.copy()


def _apply_block(obj, smoothing, block, vec):
    """Write vec into the live smoothing block and refresh the objective caches."""
    if block == "log_scale":
        smoothing.scale = np.clip(np.exp(vec), SCALE_FLOOR, SCALE_CEIL)
    else:
        smoothing.shift = vec.copy()
    obj.set_smoothing(smoothing)


def _descend_block(obj, state, smoothing, block, ref_scale, loss):
    for _ in range(_INNER_STEPS):
        base = _block_vector(smoothing, block)
        # the point every probe moves one coordinate away from
        _apply_block(obj, smoothing, block, base)
        grad = _fd_gradient(obj, state, smoothing, block, base)
        norm = float(np.linalg.norm(grad))
        if norm == 0.0:
            return loss
        for mu in _STEP_LADDER:
            cand = base - mu * ref_scale * grad / norm
            _apply_block(obj, smoothing, block, cand)
            cand_loss = obj.eval(state)
            if cand_loss < loss:
                loss = cand_loss
                break
        else:
            _apply_block(obj, smoothing, block, base)
            return loss
    return loss


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _coldot(a, b):
    return np.einsum("ij,ij->j", a, b)


def _fd_gradient(obj, state, smoothing, block, base):
    """Central differences (L(base + h e_j) - L(base - h e_j)) / 2h for every j of a smoothing block.

    obj, state and smoothing must hold base. Each probe's loss change is
    computed from the residual at base; the quantized values are those of a
    full evaluation at the probe, the sums run in another order.

    Probe j moves column j of the smoothed input and, for log_scale, row j of
    the smoothed weight; a shift probe also moves the folded bias by
    dshift_j * w[j]. In a row whose per-token range stays put, the output
    changes by the rank-3 term dx_j r_j' + xq_j dw_j' + 1 db_j', where r_j is
    the probe's quantized weight row and dx_j, dw_j, db_j its changes. Rows
    whose range moves are re-quantized in full.
    """
    wq, resid = obj.residual(state)
    n_rows = resid.shape[0]
    xq = obj.xq
    xq_resid = xq.T @ resid
    resid_sum = resid.sum(axis=0)
    xq_sq = _coldot(xq, xq)
    xq_sum = xq.sum(axis=0)
    extremes = _row_extremes(obj.xs) if obj.aspec is not None else None
    changes = []
    for sign in (1.0, -1.0):
        moved_val = base + sign * _FD_H
        if block == "log_scale":
            scale = np.clip(np.exp(moved_val), SCALE_FLOOR, SCALE_CEIL)
            probe = SmoothingParams(scale, smoothing.shift)
        else:
            probe = SmoothingParams(smoothing.scale, moved_val)
        # column j / row j of these hold probe j's smoothed input / quantized weight
        xs_probe = smooth_activation(obj.x, probe)
        if obj.aspec is not None:
            dx = fake_quant(xs_probe, obj.aspec, obj.act_state)
        else:
            dx = xs_probe.copy()
        dx -= xq
        w_rows = fake_quant(smooth_weight(obj.w, probe), obj.wspec, state)
        dw = w_rows - wq
        db = (probe.shift - smoothing.shift)[:, None] * obj.w
        inner = _rowdot(dx.T @ resid, w_rows) + _rowdot(xq_resid, dw) + db @ resid_sum
        sq = (
            _coldot(dx, dx) * _rowdot(w_rows, w_rows)
            + xq_sq * _rowdot(dw, dw)
            + n_rows * _rowdot(db, db)
            + 2 * _coldot(dx, xq) * _rowdot(w_rows, dw)
            + 2 * dx.sum(axis=0) * _rowdot(w_rows, db)
            + 2 * xq_sum * _rowdot(dw, db)
        )
        change = sq - 2 * inner
        if extremes is not None:
            rows, cols = _range_moves(extremes, xs_probe)
            change += _moved_row_changes(obj, wq, resid, xs_probe, dx, w_rows, dw, db, rows, cols)
        changes.append(change)
    return (changes[0] - changes[1]) / (resid.size * 2 * _FD_H)


def _row_extremes(xs):
    """Per row: the min and max, where they sit, and the runner-up min and max.

    The runner-up is the extreme of the row without the extreme's cell, so it
    equals the extreme when that value occurs twice (inf for a 1-wide row).
    """
    rows = np.arange(xs.shape[0])
    lo_at, hi_at = xs.argmin(axis=1), xs.argmax(axis=1)
    lo, hi = xs[rows, lo_at], xs[rows, hi_at]
    rest = xs.copy()
    rest[rows, lo_at] = np.inf
    lo2 = rest.min(axis=1)
    rest[rows, lo_at] = lo
    rest[rows, hi_at] = -np.inf
    hi2 = rest.max(axis=1)
    return lo, lo_at, lo2, hi, hi_at, hi2


def _range_moves(extremes, xs_probe):
    """(row, probe) pairs whose per-token min or max moves when column j becomes xs_probe's.

    Where neither moves, the per-token quantizer state is bitwise that of the
    base row.
    """
    lo, lo_at, lo2, hi, hi_at, hi2 = extremes
    rows = np.arange(lo.shape[0])
    bound = np.minimum(xs_probe, lo[:, None])
    bound[rows, lo_at] = np.minimum(xs_probe[rows, lo_at], lo2)
    moved = bound != lo[:, None]
    np.maximum(xs_probe, hi[:, None], out=bound)
    bound[rows, hi_at] = np.maximum(xs_probe[rows, hi_at], hi2)
    moved |= bound != hi[:, None]
    return np.nonzero(moved)


def _moved_row_changes(obj, wq, resid, xs_probe, dx, w_rows, dw, db, rows, cols):
    """Per probe, the full re-quantization of its moved rows minus their low-rank estimate."""
    out = np.zeros(xs_probe.shape[1])
    for start in range(0, rows.shape[0], _PROBE_CHUNK):
        i, j = rows[start : start + _PROBE_CHUNK], cols[start : start + _PROBE_CHUNK]
        k = np.arange(i.shape[0])
        xs_rows = obj.xs[i]
        xs_rows[k, j] = xs_probe[i, j]
        xq_rows = fake_quant(xs_rows, obj.aspec)
        xq_j = xq_rows[k, j]
        xq_rows -= obj.xq[i]
        full = resid[i] - (xq_rows @ wq + xq_j[:, None] * dw[j] + db[j])
        low_rank = resid[i] - (dx[i, j][:, None] * w_rows[j] + obj.xq[i, j][:, None] * dw[j] + db[j])
        out += np.bincount(j, _rowdot(full, full) - _rowdot(low_rank, low_rank), out.shape[0])
    return out


class _BoundGrid:
    """The weight groups as the bound search moves them, and the exact score of a move.

    Group g is output column g // slots over the input rows of slot g % slots:
    per output channel one slot spans every row, with a group_size each slot
    is one block of group_size rows (QuantSpec's weight tiling). codes are
    the smoothed weight's codes clamped only to [q_n, q_p], which no bound
    move changes; gram is xq' xq.
    """

    def __init__(self, obj, state):
        spec = self.spec = obj.wspec
        d_in, d_out = obj.w_s.shape
        self.size = spec.group_size or d_in
        self.slots = d_in // self.size
        n = d_out * self.slots
        full = QuantState(state.step, state.zero_point, np.full(n, spec.q_n / spec.q_p), np.ones(n))
        self.codes = to_groups(quant_codes(obj.w_s, spec, full), spec)
        self.step, self.gram = state.step, obj.xq.T @ obj.xq

    def changes(self, lo, hi, corr, k):
        """Summed squared-residual change of every move of slot k's groups, and its weight change.

        lo and hi are every group's clamp bounds, corr is resid' xq at them.
        Move m of column c's group shifts the weights at or beyond the moved
        bound by one step, dw[m, c], so over the slot's rows the change is
        dw' gram dw - 2 corr[c] dw. A move that leaves [q_n, q_p] or breaks
        lo < hi scores inf.
        """
        r = slice(k * self.size, (k + 1) * self.size)
        codes, lo, hi = self.codes[k :: self.slots], lo[k :: self.slots, None], hi[k :: self.slots, None]
        beyond = np.stack([codes > hi, codes >= hi, codes < lo, codes <= lo])
        dw = beyond * (_MOVES.sum(axis=1)[:, None, None] * self.step[k :: self.slots, None])
        new_lo, new_hi = lo.T + _MOVES[:, :1], hi.T + _MOVES[:, 1:]
        feasible = (new_lo >= self.spec.q_n) & (new_hi <= self.spec.q_p) & (new_lo < new_hi)
        change = np.where(feasible, 0.0, np.inf)
        # only moves that change a weight need the products
        m, c = np.nonzero(feasible & beyond.any(axis=2))
        live = dw[m, c]
        change[m, c] = _rowdot(live, live @ self.gram[r, r] - 2 * corr[c, r])
        return change, dw


def _search_bounds(obj, state, loss):
    """Move each group's integer clamp bounds one code at a time; returns (state, loss).

    Per pass, slot by slot, every group of the slot takes its best move that
    lowers the loss. The groups of a slot sit in distinct output columns, so
    their changes add up; the moves update resid' xq through gram before the
    next slot is scored. A pass is kept only if a full evaluation shows the
    loss dropped. Only a moved group's clip coefficients are rewritten, as
    bound / q_p: writing back a collapsed group (lo == hi) would break
    clip_lo < clip_hi.
    """
    spec = obj.wspec
    grid = _BoundGrid(obj, state)
    _, resid = obj.residual(state)
    corr = resid.T @ obj.xq
    for _ in range(_INNER_STEPS):
        lo, hi = clamp_bounds(spec, state)
        cand = state.copy()
        for k in range(grid.slots):
            change, dw = grid.changes(lo, hi, corr, k)
            best = np.argmin(change, axis=0)
            cols = np.nonzero(change[best, np.arange(best.shape[0])] < 0)[0]
            g, move = cols * grid.slots + k, _MOVES[best[cols]]
            cand.clip_lo[g] = (lo[g] + move[:, 0]) / spec.q_p
            cand.clip_hi[g] = (hi[g] + move[:, 1]) / spec.q_p
            corr[cols] -= dw[best[cols], cols] @ grid.gram[k * grid.size : (k + 1) * grid.size]
        cand_loss = obj.eval(cand)
        if not cand_loss < loss:
            break
        state, loss = cand, cand_loss
    return state, loss


def calibrate_model(model: ModelGraph, calib: CalibSet, epochs: int) -> list[dict]:
    """Run reconstruct_layer on every attached linear; returns per-layer rows.

    Mutates the attachments in place; each row carries layer_id,
    loss_before, loss_after and delta_loss, the relative loss drop
    (before - after) / before (0 where before is 0), for the calibration CSV.
    """
    rows = []
    for layer_id, lin in model.iter_attachments():
        att = lin.att
        if att.weight_spec is None or att.pre_quantized:
            continue
        result = reconstruct_layer(lin.w, lin.b, calib.captures[layer_id], att, epochs=epochs)
        att.smoothing = result.smoothing
        att.weight_state = result.quant_state
        before, after = result.loss_before, result.loss_after
        rows.append(
            {
                "layer_id": layer_id,
                "loss_before": before,
                "loss_after": after,
                "delta_loss": (before - after) / before if before > 0 else 0.0,
            }
        )
    return rows


def rtn_quantize(model: ModelGraph) -> ModelGraph:
    """Round-to-nearest baseline: range-init and pre-quantize every attached weight.

    Smoothing resets to identity, clipping stays inactive, and no
    optimization happens. Idempotent: already pre-quantized layers are left
    alone.
    """
    for _, lin in model.iter_attachments():
        att = lin.att
        if att.weight_spec is None or att.pre_quantized:
            continue
        if att.smoothing is not None:
            att.smoothing = SmoothingParams.identity(lin.w.shape[0])
        att.weight_state = init_range(lin.w, att.weight_spec)
        freeze_linear(lin)
    return model
