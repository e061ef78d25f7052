"""Layer-wise reconstruction initialization and the round-to-nearest baseline.

Before ZO training, each attached linear layer gets its smoothing and
clipping parameters initialized by derivative-free block-coordinate descent
on the layer reconstruction error (full-precision output vs quantized
smoothed output over captured calibration activations). Improvements are
accepted only when measured, so the returned parameters never score worse
than the starting point.

The descent takes central differences in every coordinate of a block. The
probes are scored in one batch from the residual at the base point: a probe
moves one column of the smoothed input and one row of the smoothed weight,
or one group's clamp bounds, so its loss change is a low-rank update of the
cached residual. Every quantized value a probe sees is the one a full
evaluation would compute; only the order of the sums differs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, NumericError
from .model import ModelGraph, freeze_linear, regrid_weight_state
from .numerics import per_channel, to_groups
from .quantizer import QuantSpec, QuantState, clamp_bounds, fake_quant, init_range
from .smoothing import (
    SCALE_FLOOR,
    SmoothingParams,
    fold_smoothing,
    smooth_activation,
    smooth_weight,
)

# inner gradient steps per parameter block per epoch, and the fixed
# step-size ladder tried at each of them (first improvement wins)
_INNER_STEPS = 2
_STEP_LADDER = (1.0, 0.25, 0.0625)
_FD_H = 1e-3
# (row, probe) pairs or clip probes re-quantized together; bounds the
# transient memory of a probe batch
_PROBE_CHUNK = 256


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


def delta_loss(before: float, after: float) -> float:
    """Relative loss reduction (before - after) / before; negative means regression."""
    if before <= 0:
        raise DataError(f"delta_loss requires before > 0, got {before}")
    return (before - after) / before


@dataclass
class ReconstructionResult:
    smoothing: SmoothingParams | None
    quant_state: QuantState
    loss_before: float
    loss_after: float

    @property
    def delta_loss(self) -> float:
        return delta_loss(self.loss_before, self.loss_after)


class _LayerObjective:
    """Mean squared reconstruction error of one quantized linear layer.

    Evaluates the layer as model.linear_forward composes it, with the pieces
    that depend only on the smoothing (smoothed and quantized input, the
    input's per-token quantizer state, smoothed weight and bias) cached, so
    clipping-only probes skip the activation re-quantization.
    """

    def __init__(self, x, w, b, weight_spec: QuantSpec, act_spec: QuantSpec | None):
        self.x = x
        self.w = w
        self.b = b
        self.wspec = weight_spec
        self.aspec = act_spec
        self.y_fp = x @ w + b
        self.xs = None
        self.act_state = None
        self.xq = None
        self.w_s = None
        self.b_s = None

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
    w,
    b,
    captures: list[np.ndarray],
    attachment,
    epochs: int = 2,
) -> ReconstructionResult:
    """Minimize layer reconstruction error over (scale, shift, clip_lo, clip_hi).

    Block-coordinate zeroth-order descent: per epoch, each block (log-scale,
    shift, clipping) takes central-difference gradient steps from a fixed
    step ladder, accepted only if the measured loss improves. The 2d probes
    of a gradient are scored together from the residual at the base point
    (_fd_gradient); the ladder candidates and the returned losses are full
    evaluations, so loss_after is the layer's reconstruction loss exactly.
    The quantizer step/zero are re-derived from the smoothed weight after
    every epoch (again accept-if-improved). epochs=0 returns the
    range-initialized parameters untouched.
    """
    if not captures:
        raise DataError("reconstruct_layer needs at least one capture")
    if attachment.weight_spec is None:
        raise DataError("reconstruct_layer needs a weight quantizer attachment")
    x = np.concatenate([np.asarray(c, dtype=np.float64) for c in captures], axis=0)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    obj = _LayerObjective(x, w, b, attachment.weight_spec, attachment.act_spec)

    smoothing = attachment.smoothing.copy() if attachment.smoothing is not None else None
    obj.set_smoothing(smoothing)
    state = regrid_weight_state(obj.w_s, obj.wspec, attachment.weight_state)
    loss = obj.eval(state)
    loss_before = loss
    if not np.isfinite(loss):
        raise NumericError("non-finite reconstruction loss at initialization")

    act_scale = float(np.mean(np.abs(x))) + 1e-3

    for epoch in range(epochs):
        if smoothing is not None:
            loss = _descend_block(obj, state, smoothing, "log_scale", 1.0, loss)
            loss = _descend_block(obj, state, smoothing, "shift", act_scale, loss)
        loss = _descend_block(obj, state, smoothing, "clip", 0.1, loss)
        # refresh the affine grid for the current smoothing, keep if better
        candidate = regrid_weight_state(obj.w_s, obj.wspec, state)
        cand_loss = obj.eval(candidate)
        if cand_loss < loss:
            state, loss = candidate, cand_loss
        if not np.isfinite(loss):
            raise NumericError(f"non-finite reconstruction loss at epoch {epoch}")
    return ReconstructionResult(
        smoothing=smoothing, quant_state=state, loss_before=loss_before, loss_after=loss
    )


def _block_vector(smoothing, state, block):
    if block == "log_scale":
        return np.log(smoothing.scale)
    if block == "shift":
        return smoothing.shift.copy()
    return np.concatenate([state.clip_lo, state.clip_hi])


def _apply_block(obj, smoothing, state, block, vec):
    """Write vec into the live block and refresh the objective caches."""
    if block == "log_scale":
        smoothing.scale = np.clip(np.exp(vec), SCALE_FLOOR, 1e4)
        obj.set_smoothing(smoothing)
    elif block == "shift":
        smoothing.shift = vec.copy()
        obj.set_smoothing(smoothing)
    else:
        n = state.clip_lo.shape[0]
        state.clip_lo = np.minimum(vec[:n], vec[n:] - 1e-6)
        state.clip_hi = vec[n:].copy()


def _descend_block(obj, state, smoothing, block, ref_scale, loss):
    for _ in range(_INNER_STEPS):
        base = _block_vector(smoothing, state, block)
        # the point every probe moves one coordinate away from
        _apply_block(obj, smoothing, state, block, base)
        grad = _fd_gradient(obj, state, smoothing, block, base)
        norm = float(np.linalg.norm(grad))
        if norm == 0.0:
            return loss
        accepted = False
        for mu in _STEP_LADDER:
            cand = base - mu * ref_scale * grad / norm
            _apply_block(obj, smoothing, state, block, cand)
            cand_loss = obj.eval(state)
            if cand_loss < loss:
                loss = cand_loss
                accepted = True
                break
        if not accepted:
            _apply_block(obj, smoothing, state, block, base)
            return loss
    return loss


def _fd_gradient(obj, state, smoothing, block, base):
    """Central differences (L(base + h e_j) - L(base - h e_j)) / 2h for every j.

    obj, state and smoothing must hold base. Each probe's loss change is
    computed from the residual at base; the quantized values are those of a
    full evaluation at the probe, the sums run in another order.
    """
    if block == "clip":
        change = _clip_probe_changes(obj, state, base)
    else:
        change = _smoothing_probe_changes(obj, state, smoothing, block, base)
    n_rows, n_out = obj.y_fp.shape
    return (change[0] - change[1]) / (n_rows * n_out * 2 * _FD_H)


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _coldot(a, b):
    return np.einsum("ij,ij->j", a, b)


def _smoothing_probe_changes(obj, state, smoothing, block, base):
    """Summed squared-residual change of every +h and every -h probe of a smoothing block.

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
            scale = np.clip(np.exp(moved_val), SCALE_FLOOR, 1e4)
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
    return changes


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


def _clip_probe_changes(obj, state, base):
    """Summed squared-residual change of every +h and every -h clipping probe.

    A probe moves one group's clip coefficient. Where the group's integer
    clamp bounds stay put, the quantized weight and so the loss are those of
    the base: the change is exactly 0. Otherwise the group is re-quantized
    and its output column updated by one product with the quantized input.
    Weight groups are column slices, as QuantPlan tiles them.
    """
    spec = obj.wspec
    wq, resid = obj.residual(state)
    n = state.n_groups
    d_in, d_out = wq.shape
    w_groups = to_groups(obj.w_s, spec.granularity)
    wq_groups = to_groups(wq, spec.granularity)
    cells = to_groups(np.arange(wq.size, dtype=np.float64).reshape(wq.shape), spec.granularity)
    in_rows, out_cols = np.divmod(cells.astype(np.int64), d_out)
    if np.any(out_cols != out_cols[:, :1]):
        raise DataError("calibration needs weight groups that are column slices")
    lo_now, hi_now = clamp_bounds(spec, state)
    group = np.arange(2 * n) % n
    # the probes' groups laid out as columns, one quantizer group each
    column_spec = replace(spec, granularity=per_channel(1))
    changes = []
    for sign in (1.0, -1.0):
        moved_val = base + sign * _FD_H
        clip_lo, clip_hi = base[:n][group], base[n:][group]
        clip_lo[:n] = moved_val[:n]
        clip_hi[n:] = moved_val[n:]
        clip_lo = np.minimum(clip_lo, clip_hi - 1e-6)
        probes = QuantState(state.step[group], state.zero_point[group], clip_lo, clip_hi)
        lo, hi = clamp_bounds(spec, probes)
        moved = np.nonzero((lo != lo_now[group]) | (hi != hi_now[group]))[0]
        change = np.zeros(2 * n)
        for start in range(0, moved.shape[0], _PROBE_CHUNK):
            p = moved[start : start + _PROBE_CHUNK]
            g = group[p]
            sub = QuantState(probes.step[p], probes.zero_point[p], probes.clip_lo[p], probes.clip_hi[p])
            dwq = fake_quant(w_groups[g].T, column_spec, sub) - wq_groups[g].T
            scattered = np.zeros((d_in, p.shape[0]))
            scattered[in_rows[g].T, np.arange(p.shape[0])] = dwq
            dy = obj.xq @ scattered
            change[p] = _coldot(dy, dy - 2 * resid[:, out_cols[g, 0]])
        changes.append(change)
    return changes


def calibrate_model(model: ModelGraph, calib: CalibSet, epochs: int) -> list[dict]:
    """Run reconstruct_layer on every attached linear; returns per-layer rows.

    Mutates the attachments in place; each row carries layer_id,
    loss_before, loss_after, delta_loss for the calibration CSV.
    """
    rows = []
    for layer_id, lin in model.iter_attachments():
        att = lin.att
        if att.weight_spec is None or att.pre_quantized:
            continue
        result = reconstruct_layer(
            lin.w, lin.b, calib.captures[layer_id], att, epochs=epochs
        )
        att.smoothing = result.smoothing
        att.weight_state = result.quant_state
        rows.append(
            {
                "layer_id": layer_id,
                "loss_before": result.loss_before,
                "loss_after": result.loss_after,
                "delta_loss": result.delta_loss if result.loss_before > 0 else 0.0,
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
