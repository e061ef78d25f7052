"""Layer-wise reconstruction initialization and the round-to-nearest baseline.

Before ZO training, each attached linear layer gets its smoothing and
clipping parameters initialized by derivative-free block-coordinate descent
on the layer reconstruction error (full-precision output vs quantized
smoothed output over captured calibration activations). Improvements are
accepted only when measured, so the returned parameters never score worse
than the starting point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .model import ModelGraph, freeze_linear, regrid_weight_state
from .quantizer import QuantSpec, QuantState, fake_quant, init_range
from .smoothing import SCALE_FLOOR, SmoothingParams, fold_smoothing, smooth_activation

# inner gradient steps per parameter block per epoch, and the fixed
# step-size ladder tried at each of them (first improvement wins)
_INNER_STEPS = 2
_STEP_LADDER = (1.0, 0.25, 0.0625)
_FD_H = 1e-3


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
    that depend only on the smoothing (quantized input, smoothed weight and
    bias) cached, so clipping-only probes skip the activation
    re-quantization.
    """

    def __init__(self, x, w, b, weight_spec: QuantSpec, act_spec: QuantSpec | None):
        self.x = x
        self.w = w
        self.b = b
        self.wspec = weight_spec
        self.aspec = act_spec
        self.y_fp = x @ w + b
        self._xq = None
        self._w_s = None
        self._b_s = None

    def set_smoothing(self, smoothing: SmoothingParams | None):
        if smoothing is None:
            xs, self._w_s, self._b_s = self.x, self.w, self.b
        else:
            xs = smooth_activation(self.x, smoothing)
            self._w_s, self._b_s = fold_smoothing(self.w, self.b, smoothing)
        if self.aspec is not None:
            self._xq = fake_quant(xs, self.aspec, init_range(xs, self.aspec))
        else:
            self._xq = xs

    def eval(self, state: QuantState) -> float:
        wq = fake_quant(self._w_s, self.wspec, state)
        diff = self.y_fp - (self._xq @ wq + self._b_s)
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
    step ladder, accepted only if the measured loss improves. The quantizer
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
    obj = _LayerObjective(x, w, b, attachment.weight_spec, attachment.act_spec)

    smoothing = attachment.smoothing.copy() if attachment.smoothing is not None else None
    obj.set_smoothing(smoothing)
    state = regrid_weight_state(obj._w_s, obj.wspec, attachment.weight_state)
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
        candidate = regrid_weight_state(obj._w_s, obj.wspec, state)
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
        grad = np.zeros_like(base)
        for j in range(base.shape[0]):
            probe = base.copy()
            probe[j] = base[j] + _FD_H
            _apply_block(obj, smoothing, state, block, probe)
            up = obj.eval(state)
            probe[j] = base[j] - _FD_H
            _apply_block(obj, smoothing, state, block, probe)
            down = obj.eval(state)
            grad[j] = (up - down) / (2 * _FD_H)
        norm = float(np.linalg.norm(grad))
        if norm == 0.0:
            _apply_block(obj, smoothing, state, block, base)
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
