"""Layer-wise reconstruction initialization and the round-to-nearest baseline.

Before ZO training, each attached linear layer gets its smoothing and
clipping parameters initialized on the layer reconstruction error
(full-precision output vs quantized smoothed output over captured
calibration activations). Every candidate is scored by a full evaluation and
kept only if it scores lower, so the returned parameters never score worse
than the starting point.

The smoothing is chosen once, in closed form: the layer's current smoothing
competes with SmoothQuant's migration of activation range into the weights
(Xiao et al., arXiv 2211.10438) at several strengths alpha, each with no
shift and with Outlier Suppression+'s per-channel midpoint shift (Wei et
al., arXiv 2304.09145). The loss then depends on the clipping coefficients
only through each group's integer clamp bounds rint(clip * q_p), so it is
piecewise constant in them; the clip search moves those bounds directly,
scoring each one-code move from the weights at or beyond the moved bound.
Every quantized value a move sees is the one a full evaluation would
compute; only the order of the sums differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .model import ModelGraph, freeze_linear, holds_codes, regrid_weight_state
from .quantizer import QuantSpec, QuantState, clamp_bounds, fake_quant, group_view, init_range, per_group, quant_codes
from .smoothing import SCALE_CEIL, SCALE_FLOOR, SmoothingParams, fold_smoothing, smooth_activation

# bound-search passes per epoch
_INNER_STEPS = 2
# migration strengths of the closed-form smoothing candidates
_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
# (d_lo, d_hi) of the four one-code moves of a group's clamp bounds
_MOVES = np.array([[0, 1], [0, -1], [-1, 0], [1, 0]])


@dataclass
class CalibSet:
    """Per-layer input activations recorded from one full-precision forward.

    captures maps each attached linear's id to its (rows, d_in) input, the
    sequences' rows in order: the forward's own arrays (ModelGraph.forward's
    capture). Layers that read one input share one array: a block's attn_q,
    attn_k and attn_v entries are the same object.
    """

    captures: dict[str, np.ndarray]


def capture_activations(model: ModelGraph, corpus_sample) -> CalibSet:
    """Record each attached linear's full-precision inputs from one batched forward.

    corpus_sample is a (sequences, t) token matrix. Its captures are byte for
    byte those of one forward per sequence: the forward runs attention one
    sequence at a time, and every other stage works row by row.
    """
    corpus_sample = np.asarray(corpus_sample)
    if corpus_sample.size == 0:
        raise DataError("empty calibration corpus")
    seen: dict[str, list[np.ndarray]] = {}
    model.forward(corpus_sample, mode="fp", capture=seen)
    return CalibSet({layer_id: x for layer_id, (x,) in seen.items()})


@dataclass
class ReconstructionResult:
    smoothing: SmoothingParams | None
    quant_state: QuantState
    loss_before: float
    loss_after: float


class _LayerObjective:
    """Mean squared reconstruction error of one quantized linear layer.

    Evaluates the layer as model.linear_forward composes it, with the pieces
    that depend only on the smoothing (quantized smoothed input, smoothed
    weight and bias) cached, so the bound search skips the activation
    re-quantization.
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
        # the old quantized input goes before the new one is built, and
        # the smoothed input only while it is quantized
        self.xq = None
        if smoothing is None:
            xs, self.w_s, self.b_s = self.x, self.w, self.b
        else:
            xs = smooth_activation(self.x, smoothing)
            self.w_s, self.b_s = fold_smoothing(self.w, self.b, smoothing)
        self.xq = xs if self.aspec is None else fake_quant(xs, self.aspec)

    def scored(self, state: QuantState) -> tuple[float, np.ndarray]:
        """(loss, y_fp - quantized output) under the weight state."""
        diff = self.xq @ fake_quant(self.w_s, self.wspec, state)
        diff += self.b_s
        np.subtract(self.y_fp, diff, out=diff)
        return float(np.mean(diff * diff)), diff

    def eval(self, state: QuantState) -> float:
        return self.scored(state)[0]


def reconstruct_layer(w, b, x, attachment, epochs: int = 2) -> ReconstructionResult:
    """Minimize layer reconstruction error over (scale, shift, clip_lo, clip_hi).

    x is the layer's (rows, d_in) captured input (CalibSet.captures), read
    in place, not copied. With epochs > 0, a layer with smoothing first
    takes the best of its current smoothing and the closed-form candidates
    (_choose_smoothing), each scored by a full evaluation on a weight grid
    range-initialized on its smoothed weight. The smoothing is then fixed,
    and so is that grid's step and zero point: each epoch only searches the
    integer clamp bounds, up to _INNER_STEPS passes of one-code moves
    (_search_bounds). A pass is kept only if a full evaluation shows the
    loss dropped, and a pass that does not drop it ends the search, since
    every later pass would repeat it. loss_after is the layer's reconstruction loss exactly. epochs=0
    returns the range-initialized parameters untouched.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError(f"reconstruct_layer needs at least one capture row (rows, d_in), got {x.shape}")
    if attachment.weight_spec is None:
        raise DataError("reconstruct_layer needs a weight quantizer attachment")
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    smoothing = attachment.smoothing.copy() if attachment.smoothing is not None else None
    obj = _LayerObjective(x, w, b, attachment.weight_spec, attachment.act_spec, smoothing)
    state = regrid_weight_state(obj.w_s, obj.wspec, attachment.weight_state)
    loss_before = obj.eval(state)
    if not np.isfinite(loss_before):
        raise NumericError("non-finite reconstruction loss at initialization")
    if epochs <= 0:
        return ReconstructionResult(smoothing, state, loss_before, loss_before)
    if smoothing is not None:
        smoothing, state = _choose_smoothing(obj, smoothing, state, loss_before)
    state, loss = _search_bounds(obj, state, passes=epochs * _INNER_STEPS)
    return ReconstructionResult(smoothing, state, loss_before, loss)


def _smoothing_candidates(x, w):
    """The closed-form smoothings of a layer with input x (n, d_in) and weight w (d_in, d_out).

    For shift 0 and for the per-channel midpoint (min_j + max_j) / 2 of x,
    and for every alpha in _ALPHAS, scale_j = a_j^alpha / w_j^(1 - alpha)
    clipped to [SCALE_FLOOR, SCALE_CEIL], where a_j = max |x_j - shift_j|
    and w_j is the largest |w| of row j. Both maxima are floored at the
    smallest normal float, so an all-zero channel or row gives a finite
    scale rather than 0/0. a_j is max(|hi_j - shift_j|, |lo_j - shift_j|)
    over the channel's extremes lo_j and hi_j, which is exact: rounded
    subtraction of a fixed shift is monotone, so the extremes of x_j -
    shift_j are those of x_j shifted.
    """
    tiny = np.finfo(np.float64).tiny
    w_max = np.maximum(np.abs(w).max(axis=1), tiny)
    lo, hi = x.min(axis=0), x.max(axis=0)
    for shift in (np.zeros(x.shape[1]), (lo + hi) / 2):
        a_max = np.maximum(np.maximum(np.abs(hi - shift), np.abs(lo - shift)), tiny)
        for alpha in _ALPHAS:
            scale = np.clip(a_max**alpha / w_max ** (1 - alpha), SCALE_FLOOR, SCALE_CEIL)
            yield SmoothingParams(scale, shift)


def _choose_smoothing(obj, smoothing, state, loss):
    """The lowest-loss of the current smoothing and _smoothing_candidates; leaves it applied.

    obj holds smoothing, and (state, loss) are its weight grid and loss.
    Each candidate's grid is range-initialized on its smoothed weight, with
    state's clipping coefficients. Returns (smoothing, state) of the winner.
    Only losses are kept, not residuals: _search_bounds rebuilds the
    winner's with one more evaluation.
    """
    best = smoothing, state, loss
    for cand in _smoothing_candidates(obj.x, obj.w):
        obj.set_smoothing(cand)
        cand_state = regrid_weight_state(obj.w_s, obj.wspec, state)
        cand_loss = obj.eval(cand_state)
        if cand_loss < best[2]:
            best = cand, cand_state, cand_loss
    obj.set_smoothing(best[0])
    return best[:2]


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


class _BoundGrid:
    """The weight groups as the bound search moves them, and the exact score of a move.

    groups is the group view (quantizer.group_view) of the smoothed weight's
    codes clamped only to [q_n, q_p], which no bound move changes; slot k,
    groups[k], is a block of size input rows, one group per output column.
    codes[k] is its (columns, size) float64 transpose, in which moves are
    scored. gram is xq' xq.
    """

    def __init__(self, obj, state):
        spec = self.spec = obj.wspec
        n = state.n_groups
        full = QuantState(state.step, state.zero_point, np.full(n, spec.q_n / spec.q_p), np.ones(n))
        self.groups = group_view(quant_codes(obj.w_s, spec, full), spec)
        self.codes = np.ascontiguousarray(self.groups.transpose(0, 2, 1), dtype=np.float64)
        self.slots, self.size = self.groups.shape[:2]
        self.step, self.gram = self.per_slot(state.step), obj.xq.T @ obj.xq

    def per_slot(self, v):
        """A per-group vector as its (slots, columns) view, written through: [k, c] is column c's group in slot k."""
        return per_group(v, self.groups)[:, 0]

    def changes(self, lo, hi, corr, k):
        """Summed squared-residual change of every move of slot k's groups, and which weights each moves.

        lo and hi are every group's clamp bounds (per_slot views), corr is resid' xq at them.
        Move m of column c's group shifts the weights at or beyond the moved
        bound by one step, dw = weight_change(beyond, m, c, k), so over the
        slot's rows the change is dw' gram dw - 2 corr[c] dw. A move that
        leaves [q_n, q_p] or breaks lo < hi scores inf. Returns (change,
        beyond): change is (4, columns), beyond[m, c] the mask of the
        weights move m shifts. The moves are scored one at a time, so only
        one move's products are held.
        """
        r = slice(k * self.size, (k + 1) * self.size)
        codes, lo, hi = self.codes[k], lo[k, :, None], hi[k, :, None]
        beyond = np.stack([codes > hi, codes >= hi, codes < lo, codes <= lo])
        new_lo, new_hi = lo.T + _MOVES[:, :1], hi.T + _MOVES[:, 1:]
        feasible = (new_lo >= self.spec.q_n) & (new_hi <= self.spec.q_p) & (new_lo < new_hi)
        change = np.where(feasible, 0.0, np.inf)
        # only moves that change a weight need the products
        live = feasible & beyond.any(axis=2)
        for m in range(len(_MOVES)):
            (c,) = np.nonzero(live[m])
            dw = self.weight_change(beyond, m, c, k)
            change[m, c] = _rowdot(dw, dw @ self.gram[r, r] - 2 * corr[c, r])
        return change, beyond

    def weight_change(self, beyond, m, c, k):
        """(len(c), size) weight change of move m (one, or one per column) of slot k's column-c groups."""
        return beyond[m, c] * (_MOVES.sum(axis=1)[m, None] * self.step[k][c, None])


def _search_bounds(obj, state, passes):
    """Move each group's integer clamp bounds one code at a time, up to passes passes; returns (state, loss).

    The search starts from a full evaluation of state (obj.scored), whose
    residual y_fp - output is held only until resid' xq is built. Per pass,
    slot by slot, every group of the slot takes its best move that lowers
    the loss. The groups of a slot sit in distinct output columns, so their
    changes add up; the moves update resid' xq through gram before the next
    slot is scored. A pass is kept only if a full evaluation shows the loss
    dropped; the first that does not ends the search. Only a moved group's
    clip coefficients are rewritten, as bound / q_p: writing back a
    collapsed group (lo == hi) would break clip_lo < clip_hi.
    """
    spec = obj.wspec
    loss, resid = obj.scored(state)
    corr = resid.T @ obj.xq
    del resid
    grid = _BoundGrid(obj, state)
    for _ in range(passes):
        lo, hi = map(grid.per_slot, clamp_bounds(spec, state))
        cand = state.copy()
        for k in range(grid.slots):
            change, beyond = grid.changes(lo, hi, corr, k)
            best = np.argmin(change, axis=0)
            cols = np.nonzero(change[best, np.arange(best.shape[0])] < 0)[0]
            grid.per_slot(cand.clip_lo)[k, cols] = (lo[k, cols] + _MOVES[best[cols], 0]) / spec.q_p
            grid.per_slot(cand.clip_hi)[k, cols] = (hi[k, cols] + _MOVES[best[cols], 1]) / spec.q_p
            dw = grid.weight_change(beyond, best[cols], cols, k)
            corr[cols] -= dw @ grid.gram[k * grid.size : (k + 1) * grid.size]
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
        if att.weight_spec is None or holds_codes(lin):
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
    optimization happens. Idempotent: layers that already hold codes are left
    alone.
    """
    for _, lin in model.iter_attachments():
        att = lin.att
        if att.weight_spec is None or holds_codes(lin):
            continue
        if att.smoothing is not None:
            att.smoothing = SmoothingParams.identity(lin.w.shape[0])
        att.weight_state = init_range(lin.w, att.weight_spec)
        freeze_linear(lin)
    return model
