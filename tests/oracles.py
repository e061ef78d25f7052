"""Independent brute-force oracles used by the test suites.

These deliberately avoid the library's vectorized code paths: matmul is a
triple loop, quantization enumerates every integer code and measures its
distance exactly, or settles each quotient that rounds onto a half with
one Fraction, the reference transformer walks positions and heads one at
a time, the closed-form smoothing candidates are written channel by channel
and scored by a full layer evaluation each, the clamp-bound search takes a
full layer evaluation per bound move, and the forward's elementwise helpers
are written out of place, one new array per operation. The batched forward
is the all-rows composition: every sequence's attention matrices at once
and one pass of each linear over every row.
The order of the ZO view is a walk over the model written out by hand.
The per-group (min, max, absmax) reduction lives here too: only tests use
it, and it slices each group out by hand in group order. So does the check
that lets a state-free quantizer skip its clamp, evaluated per row in
Python floats.
The Monte-Carlo theory oracle is here as it was before it reduced in blocks:
one (m, d) array per chunk of samples.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import erf, ndtri

from zoqlab.calibration import _MOVES, _LayerObjective
from zoqlab.model import (
    LIGHTWEIGHT_TRAINABLE,
    LINEAR_NAMES,
    _applied_state,
    dequantized_weight,
    holds_codes,
    regrid_weight_state,
)
from zoqlab.quantizer import clamp_bounds, fake_quant
from zoqlab.smoothing import SCALE_CEIL, SCALE_FLOOR, SmoothingParams, apply_smoothing, smooth_activation


def naive_matmul(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def nearest_code(x, step, zero, lo, hi):
    """Best integer code for scalar x by exhaustive search.

    Distances are compared in exact rational arithmetic, so a code that is
    nearer by less than a float rounding still wins. Ties between two
    equidistant codes resolve toward the code whose unshifted grid index
    (code - zero) is even, matching half-to-even rounding of x/step.
    """
    x, step, zero = Fraction(x), Fraction(step), Fraction(zero)
    best_code = None
    best_dist = None
    for code in range(int(lo), int(hi) + 1):
        dist = abs(x - step * (code - zero))
        if best_dist is None or dist < best_dist:
            best_dist = dist
            best_code = code
        elif dist == best_dist and (code - zero) % 2 == 0:
            best_code = code
    return best_code


def nearest_code_dequant(x, step, zero, lo, hi):
    return step * (nearest_code(x, step, zero, lo, hi) - zero)


def nearest_index_by_fractions(g, step, lo, hi):
    """quantizer._nearest_index with each half quotient settled in rational arithmetic.

    rint of g / step, except where the float quotient is a half mid = k + 1/2:
    there the exact sign of x - step * mid, one Fraction per element, moves
    the index to mid + 1/2 or mid - 1/2, and an exact tie keeps rint's even
    index. The index is then clamped by the same np.clip call.
    """
    frac = g / step
    index = np.rint(frac)
    with np.errstate(invalid="ignore"):  # inf - inf for an infinite x
        np.subtract(frac, index, out=frac)
    steps = np.broadcast_to(step, g.shape)
    for at in zip(*np.nonzero(np.abs(frac) == 0.5)):
        x_at, step_at = g[at], steps[at]
        mid = x_at / step_at
        past = Fraction(x_at) - Fraction(step_at) * Fraction(mid)
        if past:
            index[at] = mid + 0.5 if past > 0 else mid - 0.5
    np.clip(index, lo, hi, out=index)
    return index


def scalar_range_init(values, bits, scheme):
    """Hand evaluation of the range-init formulas for a flat group."""
    values = np.asarray(values, dtype=np.float64)
    if scheme == "symmetric":
        q_n, q_p = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        step = np.max(np.abs(values)) / q_p
        zero = 0.0
    else:
        q_n, q_p = 0, 2**bits - 1
        step = (values.max() - values.min()) / q_p
        zero = -round(values.min() / step) if step > 0 else None
    if step <= 0:
        step = 1.0
        zero = -round(float(values.max()))
    return step, zero, q_n, q_p


def clamp_skip_holds(row, spec):
    """Whether quantizer._grid_index may skip the range-init clamp of one activation row, by hand in Python floats.

    step and zero are scalar_range_init's, and the bounds are
    lo = q_n - zero and hi = q_p - zero. The skip needs
    round(min / step) >= lo, round(max / step) <= hi, neither quotient
    exactly a half, and no bound 0. A NaN or an infinity in the row, or a
    step that overflows, fails it.
    """
    values = [float(v) for v in row]
    if not all(math.isfinite(v) for v in values):
        return False
    step, zero, q_n, q_p = scalar_range_init(values, spec.bits, spec.scheme)
    if not math.isfinite(step):
        return False
    lo, hi = q_n - zero, q_p - zero
    q_lo, q_hi = min(values) / step, max(values) / step
    no_half = abs(q_lo - round(q_lo)) != 0.5 and abs(q_hi - round(q_hi)) != 0.5
    return round(q_lo) >= lo and round(q_hi) <= hi and no_half and lo != 0 and hi != 0


def reference_transformer_logits(model, tokens):
    """Position-by-position full-precision forward of the toy architecture."""
    cfg = model.config
    d, h = cfg.d_model, cfg.n_heads
    dh = d // h
    t_len = len(tokens)

    def layer_norm(vec, gain, bias):
        mu = sum(vec) / d
        var = sum((x - mu) ** 2 for x in vec) / d
        return [(x - mu) / math.sqrt(var + 1e-5) * g + b for x, g, b in zip(vec, gain, bias)]

    def linear(vec, lin):
        w, b = dequantized_weight(lin), lin.b
        return [sum(vec[i] * w[i, j] for i in range(len(vec))) + b[j] for j in range(w.shape[1])]

    def gelu(v):
        return [0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0))) for x in v]

    xs = [
        [model.embed[tok, j] + model.pos[t, j] for j in range(d)]
        for t, tok in enumerate(tokens)
    ]
    for block in model.blocks:
        normed = [layer_norm(x, block.ln1_gain, block.ln1_bias) for x in xs]
        qs = [linear(v, block.linears["attn_q"]) for v in normed]
        ks = [linear(v, block.linears["attn_k"]) for v in normed]
        vs = [linear(v, block.linears["attn_v"]) for v in normed]
        ctx = []
        for t in range(t_len):
            out = [0.0] * d
            for head in range(h):
                sl = slice(head * dh, (head + 1) * dh)
                scores = []
                for s in range(t + 1):
                    dot = sum(a * b for a, b in zip(qs[t][sl], ks[s][sl]))
                    scores.append(dot / math.sqrt(dh))
                mx = max(scores)
                exps = [math.exp(v - mx) for v in scores]
                z = sum(exps)
                weights = [e / z for e in exps]
                for j in range(dh):
                    out[head * dh + j] = sum(
                        weights[s] * vs[s][head * dh + j] for s in range(t + 1)
                    )
            ctx.append(out)
        att_out = [linear(v, block.linears["attn_o"]) for v in ctx]
        xs = [[a + b for a, b in zip(x, o)] for x, o in zip(xs, att_out)]
        normed2 = [layer_norm(x, block.ln2_gain, block.ln2_bias) for x in xs]
        hidden = [gelu(linear(v, block.linears["mlp_up"])) for v in normed2]
        mlp_out = [linear(v, block.linears["mlp_down"]) for v in hidden]
        xs = [[a + b for a, b in zip(x, o)] for x, o in zip(xs, mlp_out)]
    final = [layer_norm(x, model.ln_f_gain, model.ln_f_bias) for x in xs]
    logits = np.array(
        [[sum(v[j] * model.embed[tok, j] for j in range(d)) for tok in range(cfg.vocab_size)] for v in final]
    )
    return logits


def coded_layers(model):
    """The ids of the layers whose weight holds integer codes: the layers the model treats as frozen."""
    return {layer_id for layer_id, lin in model.iter_attachments() if holds_codes(lin)}


def all_rows_linear(x2d, lin, mode, frozen):
    """One linear as one pass over every row: smoothing, per-token fake-quant of the whole matrix, one GEMM.

    The composition of model.linear_forward before it streamed row blocks.
    frozen says that the layer's weight and bias already carry its weight
    side, smoothing folded and the weight quantized, so only the activation
    side runs. The caller says so: a reference may freeze a layer that
    holds a float weight.
    """
    att = lin.att
    if mode == "fp":
        return x2d @ dequantized_weight(lin) + lin.b
    xs, ws, bs = x2d, dequantized_weight(lin), lin.b
    if att.smoothing is not None:
        if frozen:
            xs = smooth_activation(x2d, att.smoothing)
        else:
            xs, ws, bs = apply_smoothing(x2d, lin.w, lin.b, att.smoothing)
    if att.act_spec is not None:
        xs = fake_quant(xs, att.act_spec)
    if att.weight_spec is not None and not frozen:
        ws = fake_quant(ws, att.weight_spec, _applied_state(att.weight_state))
    return xs @ ws + bs


def batched_forward(model, tokens, mode="qat", capture=None, *, frozen):
    """(bsz, t, vocab) logits of (bsz, t) or (t,) tokens from the all-rows composition of the forward.

    Every sequence's (bsz, h, t, t) attention matrices are computed at once,
    each linear is all_rows_linear over all bsz * t rows, frozen when its id
    is in the set frozen (coded_layers gives the model's), and the elementwise
    helpers are the out-of-place formulas. capture, when given, collects
    each linear's input as ModelGraph.forward does: the array itself, one
    array for attn_q, attn_k and attn_v.
    """
    tokens = np.atleast_2d(tokens)
    bsz, t = tokens.shape
    d, h = model.config.d_model, model.config.n_heads
    dh = d // h
    causal = np.where(np.tri(t, dtype=bool), 0.0, -np.inf)

    def heads(y):
        return y.reshape(bsz, t, h, dh).transpose(0, 2, 1, 3)

    x = model.embed[tokens] + model.pos[:t]
    for bi, block in enumerate(model.blocks):

        def linear(x2d, name):
            if capture is not None:
                capture.setdefault(f"block{bi}.{name}", []).append(x2d)
            return all_rows_linear(x2d, block.linears[name], mode, f"block{bi}.{name}" in frozen)

        a = out_of_place_layer_norm(x, block.ln1_gain, block.ln1_bias).reshape(bsz * t, d)
        q, k, v = (heads(linear(a, name)) for name in ("attn_q", "attn_k", "attn_v"))
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh) + causal
        ctx = (out_of_place_softmax(scores) @ v).transpose(0, 2, 1, 3).reshape(bsz * t, d)
        x = x + linear(ctx, "attn_o").reshape(bsz, t, d)
        m = out_of_place_layer_norm(x, block.ln2_gain, block.ln2_bias).reshape(bsz * t, d)
        u = out_of_place_gelu(linear(m, "mlp_up"))
        x = x + linear(u, "mlp_down").reshape(bsz, t, d)
    return out_of_place_layer_norm(x, model.ln_f_gain, model.ln_f_bias) @ model.embed.T


def reference_trainable_entries(model, include_quant_affine):
    """(label, array) of every trainable tensor in ZO order, by a walk written out by hand.

    Weights first (embed; per block ln1, each trainable linear's w and b,
    ln2; the final norm), then per group every trainable linear's smoothing,
    clipping and quant-affine parts. In lightweight mode only the attention
    query/value weights train. A linear that holds codes never trains.
    """
    entries = []
    if model.lightweight:
        for block in model.blocks:
            for name in LIGHTWEIGHT_TRAINABLE:
                entries.append(("weights", block.linears[name].w))
        return entries
    entries.append(("weights", model.embed))
    for block in model.blocks:
        entries.append(("weights", block.ln1_gain))
        entries.append(("weights", block.ln1_bias))
        for name in LINEAR_NAMES:
            lin = block.linears[name]
            if not holds_codes(lin):
                entries.append(("weights", lin.w))
                entries.append(("weights", lin.b))
        entries.append(("weights", block.ln2_gain))
        entries.append(("weights", block.ln2_bias))
    entries.append(("weights", model.ln_f_gain))
    entries.append(("weights", model.ln_f_bias))
    for label, fields in (
        ("smoothing", ("scale", "shift")),
        ("clipping", ("clip_lo", "clip_hi")),
        ("quant_affine", ("step", "zero_point")),
    ):
        if label == "quant_affine" and not include_quant_affine:
            continue
        for block in model.blocks:
            for name in LINEAR_NAMES:
                lin = block.linears[name]
                if holds_codes(lin):
                    continue
                att = lin.att
                holder = att.smoothing if label == "smoothing" else att.weight_state
                if holder is None:
                    continue
                for f in fields:
                    entries.append((label, getattr(holder, f)))
    return entries


def hand_cross_entropy(logits, targets):
    """Per-position softmax cross-entropy summed by hand."""
    total = 0.0
    count = 0
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets)
    flat_logits = logits.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    for row, tgt in zip(flat_logits, flat_targets):
        z = sum(math.exp(v) for v in row)
        total += math.log(z) - row[tgt]
        count += 1
    return total / count


def out_of_place_layer_norm(x, gain, bias, eps=1e-5):
    """Layer norm as one expression over np.mean and np.var, each op a new array."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def out_of_place_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def out_of_place_gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def out_of_place_smooth_activation(x, scale, shift, floor):
    return (np.asarray(x, dtype=np.float64) - shift) / np.maximum(scale, floor)


def out_of_place_cross_entropy(logits, targets):
    m = logits.max(axis=-1, keepdims=True)
    lse = m[..., 0] + np.log(np.exp(logits - m).sum(axis=-1))
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    return float(np.mean(lse - picked))


@dataclass
class GroupStats:
    """(min, max, absmax) per group, in group order."""

    mins: np.ndarray
    maxs: np.ndarray
    absmaxs: np.ndarray

    def __iter__(self):
        return iter(zip(self.mins, self.maxs, self.absmaxs))


def weight_group_slices(d_in, d_out, size):
    """The (rows, column) index of every group of a (d_in, d_out) weight, in group order.

    Group g = c * (d_in // size) + r is rows [r * size, (r + 1) * size) of
    output column c; size None is the whole column.
    """
    size = size or d_in
    assert d_in % size == 0
    return [(slice(r * size, (r + 1) * size), c) for c in range(d_out) for r in range(d_in // size)]


def reduce_stats(x, spec):
    """Per-group (min, max, absmax) under the spec's tiling, each group sliced out by hand.

    An activation's group g is row g of its (rows, features) matrix; a
    weight's groups are weight_group_slices.
    """
    x = np.asarray(x, dtype=np.float64)
    if spec.role == "activation":
        groups = [x.reshape(-1, x.shape[-1])[i] for i in range(x.size // x.shape[-1])]
    else:
        groups = [x[index] for index in weight_group_slices(*x.shape, spec.group_size)]
    mins = np.array([min(g) for g in groups])
    maxs = np.array([max(g) for g in groups])
    return GroupStats(mins=mins, maxs=maxs, absmaxs=np.maximum(np.abs(mins), np.abs(maxs)))


def per_group_weight_quant(w, spec, clip_lo=None, clip_hi=None):
    """init_range's (step, zero), quant_codes and fake_quant of a weight, one hand-sliced group at a time.

    Groups are weight_group_slices, numbered in group order. A group's step
    and zero follow init_range's formulas on its own min and max (a
    constant group takes step 1 and zero -rint(value)). Its clamp codes are
    rint(clip * q_p) within [q_n, q_p], from clip_lo[g] and clip_hi[g], or
    the whole code range when they are None. Each code is nearest_code's
    exhaustive search, and each value step * (code - rint(zero)). A value
    of 0 carries the sign fake_quant gives it: that of code - rint(zero) at
    a clamp bound, else that of x, whose quotient rint rounds to a signed
    zero. (A negative x whose quotient rounds onto -1/2 without lying on the
    midpoint would get +0; the callers' weights hold none.)

    Returns (step, zero, codes, values): two group-order vectors and two
    arrays of w's shape.
    """
    q_n, q_p = spec.q_n, spec.q_p
    slices = weight_group_slices(*w.shape, spec.group_size)
    step, zero = np.empty(len(slices)), np.empty(len(slices))
    codes, values = np.empty(w.shape, dtype=np.int64), np.empty(w.shape)
    for g, index in enumerate(slices):
        v = w[index]
        lo_v, hi_v = v.min(), v.max()
        if spec.scheme == "symmetric":
            step[g], zero[g] = max(abs(lo_v), abs(hi_v)) / q_p, 0.0
        else:
            step[g] = (hi_v - lo_v) / q_p
            zero[g] = -np.rint(lo_v / step[g]) if step[g] > 0 else 0.0
        if step[g] <= 0:
            step[g], zero[g] = 1.0, -np.rint(hi_v)
        lo = q_n if clip_lo is None else min(q_p, max(q_n, round(clip_lo[g] * q_p)))
        hi = q_p if clip_hi is None else min(q_p, max(q_n, round(clip_hi[g] * q_p)))
        z = float(np.rint(zero[g]))
        for i, x in enumerate(v):
            code = nearest_code(x, step[g], z, lo, hi)
            k = float(code) - z
            if k == 0 and code not in (lo, hi):
                k = math.copysign(0.0, x)
            codes[index][i], values[index][i] = code, step[g] * k
    return step, zero, codes, values


def philox_normals_reference(seed, stream_id, position, n):
    """Normal draws [position, position + n) of stream (seed, stream_id), built afresh.

    A new Philox generator keyed [seed, stream_id], advanced by whole 4-draw
    blocks, read through Generator.integers over the full uint64 range; the
    top 53 bits are centred in (0, 1) and mapped through the inverse normal
    CDF.
    """
    block, offset = divmod(position, 4)
    bg = Philox(key=np.array([seed, stream_id], dtype=np.uint64))
    bg.advance(block)
    raw = Generator(bg).integers(0, 2**64, size=offset + n, dtype=np.uint64, endpoint=False)
    u = ((raw[offset:] >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u)


def closed_form_candidate_losses(x, w, b, att):
    """(smoothing, loss) of the attachment's smoothing and of every closed-form candidate, in order.

    The candidates are written out channel by channel: shift_j is 0, then
    the midpoint (min + max) / 2 of input channel j; for each shift and for
    alpha in 0, 1/4, 1/2, 3/4, 1, scale_j = max|x_j - shift_j|^alpha /
    max|w_j|^(1 - alpha), w_j row j of w, clipped to [SCALE_FLOOR,
    SCALE_CEIL]. Each is scored by one full evaluation of a fresh layer
    objective, on a weight grid range-initialized on its smoothed weight
    with the attachment's clipping.
    """
    n_rows, d_in = x.shape
    candidates = [att.smoothing.copy()]
    for midpoint in (False, True):
        shift = np.zeros(d_in)
        if midpoint:
            for j in range(d_in):
                shift[j] = (min(x[i, j] for i in range(n_rows)) + max(x[i, j] for i in range(n_rows))) / 2
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            scale = np.zeros(d_in)
            for j in range(d_in):
                a_max = max(abs(float(x[i, j]) - shift[j]) for i in range(n_rows))
                w_max = max(abs(float(v)) for v in w[j])
                scale[j] = min(max(a_max**alpha / w_max ** (1 - alpha), SCALE_FLOOR), SCALE_CEIL)
            candidates.append(SmoothingParams(scale, shift.copy()))
    scored = []
    for smoothing in candidates:
        obj = _LayerObjective(x, w, b, att.weight_spec, att.act_spec, smoothing)
        state = regrid_weight_state(obj.w_s, obj.wspec, att.weight_state)
        scored.append((smoothing, obj.eval(state)))
    return scored


def moved_bounds(spec, state, group, move):
    """A copy of state with one group's clamp bounds moved by move = (d_lo, d_hi), or None.

    None when the moved bounds would leave [q_n, q_p] or break lo < hi.
    Otherwise both bounds of the group are written as clip = bound / q_p.
    """
    lo, hi = clamp_bounds(spec, state)
    new_lo, new_hi = lo[group] + move[0], hi[group] + move[1]
    if new_lo < spec.q_n or new_hi > spec.q_p or new_lo >= new_hi:
        return None
    out = state.copy()
    out.clip_lo[group] = new_lo / spec.q_p
    out.clip_hi[group] = new_hi / spec.q_p
    return out


def bound_move_changes(obj, state):
    """Summed squared-residual change of every group's one-code bound moves, one full evaluation each.

    Row m holds move calibration._MOVES[m] of every group; a move that
    moved_bounds refuses scores inf.
    """
    size = obj.y_fp.size
    base = obj.eval(state)
    change = np.full((len(_MOVES), state.n_groups), np.inf)
    for m, move in enumerate(_MOVES):
        for group in range(state.n_groups):
            moved = moved_bounds(obj.wspec, state, group, move)
            if moved is not None:
                change[m, group] = (obj.eval(moved) - base) * size
    return change


def greedy_bound_search(obj, state, loss, passes):
    """The clamp-bound search, with a full evaluation per move; returns (state, loss).

    A slot is every output column's k-th weight group. Slot by slot, each
    group takes the move that lowers the loss most, scored from the state
    with the earlier slots' moves applied. A pass is kept only if it lowers
    the loss.
    """
    slots = state.n_groups // obj.y_fp.shape[1]
    for _ in range(passes):
        cand = state.copy()
        for k in range(slots):
            base = obj.eval(cand)
            picks = {}
            for group in range(k, state.n_groups, slots):
                for move in _MOVES:
                    moved = moved_bounds(obj.wspec, cand, group, move)
                    if moved is None:
                        continue
                    moved_loss = obj.eval(moved)
                    if moved_loss < picks.get(group, (base,))[0]:
                        picks[group] = (moved_loss, moved)
            for group, (_, moved) in picks.items():
                cand.clip_lo[group] = moved.clip_lo[group]
                cand.clip_hi[group] = moved.clip_hi[group]
        cand_loss = obj.eval(cand)
        if not cand_loss < loss:
            break
        state, loss = cand, cand_loss
    return state, loss


def whole_chunk_oracle(obj, w, samples, seed, form, chunk):
    """theory.oracle_grad_smoothed's (grad, se), drawing and summing each chunk at once."""
    w = np.asarray(w, dtype=np.float64)
    rng = np.random.default_rng(seed)
    s1 = np.zeros(obj.dim)
    s2 = np.zeros(obj.dim)
    base = obj.loss(w)
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        u = rng.normal(size=(m, obj.dim))
        lp = obj.loss_batch(w + obj.epsilon * u)
        if form == "score":
            terms = ((lp - base) / obj.epsilon)[:, None] * u
        else:
            lm = obj.loss_batch(w - obj.epsilon * u)
            terms = ((lp - lm) / (2 * obj.epsilon))[:, None] * u
        s1 += terms.sum(axis=0)
        s2 += (terms * terms).sum(axis=0)
        done += m
    mean = s1 / samples
    var = np.maximum(s2 / samples - mean * mean, 0.0)
    return mean, np.sqrt(var / samples)
