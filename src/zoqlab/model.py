"""Toy decoder-only transformer with quantizer/smoothing attachments.

Every linear layer carries a LayerAttachment describing how its weights and
input activations are fake-quantized and smoothed in qat mode; fp mode
runs every linear as if its attachment were bare. The model exposes
forward evaluation only -- there is deliberately no gradient entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .errors import DataError, DimensionError
from .numerics import Tensor, normals_at
from .quantizer import QuantSpec, QuantState, fake_quant, group_view, init_range, per_group, quant_codes
from .smoothing import (
    SCALE_CEIL,
    SCALE_FLOOR,
    SmoothingParams,
    applied_scale,
    apply_smoothing,
    fold_smoothing,
    smooth_activation,
    smooth_weight,
)
from .zo import ParamView

LINEAR_NAMES = ("attn_q", "attn_k", "attn_v", "attn_o", "mlp_up", "mlp_down")
LIGHTWEIGHT_TRAINABLE = ("attn_q", "attn_v")

_INIT_STREAM = 0x494E4954  # weight initialization namespace
_LN_EPS = 1e-5
_STEP_FLOOR = 1e-8  # quantizer step projected here at application time
# Row blocks of the activation side of a linear and of GELU's erf buffer
# hold about this many floats. A block has at least _MIN_BLOCK_ROWS rows:
# numpy runs a (1, k) @ (k, n) product on another path than a taller one,
# so a 1-row GEMM block changes bytes. Blocks of 2 to 4 rows matched the
# whole product in random (512, k) @ (k, n) trials, k, n in {16, 64, 256};
# 3 keeps a margin over that sample. Per-token quantization gives the bytes
# of the whole matrix at any row count.
_BLOCK_FLOATS = 2**15
_MIN_BLOCK_ROWS = 3


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 128
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    context: int = 128

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "context"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise DataError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )


@dataclass(frozen=True)
class QuantPlan:
    """How quantizers are attached to linear layers.

    a_bits None selects weight-only mode (no activation quantizers, no
    smoothing). group_size goes to the weight quantizers
    (QuantSpec.group_size): None quantizes each output channel whole,
    otherwise in chunks of group_size input rows.
    """

    w_bits: int = 4
    a_bits: int | None = 4
    scheme: str = "asymmetric"
    group_size: int | None = None

    def weight_spec(self) -> QuantSpec:
        return QuantSpec(self.w_bits, self.scheme, "weight", self.group_size)

    def act_spec(self) -> QuantSpec | None:
        if self.a_bits is None:
            return None
        return QuantSpec(self.a_bits, self.scheme, "activation")


@dataclass
class LayerAttachment:
    """Quantizer/smoothing attachment of one linear layer.

    Activation ranges are per-token and derived dynamically each forward.
    Nothing here marks a layer as frozen: a layer is frozen when its weight
    holds integer codes (holds_codes, freeze_linear).
    """

    weight_spec: QuantSpec | None = None
    weight_state: QuantState | None = None
    act_spec: QuantSpec | None = None
    smoothing: SmoothingParams | None = None


@dataclass
class Linear:
    w: Tensor
    b: Tensor
    att: LayerAttachment = field(default_factory=LayerAttachment)


@dataclass
class Block:
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    linears: dict[str, Linear]


class ModelGraph:
    """Weights, attachments, and flags of the toy transformer."""

    def __init__(self, config: ModelConfig, embed, pos, blocks, ln_f_gain, ln_f_bias):
        self.config = config
        self.embed = embed  # (vocab, d), also the tied output head
        self.pos = pos  # fixed sinusoidal table, never trained
        self.blocks: list[Block] = blocks
        self.ln_f_gain = ln_f_gain
        self.ln_f_bias = ln_f_bias
        self.lightweight = False

    # -- evaluation ---------------------------------------------------------

    def forward(self, tokens, mode: str = "qat", capture=None) -> Tensor:
        """Causal forward pass: head(run_blocks(embed_tokens(tokens), mode, capture)).

        Returns the (batch, t, vocab) logits of a (batch, t) token matrix
        (embed_tokens). capture, when given, collects each linear's input
        (run_blocks). This is the one composition of the three stages.
        """
        return self.head(self.run_blocks(self.embed_tokens(tokens), mode, capture))

    def embed_tokens(self, tokens) -> Tensor:
        """The (batch, t, d) residual stream of a (batch, t) token matrix: embedding plus position.

        Any other rank is a DimensionError; a dtype other than signed or
        unsigned integer, an empty matrix, an id outside the vocabulary or a
        sequence longer than the context a DataError. The result is a new
        array the caller owns.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise DimensionError(f"tokens must be a (batch, t) matrix, got shape {tokens.shape}")
        if tokens.dtype.kind not in "iu":
            raise DataError(f"tokens must be integer ids, got dtype {tokens.dtype}")
        if tokens.size == 0:
            raise DataError(f"empty batch: tokens have shape {tokens.shape}")
        if tokens.min() < 0 or tokens.max() >= self.config.vocab_size:
            raise DataError(
                f"token id out of range: min {tokens.min()}, max {tokens.max()}, "
                f"vocab {self.config.vocab_size}"
            )
        if tokens.shape[1] > self.config.context:
            raise DataError(
                f"sequence length {tokens.shape[1]} exceeds context {self.config.context}"
            )
        x = self.embed[tokens]
        x += self.pos[: tokens.shape[1]]
        return x

    def run_blocks(self, x, mode: str, capture) -> Tensor:
        """Every transformer block over the (batch, t, d) residual stream x; returns x.

        x is written in place, so it must be an array the caller owns (as
        embed_tokens' output is); a caller that keeps an input for later
        passes a copy. Model arrays and captured activations are never
        written: elementwise work runs in place only on x and on arrays this
        call allocated (the scores, the linears' outputs).

        capture, unless None, is a dict of lists keyed by "block{i}.{name}":
        each linear appends the (bsz * t, d_in) input it read. These are the
        call's own arrays, not copies; it never writes one after its linear
        reads it. attn_q, attn_k and attn_v read one normed input, so their
        lists get the same array.

        Only live activations are held: each is dropped after its last
        reader, attention runs one sequence at a time (_attention), and the
        linears' activation side and GELU's erf buffer run over row blocks
        (row_blocks). Each linear is still called once with all bsz * t
        rows. The bytes are those of the all-rows composition: per-token
        quantization, softmax and GELU work row by row, and each sequence's
        matmuls are the 2-D (sequence, head) products numpy runs for the
        batched form.
        """
        bsz, t, d = x.shape
        h = self.config.n_heads
        keep = np.tri(t, dtype=bool)  # the causal mask: position i sees positions <= i
        causal = np.where(keep, 0.0, -np.inf)
        for bi, block in enumerate(self.blocks):
            a = _layer_norm(x, block.ln1_gain, block.ln1_bias).reshape(bsz * t, d)
            q = self._linear(a, block, bi, "attn_q", mode, capture)
            k = self._linear(a, block, bi, "attn_k", mode, capture)
            v = self._linear(a, block, bi, "attn_v", mode, capture)
            del a
            ctx = _attention(q, k, v, bsz, h, keep, causal)
            del q, k, v
            x += self._linear(ctx, block, bi, "attn_o", mode, capture).reshape(bsz, t, d)
            del ctx
            m = _layer_norm(x, block.ln2_gain, block.ln2_bias).reshape(bsz * t, d)
            u = self._linear(m, block, bi, "mlp_up", mode, capture)
            del m
            u = _gelu(u)
            x += self._linear(u, block, bi, "mlp_down", mode, capture).reshape(bsz, t, d)
            del u
        return x

    def head(self, x) -> Tensor:
        """The (..., vocab) logits of residual stream x: final layer norm, then the tied embedding."""
        return _layer_norm(x, self.ln_f_gain, self.ln_f_bias) @ self.embed.T

    def _linear(self, x2d, block, block_idx, name, mode, capture):
        lin = block.linears[name]
        if capture is not None:
            capture.setdefault(f"block{block_idx}.{name}", []).append(x2d)
        return linear_forward(x2d, lin, mode)

    def loss(self, batch, mode: str = "qat") -> float:
        """Mean next-token cross-entropy in nats over all predicted positions."""
        batch = np.asarray(batch)
        if batch.ndim == 2 and batch.shape[1] < 2:
            raise DataError("loss needs sequences of length >= 2")
        logits = self.forward(batch, mode=mode)
        return cross_entropy(logits[:, :-1, :], batch[:, 1:])

    # -- tensor layout -------------------------------------------------------

    def tensors(self):
        """(name, label, owner, attribute) of every tensor the model holds.

        This is the one statement of the model's tensor layout: the
        checkpoint saves and loads every entry by name, and
        trainable_parameters keeps the labelled ones. label is the tensor's
        ZO group, or None for a tensor that does not train: pos, a frozen
        linear (holds_codes), and in lightweight mode everything but the
        attention query/value weights.
        """
        light = self.lightweight
        full = None if light else "weights"
        yield "embed", full, self, "embed"
        yield "pos", None, self, "pos"
        for bi, block in enumerate(self.blocks):
            for part in ("ln1_gain", "ln1_bias"):
                yield f"block{bi}.{part}", full, block, part
            for name in LINEAR_NAMES:
                lin = block.linears[name]
                att = lin.att
                base = f"block{bi}.{name}"
                trains = not (light or holds_codes(lin))
                w_trains = name in LIGHTWEIGHT_TRAINABLE if light else trains
                yield f"{base}.w", "weights" if w_trains else None, lin, "w"
                yield f"{base}.b", "weights" if trains else None, lin, "b"
                if att.smoothing is not None:
                    label = "smoothing" if trains else None
                    for part in ("scale", "shift"):
                        yield f"{base}.smoothing.{part}", label, att.smoothing, part
                if att.weight_state is not None:
                    for part in ("step", "zero_point", "clip_lo", "clip_hi"):
                        label = "clipping" if part.startswith("clip") else "quant_affine"
                        yield f"{base}.state.{part}", label if trains else None, att.weight_state, part
            for part in ("ln2_gain", "ln2_bias"):
                yield f"block{bi}.{part}", full, block, part
        yield "ln_f_gain", full, self, "ln_f_gain"
        yield "ln_f_bias", full, self, "ln_f_bias"

    def trainable_parameters(self, include_quant_affine: bool = True) -> ParamView:
        """Flat labeled view over exactly the trainable scalars; ParamView groups them in GROUP_ORDER."""
        entries = [
            (label, getattr(owner, attr))
            for _, label, owner, attr in self.tensors()
            if label is not None and (include_quant_affine or label != "quant_affine")
        ]
        return ParamView(entries)

    def clamp_parameters(self) -> None:
        """Project learnable quantizer/smoothing state back into valid ranges."""
        for _, lin in self.iter_attachments():
            att = lin.att
            if holds_codes(lin):
                continue
            if att.smoothing is not None:
                scale = att.smoothing.scale
                np.maximum(scale, SCALE_FLOOR, out=scale)
                np.minimum(scale, SCALE_CEIL, out=scale)
            if att.weight_state is not None:
                st = att.weight_state
                np.maximum(st.step, _STEP_FLOOR, out=st.step)
                np.minimum(st.clip_lo, _below(st.clip_hi, 1e-6), out=st.clip_lo)

    def rederive_quant_states(self) -> None:
        """Re-derive step/zero from the current (smoothed) weights, keeping clipping."""
        for _, lin in self.iter_attachments():
            att = lin.att
            if att.weight_spec is None or holds_codes(lin):
                continue
            w_s = lin.w if att.smoothing is None else smooth_weight(lin.w, att.smoothing)
            att.weight_state = regrid_weight_state(w_s, att.weight_spec, att.weight_state)

    # -- bookkeeping ---------------------------------------------------------

    def iter_attachments(self):
        for bi, block in enumerate(self.blocks):
            for name in LINEAR_NAMES:
                yield f"block{bi}.{name}", block.linears[name]


def linear_forward(x2d: Tensor, lin: Linear, mode: str) -> Tensor:
    """One attached linear layer; fp mode runs it as if its attachment were bare.

    qat composes, in this order: smoothing, per-token activation
    fake-quant, weight fake-quant, GEMM plus bias. A frozen layer's codes
    already carry the weight side (holds_codes, freeze_linear): they are
    dequantized (dequantized_weight), and only the activation side runs.

    The weight side (smoothing fold, weight fake-quant) is prepared once.
    The activation side and the GEMM then run over row blocks (row_blocks)
    that write into one output, so the activation scratch is one block, not
    the whole matrix. The bytes are those of one pass over every row:
    smoothing is elementwise, each row is its own quantizer group, and each
    output row is the same GEMM row. A layer with no activation side runs
    one GEMM.
    """
    if mode not in ("fp", "qat"):
        raise DataError(f"unknown forward mode {mode!r}")
    att = lin.att if mode == "qat" else LayerAttachment()
    sm, bs = att.smoothing, lin.b
    scale = None if sm is None else applied_scale(sm)  # one floor check for the weight side and every block
    if holds_codes(lin):
        ws = dequantized_weight(lin)
    else:
        ws = lin.w
        if sm is not None:
            # the shape checks and the weight side; the activation side runs per block below
            _, ws, bs = apply_smoothing(x2d[:0], ws, bs, sm, scale)
        if att.weight_spec is not None:
            ws = fake_quant(ws, att.weight_spec, _applied_state(att.weight_state))
    if sm is None and att.act_spec is None:
        out = x2d @ ws
    else:
        out = np.empty((x2d.shape[0], ws.shape[1]))
        for rows in row_blocks(*x2d.shape):
            xs = x2d[rows]
            if sm is not None:
                xs = smooth_activation(xs, sm, scale)
            if att.act_spec is not None:
                xs = fake_quant(xs, att.act_spec)
            np.matmul(xs, ws, out=out[rows])
    out += bs
    return out


def row_blocks(n_rows: int, width: int) -> list[slice]:
    """Consecutive row slices covering n_rows rows, each about _BLOCK_FLOATS floats of width columns.

    No block has fewer than _MIN_BLOCK_ROWS rows, unless n_rows itself
    does: a shorter tail joins the block before it, since a 1-row GEMM
    block would change bytes (numpy's vector-matrix path).
    """
    size = max(_BLOCK_FLOATS // width, _MIN_BLOCK_ROWS)
    starts = list(range(0, n_rows, size)) or [0]
    if len(starts) > 1 and n_rows - starts[-1] < _MIN_BLOCK_ROWS:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n_rows])]


def _attention(q, k, v, bsz, h, keep, causal):
    """Causal attention of (bsz * t, d) projections q, k, v; returns the (bsz * t, d) context.

    One sequence at a time: its (h, t, t) scores are scaled, masked,
    softmaxed and applied before the next sequence's are computed. Each
    matmul is one of the 2-D (sequence, head) products numpy runs for the
    batched (bsz, h, t, t) form, so the bytes are those of that form.
    """
    n, d = q.shape
    t, dh = n // bsz, d // h
    ctx = np.empty((bsz, t, h, dh))
    scores = np.empty((h, t, t))  # one buffer for every sequence's scores
    for s in range(bsz):
        rows = slice(s * t, (s + 1) * t)
        qs = q[rows].reshape(t, h, dh).transpose(1, 0, 2)
        ks = k[rows].reshape(t, h, dh).transpose(1, 0, 2)
        vs = v[rows].reshape(t, h, dh).transpose(1, 0, 2)
        np.matmul(qs, ks.transpose(0, 2, 1), out=scores)
        scores /= np.sqrt(dh)
        scores += causal
        np.matmul(_softmax(scores, keep), vs, out=ctx[s].transpose(1, 0, 2))
    return ctx.reshape(n, d)


def _applied_state(state: QuantState) -> QuantState:
    """Project a possibly ZO-perturbed state into the quantizer's valid domain.

    Like the zero point (rounded at use), the learnable step lives in a
    continuous space during training; application floors it at a tiny
    positive value so transient perturbations cannot cross zero.
    """
    if np.logical_and.reduce(state.step >= _STEP_FLOOR, axis=None) and np.logical_and.reduce(
        state.clip_lo < state.clip_hi, axis=None
    ):
        return state
    guarded = state.copy()
    np.maximum(guarded.step, _STEP_FLOOR, out=guarded.step)
    np.minimum(guarded.clip_lo, _below(guarded.clip_hi, 1e-9), out=guarded.clip_lo)
    return guarded


def _below(hi: Tensor, gap: float) -> Tensor:
    """hi - gap, or the next float below hi where gap is less than one ulp of hi.

    An absolute gap vanishes above ~1e7 (1e8 - 1e-9 == 1e8); wherever it does
    not, this is exactly hi - gap.
    """
    return np.minimum(hi - gap, np.nextafter(hi, -np.inf))


def regrid_weight_state(w_s: Tensor, spec: QuantSpec, state: QuantState | None) -> QuantState:
    """Range-initialize step and zero point on the smoothed weight w_s.

    The clipping coefficients of `state` carry over; with no state they
    start inactive.
    """
    fresh = init_range(w_s, spec)
    if state is not None:
        fresh.clip_lo = state.clip_lo.copy()
        fresh.clip_hi = state.clip_hi.copy()
    return fresh


def holds_codes(lin: Linear) -> bool:
    """Whether lin.w holds integer codes: the one mark of a frozen layer (freeze_linear), which never trains."""
    return lin.w.dtype.kind in "iu"


def freeze_linear(lin: Linear) -> None:
    """Fold the smoothing into (w, b) and replace the weight by its integer codes.

    The layer must have a weight quantizer. lin.w becomes the weight's
    integer codes (quant_codes under the weight state) in the spec's
    code_dtype, the smallest integer dtype that holds [q_n, q_p]: uint8 or
    int8 up to 8 bits, 16-bit above. Holding codes is what makes the layer
    frozen (holds_codes). The weight state stays
    attached and supplies each group's step and zero point, and
    dequantized_weight gives the frozen weight back. Its values equal
    fake_quant's of the folded weight (np.array_equal); its bytes differ only
    where fake_quant gives -0.0, since code - rint(zero) is +0.0. That is
    3,802 of the 81,920 frozen entries of the default lightweight W4A16g16
    model at seed 0, and no loss, logit or trained tensor changes. 8-bit
    codes take an eighth of the float64 weight's bytes, 16-bit ones a
    quarter.

    The smoothing stays attached: the frozen forward still applies its
    activation side.
    """
    att = lin.att
    if att.smoothing is not None:
        lin.w, lin.b = fold_smoothing(lin.w, lin.b, att.smoothing)
    lin.w = quant_codes(lin.w, att.weight_spec, att.weight_state)


def dequantized_weight(lin: Linear) -> Tensor:
    """The layer's float64 (d_in, d_out) weight: lin.w, or a frozen layer's codes dequantized.

    Every reader of a frozen weight calls this, linear_forward too. A layer
    that does not hold codes (holds_codes) returns lin.w as it is. Codes give
    step * (code - rint(zero)) of each code's group in two passes over their
    group view (quantizer.group_view, free): the subtraction, which converts
    them, and the scaling in place. The zero points and steps are broadcast
    from C-contiguous copies of their per_group views, which numpy reads
    about 2x faster than the strided views.
    """
    if not holds_codes(lin):
        return lin.w
    codes, state = lin.w, lin.att.weight_state
    g = group_view(codes, lin.att.weight_spec)
    w = np.subtract(g, np.ascontiguousarray(per_group(np.rint(state.zero_point), g)))
    w *= np.ascontiguousarray(per_group(state.step, g))
    return w.reshape(codes.shape)


def _layer_norm(x, gain, bias):
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis; x is not written.

    Each mean is np.add.reduce over the row divided by its length, the ufuncs
    np.mean runs in that order, and the variance is the mean of the squared
    centred values, the reductions np.var makes: the result equals the
    np.mean/np.var formula bit for bit, with no Python-level wrapper call.
    """
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]
    var = np.add.reduce(np.square(xc), axis=-1, keepdims=True) / x.shape[-1]
    var += _LN_EPS
    xc /= np.sqrt(var)
    xc *= gain
    xc += bias
    return xc


def _softmax(x, keep):
    """Softmax over the last axis, computed in x and returned.

    keep is a boolean mask broadcasting against x whose False entries hold
    -inf scores: those are not exponentiated but set to exp(-inf) = 0.0,
    which is much cheaper and gives the same bytes. The row max is
    np.maximum.reduceat over the flat rows, exact like x.max and faster, and
    the row sum is np.add.reduce, which x.sum calls: neither goes through a
    Python-level wrapper.
    """
    rows = np.arange(0, x.size, x.shape[-1])
    x -= np.maximum.reduceat(x.reshape(-1), rows).reshape(x.shape[:-1] + (1,))
    np.exp(x, out=x, where=keep)
    np.copyto(x, 0.0, where=~keep)
    x /= np.add.reduce(x, axis=-1, keepdims=True)
    return x


def _gelu(x):
    """Exact GELU 0.5 * x * (1 + erf(x / sqrt 2)), returned; computed in x where x is C-contiguous.

    The erf buffer covers one row block (row_blocks) of x's last axis at a
    time, not all of x; every step is elementwise, so the bytes are those
    of one pass.
    """
    rows = x.reshape(-1, x.shape[-1])
    for block in row_blocks(*rows.shape):
        xb = rows[block]
        t = xb / np.sqrt(2.0)
        erf(t, out=t)
        t += 1.0
        xb *= 0.5
        xb *= t
    return rows.reshape(x.shape)


def token_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Cross-entropy in nats at each position; logits (..., V), integer targets (...)."""
    targets = np.asarray(targets)
    m = logits.max(axis=-1, keepdims=True)
    e = logits - m
    np.exp(e, out=e)
    lse = m[..., 0] + np.log(e.sum(axis=-1))
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    return lse - picked


def cross_entropy(logits: Tensor, targets) -> float:
    """Mean cross-entropy in nats; logits (..., V), integer targets (...)."""
    return float(np.mean(token_cross_entropy(logits, targets)))


def sinusoidal_table(context: int, d_model: int) -> Tensor:
    pos = np.arange(context)[:, None]
    i = np.arange((d_model + 1) // 2)[None, :]
    angle = pos / np.power(10000.0, 2 * i / d_model)
    table = np.zeros((context, d_model))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)[:, : d_model // 2]
    return table


def build_model(config: ModelConfig, plan: QuantPlan | None = None, seed: int = 0) -> ModelGraph:
    """Construct a seeded model; plan None builds a plain full-precision model."""
    d = config.d_model
    position = 0  # the tensors are consecutive slices of the stream (seed, _INIT_STREAM)

    def draw(shape, scale):
        nonlocal position
        n = int(np.prod(shape))
        position += n
        return scale * normals_at(seed, _INIT_STREAM, position - n, n).reshape(shape)

    embed = draw((config.vocab_size, d), 0.02)
    pos = sinusoidal_table(config.context, d) * 0.1
    blocks = []
    for _ in range(config.n_layers):
        linears = {}
        for name in LINEAR_NAMES:
            d_in = 4 * d if name == "mlp_down" else d
            d_out = 4 * d if name == "mlp_up" else d
            w = draw((d_in, d_out), 1.0 / np.sqrt(d_in))
            b = np.zeros(d_out)
            linears[name] = Linear(w=w, b=b, att=_make_attachment(plan, w))
        blocks.append(
            Block(
                ln1_gain=np.ones(d),
                ln1_bias=np.zeros(d),
                ln2_gain=np.ones(d),
                ln2_bias=np.zeros(d),
                linears=linears,
            )
        )
    return ModelGraph(config, embed, pos, blocks, np.ones(d), np.zeros(d))


def _make_attachment(plan: QuantPlan | None, w: Tensor) -> LayerAttachment:
    if plan is None:
        return LayerAttachment()
    wspec = plan.weight_spec()
    att = LayerAttachment(
        weight_spec=wspec,
        weight_state=init_range(w, wspec),
        act_spec=plan.act_spec(),
        smoothing=SmoothingParams.identity(w.shape[0]) if plan.a_bits is not None else None,
    )
    return att


def set_lightweight(model: ModelGraph) -> ModelGraph:
    """Freeze and pre-quantize everything except the attention query/value matrices.

    Query/value layers drop their attachments and run in full precision; a
    query/value layer frozen before (rtn_quantize) trains from its
    dequantized weight. The others are frozen (freeze_linear): smoothing
    folded into (w, b) and the weight replaced by its integer codes,
    dequantized at each use. Without a weight quantizer there is nothing to
    fold or quantize: such a layer keeps its float weight, and the
    lightweight flag alone stops it training (tensors). Idempotent.
    """
    if model.lightweight:
        return model
    for block in model.blocks:
        for name in LINEAR_NAMES:
            lin = block.linears[name]
            if name in LIGHTWEIGHT_TRAINABLE:
                lin.w = dequantized_weight(lin)
                lin.att = LayerAttachment()
            elif lin.att.weight_spec is not None and not holds_codes(lin):
                freeze_linear(lin)
    model.lightweight = True
    return model
