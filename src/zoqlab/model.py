"""Toy decoder-only transformer with quantizer/smoothing attachments.

Every linear layer carries a LayerAttachment describing how its weights and
input activations are fake-quantized and smoothed in qat mode; fp mode
bypasses all attachments. The model exposes forward evaluation only -- there
is deliberately no gradient entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .errors import DataError, DimensionError
from .numerics import RngStream, Tensor, per_channel, per_group, per_token
from .quantizer import QuantSpec, QuantState, fake_quant, init_range
from .smoothing import (
    SCALE_FLOOR,
    SmoothingParams,
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


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 128
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    context: int = 128

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise DataError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )


@dataclass(frozen=True)
class QuantPlan:
    """How quantizers are attached to linear layers.

    a_bits None selects weight-only mode (no activation quantizers, no
    smoothing). group_size None selects per-channel weight quantization;
    otherwise weights are grouped along the input axis in chunks of
    group_size.
    """

    w_bits: int = 4
    a_bits: int | None = 4
    scheme: str = "asymmetric"
    group_size: int | None = None

    @property
    def mode(self) -> str:
        return "weight_activation" if self.a_bits is not None else "weight_only"

    def weight_spec(self) -> QuantSpec:
        if self.group_size is not None:
            gran = per_group(axis=0, group_size=self.group_size)
        else:
            gran = per_channel(axis=1)
        return QuantSpec(self.w_bits, self.scheme, gran, role="weight")

    def act_spec(self) -> QuantSpec | None:
        if self.a_bits is None:
            return None
        return QuantSpec(self.a_bits, self.scheme, per_token(), role="activation")


@dataclass
class LayerAttachment:
    """Quantizer/smoothing attachment of one linear layer.

    Activation ranges are per-token and derived dynamically each forward.
    pre_quantized means the stored weight (and bias) already include
    smoothing and quantization.
    """

    weight_spec: QuantSpec | None = None
    weight_state: QuantState | None = None
    act_spec: QuantSpec | None = None
    smoothing: SmoothingParams | None = None
    trainable: bool = True
    pre_quantized: bool = False

    def __post_init__(self):
        if self.pre_quantized and self.trainable:
            raise DataError("a pre-quantized layer cannot be trainable")

    def freeze(self) -> None:
        self.trainable = False
        self.pre_quantized = True

    @property
    def bypassed(self) -> bool:
        return self.weight_spec is None and self.act_spec is None and self.smoothing is None


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
        """Causal forward pass; returns logits of shape tokens.shape + (vocab,).

        capture, when given, is a dict filled with per-linear input
        activations keyed by "block{i}.{name}".
        """
        tokens = np.asarray(tokens)
        squeeze = tokens.ndim == 1
        if squeeze:
            tokens = tokens[None, :]
        if tokens.ndim != 2:
            raise DimensionError(f"tokens must be 1-D or 2-D, got shape {tokens.shape}")
        if tokens.shape[1] < 1:
            raise DataError("token sequences must have length >= 1")
        if tokens.min() < 0 or tokens.max() >= self.config.vocab_size:
            raise DataError(
                f"token id out of range: min {tokens.min()}, max {tokens.max()}, "
                f"vocab {self.config.vocab_size}"
            )
        if tokens.shape[1] > self.config.context:
            raise DataError(
                f"sequence length {tokens.shape[1]} exceeds context {self.config.context}"
            )
        bsz, t = tokens.shape
        d = self.config.d_model
        h = self.config.n_heads
        dh = d // h

        # Elementwise work runs in place on arrays this call allocated (the
        # residual stream, the scores, the linears' outputs); model arrays,
        # the tokens and captured activations are never written.
        x = self.embed[tokens]
        x += self.pos[:t]
        keep = np.tri(t, dtype=bool)  # the causal mask: position i sees positions <= i
        causal = np.where(keep, 0.0, -np.inf)
        for bi, block in enumerate(self.blocks):
            a = _layer_norm(x, block.ln1_gain, block.ln1_bias)
            flat = a.reshape(bsz * t, d)
            q = self._linear(flat, block, bi, "attn_q", mode, capture)
            k = self._linear(flat, block, bi, "attn_k", mode, capture)
            v = self._linear(flat, block, bi, "attn_v", mode, capture)
            q = q.reshape(bsz, t, h, dh).transpose(0, 2, 1, 3)
            k = k.reshape(bsz, t, h, dh).transpose(0, 2, 1, 3)
            v = v.reshape(bsz, t, h, dh).transpose(0, 2, 1, 3)
            scores = q @ k.transpose(0, 1, 3, 2)
            scores /= np.sqrt(dh)
            scores += causal
            attn = _softmax(scores, keep)
            ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(bsz * t, d)
            x += self._linear(ctx, block, bi, "attn_o", mode, capture).reshape(bsz, t, d)
            m = _layer_norm(x, block.ln2_gain, block.ln2_bias).reshape(bsz * t, d)
            u = _gelu(self._linear(m, block, bi, "mlp_up", mode, capture))
            x += self._linear(u, block, bi, "mlp_down", mode, capture).reshape(bsz, t, d)
        x = _layer_norm(x, self.ln_f_gain, self.ln_f_bias)
        logits = x @ self.embed.T
        return logits[0] if squeeze else logits

    def _linear(self, x2d, block, block_idx, name, mode, capture):
        lin = block.linears[name]
        if capture is not None:
            capture.setdefault(f"block{block_idx}.{name}", []).append(x2d.copy())
        return linear_forward(x2d, lin, mode)

    def loss(self, batch, mode: str = "qat") -> float:
        """Mean next-token cross-entropy in nats over all predicted positions."""
        batch = np.asarray(batch)
        if batch.ndim == 1:
            batch = batch[None, :]
        if batch.size == 0:
            raise DataError("empty batch")
        if batch.shape[1] < 2:
            raise DataError("loss needs sequences of length >= 2")
        logits = self.forward(batch, mode=mode)
        return cross_entropy(logits[:, :-1, :], batch[:, 1:])

    # -- trainable parameter view -------------------------------------------

    def trainable_parameters(self, include_quant_affine: bool = True) -> ParamView:
        """Flat labeled view over exactly the trainable scalars.

        Group order is weights, smoothing, clipping, quant_affine. In
        lightweight mode only the attention query/value matrices remain.
        """
        entries = []
        if self.lightweight:
            for block in self.blocks:
                for name in LIGHTWEIGHT_TRAINABLE:
                    entries.append(("weights", block.linears[name].w))
            return ParamView(entries)
        entries.append(("weights", self.embed))
        for block in self.blocks:
            entries.append(("weights", block.ln1_gain))
            entries.append(("weights", block.ln1_bias))
            for name in LINEAR_NAMES:
                lin = block.linears[name]
                if lin.att.trainable:
                    entries.append(("weights", lin.w))
                    entries.append(("weights", lin.b))
            entries.append(("weights", block.ln2_gain))
            entries.append(("weights", block.ln2_bias))
        entries.append(("weights", self.ln_f_gain))
        entries.append(("weights", self.ln_f_bias))
        for label, fields in (
            ("smoothing", ("scale", "shift")),
            ("clipping", ("clip_lo", "clip_hi")),
            ("quant_affine", ("step", "zero_point")),
        ):
            if label == "quant_affine" and not include_quant_affine:
                continue
            for block in self.blocks:
                for name in LINEAR_NAMES:
                    att = block.linears[name].att
                    if not att.trainable:
                        continue
                    holder = att.smoothing if label == "smoothing" else att.weight_state
                    if holder is None:
                        continue
                    for f in fields:
                        entries.append((label, getattr(holder, f)))
        return ParamView(entries)

    def clamp_parameters(self) -> None:
        """Project learnable quantizer/smoothing state back into valid ranges."""
        for block in self.blocks:
            for lin in block.linears.values():
                att = lin.att
                if not att.trainable:
                    continue
                if att.smoothing is not None:
                    np.clip(att.smoothing.scale, SCALE_FLOOR, 1e4, out=att.smoothing.scale)
                if att.weight_state is not None:
                    st = att.weight_state
                    np.maximum(st.step, _STEP_FLOOR, out=st.step)
                    np.minimum(st.clip_lo, _below(st.clip_hi, 1e-6), out=st.clip_lo)

    def rederive_quant_states(self) -> None:
        """Re-derive step/zero from the current (smoothed) weights, keeping clipping."""
        for _, lin in self.iter_attachments():
            att = lin.att
            if att.weight_spec is None or att.pre_quantized or not att.trainable:
                continue
            w_s = lin.w if att.smoothing is None else smooth_weight(lin.w, att.smoothing)
            att.weight_state = regrid_weight_state(w_s, att.weight_spec, att.weight_state)

    # -- bookkeeping ---------------------------------------------------------

    def iter_attachments(self):
        for bi, block in enumerate(self.blocks):
            for name in LINEAR_NAMES:
                yield f"block{bi}.{name}", block.linears[name]

    def frozen_quantized_scalars(self) -> list[tuple[int, int]]:
        """(scalar count, bits) of every pre-quantized weight matrix."""
        out = []
        for _, lin in self.iter_attachments():
            if lin.att.pre_quantized and lin.att.weight_spec is not None:
                out.append((lin.w.size, lin.att.weight_spec.bits))
        return out


def linear_forward(x2d: Tensor, lin: Linear, mode: str) -> Tensor:
    """One attached linear layer; fp mode bypasses the attachment entirely.

    qat composes, in this order: smoothing, per-token activation
    fake-quant, weight fake-quant, GEMM plus bias. A pre-quantized layer
    already carries the weight side (freeze_linear), so only the activation
    side runs.
    """
    att = lin.att
    if mode == "fp" or (att.bypassed and not att.pre_quantized):
        out = x2d @ lin.w
        out += lin.b
        return out
    if mode != "qat":
        raise DataError(f"unknown forward mode {mode!r}")
    if att.smoothing is None:
        xs, ws, bs = x2d, lin.w, lin.b
    elif att.pre_quantized:
        xs, ws, bs = smooth_activation(x2d, att.smoothing), lin.w, lin.b
    else:
        xs, ws, bs = apply_smoothing(x2d, lin.w, lin.b, att.smoothing)
    if att.act_spec is not None:
        xs = fake_quant(xs, att.act_spec)
    if att.weight_spec is not None and not att.pre_quantized:
        ws = fake_quant(ws, att.weight_spec, _applied_state(att.weight_state))
    out = xs @ ws
    out += bs
    return out


def _applied_state(state: QuantState) -> QuantState:
    """Project a possibly ZO-perturbed state into the quantizer's valid domain.

    Like the zero point (rounded at use), the learnable step lives in a
    continuous space during training; application floors it at a tiny
    positive value so transient perturbations cannot cross zero.
    """
    if np.all(state.step >= _STEP_FLOOR) and np.all(state.clip_lo < state.clip_hi):
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


def freeze_linear(lin: Linear) -> None:
    """Fold the smoothing into (w, b), fake-quantize the weight once, and freeze.

    The smoothing stays attached: the frozen forward still applies its
    activation side.
    """
    att = lin.att
    if att.smoothing is not None:
        lin.w, lin.b = fold_smoothing(lin.w, lin.b, att.smoothing)
    if att.weight_spec is not None:
        lin.w = fake_quant(lin.w, att.weight_spec, att.weight_state)
    att.freeze()


def _layer_norm(x, gain, bias):
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis; x is not written.

    The variance is the mean of the squared centred values, the reductions
    np.var makes, so the result equals the np.mean/np.var formula bit for bit.
    """
    xc = x - x.mean(axis=-1, keepdims=True)
    var = np.square(xc).mean(axis=-1, keepdims=True)
    var += _LN_EPS
    xc /= np.sqrt(var)
    xc *= gain
    xc += bias
    return xc


def _softmax(x, keep=None):
    """Softmax over the last axis, computed in x and returned.

    keep, when given, is a boolean mask broadcasting against x whose False
    entries hold -inf scores: those are not exponentiated but set to
    exp(-inf) = 0.0, which is much cheaper and gives the same bytes.
    """
    x -= x.max(axis=-1, keepdims=True)
    if keep is None:
        np.exp(x, out=x)
    else:
        np.exp(x, out=x, where=keep)
        np.copyto(x, 0.0, where=~keep)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _gelu(x):
    """Exact GELU 0.5 * x * (1 + erf(x / sqrt 2)), computed in x and returned."""
    t = x / np.sqrt(2.0)
    erf(t, out=t)
    t += 1.0
    x *= 0.5
    x *= t
    return x


def cross_entropy(logits: Tensor, targets) -> float:
    """Mean cross-entropy in nats; logits (..., V), integer targets (...)."""
    targets = np.asarray(targets)
    m = logits.max(axis=-1, keepdims=True)
    e = logits - m
    np.exp(e, out=e)
    lse = m[..., 0] + np.log(e.sum(axis=-1))
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    return float(np.mean(lse - picked))


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
    stream = RngStream(seed, _INIT_STREAM)
    d = config.d_model

    def draw(shape, scale):
        return scale * stream.gaussian(int(np.prod(shape))).reshape(shape)

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
        smoothing=SmoothingParams.identity(w.shape[0]) if plan.mode == "weight_activation" else None,
    )
    return att


def set_lightweight(model: ModelGraph) -> ModelGraph:
    """Freeze and pre-quantize everything except the attention query/value matrices.

    Query/value layers drop their attachments and run in full precision;
    frozen layers get smoothing folded into (w, b) and the weight replaced by
    its fake-quantized value once. Idempotent.
    """
    if model.lightweight:
        return model
    for block in model.blocks:
        for name in LINEAR_NAMES:
            lin = block.linears[name]
            if name in LIGHTWEIGHT_TRAINABLE:
                lin.att = LayerAttachment(trainable=True)
            elif not lin.att.pre_quantized:
                freeze_linear(lin)
    model.lightweight = True
    return model
