"""Uniform fake-quantization with learnable clipping.

Quantization is simulated: quantize to integer codes, clamp, and dequantize
back to reals in one pass (values live on the grid step * (code - zero)).
Each value maps to the grid value nearest to it, ties to the even grid
index; where x / step rounds onto a half in floating point, the exact sign
of x - step * (k + 1/2) decides between the two neighbouring grid values.
Weight quantizers additionally honor per-group clipping coefficients
(clip_lo, clip_hi) that scale the positive clamp level, so the integer clamp
range becomes [round(clip_lo * q_p), round(clip_hi * q_p)] intersected with
the natural code range.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import DataError, DimensionError, InvalidStateError
from .numerics import Granularity, Tensor, from_groups, group_count, to_groups

SCHEMES = ("symmetric", "asymmetric")
ROLES = ("weight", "activation")


@dataclass(frozen=True)
class QuantSpec:
    """Static configuration of one quantizer: bit width, scheme, tiling, role."""

    bits: int
    scheme: str
    granularity: Granularity
    role: str = "weight"

    def __post_init__(self):
        if self.bits < 2:
            raise DataError(f"bit width must be >= 2, got {self.bits}")
        if self.scheme not in SCHEMES:
            raise DataError(f"unknown scheme {self.scheme!r}")
        if self.role not in ROLES:
            raise DataError(f"unknown role {self.role!r}")
        if self.role == "activation" and self.granularity.kind == "per_group":
            raise DataError("activation quantizers do not support per_group granularity")

    @property
    def q_n(self) -> int:
        return 0 if self.scheme == "asymmetric" else -(2 ** (self.bits - 1))

    @property
    def q_p(self) -> int:
        return 2**self.bits - 1 if self.scheme == "asymmetric" else 2 ** (self.bits - 1) - 1


@dataclass
class QuantState:
    """Learnable per-group parameters of one quantizer instance.

    step and zero_point are the affine grid parameters; clip_lo/clip_hi are
    the clipping coefficients (clip_lo < clip_hi). zero_point is stored as a
    real so it can be perturbed continuously during training; it is rounded
    at every application.
    """

    step: Tensor
    zero_point: Tensor
    clip_lo: Tensor
    clip_hi: Tensor

    def __post_init__(self):
        self.step = np.atleast_1d(np.asarray(self.step, dtype=np.float64))
        self.zero_point = np.atleast_1d(np.asarray(self.zero_point, dtype=np.float64))
        self.clip_lo = np.atleast_1d(np.asarray(self.clip_lo, dtype=np.float64))
        self.clip_hi = np.atleast_1d(np.asarray(self.clip_hi, dtype=np.float64))

    @property
    def n_groups(self) -> int:
        return self.step.shape[0]

    def copy(self) -> "QuantState":
        return QuantState(
            self.step.copy(), self.zero_point.copy(), self.clip_lo.copy(), self.clip_hi.copy()
        )

    def validate(self) -> None:
        if np.any(self.step <= 0):
            raise InvalidStateError("quantizer step must be positive in every group")
        if np.any(self.clip_lo >= self.clip_hi):
            raise InvalidStateError("clip_lo must be strictly below clip_hi in every group")


def init_range(x: Tensor, spec: QuantSpec) -> QuantState:
    """Range-initialize a quantizer state from the data in x.

    Symmetric: step = absmax / q_p, zero = 0. Asymmetric: step =
    (max - min) / q_p, zero = -round(min / step). Clipping starts inactive
    (clip_lo = q_n / q_p, clip_hi = 1). A constant group gets step = 1 and a
    zero point that round-trips the constant's nearest integer.
    """
    step, zero = _range_grid(to_groups(x, spec.granularity), spec)  # to_groups rejects an empty x
    n = step.shape[0]
    clip_lo = np.full(n, spec.q_n / spec.q_p)
    clip_hi = np.ones(n)
    return QuantState(step=step, zero_point=zero, clip_lo=clip_lo, clip_hi=clip_hi)


def _range_grid(g: Tensor, spec: QuantSpec) -> tuple[Tensor, Tensor]:
    """Range-init (step, zero point) of each row of the grouped matrix g; see init_range."""
    q_p = float(spec.q_p)
    mins = g.min(axis=1)
    maxs = g.max(axis=1)
    if spec.scheme == "symmetric":
        step = np.maximum(np.abs(mins), np.abs(maxs))
        step /= q_p
        zero = np.zeros_like(step)
    else:
        step = maxs - mins
        step /= q_p
        zero = np.divide(mins, step, out=np.zeros_like(step), where=step > 0)
        np.rint(zero, out=zero)
        np.negative(zero, out=zero)
    degenerate = step <= 0
    if np.any(degenerate):
        step[degenerate] = 1.0
        # constant group: code 0 maps back to rint(constant)
        zero[degenerate] = -np.rint(maxs[degenerate])
    return step, zero


def clamp_bounds(spec: QuantSpec, state: QuantState) -> tuple[Tensor, Tensor]:
    """Integer clamp bounds per group; clipping applies to weights only."""
    n = state.n_groups
    if spec.role == "activation":
        lo = np.full(n, float(spec.q_n))
        hi = np.full(n, float(spec.q_p))
        return lo, hi
    lo = np.clip(np.rint(state.clip_lo * spec.q_p), spec.q_n, spec.q_p)
    hi = np.clip(np.rint(state.clip_hi * spec.q_p), spec.q_n, spec.q_p)
    return lo, np.maximum(hi, lo)


def _grid_index(x: Tensor, spec: QuantSpec, state: QuantState) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Clamped grid indices (code - zero) of x under `state`; see _nearest_index.

    Returns (index, spare, step, zero), the last two as (n_groups, 1) columns.
    """
    x = np.asarray(x, dtype=np.float64)
    state.validate()
    expected = group_count(x.shape, spec.granularity)
    if state.n_groups != expected:
        raise DimensionError(
            f"state has {state.n_groups} groups but {spec.granularity.kind} tiling of shape "
            f"{x.shape} needs {expected}"
        )
    g = to_groups(x, spec.granularity)
    step = state.step[:, None]
    zero = np.rint(state.zero_point)[:, None]
    lo, hi = clamp_bounds(spec, state)
    index, spare = _nearest_index(g, step, lo[:, None] - zero, hi[:, None] - zero)
    return index, spare, step, zero


def _nearest_index(g: Tensor, step: Tensor, lo: Tensor, hi: Tensor) -> tuple[Tensor, Tensor]:
    """Clamped grid indices of the grouped matrix g, and a spare matrix of its shape.

    step, lo and hi are (n_groups, 1) columns; lo and hi bound the index
    (code - zero), and the caller may overwrite the spare matrix. Each index
    is that of the grid value nearest to x, an exact tie going to the even
    index. rint of the float quotient x / step gets this right except where
    the quotient has rounded onto a half k + 1/2: there x may lie on either
    side of the midpoint step * (k + 1/2), so the exact sign of
    x - step * (k + 1/2), in rational arithmetic, decides. Float distances
    would not do: they round, and can name the farther neighbour. Such
    quotients are rare, so a loop over them is cheap.
    """
    frac = g / step
    index = np.rint(frac)
    # x/step - rint(x/step) is exact in float and within [-0.5, 0.5], so a
    # half shows as an extreme of exactly +-0.5; fmax and fmin skip the NaN
    # of a non-finite x.
    with np.errstate(invalid="ignore"):  # inf - inf for an infinite x
        np.subtract(frac, index, out=frac)
    if np.fmax.reduce(frac, axis=None) == 0.5 or np.fmin.reduce(frac, axis=None) == -0.5:
        for r, c in zip(*np.nonzero(np.abs(frac) == 0.5)):
            x_rc, step_r = g[r, c], step[r, 0]
            mid = x_rc / step_r  # exactly k + 1/2
            past = Fraction(x_rc) - Fraction(step_r) * Fraction(mid)
            if past:  # an exact tie keeps rint's even index
                index[r, c] = mid + 0.5 if past > 0 else mid - 0.5
    # Integer-valued floats, so clamping the index is exact. np.clip, not an
    # in-place np.maximum and np.minimum: where a -0.0 index meets a +0.0
    # bound, each returns either zero depending on the array's shape, and
    # only the same call keeps every sign of zero.
    np.clip(index, lo, hi, out=index)
    return index, frac


def fake_quant(x: Tensor, spec: QuantSpec, state: QuantState | None = None) -> Tensor:
    """Quantize-then-dequantize x elementwise.

    xhat = step * (clamp(k + zero, lo, hi) - zero), where k is the index of
    the grid value nearest to x / step, ties to even, and zero_point is
    rounded at use. Where x / step rounds onto a half j + 1/2 in floating
    point, the exact sign of x - step * (j + 1/2) decides between j and j + 1.

    With no state, each group's range comes from x itself: the result is
    fake_quant(x, spec, init_range(x, spec)) bit for bit, without building
    that state.
    """
    if state is None:
        g = to_groups(x, spec.granularity)
        step, zero = _range_grid(g, spec)
        step, zero = step[:, None], zero[:, None]
        # a fresh state's clamp bounds are the whole code range in either role
        index, out = _nearest_index(g, step, spec.q_n - zero, spec.q_p - zero)
    else:
        index, out, step, _ = _grid_index(x, spec, state)
    # Writing into the spare matrix rather than into index keeps the peak RSS
    # of the zo_w4a4 benchmark at 124.9-125.0 MiB; into index it read
    # 126.2-126.4 MiB (two runs each).
    np.multiply(index, step, out=out)
    return from_groups(out, np.shape(x), spec.granularity)


def quant_codes(x: Tensor, spec: QuantSpec, state: QuantState) -> np.ndarray:
    """Integer codes produced by fake_quant, same shape as x (int64)."""
    index, _, _, zero = _grid_index(x, spec, state)
    index += zero
    return from_groups(index, np.shape(x), spec.granularity).astype(np.int64)


def quant_error(x: Tensor, spec: QuantSpec, state: QuantState) -> float:
    """Mean squared elementwise difference between x and fake_quant(x)."""
    diff = np.asarray(x, dtype=np.float64) - fake_quant(x, spec, state)
    return float(np.mean(diff * diff))


def tighten_state(state: QuantState, clip_lo=None, clip_hi=None) -> QuantState:
    """Return a copy with replaced clipping coefficients (clip_lo < clip_hi enforced)."""
    out = state.copy()
    if clip_lo is not None:
        out.clip_lo = np.broadcast_to(np.asarray(clip_lo, dtype=np.float64), out.clip_lo.shape).copy()
    if clip_hi is not None:
        out.clip_hi = np.broadcast_to(np.asarray(clip_hi, dtype=np.float64), out.clip_hi.shape).copy()
    out.validate()
    return out
