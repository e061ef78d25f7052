"""Uniform fake-quantization with learnable clipping.

Quantization is simulated: quantize to integer codes, clamp, and dequantize
back to reals in one pass (values live on the grid step * (code - zero)).
Each value maps to the grid value nearest to it, ties to the even grid
index. Where x / step rounds onto a half k + 1/2 in floating point, the
exact sign of x - step * (k + 1/2) decides between the two neighbouring
grid values. One vectorized pass finds it with no rounding anywhere: the
remainder |np.fmod(x, step)| is exact, and it is compared with step / 2
as rem against step * 0.5 where step >= 1 and as 2 * rem against step
where step < 1 (see _nearest_index).
Weight quantizers additionally honor per-group clipping coefficients
(clip_lo, clip_hi) that scale the positive clamp level, so the integer clamp
range becomes [round(clip_lo * q_p), round(clip_hi * q_p)] intersected with
the natural code range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, InvalidStateError
from .numerics import Tensor

SCHEMES = ("symmetric", "asymmetric")
ROLES = ("weight", "activation")


@dataclass(frozen=True)
class QuantSpec:
    """Static configuration of one quantizer: bit width, scheme, role, weight group size.

    The role fixes the tiling. An activation quantizer has one group per
    row of a (..., features) input. A weight quantizer takes a 2-D
    (d_in, d_out) weight and cuts each output column into groups of
    group_size consecutive input rows; None means one group per column.
    """

    bits: int
    scheme: str
    role: str
    group_size: int | None = None

    def __post_init__(self):
        if self.bits < 2:
            raise DataError(f"bit width must be >= 2, got {self.bits}")
        if self.scheme not in SCHEMES:
            raise DataError(f"unknown scheme {self.scheme!r}")
        if self.role not in ROLES:
            raise DataError(f"unknown role {self.role!r}")
        if self.group_size is not None:
            if self.role == "activation":
                raise DataError("activation quantizers take no group_size: their groups are rows")
            if self.group_size < 1:
                raise DataError(f"group_size must be >= 1, got {self.group_size}")

    @property
    def q_n(self) -> int:
        return 0 if self.scheme == "asymmetric" else -(2 ** (self.bits - 1))

    @property
    def q_p(self) -> int:
        return 2**self.bits - 1 if self.scheme == "asymmetric" else 2 ** (self.bits - 1) - 1

    @property
    def code_dtype(self) -> np.dtype:
        """The smallest integer dtype holding every code in [q_n, q_p]: 8-bit up to 8 bits, 16-bit up to 16."""
        for dtype in (np.uint8, np.int8, np.uint16, np.int16):
            info = np.iinfo(dtype)
            if info.min <= self.q_n and self.q_p <= info.max:
                return np.dtype(dtype)
        raise DataError(f"{self.bits}-bit codes fit no 8- or 16-bit integer")


def to_groups(x: Tensor, spec: QuantSpec) -> Tensor:
    """x as the (n_groups, group) matrix of spec's tiling; from_groups inverts it.

    Activation groups are the rows of x. Weight groups run column by column,
    each column's groups in row order: w.T.reshape(-1, size).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise DataError("cannot group an empty tensor")
    if spec.role == "activation":
        return x.reshape(-1, x.shape[-1])
    if x.ndim != 2:
        raise DimensionError(f"a weight quantizer needs a 2-D (d_in, d_out) weight, got shape {x.shape}")
    size = spec.group_size or x.shape[0]
    if x.shape[0] % size:
        raise DimensionError(f"group size {size} does not divide d_in {x.shape[0]}")
    return x.T.reshape(-1, size)


def from_groups(g: Tensor, shape: tuple[int, ...], spec: QuantSpec) -> Tensor:
    """The C-contiguous tensor of the given shape whose to_groups matrix is g.

    For a C-contiguous weight quantized whole per column, fake_quant's g
    keeps the weight's transposed layout, so the transpose back is already
    C-contiguous and is not copied; a g of smaller groups is copied once.
    """
    if spec.role == "activation":
        return g.reshape(shape)
    return np.ascontiguousarray(g.reshape(shape[::-1]).T)


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
    step, zero = _range_grid(to_groups(x, spec), spec)  # to_groups rejects an empty x
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
    return lo, hi  # lo <= hi: rint and clip are monotone, and validate holds clip_lo < clip_hi


def _grid_index(x: Tensor, spec: QuantSpec, state: QuantState) -> tuple[Tensor, Tensor, Tensor]:
    """Clamped grid indices (code - zero) of x under `state`; see _nearest_index.

    Returns (index, step, zero), the last two as (n_groups, 1) columns.
    """
    state.validate()
    g = to_groups(x, spec)
    if state.n_groups != g.shape[0]:
        raise DimensionError(
            f"state has {state.n_groups} groups but the {spec.role} tiling of shape "
            f"{np.shape(x)} needs {g.shape[0]}"
        )
    step = state.step[:, None]
    zero = np.rint(state.zero_point)[:, None]
    lo, hi = clamp_bounds(spec, state)
    index = _nearest_index(g, step, lo[:, None] - zero, hi[:, None] - zero)
    return index, step, zero


def _nearest_index(g: Tensor, step: Tensor, lo: Tensor, hi: Tensor) -> Tensor:
    """Clamped grid indices of the grouped matrix g, as a new matrix of its shape.

    step, lo and hi are (n_groups, 1) columns; lo and hi bound the index
    (code - zero). Each index is that of the grid value nearest to x, an
    exact tie going to the even index. rint of the float quotient x / step
    gets this right except where the quotient has rounded onto a half
    mid = k + 1/2: there x may lie on either side of the midpoint
    step * mid, and float distances would not do, since they round and can
    name the farther neighbour. One exact pass over those elements decides:

    - rem = |fmod(x, step)| is exact, as IEEE fmod never rounds.
    - |mid| = n + 1/2 with n < 2**52, so the true quotient |x| / step,
      which rounded to it, lies strictly between n and n + 1. fmod
      truncates it to n: rem = |x| - n * step, and x - step * mid has the
      sign of x times the sign of rem - step / 2.
    - rem is compared with step / 2 without rounding: as rem against
      step * 0.5 where step >= 1, since halving a normal float is exact,
      and as 2 * rem against step where step < 1, since doubling cannot
      round below overflow.

    Past the midpoint the index steps away from zero, short of it toward
    zero (mid +- 1/2, both exact), and an exact tie keeps rint's even index.
    """
    frac = g / step
    index = np.rint(frac)
    # x/step - rint(x/step) is exact in float and within [-0.5, 0.5], so a
    # half shows as an extreme of exactly +-0.5; fmax and fmin skip the NaN
    # of a non-finite x.
    with np.errstate(invalid="ignore"):  # inf - inf for an infinite x
        np.subtract(frac, index, out=frac)
    if np.fmax.reduce(frac, axis=None) == 0.5 or np.fmin.reduce(frac, axis=None) == -0.5:
        r, c = np.nonzero(np.abs(frac) == 0.5)
        x, s = g[r, c], step[r, 0]  # fancy indexing: fresh copies
        mid = x / s  # exactly k + 1/2
        rem = np.abs(np.fmod(x, s))
        small = s < 1.0
        rem[small] *= 2.0
        s[~small] *= 0.5
        past = np.sign(rem - s) * np.sign(x)  # the sign of x - step * mid
        index[r, c] = np.where(past == 0, index[r, c], mid + 0.5 * past)
    # Integer-valued floats, so clamping the index is exact. np.clip, not an
    # in-place np.maximum and np.minimum: where a -0.0 index meets a +0.0
    # bound, each returns either zero depending on the array's shape, and
    # only the same call keeps every sign of zero.
    np.clip(index, lo, hi, out=index)
    return index


def fake_quant(x: Tensor, spec: QuantSpec, state: QuantState | None = None) -> Tensor:
    """Quantize-then-dequantize x elementwise.

    xhat = step * (clamp(k + zero, lo, hi) - zero), where k is the index of
    the grid value nearest to x / step, ties to even, and zero_point is
    rounded at use. Where x / step rounds onto a half j + 1/2 in floating
    point, the exact sign of x - step * (j + 1/2) decides between j and j + 1.

    With no state, each group's range comes from x itself: the result is
    fake_quant(x, spec, init_range(x, spec)) bit for bit, without building
    that state. The dequantized values overwrite the index matrix, which
    from_groups then lays out in x's shape.
    """
    if state is None:
        g = to_groups(x, spec)
        step, zero = _range_grid(g, spec)
        step, zero = step[:, None], zero[:, None]
        # a fresh state's clamp bounds are the whole code range in either role
        index = _nearest_index(g, step, spec.q_n - zero, spec.q_p - zero)
    else:
        index, step, _ = _grid_index(x, spec, state)
    index *= step
    return from_groups(index, np.shape(x), spec)


def quant_codes(x: Tensor, spec: QuantSpec, state: QuantState) -> np.ndarray:
    """Integer codes produced by fake_quant, same shape as x, in spec.code_dtype."""
    index, _, zero = _grid_index(x, spec, state)
    index += zero
    return from_groups(index, np.shape(x), spec).astype(spec.code_dtype)


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
