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
With no state, each group's range comes from the data, and its clamp
bounds are the whole code range. The clamp can then change a bit only on
rare inputs (a range end whose quotient is a half or rounds past a bound,
a non-finite value, a bound of 0), so _grid_index checks the groups'
extremes and, where it can change none, skips it by passing None bounds
to _nearest_index.
Weight quantizers additionally honor per-group clipping coefficients
(clip_lo, clip_hi) that scale the positive clamp level, so the integer clamp
range becomes [round(clip_lo * q_p), round(clip_hi * q_p)] intersected with
the natural code range.
Only this module knows how a tensor is cut into groups: a tensor is
quantized in its own layout, reduced over axis 1 of its group view
(group_view), and a QuantState's per-group vectors, kept in group order,
broadcast against that view through per_group.
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

    The role fixes the tiling, which group_view states: an activation
    quantizer has one group per row of a (..., features) input; a weight
    quantizer cuts each output column of a 2-D (d_in, d_out) weight into
    groups of group_size consecutive input rows, None meaning one per column.
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
        # the code range [q_n, q_p], which every quantizer call reads: plain
        # attributes set once, not properties recomputed at each read
        asym = self.scheme == "asymmetric"
        object.__setattr__(self, "q_n", 0 if asym else -(2 ** (self.bits - 1)))
        object.__setattr__(self, "q_p", 2**self.bits - 1 if asym else 2 ** (self.bits - 1) - 1)

    @property
    def code_dtype(self) -> np.dtype:
        """The smallest integer dtype holding every code in [q_n, q_p]: 8-bit up to 8 bits, 16-bit up to 16."""
        for dtype in (np.uint8, np.int8, np.uint16, np.int16):
            info = np.iinfo(dtype)
            if info.min <= self.q_n and self.q_p <= info.max:
                return np.dtype(dtype)
        raise DataError(f"{self.bits}-bit codes fit no 8- or 16-bit integer")


def group_view(x: Tensor, spec: QuantSpec) -> Tensor:
    """x reshaped so that each quantizer group lies along axis 1: free for a C-contiguous x, in x's dtype.

    An activation is viewed as (rows, features), group g being row g. A
    (d_in, d_out) weight is viewed as (d_in // size, size, d_out): group
    g = c * (d_in // size) + r, rows [r * size, (r + 1) * size) of output
    column c, is [r, :, c].
    """
    x = np.asarray(x)
    if x.size == 0:
        raise DataError("cannot group an empty tensor")
    if spec.role == "activation":
        return x.reshape(-1, x.shape[-1])
    if x.ndim != 2:
        raise DimensionError(f"a weight quantizer needs a 2-D (d_in, d_out) weight, got shape {x.shape}")
    size = spec.group_size or x.shape[0]
    if x.shape[0] % size:
        raise DimensionError(f"group size {size} does not divide d_in {x.shape[0]}")
    return x.reshape(-1, size, x.shape[1])


def per_group(v: Tensor, g: Tensor) -> Tensor:
    """A vector v in group order as a view of g's shape with axis 1 set to 1, writing through to a contiguous v.

    Group order, kept by QuantState and the checkpoint, runs over g's other
    axes in Fortran order: g = c * (d_in // size) + r is [r, 0, c].
    """
    return v.reshape((g.shape[0], 1) + g.shape[2:], order="F")


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
        """Refuse a step <= 0 or clip_lo >= clip_hi in any group; a NaN compares false and passes."""
        if np.logical_or.reduce(self.step <= 0, axis=None):
            raise InvalidStateError("quantizer step must be positive in every group")
        if np.logical_or.reduce(self.clip_lo >= self.clip_hi, axis=None):
            raise InvalidStateError("clip_lo must be strictly below clip_hi in every group")


def init_range(x: Tensor, spec: QuantSpec) -> QuantState:
    """Range-initialize a quantizer state from the data in x.

    Symmetric: step = absmax / q_p, zero = 0. Asymmetric: step =
    (max - min) / q_p, zero = -round(min / step). Clipping starts inactive
    (clip_lo = q_n / q_p, clip_hi = 1). A constant group gets step = 1 and a
    zero point that round-trips the constant's nearest integer.
    """
    g = group_view(np.asarray(x, dtype=np.float64), spec)
    n = g.size // g.shape[1]
    state = QuantState(np.empty(n), np.empty(n), np.full(n, spec.q_n / spec.q_p), np.ones(n))
    per_group(state.step, g)[...], per_group(state.zero_point, g)[...] = _range_grid(g, spec)[:2]
    return state


def _range_grid(g: Tensor, spec: QuantSpec) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Range-init (step, zero point, min, max) of each group of the group view g, in per_group's shape; see init_range.

    An activation's rows are reduced by np.minimum.reduceat and
    np.maximum.reduceat over the flat view, about 3x faster than an axis-1
    reduce of rows 64 wide. A weight's groups keep the axis-1 reduce. Min
    and max are exact, so both give the same bytes.
    """
    q_p = float(spec.q_p)
    if spec.role == "activation":
        flat, starts = g.reshape(-1), np.arange(0, g.size, g.shape[1])
        mins = np.minimum.reduceat(flat, starts).reshape(-1, 1)
        maxs = np.maximum.reduceat(flat, starts).reshape(-1, 1)
    else:
        mins = np.minimum.reduce(g, axis=1, keepdims=True)
        maxs = np.maximum.reduce(g, axis=1, keepdims=True)
    if spec.scheme == "symmetric":
        step = np.maximum(np.abs(mins), np.abs(maxs)) / q_p
        zero = np.zeros(step.shape)
    else:
        step = (maxs - mins) / q_p
        zero = -np.rint(np.divide(mins, step, out=np.zeros(step.shape), where=step > 0))
    degenerate = step <= 0
    if np.logical_or.reduce(degenerate, axis=None):
        step[degenerate] = 1.0
        # constant group: code 0 maps back to rint(constant)
        zero[degenerate] = -np.rint(maxs[degenerate])
    return step, zero, mins, maxs


def clamp_bounds(spec: QuantSpec, state: QuantState) -> tuple[Tensor, Tensor]:
    """Integer clamp bounds per group; clipping applies to weights only."""
    if spec.role == "activation":
        return np.full(state.n_groups, float(spec.q_n)), np.full(state.n_groups, float(spec.q_p))
    # np.maximum and np.minimum return their second argument where the two
    # compare equal, so a rounded -0.0 at the bound 0 stays -0.0, as np.clip
    # with scalar bounds leaves it
    lo = np.minimum(spec.q_p, np.maximum(spec.q_n, np.rint(state.clip_lo * spec.q_p)))
    hi = np.minimum(spec.q_p, np.maximum(spec.q_n, np.rint(state.clip_hi * spec.q_p)))
    return lo, hi  # lo <= hi: rint and the clamp are monotone, and validate holds clip_lo < clip_hi


def _grid_index(x: Tensor, spec: QuantSpec, state: QuantState | None) -> tuple[Tensor, Tensor]:
    """Clamped grid indices (code - zero) of x under `state`, in x's group view; see _nearest_index.

    Returns (index, step), step broadcasting against the index. With no
    state, each group's range comes from x itself (see fake_quant), and the
    clamp is skipped (None bounds) when, in every group,
    rint(min / step) >= lo, rint(max / step) <= hi, neither quotient is
    exactly a half, and no bound is 0. The skip is exact:

    - Correctly rounded division by a positive step and rint are
      monotone, so every quotient lies between the extremes' and rounds
      between their indices.
    - A quotient on a half k + 1/2 lies strictly between the extremes'
      quotients, so both of its candidates k and k + 1 lie in [lo, hi].
    - An index that equals a nonzero bound is that bound, sign included;
      only a bound of 0 would turn a -0.0 index into +0.0.
    - A NaN or an infinity in a group makes a quotient of its extremes
      NaN, which fails the check, so every quotient is finite on the
      unclamped path.
    """
    g = group_view(np.asarray(x, dtype=np.float64), spec)
    if state is None:
        step, zero, mins, maxs = _range_grid(g, spec)
        # a fresh state's clamp bounds are the whole code range in either role
        lo = spec.q_n - zero
        hi = spec.q_p - zero
        q_lo, q_hi = mins / step, maxs / step
        k_lo, k_hi = np.rint(q_lo), np.rint(q_hi)
        free = (k_lo >= lo) & (k_hi <= hi) & (lo != 0) & (hi != 0)
        free &= np.maximum(np.abs(q_lo - k_lo), np.abs(q_hi - k_hi)) < 0.5  # no half; NaN fails
        if np.logical_and.reduce(free, axis=None):
            lo = hi = None
        return _nearest_index(g, step, lo, hi), step
    state.validate()
    if state.n_groups * g.shape[1] != g.size:
        raise DimensionError(
            f"state has {state.n_groups} groups but the {spec.role} tiling of shape "
            f"{np.shape(x)} needs {g.size // g.shape[1]}"
        )
    lo, hi = clamp_bounds(spec, state)
    zero = np.rint(state.zero_point)
    lo -= zero
    hi -= zero
    del zero  # three per-group vectors, not four, live beside _nearest_index's two of g's size
    # C-contiguous copies: per_group's view of a grouped weight's vectors
    # steps across memory along d_out, and numpy broadcasts it about 2x slower
    step = np.ascontiguousarray(per_group(state.step, g))
    lo = np.ascontiguousarray(per_group(lo, g))
    hi = np.ascontiguousarray(per_group(hi, g))
    return _nearest_index(g, step, lo, hi), step


def _nearest_index(g: Tensor, step: Tensor, lo: Tensor | None, hi: Tensor | None) -> Tensor:
    """Clamped grid indices of the group view g, as a new array of its shape.

    step, lo and hi have g's shape with axis 1 set to 1 (per_group); lo and hi bound the index
    (code - zero). lo = hi = None skips the clamp, as np.clip(index, None,
    None) does; _grid_index passes them only where the clamp would change
    no bit and every quotient is finite, so np.errstate is entered only on
    the clamped path. Each index is that of the grid value nearest to x, an
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
    if lo is None:  # every quotient is finite
        np.subtract(frac, index, out=frac)
    else:
        with np.errstate(invalid="ignore"):  # inf - inf for an infinite x
            np.subtract(frac, index, out=frac)
    if np.fmax.reduce(frac, axis=None) == 0.5 or np.fmin.reduce(frac, axis=None) == -0.5:
        at = np.nonzero(np.abs(frac) == 0.5)
        x, s = g[at], step[(at[0], 0, *at[2:])]  # fancy indexing: fresh copies; step's axis 1 has length 1
        mid = x / s  # exactly k + 1/2
        rem = np.abs(np.fmod(x, s))
        small = s < 1.0
        rem[small] *= 2.0
        s[~small] *= 0.5
        past = np.sign(rem - s) * np.sign(x)  # the sign of x - step * mid
        index[at] = np.where(past == 0, index[at], mid + 0.5 * past)
    # Integer-valued floats, so clamping the index is exact. Where an index
    # equals its bound, np.maximum and np.minimum return the bound (their
    # second argument) at every shape, so a -0.0 index at a +0.0 bound
    # becomes +0.0 whatever the row count.
    if lo is not None:
        np.maximum(index, lo, out=index)
        np.minimum(index, hi, out=index)
    return index


def fake_quant(x: Tensor, spec: QuantSpec, state: QuantState | None = None) -> Tensor:
    """Quantize-then-dequantize x elementwise.

    xhat = step * (clamp(k + zero, lo, hi) - zero), where k is the index of
    the grid value nearest to x / step, ties to even, and zero_point is
    rounded at use. Where x / step rounds onto a half j + 1/2 in floating
    point, the exact sign of x - step * (j + 1/2) decides between j and j + 1.

    With no state, each group's range comes from x itself: the result is
    fake_quant(x, spec, init_range(x, spec)) bit for bit, without building
    that state. The dequantized values overwrite the index array, which is
    in x's own layout (group_view), so nothing is transposed or copied back.
    """
    x = np.asarray(x, dtype=np.float64)
    index, step = _grid_index(x, spec, state)
    index *= step
    return index.reshape(x.shape)


def quant_codes(x: Tensor, spec: QuantSpec, state: QuantState) -> np.ndarray:
    """Integer codes produced by fake_quant, in x's shape and spec.code_dtype, computed in x's group view like it."""
    index, _ = _grid_index(x, spec, state)
    index += per_group(np.rint(state.zero_point), index)
    return index.reshape(np.shape(x)).astype(spec.code_dtype)


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
