"""Channel-wise scale/shift that migrates activation outliers into weights.

For a linear layer y = x w + b the factorization

    y = [(x - shift) / scale] [scale * w] + [b + shift w]

is exact in real arithmetic; quantizing the bracketed factors trades
activation range for weight range. scale and shift are per-input-channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .numerics import Tensor


# Range of the smoothing scale. clamp_parameters and calibration project the
# learnable scale onto [SCALE_FLOOR, SCALE_CEIL]; application floors a
# transiently perturbed copy at SCALE_FLOOR.
SCALE_FLOOR = 1e-4
SCALE_CEIL = 1e4


@dataclass
class SmoothingParams:
    """Per-input-channel scale (> 0) and shift for one linear layer."""

    scale: Tensor
    shift: Tensor

    def __post_init__(self):
        self.scale = np.atleast_1d(np.asarray(self.scale, dtype=np.float64))
        self.shift = np.atleast_1d(np.asarray(self.shift, dtype=np.float64))
        if self.scale.shape != self.shift.shape:
            raise DimensionError(
                f"scale and shift lengths differ: {self.scale.shape} vs {self.shift.shape}"
            )

    @classmethod
    def identity(cls, d1: int) -> "SmoothingParams":
        return cls(scale=np.ones(d1), shift=np.zeros(d1))

    def copy(self) -> "SmoothingParams":
        return SmoothingParams(self.scale.copy(), self.shift.copy())


def applied_scale(p: SmoothingParams) -> Tensor:
    """The scale as applied: floored at SCALE_FLOOR on a copy, never in place.

    A ZO perturbation can push a scale at the floor below zero for one
    forward; the live parameter stays untouched so that +eps, -2 eps, +eps
    restores it as it would any other parameter. A NaN scale fails the
    check and stays NaN in the copy.
    """
    if np.logical_and.reduce(p.scale >= SCALE_FLOOR, axis=None):
        return p.scale
    return np.maximum(p.scale, SCALE_FLOOR)


def smooth_activation(x: Tensor, p: SmoothingParams, scale: Tensor | None = None) -> Tensor:
    """Activation side of the factorization: (x - shift) / scale; x is not written.

    scale is applied_scale(p), computed here when not given: a caller that
    smooths one layer's rows block by block passes it, so the floor check
    runs once per layer, not once per block.
    """
    xs = np.asarray(x, dtype=np.float64) - p.shift
    xs /= applied_scale(p) if scale is None else scale
    return xs


def smooth_weight(w: Tensor, p: SmoothingParams, scale: Tensor | None = None) -> Tensor:
    """Smoothed weight scale * w: row i of w is scaled by scale[i]; scale as in smooth_activation."""
    if scale is None:
        scale = applied_scale(p)
    return scale[:, None] * w


def fold_smoothing(
    w: Tensor, b: Tensor, p: SmoothingParams, scale: Tensor | None = None
) -> tuple[Tensor, Tensor]:
    """Weight side of the factorization: (scale * w, b + shift w); scale as in smooth_activation."""
    return smooth_weight(w, p, scale), b + p.shift @ w


def apply_smoothing(
    x: Tensor, w: Tensor, b: Tensor, p: SmoothingParams, scale: Tensor | None = None
) -> tuple[Tensor, Tensor, Tensor]:
    """Return the smoothed triple (x_s, w_s, b_s) with x_s w_s + b_s == x w + b.

    x is (T, D1), w is (D1, D2), b is (1, D2) or (D2,). The activation side
    is computed before the weight side; both apply one scale, as in
    smooth_activation.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d1 = p.scale.shape[0]
    if x.ndim != 2 or x.shape[1] != d1:
        raise DimensionError(f"activation shape {x.shape} incompatible with {d1} channels")
    if w.ndim != 2 or w.shape[0] != d1:
        raise DimensionError(f"weight shape {w.shape} incompatible with {d1} channels")
    if b.reshape(-1).shape[0] != w.shape[1]:
        raise DimensionError(f"bias shape {b.shape} incompatible with weight {w.shape}")
    if scale is None:
        scale = applied_scale(p)
    x_s = smooth_activation(x, p, scale)
    w_s, b_s = fold_smoothing(w, b, p, scale)
    return x_s, w_s, b_s
