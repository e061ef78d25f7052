"""Two-point zeroth-order gradient estimation and the ZO-SGD step.

Perturbation directions are never stored: each direction i of step t is the
Gaussian stream (seed, (t << 32) | i), regenerated one flat window of the
parameter view at a time within the step that ParamView.begin_step opens, or
for all q at once when they fit the view's window cache together. One step
therefore costs 2q forward evaluations plus one streamed update pass, and the
persistent optimizer state is q scalar coefficients plus stream cursors,
independent of the parameter count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, NumericError
from .numerics import normals_at

# the one list of trainable groups, in view order; ZoConfig holds an lr_{label} for each
GROUP_ORDER = ("weights", "smoothing", "clipping", "quant_affine")

_STEP_SHIFT = 32
_MAX_DIRECTIONS = 1 << _STEP_SHIFT
# below 2^30 steps, direction stream ids stay below the cli's namespaces at 2^62
STEP_LIMIT = 1 << 30


def direction_stream_id(step: int, i: int) -> int:
    """Stream id of direction i at step `step` under the seed schedule."""
    if not (0 <= step < STEP_LIMIT and 0 <= i < _MAX_DIRECTIONS):
        raise DataError(f"direction {i} of step {step} out of range: steps < 2^30, directions < 2^32")
    return (int(step) << _STEP_SHIFT) | int(i)


class ParamView:
    """Flat read/write view over the trainable arrays of a model.

    Entries are (label, array) pairs; the arrays are the live model arrays
    and are mutated in place. The view groups them in GROUP_ORDER, keeping
    their order within a group. Flat index = that concatenation order, which
    fixes the meaning of a perturbation stream position.

    A step opens with begin_step, which binds its seed and chunk size; the
    other methods draw the streams of that step. Directions are regenerated
    one flat window at a time, with one `normals_at` call per window. Window
    k holds view positions [k * chunk_size, (k + 1) * chunk_size), cut at
    the view's size, and its pieces are each segment's part of it, in flat
    order; update norms sum over those pieces.

    The view caches the windows drawn in the current step, keyed by
    (stream_id, lo); begin_step empties it. Once it holds more than
    2 * chunk_size floats the least recently used window is dropped, so it
    never holds more than two full windows. A pass whose last window is the
    one used last walks the windows backwards, so each pass starts on the
    two windows the previous one ended on. The +eps, -2eps, +eps passes and a
    q=1 update therefore draw a one-window view once and exactly 4n - 6
    windows of an n-window view with n >= 2: the first pass draws all n,
    and each later pass all but the two it starts on.
    """

    def __init__(self, entries):
        groups = {label: [] for label in GROUP_ORDER}
        for label, arr in entries:
            if label not in groups:
                raise DataError(f"unknown parameter group label {label!r}")
            if arr.dtype != np.float64 or not arr.flags["C_CONTIGUOUS"]:
                raise DataError(f"trainable array for {label!r} must be contiguous float64")
            groups[label].append(arr.reshape(-1))
        self.labels = [label for label in GROUP_ORDER if groups[label]]  # the groups present, in order
        self._segments = []  # (label, 1-D live view, start, stop)
        pos = 0
        for label in self.labels:
            for flat in groups[label]:
                self._segments.append((label, flat, pos, pos + flat.shape[0]))
                pos += flat.shape[0]
        self.size = pos
        self._seed = None  # the seed, chunk size and window plan bound by begin_step
        self._chunk_size = None
        self._plan = None
        self._chunks = {}  # (stream_id, lo) -> drawn window, least recently used first
        self._chunks_floats = 0

    def begin_step(self, seed: int, stream_ids, chunk_size: int) -> None:
        """Open a step: bind its seed and chunk size and empty the window cache.

        A new chunk size rebuilds the window plan. When the step has two or
        more streams and len(stream_ids) * size <= 2 * chunk_size floats,
        which leaves the view one window, that window is drawn for all the
        streams in one normals_at call, and their passes draw nothing more.
        Otherwise the passes draw on demand, so a q = 1 step, as train's
        default, draws exactly as it would alone.
        """
        self._seed = seed
        if chunk_size != self._chunk_size:
            # [(lo, hi, [(label, live piece, window slice)])], window k at lo = k * chunk_size
            plan = [(lo, min(lo + chunk_size, self.size), []) for lo in range(0, self.size, chunk_size)]
            for label, flat, a, b in self._segments:
                for lo, hi, pieces in plan[a // chunk_size : -(-b // chunk_size)]:  # the windows it meets
                    s, e = max(a, lo), min(b, hi)
                    pieces.append((label, flat[s - a : e - a], slice(s - lo, e - lo)))
            self._chunk_size, self._plan = chunk_size, plan
        self._chunks.clear()
        self._chunks_floats = 0
        q = len(stream_ids)
        if q < 2 or q * self.size > 2 * chunk_size:
            return
        self._chunks_floats = q * self.size
        for lo, hi, _ in self._plan:
            for sid, row in zip(stream_ids, normals_at(seed, stream_ids, lo, hi - lo)):
                self._chunks[(sid, lo)] = row

    def _walk(self):
        """The windows in order, or backwards when the last one is the window used last."""
        plan = self._plan
        if len(plan) > 1 and self._chunks and next(reversed(self._chunks))[1] == plan[-1][0]:
            return plan[::-1]
        return plan

    def _direction(self, stream_id: int, lo: int, hi: int) -> np.ndarray:
        """u[lo:hi] of the stream, drawn only when the cache does not hold it."""
        key = (stream_id, lo)
        chunks = self._chunks
        drawn = chunks.pop(key, None)
        if drawn is None:
            drawn = normals_at(self._seed, stream_id, lo, hi - lo)
            self._chunks_floats += hi - lo
            while self._chunks_floats > 2 * self._chunk_size:
                self._chunks_floats -= chunks.pop(next(iter(chunks))).shape[0]
        chunks[key] = drawn
        return drawn

    def direction(self, stream_id: int) -> np.ndarray:
        """A copy of the whole flat u of the stream; cached windows are not drawn again."""
        u = np.empty(self.size)
        for lo, hi, _ in self._walk():
            u[lo:hi] = self._direction(stream_id, lo, hi)
        return u

    def add_direction(self, stream_id: int, scale: float) -> None:
        """In place: params += scale * u, u regenerated window by window from the stream."""
        for lo, hi, pieces in self._walk():
            u = self._direction(stream_id, lo, hi)
            for _, live, sl in pieces:
                live += scale * u[sl]

    def apply_directions(self, stream_ids, coefficients, lr_by_label) -> dict[str, float]:
        """In place: params -= sum_i lr * c_i * u_i; returns per-group update norms.

        With no nonzero coefficient nothing moves and every norm is 0.0. The
        windows may be walked backwards, but each group's squared norm sums
        its pieces in flat order, so the norms do not depend on the walk.
        """
        terms = [(sid, c) for sid, c in zip(stream_ids, coefficients) if c != 0.0]
        if not terms:
            return dict.fromkeys(self.labels, 0.0)
        piece_sq = {}  # window start -> (label, squared norm) of each of its pieces
        for lo, hi, pieces in self._walk():
            delta = np.zeros(hi - lo)
            for sid, c in terms:
                delta += c * self._direction(sid, lo, hi)
            chunk_sq = []
            for label, live, sl in pieces:
                piece = delta[sl]
                piece *= -lr_by_label[label]
                live += piece
                chunk_sq.append((label, float(piece @ piece)))
            piece_sq[lo] = chunk_sq
        sq = dict.fromkeys(self.labels, 0.0)
        for lo in sorted(piece_sq):
            for label, v in piece_sq[lo]:
                sq[label] += v
        return {label: float(np.sqrt(v)) for label, v in sq.items()}


@dataclass
class ZoConfig:
    """Hyperparameters of the two-point estimator and ZO-SGD loop.

    Defaults follow the reference hyperparameter table: perturbation scale
    1e-3, smoothing lr 5e-6, clipping lr 1e-5. The weight lr default is a
    desk-scale choice; the reference values target billion-parameter models.
    At 1e-3 the default toy model diverges within 200 steps; 1e-5 does not.
    """

    epsilon: float = 1e-3
    directions: int = 1
    steps: int = 1000
    seed: int = 0
    lr_weights: float = 1e-5
    lr_smoothing: float = 5e-6
    lr_clipping: float = 1e-5
    lr_quant_affine: float = 1e-5
    lr_schedule: str = "linear_decay"
    batch_size: int = 4
    chunk_size: int = 1 << 16
    train_quant_affine: bool = True

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:  # also false for NaN
            raise DataError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.directions < 1:
            raise DataError("direction count must be >= 1")
        if self.batch_size < 1:
            raise DataError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.steps < 0:
            raise DataError(f"steps must be >= 0, got {self.steps}")
        if self.chunk_size < 1:
            raise DataError("chunk_size must be >= 1")
        for label in GROUP_ORDER:
            if getattr(self, f"lr_{label}") < 0:
                raise DataError(f"lr_{label} must be nonnegative")
        if self.lr_schedule not in ("constant", "linear_decay"):
            raise DataError(f"unknown lr schedule {self.lr_schedule!r}")

    def lr_for(self, label: str, step: int) -> float:
        base = getattr(self, f"lr_{label}")
        if self.lr_schedule == "linear_decay" and self.steps > 0:
            return base * max(0.0, 1.0 - step / self.steps)
        return base


class Direction(NamedTuple):
    """One direction, the stream (cfg.seed, stream_id) of its ZoConfig, and its finite-difference coefficient.

    A named tuple, not a frozen dataclass, whose construction costs twice as
    much: the theory suite builds one per estimate.
    """

    stream_id: int
    coefficient: float
    loss_plus: float
    loss_minus: float


@dataclass
class StepReport:
    step: int
    loss: float
    update_norms: dict[str, float]
    wall_ms: float
    rng_cursor: str


def zo_gradient_scale(loss_fn, params: ParamView, cfg: ZoConfig, step: int) -> list[Direction]:
    """Estimate the gradient as (stream id, coefficient) pairs.

    For each direction u_i ~ N(0, I): perturb in place by +eps u_i, evaluate,
    swing to -eps u_i, evaluate, restore; the coefficient is
    (L+ - L-) / (2 eps). The implied estimate mean_i c_i u_i is never
    materialized here. It opens the step with params.begin_step, which
    draws all q directions in one call when they fit the view's cache.

    A non-finite loss raises NumericError after moving the parameters back,
    which restores them only up to rounding; an exact restore would need a
    copy of the trainable parameters. No caller needs one: train exits 3 and
    discards the model, measured_peaks steps a copy, the theory suite never
    sees a non-finite loss, and the one caller that trains on, perfbench's
    ZO rep, counts the step as failed.
    """
    eps = cfg.epsilon
    sids = [direction_stream_id(step, i) for i in range(cfg.directions)]
    params.begin_step(cfg.seed, sids, cfg.chunk_size)
    add_direction = params.add_direction
    out = []
    for i, sid in enumerate(sids):
        add_direction(sid, +eps)
        loss_plus = float(loss_fn())
        if not math.isfinite(loss_plus):
            add_direction(sid, -eps)
            raise NumericError(f"non-finite loss at +eps, step {step} direction {i}")
        add_direction(sid, -2 * eps)
        loss_minus = float(loss_fn())
        if not math.isfinite(loss_minus):
            add_direction(sid, +eps)
            raise NumericError(f"non-finite loss at -eps, step {step} direction {i}")
        add_direction(sid, +eps)
        out.append(Direction(sid, (loss_plus - loss_minus) / (2 * eps), loss_plus, loss_minus))
    return out


def zo_step(model, batch, cfg: ZoConfig, step: int) -> StepReport:
    """One ZO-SGD update: estimate, stream the update per group, report.

    The model is a ModelGraph, used through loss(batch), its trainable view
    and its clamp/re-derive passes; no gradient entry point exists anywhere
    in the loop.
    """
    t0 = time.perf_counter()
    view = model.trainable_parameters(include_quant_affine=cfg.train_quant_affine)
    directions = zo_gradient_scale(lambda: model.loss(batch), view, cfg, step)
    q = len(directions)
    lr_by_label = {label: cfg.lr_for(label, step) for label in view.labels}
    norms = view.apply_directions(
        [d.stream_id for d in directions],
        [d.coefficient / q for d in directions],
        lr_by_label,
    )
    model.clamp_parameters()
    if not cfg.train_quant_affine:
        model.rederive_quant_states()
    loss = float(np.mean([(d.loss_plus + d.loss_minus) / 2 for d in directions]))
    wall_ms = (time.perf_counter() - t0) * 1e3
    # the next step's first stream, written out: at the last step the next is out of range
    cursor = f"{cfg.seed}:{(step + 1) << _STEP_SHIFT}"
    return StepReport(step=step, loss=loss, update_norms=norms, wall_ms=wall_ms, rng_cursor=cursor)


def optimizer_state_size(cfg: ZoConfig) -> int:
    """Bytes of persistent optimizer state beyond the parameters themselves.

    Per direction: one coefficient and one stream id (8 bytes each), plus the
    base seed and the step counter. Independent of model and batch size by
    construction.
    """
    return 16 * cfg.directions + 16
