"""Two-point zeroth-order gradient estimation and the ZO-SGD step.

Perturbation directions are never stored: each direction i of step t is the
Gaussian stream (seed, (t << 32) | i), regenerated chunk-wise on demand. One
step therefore costs 2q forward evaluations plus one streamed update pass,
and the persistent optimizer state is q scalar coefficients plus stream
cursors, independent of the parameter count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

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

    Entries are (label, array) pairs in group order; the arrays are the live
    model arrays and are mutated in place. Flat index = concatenation order,
    which fixes the meaning of a perturbation stream position.

    Directions are regenerated one flat chunk at a time, with one
    `normals_at` call per chunk. Each segment is cut into pieces every
    `chunk_size` elements from its own start; a chunk is a run of consecutive
    pieces whose total stays within `chunk_size`, so it can span segments.
    The pieces, and the order in which update norms sum over them, are those
    of a walk segment by segment.

    The view caches the chunks drawn for the current step, keyed by (seed,
    stream_id, lo, hi). Drawing a stream of another step (another seed, or
    another stream_id >> 32) empties the cache first, and once it holds
    more than 2 * chunk_size floats the least recently used chunk is
    dropped, so it never holds more than two full chunks. A pass whose last
    chunk is the one used last walks the chunks backwards, so each pass
    starts on the chunks the previous one ended on. The +eps, -2eps, +eps
    passes and a q=1 update therefore draw each chunk once in a view of one
    or two chunks, and 4n - 6 chunks in an n-chunk view with n >= 3. When
    the q directions of a step fit in the cache together, as in the theory
    suite's small views, each is drawn once per step however often it is
    used.
    """

    def __init__(self, entries):
        self._segments = []  # (label, 1-D live view, start, stop)
        pos = 0
        self.labels = []  # the groups present, in GROUP_ORDER
        for label, arr in entries:
            if label not in GROUP_ORDER:
                raise DataError(f"unknown parameter group label {label!r}")
            if arr.dtype != np.float64 or not arr.flags["C_CONTIGUOUS"]:
                raise DataError(f"trainable array for {label!r} must be contiguous float64")
            flat = arr.reshape(-1)
            self._segments.append((label, flat, pos, pos + flat.shape[0]))
            pos += flat.shape[0]
            if not self.labels or self.labels[-1] != label:
                self.labels.append(label)
        order = [GROUP_ORDER.index(l) for l in self.labels]
        if order != sorted(order) or len(set(self.labels)) != len(self.labels):
            raise DataError(f"parameter groups out of order: {self.labels}")
        self.size = pos
        self._plans = {}  # chunk_size -> [(lo, hi, [(label, live piece, chunk slice)])]
        self._chunks = {}  # (seed, stream_id, lo, hi) -> drawn chunk, least recently used first
        self._chunks_step = None  # (seed, stream_id >> _STEP_SHIFT) of the cached chunks
        self._chunks_floats = 0

    def _walk(self, chunk_size: int):
        """The chunks in order, or backwards when the last one is the chunk used last."""
        plan = self._plans.get(chunk_size)
        if plan is None:
            plan, pieces, lo = [], [], 0
            for label, flat, a, b in self._segments:
                for s in range(0, b - a, chunk_size):
                    e = min(s + chunk_size, b - a)
                    if pieces and a + e - lo > chunk_size:
                        plan.append((lo, a + s, pieces))
                        pieces, lo = [], a + s
                    pieces.append((label, flat[s:e], slice(a + s - lo, a + e - lo)))
            if pieces:
                plan.append((lo, self.size, pieces))
            self._plans[chunk_size] = plan
        if len(plan) > 1 and self._chunks and next(reversed(self._chunks))[2:] == plan[-1][:2]:
            return plan[::-1]
        return plan

    def _direction(self, seed: int, stream_id: int, lo: int, hi: int, chunk_size: int) -> np.ndarray:
        """u[lo:hi] of the stream, drawn only when the cache does not hold it."""
        key = (seed, stream_id, lo, hi)
        chunks = self._chunks
        drawn = chunks.pop(key, None)
        if drawn is None:
            step = (seed, stream_id >> _STEP_SHIFT)
            if step != self._chunks_step:
                chunks.clear()
                self._chunks_step, self._chunks_floats = step, 0
            drawn = normals_at(seed, stream_id, lo, hi - lo)
            self._chunks_floats += hi - lo
            while self._chunks_floats > 2 * chunk_size:
                self._chunks_floats -= chunks.pop(next(iter(chunks))).shape[0]
        chunks[key] = drawn
        return drawn

    def direction(self, seed: int, stream_id: int, chunk_size: int) -> np.ndarray:
        """A copy of the whole flat u of the stream; cached chunks are not drawn again."""
        u = np.empty(self.size)
        for lo, hi, _ in self._walk(chunk_size):
            u[lo:hi] = self._direction(seed, stream_id, lo, hi, chunk_size)
        return u

    def add_direction(self, seed: int, stream_id: int, scale: float, chunk_size: int) -> None:
        """In place: params += scale * u, u regenerated chunk-wise from the stream."""
        for lo, hi, pieces in self._walk(chunk_size):
            u = self._direction(seed, stream_id, lo, hi, chunk_size)
            for _, live, sl in pieces:
                live += scale * u[sl]

    def apply_directions(
        self, seed: int, stream_ids, coefficients, lr_by_label, chunk_size: int
    ) -> dict[str, float]:
        """In place: params -= sum_i lr * c_i * u_i; returns per-group update norms.

        The chunks may be walked backwards, but each group's squared norm
        sums its pieces in forward order, so the norms do not depend on the
        walk.
        """
        terms = [(sid, c) for sid, c in zip(stream_ids, coefficients) if c != 0.0]
        piece_sq = {}  # chunk start -> (label, squared norm) of each of its pieces
        for lo, hi, pieces in self._walk(chunk_size):
            delta = np.zeros(hi - lo)
            for sid, c in terms:
                delta += c * self._direction(seed, sid, lo, hi, chunk_size)
            chunk_sq = []
            for label, live, sl in pieces:
                lr = lr_by_label[label]
                if lr == 0.0 and not terms:
                    continue
                piece = delta[sl]
                piece *= -lr
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


@dataclass(frozen=True)
class Direction:
    """One direction, the stream (cfg.seed, stream_id) of its ZoConfig, and its finite-difference coefficient."""

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
    materialized here.

    A non-finite loss raises NumericError after moving the parameters back,
    which restores them only up to rounding; an exact restore would need a
    copy of the trainable parameters. No caller needs one: train exits 3 and
    discards the model, measured_peaks steps a copy, the theory suite never
    sees a non-finite loss, and the one caller that trains on, perfbench's
    ZO rep, counts the step as failed.
    """
    eps = cfg.epsilon
    out = []
    for i in range(cfg.directions):
        sid = direction_stream_id(step, i)
        params.add_direction(cfg.seed, sid, +eps, cfg.chunk_size)
        loss_plus = float(loss_fn())
        if not math.isfinite(loss_plus):
            params.add_direction(cfg.seed, sid, -eps, cfg.chunk_size)
            raise NumericError(f"non-finite loss at +eps, step {step} direction {i}")
        params.add_direction(cfg.seed, sid, -2 * eps, cfg.chunk_size)
        loss_minus = float(loss_fn())
        if not math.isfinite(loss_minus):
            params.add_direction(cfg.seed, sid, +eps, cfg.chunk_size)
            raise NumericError(f"non-finite loss at -eps, step {step} direction {i}")
        params.add_direction(cfg.seed, sid, +eps, cfg.chunk_size)
        out.append(
            Direction(sid, (loss_plus - loss_minus) / (2 * eps), loss_plus, loss_minus)
        )
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
        cfg.seed,
        [d.stream_id for d in directions],
        [d.coefficient / q for d in directions],
        lr_by_label,
        cfg.chunk_size,
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
