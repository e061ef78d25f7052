import numpy as np
import pytest

import zoqlab.zo
from zoqlab.errors import DataError
from zoqlab.model import ModelConfig, QuantPlan, build_model
from zoqlab.numerics import normals_at
from zoqlab.zo import (
    ParamView,
    ZoConfig,
    direction_stream_id,
    optimizer_state_size,
    zo_gradient_scale,
)

SEED = 17
EPS = 1e-3
LRS = {"weights": 0.1, "smoothing": 0.0, "clipping": 0.05, "quant_affine": 0.2}


def entries(seed=0):
    """Segments of several sizes in every group; 74 scalars in all."""
    rng = np.random.default_rng(seed)
    return [
        ("weights", rng.normal(size=(7, 5))),
        ("weights", rng.normal(size=11)),
        ("weights", rng.normal(size=1)),
        ("smoothing", rng.normal(size=(3, 4))),
        ("clipping", rng.normal(size=9)),
        ("quant_affine", rng.normal(size=6)),
    ]


VIEW_SIZE = 74


def dense_add(arrays, stream_id, scale):
    """params += scale * u with u drawn over the whole flat view in one call."""
    u = normals_at(SEED, stream_id, 0, VIEW_SIZE)
    pos = 0
    for _, arr in arrays:
        flat = arr.reshape(-1)
        flat += scale * u[pos : pos + flat.size]
        pos += flat.size


def dense_apply(arrays, stream_ids, coefficients, chunk_size):
    """params -= lr * sum_i c_i u_i over the whole view; norms summed over pieces.

    A piece is `chunk_size` elements of one array, cut from the array's start;
    each group's squared norm adds the pieces' dot products in flat order.
    """
    delta = np.zeros(VIEW_SIZE)
    for sid, c in zip(stream_ids, coefficients):
        delta += c * normals_at(SEED, sid, 0, VIEW_SIZE)
    sq = {label: 0.0 for label in LRS}
    pos = 0
    for label, arr in arrays:
        flat = arr.reshape(-1)
        step = delta[pos : pos + flat.size] * -LRS[label]
        flat += step
        for lo in range(0, flat.size, chunk_size):
            piece = step[lo : lo + chunk_size]
            sq[label] += float(piece @ piece)
        pos += flat.size
    return {label: float(np.sqrt(v)) for label, v in sq.items()}


def assert_same(view_arrays, dense_arrays):
    for (label, a), (_, b) in zip(view_arrays, dense_arrays):
        assert a.tobytes() == b.tobytes(), label


class TestWholeViewEquivalence:
    """Chunked regeneration equals drawing each direction over the whole view at once."""

    @pytest.mark.parametrize("chunk_size", [1, 3, 1000, VIEW_SIZE, 10, 36, 40])
    @pytest.mark.parametrize("q", [1, 3])
    def test_step_matches_dense_reference(self, chunk_size, q):
        mine, ref = entries(), entries()
        view = ParamView(mine)
        sids = [direction_stream_id(5, i) for i in range(q)]
        for sid in sids:
            for scale in (+EPS, -2 * EPS, +EPS):
                view.add_direction(SEED, sid, scale, chunk_size)
                dense_add(ref, sid, scale)
                assert_same(mine, ref)
        coefficients = [0.7, -1.3, 2.1][:q]
        norms = view.apply_directions(SEED, sids, coefficients, LRS, chunk_size)
        ref_norms = dense_apply(ref, sids, coefficients, chunk_size)
        assert_same(mine, ref)
        assert norms == ref_norms
        assert norms["smoothing"] == 0.0 and norms["weights"] > 0.0

    def test_one_chunk_view_draws_each_direction_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return normals_at(*args)

        monkeypatch.setattr(zoqlab.zo, "normals_at", counting)
        view = ParamView(entries())
        cfg = ZoConfig(directions=1, seed=SEED, chunk_size=VIEW_SIZE)
        (d,) = zo_gradient_scale(lambda: 0.5, view, cfg, step=3)
        view.apply_directions(SEED, [d.stream_id], [0.25], LRS, cfg.chunk_size)
        assert calls == [(SEED, d.stream_id, 0, VIEW_SIZE)]

    def test_two_chunk_view_reuses_the_chunk_drawn_last(self, monkeypatch):
        """Passes alternate direction, so each starts on the two chunks the last one ended on."""
        calls = []

        def counting(*args):
            calls.append(args)
            return normals_at(*args)

        monkeypatch.setattr(zoqlab.zo, "normals_at", counting)
        view = ParamView(entries())
        cfg = ZoConfig(directions=1, seed=SEED, chunk_size=40)
        (d,) = zo_gradient_scale(lambda: 0.5, view, cfg, step=3)
        view.apply_directions(SEED, [d.stream_id], [0.25], LRS, cfg.chunk_size)
        # chunks (0, 35) and (35, 74): the first pass draws both, the view keeps both
        assert [(pos, n) for _, _, pos, n in calls] == [(0, 35), (35, 39)]

    def test_three_chunk_view_draws_six_chunks_per_step(self, monkeypatch):
        """4n - 6 draws for n = 3: each later pass starts on the two chunks kept."""
        calls = []

        def counting(*args):
            calls.append(args)
            return normals_at(*args)

        monkeypatch.setattr(zoqlab.zo, "normals_at", counting)
        view = ParamView(entries())
        cfg = ZoConfig(directions=1, seed=SEED, chunk_size=30)
        (d,) = zo_gradient_scale(lambda: 0.5, view, cfg, step=3)
        view.apply_directions(SEED, [d.stream_id], [0.25], LRS, cfg.chunk_size)
        # chunks (0, 30), (30, 59) and (59, 74)
        want = [(0, 30), (30, 29), (59, 15), (0, 30), (59, 15), (0, 30)]
        assert [(pos, n) for _, _, pos, n in calls] == want

    @pytest.mark.parametrize("chunk_size, redrawn", [(VIEW_SIZE, 0), (40, 0), (1, VIEW_SIZE - 2)])
    def test_direction_is_the_whole_view_draw_without_the_last_chunk_again(
        self, monkeypatch, chunk_size, redrawn
    ):
        calls = []

        def counting(*args):
            calls.append(args)
            return normals_at(*args)

        monkeypatch.setattr(zoqlab.zo, "normals_at", counting)
        view = ParamView(entries())
        cfg = ZoConfig(directions=1, seed=SEED, chunk_size=chunk_size)
        (d,) = zo_gradient_scale(lambda: 0.5, view, cfg, step=3)
        drawn = len(calls)
        u = view.direction(SEED, d.stream_id, chunk_size)
        assert len(calls) - drawn == redrawn
        whole = normals_at(SEED, d.stream_id, 0, VIEW_SIZE)
        assert u.tobytes() == whole.tobytes()
        u[:] = 0.0  # a copy: the cached chunk is untouched
        assert view.direction(SEED, d.stream_id, chunk_size).tobytes() == whole.tobytes()

    def test_chunks_pack_pieces_across_segments(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return normals_at(*args)

        monkeypatch.setattr(zoqlab.zo, "normals_at", counting)
        ParamView(entries()).add_direction(SEED, 1, EPS, 40)
        # segments of 35, 11, 1, 12, 9 and 6 packed into chunks of at most 40
        assert [(pos, n) for _, _, pos, n in calls] == [(0, 35), (35, 39)]


class TestRoundTripDrift:
    def test_drift_after_k_directions_is_bounded(self):
        """+eps u, -2 eps u, +eps u sum to exactly zero, so only the three additions round.

        After K estimate-only directions each parameter has moved by at most
        3K half-ulps of |theta| + 2 eps |u|, with |u| the largest of the K draws.
        """
        rng = np.random.default_rng(3)
        theta = rng.normal(size=2000) * np.logspace(-4, 1, 2000)
        theta0 = theta.copy()
        view = ParamView([("weights", theta)])
        k = 50
        cfg = ZoConfig(epsilon=EPS, directions=1, steps=k, seed=SEED)
        u_max = np.zeros_like(theta)
        for step in range(k):
            (d,) = zo_gradient_scale(lambda: 0.0, view, cfg, step)
            u_max = np.maximum(u_max, np.abs(normals_at(SEED, d.stream_id, 0, theta.size)))
        half_ulps = np.spacing(np.abs(theta0) + 2 * EPS * u_max) / 2
        assert np.all(np.abs(theta - theta0) <= 3 * k * half_ulps)


class TestOptimizerState:
    def test_size_does_not_depend_on_model(self):
        cfg = ZoConfig(directions=3)
        tiny = build_model(ModelConfig(d_model=16, n_layers=1, n_heads=2, context=32), QuantPlan(4, 4))
        default = build_model(ModelConfig(), QuantPlan(4, 4))
        assert {optimizer_state_size(cfg, m) for m in (None, tiny, default)} == {16 * 3 + 16}


class TestLrSchedule:
    def test_linear_decay_endpoints(self):
        cfg = ZoConfig(steps=10, lr_weights=2e-3, lr_schedule="linear_decay")
        assert cfg.lr_for("weights", 0) == 2e-3
        assert cfg.lr_for("weights", 5) == pytest.approx(1e-3)
        assert cfg.lr_for("weights", 10) == 0.0
        assert cfg.lr_for("weights", 15) == 0.0

    def test_constant(self):
        cfg = ZoConfig(steps=10, lr_clipping=3e-5, lr_schedule="constant")
        assert [cfg.lr_for("clipping", s) for s in (0, 5, 10, 20)] == [3e-5] * 4


class TestValidation:
    @pytest.mark.parametrize(
        "labels", [("smoothing", "weights"), ("weights", "clipping", "weights"), ("bias",)]
    )
    def test_view_rejects_unknown_or_unordered_groups(self, labels):
        with pytest.raises(DataError):
            ParamView([(label, np.zeros(3)) for label in labels])

    @pytest.mark.parametrize(
        "arr", [np.zeros((4, 4))[:, ::2], np.zeros((4, 4)).T, np.zeros(4, dtype=np.float32)]
    )
    def test_view_rejects_non_contiguous_or_non_float64(self, arr):
        with pytest.raises(DataError, match="contiguous float64"):
            ParamView([("weights", arr)])

    @pytest.mark.parametrize("i", [-1, 1 << 32])
    def test_direction_index_out_of_range(self, i):
        with pytest.raises(DataError, match="out of range"):
            direction_stream_id(3, i)

    def test_stream_id_layout(self):
        assert direction_stream_id(3, (1 << 32) - 1) == (3 << 32) | 0xFFFFFFFF

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_config_rejects_empty_chunks(self, chunk_size):
        with pytest.raises(DataError, match="chunk_size"):
            ZoConfig(chunk_size=chunk_size)
