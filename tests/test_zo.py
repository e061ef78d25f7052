import sys
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zoqlab.zo
from zoqlab import cli
from zoqlab.errors import DataError, NumericError
from zoqlab.model import ModelConfig, QuantPlan, build_model, set_lightweight
from zoqlab.numerics import normals_at
from zoqlab.quantizer import init_range
from zoqlab.smoothing import smooth_weight
from zoqlab.theory import SmoothedObjective
from zoqlab.zo import (
    GROUP_ORDER,
    ParamView,
    ZoConfig,
    direction_stream_id,
    optimizer_state_size,
    zo_gradient_scale,
    zo_step,
)

SEED = 17
TINY = ModelConfig(d_model=16, n_layers=1, n_heads=2, context=32)
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

    A piece is one array's part of one window [k * chunk_size, (k + 1) *
    chunk_size) of the view; each group's squared norm adds the pieces' dot
    products in flat order.
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
        for lo in range(-(pos % chunk_size), flat.size, chunk_size):  # window starts, from the array's start
            piece = step[max(lo, 0) : lo + chunk_size]
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
        view.begin_step(SEED, sids, chunk_size)
        for sid in sids:
            for scale in (+EPS, -2 * EPS, +EPS):
                view.add_direction(sid, scale)
                dense_add(ref, sid, scale)
                assert_same(mine, ref)
        coefficients = [0.7, -1.3, 2.1][:q]
        norms = view.apply_directions(sids, coefficients, LRS)
        ref_norms = dense_apply(ref, sids, coefficients, chunk_size)
        assert_same(mine, ref)
        assert norms == ref_norms
        assert norms["smoothing"] == 0.0 and norms["weights"] > 0.0

    @pytest.mark.parametrize("chunk_size", [1, VIEW_SIZE, 30])
    def test_an_update_with_every_coefficient_zero_moves_nothing_and_draws_nothing(self, monkeypatch, chunk_size):
        mine, ref = entries(), entries()
        view = ParamView(mine)
        sids = [direction_stream_id(5, i) for i in range(3)]
        view.begin_step(SEED, sids, chunk_size)
        calls = []

        def counting(*args):
            calls.append(args)
            return normals_at(*args)

        monkeypatch.setattr(zoqlab.zo, "normals_at", counting)
        norms = view.apply_directions(sids, [0.0, -0.0, 0.0], LRS)
        ref_norms = dense_apply(ref, sids, [0.0, -0.0, 0.0], chunk_size)
        assert_same(mine, ref)
        assert_same(mine, entries())
        assert norms == ref_norms == dict.fromkeys(LRS, 0.0)
        assert calls == []

    def test_one_chunk_view_draws_each_direction_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return normals_at(*args)

        monkeypatch.setattr(zoqlab.zo, "normals_at", counting)
        view = ParamView(entries())
        cfg = ZoConfig(directions=1, seed=SEED, chunk_size=VIEW_SIZE)
        (d,) = zo_gradient_scale(lambda: 0.5, view, cfg, step=3)
        view.apply_directions([d.stream_id], [0.25], LRS)
        assert calls == [(SEED, d.stream_id, 0, VIEW_SIZE)]

    @pytest.mark.parametrize("chunk_size, batched", [(VIEW_SIZE * 3 // 2, True), (VIEW_SIZE, False)])
    def test_a_step_whose_streams_fit_the_cache_draws_them_in_one_call(self, monkeypatch, chunk_size, batched):
        """3 streams of 74 scalars fit within 2 * 111 floats, not within 2 * 74; the bytes do not depend on it."""
        cfg = ZoConfig(directions=3, seed=SEED, chunk_size=chunk_size)

        def step(arrays, view):
            def loss():
                return float(sum(np.sum(a * a) for _, a in arrays))

            directions = zo_gradient_scale(loss, view, cfg, step=3)
            view.apply_directions([d.stream_id for d in directions], [0.25] * 3, LRS)
            return directions

        ref = entries()
        on_demand = ParamView(ref)
        # opened on one stream, the step draws nothing up front
        monkeypatch.setattr(
            on_demand, "begin_step", lambda seed, sids, size: ParamView.begin_step(on_demand, seed, sids[:1], size)
        )
        want = step(ref, on_demand)
        calls = []

        def counting(*args):
            calls.append(args)
            return normals_at(*args)

        monkeypatch.setattr(zoqlab.zo, "normals_at", counting)
        mine = entries()
        assert step(mine, ParamView(mine)) == want
        assert_same(mine, ref)
        sids = [direction_stream_id(3, i) for i in range(3)]
        if batched:  # the estimate and the update draw nothing more
            assert [(list(ids), pos, n) for _, ids, pos, n in calls] == [(sids, 0, VIEW_SIZE)]
        else:  # on demand, one stream per call; the update draws again what the cache dropped
            assert [(sid, pos, n) for _, sid, pos, n in calls[:3]] == [(sid, 0, VIEW_SIZE) for sid in sids]

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
        view.apply_directions([d.stream_id], [0.25], LRS)
        # windows (0, 40) and (40, 74): the first pass draws both, the view keeps both
        assert [(pos, n) for _, _, pos, n in calls] == [(0, 40), (40, 34)]

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
        view.apply_directions([d.stream_id], [0.25], LRS)
        # windows (0, 30), (30, 60) and (60, 74)
        want = [(0, 30), (30, 30), (60, 14), (0, 30), (60, 14), (0, 30)]
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
        u = view.direction(d.stream_id)
        assert len(calls) - drawn == redrawn
        whole = normals_at(SEED, d.stream_id, 0, VIEW_SIZE)
        assert u.tobytes() == whole.tobytes()
        u[:] = 0.0  # a copy: the cached chunk is untouched
        assert view.direction(d.stream_id).tobytes() == whole.tobytes()

    def test_cache_holds_only_the_chunks_of_the_current_step(self):
        """Room for hundreds of one-chunk directions; a new step or seed still empties it.

        The keys hold no seed, so the cached bytes are checked against each
        stream's draw under the step's seed.
        """
        view = ParamView(entries())

        def held():
            return sorted((sid, lo, u.tobytes()) for (sid, lo), u in view._chunks.items())

        def drawn(seed, sids):
            return sorted((sid, 0, normals_at(seed, sid, 0, VIEW_SIZE).tobytes()) for sid in sids)

        zo_gradient_scale(lambda: 0.5, view, ZoConfig(directions=3, seed=SEED), step=3)
        assert held() == drawn(SEED, [direction_stream_id(3, i) for i in range(3)])
        zo_gradient_scale(lambda: 0.5, view, ZoConfig(directions=1, seed=SEED), step=4)
        assert held() == drawn(SEED, [direction_stream_id(4, 0)])
        zo_gradient_scale(lambda: 0.5, view, ZoConfig(directions=1, seed=SEED + 1), step=4)
        assert held() == drawn(SEED + 1, [direction_stream_id(4, 0)])
        assert held() != drawn(SEED, [direction_stream_id(4, 0)])

    @pytest.mark.parametrize("q", [1, 3])
    def test_a_step_under_a_new_seed_is_the_step_of_a_fresh_view(self, q):
        """The same step under SEED then SEED + 1 on one view: the second is byte for byte a fresh view's."""

        def step(arrays, view, seed):
            def loss():
                return float(sum(np.sum(a * a) for _, a in arrays))

            cfg = ZoConfig(directions=q, seed=seed, chunk_size=40)
            directions = zo_gradient_scale(loss, view, cfg, step=4)
            norms = view.apply_directions([d.stream_id for d in directions], [0.25] * q, LRS)
            return directions, norms

        ref = entries()
        want = step(ref, ParamView(ref), SEED + 1)
        mine = entries()
        view = ParamView(mine)
        step(mine, view, SEED)
        for (_, a), (_, b) in zip(mine, entries()):
            np.copyto(a, b)  # back to the start, in place: the view holds the live arrays
        assert step(mine, view, SEED + 1) == want
        assert_same(mine, ref)

    @pytest.mark.parametrize("chunk_size, n_chunks", [(VIEW_SIZE, 1), (40, 2), (30, 3)])
    @pytest.mark.parametrize("q", [1, 4])
    def test_cache_never_holds_more_than_two_chunk_sizes(self, monkeypatch, chunk_size, n_chunks, q):
        held = []
        direction = ParamView._direction

        def measuring(view, *args):
            out = direction(view, *args)
            held.append(sum(u.shape[0] for u in view._chunks.values()))
            assert view._chunks_floats == held[-1]
            return out

        monkeypatch.setattr(ParamView, "_direction", measuring)
        view = ParamView(entries())
        view.begin_step(SEED, [], chunk_size)
        assert len(view._walk()) == n_chunks
        cfg = ZoConfig(directions=q, seed=SEED, chunk_size=chunk_size)
        for step in (3, 4):
            directions = zo_gradient_scale(lambda: 0.5, view, cfg, step=step)
            sids = [d.stream_id for d in directions]
            view.apply_directions(sids, [0.25] * q, LRS)
            for sid in sids:
                view.direction(sid)
        assert held and max(held) <= 2 * chunk_size

    @pytest.mark.parametrize("chunk_size", [VIEW_SIZE * 3 // 2, 30])
    @pytest.mark.parametrize("q", [1, 3])
    def test_a_view_groups_its_entries_in_group_order(self, chunk_size, q):
        """Entries out of group order make the view of the same entries in order: same step bytes, same norms."""
        cfg = ZoConfig(directions=q, seed=SEED, chunk_size=chunk_size)

        def step(arrays, view):
            def loss():
                return float(sum(np.sum(a * a) for _, a in arrays))

            directions = zo_gradient_scale(loss, view, cfg, step=3)
            norms = view.apply_directions([d.stream_id for d in directions], [0.25] * q, LRS)
            return view.labels, directions, norms

        ref = entries()
        want = step(ref, ParamView(ref))
        mine = entries()
        shuffled = [mine[i] for i in (5, 0, 3, 1, 4, 2)]  # groups interleaved, weights still in their order
        assert step(mine, ParamView(shuffled)) == want
        assert_same(mine, ref)

    @pytest.mark.parametrize("chunk_size", [1, 7, 30, 40, VIEW_SIZE, 1000])
    def test_window_k_holds_view_positions_k_c_to_k_plus_1_c(self, chunk_size):
        """Window k's pieces are each segment's part of [k * C, (k + 1) * C), in flat order."""
        arrays, spans, pos = entries(), [], 0
        for label, arr in arrays:  # each scalar holds its view position
            arr.reshape(-1)[:] = np.arange(pos, pos + arr.size)
            spans.append((label, pos, pos + arr.size))
            pos += arr.size
        view = ParamView(arrays)
        view.begin_step(SEED, [], chunk_size)
        plan = view._walk()
        starts = range(0, VIEW_SIZE, chunk_size)
        assert [(lo, hi) for lo, hi, _ in plan] == [(lo, min(lo + chunk_size, VIEW_SIZE)) for lo in starts]
        for lo, hi, pieces in plan:
            parts = [(label, max(a, lo), min(b, hi)) for label, a, b in spans if a < hi and b > lo]
            assert [(label, sl.start + lo, sl.stop + lo) for label, _, sl in pieces] == parts
            assert [live.tolist() for _, live, _ in pieces] == [list(range(a, b)) for _, a, b in parts]


@given(
    segments=st.lists(st.tuples(st.sampled_from(GROUP_ORDER), st.integers(1, 40)), min_size=1, max_size=8),
    chunk_size=st.integers(1, 120),
)
@settings(max_examples=200, deadline=None)
def test_a_q1_step_draws_a_one_window_view_once_and_4n_minus_6_windows_of_n(segments, chunk_size):
    """+eps, -2eps, +eps and the update: the first pass draws every window, each later pass all but two."""
    calls = []

    def counting(*args):
        calls.append(args)
        return normals_at(*args)

    view = ParamView([(label, np.zeros(n)) for label, n in segments])
    n = -(-view.size // chunk_size)
    cfg = ZoConfig(directions=1, seed=SEED, chunk_size=chunk_size)
    with mock.patch.object(zoqlab.zo, "normals_at", counting):
        (d,) = zo_gradient_scale(lambda: 0.5, view, cfg, step=3)
        view.apply_directions([d.stream_id], [0.25], LRS)
    assert len(calls) == (1 if n == 1 else 4 * n - 6)
    assert all(pos % chunk_size == 0 and k == min(chunk_size, view.size - pos) for _, _, pos, k in calls)


@pytest.mark.parametrize(
    "config, plan, lightweight, windows, draws, values",
    [
        (ModelConfig(), QuantPlan(4, 4), False, 2, 2, 115_200),
        (ModelConfig(), QuantPlan(4, None, group_size=16), True, 1, 1, 16_384),
        (ModelConfig(d_model=256), QuantPlan(4, 4), False, 26, 98, 6_295_552),
    ],
    ids=["d64-W4A4", "d64-light-W4A16g16", "d256-W4A4"],
)
def test_a_default_zo_step_draws_its_view_windows(monkeypatch, config, plan, lightweight, windows, draws, values):
    """normals_at calls and values drawn by one q = 1 zo_step at the default chunk size."""
    model = build_model(config, plan, seed=0)
    if lightweight:
        set_lightweight(model)
    cfg = ZoConfig(steps=10)
    view = model.trainable_parameters()
    view.begin_step(cfg.seed, [], cfg.chunk_size)
    assert len(view._walk()) == windows
    calls = []

    def counting(*args):
        calls.append(args)
        return normals_at(*args)

    monkeypatch.setattr(zoqlab.zo, "normals_at", counting)
    zo_step(model, np.random.default_rng(0).integers(0, 128, size=(1, 8)), cfg, 0)
    assert (len(calls), sum(k for _, _, _, k in calls)) == (draws, values)


def test_directions_across_steps_have_zero_mean_and_identity_covariance():
    """The draws the production view hands out over many steps are N(0, I) within Z SE.

    A three-window view over two groups, so the window cache and the
    alternating walk are in the path. With the theory suite's
    zo_matches_two_point_formula row, which pins the production coefficient
    to the two-point formula on these draws, this is what ties the
    zo_unbiasedness rows to zo_step.
    """
    view = ParamView([("weights", np.zeros((2, 2))), ("clipping", np.zeros(2))])
    steps, d = 8000, view.size
    u = []
    for t in range(steps):
        view.begin_step(SEED, [direction_stream_id(t, 0)], 2)
        u.append(view.direction(direction_stream_id(t, 0)))
    u = np.stack(u)
    products = (u[:, :, None] * u[:, None, :]).reshape(steps, -1)
    deviations = np.concatenate([u, products - np.eye(d).reshape(1, -1)], axis=1)
    upper = np.concatenate([np.ones(d, bool), np.triu(np.ones((d, d), bool)).reshape(-1)])
    deviations = deviations[:, upper]  # each mean and each distinct covariance entry once
    # Sidak: the family-wise false-alarm rate 0.01 spread over every entry
    rate = 1.0 - 0.99 ** (1.0 / deviations.shape[1])
    z = NormalDist().inv_cdf(1.0 - rate / 2)
    mean = deviations.mean(axis=0)
    se = deviations.std(axis=0, ddof=1) / np.sqrt(steps)
    assert np.all(np.abs(mean) <= z * se), np.abs(mean) / se


def python_calls(run) -> int:
    """Python-level calls ("call" events of sys.setprofile) that run() makes."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_a_default_w4a4_zo_step_makes_at_most_1165_python_calls():
    """Python-level calls of one zo_step at batch 4.

    Two forwards and the update; the per-layer checks run as direct ufunc
    calls, which make no Python-level call, and the view groups its entries
    without a sort key call per tensor. Every activation block skips the
    clamp and its np.errstate, the softmax reduces its rows without x.max
    and x.sum, and the layer norm takes its means by np.add.reduce, not
    ndarray.mean. 1,120 calls measured; with the layer norm's ndarray.mean
    1,154, with the errstate on every block and the softmax's two wrappers
    1,294, with the key sort 1,400, and through numpy's Python wrappers
    (np.any, np.clip, ...) 3,629.
    """
    model = build_model(ModelConfig(), QuantPlan(4, 4), seed=0)
    batch = np.random.default_rng(0).integers(0, 128, size=(4, 128))
    cfg = ZoConfig(steps=10)
    zo_step(model, batch, cfg, 0)  # warm-up: first-call caches
    calls = python_calls(lambda: zo_step(model, batch, cfg, 1))
    assert calls <= 1165, calls


def test_a_q16_estimate_on_a_4_scalar_view_makes_at_most_22_python_calls_per_direction():
    """Python-level calls of one zo_gradient_scale as the theory suite's MSE rows make it.

    The step's 16 streams are drawn in one normals_at call; the ±eps passes,
    the two losses and the Direction take the rest. 343 calls measured; with
    one draw per stream they were 370.
    """
    obj = SmoothedObjective("linear", dim=4, epsilon=1e-2)
    theta = np.linspace(0.05, 0.35, 4)
    view = ParamView([("weights", theta)])
    cfg = ZoConfig(epsilon=1e-2, directions=16, seed=SEED, lr_weights=0.0)
    zo_gradient_scale(lambda: obj.loss(theta), view, cfg, 0)  # warm-up: first-call caches
    calls = python_calls(lambda: zo_gradient_scale(lambda: obj.loss(theta), view, cfg, 1))
    assert calls <= 22 * cfg.directions, calls


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

    @pytest.mark.parametrize("failing_call", [0, 1], ids=["+eps", "-eps"])
    def test_a_non_finite_loss_restores_the_parameters_up_to_rounding(self, failing_call):
        """On the tiny W4A4 model's view: a NaN loss at +eps or -eps raises NumericError.

        The restore adds the opposite moves, so as in a completed direction
        only the additions round: 2 at +eps, 3 at -eps, each within half an
        ulp of |theta| + 2 eps |u|. It is not bit for bit: 240 of the 6,224
        parameters differ in their last bits after a +eps failure, 2,655
        after a -eps one. Bit identity would need a copy of the trainable
        parameters, which the estimator exists to avoid.
        """
        view = build_model(TINY, QuantPlan(4, 4), 0).trainable_parameters()
        theta0 = np.concatenate([flat for _, flat, *_ in view._segments])
        cfg = ZoConfig(epsilon=EPS, directions=1, steps=1, seed=SEED)
        losses = iter([1.0][:failing_call] + [float("nan")])
        with pytest.raises(NumericError, match=["[+]eps", "-eps"][failing_call]):
            zo_gradient_scale(lambda: next(losses), view, cfg, 0)
        u = np.abs(view.direction(direction_stream_id(0, 0)))
        theta = np.concatenate([flat for _, flat, *_ in view._segments])
        half_ulps = np.spacing(np.abs(theta0) + 2 * EPS * u) / 2
        assert np.all(np.abs(theta - theta0) <= (2 + failing_call) * half_ulps)


class TestOptimizerState:
    def test_size_does_not_depend_on_model(self):
        assert optimizer_state_size(ZoConfig(directions=3)) == 16 * 3 + 16


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


def test_a_step_without_quant_affine_re_derives_each_step_and_zero_point_from_the_moved_weights():
    """train_quant_affine = False: the view leaves quant_affine out, and zo_step range-inits it again."""
    model = build_model(TINY, QuantPlan(4, 4), 0)
    view = model.trainable_parameters(include_quant_affine=False)
    assert (view.size, model.trainable_parameters().size) == (5_936, 6_224)
    assert view.labels == ["weights", "smoothing", "clipping"]
    before = {name: (lin.w.copy(), lin.att.weight_state.clip_lo.copy()) for name, lin in model.iter_attachments()}
    cfg = ZoConfig(steps=3, seed=0, lr_weights=1e-2, lr_clipping=1e-1, train_quant_affine=False)
    rng = np.random.default_rng(0)
    for step in range(3):
        zo_step(model, rng.integers(0, 128, size=(4, TINY.context)), cfg, step)
    for name, lin in model.iter_attachments():
        w0, clip_lo0 = before[name]
        state = lin.att.weight_state
        fresh = init_range(smooth_weight(lin.w, lin.att.smoothing), lin.att.weight_spec)
        assert state.step.tobytes() == fresh.step.tobytes(), name
        assert state.zero_point.tobytes() == fresh.zero_point.tobytes(), name
        assert not np.array_equal(lin.w, w0) and not np.array_equal(state.clip_lo, clip_lo0), name


class TestValidation:
    def test_view_rejects_an_unknown_group(self):
        with pytest.raises(DataError, match="unknown parameter group label 'bias'"):
            ParamView([("weights", np.zeros(3)), ("bias", np.zeros(3))])

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

    @pytest.mark.parametrize("step", [-1, 1 << 30])
    def test_step_out_of_range(self, step):
        with pytest.raises(DataError, match="out of range"):
            direction_stream_id(step, 0)

    def test_the_last_step_stays_below_the_cli_stream_namespaces(self):
        assert direction_stream_id((1 << 30) - 1, (1 << 32) - 1) == (1 << 62) - 1 < cli._SPLIT_STREAM
        model = build_model(TINY, QuantPlan(4, 4), 0)
        batch = np.arange(64).reshape(2, 32) % 128
        report = zo_step(model, batch, ZoConfig(steps=1, seed=SEED), (1 << 30) - 1)
        assert report.rng_cursor == f"{SEED}:{1 << 62}"
        held = [getattr(owner, attr).tobytes() for _, _, owner, attr in model.tensors()]
        with pytest.raises(DataError, match="out of range"):
            zo_step(model, batch, ZoConfig(steps=1, seed=SEED), 1 << 30)
        assert [getattr(owner, attr).tobytes() for _, _, owner, attr in model.tensors()] == held
