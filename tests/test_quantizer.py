import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zoqlab.errors import DataError, DimensionError, InvalidStateError
from zoqlab.quantizer import (
    QuantSpec,
    QuantState,
    _nearest_index,
    fake_quant,
    init_range,
    quant_codes,
    quant_error,
    tighten_state,
)

from oracles import nearest_code, nearest_code_dequant, nearest_index_by_fractions, scalar_range_init


def spec_pt(bits, scheme, role="weight"):
    """A single-group spec: a weight spec takes one column, an activation spec one row."""
    return QuantSpec(bits, scheme, role)


def column(values):
    """values as the one column of a (n, 1) weight: one group under a weight spec."""
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


def near_half(step, k):
    """x = step * (k + 1/2) in float and its two float neighbours: quotients that round onto a half."""
    x = step * (k + 0.5)
    return np.array([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])


def half_count(g, step):
    """How many quotients g / step round onto a half, the elements _nearest_index settles exactly."""
    frac = g / step
    return int(np.count_nonzero(np.abs(frac - np.rint(frac)) == 0.5))


def exact_tie_count(g, step):
    """How many x in g lie exactly on a midpoint step * (k + 1/2), checked in Fractions."""
    return sum(
        Fraction(x) == Fraction(s) * Fraction(x / s) for x, s in np.broadcast(g, step) if x / s % 1 == 0.5
    )


# Steps from the smallest subnormal to ~2**1000, and midpoint indices k: the
# halves +-1/2 of k in {-1, 0}, small |k|, and |k| up to 2**40.
SUBNORMAL_STEPS = st.builds(math.ldexp, st.integers(1, 2**52 - 1), st.just(-1074))
NORMAL_STEPS = st.builds(math.ldexp, st.integers(2**52, 2**53 - 1), st.integers(-1074, 947))
HALF_KS = st.one_of(st.sampled_from([-1, 0]), st.integers(-8, 8), st.integers(-(2**40), 2**40))


class TestQuantSpec:
    def test_code_ranges(self):
        asym = spec_pt(2, "asymmetric")
        assert (asym.q_n, asym.q_p) == (0, 3)
        sym = spec_pt(3, "symmetric")
        assert (sym.q_n, sym.q_p) == (-4, 3)

    def test_activation_rejects_per_group(self):
        with pytest.raises(DataError, match="activation quantizers take no group_size"):
            QuantSpec(4, "asymmetric", "activation", group_size=2)

    @pytest.mark.parametrize("group_size", [0, -4])
    def test_group_size_below_one_rejected(self, group_size):
        with pytest.raises(DataError, match="group_size must be >= 1"):
            QuantSpec(4, "asymmetric", "weight", group_size=group_size)

    def test_bit_floor(self):
        with pytest.raises(DataError):
            spec_pt(1, "asymmetric")


class TestTiling:
    @pytest.mark.parametrize("shape", [(6,), (2, 3, 4)])
    def test_weight_that_is_not_2d_rejected(self, shape):
        spec = QuantSpec(4, "asymmetric", "weight")
        with pytest.raises(DimensionError, match="2-D"):
            init_range(np.ones(shape), spec)
        with pytest.raises(DimensionError, match="2-D"):
            fake_quant(np.ones(shape), spec)

    def test_group_size_that_does_not_divide_d_in_rejected(self):
        spec = QuantSpec(4, "asymmetric", "weight", group_size=4)
        w = np.ones((6, 3))
        with pytest.raises(DimensionError, match="does not divide"):
            init_range(w, spec)
        state = init_range(w[:4], spec)
        with pytest.raises(DimensionError, match="does not divide"):
            fake_quant(w, spec, state)


class TestInitRange:
    def test_asymmetric_two_bit_example(self):
        x = np.array([-1.0, 0.5, 2.0])
        spec = spec_pt(2, "asymmetric")
        state = init_range(column(x), spec)
        step, zero, _, _ = scalar_range_init(x, 2, "asymmetric")
        assert state.step[0] == step == 1.0
        assert state.zero_point[0] == zero == 1.0

    def test_symmetric_three_bit_example(self):
        state = init_range(column([-2.0, 1.0]), spec_pt(3, "symmetric"))
        step, zero, _, _ = scalar_range_init([-2.0, 1.0], 3, "symmetric")
        assert state.step[0] == pytest.approx(step) == pytest.approx(2 / 3)
        assert state.zero_point[0] == 0.0

    def test_all_zeros_round_trips_exactly(self):
        x = np.zeros((5, 1))
        spec = spec_pt(2, "asymmetric")
        state = init_range(x, spec)
        assert state.step[0] == 1.0
        assert state.zero_point[0] == 0.0
        assert np.array_equal(fake_quant(x, spec, state), x)

    def test_clipping_starts_inactive(self):
        spec = spec_pt(4, "asymmetric")
        state = init_range(column([0.0, 1.0]), spec)
        assert state.clip_lo[0] == spec.q_n / spec.q_p
        assert state.clip_hi[0] == 1.0

    def test_empty_tensor_rejected(self):
        with pytest.raises(DataError):
            init_range(np.zeros((0,)), spec_pt(4, "asymmetric"))

    @pytest.mark.parametrize("scheme", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_matches_scalar_oracle_on_random_groups(self, scheme, bits):
        rng = np.random.default_rng(bits * 7 + len(scheme))
        for _ in range(50):
            x = rng.uniform(-3, 3, size=rng.integers(2, 9))
            state = init_range(column(x), spec_pt(bits, scheme))
            step, zero, _, _ = scalar_range_init(x, bits, scheme)
            assert state.step[0] == pytest.approx(step, rel=1e-15)
            assert state.zero_point[0] == zero


class TestFakeQuant:
    def test_two_bit_codes_and_dequant(self):
        x = np.array([-1.0, 0.5, 2.0])
        spec = spec_pt(2, "asymmetric", role="activation")
        state = init_range(x, spec)
        assert quant_codes(x, spec, state).tolist() == [0, 1, 3]
        assert fake_quant(x, spec, state).tolist() == [-1.0, 0.0, 2.0]

    def test_grid_points_are_fixed_points(self):
        spec = spec_pt(8, "asymmetric")
        state = QuantState(step=[0.25], zero_point=[17.0], clip_lo=[0.0], clip_hi=[1.0])
        codes = np.arange(0, 256, dtype=np.float64)
        x = column(0.25 * (codes - 17.0))
        assert np.array_equal(fake_quant(x, spec, state), x)

    def test_inactive_clipping_equals_activation_clamp(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=64)
        w_spec = spec_pt(4, "asymmetric", role="weight")
        a_spec = spec_pt(4, "asymmetric", role="activation")
        state = init_range(column(x), w_spec)
        assert np.array_equal(fake_quant(column(x), w_spec, state)[:, 0], fake_quant(x, a_spec, state))

    def test_nonpositive_step_rejected(self):
        spec = spec_pt(4, "asymmetric")
        state = QuantState(step=[0.0], zero_point=[0.0], clip_lo=[0.0], clip_hi=[1.0])
        with pytest.raises(InvalidStateError):
            fake_quant(np.ones((3, 1)), spec, state)

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(9)
        for scheme in ("symmetric", "asymmetric"):
            for role, group_size in (("activation", None), ("weight", None), ("weight", 4)):
                spec = QuantSpec(3, scheme, role, group_size)
                x = rng.normal(size=(8, 6)) * 3
                state = init_range(x, spec)
                once = fake_quant(x, spec, state)
                twice = fake_quant(once, spec, state)
                assert np.array_equal(once, twice)

    @pytest.mark.parametrize("n_rows", [1, 2, 3])
    @pytest.mark.parametrize("state", ["init_range", "none"])
    def test_index_clamped_at_code_zero_keeps_the_np_clip_zero(self, state, n_rows):
        # -1e-3 / step rounds to index -0.0, which meets the +0.0 bound of code 0;
        # which zero comes out depends on the shape, and must be np.clip's
        x = np.tile([[-1e-3, 1.0, -0.0, 0.5]], (n_rows, 1))
        spec = QuantSpec(2, "asymmetric", "activation")
        fresh = init_range(x, spec)
        step, zero = fresh.step[:, None], fresh.zero_point[:, None]
        assert np.all(zero == 0.0)
        want = step * np.clip(np.rint(x / step), spec.q_n - zero, spec.q_p - zero)
        got = fake_quant(x, spec, fresh if state == "init_range" else None)
        assert got.tobytes() == want.tobytes()

    def test_fractional_zero_point_rounded_at_use(self):
        spec = spec_pt(4, "asymmetric")
        x = column(np.linspace(-1, 1, 9))
        base = QuantState(step=[0.1], zero_point=[7.0], clip_lo=[0.0], clip_hi=[1.0])
        drifted = QuantState(step=[0.1], zero_point=[7.2], clip_lo=[0.0], clip_hi=[1.0])
        assert np.array_equal(fake_quant(x, spec, base), fake_quant(x, spec, drifted))


class TestQuantError:
    def test_on_grid_is_zero(self):
        spec = spec_pt(4, "asymmetric")
        state = QuantState(step=[0.5], zero_point=[3.0], clip_lo=[0.0], clip_hi=[1.0])
        x = column(0.5 * (np.arange(16.0) - 3.0))
        assert quant_error(x, spec, state) == 0.0

    def test_half_step_off_grid(self):
        spec = spec_pt(4, "asymmetric")
        state = QuantState(step=[0.5], zero_point=[0.0], clip_lo=[0.0], clip_hi=[1.0])
        x = column([0.25])  # step/2 off a grid point, inside the range
        assert quant_error(x, spec, state) == pytest.approx((0.25) ** 2)

    def test_inrange_elements_bounded_by_half_step(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-4, 4, size=4096)
        spec = spec_pt(8, "asymmetric", role="activation")
        state = init_range(x, spec)
        xq = fake_quant(x, spec, state)
        step = state.step[0]
        lo_val = step * (spec.q_n - state.zero_point[0])
        hi_val = step * (spec.q_p - state.zero_point[0])
        in_range = (x >= lo_val) & (x <= hi_val)
        assert np.all(np.abs(x - xq)[in_range] <= step / 2 + 1e-15)
        assert quant_error(x, spec, state) <= (step / 2) ** 2 + 1e-15


class TestAgainstNearestCodeOracle:
    @pytest.mark.parametrize("scheme", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("bits", [2, 3])
    def test_exhaustive_low_bit_grids(self, scheme, bits):
        spec = QuantSpec(bits, scheme, "activation")
        state = QuantState(step=[0.3], zero_point=[1.0], clip_lo=[spec.q_n / spec.q_p], clip_hi=[1.0])
        # dense sweep covering every cell, every boundary, and out-of-range
        xs = np.linspace(0.3 * (spec.q_n - 4), 0.3 * (spec.q_p + 4), 4001)
        got = fake_quant(xs, spec, state)
        want = np.array(
            [nearest_code_dequant(x, 0.3, 1.0, spec.q_n, spec.q_p) for x in xs]
        )
        assert np.array_equal(got, want)

    def test_exhaustive_grid_with_clipping(self):
        spec = QuantSpec(3, "asymmetric", "weight")
        state = QuantState(step=[0.5], zero_point=[2.0], clip_lo=[0.25], clip_hi=[0.8])
        lo = round(0.25 * spec.q_p)
        hi = round(0.8 * spec.q_p)
        xs = np.linspace(-4, 4, 2001)
        got = fake_quant(column(xs), spec, state)[:, 0]
        want = np.array([nearest_code_dequant(x, 0.5, 2.0, lo, hi) for x in xs])
        assert np.array_equal(got, want)


class TestQuotientRoundedOntoHalf:
    """x / step can round onto a half in float although x is nearer one neighbour."""

    @pytest.mark.parametrize(
        "bits, scheme, x, want_code",
        [
            (2, "asymmetric", 0.44999999999999996, 2),  # exact x/step 1.4999...: index 1, not 2
            (3, "asymmetric", 0.75, 4),  # exact x/step 2.5000...: index 3, not 2
            (2, "symmetric", -0.44999999999999996, 0),  # exact x/step -1.4999...: index -1, not -2
        ],
    )
    def test_nearer_neighbour_wins(self, bits, scheme, x, want_code):
        spec = QuantSpec(bits, scheme, "activation")
        state = QuantState(step=[0.3], zero_point=[1.0], clip_lo=[spec.q_n / spec.q_p], clip_hi=[1.0])
        assert x / 0.3 % 1.0 == 0.5
        assert nearest_code(x, 0.3, 1.0, spec.q_n, spec.q_p) == want_code
        assert quant_codes(np.array([x]), spec, state).tolist() == [want_code]
        assert fake_quant(np.array([x]), spec, state).tolist() == [0.3 * (want_code - 1.0)]

    def test_non_finite_element_does_not_hide_the_half(self):
        spec = QuantSpec(2, "asymmetric", "activation")
        state = QuantState(step=[0.3], zero_point=[1.0], clip_lo=[0.0], clip_hi=[1.0])
        got = fake_quant(np.array([np.nan, np.inf, 0.44999999999999996]), spec, state)
        assert got[2] == 0.3

    def test_quant_codes_match_oracle_and_dequantize_to_fake_quant(self):
        spec = QuantSpec(2, "asymmetric", "activation")
        state = QuantState(step=[0.3], zero_point=[1.0], clip_lo=[0.0], clip_hi=[1.0])
        xs = np.linspace(0.3 * (spec.q_n - 4), 0.3 * (spec.q_p + 4), 4001)
        codes = quant_codes(xs, spec, state)
        want = [nearest_code(x, 0.3, 1.0, spec.q_n, spec.q_p) for x in xs]
        assert codes.dtype == spec.code_dtype == np.uint8
        assert codes.tolist() == want
        assert np.array_equal(0.3 * (codes - 1.0), fake_quant(xs, spec, state))

    @pytest.mark.parametrize("role", ["activation", "weight"])
    def test_quant_codes_rejects_wrong_group_count(self, role):
        spec = QuantSpec(4, "asymmetric", role)
        state = QuantState(step=[0.1] * 3, zero_point=[0.0] * 3, clip_lo=[0.0] * 3, clip_hi=[1.0] * 3)
        with pytest.raises(DimensionError):
            quant_codes(np.ones((4, 6)), spec, state)

    @given(step=st.one_of(SUBNORMAL_STEPS, NORMAL_STEPS), k=HALF_KS)
    @example(step=math.ldexp(1247007123360901, -1074), k=5)  # an odd subnormal step: step * 0.5 rounds
    @settings(max_examples=400, deadline=None)
    def test_half_quotients_match_the_fraction_oracle(self, step, k):
        xs = near_half(step, k)
        assume(np.all(np.isfinite(xs)))
        g = np.stack([xs, -xs])  # -(k + 1/2) is the half of -k - 1
        steps = np.full((2, 1), step)
        lo, hi = np.full((2, 1), -(2.0**41)), np.full((2, 1), 2.0**41)
        got = _nearest_index(g, steps, lo, hi)
        assert got.tobytes() == nearest_index_by_fractions(g, steps, lo, hi).tobytes()

        # codes 0..3 span indices k - 1 .. k + 2 under zero point 1 - k
        spec = QuantSpec(2, "asymmetric", "activation")
        zeros = [1.0 - k, 2.0 + k]
        state = QuantState(step=[step, step], zero_point=zeros, clip_lo=[0.0] * 2, clip_hi=[1.0] * 2)
        want = [[nearest_code(x, step, z, spec.q_n, spec.q_p) for x in row] for row, z in zip(g, zeros)]
        assert quant_codes(g, spec, state).tolist() == want

        # a symmetric range whose init step s puts k + 1/2 on the grid
        spec = QuantSpec((abs(k) + 1).bit_length() + 2, "symmetric", "activation")
        top = step * spec.q_p
        assume(math.isfinite(top))
        s = top / spec.q_p  # init_range's step for a row whose absmax is top
        xs = near_half(s, k)
        row = np.concatenate([[top, -top], xs, -xs])[None, :]
        want = fake_quant(row, spec, init_range(row, spec))
        assert fake_quant(row, spec).tobytes() == want.tobytes()
        s_col = np.array([[s]])
        index = nearest_index_by_fractions(row, s_col, spec.q_n, spec.q_p)
        assert want.tobytes() == (index * s_col).tobytes()

    def test_adversarial_halves_match_the_fraction_oracle(self):
        # Odd subnormal steps, whose halves round; random normal steps; steps
        # near the top of the float range; exact ties and both neighbours of
        # every midpoint, at |k| from 0 to 2**40.
        rng = np.random.default_rng(18)
        small_ks = np.array([-3, -2, -1, 0, 1, 2])
        big_ks = np.array([2**40, -(2**40), *rng.integers(-(2**40), 2**40, size=8)])
        all_ks = np.concatenate([small_ks, big_ks])
        mantissas = rng.integers(2**52, 2**53, size=48)
        cases = [
            (np.ldexp(rng.integers(1, 2**52, size=40) | 1, -1074), all_ks),
            (np.ldexp(mantissas[:40], rng.integers(-1074, 928, size=40)), all_ks),
            (np.ldexp(mantissas[40:], rng.integers(960, 966, size=8)), small_ks),
        ]
        halves = ties = 0
        for steps, ks in cases:
            step = steps[:, None]
            xs = near_half(step, ks[None, :]).transpose(1, 0, 2).reshape(len(steps), -1)
            g = np.concatenate([xs, -xs], axis=1)
            assert np.all(np.isfinite(g))
            lo, hi = np.full_like(step, -(2.0**41)), np.full_like(step, 2.0**41)
            want = nearest_index_by_fractions(g, step, lo, hi)
            assert _nearest_index(g, step, lo, hi).tobytes() == want.tobytes()
            halves += half_count(g, step)
            ties += exact_tie_count(g, step)
        assert halves > 1000
        assert ties > 100

    def test_random_steps_near_every_midpoint(self):
        # Midpoints step * (j + 1/2) and their float neighbours, on random
        # steps and at both ends of the float range: where the two candidate
        # distances differ by less than a float rounding, only exact
        # arithmetic names the nearer code.
        rng = np.random.default_rng(0)
        extremes = [1.2345e-300, 3.3e-200, 7.77e250, 1.2345e300]
        for step in [*rng.uniform(0.05, 2.0, size=100), *extremes]:
            for bits, scheme, zero in ((2, "asymmetric", 1.0), (3, "symmetric", 0.0), (4, "asymmetric", 1.0)):
                spec = QuantSpec(bits, scheme, "activation")
                clip_lo = spec.q_n / spec.q_p
                state = QuantState(step=[step], zero_point=[zero], clip_lo=[clip_lo], clip_hi=[1.0])
                mids = step * (np.arange(spec.q_n - zero, spec.q_p - zero) + 0.5)
                xs = np.concatenate([mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf)])
                want = [nearest_code(x, step, zero, spec.q_n, spec.q_p) for x in xs]
                assert quant_codes(xs, spec, state).tolist() == want, step


class TestInvariants:
    @given(
        x=st.floats(-100, 100),
        y=st.floats(-100, 100),
        bits=st.integers(2, 8),
        scheme=st.sampled_from(["symmetric", "asymmetric"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_monotone_in_input(self, x, y, bits, scheme):
        lo, hi = min(x, y), max(x, y)
        spec = QuantSpec(bits, scheme, "weight")
        state = QuantState(step=[0.37], zero_point=[1.0], clip_lo=[spec.q_n / spec.q_p], clip_hi=[1.0])
        a = fake_quant(column([lo]), spec, state)[0, 0]
        b = fake_quant(column([hi]), spec, state)[0, 0]
        assert a <= b

    def test_tightening_never_adds_codes(self):
        rng = np.random.default_rng(4)
        x = column(rng.normal(size=512))
        spec = spec_pt(4, "asymmetric")
        state = init_range(x, spec)
        loose = len(np.unique(quant_codes(x, spec, state)))
        tight = tighten_state(state, clip_lo=0.2, clip_hi=0.7)
        assert len(np.unique(quant_codes(x, spec, tight))) <= loose

    @pytest.mark.parametrize("scheme", ["symmetric", "asymmetric"])
    def test_whole_column_group_equals_per_channel(self, scheme):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(8, 5))
        g_spec = QuantSpec(4, scheme, "weight", group_size=8)
        c_spec = QuantSpec(4, scheme, "weight")
        state, g_state = init_range(x, c_spec), init_range(x, g_spec)
        for field in ("step", "zero_point", "clip_lo", "clip_hi"):
            assert getattr(g_state, field).tobytes() == getattr(state, field).tobytes(), field
        assert fake_quant(x, g_spec, state).tobytes() == fake_quant(x, c_spec, state).tobytes()
        assert fake_quant(x, g_spec).tobytes() == fake_quant(x, c_spec).tobytes()
        assert quant_codes(x, g_spec, state).tobytes() == quant_codes(x, c_spec, state).tobytes()

    def test_one_column_weight_equals_one_row_activation(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 1))
        c_spec = QuantSpec(4, "asymmetric", "weight")
        r_spec = QuantSpec(4, "asymmetric", "activation")
        out_c = fake_quant(x, c_spec, init_range(x, c_spec))
        out_r = fake_quant(x.T, r_spec, init_range(x.T, r_spec))
        assert np.array_equal(out_c, out_r.T)

    def test_per_token_groups_are_rows(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 6))
        spec = QuantSpec(4, "asymmetric", "activation")
        state = init_range(x, spec)
        assert state.n_groups == 4
        row_quant = [
            fake_quant(
                row,
                spec,
                QuantState(
                    step=state.step[i : i + 1],
                    zero_point=state.zero_point[i : i + 1],
                    clip_lo=state.clip_lo[i : i + 1],
                    clip_hi=state.clip_hi[i : i + 1],
                ),
            )
            for i, row in enumerate(x)
        ]
        assert np.array_equal(fake_quant(x, spec, state), np.stack(row_quant))


def constant_rows(width):
    return np.array([np.full(width, c) for c in (0.0, -0.0, 2.5, -1.7, 3.0, 1e300, -1e-300)])


def half_rows(spec, width, rng):
    """Rows whose range-init step puts some x / step exactly onto a half.

    Each row holds its min and max, then grid midpoints step * (k + 1/2) and
    their float neighbours, with step computed as init_range computes it.
    """
    rows = []
    for _ in range(6):
        lo, hi = sorted(rng.uniform(-3, 3, size=2))
        if spec.scheme == "symmetric":
            step = max(abs(lo), abs(hi)) / spec.q_p
        else:
            step = (hi - lo) / spec.q_p
        ks = np.arange(np.floor(lo / step) - 1, np.ceil(hi / step) + 1)
        mids = step * (ks + 0.5)
        cells = np.concatenate([mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf)])
        cells = cells[(cells >= lo) & (cells <= hi)]
        rows.append(np.resize(np.concatenate([[lo, hi], cells]), width))
    return np.array(rows)


def non_finite_rows(width, rng):
    rows = rng.normal(size=(6, width))
    rows[0, 3] = np.inf
    rows[1, 2] = -np.inf
    rows[2, [1, 4]] = [np.inf, -np.inf]
    rows[3, 0] = np.nan
    rows[4, :] = np.inf
    rows[5, [0, 5]] = [np.nan, np.inf]
    return rows


class TestRangeFromX:
    """fake_quant with no state is fake_quant under init_range(x) of the same x, byte for byte."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rows", ["constant", "halves", "non-finite"])
    @pytest.mark.parametrize("scheme", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_equals_the_range_init_state(self, bits, scheme, rows):
        spec = QuantSpec(bits, scheme, "activation")
        rng = np.random.default_rng(bits)
        width = 3 * 2**bits + 8
        x = {
            "constant": lambda: constant_rows(width),
            "halves": lambda: half_rows(spec, width, rng),
            "non-finite": lambda: non_finite_rows(width, rng),
        }[rows]()
        if rows == "halves":
            step = init_range(x, spec).step[:, None]
            quotient = x / step
            assert np.any(quotient - np.rint(quotient) == 0.5)
            assert np.any(quotient - np.rint(quotient) == -0.5)
        want = fake_quant(x, spec, init_range(x, spec))
        assert fake_quant(x, spec).tobytes() == want.tobytes()
        assert fake_quant(x, spec, None).tobytes() == want.tobytes()

    @pytest.mark.parametrize("scheme", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("group_size", [None, 4], ids=["per_channel", "per_group"])
    def test_equals_the_range_init_state_for_weight_groups(self, scheme, group_size):
        spec = QuantSpec(3, scheme, "weight", group_size)
        x = np.random.default_rng(12).standard_t(3, size=(16, 6))
        want = fake_quant(x, spec, init_range(x, spec))
        assert fake_quant(x, spec).tobytes() == want.tobytes()

    def test_empty_tensor_rejected(self):
        with pytest.raises(DataError):
            fake_quant(np.zeros((0, 4)), QuantSpec(4, "asymmetric", "activation"))
