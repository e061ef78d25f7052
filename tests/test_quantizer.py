import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoqlab.errors import DataError, DimensionError, InvalidStateError
from zoqlab.numerics import per_channel, per_group, per_tensor, per_token, to_groups
from zoqlab.quantizer import (
    QuantSpec,
    QuantState,
    fake_quant,
    init_range,
    quant_codes,
    quant_error,
    tighten_state,
)

from oracles import nearest_code, nearest_code_dequant, scalar_range_init


def spec_pt(bits, scheme, role="weight"):
    return QuantSpec(bits, scheme, per_tensor(), role=role)


class TestQuantSpec:
    def test_code_ranges(self):
        asym = spec_pt(2, "asymmetric")
        assert (asym.q_n, asym.q_p) == (0, 3)
        sym = spec_pt(3, "symmetric")
        assert (sym.q_n, sym.q_p) == (-4, 3)

    def test_activation_rejects_per_group(self):
        with pytest.raises(DataError):
            QuantSpec(4, "asymmetric", per_group(axis=0, group_size=2), role="activation")

    def test_bit_floor(self):
        with pytest.raises(DataError):
            spec_pt(1, "asymmetric")


class TestInitRange:
    def test_asymmetric_two_bit_example(self):
        x = np.array([-1.0, 0.5, 2.0])
        spec = spec_pt(2, "asymmetric")
        state = init_range(x, spec)
        step, zero, _, _ = scalar_range_init(x, 2, "asymmetric")
        assert state.step[0] == step == 1.0
        assert state.zero_point[0] == zero == 1.0

    def test_symmetric_three_bit_example(self):
        state = init_range(np.array([-2.0, 1.0]), spec_pt(3, "symmetric"))
        step, zero, _, _ = scalar_range_init([-2.0, 1.0], 3, "symmetric")
        assert state.step[0] == pytest.approx(step) == pytest.approx(2 / 3)
        assert state.zero_point[0] == 0.0

    def test_all_zeros_round_trips_exactly(self):
        x = np.zeros(5)
        spec = spec_pt(2, "asymmetric")
        state = init_range(x, spec)
        assert state.step[0] == 1.0
        assert state.zero_point[0] == 0.0
        assert np.array_equal(fake_quant(x, spec, state), x)

    def test_clipping_starts_inactive(self):
        spec = spec_pt(4, "asymmetric")
        state = init_range(np.array([0.0, 1.0]), spec)
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
            state = init_range(x, spec_pt(bits, scheme))
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
        x = 0.25 * (codes - 17.0)
        assert np.array_equal(fake_quant(x, spec, state), x)

    def test_inactive_clipping_equals_activation_clamp(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=64)
        w_spec = spec_pt(4, "asymmetric", role="weight")
        a_spec = spec_pt(4, "asymmetric", role="activation")
        state = init_range(x, w_spec)
        assert np.array_equal(fake_quant(x, w_spec, state), fake_quant(x, a_spec, state))

    def test_nonpositive_step_rejected(self):
        spec = spec_pt(4, "asymmetric")
        state = QuantState(step=[0.0], zero_point=[0.0], clip_lo=[0.0], clip_hi=[1.0])
        with pytest.raises(InvalidStateError):
            fake_quant(np.ones(3), spec, state)

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(9)
        for scheme in ("symmetric", "asymmetric"):
            for gran in (per_tensor(), per_channel(axis=1), per_group(axis=0, group_size=4)):
                spec = QuantSpec(3, scheme, gran)
                x = rng.normal(size=(8, 6)) * 3
                state = init_range(x, spec)
                once = fake_quant(x, spec, state)
                twice = fake_quant(once, spec, state)
                assert np.array_equal(once, twice)

    def test_fractional_zero_point_rounded_at_use(self):
        spec = spec_pt(4, "asymmetric")
        x = np.linspace(-1, 1, 9)
        base = QuantState(step=[0.1], zero_point=[7.0], clip_lo=[0.0], clip_hi=[1.0])
        drifted = QuantState(step=[0.1], zero_point=[7.2], clip_lo=[0.0], clip_hi=[1.0])
        assert np.array_equal(fake_quant(x, spec, base), fake_quant(x, spec, drifted))


class TestQuantError:
    def test_on_grid_is_zero(self):
        spec = spec_pt(4, "asymmetric")
        state = QuantState(step=[0.5], zero_point=[3.0], clip_lo=[0.0], clip_hi=[1.0])
        x = 0.5 * (np.arange(16.0) - 3.0)
        assert quant_error(x, spec, state) == 0.0

    def test_half_step_off_grid(self):
        spec = spec_pt(4, "asymmetric")
        state = QuantState(step=[0.5], zero_point=[0.0], clip_lo=[0.0], clip_hi=[1.0])
        x = np.array([0.25])  # step/2 off a grid point, inside the range
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
        spec = QuantSpec(bits, scheme, per_tensor(), role="activation")
        state = QuantState(step=[0.3], zero_point=[1.0], clip_lo=[spec.q_n / spec.q_p], clip_hi=[1.0])
        # dense sweep covering every cell, every boundary, and out-of-range
        xs = np.linspace(0.3 * (spec.q_n - 4), 0.3 * (spec.q_p + 4), 4001)
        got = fake_quant(xs, spec, state)
        want = np.array(
            [nearest_code_dequant(x, 0.3, 1.0, spec.q_n, spec.q_p) for x in xs]
        )
        assert np.array_equal(got, want)

    def test_exhaustive_grid_with_clipping(self):
        spec = QuantSpec(3, "asymmetric", per_tensor(), role="weight")
        state = QuantState(step=[0.5], zero_point=[2.0], clip_lo=[0.25], clip_hi=[0.8])
        lo = round(0.25 * spec.q_p)
        hi = round(0.8 * spec.q_p)
        xs = np.linspace(-4, 4, 2001)
        got = fake_quant(xs, spec, state)
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
        spec = QuantSpec(bits, scheme, per_tensor(), role="activation")
        state = QuantState(step=[0.3], zero_point=[1.0], clip_lo=[spec.q_n / spec.q_p], clip_hi=[1.0])
        assert x / 0.3 % 1.0 == 0.5
        assert nearest_code(x, 0.3, 1.0, spec.q_n, spec.q_p) == want_code
        assert quant_codes(np.array([x]), spec, state).tolist() == [want_code]
        assert fake_quant(np.array([x]), spec, state).tolist() == [0.3 * (want_code - 1.0)]

    def test_non_finite_element_does_not_hide_the_half(self):
        spec = QuantSpec(2, "asymmetric", per_tensor(), role="activation")
        state = QuantState(step=[0.3], zero_point=[1.0], clip_lo=[0.0], clip_hi=[1.0])
        got = fake_quant(np.array([np.nan, np.inf, 0.44999999999999996]), spec, state)
        assert got[2] == 0.3

    def test_quant_codes_match_oracle_and_dequantize_to_fake_quant(self):
        spec = QuantSpec(2, "asymmetric", per_tensor(), role="activation")
        state = QuantState(step=[0.3], zero_point=[1.0], clip_lo=[0.0], clip_hi=[1.0])
        xs = np.linspace(0.3 * (spec.q_n - 4), 0.3 * (spec.q_p + 4), 4001)
        codes = quant_codes(xs, spec, state)
        want = [nearest_code(x, 0.3, 1.0, spec.q_n, spec.q_p) for x in xs]
        assert codes.tolist() == want
        assert np.array_equal(0.3 * (codes - 1.0), fake_quant(xs, spec, state))

    @pytest.mark.parametrize("gran", [per_token(), per_channel(axis=1)])
    def test_quant_codes_rejects_wrong_group_count(self, gran):
        spec = QuantSpec(4, "asymmetric", gran, role="weight")
        state = QuantState(step=[0.1] * 3, zero_point=[0.0] * 3, clip_lo=[0.0] * 3, clip_hi=[1.0] * 3)
        with pytest.raises(DimensionError):
            quant_codes(np.ones((4, 6)), spec, state)


    def test_random_steps_near_every_midpoint(self):
        # Midpoints step * (j + 1/2) and their float neighbours, on random
        # steps and at both ends of the float range: where the two candidate
        # distances differ by less than a float rounding, only exact
        # arithmetic names the nearer code.
        rng = np.random.default_rng(0)
        extremes = [1.2345e-300, 3.3e-200, 7.77e250, 1.2345e300]
        for step in [*rng.uniform(0.05, 2.0, size=100), *extremes]:
            for bits, scheme, zero in ((2, "asymmetric", 1.0), (3, "symmetric", 0.0), (4, "asymmetric", 1.0)):
                spec = QuantSpec(bits, scheme, per_tensor(), role="activation")
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
        spec = QuantSpec(bits, scheme, per_tensor())
        state = QuantState(step=[0.37], zero_point=[1.0], clip_lo=[spec.q_n / spec.q_p], clip_hi=[1.0])
        a = fake_quant(np.array([lo]), spec, state)[0]
        b = fake_quant(np.array([hi]), spec, state)[0]
        assert a <= b

    def test_tightening_never_adds_codes(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=512)
        spec = spec_pt(4, "asymmetric")
        state = init_range(x, spec)
        loose = len(np.unique(quant_codes(x, spec, state)))
        tight = tighten_state(state, clip_lo=0.2, clip_hi=0.7)
        assert len(np.unique(quant_codes(x, spec, tight))) <= loose

    def test_per_group_full_axis_equals_per_channel(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(8, 5))
        g_spec = QuantSpec(4, "asymmetric", per_group(axis=0, group_size=8))
        c_spec = QuantSpec(4, "asymmetric", per_channel(axis=1))
        out_g = fake_quant(x, g_spec, init_range(x, g_spec))
        out_c = fake_quant(x, c_spec, init_range(x, c_spec))
        assert np.array_equal(out_g, out_c)

    def test_per_channel_single_channel_equals_per_tensor(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 1))
        c_spec = QuantSpec(4, "asymmetric", per_channel(axis=1))
        t_spec = QuantSpec(4, "asymmetric", per_tensor())
        out_c = fake_quant(x, c_spec, init_range(x, c_spec))
        out_t = fake_quant(x, t_spec, init_range(x, t_spec))
        assert np.array_equal(out_c, out_t)

    def test_per_token_groups_are_rows(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 6))
        spec = QuantSpec(4, "asymmetric", per_token(), role="activation")
        state = init_range(x, spec)
        assert state.n_groups == 4
        row_quant = [
            fake_quant(
                row,
                QuantSpec(4, "asymmetric", per_tensor(), role="activation"),
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
