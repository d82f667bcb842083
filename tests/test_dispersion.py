"""Dispersion characteristics, group delays, and delay plans."""

from dataclasses import replace

import numpy as np
import pytest

from talbotsim import dispersion
from talbotsim.model import SPEED_OF_LIGHT, CombSpec, build_grid, comb_lines, convert_dispersion
from talbotsim.dispersion import (
    DelayPlan,
    DispersionSpec,
    delay_plan,
    delay_plans,
    eval_dispersion,
    group_delay,
    min_effective_dispersion,
    normalize_offsets,
    offset_difference,
    one_sample_dispersion,
    read_dispersion_table,
)

C = SPEED_OF_LIGHT
F_R = 1e8
LAM0 = 1550e-9


def make_grid(n=64, t_sig=1e-4, f_r=F_R):
    return build_grid(f_r, n, t_sig)


class TestDispersionSpecRefusals:
    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            (("quadratic", F_R, LAM0), {}, r"unknown dispersion kind 'quadratic'"),
            (("ideal", 0.0, LAM0), {}, r"f_r and lambda0 must be positive"),
            (("ideal", -F_R, LAM0), {}, r"f_r and lambda0 must be positive"),
            (("ideal", F_R, LAM0), {"m": 0}, r"upconversion factor must be a positive integer, got 0"),
            (("ideal", F_R, LAM0), {"m": 1.5}, r"upconversion factor must be a positive integer, got 1\.5"),
            (("tabulated", F_R, LAM0), {}, r"tabulated kind requires a table"),
            (
                ("tabulated", F_R, LAM0),
                {"table": (np.array([1.5e-6, 1.6e-6, 1.7e-6]), np.array([1.0, 2.0]))},
                r"table must be two equal-length 1-d arrays with >= 2 points",
            ),
            (("linear", F_R, LAM0), {"table": (np.array([1.5e-6, 1.6e-6]), np.ones(2))}, r"linear kind takes no table"),
        ],
        ids=["unknown-kind", "f_r-zero", "f_r-negative", "m-zero", "m-fraction", "no-table", "unequal-table",
             "analytic-with-table"],
    )
    def test_refuses(self, args, kwargs, message):
        with pytest.raises(ValueError, match=message):
            DispersionSpec(*args, **kwargs)


class TestEvalDispersion:
    def test_ideal_at_center(self):
        spec = DispersionSpec.ideal(F_R, LAM0)
        d = eval_dispersion(spec, LAM0)
        # Independent evaluation of c / (lambda^2 f_r^2).
        assert d == pytest.approx(C / (LAM0**2 * F_R**2), rel=1e-12)
        assert d == pytest.approx(1.248e4, rel=1e-3)
        # Cross-check: 64 one-sample units at N=64 give the one-period value.
        assert d == pytest.approx(64 * one_sample_dispersion(64, F_R, LAM0), rel=1e-4)
        assert convert_dispersion(d, "s/m", "ps/nm") == pytest.approx(1.248e7, rel=1e-3)

    def test_linear_matches_ideal_at_center(self):
        ideal = DispersionSpec.ideal(F_R, LAM0)
        linear = DispersionSpec.linear(F_R, LAM0)
        assert eval_dispersion(linear, LAM0) == pytest.approx(
            eval_dispersion(ideal, LAM0), rel=1e-14
        )

    def test_upconversion_factor_halves_dispersion(self):
        d1 = eval_dispersion(DispersionSpec.ideal(F_R, LAM0, m=1), LAM0)
        d2 = eval_dispersion(DispersionSpec.ideal(F_R, LAM0, m=2), LAM0)
        assert d2 == pytest.approx(d1 / 2, rel=1e-14)

    def test_constant_is_flat(self):
        spec = DispersionSpec.constant(F_R, LAM0)
        lams = np.linspace(1500e-9, 1600e-9, 7)
        values = eval_dispersion(spec, lams)
        assert np.all(values == values[0])

    def test_linear_is_first_order_taylor(self):
        # Finite-difference slope of the ideal characteristic at lambda0.
        ideal = DispersionSpec.ideal(F_R, LAM0)
        h = 1e-13
        slope = (eval_dispersion(ideal, LAM0 + h) - eval_dispersion(ideal, LAM0 - h)) / (2 * h)
        linear = DispersionSpec.linear(F_R, LAM0)
        dl = 2e-9
        lin_slope = (eval_dispersion(linear, LAM0 + dl) - eval_dispersion(linear, LAM0 - dl)) / (
            2 * dl
        )
        assert lin_slope == pytest.approx(slope, rel=1e-6)

    def test_tabulated_interpolation_and_range(self):
        lam = np.array([1500e-9, 1550e-9, 1600e-9])
        d = np.array([1.0, 2.0, 3.0])
        spec = DispersionSpec.tabulated(F_R, LAM0, lam, d)
        assert eval_dispersion(spec, 1525e-9) == pytest.approx(1.5)
        with pytest.raises(ValueError, match="tabulated range"):
            eval_dispersion(spec, 1499e-9)

    def test_tabulated_needs_sorted_table(self):
        with pytest.raises(ValueError, match="increasing"):
            DispersionSpec.tabulated(F_R, LAM0, [1600e-9, 1500e-9], [1.0, 2.0])


class TestGroupDelay:
    def test_ideal_delay_is_whole_periods(self):
        # Closed form: from lambda0 to line k the delay is exactly -k/f_r.
        comb = CombSpec(f_r=F_R, lambda0=LAM0, width=4e10)
        lines = comb_lines(comb)
        spec = DispersionSpec.ideal(F_R, LAM0)
        tau = group_delay(spec, LAM0, lines.lam)
        expected = -lines.index / F_R
        np.testing.assert_allclose(tau, expected, rtol=1e-9, atol=1e-18)

    def test_constant_delay_over_one_spacing(self):
        # The one-sample dispersion value, integrated over one line
        # spacing below the center wavelength, must give one sample.
        d_c = one_sample_dispersion(64, F_R, LAM0)
        spec = DispersionSpec.constant(F_R, LAM0)
        lam_next = C / (C / LAM0 - F_R)
        scale = d_c / eval_dispersion(spec, LAM0)
        tau = group_delay(spec, LAM0, lam_next) * scale
        assert tau == pytest.approx(1.0 / 6.4e9, rel=1e-12)
        assert tau == pytest.approx(156.25e-12, rel=1e-12)

    def test_zero_for_equal_wavelengths(self):
        for spec in (
            DispersionSpec.ideal(F_R, LAM0),
            DispersionSpec.linear(F_R, LAM0),
            DispersionSpec.constant(F_R, LAM0),
            DispersionSpec.tabulated(F_R, LAM0, [1500e-9, 1600e-9], [1.0, 2.0]),
        ):
            assert group_delay(spec, LAM0, LAM0) == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(5)
        specs = [
            DispersionSpec.ideal(F_R, LAM0),
            DispersionSpec.linear(F_R, LAM0),
            DispersionSpec.constant(F_R, LAM0),
            DispersionSpec.tabulated(
                F_R, LAM0, np.linspace(1500e-9, 1600e-9, 9), np.linspace(1.0, 3.0, 9)
            ),
        ]
        for spec in specs:
            for _ in range(20):
                a, b = rng.uniform(1510e-9, 1590e-9, size=2)
                fwd = group_delay(spec, a, b)
                bwd = group_delay(spec, b, a)
                assert fwd == pytest.approx(-bwd, rel=1e-12, abs=1e-24)

    def test_tabulated_matches_dense_ideal(self):
        # Trapezoid integration over a dense sampling of the ideal
        # characteristic approximates the closed-form integral.
        lam_grid = np.linspace(1500e-9, 1600e-9, 4001)
        ideal = DispersionSpec.ideal(F_R, LAM0)
        tab = DispersionSpec.tabulated(F_R, LAM0, lam_grid, eval_dispersion(ideal, lam_grid))
        for lam in (1510e-9, 1555e-9, 1599e-9):
            expected = group_delay(ideal, 1500e-9, lam)
            assert group_delay(tab, 1500e-9, lam) == pytest.approx(expected, rel=1e-8)


class TestReferencePerLine:
    @pytest.mark.parametrize("kind", ["ideal", "linear", "constant", "tabulated"])
    def test_a_reference_per_line_gives_the_bits_of_one(self, kind):
        # A square of an array can differ in the last bit from a scalar's
        # square, which group_delay of one reference takes.
        rng = np.random.default_rng(30)
        knots = np.linspace(1500e-9, 1600e-9, 101)
        spec = (
            DispersionSpec.tabulated(F_R, LAM0, knots, eval_dispersion(DispersionSpec.ideal(F_R, LAM0), knots))
            if kind == "tabulated"
            else DispersionSpec(kind, F_R, LAM0, m=2)
        )
        refs = rng.uniform(1520e-9, 1580e-9, 5000)
        lam = rng.uniform(1520e-9, 1580e-9, (5000, 3))
        per_line = group_delay(spec, np.repeat(refs, 3), lam.ravel())
        one_each = np.concatenate([group_delay(spec, ref, row) for ref, row in zip(refs, lam)])
        assert np.array_equal(per_line, one_each)
        assert isinstance(group_delay(spec, refs[0], float(lam[0, 0])), float)


class TestDelayPlan:
    def test_ideal_offsets_exact(self):
        for width, n in ((4e10, 64), (1e11, 16), (3e11, 8)):
            comb = CombSpec(f_r=F_R, lambda0=LAM0, width=width)
            grid = make_grid(n)
            plan = delay_plan(DispersionSpec.ideal(F_R, LAM0), comb, grid)
            k = len(plan)
            expected = (k - 1 - np.arange(k)) * n
            assert np.array_equal(plan.offsets, expected)

    @pytest.mark.parametrize(
        "offsets, message",
        [([], r"a delay plan needs at least one line"), ([1, 2, 3], r"offsets must be normalized to min = 0")],
        ids=["no-lines", "min-not-zero"],
    )
    def test_refuses(self, offsets, message):
        with pytest.raises(ValueError, match=message):
            DelayPlan(np.array(offsets, dtype=np.int64), make_grid())

    def test_single_line(self):
        comb = CombSpec(f_r=F_R, lambda0=LAM0, width=0.0)
        plan = delay_plan(DispersionSpec.ideal(F_R, LAM0), comb, make_grid())
        assert plan.max_offset == 0
        assert list(plan.offsets) == [0]

    def test_constant_at_one_sample_dispersion(self):
        # A flat characteristic at the one-sample value spaces three
        # lines by exactly one sample each; the standard constant
        # characteristic (one period per line) spaces them by the
        # oversampling ratio.
        d_c = one_sample_dispersion(64, F_R, LAM0)
        comb = CombSpec(f_r=F_R, lambda0=LAM0, width=2e8)
        grid = make_grid(64)
        lam_grid = np.array([1500e-9, 1600e-9])
        flat = DispersionSpec.tabulated(F_R, LAM0, lam_grid, [d_c, d_c])
        plan_flat = delay_plan(flat, comb, grid)
        assert len(plan_flat) == 3
        assert np.all(np.abs(np.sort(plan_flat.offsets) - np.array([0, 1, 2])) <= 1)
        plan_const = delay_plan(DispersionSpec.constant(F_R, LAM0), comb, grid)
        assert np.all(np.abs(np.sort(plan_const.offsets) - np.array([0, 64, 128])) <= 1)

    def test_consistency_check(self):
        comb = CombSpec(f_r=F_R, lambda0=LAM0, width=2e8)
        with pytest.raises(ValueError, match="repetition"):
            delay_plan(DispersionSpec.ideal(2e8, LAM0), comb, make_grid())

    def test_repetition_rates_agree_as_np_isclose_has_them(self):
        # The comb's f_r is the reference: a spec's or a grid's f_r is
        # refused one step beyond 1e-8 + 1e-12 f_r of it, and taken one step
        # inside, above it and below it, exactly as np.isclose decides.
        comb = CombSpec(f_r=F_R, lambda0=LAM0, width=2e8)
        tolerance = 1e-8 + 1e-12 * F_R
        for direction in (np.inf, -np.inf):
            outside = F_R + np.copysign(tolerance, direction)
            while abs(outside - F_R) <= tolerance:
                outside = np.nextafter(outside, direction)
            while abs(np.nextafter(outside, -direction) - F_R) > tolerance:
                outside = np.nextafter(outside, -direction)
            inside = np.nextafter(outside, -direction)
            assert not np.isclose(outside, F_R, rtol=1e-12) and np.isclose(inside, F_R, rtol=1e-12)
            for f_r, accepted in ((float(outside), False), (float(inside), True)):
                for spec, grid in (
                    (DispersionSpec.ideal(f_r, LAM0), make_grid()),
                    (DispersionSpec.ideal(F_R, LAM0), make_grid(f_r=f_r)),
                ):
                    if accepted:
                        assert len(delay_plan(spec, comb, grid)) == comb.line_count
                    else:
                        with pytest.raises(ValueError, match="inconsistent repetition rates"):
                            delay_plan(spec, comb, grid)

    def test_delays_that_are_not_finite_are_refused(self):
        # At 1e-300 m the center frequency overflows to inf: the other lines'
        # wavelengths are 0, and their ideal delays inf - inf.  Cast to int64,
        # those NaNs would make an all-zero plan.
        comb = CombSpec(f_r=F_R, lambda0=1e-300, width=2e8)
        with pytest.raises(ValueError, match="not finite"):
            delay_plan(DispersionSpec.ideal(F_R, 1e-300), comb, make_grid())

    def test_delays_past_int64_are_refused(self):
        # 1e20 times the ideal characteristic puts the outer line 1.3e22
        # samples late, past what int64 offsets and their spread hold.
        comb = CombSpec(f_r=F_R, lambda0=LAM0, width=2e8)
        lam_grid = np.array([1500e-9, 1600e-9])
        d = 1e20 * np.asarray(eval_dispersion(DispersionSpec.ideal(F_R, LAM0), lam_grid))
        with pytest.raises(ValueError, match="int64"):
            delay_plan(DispersionSpec.tabulated(F_R, LAM0, lam_grid, d), comb, make_grid())
        # At 1e9 times it, 1.3e11 samples, the plan is built.
        plan = delay_plan(DispersionSpec.tabulated(F_R, LAM0, lam_grid, d * 1e-11), comb, make_grid())
        assert 1e11 < plan.max_offset < 2**62

    def test_normalization_shift_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            raw = rng.integers(-1000, 1000, size=20)
            shift = int(rng.integers(-10_000, 10_000))
            assert np.array_equal(normalize_offsets(raw), normalize_offsets(raw + shift))

    def test_dense_tabulated_plan_matches_ideal(self):
        comb = CombSpec(f_r=F_R, lambda0=LAM0, width=1e11)
        grid = make_grid(64)
        lines = comb_lines(comb)
        pad = 2e-10
        lam_grid = np.linspace(lines.lam.min() - pad, lines.lam.max() + pad, 2001)
        ideal = DispersionSpec.ideal(F_R, LAM0)
        tab = DispersionSpec.tabulated(F_R, LAM0, lam_grid, eval_dispersion(ideal, lam_grid))
        plan_ideal = delay_plan(ideal, comb, grid)
        plan_tab = delay_plan(tab, comb, grid)
        assert np.abs(offset_difference(plan_ideal, plan_tab)).max() <= 1


#: (f_r, oversampling, t_sig, widths) of the plans the builder is checked on:
#: one-line widths, the desk and wide sweeps' widths, the paper grid's, and
#: widths of 3, 5 and 7 lines, a group that exactly fills the 15-line plan.
PLAN_SETS = {
    "one-line": (1e7, 16, 2e-3, (0.0, 1e6, 1.9e7)),
    "one-line-and-more": (1e7, 16, 2e-3, (0.0, 1e7, 2e7, 4e7)),
    "desk": (1e7, 16, 2e-3, (1e8, 2e8, 5e8, 1e9, 2e9, 5e9, 1e10, 2e10)),
    "wide": (1e7, 16, 2e-3, (3e10, 6e10, 1e11, 2e11, 4e11)),
    "paper-grid": (1e8, 64, 1e-2, (1e11, 3e12)),
    "exact-fill": (1e7, 16, 2e-3, (2e7, 4e7, 6e7, 1.4e8)),
}


def builder_specs(f_r):
    """One characteristic of each kind for a comb at ``f_r``, with m = 2."""
    lam = np.linspace(1400e-9, 1700e-9, 2001)
    ideal = DispersionSpec("ideal", f_r, LAM0, m=2)
    return [
        ideal,
        DispersionSpec("linear", f_r, LAM0, m=2),
        DispersionSpec("constant", f_r, LAM0, m=2),
        DispersionSpec.tabulated(f_r, LAM0, lam, 1.01 * eval_dispersion(ideal, lam)),
    ]


class TestDelayPlans:
    @pytest.mark.parametrize("name", sorted(PLAN_SETS))
    def test_each_plan_has_the_bits_of_its_width_alone(self, name):
        f_r, oversampling, t_sig, widths = PLAN_SETS[name]
        grid = build_grid(f_r, oversampling, t_sig)
        comb = CombSpec(f_r=f_r, lambda0=LAM0)
        for spec in builder_specs(f_r):
            plans = delay_plans(spec, comb, grid, widths)
            assert len(plans) == len(widths)
            for plan, width in zip(plans, widths):
                alone = delay_plan(spec, replace(comb, width=width), grid)
                assert plan.grid is grid and plan.offsets.dtype == alone.offsets.dtype
                assert np.array_equal(plan.offsets, alone.offsets), (spec.kind, width)

    def test_the_widest_comb_lines_are_the_callers(self):
        f_r, oversampling, t_sig, widths = PLAN_SETS["desk"]
        grid, comb = build_grid(f_r, oversampling, t_sig), CombSpec(f_r=f_r, lambda0=LAM0)
        lines = comb_lines(replace(comb, width=widths[-1]))
        for spec in builder_specs(f_r):
            given = delay_plans(spec, comb, grid, widths, lines)
            made = delay_plans(spec, comb, grid, widths)
            assert all(np.array_equal(a.offsets, b.offsets) for a, b in zip(given, made))
        with pytest.raises(ValueError, match="lines hold 2001 lines, where the widest comb has 1001"):
            delay_plans(builder_specs(f_r)[0], comb, grid, widths[:-1], lines)
        assert delay_plans(builder_specs(f_r)[0], comb, grid, ()) == []

    @pytest.mark.parametrize(
        "name, groups",
        [("exact-fill", [15, 15]), ("desk", [11 + 21 + 51 + 101 + 201 + 501 + 1001, 2001]), ("one-line", [1, 1, 1])],
    )
    def test_widths_are_packed_into_groups_no_longer_than_the_widest_plan(self, monkeypatch, name, groups):
        f_r, oversampling, t_sig, widths = PLAN_SETS[name]
        lengths = []

        def counted(spec, lambda_ref, lam):
            lengths.append(len(lam))
            return group_delay(spec, lambda_ref, lam)

        monkeypatch.setattr(dispersion, "group_delay", counted)
        delay_plans(DispersionSpec.ideal(f_r, LAM0), CombSpec(f_r=f_r, lambda0=LAM0), build_grid(f_r, oversampling, t_sig), widths)
        assert lengths == groups

    def test_a_refusal_is_that_of_the_first_refused_width(self):
        comb, grid = CombSpec(f_r=F_R, lambda0=LAM0), make_grid()
        widths = (2e8, 4e8, 1e9)  # 3, 5 and 11 lines: the first two evaluated as one group
        lam = np.array([1500e-9, 1600e-9])
        huge = DispersionSpec.tabulated(F_R, LAM0, lam, 1e20 * eval_dispersion(DispersionSpec.ideal(F_R, LAM0), lam))
        # A table that covers the 3-line comb, not the 5-line one, whose
        # delays overflow: the first width's refusal is "not finite", though
        # its group's wavelengths leave the table.
        narrow = DispersionSpec.tabulated(F_R, LAM0, [LAM0 - 1e-12, LAM0 + 1e-12], [1e308, 1e308])
        for spec, message in ((huge, "int64"), (narrow, "not finite")):
            with pytest.raises(ValueError, match=message) as alone:
                delay_plan(spec, replace(comb, width=widths[0]), grid)
            with pytest.raises(ValueError) as together:
                delay_plans(spec, comb, grid, widths)
            assert str(together.value) == str(alone.value)


class TestOneSampleDispersion:
    def test_full_scale_value(self):
        d = one_sample_dispersion(64, F_R, LAM0)
        assert convert_dispersion(d, "s/m", "ps/nm") == pytest.approx(195000, rel=5e-3)

    def test_halves_with_oversampling(self):
        assert one_sample_dispersion(128, F_R, LAM0) == pytest.approx(
            one_sample_dispersion(64, F_R, LAM0) / 2, rel=1e-14
        )

    def test_refuses_no_oversampling(self):
        with pytest.raises(ValueError, match=r"oversampling must be >= 1"):
            one_sample_dispersion(0, F_R, LAM0)

    def test_one_sample_per_period_is_ideal(self):
        d = one_sample_dispersion(1, F_R, LAM0)
        ideal = eval_dispersion(DispersionSpec.ideal(F_R, LAM0), LAM0)
        assert d == pytest.approx(ideal, rel=1e-4)


class TestMinEffectiveDispersion:
    def test_full_scale_value(self):
        comb = CombSpec(f_r=F_R, lambda0=LAM0, width=3e12)
        grid = make_grid(64)
        d = min_effective_dispersion(comb, grid)
        assert convert_dispersion(d, "s/m", "ps/nm") == pytest.approx(6.5, rel=0.02)

    def test_halves_with_oversampling(self):
        comb = CombSpec(f_r=F_R, lambda0=LAM0, width=3e12)
        d64 = min_effective_dispersion(comb, make_grid(64))
        d128 = min_effective_dispersion(comb, make_grid(128))
        assert d128 == pytest.approx(d64 / 2, rel=1e-14)

    def test_narrower_comb_needs_more(self):
        # One tenth the width means about one tenth the wavelength span.
        grid = make_grid(64)
        wide = min_effective_dispersion(CombSpec(F_R, LAM0, 3e12), grid)
        narrow = min_effective_dispersion(CombSpec(F_R, LAM0, 3e11), grid)
        assert narrow / wide == pytest.approx(10.0, rel=0.01)

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError, match="width"):
            min_effective_dispersion(CombSpec(F_R, LAM0, 0.0), make_grid())


def _taylor_parabola_peak(width, fs):
    """Second-order residual of constant vs ideal at the comb center, samples."""
    d_prime = 2 * C / (LAM0**3 * F_R**2)
    d_lam = LAM0**2 * width / C
    return d_prime / 2 * (d_lam / 2) ** 2 * fs


def _taylor_cubic_span(width, fs):
    """Third-order residual of linear vs ideal across the comb, samples."""
    d_second = 6 * C / (LAM0**4 * F_R**2)
    d_lam = LAM0**2 * width / C
    return d_second / 3 * (d_lam / 2) ** 3 * fs


class TestOffsetDifference:
    def make_plans(self, width, n=64):
        comb = CombSpec(f_r=F_R, lambda0=LAM0, width=width)
        grid = make_grid(n)
        return {
            kind: delay_plan(DispersionSpec(kind, F_R, LAM0), comb, grid)
            for kind in ("ideal", "linear", "constant")
        }

    def test_refuses_plans_on_other_grids(self):
        a, b = self.make_plans(1e10, n=64)["ideal"], self.make_plans(1e10, n=32)["ideal"]
        assert len(a) == len(b)
        with pytest.raises(ValueError, match=r"plans were built on different grids"):
            offset_difference(a, b)

    def test_identical_plans(self):
        plans = self.make_plans(1e10)
        assert np.all(offset_difference(plans["ideal"], plans["ideal"]) == 0)

    def test_linear_matches_ideal_at_100ghz(self):
        plans = self.make_plans(1e11)
        assert np.all(offset_difference(plans["ideal"], plans["linear"]) == 0)

    def test_constant_parabola_at_100ghz(self):
        plans = self.make_plans(1e11)
        diff = offset_difference(plans["ideal"], plans["constant"])
        assert abs(diff[0]) <= 1
        assert abs(diff[-1]) <= 1
        assert np.abs(diff - diff[::-1]).max() <= 1
        peak = _taylor_parabola_peak(1e11, 6.4e9)
        center = diff[len(diff) // 2]
        assert abs(center - peak) <= 1
        assert center == pytest.approx(8, abs=1)

    def test_linear_difference_scales_cubically(self):
        fs = 6.4e9
        for width in (5e11, 1e12, 2e12):
            plans = self.make_plans(width)
            measured = np.abs(offset_difference(plans["ideal"], plans["linear"])).max()
            oracle = _taylor_cubic_span(width, fs)
            assert abs(measured - oracle) <= max(1.0, 0.15 * oracle)

    def test_mismatched_plans_rejected(self):
        a = self.make_plans(1e10)["ideal"]
        b = self.make_plans(2e10)["ideal"]
        with pytest.raises(ValueError, match="line counts"):
            offset_difference(a, b)


class TestDispersionTableFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "element.txt"
        path.write_text(
            "# measured dispersive element\n"
            "1500.0  100.0\n"
            "1550.0  195.0\n"
            "1600.0  310.0\n"
        )
        lam, d = read_dispersion_table(path)
        np.testing.assert_allclose(lam, [1500e-9, 1550e-9, 1600e-9])
        np.testing.assert_allclose(d, [0.1, 0.195, 0.31])

    def test_dispersion_has_the_bits_of_convert_dispersion(self, tmp_path):
        rng = np.random.default_rng(4)
        d_ps_nm = rng.uniform(-2e7, 2e7, 200).tolist()
        path = tmp_path / "table.txt"
        path.write_text("".join(f"{1500 + i} {v!r}\n" for i, v in enumerate(d_ps_nm)))
        _, d = read_dispersion_table(path)
        assert np.array_equal(d, [convert_dispersion(v, "ps/nm", "s/m") for v in d_ps_nm])

    def test_rejects_unsorted(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1600 1\n1500 2\n")
        with pytest.raises(ValueError, match="increasing"):
            read_dispersion_table(path)

    def test_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1500 1 extra\n1600 2\n")
        with pytest.raises(ValueError, match="two columns"):
            read_dispersion_table(path)

    def test_needs_two_rows(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# comment only\n1500 1\n")
        with pytest.raises(ValueError, match="2 data rows"):
            read_dispersion_table(path)
