"""Domain types, unit conversion, and resource estimation."""

import math

import numpy as np
import pytest

from talbotsim.model import (
    SPEED_OF_LIGHT,
    CombSpec,
    NoiseProfile,
    SampledSignal,
    build_grid,
    comb_lines,
    convert_dispersion,
    estimate_memory,
)

C = SPEED_OF_LIGHT


class TestBuildGrid:
    def test_full_scale_values(self):
        grid = build_grid(1e8, 64, 10e-3)
        assert grid.df == 100.0
        assert grid.sample_rate == 6.4e9
        assert grid.n_samples == 64_000_000

    def test_nyquist_minimum(self):
        grid = build_grid(1e8, 2, 1.0)
        assert grid.df == 1.0
        assert grid.sample_rate == 2e8
        assert grid.n_samples == 200_000_000

    def test_desk_point(self):
        grid = build_grid(1e7, 16, 1e-3)
        assert grid.df == 1000.0
        assert grid.sample_rate == 1.6e8
        assert grid.n_samples == 160_000

    def test_rejects_undersampling(self):
        with pytest.raises(ValueError, match="oversampling"):
            build_grid(1e8, 1, 1e-3)

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError, match="samples"):
            build_grid(1e8, 2, 1e-12)

    def test_rejects_non_finite_inputs(self):
        inf = float("inf")
        with pytest.raises(ValueError, match="f_r must be positive and finite"):
            build_grid(inf, 16, 1e-3)
        with pytest.raises(ValueError, match="t_sig must be positive and finite"):
            build_grid(1e8, 16, inf)
        # Finite inputs whose sample count overflows.
        with pytest.raises(ValueError, match="overflows"):
            build_grid(1e307, 64, 1.0)

    def test_df_times_t_sig_is_one(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            f_r = 10 ** rng.uniform(6, 9)
            n = int(rng.integers(2, 129))
            t_sig = 10 ** rng.uniform(-4, 0)
            grid = build_grid(f_r, n, t_sig)
            assert grid.df * grid.t_sig == pytest.approx(1.0, abs=1e-15)

    def test_f_r_roundtrip(self):
        grid = build_grid(1e7, 16, 2e-3)
        assert grid.f_r == 1e7


class TestCombLines:
    def test_line_count_3thz(self):
        comb = CombSpec(f_r=1e8, lambda0=1550e-9, width=3e12)
        assert comb.line_count == 30001
        assert len(comb_lines(comb)) == 30001

    def test_degenerate_comb(self):
        comb = CombSpec(f_r=1e8, lambda0=1550e-9, width=0.0)
        lines = comb_lines(comb)
        assert len(lines) == 1
        assert lines.lam[0] == 1550e-9
        assert lines.index[0] == 0

    def test_adjacent_wavelength_spacing(self):
        # Independent first-order estimate: d(lambda)/d(nu) = -lambda^2/c,
        # so one line spacing is about lambda0^2 * f_r / c.
        comb = CombSpec(f_r=1e8, lambda0=1550e-9, width=2e8)
        lines = comb_lines(comb)
        spacing = lines.lam[0] - lines.lam[1]
        expected = (1550e-9) ** 2 * 1e8 / C
        assert spacing == pytest.approx(expected, rel=1e-5)
        assert expected == pytest.approx(8.01e-13, rel=1e-3)

    def test_monotone_and_centered(self):
        comb = CombSpec(f_r=2.5e7, lambda0=1330e-9, width=1e10)
        lines = comb_lines(comb)
        assert np.all(np.diff(lines.nu) > 0)
        assert np.all(np.diff(lines.lam) < 0)
        mid = len(lines) // 2
        assert lines.index[mid] == 0
        assert lines.lam[mid] == 1330e-9

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            CombSpec(f_r=0.0, lambda0=1550e-9)
        with pytest.raises(ValueError):
            CombSpec(f_r=1e8, lambda0=-1.0)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="center wavelength"):
                CombSpec(f_r=1e8, lambda0=bad)
            with pytest.raises(ValueError, match="repetition rate"):
                CombSpec(f_r=bad, lambda0=1550e-9)
        for width in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="comb width"):
                CombSpec(f_r=1e8, lambda0=1550e-9, width=width)


class TestConvertDispersion:
    def test_full_scale_value(self):
        assert convert_dispersion(195000.0, "ps/nm", "s/m") == pytest.approx(195.0)

    def test_zero(self):
        assert convert_dispersion(0.0, "ps/nm", "s/m") == 0.0
        assert convert_dispersion(0.0, "s/m", "ps/nm") == 0.0

    def test_small_value(self):
        assert convert_dispersion(6.5, "ps/nm", "s/m") == pytest.approx(6.5e-3)

    def test_identity(self):
        assert convert_dispersion(17.0, "s/m", "s/m") == 17.0

    def test_roundtrip_within_one_ulp(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            value = float(rng.uniform(-1e6, 1e6))
            back = convert_dispersion(convert_dispersion(value, "ps/nm", "s/m"), "s/m", "ps/nm")
            assert back == pytest.approx(value, abs=math.ulp(value))

    def test_power_of_two_friendly_roundtrip_exact(self):
        for value in (0.0, 1.0, 2.0, 0.5, 195000.0, 64.0, 4096.0):
            back = convert_dispersion(convert_dispersion(value, "ps/nm", "s/m"), "s/m", "ps/nm")
            assert back == value

    def test_unknown_unit(self):
        with pytest.raises(ValueError, match="unknown"):
            convert_dispersion(1.0, "ps/km", "s/m")


class TestEstimateMemory:
    def test_full_band_figure(self):
        comb = CombSpec(f_r=1e8, lambda0=1550e-9, width=3e12)
        grid = build_grid(1e8, 2, 10e-3)
        n_bytes = estimate_memory("full_band", comb, grid, 8)
        assert n_bytes == 4.8e11
        assert n_bytes / 2**30 == pytest.approx(447.0, abs=0.5)

    def test_reduced_figure(self):
        comb = CombSpec(f_r=1e8, lambda0=1550e-9, width=0.0)
        grid = build_grid(1e8, 2, 10e-3)
        n_bytes = estimate_memory("reduced", comb, grid, 8)
        assert n_bytes == 1.6e7
        assert n_bytes / 2**20 == pytest.approx(15.3, abs=0.1)

    def test_ratio_is_width_over_f_r(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            f_r = float(rng.choice([1, 2, 5])) * 10 ** int(rng.integers(6, 10))
            width = f_r * int(rng.integers(10, 10_000))
            t_sig = float(rng.choice([1, 2, 5])) * 10 ** int(rng.integers(-4, -1))
            comb = CombSpec(f_r=f_r, lambda0=1550e-9, width=width)
            grid = build_grid(f_r, 2, t_sig)
            full = estimate_memory("full_band", comb, grid, 8)
            reduced = estimate_memory("reduced", comb, grid, 8)
            assert full / reduced == pytest.approx(width / f_r, rel=1e-9)

    def test_oversampling_scales_reduced(self):
        comb = CombSpec(f_r=1e8, lambda0=1550e-9, width=0.0)
        base = estimate_memory("reduced", comb, build_grid(1e8, 2, 1e-2))
        for n in (4, 8, 64):
            scaled = estimate_memory("reduced", comb, build_grid(1e8, n, 1e-2))
            assert scaled == base * n // 2

    def test_unknown_representation(self):
        with pytest.raises(ValueError, match="representation"):
            estimate_memory("both", CombSpec(f_r=1.0, lambda0=1550e-9, width=1.0), build_grid(1.0, 2, 1.0))


class TestSampledSignal:
    def test_rejects_two_dimensional_samples(self):
        with pytest.raises(ValueError, match=r"samples must be one-dimensional"):
            SampledSignal(samples=np.zeros((2, 4)), sample_rate=1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SampledSignal(samples=np.array([0.0, np.nan]), sample_rate=1.0)

    def test_samples_read_only(self):
        sig = SampledSignal(samples=np.zeros(4), sample_rate=1.0)
        with pytest.raises(ValueError):
            sig.samples[0] = 1.0


class TestNoiseProfile:
    def test_psd_evaluation(self):
        profile = NoiseProfile(terms=((0.0, 1e-11), (-2.0, 1e-1)), f_low=1.0)
        assert profile.psd(1e4) == pytest.approx(1.01e-9)
        assert profile.psd(1e6) == pytest.approx(1.01e-11, rel=1e-3)

    def test_f_low_clamp(self):
        profile = NoiseProfile(terms=((-2.0, 1.0),), f_low=10.0)
        assert profile.psd(1.0) == profile.psd(10.0)

    def test_requires_f_low_for_divergent_terms(self):
        with pytest.raises(ValueError, match="f_low"):
            NoiseProfile(terms=((-1.0, 1.0),), f_low=0.0)
