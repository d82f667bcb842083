"""Delay-and-sum on the periodic window: superpose and power_at_bins."""

import math

import numpy as np
import pytest

from talbotsim.analysis import periodogram
from talbotsim.dispersion import DelayPlan, DispersionSpec, delay_plan
from talbotsim.model import CombSpec, NoiseProfile, SampledSignal, build_grid
from talbotsim.superposition import _RUN, _wrap, lag_histogram, power_at_bins, scratch, superpose
from talbotsim.synthesis import SynthesisRequest, synth_carrier


def make_plan(offsets, n_samples, oversampling=4, f_r=1e6):
    offsets = np.asarray(offsets, dtype=np.int64)
    grid = build_grid(f_r, oversampling, n_samples / (oversampling * f_r))
    assert grid.n_samples == n_samples
    return DelayPlan(offsets=offsets, grid=grid)


def make_plan_on(n_samples, offsets):
    """A plan of ``offsets`` on a window of ``n_samples`` samples at 4 Hz."""
    grid = build_grid(1.0, 4, n_samples / 4.0)
    assert grid.n_samples == n_samples
    return DelayPlan(offsets=np.asarray(offsets, dtype=np.int64), grid=grid)


def make_signal(samples, fs=4e6):
    return SampledSignal(samples=np.asarray(samples, dtype=np.float64), sample_rate=fs)


def roll_sum(x, plan):
    """Reference delay-and-sum: one circular shift per line, summed directly."""
    data = np.asarray(x.samples, dtype=np.float64)
    return sum(np.roll(data, int(d)) for d in plan.offsets) / len(plan)


def unfolded_power_transfer(plan):
    """Reference |H|^2: the n-point rFFT of the kernel at the offsets mod n."""
    n = plan.grid.n_samples
    h = np.fft.rfft(np.bincount(plan.offsets % n, minlength=n) / len(plan))
    return h.real**2 + h.imag**2


def every_bin(plan):
    return np.arange(plan.grid.n_samples // 2 + 1)


class TestTimeEngine:
    """``superpose`` in the time domain: the detected samples themselves."""

    def test_impulse_response(self):
        n = 16
        x = np.zeros(n)
        x[0] = 1.0
        plan = make_plan([0, 3], n)
        y = superpose(make_signal(x), plan)
        expected = np.zeros(n)
        expected[0] = 0.5
        expected[3] = 0.5
        np.testing.assert_allclose(y.samples, expected, atol=1e-15)

    def test_single_line_identity(self):
        n = 64
        rng = np.random.default_rng(0)
        x = rng.standard_normal(n)
        plan = make_plan([0], n)
        y = superpose(make_signal(x), plan)
        np.testing.assert_allclose(y.samples, x, atol=1e-12)

    def test_pure_tone_ideal_plan_is_transparent(self):
        # Whole-period delays of a whole-period window leave a pure tone
        # unchanged sample for sample.
        f_r, n_os, t_sig = 1e7, 16, 2e-4
        grid = build_grid(f_r, n_os, t_sig)
        comb = CombSpec(f_r=f_r, lambda0=1550e-9, width=16 * f_r)
        plan = delay_plan(DispersionSpec.ideal(f_r, 1550e-9), comb, grid)
        signal = synth_carrier(SynthesisRequest(grid=grid))
        y = superpose(signal, plan)
        window = np.asarray(signal.samples, dtype=np.float64)
        np.testing.assert_allclose(y.samples, window, atol=1e-9 * np.abs(window).max())

    def test_rejects_short_input(self):
        plan = make_plan([0, 8], 16)
        with pytest.raises(ValueError, match="window"):
            superpose(make_signal(np.zeros(12)), plan)


class TestSpectralEngine:
    """The plan as one transfer H on the window's rFFT bins."""

    def test_matches_time_engine_randomized(self):
        # Offsets run up to 3 windows, so they wrap modulo n.
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(16, 4097))
            k = int(rng.integers(1, 65))
            max_off = int(rng.integers(0, 3 * n))
            offsets = np.concatenate(([0], rng.integers(0, max_off + 1, size=k - 1)))
            plan = make_plan(offsets, n)
            x = make_signal(rng.standard_normal(n))
            tol = 1e-9 * k * np.abs(x.samples).max()
            assert np.abs(superpose(x, plan).samples - roll_sum(x, plan)).max() <= tol

    def test_identity_mask(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(128)
        plan = make_plan([0], 128)
        y = superpose(make_signal(x), plan)
        np.testing.assert_allclose(y.samples, x, atol=1e-12)
        np.testing.assert_array_equal(power_at_bins(plan, np.arange(65)), np.ones(65))

    def test_half_period_cancellation(self):
        # Two copies half a carrier period apart interfere destructively.
        f_r, n_os, t_sig = 1e6, 8, 64e-6
        grid = build_grid(f_r, n_os, t_sig)
        plan = DelayPlan(offsets=np.array([0, n_os // 2]), grid=grid)
        signal = synth_carrier(SynthesisRequest(grid=grid))
        y = superpose(signal, plan)
        assert np.abs(y.samples).max() < 1e-6

    def test_power_transfer_matches_direct_sum(self):
        # |(1/K) sum_k exp(-2 pi i j d_k / n)|^2, evaluated bin by bin.
        rng = np.random.default_rng(11)
        n = 1000
        offsets = np.concatenate(([0], rng.integers(0, 5 * n, size=40)))
        plan = make_plan(offsets, n)
        bins = np.arange(n // 2 + 1)
        direct = np.abs(np.exp(-2j * np.pi * np.outer(bins, offsets) / n).mean(axis=1)) ** 2
        np.testing.assert_allclose(power_at_bins(plan, bins), direct, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1000, 1001, 4096, 4099])
    def test_power_at_bins_matches_unfolded_transform(self, n):
        # Even and odd windows; g = 1 and g > 1; offsets that repeat mod n
        # and run past n; bins at DC and Nyquist, lone bins, short runs,
        # and runs longer than one stepping run.
        rng = np.random.default_rng(n)
        top = n // 2
        plans = [
            make_plan([0, 3, n + 3, 7, 2 * n, 5 * n - 1, 7], n),
            make_plan([0, 1, 2 * n + 2], n),
            make_plan(np.concatenate(([0], rng.integers(0, 4 * n, size=300))), n),
            make_plan(np.concatenate(([0], 8 * rng.integers(0, n, size=120), [8, 8, n + 8])), n),
        ]
        if n % 2 == 0:
            plans.append(make_plan([0, n // 2, 3 * n // 2, n], n))
        selections = [
            every_bin(plans[0]),
            np.array([0, top]),
            np.array([0, 1, 2, 5, 6, 7, 8, 9, 10, 3 * _RUN, top - 1, top]),
            np.unique(rng.integers(0, top + 1, size=40)),
            np.arange(7, 7 + 3 * _RUN + 5),
        ]
        for plan in plans:
            expected = unfolded_power_transfer(plan)
            for bins in selections:
                np.testing.assert_allclose(power_at_bins(plan, bins), expected[bins], rtol=0, atol=1e-12)

    def test_power_at_bins_refuses_bins_outside_the_window(self):
        plan = make_plan([0, 3], 16)
        for bins in ([-1, 2], [3, 9], [4, 4], [5, 2], [[1, 2]]):
            with pytest.raises(ValueError, match="bins"):
                power_at_bins(plan, bins)
        assert power_at_bins(plan, []).shape == (0,)

    def test_power_transfer_in_workspace_is_bit_equal(self):
        # Even and odd windows; offsets that repeat mod n and run past n.
        # Each call takes scratch that the call before freed, or a scratch
        # used before, or a new one; the bits are the same every time.  A
        # scratch of another window is refused.
        for n in (1000, 1001):
            plans = [make_plan([0, 3, n + 3, 7, 2 * n, 5 * n - 1, 7], n), make_plan([0, 1, 2 * n + 2], n)]
            first = scratch(n)
            for plan in plans:
                for bins in (every_bin(plan), np.array([0, 4, 5, 6, n // 2])):
                    got = power_at_bins(plan, bins)
                    assert np.array_equal(got, power_at_bins(plan, bins))
                    assert np.array_equal(got, power_at_bins(plan, bins, first))
                    assert np.array_equal(got, power_at_bins(plan, bins, scratch(n)))
                    np.testing.assert_allclose(got, unfolded_power_transfer(plan)[bins], rtol=0, atol=1e-12)
                with pytest.raises(ValueError, match="scratch of a 2002-sample window"):
                    power_at_bins(plan, bins, scratch(2002))

    @pytest.mark.parametrize(
        "n, g, offsets",
        [
            (1000, 2, [0, 2, 14, 1006, 2008]),
            # Offsets past n, and 16 and 1616 repeat mod n.
            (1600, 16, [0, 16, 48, 1616, 1120, 16, 4800 + 96]),
            (1000, 8, [0, 8, 40, 1016, 2992]),  # period 125, odd
            (1001, 7, [0, 7, 70, 1015, 7]),  # odd n, period 143
            (1001, 13, [0, 13, 2002 + 26]),  # odd n, period 77
        ],
        ids=["g2", "g16", "g8-odd-period", "odd-n-g7", "odd-n-g13"],
    )
    def test_power_transfer_folds_to_one_period(self, n, g, offsets):
        # Every offset mod n is a multiple of g, so |H|^2 repeats every
        # n/g bins, and is even within the period.
        plan = make_plan(offsets, n)
        assert np.gcd.reduce(plan.offsets % n, initial=n) == g
        bins = every_bin(plan)
        got = power_at_bins(plan, bins)
        np.testing.assert_allclose(got, unfolded_power_transfer(plan), rtol=0, atol=1e-12)
        period = n // g
        np.testing.assert_allclose(got[period:], got[: len(got) - period], rtol=0, atol=1e-12)
        mirror = got[1 : (period + 1) // 2]
        np.testing.assert_allclose(mirror, got[period - 1 : period // 2 : -1][: len(mirror)], rtol=0, atol=1e-12)
        assert np.array_equal(power_at_bins(plan, bins), got)

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_power_transfer_of_period_one_is_flat(self, n):
        # One line, or every offset 0 mod n: one copy of the carrier, H = 1.
        for offsets in ([0], [0, n, 3 * n]):
            plan = make_plan(offsets, n)
            bins = every_bin(plan)
            for _ in range(2):  # the second call takes the scratch the first freed
                assert np.array_equal(power_at_bins(plan, bins), np.ones(n // 2 + 1))

    def test_power_transfer_workspace_leaves_no_stale_tiles(self):
        # Three plans in turn, on different bins, each call on scratch the
        # one before freed; each result must match that plan alone on
        # every bin.
        n = 1600
        plans = [make_plan([0, 16, 1632, 480], n), make_plan([0, 3, 1601, 16], n), make_plan([0, 32, 64, 3280], n)]
        selections = [every_bin(plans[0]), np.array([1, 2, 3, 700]), np.arange(100, 300)]
        for plan in plans:
            for bins in selections:
                got = power_at_bins(plan, bins)
                assert np.array_equal(got, power_at_bins(plan, bins))
                np.testing.assert_allclose(got, unfolded_power_transfer(plan)[bins], rtol=0, atol=1e-12)

    def test_periodogram_is_carrier_times_power_transfer(self):
        f_r, n_os, t_sig = 1e7, 16, 2e-4
        grid = build_grid(f_r, n_os, t_sig)
        comb = CombSpec(f_r=f_r, lambda0=1550e-9, width=2e10)
        plan = delay_plan(DispersionSpec.constant(f_r, 1550e-9), comb, grid)
        noise = NoiseProfile(terms=((0.0, 1e-11), (-2.0, 1e-1)), f_low=grid.df)
        x = synth_carrier(SynthesisRequest(grid=grid, noise=noise, seed=4))
        _, psd_x = periodogram(x)
        _, psd_y = periodogram(superpose(x, plan))
        scale = psd_x.max()
        gain = power_at_bins(plan, every_bin(plan))
        np.testing.assert_allclose(psd_y / scale, psd_x * gain / scale, rtol=0, atol=1e-12)


class TestLagHistogram:
    """The plan as a histogram of its offsets mod n, and the exact
    arithmetic ``power_at_bins`` does on it."""

    def test_holds_each_offset_mod_n_with_its_lines(self):
        n = 1000
        plan = make_plan([7, n + 3, 3, 0, 2 * n, 5 * n - 1, 7, 3 + 4 * n], n)
        lags = lag_histogram(plan)
        assert (lags.n, lags.lines) == (n, 8)
        assert lags.values.tolist() == [0, 3, 7, n - 1]
        assert lags.repeats.tolist() == [0, 1, 2] and lags.counts.tolist() == [2, 3, 2]
        assert lags.repeats.dtype == lags.counts.dtype == np.int32
        # At most 8 bytes a line, as its plan holds.
        assert lags.values.nbytes + lags.repeats.nbytes + lags.counts.nbytes <= plan.offsets.nbytes
        distinct = lag_histogram(make_plan([5, 0, n + 2], n))
        assert distinct.values.tolist() == [0, 2, 5] and len(distinct.repeats) == len(distinct.counts) == 0

    def test_floor_division_index_equals_remainder(self):
        # The largest window whose phase index (n/2)(n - 1) the int64
        # guard admits; j <= n/2 and u < n, drawn at random and at the ends.
        n = math.isqrt(1 << 64)
        while (n // 2) * (n - 1) >= 1 << 63:
            n -= 1
        with pytest.raises(ValueError, match="overflows"):
            power_at_bins(make_plan_on(n + 1, [0, 1]), [0])
        rng = np.random.default_rng(5)
        j = np.concatenate((rng.integers(0, n // 2 + 1, 100000), [0, 1, n // 2, n // 2]))
        u = np.concatenate((rng.integers(0, n, 100000), [n - 1, 0, n - 1, 1]))
        index = j * u
        assert np.array_equal(_wrap(index.copy(), n, np.empty_like(index)), np.remainder(index, n))

    @pytest.mark.parametrize("n", [1000, 320000])
    def test_weights_of_one_line_are_skipped_exactly(self, n):
        # power_at_bins weights only the offsets that hold more than one
        # line; weighting every offset, by 1 where it holds one, gives the
        # same bits.  A plan with no repeat, and one with a few.
        rng = np.random.default_rng(6)
        bins = np.unique(rng.integers(0, n // 2 + 1, 300))
        for offsets in (np.arange(4001) * 37 % n, np.concatenate((np.arange(3000) * 41, rng.integers(0, 5 * n, 40)))):
            lags = lag_histogram(make_plan_on(n, offsets))
            counts = np.ones(len(lags.values), np.int32)
            counts[lags.repeats] = lags.counts
            every = lags._replace(repeats=np.arange(len(lags.values), dtype=np.int32), counts=counts)
            assert np.array_equal(power_at_bins(lags, bins), power_at_bins(every, bins))
            assert np.array_equal(power_at_bins(lags, bins), power_at_bins(make_plan_on(n, offsets), bins))

    def test_plans_are_the_same_when_their_offsets_mod_n_are(self):
        n = 1000
        base = lag_histogram(make_plan([0, 3, 3, 7, 999], n))
        assert base.same(lag_histogram(make_plan([n + 3, 999, 7, 3 + 2 * n, 0], n)))
        for other in ([0, 3, 7, 7, 999], [0, 3, 7, 999], [0, 3, 3, 7, 999, 999], [0, 3, 3, 8, 999]):
            assert not base.same(lag_histogram(make_plan(other, n))), other
        # One multiset on another window is another plan.
        assert not base.same(lag_histogram(make_plan([0, 3, 3, 7, 999], 1001)))


class TestManyPlans:
    """``power_at_bins`` of a list of plans: each row is its plan's |H|^2
    summed alone, bit for bit, however the plans pack into tiles."""

    def assert_rows_alone(self, plans, bins):
        got = power_at_bins([lag_histogram(plan) for plan in plans], bins)
        assert got.shape == (len(plans), len(bins))
        for row, plan in zip(got, plans):
            assert np.array_equal(row, power_at_bins(plan, bins))
        return got

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_one_line_bare_plans(self, n):
        plans = [make_plan([0], n), make_plan([0, n, 3 * n], n), make_plan([0], n)]
        got = self.assert_rows_alone(plans, every_bin(plans[0]))
        assert np.array_equal(got, np.ones((3, n // 2 + 1)))

    def test_plans_with_repeats(self):
        n = 1600
        plans = [make_plan([0, 16, 1616, 16, 480, 3200], n), make_plan([0, 3, 1603, 3, 3, 7], n), make_plan([0, 5], n)]
        for bins in (every_bin(plans[0]), np.array([1, 2, 3, 700, 701, 800])):
            self.assert_rows_alone(plans, bins)

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_mixed_lengths_pack_across_tiles(self, n):
        # A third of the window is the scratch's length, which bounds a
        # chunk: 400 distinct offsets are more than one chunk, and the
        # shorter plans share tiles with each other and with its pieces.
        rng = np.random.default_rng(7)
        lengths = (1, 3, 50, 400, 7, 120, 2, 333, 90)
        plans = [make_plan(np.concatenate(([0], rng.permutation(3 * n)[: k - 1])), n) for k in lengths]
        assert max(len(lag_histogram(plan).values) for plan in plans) > n // 3
        for bins in (every_bin(plans[0]), np.unique(rng.integers(0, n // 2 + 1, 40)), np.array([5])):
            self.assert_rows_alone(plans, bins)
            self.assert_rows_alone(plans[::-1], bins)

    def test_empty_bins(self):
        plans = [make_plan([0, 3], 16), make_plan([0], 16)]
        assert power_at_bins(plans, []).shape == (2, 0)

    def test_refuses_no_plan_and_plans_on_two_windows(self):
        with pytest.raises(ValueError, match="at least one plan"):
            power_at_bins([], [0])
        with pytest.raises(ValueError, match="windows of"):
            power_at_bins([make_plan([0, 3], 16), make_plan([0, 3], 32)], [0])


class TestLinearity:
    def test_linear_combination(self):
        rng = np.random.default_rng(3)
        n = 256
        plan = make_plan([0, 5, 17], n)
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)
        a, b = 2.5, -1.25
        lhs = superpose(make_signal(a * x1 + b * x2), plan).samples
        rhs = a * superpose(make_signal(x1), plan).samples + b * superpose(make_signal(x2), plan).samples
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_global_shift_leaves_periodogram_unchanged(self):
        # Adding a constant to every raw delay only shifts the periodic
        # output in time, so the periodogram is unchanged.
        n = 512
        shift = 37
        plan = make_plan([0, 9, 30], n)
        t = np.arange(n)
        x = (
            np.sin(2 * np.pi * 8 * t / n)
            + 0.5 * np.sin(2 * np.pi * 32 * t / n + 0.3)
            + 0.25 * np.sin(2 * np.pi * 100 * t / n + 1.1)
        )
        y = superpose(make_signal(x), plan)
        y_shifted = superpose(make_signal(np.roll(x, shift)), plan)
        _, psd = periodogram(y)
        _, psd_shifted = periodogram(y_shifted)
        scale = psd.max()
        np.testing.assert_allclose(psd_shifted / scale, psd / scale, atol=1e-9)


def _band_mean_l(signal, plan, f_r, f_lo, f_hi):
    """Mean linear sideband density over [f_lo, f_hi], both sidebands."""
    y = superpose(signal, plan) if plan is not None else signal
    freqs, psd = periodogram(y)
    df = freqs[1] - freqs[0]
    carrier_bin = int(round(f_r / df))
    carrier = psd[carrier_bin] * df
    upper = (freqs >= f_r + f_lo) & (freqs <= f_r + f_hi)
    lower = (freqs >= f_r - f_hi) & (freqs <= f_r - f_lo)
    return (psd[upper].mean() + psd[lower].mean()) / (2 * carrier)


class TestAveragingLaws:
    F_R = 1e7
    N_OS = 16

    def _improvement(self, k_lines, band):
        """Band improvement (dB) of a K-copy one-period-spaced plan vs no plan."""
        grid = build_grid(self.F_R, self.N_OS, 2e-3)
        offsets = np.arange(k_lines, dtype=np.int64) * self.N_OS
        plan = DelayPlan(offsets=offsets, grid=grid)
        noise = NoiseProfile(terms=((0.0, 1e-11),), f_low=grid.df)
        max_delay = plan.max_offset / grid.sample_rate
        f_lo, f_hi = band(max_delay, grid)
        gains = []
        for seed in range(10):
            signal = synth_carrier(SynthesisRequest(grid=grid, noise=noise, seed=seed))
            base = _band_mean_l(signal, None, self.F_R, f_lo, f_hi)
            filtered = _band_mean_l(signal, plan, self.F_R, f_lo, f_hi)
            gains.append(10 * np.log10(base / filtered))
        return float(np.mean(gains))

    def test_white_noise_averaging_gain_16_lines(self):
        def band(max_delay, grid):
            return 3.0 / max_delay, grid.sample_rate / 2 - 2 * self.F_R

        assert self._improvement(16, band) == pytest.approx(10 * np.log10(16), abs=2.0)

    def test_white_noise_averaging_gain_64_lines(self):
        def band(max_delay, grid):
            return 3.0 / max_delay, grid.sample_rate / 2 - 2 * self.F_R

        assert self._improvement(64, band) == pytest.approx(10 * np.log10(64), abs=2.0)

    def test_no_averaging_near_carrier(self):
        def band(max_delay, grid):
            return grid.df, 0.01 / max_delay

        assert abs(self._improvement(16, band)) < 1.0
