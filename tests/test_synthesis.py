"""Carrier and phase-track synthesis."""

import sys
import threading

import numpy as np
import pytest

from talbotsim.analysis import passband_periodogram, periodogram, phase_noise_spectrum
from talbotsim.model import NoiseProfile, bin_spacing, build_grid
from talbotsim.synthesis import (
    SynthesisRequest,
    Workspace,
    _phase_track,
    default_noise_profile,
    synth_carrier,
    synth_envelope,
)


def synth_phase_track(noise, length, sample_rate, seed):
    """The phase track (rad) that modulates the carrier of ``noise`` and
    ``seed`` on ``length`` samples at ``sample_rate``: seeded Gaussian
    spectral coefficients scaled to the one-sided density ``noise``, DC
    forced to zero, inverse transformed."""
    return _phase_track(Workspace(length, sample_rate, noise), seed)


class TestPhaseTrack:
    def test_white_profile_variance(self):
        # Parseval oracle: integrating the target density over the band
        # gives the expected sample variance b0 * Fs / 2.
        b0 = 1e-10
        fs = 1.6e8
        length = 2**20
        profile = NoiseProfile(terms=((0.0, b0),), f_low=1.0)
        variances = []
        for seed in range(10):
            phi = synth_phase_track(profile, length, fs, seed)
            variances.append(np.var(phi))
        assert np.mean(variances) == pytest.approx(b0 * fs / 2, rel=0.10)

    def test_zero_profile(self):
        profile = NoiseProfile(terms=(), f_low=1.0)
        phi = synth_phase_track(profile, 4096, 1e6, seed=1)
        assert np.all(phi == 0.0)

    def test_deterministic(self):
        profile = default_noise_profile(f_low=100.0)
        a = synth_phase_track(profile, 8192, 1e8, seed=42)
        b = synth_phase_track(profile, 8192, 1e8, seed=42)
        assert np.array_equal(a, b)
        c = synth_phase_track(profile, 8192, 1e8, seed=43)
        assert not np.array_equal(a, c)

    def test_rejects_negative_profile(self):
        profile = NoiseProfile(terms=((0.0, 1e-10), (1.0, -1e-10)), f_low=1.0)
        with pytest.raises(ValueError, match="negative"):
            synth_phase_track(profile, 4096, 1e6, seed=0)

    def test_rejects_overflowing_profile(self):
        profile = NoiseProfile(terms=((0.0, 1e308),), f_low=1.0)
        with pytest.raises(ValueError, match="overflows"):
            synth_phase_track(profile, 4096, 1e6, seed=0)

    def test_rejects_short_track(self):
        with pytest.raises(ValueError, match="2 samples"):
            synth_phase_track(default_noise_profile(), 1, 1e6, seed=0)

    def test_shaped_spectrum_follows_target(self):
        # Periodogram of the synthesized track, averaged over seeds and
        # log-spaced bands, matches the requested power law.
        fs = 1.6e8
        length = 2**18
        profile = NoiseProfile(terms=((0.0, 1e-11), (-2.0, 1e-1)), f_low=fs / length)
        freqs = np.fft.rfftfreq(length, 1.0 / fs)
        acc = np.zeros(len(freqs))
        n_seeds = 8
        for seed in range(n_seeds):
            phi = synth_phase_track(profile, length, fs, seed)
            spec = np.fft.rfft(phi)
            psd = (np.abs(spec) ** 2) * (2.0 / (fs * length))
            acc += psd / n_seeds
        for f_lo, f_hi in ((1e4, 3e4), (1e6, 3e6), (1e7, 3e7)):
            band = (freqs >= f_lo) & (freqs < f_hi)
            measured = acc[band].mean()
            target = profile.psd(freqs[band]).mean()
            assert measured == pytest.approx(target, rel=0.15)


class TestCarrier:
    def test_pure_tone_quarter_period(self):
        grid = build_grid(1e6, 4, 1e-6)
        signal = synth_carrier(SynthesisRequest(grid=grid))
        assert len(signal) == 4
        np.testing.assert_allclose(signal.samples, [0.0, 1.0, 0.0, -1.0], atol=1e-12)

    def test_pure_tone_power_concentration(self):
        # Discrete orthogonality: an integer number of carrier periods
        # puts essentially all power in the carrier bin.
        grid = build_grid(1e7, 16, 2e-4)
        signal = synth_carrier(SynthesisRequest(grid=grid))
        spec = np.fft.rfft(np.asarray(signal.samples, dtype=np.float64))
        power = np.abs(spec) ** 2
        carrier_bin = int(round(grid.f_r / grid.df))
        assert power[carrier_bin] / power.sum() > 0.999

    def test_deterministic(self):
        grid = build_grid(1e7, 16, 2e-4)
        noise = default_noise_profile(f_low=grid.df)
        a = synth_carrier(SynthesisRequest(grid=grid, noise=noise, seed=5))
        b = synth_carrier(SynthesisRequest(grid=grid, noise=noise, seed=5))
        assert np.array_equal(a.samples, b.samples)

    @staticmethod
    def _sideband_oracle(profile, f, f_c):
        # A real PM carrier has an image sideband mirrored across DC:
        # the measured double-sideband-average density at offset f is
        # (2 S(f) + S(2 f_c + f) + S(|2 f_c - f|)) / 4, which reduces to
        # the textbook S/2 only where S(f) dominates its images.
        return (
            2 * profile.psd(f) + profile.psd(2 * f_c + f) + profile.psd(abs(2 * f_c - f))
        ) / 4.0

    #: Expected ratio of a median-of-3 estimate to the true density for
    #: exponentially distributed periodogram bins: E[X(2:3)] = (1/3+1/2) mu.
    _MEDIAN3_BIAS = 5.0 / 6.0

    def test_impaired_carrier_l_matches_injected(self):
        # Small-angle oracle including the image sideband and the
        # documented median-of-3 estimator bias; 10-seed average from
        # 10*df up to Fs/20.
        grid = build_grid(1e7, 16, 2e-3)
        b0 = 1e-10
        noise = NoiseProfile(terms=((0.0, b0),), f_low=grid.df)
        offsets = np.geomspace(10 * grid.df, grid.sample_rate / 20, 12)
        acc = []
        for seed in range(10):
            signal = synth_carrier(SynthesisRequest(grid=grid, noise=noise, seed=seed))
            spectrum = phase_noise_spectrum(signal, grid.f_r, offsets)
            acc.append(10 ** (spectrum.l_dbc / 10))
        mean_l_db = 10 * np.log10(np.mean(acc, axis=0))
        expected = 10 * np.log10(
            self._MEDIAN3_BIAS * self._sideband_oracle(noise, offsets, grid.f_r)
        )
        assert np.all(np.abs(mean_l_db - expected) < 1.5)

    def test_impaired_carrier_matches_s_over_two_where_narrowband(self):
        # Where the injected density dominates its DC-mirrored images by
        # 20 dB or more, the textbook identity L = S/2 holds within 2 dB
        # (after the known median-of-3 estimator bias).
        grid = build_grid(1e7, 16, 2e-3)
        noise = NoiseProfile(terms=((0.0, 1e-11), (-2.0, 1e-1)), f_low=grid.df)
        offsets = np.geomspace(10 * grid.df, 2e4, 8)
        image = self._sideband_oracle(noise, offsets, grid.f_r) - noise.psd(offsets) / 2
        narrowband = noise.psd(offsets) / 2 >= 100 * image
        assert narrowband.sum() >= 4
        acc = []
        for seed in range(20):
            signal = synth_carrier(SynthesisRequest(grid=grid, noise=noise, seed=seed))
            spectrum = phase_noise_spectrum(signal, grid.f_r, offsets)
            acc.append(10 ** (spectrum.l_dbc / 10))
        mean_l_db = 10 * np.log10(np.mean(acc, axis=0))
        expected = 10 * np.log10(self._MEDIAN3_BIAS * noise.psd(offsets) / 2)
        assert np.all(np.abs(mean_l_db[narrowband] - expected[narrowband]) < 2.0)

    def test_pure_tone_floor_decreases_with_oversampling(self):
        # The single-precision storage quantization floor drops as the
        # sample rate grows; the pure tone tracks it monotonically.
        f_r, t_sig = 1e7, 2e-3
        offsets = [1e4, 1e6]
        floors = []
        for n in (4, 8, 16, 32, 64):
            grid = build_grid(f_r, n, t_sig)
            signal = synth_carrier(SynthesisRequest(grid=grid))
            floors.append(phase_noise_spectrum(signal, f_r, offsets).l_dbc)
        floors = np.asarray(floors)
        assert np.all(np.diff(floors, axis=0) < 0)


class TestDefaultProfile:
    def test_density_values(self):
        profile = default_noise_profile(f_low=100.0)
        assert profile.psd(1e4) == pytest.approx(1.01e-9, rel=1e-6)
        assert profile.psd(1e6) == pytest.approx(1.01e-11, rel=1e-3)

    def test_small_angle_level_at_10khz(self):
        # Self-consistency: L ~ S/2 puts the default profile near
        # -93 dBc/Hz at 10 kHz offset.
        profile = default_noise_profile(f_low=100.0)
        l_db = 10 * np.log10(profile.psd(1e4) / 2)
        assert l_db == pytest.approx(-93.0, abs=0.5)


def formula_carrier(grid, noise, seed):
    """The carrier written out with fresh arrays: ramp plus shaped track, sine, float32."""
    n = grid.n_samples
    phase = np.arange(n, dtype=np.float64) * (2.0 * np.pi * grid.f_r / grid.sample_rate)
    if noise is not None:
        f = np.fft.rfftfreq(n, 1.0 / grid.sample_rate)
        scale = np.sqrt(noise.psd(f) * grid.sample_rate * n / 2.0)
        rng = np.random.default_rng(seed)
        coeff = rng.standard_normal(len(f)) + 1j * rng.standard_normal(len(f))
        coeff *= scale / np.sqrt(2.0)
        coeff[0] = 0.0
        if n % 2 == 0:
            coeff[-1] = np.sqrt(2.0) * coeff[-1].real
        phase = phase + np.fft.irfft(coeff, n=n)
    return np.sin(phase).astype(np.float32)


def formula_periodogram(samples, sample_rate):
    data = samples.astype(np.float64)
    n = len(data)
    spec = np.fft.rfft(data)
    psd = (spec.real**2 + spec.imag**2) * (2.0 / (sample_rate * n))
    psd[0] *= 0.5
    if n % 2 == 0:
        psd[-1] *= 0.5
    return np.fft.rfftfreq(n, 1.0 / sample_rate), psd


EVEN = build_grid(1e7, 16, 2e-4)  # 32000 samples
ODD = build_grid(1e7, 5, 2.001e-4)  # 10005 samples


class TestWorkspace:
    """A reused workspace gives the same bits as fresh calls and as the formula."""

    def check(self, grid, noise, seed, ws):
        request = SynthesisRequest(grid=grid, noise=noise, seed=seed)
        carrier = synth_carrier(request, ws)
        fresh = synth_carrier(request)
        expected = formula_carrier(grid, noise, seed)
        assert np.array_equal(carrier.samples, fresh.samples)
        assert np.array_equal(carrier.samples, expected)
        psd = passband_periodogram(carrier, ws)
        fresh_freqs, fresh_psd = periodogram(fresh)
        ref_freqs, ref_psd = formula_periodogram(expected, grid.sample_rate)
        assert np.array_equal(fresh_freqs, ref_freqs)
        assert np.array_equal(psd, fresh_psd) and np.array_equal(psd, ref_psd)
        return carrier.samples.copy(), psd.copy()

    @pytest.mark.parametrize("grid", [EVEN, ODD], ids=["even", "odd"])
    @pytest.mark.parametrize("noisy", [True, False], ids=["noise", "pure-tone"])
    def test_seeds_through_one_workspace(self, grid, noisy):
        noise = default_noise_profile(f_low=grid.df) if noisy else None
        ws = Workspace(grid.n_samples, grid.sample_rate, noise)
        for seed in (0, 1, 7, 1):
            self.check(grid, noise, seed, ws)

    def test_noise_and_pure_tone_share_a_workspace(self):
        noise = default_noise_profile(f_low=EVEN.df)
        ws = Workspace(EVEN.n_samples, EVEN.sample_rate, noise)
        for profile in (noise, None, noise, None):
            self.check(EVEN, profile, 3, ws)

    def test_grid_switch(self):
        noise = default_noise_profile(f_low=EVEN.df)
        for grid in (EVEN, ODD, EVEN):
            ws = Workspace(grid.n_samples, grid.sample_rate, noise)
            self.check(grid, noise, 5, ws)
        with pytest.raises(ValueError, match="workspace is for"):
            synth_carrier(SynthesisRequest(grid=ODD, noise=noise, seed=5), ws)
        with pytest.raises(ValueError, match="workspace is for"):
            passband_periodogram(synth_carrier(SynthesisRequest(grid=ODD)), ws)

    def test_refuses_another_profile(self):
        noise = default_noise_profile(f_low=EVEN.df)
        other = default_noise_profile(f_low=2 * EVEN.df)
        ws = Workspace(EVEN.n_samples, EVEN.sample_rate, noise)
        with pytest.raises(ValueError, match="noise profile"):
            synth_carrier(SynthesisRequest(grid=EVEN, noise=other, seed=1), ws)
        with pytest.raises(ValueError, match="noise profile"):
            synth_carrier(SynthesisRequest(grid=EVEN, noise=noise, seed=1), Workspace(EVEN.n_samples, EVEN.sample_rate))
        with pytest.raises(ValueError, match="noise profile"):
            Workspace(EVEN.n_samples, EVEN.sample_rate, other, like=ws)
        # An equal profile and the pure tone are served.
        self.check(EVEN, default_noise_profile(f_low=EVEN.df), 1, ws)
        self.check(EVEN, None, 1, ws)

    def test_envelope_is_drawn_only_in_an_envelope_workspace(self):
        noise = default_noise_profile(f_low=EVEN.df)
        passband = Workspace(EVEN.n_samples, EVEN.sample_rate, noise)
        envelope = Workspace(EVEN.n_samples, EVEN.sample_rate, noise, envelope=True)
        message = r"an envelope is drawn for a noise profile, in an envelope workspace"
        with pytest.raises(ValueError, match=message):
            synth_envelope(noise, 1, passband)
        with pytest.raises(ValueError, match=message):
            synth_envelope(None, 1, envelope)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_threads(self, workers):
        # Each thread reuses its own workspace; all share the grid's constants.
        # More threads than cores and a short switch interval interleave them.
        noise = default_noise_profile(f_low=EVEN.df)
        first = Workspace(EVEN.n_samples, EVEN.sample_rate, noise)
        spaces = [first] + [Workspace(EVEN.n_samples, EVEN.sample_rate, like=first) for _ in range(workers - 1)]
        assert all(ws.scale is first.scale for ws in spaces)
        results, errors = {}, []

        def work(i):
            try:
                for seed in range(i, 2 * workers, workers):
                    carrier = synth_carrier(SynthesisRequest(grid=EVEN, noise=noise, seed=seed), spaces[i])
                    results[seed] = (carrier.samples.copy(), passband_periodogram(carrier, spaces[i]).copy())
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert sorted(results) == list(range(2 * workers))
        for seed, (samples, psd) in results.items():
            fresh = synth_carrier(SynthesisRequest(grid=EVEN, noise=noise, seed=seed))
            assert np.array_equal(samples, fresh.samples)
            assert np.array_equal(psd, periodogram(fresh)[1])

    @pytest.mark.parametrize("grid", [EVEN, ODD], ids=["even", "odd"])
    def test_two_window_buffers(self, grid):
        # spec (n//2 + 1 complex bins) and wave (n float64 samples) are the
        # only window-sized arrays: 16 B per sample, plus one bin.  The
        # shared scale of the noise profile is 8 B per bin on top.
        n = grid.n_samples
        noise = default_noise_profile(f_low=grid.df)
        ws = Workspace(n, grid.sample_rate, noise)
        arrays = {name: a for name, a in vars(ws).items() if isinstance(a, np.ndarray)}
        assert set(arrays) == {"spec", "wave", "scale"}
        assert arrays["scale"].nbytes == 8 * (n // 2 + 1)
        assert ws.spec.nbytes + ws.wave.nbytes <= 16 * (n + 1)
        # The carrier and its periodogram live in wave.
        carrier = synth_carrier(SynthesisRequest(grid=grid, noise=noise, seed=2), ws)
        assert np.shares_memory(carrier.samples, ws.wave)
        psd = passband_periodogram(carrier, ws)
        assert psd.base is ws.wave and len(psd) == n // 2 + 1
        # A fresh periodogram's bins are rfftfreq's, bit for bit, and so are
        # the bins k * bin_spacing at which the readers place them.
        freqs, _ = periodogram(synth_carrier(SynthesisRequest(grid=grid)))
        reference = np.fft.rfftfreq(n, 1.0 / grid.sample_rate)
        assert freqs.tobytes() == reference.tobytes()
        assert (np.arange(len(freqs)) * bin_spacing(n, grid.sample_rate)).tobytes() == reference.tobytes()

    def test_non_finite_carrier_is_refused(self):
        noise = default_noise_profile(f_low=EVEN.df)
        ws = Workspace(EVEN.n_samples, EVEN.sample_rate, noise)
        # A scale that a new workspace would refuse: one infinite bin spreads
        # over the whole phase track.
        scale = ws.scale.copy()
        scale[5] = np.inf
        ws.scale = scale
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            synth_carrier(SynthesisRequest(grid=EVEN, noise=noise, seed=1), ws)
        # The pure tone uses no scale; the workspace still serves it.
        self.check(EVEN, None, 1, ws)

    def test_phase_track_matches_formula(self):
        noise = default_noise_profile(f_low=ODD.df)
        track = synth_phase_track(noise, ODD.n_samples, ODD.sample_rate, seed=9)
        ramp = np.arange(ODD.n_samples, dtype=np.float64) * (2.0 * np.pi * ODD.f_r / ODD.sample_rate)
        assert np.array_equal(np.sin(ramp + track).astype(np.float32), formula_carrier(ODD, noise, 9))
