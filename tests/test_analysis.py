"""Periodogram, phase-noise extraction, jitter, and cross-checks."""

import math

import numpy as np
import pytest
from scipy.signal import periodogram as scipy_periodogram

from talbotsim.analysis import (
    BinReader,
    PhaseNoiseSpectrum,
    classical_penalty,
    jitter,
    periodogram,
    phase_noise_spectrum,
    phase_noise_from_psd,
)
from talbotsim.errors import CarrierNotFoundError
from talbotsim.model import NoiseProfile, SampledSignal, build_grid
from talbotsim.synthesis import SynthesisRequest, synth_carrier


def demod_phase_psd(y, f_r):
    """Phase PSD via demodulation: an independent check of L = S_phi/2.

    Builds the analytic signal, shifts the carrier that
    :func:`phase_noise_from_psd` finds near ``f_r`` to DC, unwraps the
    instantaneous phase, removes a linear trend, and returns the
    periodogram of the residual phase track.
    """
    freqs, psd = periodogram(y)
    carrier_freq = phase_noise_from_psd(freqs, psd, y.sample_rate, f_r, ()).carrier_freq
    data = np.asarray(y.samples, dtype=np.float64)
    n = len(data)
    spec = np.fft.fft(data)
    # Analytic signal: keep DC and Nyquist, double strictly positive bins.
    weight = np.zeros(n)
    weight[0] = 1.0
    if n % 2 == 0:
        weight[n // 2] = 1.0
        weight[1 : n // 2] = 2.0
    else:
        weight[1 : (n + 1) // 2] = 2.0
    analytic = np.fft.ifft(spec * weight)
    t = np.arange(n)
    analytic = analytic * np.exp(-2j * np.pi * carrier_freq / y.sample_rate * t)
    phase = np.unwrap(np.angle(analytic))
    trend = np.polynomial.polynomial.polyfit(t, phase, 1)
    phase = phase - np.polynomial.polynomial.polyval(t, trend)
    return periodogram(SampledSignal(samples=phase, sample_rate=y.sample_rate))


def tone(f, fs, n, amp=1.0, phase=0.0):
    t = np.arange(n)
    return SampledSignal(samples=amp * np.sin(2 * np.pi * f / fs * t + phase), sample_rate=fs)


def brute_force_picks(carrier, target, df, bins, two_sided=False):
    """The valid bins of the 5 around a sideband target at ``target`` Hz,
    nearest first, the lower of equals first: the first 3 are the bins
    whose median is the sideband's value.  A valid bin is one of ``bins``
    bins ``df`` apart (``two_sided``: down to minus Nyquist) other than
    the carrier's, ``carrier``."""
    low = 1 - bins if two_sided else 0
    center = int(round(target / df))
    near = [j for j in range(center - 2, center + 3) if low <= j < bins and j != carrier]
    near.sort(key=lambda j: (abs(j * df - target), j))
    return near


def brute_force_l(psd, carrier, offsets, df, bins, two_sided=False) -> list:
    """L in dBc/Hz at each of ``offsets`` of a carrier on bin ``carrier``
    of ``psd`` (bin j at ``psd[j]``, j < 0 from the end): the median of
    each sideband's brute-force picks, their sum over twice the carrier's
    power.  A one-sided spectrum finds the lower sideband of an offset
    above the carrier reflected through DC."""
    l_dbc = []
    for off in offsets:
        lower = carrier * df - off
        targets = (carrier * df + off, lower if two_sided else abs(lower))
        sides = [float(np.median(psd[brute_force_picks(carrier, t, df, bins, two_sided)[:3]])) for t in targets]
        l_dbc.append(10.0 * math.log10((sides[0] + sides[1]) / (2.0 * (psd[carrier] * df))))
    return l_dbc


class TestPeriodogram:
    def test_bin_exact_tone(self):
        fs, n = 1024.0, 1024
        y = tone(128.0, fs, n)
        freqs, psd = periodogram(y)
        df = freqs[1] - freqs[0]
        peak = int(np.argmax(psd))
        assert freqs[peak] == 128.0
        assert psd[peak] * df == pytest.approx(0.5, rel=1e-12)
        rest = np.delete(psd, peak)
        assert rest.max() < 1e-20 * psd[peak]

    def test_white_noise_level(self):
        fs, n = 2048.0, 8192
        sigma2 = 2.5
        levels = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            y = SampledSignal(samples=rng.normal(0, np.sqrt(sigma2), n), sample_rate=fs)
            _, psd = periodogram(y)
            levels.append(psd[1:-1].mean())
        assert np.mean(levels) == pytest.approx(sigma2 / (fs / 2), rel=0.05)

    def test_zero_input(self):
        y = SampledSignal(samples=np.zeros(64), sample_rate=1.0)
        _, psd = periodogram(y)
        assert np.all(psd == 0.0)

    def test_parseval(self):
        rng = np.random.default_rng(8)
        for n in (64, 255, 1024, 4097):
            y = SampledSignal(samples=rng.standard_normal(n), sample_rate=1e4)
            freqs, psd = periodogram(y)
            df = freqs[1] - freqs[0]
            mean_square = float(np.mean(np.asarray(y.samples) ** 2))
            assert psd.sum() * df == pytest.approx(mean_square, rel=1e-6)

    def test_matches_scipy(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal(4096)
        fs = 5e5
        freqs, psd = periodogram(SampledSignal(samples=y, sample_rate=fs))
        ref_f, ref_psd = scipy_periodogram(y, fs=fs, window="boxcar", detrend=False)
        np.testing.assert_allclose(freqs, ref_f)
        np.testing.assert_allclose(psd, ref_psd, rtol=1e-9, atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="2 samples"):
            periodogram(SampledSignal(samples=np.zeros(1), sample_rate=1.0))


class TestPhaseNoiseSpectrum:
    def test_refuses_offsets_and_l_of_other_shapes(self):
        with pytest.raises(ValueError, match=r"offsets and l_dbc must have the same shape"):
            PhaseNoiseSpectrum(1e7, 0.5, np.array([1e4, 1e5]), np.array([-100.0]), 1e3)

    def test_pure_tone_floor_far_below_injected_levels(self):
        grid = build_grid(1e7, 16, 2e-3)
        signal = synth_carrier(SynthesisRequest(grid=grid))
        spectrum = phase_noise_spectrum(signal, grid.f_r, [1e4, 1e6])
        assert np.all(spectrum.l_dbc < -250.0)

    def test_white_pm_level(self):
        # Fold-aware small-angle oracle for a wideband white phase track
        # (see test_synthesis for the derivation): measured L = b0 times
        # the median-of-3 bias.
        grid = build_grid(1e7, 16, 2e-3)
        b0 = 1e-10
        noise = NoiseProfile(terms=((0.0, b0),), f_low=grid.df)
        offsets = np.geomspace(10 * grid.df, grid.sample_rate / 20, 10)
        acc = []
        for seed in range(10):
            signal = synth_carrier(SynthesisRequest(grid=grid, noise=noise, seed=seed))
            acc.append(10 ** (phase_noise_spectrum(signal, grid.f_r, offsets).l_dbc / 10))
        mean_db = 10 * np.log10(np.mean(acc, axis=0))
        assert np.all(np.abs(mean_db - 10 * np.log10(b0 * 5 / 6)) < 1.5)

    def test_scale_invariance(self):
        grid = build_grid(1e7, 16, 2e-4)
        noise = NoiseProfile(terms=((0.0, 1e-10),), f_low=grid.df)
        signal = synth_carrier(SynthesisRequest(grid=grid, noise=noise, seed=3))
        scaled = SampledSignal(
            samples=np.asarray(signal.samples, dtype=np.float64) * 123.456,
            sample_rate=signal.sample_rate,
        )
        offsets = [1e4, 1e5, 1e6]
        a = phase_noise_spectrum(signal, grid.f_r, offsets).l_dbc
        b = phase_noise_spectrum(scaled, grid.f_r, offsets).l_dbc
        np.testing.assert_allclose(b, a, atol=1e-9)

    def test_carrier_metadata(self):
        grid = build_grid(1e6, 8, 1e-3)
        signal = synth_carrier(SynthesisRequest(grid=grid))
        spectrum = phase_noise_spectrum(signal, 1e6, [1e4])
        assert spectrum.carrier_freq == pytest.approx(1e6)
        assert spectrum.carrier_power == pytest.approx(0.5, rel=1e-6)
        assert spectrum.df == pytest.approx(1e3)

    def test_missing_carrier_rejected(self):
        # All power sits in a tone far from the probed frequency; the
        # bins near the probe hold well under 1e-6 of the total.
        rng = np.random.default_rng(0)
        n, fs = 65536, 1e6
        t = np.arange(n)
        y = SampledSignal(
            samples=np.sin(2 * np.pi * 4e5 / fs * t) + 1e-5 * rng.standard_normal(n),
            sample_rate=fs,
        )
        with pytest.raises(CarrierNotFoundError):
            phase_noise_spectrum(y, 1e5, [1e4])

    def test_sideband_value_is_median_of_picked_bins(self):
        # The pick table against the brute-force picker, for every target
        # on even and odd windows, one- and two-sided (an envelope reader),
        # the carrier at and away from DC and at Nyquist, so the ends leave
        # 2 bins in reach as well as 3; and L read off the table against L
        # from the picker's bins.  Half-bin offsets put targets midway
        # between bins, where the third pick is one of two equally near
        # bins and the lower comes first.
        rng = np.random.default_rng(5)
        sizes, ties = set(), set()
        for n in (8, 9, 64, 65):
            bins = n // 2 + 1
            offsets = np.union1d(np.linspace(0.0, 2 * bins, 16 * bins)[1:], np.arange(2 * bins) + 0.5)
            for two_sided in (False, True):
                low = 1 - bins if two_sided else 0
                psd = rng.random(2 * bins - 1)  # bin j at psd[j], j < 0 from the end
                for carrier in (0, 1, 2, bins // 2, bins - 1):
                    reader = BinReader(n, float(n), float(carrier), offsets, envelope=two_sided)
                    assert reader.df == 1.0
                    index, two = reader._row(carrier)
                    for i, off in enumerate(offsets):
                        lower = carrier - off if two_sided else abs(carrier - off)
                        for side, target in enumerate((carrier + off, lower)):
                            if not low - 0.5 <= target <= bins - 0.5:
                                continue
                            near = brute_force_picks(carrier, target, 1.0, bins, two_sided)
                            picked = sorted(near[:3])
                            sizes.add(len(picked))
                            if len(near) > 3 and abs(near[2] - target) == abs(near[3] - target):
                                ties.add((two_sided, len(picked)))
                            assert sorted(set(reader.reads[index[i, side]].tolist())) == picked
                            assert two[i, side] == (len(picked) == 2)
                    fits = (offsets >= 1.0) & (offsets <= n / 2 - carrier)
                    assert np.array_equal(reader.outside(carrier)[0], offsets[~fits])
                    if fits.any():  # L from the table's picks and from the picker's
                        inside = BinReader(n, float(n), float(carrier), offsets[fits], envelope=two_sided)
                        peaked = psd.copy()
                        peaked[carrier] += 1.0  # the peak of the carrier window
                        (l_dbc,), _, _ = inside.read(peaked[inside.reads][None, :])
                        assert l_dbc.tolist() == brute_force_l(peaked, carrier, offsets[fits], 1.0, bins, two_sided)
        assert sizes == {2, 3}
        assert ties == {(False, 3), (True, 3)}

    def test_refuses_a_psd_that_does_not_fit_its_bins(self):
        # The bins' spacing and the sample rate imply the window: 64
        # samples at 64 Hz, whose periodogram has 33 bins.
        freqs = np.fft.rfftfreq(64, 1.0 / 64.0)
        psd = np.ones(len(freqs))
        psd[10] = 1e6
        assert phase_noise_from_psd(freqs, psd, 64.0, 10.0, [2.0]).carrier_freq == 10.0
        for wrong in (psd[:-1], np.append(psd, 1.0)):
            with pytest.raises(ValueError, match="does not fit the 64-sample window"):
                phase_noise_from_psd(freqs, wrong, 64.0, 10.0, [2.0])
        with pytest.raises(ValueError, match="does not fit the 128-sample window"):
            phase_noise_from_psd(freqs, psd, 128.0, 10.0, [2.0])
        with pytest.raises(ValueError, match="at least 2 bins"):
            phase_noise_from_psd(freqs[:1], psd[:1], 64.0, 0.0, [])

    def test_keeps_frozen_copies_of_the_callers_arrays(self):
        offsets, l_dbc = np.array([1e3, 1e4]), np.array([-100.0, -120.0])
        spectrum = PhaseNoiseSpectrum(1e7, 0.5, offsets, l_dbc, 1e3)
        assert offsets.flags.writeable and l_dbc.flags.writeable
        assert not spectrum.offsets.flags.writeable and not spectrum.l_dbc.flags.writeable
        offsets[0] = l_dbc[0] = 5.0
        assert spectrum.offsets.tolist() == [1e3, 1e4] and spectrum.l_dbc.tolist() == [-100.0, -120.0]
        with pytest.raises(ValueError, match="strictly ascending"):
            PhaseNoiseSpectrum(1e7, 0.5, [1e4, 1e3], [-100.0, -120.0], 1e3)

    def test_offset_out_of_range_rejected(self):
        grid = build_grid(1e6, 8, 1e-3)
        signal = synth_carrier(SynthesisRequest(grid=grid))
        with pytest.raises(ValueError, match="measurable"):
            phase_noise_spectrum(signal, 1e6, [4e6])
        with pytest.raises(ValueError, match="measurable"):
            phase_noise_spectrum(signal, 1e6, [1.0])


def assert_same_spectrum(got, expected):
    assert (got.carrier_freq, got.carrier_power, got.df) == (expected.carrier_freq, expected.carrier_power, expected.df)
    assert np.array_equal(got.offsets, expected.offsets)
    assert np.array_equal(got.l_dbc, expected.l_dbc)


def assert_reads_spectrum(reader, read, expected):
    """The one-row ``read`` of ``reader`` is the spectrum ``expected``."""
    (l_dbc,), (carrier,), (power,) = read
    got = PhaseNoiseSpectrum(int(carrier) * reader.df, power, reader.offsets, l_dbc, reader.df)
    assert_same_spectrum(got, expected)


class TestBinReader:
    """L off the values on the reader's bins, against the dense reader."""

    def test_refuses_a_carrier_above_nyquist(self):
        # 1000 samples at 1000 Hz: bins up to 500 Hz, and 600 Hz is 100 bins past them.
        with pytest.raises(CarrierNotFoundError, match=r"carrier frequency 600\.0 Hz is outside the spectrum"):
            BinReader(1000, 1000.0, 600.0, [10.0])

    def spectra(self, rng, n, carrier_bin, level=1e6):
        """Noise on every bin of an n-sample periodogram, and a random
        ``level`` on the 5 bins around ``carrier_bin``, so the peak falls
        anywhere in the carrier window."""
        psd = rng.random(n // 2 + 1)
        lo = max(carrier_bin - 2, 0)
        psd[lo : carrier_bin + 3] += level * rng.random(len(psd[lo : carrier_bin + 3]))
        return psd

    def test_reads_what_phase_noise_from_psd_reads(self):
        # Even and odd windows, the carrier at DC, next to it, mid-band and
        # by Nyquist, so bins run off either end; offsets from one bin to
        # the top of the measurable range, and random gains on the bins,
        # given as a plan's |H|^2.  The read, and phase_noise_from_psd's of
        # the PSD times the gains, against L from the brute-force picks.
        rng = np.random.default_rng(9)
        read = 0
        for n in (16, 17, 64, 65, 1000, 1001):
            fs = float(n)
            top = n // 2
            for carrier_bin in sorted({0, 1, 2, 3, top // 2, top - 4}):
                freqs = np.fft.rfftfreq(n, 1.0 / fs)
                df = freqs[1]
                f_r = carrier_bin * df
                high = fs / 2 - (carrier_bin + 2) * df
                if high < df:
                    continue
                offsets = np.unique(np.concatenate(([df, high], rng.uniform(df, high, 6))))
                reader = BinReader(n, fs, f_r, offsets)
                assert len(reader.reads) < len(freqs) or n < 100
                for _ in range(4):
                    psd = self.spectra(rng, n, carrier_bin)
                    gain = rng.uniform(0.5, 1.0, len(psd))
                    detected = psd * gain
                    peak = reader.window[int(np.argmax(detected[list(reader.window)]))]
                    l_dbc = brute_force_l(detected, peak, offsets, df, len(psd))
                    expected = PhaseNoiseSpectrum(peak * df, detected[peak] * df, offsets, l_dbc, df)
                    through = reader.read(reader.take(psd)[None, :], lambda bins, which: gain[bins][None])
                    assert_reads_spectrum(reader, through, expected)
                    assert_same_spectrum(phase_noise_from_psd(freqs, detected, fs, f_r, offsets), expected)
                    read += 1
        assert read > 100

    def test_batch_reads_as_its_rows_one_at_a_time(self):
        # One batch, each carrier's peak on a bin of the window of its own,
        # passband and envelope, against each row read alone: bit for bit.
        rng = np.random.default_rng(11)
        n, carrier_bin = 1000, 100
        offsets = [1.0, 2.5, 3.0, 7.0, 40.0, 150.0, 390.0]
        for envelope in (False, True):
            reader = BinReader(n, float(n), float(carrier_bin), offsets, envelope=envelope)
            values = rng.random((20, len(reader.reads)))
            window = np.searchsorted(reader.reads, list(reader.window))
            peaks = np.arange(20) % len(window)
            values[np.arange(20), window[peaks]] += 1e6
            l_dbc, bins, power = reader.read(values)
            assert l_dbc.shape == (20, len(offsets))
            assert np.array_equal(bins, np.asarray(reader.window)[peaks])
            assert len(set(bins.tolist())) == len(reader.window) == 5
            for row, (one_l, one_bin, one_power) in enumerate(zip(l_dbc, bins, power)):
                (alone_l,), (alone_bin,), (alone_power,) = reader.read(values[row : row + 1])
                assert np.array_equal(one_l, alone_l)
                assert (one_bin, one_power) == (alone_bin, alone_power)

    def test_builds_table_rows_only_for_the_bins_peaks_fall_on(self):
        # Bins 1 Hz apart, the carrier window on bins 98 .. 102: a row of
        # the pick table is built the first time a carrier peaks on its
        # bin, and kept for later reads.
        rng = np.random.default_rng(17)
        reader = BinReader(1000, 1000.0, 100.0, [10.0, 40.0, 150.0])
        window = np.searchsorted(reader.reads, list(reader.window))
        values = rng.random((3, len(reader.reads)))
        values[:, window[2]] += 1e6
        reader.read(values)
        assert sorted(reader._rows) == [100]
        values[1, window[3]] += 1e7
        reader.read(values)
        assert sorted(reader._rows) == [100, 101]

    def test_a_read_looks_only_at_the_bins_it_wants(self):
        # Passband and envelope readers, carriers peaking on every bin of
        # the window, and offsets of 150 and 390 Hz above a 100 Hz carrier,
        # whose lower sidebands the envelope reads below 0 Hz: a read
        # through a plan asks for |H|^2 once, on distinct non-negative bins
        # in ascending order, fewer than it holds, and is the same, bit for
        # bit, whatever the bins it does not ask for hold.
        rng = np.random.default_rng(19)
        n, carriers = 1000, 10
        offsets = [1.0, 3.0, 40.0, 150.0, 390.0]
        for envelope in (False, True):
            reader = BinReader(n, float(n), 100.0, offsets, envelope=envelope)
            assert (reader.reads < 0).any() == envelope
            values = rng.random((carriers, len(reader.reads)))
            window = np.searchsorted(reader.reads, list(reader.window))
            on = np.arange(carriers) % len(window)
            values[np.arange(carriers), window[on]] += 1e6
            asked = []

            def flat(bins, which):
                asked.append(bins)
                return np.ones((len(which), len(bins)))

            expected = reader.read(values)
            for got, want in zip(reader.read(values, flat), expected):
                assert np.array_equal(got, want)
            (wanted,) = asked
            every = np.unique(np.abs(reader.reads))
            assert np.array_equal(wanted, np.unique(wanted)) and 0 < len(wanted) < len(every) and wanted[0] >= 0
            unwanted = np.where(np.isin(np.abs(reader.reads), wanted), values, np.nan)
            for got, want in zip(reader.read(unwanted, flat), expected):
                assert np.array_equal(got, want)
            # Fewer peaks want fewer bins, the carrier window always.
            asked.clear()
            reader.read(values[on == 2], flat)
            (one,) = asked
            assert set(one.tolist()) < set(wanted.tolist()) and set(reader.window) <= set(one.tolist())

    def test_wants_no_picks_of_a_bin_a_read_refuses(self):
        # An offset of 400 Hz fits a carrier on bin 100 and below (Nyquist
        # at 500 Hz): a carrier on bin 101 or 102 is refused, so a read of
        # it asks for |H|^2 on the carrier window alone, and builds no
        # pick-table row.
        reader = BinReader(1000, 1000.0, 100.0, [10.0, 400.0])
        window = np.searchsorted(reader.reads, list(reader.window))
        values = np.ones((2, len(reader.reads)))
        values[0, window[3]] = values[1, window[4]] = 1e6
        asked = []

        def flat(bins, which):
            asked.append(bins)
            return np.ones((len(which), len(bins)))

        with pytest.raises(ValueError, match="measurable"):
            reader.read(values, flat)
        assert [bins.tolist() for bins in asked] == [list(range(98, 103))] and not reader._rows
        values[1, window[2]] = 1e7  # row 1's peak on bin 100; row 0 is still refused
        asked.clear()
        with pytest.raises(ValueError, match="measurable"):
            reader.read(values, flat)
        assert len(asked) == 1 and len(asked[0]) > 5 and sorted(reader._rows) == [100]

    def test_batch_refuses_its_first_refused_carrier(self):
        # Bins 1 Hz apart, Nyquist at 500 Hz, the carrier window on bins
        # 98 .. 102.  An offset of 400 Hz fits a carrier on bin 100 and
        # below; the first row whose carrier sits higher, or holds no
        # power, is refused with the message of a read of that row alone.
        rng = np.random.default_rng(13)
        n = 1000
        reader = BinReader(n, float(n), 100.0, [10.0, 400.0])
        window = np.searchsorted(reader.reads, list(reader.window))
        values = rng.random((4, len(reader.reads)))
        values[:, window[2]] += 1e6  # every peak on bin 100
        assert reader.read(values)[1].tolist() == [100] * 4
        high, dark = values.copy(), values.copy()
        high[2, window[3]] += 1e7  # row 2's peak on bin 101
        dark[1, window] = 0.0  # row 1's carrier holds no power
        message = r"^offset 400\.0 Hz outside the measurable range \[1\.0, 399\.0\] Hz$"
        with pytest.raises(ValueError, match=message):
            reader.read(high)
        with pytest.raises(ValueError, match=message):
            reader.read(high[2:3])
        for batch in (dark, dark[1:2], np.concatenate((dark, high))):
            with pytest.raises(CarrierNotFoundError, match=r"^the carrier within 2 bins of 100\.0 Hz holds no power$"):
                reader.read(batch)
        with pytest.raises(ValueError, match=message):
            reader.read(np.concatenate((high, dark)))

    def test_take_refuses_a_carrier_that_is_not_dominant(self):
        # Bins 1 Hz apart, the carrier on bin 100.  The envelope's
        # periodogram holds the carrier on its bin 0, and its carrier
        # window on bins -2 .. 2.
        n = 1000
        for envelope in (False, True):
            reader = BinReader(n, float(n), 100.0, [10.0], envelope=envelope)
            psd = np.ones(reader.length if envelope else n // 2 + 1)
            carrier = np.arange(-2, 3) + (0 if envelope else 100)
            psd[carrier] = 1e-9
            with pytest.raises(CarrierNotFoundError, match="no dominant carrier"):
                reader.take(psd)
            psd[carrier[2]] = 1e9
            assert np.array_equal(reader.take(psd), psd[reader.reads - reader.shift])

    def test_read_refuses_only_a_carrier_with_no_power(self):
        # The dense reader refuses a detected carrier under 1e-6 of the
        # detected total; the bin reader, whose carriers passed that test
        # bare, reads it, and refuses one with no power at all.
        rng = np.random.default_rng(3)
        n, carrier_bin = 1000, 100
        freqs = np.fft.rfftfreq(n, 1.0 / n)
        psd = self.spectra(rng, n, carrier_bin, level=1e4)
        offsets = [20 * freqs[1], 60 * freqs[1]]
        reader = BinReader(n, float(n), carrier_bin * freqs[1], offsets)
        window = np.isin(np.arange(len(psd)), list(reader.window))
        values = reader.take(psd)
        faint = np.where(window, 1e-9, 1.0)
        with pytest.raises(CarrierNotFoundError, match="no dominant carrier"):
            phase_noise_from_psd(freqs, psd * faint, float(n), carrier_bin * freqs[1], offsets)
        read = reader.read(np.stack((values, values * faint[reader.reads])))
        (bare, detected), _, (bare_power, detected_power) = read
        assert detected_power == pytest.approx(1e-9 * bare_power, rel=1e-12)
        np.testing.assert_allclose(detected, bare + 90.0, rtol=0, atol=1e-9)
        with pytest.raises(CarrierNotFoundError, match="no power"):
            reader.read((values * np.where(window, 0.0, 1.0)[reader.reads])[None, :])


class TestJitter:
    def make_spectrum(self, offsets, l_dbc, carrier=1e7):
        return PhaseNoiseSpectrum(
            carrier_freq=carrier,
            carrier_power=0.5,
            offsets=np.asarray(offsets, dtype=float),
            l_dbc=np.asarray(l_dbc, dtype=float),
            df=offsets[0],
        )

    def test_refuses_one_point(self):
        spec = self.make_spectrum([1e4], [-120.0])
        with pytest.raises(ValueError, match=r"jitter integration needs at least 2 spectrum points"):
            jitter(spec, 1e4, 1e4)

    def test_flat_spectrum_rectangle(self):
        offsets = np.linspace(1e3, 2e6, 50)
        spec = self.make_spectrum(offsets, np.full(50, -120.0))
        result = jitter(spec, 1e5, 1.1e6)
        assert result.integrated_l == pytest.approx(1e-12 * 1e6, rel=1e-9)

    def test_halving_band_halves_integral(self):
        offsets = np.linspace(1e3, 2e6, 200)
        spec = self.make_spectrum(offsets, np.full(200, -110.0))
        full = jitter(spec, 1e4, 1e4 + 1e6).integrated_l
        half = jitter(spec, 1e4, 1e4 + 5e5).integrated_l
        assert half == pytest.approx(full / 2, rel=1e-9)

    def test_white_pm_integral(self):
        # Band integral of measured L for white PM: the fold-aware level
        # b0 times the median-of-3 estimator bias times the bandwidth.
        grid = build_grid(1e7, 16, 2e-3)
        b0 = 1e-10
        noise = NoiseProfile(terms=((0.0, b0),), f_low=grid.df)
        offsets = np.geomspace(5e3, 5e6, 120)
        f1, f2 = 1e4, 1e6
        acc = []
        for seed in range(10):
            signal = synth_carrier(SynthesisRequest(grid=grid, noise=noise, seed=seed))
            spectrum = phase_noise_spectrum(signal, grid.f_r, offsets)
            acc.append(jitter(spectrum, f1, f2).integrated_l)
        assert np.mean(acc) == pytest.approx((5 / 6) * b0 * (f2 - f1), rel=0.10)

    def test_monotone_in_upper_limit(self):
        rng = np.random.default_rng(12)
        offsets = np.linspace(1e3, 1e6, 100)
        spec = self.make_spectrum(offsets, -130 + 20 * rng.random(100))
        results = [jitter(spec, 2e3, fmax).integrated_l for fmax in (1e4, 1e5, 5e5, 9e5)]
        assert np.all(np.diff(results) > 0)

    def test_rms_time_jitter_formula(self):
        offsets = np.linspace(1e3, 1e6, 10)
        spec = self.make_spectrum(offsets, np.full(10, -100.0), carrier=1e8)
        result = jitter(spec, 1e3, 1e6)
        expected = np.sqrt(2 * result.integrated_l) / (2 * np.pi * 1e8)
        assert result.rms_time_jitter == pytest.approx(expected, rel=1e-12)

    def test_invalid_band_rejected(self):
        offsets = np.linspace(1e3, 1e6, 10)
        spec = self.make_spectrum(offsets, np.full(10, -100.0))
        with pytest.raises(ValueError, match="band"):
            jitter(spec, 5e5, 5e5)
        with pytest.raises(ValueError, match="band"):
            jitter(spec, 1.0, 1e5)


class TestClassicalPenalty:
    def test_factor_ten(self):
        assert classical_penalty(-100.0, 10) == pytest.approx(-80.0)

    def test_identity(self):
        assert classical_penalty(-100.0, 1) == pytest.approx(-100.0)

    def test_factor_thousand(self):
        assert classical_penalty(-90.0, 1000) == pytest.approx(-30.0)

    def test_rejects_invalid_factor(self):
        with pytest.raises(ValueError):
            classical_penalty(-100.0, 0)


class TestDemodPhasePsd:
    def test_pure_tone_floor(self):
        grid = build_grid(1e7, 16, 1e-3)
        signal = synth_carrier(SynthesisRequest(grid=grid))
        freqs, psd = demod_phase_psd(signal, grid.f_r)
        band = (freqs > 1e4) & (freqs < 5e6)
        assert 10 * np.log10(psd[band].max() / 2) < -200.0

    @staticmethod
    def _band_means(freqs, psd, centers, half_width=0.2):
        """Mean density over +-20% bands; beats per-bin chi-square scatter."""
        out = []
        for c in centers:
            sel = (freqs >= c * (1 - half_width)) & (freqs <= c * (1 + half_width))
            out.append(psd[sel].mean())
        return np.asarray(out)

    def test_recovers_injected_track(self):
        # Valid where the injected density dominates its demodulation
        # images (steep low-offset region); expectations are averaged
        # over the same bands as the measurement.
        grid = build_grid(1e7, 16, 2e-3)
        noise = NoiseProfile(terms=((0.0, 1e-11), (-2.0, 4.0)), f_low=grid.df)
        target_f = np.geomspace(8e3, 4e4, 5)
        acc = []
        for seed in range(10):
            signal = synth_carrier(SynthesisRequest(grid=grid, noise=noise, seed=seed))
            freqs, psd = demod_phase_psd(signal, grid.f_r)
            acc.append(self._band_means(freqs, psd, target_f))
        mean_db = 10 * np.log10(np.mean(acc, axis=0))
        freqs = np.fft.rfftfreq(grid.n_samples, 1.0 / grid.sample_rate)
        expected_db = 10 * np.log10(self._band_means(freqs, noise.psd(freqs), target_f))
        assert np.all(np.abs(mean_db - expected_db) < 1.0)

    def test_agrees_with_sideband_estimator(self):
        # Cross-validation in the band where the narrowband identity
        # holds (injected density dominates its images); both estimators
        # band-averaged, the sideband one corrected for its median bias.
        grid = build_grid(1e7, 16, 2e-3)
        noise = NoiseProfile(terms=((0.0, 1e-11), (-2.0, 1e-1)), f_low=grid.df)
        centers = np.geomspace(6e3, 1e4, 3)
        acc_l, acc_d = [], []
        for seed in range(20):
            signal = synth_carrier(SynthesisRequest(grid=grid, noise=noise, seed=seed))
            cluster = []
            for c in centers:
                offs = c * np.linspace(0.8, 1.2, 9)
                spectrum = phase_noise_spectrum(signal, grid.f_r, offs)
                cluster.append(np.mean(10 ** (spectrum.l_dbc / 10)))
            acc_l.append(cluster)
            freqs, psd = demod_phase_psd(signal, grid.f_r)
            acc_d.append(self._band_means(freqs, psd, centers) / 2)
        l_db = 10 * np.log10(np.mean(acc_l, axis=0) / (5 / 6))
        d_db = 10 * np.log10(np.mean(acc_d, axis=0))
        assert np.all(np.abs(l_db - d_db) < 1.0)

    def test_missing_carrier_rejected(self):
        rng = np.random.default_rng(1)
        n, fs = 65536, 1e6
        t = np.arange(n)
        y = SampledSignal(
            samples=np.sin(2 * np.pi * 4e5 / fs * t) + 1e-5 * rng.standard_normal(n),
            sample_rate=fs,
        )
        with pytest.raises(CarrierNotFoundError):
            demod_phase_psd(y, 1e5)

