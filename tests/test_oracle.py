"""Sweep L(f) against the small-angle delay-line oracle.

Copy k of the carrier is delayed by d_k samples, so the detected phase
noise is the carrier's scaled by the delay-line transfer (Rubiola,
*Phase Noise and Frequency Stability in Oscillators*, 2008):

    L(f) = S_phi/2 * (|H(fc+f)|^2 + |H(fc-f)|^2) / (2 |H(fc)|^2),
    H(nu) = sum_k exp(-2 pi i nu d_k / Fs).

The oracle evaluates H as that sum, bin by bin, with no transform, on
the 3 bins the sideband estimator reads on each side, and takes the
median over them as the estimator does.  The sweep reads the carrier's
complex envelope, which has no negative-frequency image: S_phi on each
bin is the density at that bin's own offset from the carrier.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from talbotsim.dispersion import delay_plan
from talbotsim.experiments import ExperimentConfig, sweep_comb_width, sweep_oversampling
from talbotsim.model import CombSpec, NoiseProfile

WIDTHS = (1e9, 1e10, 3e10, 1e11, 4e11)
KINDS = ("ideal", "linear", "constant")
OFFSETS = (1e4, 1e5, 1e6)
N_SEEDS = 8
TERMS = ((0.0, 1e-11), (-2.0, 1e-1))
#: False-alarm probability per point, on each side of the oracle.
FALSE_ALARM = 1e-6


def tolerance_db(p=FALSE_ALARM, n_seeds=N_SEEDS):
    """Lower and upper p-quantiles (dB) of the swept L over its expectation.

    A sideband value is the median of 3 bins, each an independent
    chi-square(2) draw around its expectation, so per unit expectation it
    has the density 6 (1 - e^-x) e^-2x (mean 5/6).  A sweep row is the
    power mean of ``n_seeds`` such medians; its density is the
    ``n_seeds``-fold convolution, taken numerically here on the whole
    range of the sum, ``n_seeds`` times that of one median.  For 8 seeds
    and p = 1e-6 the band is [-7.4, +3.6] dB.  The two sidebands share
    their main noise bins, so their average is counted as one draw.
    """
    dx = 1e-3
    x = np.arange(0.0, 60.0, dx)
    mid = x + dx / 2
    one = 6.0 * (1.0 - np.exp(-mid)) * np.exp(-2.0 * mid) * dx
    size = n_seeds * len(x)
    density = np.fft.irfft(np.fft.rfft(one, size) ** n_seeds, size)
    cdf = np.cumsum(density) / np.sum(density)
    total = np.arange(size) * dx
    lo = total[np.searchsorted(cdf, p)] / n_seeds
    hi = total[np.searchsorted(cdf, 1.0 - p)] / n_seeds
    return 10 * math.log10(lo), 10 * math.log10(hi)


def test_tolerance_band_narrows_with_seeds():
    # The power mean of more seeds lies closer to its expectation, so the
    # band holds 0 dB and narrows.  A sum cut short at one median's range
    # would put 48 seeds' upper end below 40 seeds', and 200 seeds' band
    # below 0 dB.
    bands = [tolerance_db(n_seeds=n) for n in (8, 40, 48, 200)]
    assert all(lo < 0.0 < hi for lo, hi in bands), bands
    for (lo, hi), (next_lo, next_hi) in zip(bands, bands[1:]):
        assert lo < next_lo and next_hi < hi, bands
    assert bands[0] == pytest.approx((-7.444, 3.581), abs=1e-3)


def s_phi(f):
    return sum(b * np.asarray(f, dtype=np.float64) ** alpha for alpha, b in TERMS)


def picked_bins(target, df, carrier_bin):
    """The estimator's rule: the 3 bins nearest ``target``, carrier excluded."""
    center = int(round(target / df))
    cand = [j for j in range(center - 2, center + 3) if j != carrier_bin]
    cand.sort(key=lambda j: (abs(j * df - target), j))
    return np.array(sorted(cand[:3]))


def oracle_db(offsets, grid, f_r, offset, image=False):
    """Predicted L (dBc/Hz) at ``offset`` for a plan of integer ``offsets``.

    With ``image``, for the real carrier: its negative-frequency image,
    phase modulated at offset nu + fc, lands on bin nu too.
    """
    lags, counts = np.unique(offsets, return_counts=True)
    df = grid.df
    carrier_bin = int(round(f_r / df))
    fc = carrier_bin * df

    def gain(nu):
        return np.abs(np.exp(-2j * np.pi * np.outer(nu, lags) / grid.sample_rate) @ counts) ** 2

    g0 = gain(np.array([fc]))[0]
    sides = []
    for target in (fc + offset, fc - offset):
        nu = picked_bins(target, df, carrier_bin) * df
        density = (s_phi(np.abs(nu - fc)) + (s_phi(nu + fc) if image else 0.0)) / 2.0
        sides.append(np.median(density * gain(nu) / g0))
    return 10 * math.log10(0.5 * (sides[0] + sides[1]))


@pytest.mark.parametrize("m", [1, 2])
def test_sweep_reads_the_delay_line_oracle(m):
    # At upconversion factor m the ideal delays are whole multiples of
    # T/m: m = 2 gives plans whose offsets share a factor of 8 samples,
    # beside the constant plans' 1 and m = 1's 16.
    cfg = ExperimentConfig(
        kinds=KINDS,
        m=m,
        noise=NoiseProfile(terms=TERMS, f_low=1 / 2e-3),
        offsets=OFFSETS,
        widths=WIDTHS,
        n_seeds=N_SEEDS,
        master_seed=12345,
    )
    grid = cfg.grid
    lo, hi = tolerance_db()
    misses = []
    for row in sweep_comb_width(cfg):
        comb = replace(cfg.comb, width=row.x_value)
        plan = delay_plan(cfg.dispersion_spec(row.kind), comb, grid)
        measured = 10 * math.log10(np.mean(10 ** (np.asarray(row.per_seed) / 10)))
        predicted = oracle_db(plan.offsets, grid, cfg.comb.f_r, row.offset_hz)
        if not lo <= measured - predicted <= hi:
            misses.append((row.x_value, row.kind, row.offset_hz, round(measured, 2), round(predicted, 2)))
    assert not misses, misses


#: Seeds of the bare-carrier checks below, at t_sig = 2e-4: enough that
#: tolerance_db's band, [-3.4, +1.4] dB, is narrower than the real
#: carrier's image term at 1e6 Hz (+3 dB).
BARE_SEEDS = 40


def power_mean_db(per_seed):
    return 10 * math.log10(np.mean(10 ** (np.asarray(per_seed) / 10)))


def bare_config(**kwargs):
    """The bare carrier at t_sig = 2e-4 (df = 5 kHz): one width of one
    line, so every plan is the zero-delay plan."""
    return ExperimentConfig(
        noise=NoiseProfile(terms=TERMS, f_low=1 / 2e-4),
        t_sig=2e-4,
        kinds=("ideal",),
        widths=(0.0,),
        n_seeds=BARE_SEEDS,
        **kwargs,
    )


def test_envelope_reads_the_real_carrier_less_its_image_term():
    # The comb-width sweep reads the complex envelope; the oversampling
    # sweep, at the same N = 16, the real carrier, whose sidebands also
    # carry its negative-frequency image, S_phi(2 f_r + f)/2 above the
    # carrier and S_phi(2 f_r - f)/2 below.  Each reads its own exact
    # expectation, and the two expectations differ by that term alone.
    cfg = bare_config(offsets=OFFSETS)
    envelope = sweep_comb_width(cfg)
    real = [r for r in sweep_oversampling(replace(cfg, ratios=(16,))) if r.kind == "impaired"]
    assert [r.offset_hz for r in envelope] == [r.offset_hz for r in real] == list(OFFSETS)
    lo, hi = tolerance_db(n_seeds=BARE_SEEDS)
    bare = np.zeros(1, np.int64)
    for env, passband in zip(envelope, real):
        f = env.offset_hz
        assert lo <= power_mean_db(env.per_seed) - oracle_db(bare, cfg.grid, cfg.comb.f_r, f) <= hi, f
        with_image = oracle_db(bare, cfg.grid, cfg.comb.f_r, f, image=True)
        assert lo <= power_mean_db(passband.per_seed) - with_image <= hi, f
    # At 1e6 Hz the image term is wider than the band: the real carrier
    # does not read S_phi/2 alone.
    assert power_mean_db(real[-1].per_seed) - oracle_db(bare, cfg.grid, cfg.comb.f_r, OFFSETS[-1]) > hi


def test_offset_above_the_carrier_reads_its_own_lower_sideband():
    # At 2e7 Hz, twice f_r, the lower sideband lies at -1e7 Hz.  A reader
    # of the real carrier's one-sided spectrum finds it reflected through
    # DC, on the carrier's own bins; the envelope's reader reads it at
    # -1e7 Hz, with |H|^2 at +1e7 Hz.
    cfg = bare_config(offsets=(1e4, 2e7))
    rows = sweep_comb_width(cfg)
    assert sweep_comb_width(replace(cfg, workers=2)) == rows
    lo, hi = tolerance_db(n_seeds=BARE_SEEDS)
    bare = np.zeros(1, np.int64)
    for row in rows:
        predicted = oracle_db(bare, cfg.grid, cfg.comb.f_r, row.offset_hz)
        assert lo <= power_mean_db(row.per_seed) - predicted <= hi, (row.offset_hz, predicted)


def test_paper_grid_reads_the_delay_line_oracle():
    # The paper's grid: f_r = 100 MHz, N = 64, t_sig = 10 ms, a window of
    # 64M samples (df = 100 Hz).  At 3e12 Hz the plans hold 30001 lines.
    cfg = ExperimentConfig(
        comb=CombSpec(f_r=1e8, lambda0=1550e-9, width=1e11),
        oversampling=64,
        t_sig=1e-2,
        kinds=KINDS,
        noise=NoiseProfile(terms=TERMS, f_low=1 / 1e-2),
        offsets=(1e4, 1e6),
        widths=(1e11, 3e12),
        n_seeds=N_SEEDS,
        master_seed=12345,
    )
    grid = cfg.grid
    assert grid.n_samples == 64_000_000
    lo, hi = tolerance_db()
    rows = sweep_comb_width(cfg)
    assert len(rows) == 12
    misses = []
    for row in rows:
        plan = delay_plan(cfg.dispersion_spec(row.kind), replace(cfg.comb, width=row.x_value), grid)
        predicted = oracle_db(plan.offsets, grid, cfg.comb.f_r, row.offset_hz)
        measured = power_mean_db(row.per_seed)
        if not lo <= measured - predicted <= hi:
            misses.append((row.x_value, row.kind, row.offset_hz, round(measured, 2), round(predicted, 2)))
    assert max(len(delay_plan(cfg.dispersion_spec(k), replace(cfg.comb, width=3e12), grid)) for k in KINDS) == 30001
    assert not misses, misses
