"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion including the measured values.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from talbotsim.analysis import classical_penalty, periodogram
from talbotsim.dispersion import (
    DelayPlan,
    DispersionSpec,
    delay_plan,
    offset_difference,
    min_effective_dispersion,
    one_sample_dispersion,
)
from talbotsim.experiments import ExperimentConfig, sweep_comb_width, sweep_oversampling
from talbotsim.model import (
    SPEED_OF_LIGHT,
    CombSpec,
    NoiseProfile,
    SampledSignal,
    build_grid,
    convert_dispersion,
    estimate_memory,
)
from talbotsim.superposition import superpose
from talbotsim.synthesis import SynthesisRequest, synth_carrier

C = SPEED_OF_LIGHT
LAM0 = 1550e-9


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"[{number:2d}] FAIL  {title}")
        raise
    print(f"[{number:2d}] PASS  {title}")


# Desk-scale base: preserves the offset*delay products of the full-scale
# setup at a small fraction of the memory.
DESK_F_R = 1e7
DESK_N = 16
DESK_T_SIG = 2e-3


def _cluster(center, n=9):
    """Offsets bracketing a nominal one; averaging across them smooths
    the deterministic comb-filter ripple."""
    return tuple(center * np.geomspace(0.7, 1.4, n))


def _band_mean_l(y, f_r, f_lo, f_hi):
    """Mean linear sideband density over [f_lo, f_hi], both sidebands."""
    freqs, psd = periodogram(y)
    df = freqs[1] - freqs[0]
    carrier_bin = int(round(f_r / df))
    carrier = psd[carrier_bin] * df
    upper = (freqs >= f_r + f_lo) & (freqs <= f_r + f_hi)
    lower = (freqs >= f_r - f_hi) & (freqs <= f_r - f_lo)
    return (psd[upper].mean() + psd[lower].mean()) / (2 * carrier)


def test_01_one_sample_dispersion_value():
    with criterion(1, "one-sample dispersion at N=64, 100 MHz, 1550 nm is 195000 ps/nm +-0.5%"):
        d = convert_dispersion(one_sample_dispersion(64, 1e8, LAM0), "s/m", "ps/nm")
        assert d == pytest.approx(195000.0, rel=5e-3), d


def test_02_minimum_effective_dispersion():
    with criterion(2, "minimum effective dispersion for a 3 THz comb is 6.5 ps/nm +-2%"):
        comb = CombSpec(f_r=1e8, lambda0=LAM0, width=3e12)
        grid = build_grid(1e8, 64, 1e-4)
        d = convert_dispersion(min_effective_dispersion(comb, grid), "s/m", "ps/nm")
        assert d == pytest.approx(6.5, rel=0.02), d


def test_03_memory_figures():
    with criterion(3, "memory estimates: 447 GiB full band, 15.3 MiB reduced"):
        comb = CombSpec(f_r=1e8, lambda0=LAM0, width=3e12)
        grid = build_grid(1e8, 2, 10e-3)
        full = estimate_memory("full_band", comb, grid, 8)
        reduced = estimate_memory("reduced", comb, grid, 8)
        assert full / 2**30 == pytest.approx(447.0, abs=1.0), full
        assert reduced / 2**20 == pytest.approx(15.3, abs=0.1), reduced


def test_04_ideal_plan_exactness():
    with criterion(4, "ideal delay plan is exactly k*N for all 30001 lines of a 3 THz comb"):
        comb = CombSpec(f_r=1e8, lambda0=LAM0, width=3e12)
        grid = build_grid(1e8, 64, 1e-4)
        plan = delay_plan(DispersionSpec.ideal(1e8, LAM0), comb, grid)
        k = comb.line_count
        assert k == 30001
        expected = (k - 1 - np.arange(k)) * 64
        assert np.array_equal(plan.offsets, expected)


def test_05_offset_difference_shapes_at_100ghz():
    with criterion(5, "100 GHz: linear matches ideal; constant is an 8-sample edge-zero parabola"):
        comb = CombSpec(f_r=1e8, lambda0=LAM0, width=1e11)
        grid = build_grid(1e8, 64, 1e-4)
        plans = {
            kind: delay_plan(DispersionSpec(kind, 1e8, LAM0), comb, grid)
            for kind in ("ideal", "linear", "constant")
        }
        d_lin = offset_difference(plans["ideal"], plans["linear"])
        assert np.all(d_lin == 0), np.abs(d_lin).max()
        d_con = offset_difference(plans["ideal"], plans["constant"])
        assert abs(d_con[0]) <= 1 and abs(d_con[-1]) <= 1
        assert np.abs(d_con - d_con[::-1]).max() <= 1
        # Closed-form second-order residual of the constant characteristic.
        d_prime = 2 * C / (LAM0**3 * 1e8**2)
        d_lam = LAM0**2 * 1e11 / C
        oracle = d_prime / 2 * (d_lam / 2) ** 2 * grid.sample_rate
        center = d_con[len(d_con) // 2]
        assert abs(center - oracle) <= 1, (center, oracle)


def test_06_linear_sufficiency_crossover():
    with criterion(6, "linear first deviates a full sample between 400 and 700 GHz"):
        grid = build_grid(1e8, 64, 1e-4)
        first = None
        for width in np.arange(3.0e11, 7.6e11, 0.25e11):
            comb = CombSpec(f_r=1e8, lambda0=LAM0, width=float(width))
            ideal = delay_plan(DispersionSpec.ideal(1e8, LAM0), comb, grid)
            linear = delay_plan(DispersionSpec.linear(1e8, LAM0), comb, grid)
            if np.abs(offset_difference(ideal, linear)).max() >= 1:
                first = float(width)
                break
        assert first is not None
        assert 4.0e11 <= first <= 7.0e11, first


def test_07_engine_equivalence():
    with criterion(7, "superpose agrees with a np.roll sum within 1e-9*K*max|x| on 100 random cases"):
        rng = np.random.default_rng(20240917)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(16, 4097))
            k = int(rng.integers(1, 65))
            max_off = int(rng.integers(0, 2 * n))
            offsets = np.concatenate(([0], rng.integers(0, max_off + 1, size=k - 1)))
            offsets -= offsets.min()
            grid = build_grid(1e6, 4, n / 4e6)
            plan = DelayPlan(offsets=offsets, grid=grid)
            x = SampledSignal(samples=rng.standard_normal(n), sample_rate=4e6)
            reference = sum(np.roll(x.samples, int(d)) for d in offsets) / k
            err = np.abs(superpose(x, plan).samples - reference).max()
            tol = 1e-9 * k * np.abs(x.samples).max()
            worst = max(worst, err / tol)
            assert err <= tol, (err, tol)
        assert worst <= 1.0


def _averaging_gain(k_copies, band_fn, n_seeds=10):
    grid = build_grid(DESK_F_R, DESK_N, DESK_T_SIG)
    offsets = np.arange(k_copies, dtype=np.int64) * DESK_N
    plan = DelayPlan(offsets=offsets, grid=grid)
    noise = NoiseProfile(terms=((0.0, 1e-11),), f_low=grid.df)
    max_delay = plan.max_offset / grid.sample_rate
    f_lo, f_hi = band_fn(max_delay, grid)
    gains = []
    for seed in range(n_seeds):
        signal = synth_carrier(SynthesisRequest(grid=grid, noise=noise, seed=seed))
        base = _band_mean_l(signal, DESK_F_R, f_lo, f_hi)
        filtered = _band_mean_l(superpose(signal, plan), DESK_F_R, f_lo, f_hi)
        gains.append(10 * math.log10(base / filtered))
    return float(np.mean(gains))


def test_08_averaging_law():
    with criterion(8, "white-PM averaging over offsets with f*max_delay >= 3: "
                      "16 copies give 12 dB +-2, 64 copies 18 dB +-2 (10 seeds)"):
        def far_band(max_delay, grid):
            return 3.0 / max_delay, grid.sample_rate / 2 - 2 * DESK_F_R

        gain16 = _averaging_gain(16, far_band)
        gain64 = _averaging_gain(64, far_band)
        assert gain16 == pytest.approx(10 * math.log10(16), abs=2.0), gain16
        assert gain64 == pytest.approx(10 * math.log10(64), abs=2.0), gain64


def test_09_no_averaging_near_carrier():
    with criterion(9, "offsets with f*max_delay < 0.01 improve by less than 1 dB"):
        def near_band(max_delay, grid):
            return grid.df, 0.01 / max_delay

        gain = _averaging_gain(16, near_band)
        assert abs(gain) < 1.0, gain


def test_10_oversampling_saturation():
    with criterion(10, "impaired L at the 10 kHz offset changes < 1 dB from N=32 to N=64; "
                       "pure-tone floor keeps decreasing"):
        # A cluster of offsets around 10 kHz (and 1 MHz), averaged in
        # linear power, tames the per-bin chi-square scatter of the
        # estimator; single-bin reads scatter by several dB per seed.
        centers = (1e4, 1e6)
        offsets = _cluster(centers[0], 13) + _cluster(centers[1], 13)
        cfg = ExperimentConfig(
            comb=CombSpec(f_r=DESK_F_R, lambda0=LAM0, width=0.0),
            oversampling=DESK_N,
            t_sig=DESK_T_SIG,
            offsets=offsets,
            ratios=(4, 8, 16, 32, 64),
            n_seeds=20,
            master_seed=42,
        )
        rows = sweep_oversampling(cfg)

        def cluster_db(kind, n, center):
            acc = []
            for r in rows:
                if r.kind == kind and r.x_value == n and abs(r.offset_hz / center - 1) < 0.5:
                    acc.append(np.mean([10 ** (v / 10) for v in r.per_seed]))
            assert len(acc) == 13
            return 10 * math.log10(np.mean(acc))

        saturation = abs(cluster_db("impaired", 64, 1e4) - cluster_db("impaired", 32, 1e4))
        assert saturation < 1.0, saturation
        for center in centers:
            floors = [cluster_db("pure_tone", n, center) for n in cfg.ratios]
            assert np.all(np.diff(floors) < 0), floors
            noisy = [cluster_db("impaired", n, center) for n in cfg.ratios]
            gaps = np.asarray(noisy) - np.asarray(floors)
            assert np.all(gaps >= 10.0), gaps


def test_11_dispersion_kind_ordering():
    with criterion(11, "L(ideal) <= L(linear) <= L(constant) within 1 dB where plans differ; "
                       "constant degrades at the smaller offset first"):
        centers = (1e4, 1e6)
        offsets = _cluster(centers[0]) + _cluster(centers[1])
        widths = (5e9, 1e10, 2e10, 3e10, 5e10, 7.5e10, 1e11, 2e11, 4e11)
        # Width 0 is the no-plan baseline: every kind's plan is one line at
        # zero delay, read off the same carriers' envelopes as every row.
        cfg = ExperimentConfig(
            comb=CombSpec(f_r=DESK_F_R, lambda0=LAM0, width=widths[-1]),
            oversampling=DESK_N,
            t_sig=DESK_T_SIG,
            offsets=offsets,
            widths=(0.0,) + widths,
            n_seeds=10,
            master_seed=21,
        )
        rows = sweep_comb_width(cfg)
        grid = cfg.grid

        def cluster_db(kind, width, center):
            sel = [
                10 ** (r.mean_l_dbc / 10)
                for r in rows
                if r.kind == kind and r.x_value == width and abs(r.offset_hz / center - 1) < 0.5
            ]
            assert len(sel) == 9
            return 10 * math.log10(np.mean(sel))

        # Baseline: the same measurement with no delay plan (single line).
        baseline_db = {c: cluster_db("ideal", 0.0, c) for c in centers}

        plans_differ = []
        for width in widths:
            comb = CombSpec(f_r=DESK_F_R, lambda0=LAM0, width=width)
            p_ideal = delay_plan(DispersionSpec.ideal(DESK_F_R, LAM0), comb, grid)
            p_const = delay_plan(DispersionSpec.constant(DESK_F_R, LAM0), comb, grid)
            plans_differ.append(np.any(offset_difference(p_ideal, p_const) != 0))
        assert any(plans_differ)

        for width, differ in zip(widths, plans_differ):
            if not differ:
                continue
            for center in centers:
                l_ideal = cluster_db("ideal", width, center)
                l_linear = cluster_db("linear", width, center)
                l_const = cluster_db("constant", width, center)
                assert l_ideal <= l_linear + 1.0, (width, center, l_ideal, l_linear)
                assert l_linear <= l_const + 1.0, (width, center, l_linear, l_const)

        # Degradation order: the constant curve's improvement over the
        # no-plan baseline collapses below half its peak at the small
        # offset within the sweep, and does so before the large offset.
        def collapse_width(center):
            improvements = [
                baseline_db[center] - cluster_db("constant", w, center) for w in widths
            ]
            peak = max(improvements)
            for w, imp in zip(widths, improvements):
                if imp <= peak / 2:
                    return w, improvements
            return math.inf, improvements

        w_small, imp_small = collapse_width(centers[0])
        w_large, imp_large = collapse_width(centers[1])
        assert w_small < w_large, (w_small, w_large, imp_small, imp_large)
        # The small-offset constant curve genuinely turns upward.
        const_small = [cluster_db("constant", w, centers[0]) for w in widths]
        rise = const_small[-1] - min(const_small)
        assert rise >= 5.0, const_small


def test_12_classical_penalty():
    with criterion(12, "classical upconversion penalty: +20 dB at m=10, +60 dB at m=1000"):
        assert classical_penalty(-100.0, 10) == pytest.approx(-80.0, abs=1e-12)
        assert classical_penalty(-90.0, 1000) == pytest.approx(-30.0, abs=1e-12)
