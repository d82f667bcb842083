"""Sweep orchestration: determinism, budgets, trends, artifacts."""

import gc
import json
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import talbotsim
import talbotsim.analysis as analysis
import talbotsim.experiments as experiments
from talbotsim.analysis import (
    BinReader,
    JitterResult,
    PhaseNoiseSpectrum,
    envelope_periodogram,
    periodogram,
    phase_noise_from_psd,
)
from talbotsim.errors import BudgetError, CarrierNotFoundError, ConfigError
from talbotsim.experiments import (
    ExperimentConfig,
    derive_seed,
    offsets_experiment,
    run_all,
    simulate,
    sweep_comb_width,
    sweep_oversampling,
    write_manifest,
)
from talbotsim.dispersion import DelayPlan, delay_plan
from talbotsim.model import CombSpec, NoiseProfile, build_grid, comb_lines
from talbotsim.superposition import lag_histogram, power_at_bins, scratch
from talbotsim.synthesis import SynthesisRequest, Workspace, synth_carrier, synth_envelope


def small_config(**kwargs):
    defaults = dict(
        comb=CombSpec(f_r=1e7, lambda0=1550e-9, width=5e8),
        oversampling=8,
        t_sig=5e-4,
        offsets=(1e4, 1e6),
        ratios=(4, 8, 16),
        widths=(1e8, 5e8),
        n_seeds=3,
        master_seed=77,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_rejects_fractional_period_window(self):
        with pytest.raises(ConfigError, match="integer number of carrier periods"):
            small_config(t_sig=1.5e-7)

    def test_rejects_half_a_period_on_a_long_window(self):
        # 1e6 + 0.5 periods of 100 MHz: half a period is refused however
        # many whole periods the window holds.
        comb = CombSpec(f_r=1e8, lambda0=1550e-9, width=1e9)
        with pytest.raises(ConfigError, match="integer number of carrier periods"):
            ExperimentConfig(comb=comb, oversampling=4, t_sig=(1e6 + 0.5) / 1e8)

    def test_accepts_whole_periods(self):
        # The desk default (2e4 periods) and the paper's grid (1e6 periods).
        assert ExperimentConfig().grid.n_samples == 320000
        paper = ExperimentConfig(comb=CombSpec(f_r=1e8, lambda0=1550e-9, width=1e11), oversampling=64, t_sig=1e-2)
        assert paper.grid.n_samples == 64_000_000

    def test_rejects_bad_seeds(self):
        with pytest.raises(ConfigError, match="n_seeds"):
            small_config(n_seeds=0)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ConfigError, match="ratios"):
            small_config(ratios=(1, 2))

    def test_default_noise_profile_used(self):
        cfg = small_config()
        profile = cfg.resolved_noise()
        assert profile.psd(1e4) == pytest.approx(1.01e-9)


class TestSeedDerivation:
    def test_stable(self):
        assert derive_seed(1, "oversampling", 0, 0) == derive_seed(1, "oversampling", 0, 0)

    def test_distinct_across_axes(self):
        seeds = {
            derive_seed(1, "oversampling", 0, 0),
            derive_seed(1, "oversampling", 0, 1),
            derive_seed(1, "oversampling", 1, 0),
            derive_seed(1, "comb_width", 0, 0),
            derive_seed(2, "oversampling", 0, 0),
        }
        assert len(seeds) == 5


def asking(power):
    """``power``, recording each call's bins, plans and the |H|^2 it returned in ``asked``."""
    asked = []

    def recorded(bins, which):
        asked.append((bins, which, power(bins, which)))
        return asked[-1][2]

    return recorded, asked


def read_through(plan, freqs, psds, offsets) -> list:
    """L at ``offsets`` of each bare periodogram of ``psds`` seen through
    ``plan``, read by ``phase_noise_from_psd``: the bins a read of them
    all through ``plan`` asks for (``BinReader.read``) hold ``psd`` times
    the |H|^2 it was given there, every other bin 0."""
    grid = plan.grid
    reader = BinReader(grid.n_samples, grid.sample_rate, grid.f_r, offsets)
    power, asked = asking(lambda bins, which: power_at_bins([plan], bins))
    reader.read(np.array([psd[reader.reads] for psd in psds]), power)
    spectra = []
    for psd in psds:
        detected = np.zeros_like(psd)
        for bins, _, (gain,) in asked:
            detected[bins] = psd[bins] * gain
        spectra.append(phase_noise_from_psd(freqs, detected, grid.sample_rate, grid.f_r, offsets))
    return spectra


def assert_same_spectrum(got, expected):
    assert (got.carrier_freq, got.carrier_power, got.df) == (expected.carrier_freq, expected.carrier_power, expected.df)
    assert np.array_equal(got.offsets, expected.offsets)
    assert np.array_equal(got.l_dbc, expected.l_dbc)


class TestSimulate:
    def test_reads_the_carrier_through_its_plan(self):
        # At 5e10 Hz the constant plan has g = 1, so its |H|^2 repeats
        # nowhere in the window.  "none" reads the bare periodogram.
        cfg = small_config(comb=CombSpec(f_r=1e7, lambda0=1550e-9, width=5e10))
        grid = cfg.grid
        freqs, psd = periodogram(synth_carrier(SynthesisRequest(grid, cfg.resolved_noise(), cfg.master_seed)))
        bare, _ = simulate(cfg, "none", points=20)
        assert_same_spectrum(bare, phase_noise_from_psd(freqs, psd, grid.sample_rate, grid.f_r, bare.offsets))
        plan = experiments._plan(cfg, grid, "constant", cfg.comb.width)
        assert np.gcd.reduce(plan.offsets % grid.n_samples, initial=grid.n_samples) == 1
        detected, _ = simulate(cfg, "constant", points=20)
        (expected,) = read_through(plan, freqs, [psd], detected.offsets)
        assert_same_spectrum(detected, expected)

    def test_carrier_with_no_power_is_refused(self, monkeypatch):
        # |H(f_c)|^2 = 0: the plan has cancelled the carrier.
        monkeypatch.setattr(experiments, "power_at_bins", lambda plans, bins, work=None: np.zeros((len(plans), len(bins))))
        with pytest.raises(CarrierNotFoundError, match="no power"):
            simulate(small_config(), "constant", points=20)

    def test_faint_carrier_is_read(self, monkeypatch):
        # The carrier keeps 1e-9 of its power and everything else passes:
        # the bare periodogram passed the dominance test, so the plan is
        # read, 90 dB up, though its detected carrier holds under 1e-6 of
        # the detected total.
        cfg = small_config()
        window = BinReader(cfg.grid.n_samples, cfg.grid.sample_rate, cfg.grid.f_r, [1.0]).window

        def faint(plans, bins, work=None):
            return np.tile(np.where(np.isin(bins, window), 1e-9, 1.0), (len(plans), 1))

        bare, _ = simulate(cfg, "none", points=20)
        monkeypatch.setattr(experiments, "power_at_bins", faint)
        detected, _ = simulate(cfg, "none", points=20)
        assert detected.carrier_power == pytest.approx(1e-9 * bare.carrier_power, rel=1e-12)
        # Sidebands whose bins lie outside the carrier window.
        far = detected.offsets >= 5 * detected.df
        assert far.sum() >= 15
        np.testing.assert_allclose(detected.l_dbc[far], bare.l_dbc[far] + 90.0, rtol=0, atol=1e-9)


class TestSweepOversampling:
    def test_row_shape_and_kinds(self):
        cfg = small_config()
        rows = sweep_oversampling(cfg)
        assert len(rows) == len(cfg.ratios) * 2 * len(cfg.offsets)
        kinds = {r.kind for r in rows}
        assert kinds == {"pure_tone", "impaired"}

    def test_impaired_rows_average_seeds(self):
        cfg = small_config()
        rows = sweep_oversampling(cfg)
        for row in rows:
            if row.kind == "impaired":
                assert row.n_seeds == cfg.n_seeds
                assert len(row.per_seed) == cfg.n_seeds
                # Stored statistics must be recomputable exactly from the
                # stored per-seed values.
                assert row.mean_l_dbc == float(np.mean(row.per_seed))
                assert row.std_l_db == float(np.std(row.per_seed))

    def test_pure_tone_floor_below_impaired(self):
        cfg = small_config()
        rows = sweep_oversampling(cfg)
        for n in cfg.ratios:
            for off in cfg.offsets:
                pure = next(
                    r for r in rows if r.kind == "pure_tone" and r.x_value == n and r.offset_hz == off
                )
                noisy = next(
                    r for r in rows if r.kind == "impaired" and r.x_value == n and r.offset_hz == off
                )
                assert noisy.mean_l_dbc - pure.mean_l_dbc >= 10.0

    def test_worker_count_does_not_change_rows(self):
        rows_serial = sweep_oversampling(small_config(workers=1))
        rows_pool = sweep_oversampling(small_config(workers=4))
        assert rows_serial == rows_pool

    def test_budget_refusal_before_synthesis(self):
        cfg = small_config(memory_budget_bytes=1000)
        with pytest.raises(BudgetError, match=r"needs about 681128 B .* over the budget of 1000 B$"):
            sweep_oversampling(cfg)

    def test_noise_refused_on_a_later_grid(self):
        # S = 1e-11 - 2e-19 f turns negative at 50 MHz: inside the band of
        # N = 16 (Fs/2 = 80 MHz) but not of N = 4 (20 MHz), which runs first.
        noise = NoiseProfile(terms=((0.0, 1e-11), (1.0, -2e-19)), f_low=1.0)
        with pytest.raises(ConfigError, match="negative on the 80000-sample window"):
            sweep_oversampling(small_config(ratios=(4, 16), noise=noise))

    def test_refuses_offsets_outside_a_ratios_range(self):
        # Bins 2 kHz apart; at N = 4, Fs/2 - f_r = 10 MHz.  Every offset
        # outside the range is named, before any synthesis.
        with pytest.raises(ConfigError) as refusal:
            sweep_oversampling(small_config(offsets=(1.0, 1e4, 1.5e7, 3e7)))
        assert str(refusal.value) == (
            "analysis.offsets [1.0, 15000000.0, 30000000.0] Hz lie outside [2000.0, 10000000.0] Hz, "
            "the range of oversampling point N=4"
        )

    def test_rejects_unsorted_ratios(self):
        with pytest.raises(ConfigError, match="ascending"):
            small_config(ratios=(8, 4))


class TestSweepCombWidth:
    WIDTHS = (1e8, 5e8, 5e10)  # all kinds share one plan at 1e8; constant differs at 5e10

    def reference(self, cfg, point: int) -> dict:
        """Per-seed L at each (width, kind), from carriers drawn on the seeds of sweep point ``point``.

        Each carrier is its complex envelope, on the envelope reader's
        window; its periodogram is put on the passband bins it stands
        for, every other bin 0, and read as a passband periodogram.
        """
        grid = cfg.grid
        reader = BinReader(grid.n_samples, grid.sample_rate, grid.f_r, cfg.offsets, envelope=True)
        freqs = np.arange(reader.size) * reader.df
        psds = []
        for seed in (derive_seed(cfg.master_seed, "comb_width", point, s) for s in range(cfg.n_seeds)):
            ws = Workspace(reader.length, reader.rate, cfg.resolved_noise(), envelope=True)
            psd = np.zeros(len(freqs))
            psd[reader.reads] = envelope_periodogram(synth_envelope(cfg.resolved_noise(), seed, ws), ws)[
                reader.reads - reader.shift
            ]
            psds.append(psd)
        per_seed = {}
        for w in cfg.widths:
            for kind in cfg.kinds:
                plan = experiments._plan(cfg, grid, kind, w)
                spectra = read_through(plan, freqs, psds, cfg.offsets)
                for i, off in enumerate(cfg.offsets):
                    per_seed[(w, kind, off)] = tuple(float(s.l_dbc[i]) for s in spectra)
        return per_seed

    def test_refuses_offsets_outside_the_grids_range(self):
        with pytest.raises(ConfigError) as refusal:
            sweep_comb_width(small_config(offsets=(1.0, 1e4)))
        assert str(refusal.value) == (
            "analysis.offsets [1.0] Hz lie outside [2000.0, 30000000.0] Hz, the range of the comb-width sweep"
        )

    def test_rows_cover_kinds_and_widths(self):
        cfg = small_config()
        rows = sweep_comb_width(cfg)
        assert len(rows) == len(cfg.widths) * len(cfg.kinds) * len(cfg.offsets)
        assert {r.kind for r in rows} == set(cfg.kinds)

    def test_worker_count_does_not_change_rows(self):
        # The 3 seeds run on the pool, so 2 and 3 workers each share them
        # out unevenly, and the 4 distinct plans are read after.  A short
        # switch interval interleaves the threads' Python code finely, so
        # two jobs handed one workspace would show in the rows.
        rows_serial = sweep_comb_width(small_config(widths=self.WIDTHS, workers=1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (2, 3):
                assert sweep_comb_width(small_config(widths=self.WIDTHS, workers=workers)) == rows_serial, workers
        finally:
            sys.setswitchinterval(interval)

    def test_every_width_reads_the_same_carriers(self):
        # Carrier s is drawn on seed (master, "comb_width", 0, s) and seen
        # through every width's plans.
        cfg = small_config(widths=self.WIDTHS)
        expected = self.reference(cfg, point=0)
        rows = sweep_comb_width(cfg)
        assert len(rows) == len(expected)
        for r in rows:
            assert r.per_seed == expected[(r.x_value, r.kind, r.offset_hz)], (r.x_value, r.kind, r.offset_hz)

    def test_identical_plans_give_identical_rows(self):
        # Kinds whose offsets mod n are one multiset share one |H|^2, so
        # their per-seed L is bit-equal; kinds that differ do not.
        cfg = small_config(widths=self.WIDTHS)
        rows = {(r.x_value, r.kind, r.offset_hz): r.per_seed for r in sweep_comb_width(cfg)}
        n = cfg.grid.n_samples
        shared = differing = 0
        for w in cfg.widths:
            keys = {k: np.sort(experiments._plan(cfg, cfg.grid, k, w).offsets % n).tobytes() for k in cfg.kinds}
            for a in cfg.kinds:
                for b in cfg.kinds:
                    same = [rows[(w, a, off)] == rows[(w, b, off)] for off in cfg.offsets]
                    if keys[a] == keys[b]:
                        assert all(same), (w, a, b)
                        shared += a != b
                    else:
                        assert not any(same), (w, a, b)
                        differing += 1
        assert shared and differing

    def test_first_width_keeps_per_width_seeds(self):
        # Drawing new seeds at each width index would give the same first
        # width and different later ones: widths are now paired.
        cfg = small_config(widths=self.WIDTHS[:2])
        rows = {(r.x_value, r.kind, r.offset_hz): r.per_seed for r in sweep_comb_width(cfg)}
        first, second = self.reference(replace(cfg, widths=cfg.widths[:1]), 0), self.reference(cfg, 1)
        assert {k: v for k, v in rows.items() if k[0] == cfg.widths[0]} == first
        assert all(rows[k] != v for k, v in second.items() if k[0] == cfg.widths[1])

    def test_power_transfer_once_per_distinct_plan(self, monkeypatch):
        # |H|^2 is summed on the read bins once per distinct plan, every
        # distinct plan in one call.
        cfg = small_config(widths=self.WIDTHS)
        n = cfg.grid.n_samples
        distinct = sum(
            len({np.sort(experiments._plan(cfg, cfg.grid, k, w).offsets % n).tobytes() for k in cfg.kinds})
            for w in cfg.widths
        )
        calls = []

        def counted(plans, bins, work=None):
            calls.append(len(plans))
            return power_at_bins(plans, bins, work)

        monkeypatch.setattr(experiments, "power_at_bins", counted)
        sweep_comb_width(cfg)
        assert calls == [distinct] and distinct < len(cfg.widths) * len(cfg.kinds)

    def test_studies_sum_each_plan_as_it_sums_alone(self, monkeypatch):
        # The bins of the desk sweep's one call for its distinct plans (17)
        # and of simulate's (about 620), on one window: every row of the
        # sweep's plans summed together is that plan summed alone.
        calls = []

        def recorded(plans, bins, work=None):
            calls.append((plans, bins))
            return power_at_bins(plans, bins, work)

        monkeypatch.setattr(experiments, "power_at_bins", recorded)
        cfg = ExperimentConfig(n_seeds=1)
        sweep_comb_width(cfg)
        (plans, sweep_bins), count = calls[0], len(calls)
        simulate(cfg, "ideal")
        simulate_bins = calls[count][1]
        assert len(plans) == 9 and len(sweep_bins) == 17 and 500 < len(simulate_bins) < 700
        for bins in (sweep_bins, simulate_bins):
            for row, plan in zip(power_at_bins(plans, bins), plans):
                assert np.array_equal(row, power_at_bins(plan, bins))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_carrier_workspace_is_alive_during_a_plan_job(self, monkeypatch, workers):
        # The plan jobs run only once the carriers' workspaces are freed.
        live = []

        def counted(plans, bins, work=None):
            live.append(sum(isinstance(o, Workspace) for o in gc.get_objects()))
            return power_at_bins(plans, bins, work)

        monkeypatch.setattr(experiments, "power_at_bins", counted)
        gc.collect()
        sweep_comb_width(small_config(t_sig=2e-4, n_seeds=2, widths=(1e8, 2e10), workers=workers))
        assert live and live == [0] * len(live)


class TestReadPlan:
    """A plan job sums |H|^2 only on the bins its read looks at."""

    N = 1000  # samples at 1000 Hz: bins 1 Hz apart, the carrier on bin 100

    def kept(self, rng, reader, carriers=4):
        """Noise on every read, and each carrier on bin 100 with its
        neighbours in the window 1e3-1e4 times lower."""
        kept = rng.random((carriers, len(reader.reads)))
        window = np.searchsorted(reader.reads, list(reader.window))
        kept[:, window] += rng.uniform(100.0, 1000.0, (carriers, len(window)))
        kept[:, window[2]] += 1e6
        return kept

    @pytest.mark.parametrize("envelope", [False, True], ids=["passband", "envelope"])
    @pytest.mark.parametrize(
        "offsets, moves",
        [
            ([0, 1, 2, 1003, 2 * 1000 + 7], False),
            # |H|^2 = cos^2(pi j 5 / n) is 0 on bin 100: every peak moves
            # off it, and the second call sums the picks of where it went.
            ([0, 5], True),
        ],
        ids=["stays", "moves"],
    )
    def test_reads_no_bin_it_does_not_sum(self, envelope, offsets, moves):
        # Offsets of 150 and 390 Hz lie above f_r, so the envelope reader
        # reads their lower sidebands below 0 Hz.  A read with NaN on
        # every bin it does not ask |H|^2 for is the same read, bit for
        # bit, and what it is given is |H|^2 summed on every bin.
        rng = np.random.default_rng(23)
        grid = build_grid(250.0, 4, self.N / 1000.0)
        reader = BinReader(self.N, 1000.0, 100.0, [1.0, 3.0, 40.0, 150.0, 390.0], envelope=envelope)
        kept = self.kept(rng, reader)
        lags = lag_histogram(DelayPlan(np.array(offsets), grid))
        work = scratch(self.N)
        power, asked = asking(lambda bins, which: power_at_bins([lags], bins, work))
        read = reader.read(kept, power)
        assert len(asked) == (2 if moves else 1)
        bins = np.concatenate([b for b, _, _ in asked])
        every_bin = np.unique(np.abs(reader.reads))
        assert np.array_equal(np.sort(bins), np.unique(bins)) and len(bins) < len(every_bin)
        assert all(np.array_equal(b, np.sort(b)) and (b >= 0).all() for b, _, _ in asked)
        assert np.isfinite(read[0]).all()
        unasked = np.where(np.isin(np.abs(reader.reads), bins), kept, np.nan)
        again, _ = asking(lambda bins, which: power_at_bins([lags], bins, work))
        for got, expected in zip(reader.read(unasked, again), read):
            assert np.array_equal(got, expected)
        assert bool(set(read[1].tolist()) - {100}) == moves
        # Within 1e-12 of |H|^2 summed on every bin; the null on bin 100
        # is near 0, where only the absolute difference means anything.
        every = power_at_bins(lags, every_bin)
        for b, _, (gain,) in asked:
            np.testing.assert_allclose(gain, every[np.searchsorted(every_bin, b)], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("envelope", [False, True], ids=["passband", "envelope"])
    def test_a_plan_that_moves_a_peak_is_asked_for_its_own_missing_picks(self, envelope):
        # Three plans read at once; only [0, 5] moves the peaks off bin
        # 100.  One call sums every plan where the bare peaks want, and a
        # second, of that plan alone, the picks it misses: the bins a read
        # of it alone asks for second.  Each plan's rows are its read alone.
        rng = np.random.default_rng(29)
        grid = build_grid(250.0, 4, self.N / 1000.0)
        reader = BinReader(self.N, 1000.0, 100.0, [1.0, 3.0, 40.0, 150.0, 390.0], envelope=envelope)
        kept = self.kept(rng, reader)
        lags = [lag_histogram(DelayPlan(np.array(o), grid)) for o in ([0, 1, 2, 1003, 2007], [0, 5], [0, 1])]
        work = scratch(self.N)
        power, asked = asking(lambda bins, which: power_at_bins([lags[p] for p in which], bins, work))
        read = reader.read(kept, power, len(lags))
        assert [which for _, which, _ in asked] == [[0, 1, 2], [1]]
        alone_power, alone = asking(lambda bins, which: power_at_bins([lags[1]], bins, work))
        reader.read(kept, alone_power)
        assert len(alone) == 2 and all(np.array_equal(a[0], b[0]) for a, b in zip(asked, alone))
        assert not set(asked[1][0].tolist()) & set(asked[0][0].tolist())
        carriers = len(kept)
        for p, plan in enumerate(lags):
            one, _ = asking(lambda bins, which: power_at_bins([plan], bins, work))
            for got, expected in zip(read, reader.read(kept, one)):
                assert np.array_equal(got[p * carriers : (p + 1) * carriers], expected)
        assert set(read[1][carriers : 2 * carriers].tolist()) != {100}

    def test_blocks_of_plans_read_as_one(self, monkeypatch):
        # A read too large for one block reads its plans a block at a
        # time: the same calls for |H|^2, and the same rows, bit for bit.
        rng = np.random.default_rng(31)
        grid = build_grid(250.0, 4, self.N / 1000.0)
        reader = BinReader(self.N, 1000.0, 100.0, [1.0, 3.0, 40.0, 150.0, 390.0], envelope=True)
        kept = self.kept(rng, reader)
        offsets = ([0, 1, 2, 1003, 2007], [0, 5], [0, 1], [0, 3, 3, 8])
        lags = [lag_histogram(DelayPlan(np.array(o), grid)) for o in offsets]
        work = scratch(self.N)
        reads = []
        for block_values in (analysis._BLOCK_VALUES, 2 * len(kept) * len(reader.reads), 1):
            monkeypatch.setattr(analysis, "_BLOCK_VALUES", block_values)
            power, asked = asking(lambda bins, which: power_at_bins([lags[p] for p in which], bins, work))
            reads.append((reader.read(kept, power, len(lags)), asked))
        (one, one_asked), *blocks = reads
        assert reader._plans_at_once(len(kept), len(lags)) == 1
        for read, asked in blocks:
            assert [(b.tolist(), w) for b, w, _ in asked] == [(b.tolist(), w) for b, w, _ in one_asked]
            for got, expected in zip(read, one):
                assert np.array_equal(got, expected)

    def test_a_refusal_names_the_first_plans_first_refused_carrier(self):
        # Bins 1 Hz apart, Nyquist at 500 Hz: an offset of 400 Hz fits a
        # carrier on bin 100 and below.  Every carrier peaks on bin 100;
        # carrier 1 holds 0.7 of that on bin 101, carrier 2 0.8 on bin
        # 102.  Plan "half" halves bin 100 and blanks bin 101: carrier 2
        # moves to bin 102 and is refused.  Plan "dark" blanks bin 100:
        # carriers 1 and 2 move, and carrier 1, on bin 101, is refused first.
        reader = BinReader(1000, 1000.0, 100.0, [10.0, 400.0])
        window = np.searchsorted(reader.reads, list(reader.window))
        kept = np.ones((3, len(reader.reads)))
        kept[:, window[2]] = 1e6
        kept[1, window[3]], kept[2, window[4]] = 0.7e6, 0.8e6
        gains = {name: np.ones(501) for name in ("flat", "half", "dark")}
        gains["half"][100], gains["half"][101] = 0.5, 0.0
        gains["dark"][100] = 0.0

        def read(*names):
            return reader.read(kept, lambda bins, which: np.array([gains[names[p]][bins] for p in which]), len(names))

        assert read("flat")[1].tolist() == [100] * 3
        message = r"^offset 400\.0 Hz outside the measurable range \[1\.0, {}\] Hz$"
        on_101, on_102 = message.format(r"399\.0"), message.format(r"398\.0")
        for names, refusal in (
            (("flat", "half", "dark"), on_102),
            (("flat", "dark", "half"), on_101),
            (("half",), on_102),
            (("dark",), on_101),
        ):
            with pytest.raises(ValueError, match=refusal):
                read(*names)

    def test_plans_share_a_histogram_when_their_offsets_mod_n_are_one_multiset(self):
        # On the desk grid, ideal and linear share one plan at 2e11 Hz and
        # constant does not; at 4e11 Hz the three differ.
        cfg = ExperimentConfig(widths=(2e11, 4e11))
        reads = experiments._comb_width_reads(cfg)
        keys, distinct = experiments._distinct_lags(cfg, reads)
        assert keys == [0, 0, 1, 2, 3, 4] and len(distinct) == 5
        n = cfg.grid.n_samples
        sorted_lags = [np.sort(experiments._plan(cfg, cfg.grid, k, w).offsets % n) for k, w in reads.plans]
        for a in range(len(keys)):
            for b in range(len(keys)):
                assert (keys[a] == keys[b]) == np.array_equal(sorted_lags[a], sorted_lags[b]), (a, b)

    def test_plans_of_one_shape_and_other_values_get_their_own_keys(self, monkeypatch):
        # Per kind, the offsets of its plan at each of two widths.  At the
        # first, all three have 3 lines and 3 distinct offsets: linear's
        # values differ, constant's are ideal's in another order, which
        # gets a key of its own, though its |H|^2 is ideal's.  At the
        # second, all have 3 lines, 2 distinct offsets and 1 repeat: linear
        # equals ideal, constant repeats another offset.
        offsets = {
            "ideal": ([0, 1, 2], [0, 0, 1]),
            "linear": ([0, 1, 3], [0, 0, 1]),
            "constant": ([2, 1, 0], [0, 1, 1]),
        }
        monkeypatch.setattr(
            experiments,
            "delay_plans",
            lambda spec, comb, grid, widths, lines=None: [DelayPlan(np.array(o), grid) for o in offsets[spec.kind]],
        )
        histogrammed = []
        monkeypatch.setattr(experiments, "lag_histogram", lambda plan: histogrammed.append(plan) or lag_histogram(plan))
        cfg = ExperimentConfig(widths=(1e8, 2e8), t_sig=2e-4, n_seeds=2)
        keys, distinct = experiments._distinct_lags(cfg, experiments._comb_width_reads(cfg))
        assert keys == [0, 1, 2, 3, 3, 4]
        # Linear's plan at the second width equals ideal's, and is not histogrammed.
        assert len(histogrammed) == 5
        assert [d.values.tolist() for d in distinct] == [[0, 1, 2], [0, 1, 3], [0, 1, 2], [0, 1], [0, 1]]
        assert [d.repeats.tolist() for d in distinct] == [[], [], [], [0], [1]]
        rows = {(r.x_value, r.kind, r.offset_hz): r.per_seed for r in sweep_comb_width(cfg)}
        for off in cfg.offsets:
            assert rows[(1e8, "constant", off)] == rows[(1e8, "ideal", off)] != rows[(1e8, "linear", off)]

    def test_one_line_plans_share_the_bare_key(self, monkeypatch):
        # Below 2 f_r every kind's plan is one line, offset 0: widths 0 and
        # 1e7 Hz read the bare plan, summed once, and 1e9 Hz its own plans.
        calls = []

        def counted(plans, bins, work=None):
            calls.append([p.lines for p in plans])
            return power_at_bins(plans, bins, work)

        monkeypatch.setattr(experiments, "power_at_bins", counted)
        cfg = ExperimentConfig(widths=(0.0, 1e7, 1e9), t_sig=2e-4, n_seeds=2)
        keys, distinct = experiments._distinct_lags(cfg, experiments._comb_width_reads(cfg))
        assert keys[:6] == [0] * 6 and 0 not in keys[6:] and distinct[0].lines == 1
        rows = sweep_comb_width(cfg)
        assert len(calls) == 1 and calls[0].count(1) == 1 and len(calls[0]) == len(distinct)
        bare = {r.offset_hz: r.per_seed for r in rows if r.x_value == 0.0 and r.kind == "ideal"}
        assert all(r.per_seed == bare[r.offset_hz] for r in rows if r.x_value < 1e9)

    def test_builds_one_reader_for_the_guard_and_the_read(self, monkeypatch):
        # The guard sizes the reader the read then uses: one candidate pass.
        built = []

        class Counted(BinReader):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(experiments, "BinReader", Counted)
        simulate(small_config(), "constant", points=20)
        assert len(built) == 1


class TestPinAllocator:
    def fake_libc(self, monkeypatch, result=1):
        """Stand in a C library whose mallopt records its calls and returns ``result``."""
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return result

        monkeypatch.setattr(experiments, "_allocator_pinned", False)
        monkeypatch.setattr(experiments, "_libc", lambda: SimpleNamespace(mallopt=mallopt))
        return calls

    def test_sets_thresholds_once_per_process(self, monkeypatch):
        calls = self.fake_libc(monkeypatch)
        experiments._pin_allocator()
        experiments._pin_allocator()
        sweep_comb_width(small_config(widths=(1e8,), n_seeds=1))
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD

    def test_refused_setting_stops_there(self, monkeypatch):
        calls = self.fake_libc(monkeypatch, result=0)
        experiments._pin_allocator()
        assert calls == [(-3, 32 << 20)]

    def test_no_mallopt_is_a_no_op(self, monkeypatch):
        rows = sweep_comb_width(small_config(widths=(1e8,), n_seeds=1))
        monkeypatch.setattr(experiments, "_allocator_pinned", False)
        monkeypatch.setattr(experiments, "_libc", lambda: SimpleNamespace())
        experiments._pin_allocator()
        assert experiments._allocator_pinned
        assert sweep_comb_width(small_config(widths=(1e8,), n_seeds=1)) == rows


class TestOffsetsExperiment:
    def test_narrow_comb_all_zero(self):
        cfg = ExperimentConfig(
            comb=CombSpec(f_r=1e8, lambda0=1550e-9, width=1e11),
            oversampling=64,
            t_sig=1e-5,
            widths=(1e11,),
        )
        (table,) = offsets_experiment(cfg)
        assert np.all(table.diff_linear == 0)
        assert table.diff_constant[0] == 0
        assert table.diff_constant[-1] == 0
        assert np.abs(table.diff_constant - table.diff_constant[::-1]).max() <= 1

    def test_each_width_has_its_own_lines_and_plans(self):
        # Every width's rows are a centre slice of the widest comb's lines.
        cfg = small_config(widths=(0.0, 1e8, 5e8, 2e9))
        tables = offsets_experiment(cfg)
        for table, width in zip(tables, cfg.widths):
            comb = replace(cfg.comb, width=width)
            lines = comb_lines(comb)
            assert table.width == width
            assert np.array_equal(table.line_index, lines.index)
            assert np.array_equal(table.lambda_nm, lines.lam * 1e9)
            ideal, linear, constant = (delay_plan(cfg.dispersion_spec(k), comb, cfg.grid) for k in ("ideal", "linear", "constant"))
            assert np.array_equal(table.diff_linear, ideal.offsets - linear.offsets)
            assert np.array_equal(table.diff_constant, ideal.offsets - constant.offsets)

    def test_lambda_column_in_nm(self):
        cfg = small_config(widths=(5e8,))
        (table,) = offsets_experiment(cfg)
        assert 1500 < table.lambda_nm.mean() < 1600

    def test_full_scale_wide_comb_magnitudes(self):
        # At 3 THz and N=64 the linear deviation reaches hundreds of
        # samples and the constant deviation thousands.
        cfg = ExperimentConfig(
            comb=CombSpec(f_r=1e8, lambda0=1550e-9, width=3e12),
            oversampling=64,
            t_sig=1e-5,
            widths=(3e12,),
        )
        (table,) = offsets_experiment(cfg)
        lin_max = np.abs(table.diff_linear).max()
        con_max = np.abs(table.diff_constant).max()
        assert 100 <= lin_max < 1000, lin_max
        assert 1e3 <= con_max < 1e5, con_max

    def test_ideal_width_trend_at_far_offset(self):
        # Wider combs keep improving the far-from-carrier noise for the
        # matched characteristic: a net decrease over the sweep, and no
        # sustained rise above the deterministic comb-filter ripple.
        cfg = small_config(
            kinds=("ideal",),
            widths=(5e8, 1e9, 2e9, 5e9, 1e10, 2e10),
            offsets=tuple(1e6 * np.geomspace(0.7, 1.4, 9)),
            n_seeds=4,
        )
        rows = sweep_comb_width(cfg)
        curve = []
        for w in cfg.widths:
            sel = [10 ** (r.mean_l_dbc / 10) for r in rows if r.x_value == w]
            curve.append(10 * np.log10(np.mean(sel)))
        assert curve[-1] < curve[0], curve
        running_min = np.minimum.accumulate(curve)
        assert np.all(np.asarray(curve) <= running_min + 10.0), curve


class TestRunAll:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = small_config(out_dir=tmp_path / "a", widths=(1e8, 5e8), n_seeds=2)
        manifest_a = run_all(cfg)
        blobs_a = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
        cfg_b = replace(cfg, out_dir=tmp_path / "b")
        manifest_b = run_all(cfg_b)
        blobs_b = {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()}
        assert blobs_a.keys() == blobs_b.keys()
        for name in blobs_a:
            if name != "manifest.json":
                assert blobs_a[name] == blobs_b[name], name
        assert [f["sha256"] for f in manifest_a.files] == [f["sha256"] for f in manifest_b.files]

    def test_manifest_lists_files_with_hashes(self, tmp_path):
        cfg = small_config(out_dir=tmp_path, widths=(1e8,), n_seeds=2)
        manifest = run_all(cfg)
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["config_sha256"] == manifest.config_sha256
        assert data["master_seed"] == cfg.master_seed
        names = {f["name"] for f in data["files"]}
        assert "sweep_oversampling.csv" in names
        assert "sweep_comb_width.csv" in names
        import hashlib

        for entry in data["files"]:
            digest = hashlib.sha256((tmp_path / entry["name"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_manifest_records_numpy_version(self, tmp_path):
        # numpy's FFT and its random streams make the output bytes.
        write_manifest(small_config(out_dir=tmp_path), [], "all", {})
        versions = json.loads((tmp_path / "manifest.json").read_text())["versions"]
        assert versions == {"talbotsim": talbotsim.__version__, "numpy": np.__version__}

    def test_budget_refusal_recorded(self, tmp_path):
        cfg = small_config(out_dir=tmp_path, memory_budget_bytes=1000)
        manifest = run_all(cfg)
        assert len(manifest.refusals) >= 1
        refusal = manifest.refusals[0]
        assert refusal["estimate_bytes"] > 1000
        assert refusal["budget_bytes"] == 1000
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["refusals"] == manifest.refusals

    def test_svg_rendering(self, tmp_path):
        cfg = small_config(out_dir=tmp_path, widths=(1e8,), n_seeds=2)
        manifest = run_all(cfg, render_svg=True)
        names = {f["name"] for f in manifest.files}
        svgs = [n for n in names if n.endswith(".svg")]
        assert len(svgs) >= 3

    def test_pure_tone_comb_width_sweep_is_an_error(self, tmp_path):
        # With no phase noise the comb-width sweep is refused before it
        # synthesizes anything; the oversampling sweep's pure tone runs.
        manifest = run_all(small_config(out_dir=tmp_path, widths=(1e8,), n_seeds=1, noise_enabled=False))
        assert [e["experiment"] for e in manifest.errors] == ["sweep-comb-width"]
        assert manifest.errors[0]["error"].startswith("ConfigError: the comb-width sweep")
        assert "sweep-oversampling" in manifest.errors[0]["error"]
        assert {f["name"] for f in manifest.files} >= {"sweep_oversampling.csv"}
        assert not list(tmp_path.glob("sweep_comb_width*"))

    def test_study_that_cannot_plot_writes_nothing(self, tmp_path):
        # A width of 0 has no place on the comb-width sweep's log axis: that
        # study is refused before it runs, and the others still run.
        cfg = small_config(out_dir=tmp_path, widths=(0.0, 1e8), n_seeds=1)
        manifest = run_all(cfg, render_svg=True)
        assert [e["experiment"] for e in manifest.errors] == ["sweep-comb-width"]
        assert "log axis" in manifest.errors[0]["error"]
        assert not list(tmp_path.glob("sweep_comb_width*"))
        assert {p.name for p in tmp_path.iterdir()} == {f["name"] for f in manifest.files} | {"manifest.json"}


class TestSweepCsv:
    def test_schema(self, tmp_path):
        cfg = small_config(widths=(1e8,), n_seeds=2)
        rows = sweep_comb_width(cfg)
        (path,) = experiments._write_sweep("rows", rows, tmp_path, False)
        assert path == tmp_path / "rows.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "x_value,dispersion_kind,offset_hz,mean_L_dbc_hz,std_L_db,n_seeds"
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[1] in cfg.kinds
        assert int(first[5]) == 2


class TestCsvWriters:
    def test_spectrum_csv(self, tmp_path):
        spec = PhaseNoiseSpectrum(
            carrier_freq=1e7,
            carrier_power=0.5,
            offsets=np.array([1e4, 1e6]),
            l_dbc=np.array([-93.25, -113.5]),
            df=500.0,
        )
        # No jitter band: the spectrum alone, and no SVG unless asked for.
        assert experiments._write_simulate((spec, None), tmp_path, False) == [tmp_path / "spectrum.csv"]
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines == ["offset_hz,L_dbc_hz", "10000,-93.25", "1000000,-113.5"]

    def test_jitter_csv(self, tmp_path):
        spec = PhaseNoiseSpectrum(1e7, 0.5, np.array([1e4, 1e6]), np.array([-93.25, -113.5]), 500.0)
        result = JitterResult(integrated_l=1e-6, band=(1e4, 1e6), rms_time_jitter=2.25e-11)
        files = experiments._write_simulate((spec, result), tmp_path, True)
        assert [p.name for p in files] == ["spectrum.csv", "spectrum.svg", "jitter.csv"]
        lines = (tmp_path / "jitter.csv").read_text().splitlines()
        assert lines[0] == "f_min_hz,f_max_hz,integrated_L,rms_jitter_s"
        assert lines[1] == "10000,1000000,1e-06,2.25e-11"

    def test_floats_in_ten_digits_and_other_values_as_str(self, tmp_path):
        rows = [(1.0, "ideal", np.float64(1 / 3), np.int64(-7), 12345678901, 2.5e-300, float("-inf"))]
        path = experiments._write_csv(tmp_path / "t.csv", "a,b,c,d,e,f,g", rows)
        assert path.read_text() == "a,b,c,d,e,f,g\n1,ideal,0.3333333333,-7,12345678901,2.5e-300,-inf\n"
