"""Config resolution, subcommands, artifacts, and exit codes."""

import argparse
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from talbotsim import experiments
from talbotsim.analysis import BinReader
from talbotsim.cli import _KEYS, _build_parser, experiment_config, main, parse_config
from talbotsim.errors import ConfigError
from talbotsim.experiments import STUDIES, ExperimentConfig
from talbotsim.model import build_grid
from talbotsim.svgplot import line_chart, offsets_chart
from talbotsim.synthesis import default_noise_profile


class TestParseConfig:
    def test_defaults(self):
        # No key set: every value is ExperimentConfig's own default.
        assert parse_config() == {}
        assert experiment_config(parse_config()) == ExperimentConfig()

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "comb.f_r = 1e7\n"
            "grid.oversampling = 16\n"
            "analysis.offsets = 1e4, 1e6\n"
            "noise.term = {alpha = 0, b = 1e-11}\n"
            "noise.term = {alpha = -2, b = 1e-1}\n"
        )
        cli = parse_config(path)
        assert cli["comb.f_r"] == 1e7
        assert cli["grid.oversampling"] == 16
        assert cli["analysis.offsets"] == [1e4, 1e6]
        assert cli["noise.term"] == [{"alpha": 0, "b": 1e-11}, {"alpha": -2, "b": 1e-1}]

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("grid.oversampling = 16\n")
        cli = parse_config(path, {"grid.oversampling": 32})
        assert cli["grid.oversampling"] == 32

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("comb.frequency = 1e7\n")
        with pytest.raises(ConfigError, match="unknown key 'comb.frequency'"):
            parse_config(path)

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="override: unknown key 'comb.frequency'"):
            parse_config(None, {"comb.frequency": 1e7})

    def test_quoted_value_is_kept_whole(self, tmp_path):
        # Inside double quotes "," separates no list items and "#" starts no comment.
        path = tmp_path / "run.cfg"
        path.write_text('dispersion.table = "a,b#c.txt"  # a "quoted" comment\nanalysis.offsets = 1e4, 1e6 # two\n')
        assert parse_config(path) == {"dispersion.table": "a,b#c.txt", "analysis.offsets": [1e4, 1e6]}

    def test_error_names_location(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("comb.f_r = 1e7\ncomb.width = broad\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2"):
            parse_config(path)

    def test_type_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("grid.oversampling = 16.5\n")
        with pytest.raises(ConfigError, match="integer"):
            parse_config(path)

    def test_duplicate_scalar_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("comb.f_r = 1e7\ncomb.f_r = 2e7\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_window_snapping_rule_named(self):
        values = parse_config(None, {"grid.t_sig": 1.23e-7, "comb.f_r": 1e7})
        with pytest.raises(ConfigError, match="integer number of carrier periods"):
            experiment_config(values)

    def test_half_period_window_exits_2(self, tmp_path, capsys):
        # 1e6 + 0.5 periods of 100 MHz: refused before anything is written.
        out = tmp_path / "out"
        argv = ["simulate", "--f-r", "1e8", "--oversampling", "4", "--t-sig", repr((1e6 + 0.5) / 1e8), "--out", str(out)]
        assert main(argv) == 2
        assert "integer number of carrier periods" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(tmp_path / "nope.cfg")


def guard_figures(out: str) -> dict[str, int]:
    """Study name to the bytes its guard predicts, from estimate-memory's output."""
    return {m[1]: int(m[2]) for m in re.finditer(r"^([\w-]+): (\d+) bytes", out, re.M)}


class TestEstimateMemorySubcommand:
    # The paper's grid: 100 MHz repetition rate, 10 ms window.
    PAPER = ["--t-sig", "1e-2", "--f-r", "1e8"]

    def test_full_band_figure_and_refusal(self, capsys):
        code = main(["estimate-memory", "--width", "3e12"] + self.PAPER)
        out = capsys.readouterr()
        # The paper's figure is information: the guard refuses the oversampling
        # sweep, whose ratio 64 holds 64e6 samples, and no other study.
        assert "447.0 GiB" in out.out
        assert code == 3
        assert "budget refusal: sweep-oversampling would refuse" in out.err
        assert "simulate" not in out.err and "sweep-comb-width" not in out.err
        figures = guard_figures(out.out)
        assert sorted(figures) == sorted(STUDIES)
        assert figures["sweep-oversampling"] > 2**30 > max(figures["simulate"], figures["sweep-comb-width"])

    def test_paper_grid_config(self, capsys):
        # The committed paper-grid config: 64M samples, widths to 3 THz.
        # Under the default budget the comb-width sweep runs, and simulate
        # and the oversampling sweep, which hold the real carrier, exit 3
        # at about 1.2 GiB.
        path = Path(__file__).resolve().parents[1] / "configs" / "paper-grid.cfg"
        cfg = experiment_config(parse_config(path))
        assert (cfg.comb.f_r, cfg.grid.n_samples, cfg.widths) == (1e8, 64_000_000, (1e11, 3e12))
        assert main(["estimate-memory", "--config", str(path)]) == 3
        out = capsys.readouterr()
        assert "budget refusal: simulate, sweep-oversampling would refuse" in out.err
        figures = guard_figures(out.out)
        assert figures["sweep-comb-width"] < 2**30 < min(figures["simulate"], figures["sweep-oversampling"])
        assert max(figures["simulate"], figures["sweep-oversampling"]) < 1.25 * 2**30

    def test_reduced_within_budget(self, capsys):
        # Half the paper's window at twice its oversampling: the same
        # reduced signal of 2e6 samples, on a grid where the sweeps can
        # measure the default offsets.  Ratio 64's guard figure is 0.63 GiB.
        code = main(["estimate-memory", "--oversampling", "4", "--t-sig", "5e-3", "--f-r", "1e8"])
        out = capsys.readouterr()
        assert code == 0, out.err
        assert "15.3 MiB" in out.out
        assert out.err == ""
        assert max(guard_figures(out.out).values()) <= 2**30

    def test_no_measurable_offset_is_a_config_error(self, capsys):
        # At the paper's 2 samples per period, Fs/2 - f_r = 0 leaves the
        # studies nothing to measure; the storage figures come first.  The
        # dry run makes simulate's check of its own offsets first, as
        # simulate's guard reads at them.
        code = main(["estimate-memory", "--oversampling", "2"] + self.PAPER)
        out = capsys.readouterr()
        assert code == 2
        assert "15.3 MiB" in out.out
        assert "config error: grid.oversampling = 2 with grid.t_sig = 0.01 s leaves no offset" in out.err

    def test_writes_nothing(self, tmp_path, capsys):
        # It takes no output flags: argparse refuses them with exit 2.
        for flags in (["--out", str(tmp_path / "out")], ["--format", "csv+svg"], ["--seed", "3"]):
            with pytest.raises(SystemExit) as refusal:
                main(["estimate-memory", "--t-sig", "2e-4"] + flags)
            assert refusal.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seeds_add_only_what_outlives_their_jobs(self, capsys):
        figures = []
        for seeds in ("1", "4", "7"):
            assert main(["estimate-memory", "--t-sig", "2e-4", "--seeds", seeds]) == 0
            figures.append(guard_figures(capsys.readouterr().out))
        one, four, seven = figures
        assert sorted(one) == sorted(STUDIES)
        for name in ("simulate", "offsets-diff", "dispersion-eval"):
            assert four[name] == one[name], name
        # On one worker the jobs run one at a time, so more seeds add no
        # workspace and no plan job, only bytes to the largest phase: for the
        # comb-width sweep, its plan phase, with each carrier's values on the
        # read bins, a row of one array, and its L, bin and power through
        # each of 24 plans, none of one line; for the oversampling sweep at
        # its largest ratio, 64, its carrier phase, with each carrier's
        # values, the other 4 ratios' carriers, and its value in their rows,
        # per offset.  Both count a pick-table row (6 int32 picks and 2 flags
        # an offset) for each bin of the 5-bin carrier window that a
        # carrier's peak can fall on through a plan: all 5 for the comb-width
        # sweep, and for the oversampling sweep one for each of its carriers,
        # the pure tone and the seeds, up to 5.
        offsets = ExperimentConfig.offsets
        value = 8  # float64, or an int64 bin
        for name, ratio, envelope in (("sweep-comb-width", 16, True), ("sweep-oversampling", 64, False)):
            grid = build_grid(1e7, ratio, 2e-4)
            reads = len(BinReader(grid.n_samples, grid.sample_rate, grid.f_r, offsets, envelope).reads)
            if envelope:
                per_seed = value * reads + 24 * value * (len(offsets) + 2)
                rows = {seeds: 5 for seeds in (1, 4, 7)}
            else:
                per_seed = value * reads + 4 * experiments._CARRIER_BYTES
                per_seed += 4 * experiments._ROW_BYTES_PER_VALUE * len(offsets)
                rows = {seeds: min(5, 1 + seeds) for seeds in (1, 4, 7)}
            row = (6 * 4 + 2) * len(offsets)
            assert four[name] - one[name] == 3 * per_seed + (rows[4] - rows[1]) * row, name
            assert seven[name] - four[name] == 3 * per_seed + (rows[7] - rows[4]) * row, name


def subcommand_options() -> dict[str, set[str]]:
    """Each subcommand's option strings, --help aside."""
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"} for name, p in sub.choices.items()
    }


#: The flags each subcommand takes: those of the config keys its study reads.
FLAGS = {
    "simulate": "--f-r --lambda0 --width --oversampling --t-sig --m --table --pure-tone --seed --out --format "
    "--memory-budget --kind --points --jitter-band",
    "sweep-oversampling": "--f-r --t-sig --pure-tone --offsets --ratios --seeds --seed --out --format --memory-budget",
    "sweep-comb-width": "--f-r --lambda0 --oversampling --t-sig --kinds --m --table --pure-tone --offsets --widths "
    "--seeds --seed --out --format --memory-budget",
    "offsets-diff": "--f-r --lambda0 --oversampling --t-sig --m --widths --out --format --memory-budget",
    "dispersion-eval": "--f-r --lambda0 --width --oversampling --t-sig --m --table --out --memory-budget --kind",
    "estimate-memory": "--memory-budget --f-r --lambda0 --width --oversampling --t-sig --offsets --seeds",
}


class TestParser:
    def test_built_once_per_process(self):
        assert _build_parser() is _build_parser()

    def test_flags_follow_the_registry(self):
        options = subcommand_options()
        assert sorted(options) == sorted([*STUDIES, "estimate-memory"])
        for study in STUDIES.values():
            flags = {_KEYS[key][2] for key in study.keys} - {None}
            own = {"--" + name.replace("_", "-") for name in study.args}
            assert options[study.name] == {"--config"} | flags | own, study.name

    def test_subcommand_flags(self):
        options = subcommand_options()
        assert options == {name: {"--config", *flags.split()} for name, flags in FLAGS.items()}
        assert sum(map(len, options.values())) == 73

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--seeds", "3"],
            ["simulate", "--offsets", "1e4"],
            ["sweep-oversampling", "--oversampling", "8"],
            ["sweep-comb-width", "--width", "1e9"],
            ["offsets-diff", "--width", "1e9"],
            ["offsets-diff", "--seed", "3"],
            ["dispersion-eval", "--format", "csv"],
            # No flag is abbreviated.
            ["simulate", "--jitter", "1e4:1e6"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_flag_of_a_key_the_study_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as refusal:
            main(argv)
        assert refusal.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"## Command line\n.*?```\n(.*?)```", readme, re.S).group(1)
        lines = [line for line in block.splitlines() if line.startswith("talbotsim ")]
        assert len(lines) == 6
        for line in lines:
            _build_parser().parse_args(shlex.split(line)[1:])

    def test_calls_parse_independently(self, tmp_path, capsys):
        # A flag given to one call does not carry into the next.
        argv = ["simulate", "--kind", "none", "--t-sig", "2e-4", "--points", "5"]
        assert main(argv + ["--pure-tone", "--seed", "3", "--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        a, b = (json.loads((tmp_path / d / "manifest.json").read_text())["config"] for d in "ab")
        assert (a["noise"], a["master_seed"]) == (None, 3)
        assert b["noise"] is not None and b["master_seed"] == ExperimentConfig.master_seed
        assert main(["estimate-memory", "--t-sig", "2e-4", "--memory-budget", "1000000"]) == 3
        assert main(["estimate-memory", "--t-sig", "2e-4"]) == 0


class TestDispersionEvalSubcommand:
    def test_prints_center_dispersion(self, tmp_path, capsys):
        code = main(
            [
                "dispersion-eval",
                "--kind",
                "ideal",
                "--f-r",
                "1e8",
                "--width",
                "2e8",
                "--t-sig",
                "1e-5",
                "--oversampling",
                "64",
                "--out",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1.248e+07 ps/nm" in out
        csv = (tmp_path / "dispersion_eval.csv").read_text().splitlines()
        assert csv[0] == "line_index,lambda_nm,d_ps_per_nm,offset_samples"
        assert len(csv) == 4


class TestOffsetsDiffSubcommand:
    def test_linear_column_zero_at_100ghz(self, tmp_path):
        code = main(
            [
                "offsets-diff",
                "--f-r",
                "1e8",
                "--t-sig",
                "1e-5",
                "--oversampling",
                "64",
                "--widths",
                "1e11",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        csv = (tmp_path / "offsets_diff_1e+11.csv").read_text().splitlines()
        assert csv[0] == "line_index,lambda_nm,diff_linear_samples,diff_constant_samples"
        diffs = [int(line.split(",")[2]) for line in csv[1:]]
        assert all(d == 0 for d in diffs)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["versions"]["talbotsim"]


class TestSimulateSubcommand:
    def test_writes_spectrum_and_jitter(self, tmp_path):
        code = main(
            [
                "simulate",
                "--kind",
                "ideal",
                "--width",
                "2e8",
                "--t-sig",
                "2e-4",
                "--seed",
                "9",
                "--points",
                "40",
                "--jitter-band",
                "2e4:2e6",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        spectrum = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "offset_hz,L_dbc_hz"
        assert len(spectrum) > 30
        jitter_row = (tmp_path / "jitter.csv").read_text().splitlines()[1].split(",")
        assert float(jitter_row[0]) == 2e4
        assert float(jitter_row[2]) > 0

    def test_pure_tone_flag(self, tmp_path):
        code = main(
            [
                "simulate",
                "--kind",
                "none",
                "--pure-tone",
                "--t-sig",
                "2e-4",
                "--points",
                "20",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
        levels = [float(r.split(",")[1]) for r in rows]
        assert max(levels) < -200.0

    def test_budget_refusal_exit_code(self, tmp_path):
        code = main(
            [
                "simulate",
                "--kind",
                "none",
                "--t-sig",
                "2e-4",
                "--memory-budget",
                "1000",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3

    def test_config_error_exit_code(self, tmp_path):
        code = main(["simulate", "--t-sig", "1.23e-7", "--out", str(tmp_path)])
        assert code == 2


class TestSweepSubcommands:
    def test_sweep_oversampling_csv_and_svg(self, tmp_path):
        code = main(
            [
                "sweep-oversampling",
                "--ratios",
                "4,8",
                "--t-sig",
                "2e-4",
                "--seeds",
                "2",
                "--format",
                "csv+svg",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "sweep_oversampling.csv").exists()
        svgs = sorted(p.name for p in tmp_path.glob("*.svg"))
        assert len(svgs) == 2  # one chart per offset of interest

    def test_sweep_comb_width_runs(self, tmp_path):
        code = main(
            [
                "sweep-comb-width",
                "--widths",
                "1e8,5e8",
                "--t-sig",
                "2e-4",
                "--seeds",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "sweep_comb_width.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 3 * 2

    def test_sweep_comb_width_on_the_papers_grid(self, tmp_path, capsys):
        # Acceptance criteria 1 and 3 together: f_r = 100 MHz at N = 64 over
        # 10 ms, 64M samples per real carrier.  Each envelope needs 40500,
        # so the sweep fits the default 1 GiB budget.  At 3 THz the ideal
        # plan's delays reach 300 us and suppress the 10 kHz offset; the
        # constant plan's do not.
        argv = ["sweep-comb-width", "--f-r", "1e8", "--oversampling", "64", "--t-sig", "1e-2"]
        argv += ["--widths", "1e11,3e12", "--seeds", "2", "--out", str(tmp_path)]
        assert main(argv) == 0, capsys.readouterr().err
        rows = [line.split(",") for line in (tmp_path / "sweep_comb_width.csv").read_text().splitlines()[1:]]
        at = {(float(w), kind, float(off)): float(mean) for w, kind, off, mean, *_ in rows}
        assert at[(3e12, "ideal", 1e4)] <= at[(3e12, "constant", 1e4)] - 10.0, at


class TestTabulatedDispersion:
    def table_file(self, tmp_path):
        # Dense sampling of the one-period-per-line characteristic at
        # 100 MHz around 1550 nm, in the documented two-column format.
        lam_nm = np.linspace(1549.0, 1551.0, 201)
        c = 2.99792458e8
        d_ps_nm = c / ((lam_nm * 1e-9) ** 2 * 1e8**2) * 1e3
        rows = ["# lambda_nm  D_ps_per_nm"]
        rows += [f"{lam:.6f}  {d:.6f}" for lam, d in zip(lam_nm, d_ps_nm)]
        path = tmp_path / "element.txt"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_dispersion_eval_tabulated(self, tmp_path, capsys):
        table = self.table_file(tmp_path)
        code = main(
            [
                "dispersion-eval",
                "--kind",
                "tabulated",
                "--table",
                str(table),
                "--f-r",
                "1e8",
                "--width",
                "2e8",
                "--t-sig",
                "1e-5",
                "--oversampling",
                "64",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1.248e+07 ps/nm" in out
        # The dense table reproduces the ideal plan: one period per line.
        offsets = [
            int(line.split(",")[3])
            for line in (tmp_path / "dispersion_eval.csv").read_text().splitlines()[1:]
        ]
        assert sorted(offsets) == [0, 64, 128]

    def test_tabulated_requires_table(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--kind",
                "tabulated",
                "--t-sig",
                "2e-4",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "dispersion.table" in capsys.readouterr().err


class TestExitCodes:
    def test_runtime_failure_is_one(self, tmp_path, capsys):
        # An output directory that cannot be made fails after the run:
        # runtime error, not a config or budget problem.
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(
            [
                "simulate",
                "--kind",
                "none",
                "--t-sig",
                "2e-4",
                "--points",
                "10",
                "--out",
                str(blocker / "out"),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flag_value_is_config_error(self, tmp_path):
        code = main(["simulate", "--t-sig", "1.23e-7", "--out", str(tmp_path)])
        assert code == 2


class TestNoiseConfig:
    def test_noise_terms_from_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "noise.term = {alpha = 0, b = 1e-9}\n"
            "noise.f_low = 1e3\n"
            "grid.t_sig = 2e-4\n"
        )
        profile = experiment_config(parse_config(cfg_file)).resolved_noise()
        assert profile.psd(1e4) == pytest.approx(1e-9)
        assert profile.f_low == 1e3

    def test_f_low_without_terms_applies_to_default_profile(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("noise.f_low = 1e3\ngrid.t_sig = 2e-4\n")
        profile = experiment_config(parse_config(cfg_file)).resolved_noise()
        assert profile.f_low == 1e3
        assert profile.terms == default_noise_profile().terms

    def test_noise_disabled_gives_pure_tone(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("noise.enabled = false\ngrid.t_sig = 2e-4\n")
        code = main(
            [
                "simulate",
                "--kind",
                "none",
                "--config",
                str(cfg_file),
                "--points",
                "20",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
        assert max(float(r.split(",")[1]) for r in rows) < -200.0

    def test_manifest_echoes_resolved_config(self, tmp_path):
        # sweep-oversampling reads no grid.oversampling, so only a config file sets it.
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("grid.oversampling = 8\n")
        code = main(
            [
                "sweep-oversampling",
                "--ratios",
                "4,8",
                "--t-sig",
                "2e-4",
                "--seeds",
                "2",
                "--config",
                str(cfg_file),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["ratios"] == [4, 8]
        assert manifest["config"]["n_seeds"] == 2
        assert manifest["config"]["oversampling"] == 8


class TestRenderPlots:
    @pytest.mark.parametrize(
        "series, logx, message",
        [
            ([], False, r"nothing to plot"),
            ([("a", [], [])], False, r"nothing to plot"),
            ([("a", [1.0, 2.0], [float("nan"), float("-inf")])], False, r"no finite y values to plot"),
            ([("a", [0.0, 1.0], [1.0, 2.0])], True, r"log x axis needs positive x values"),
        ],
        ids=["no-series", "no-points", "no-finite-y", "log-x-at-zero"],
    )
    def test_line_chart_refuses(self, series, logx, message):
        with pytest.raises(ValueError, match=message):
            line_chart(series, logx=logx)

    def test_sweep_csv_three_curves(self, tmp_path):
        rows = [
            experiments.SweepRow(x, kind, off, -100.0, -0.5, 2)
            for kind in ("ideal", "linear", "constant")
            for off in (1e4, 1e6)
            for x in (1e8, 1e9, 1e10)
        ]
        csv, *written = experiments._write_sweep("sweep_comb_width", rows, tmp_path, True)
        assert csv.name == "sweep_comb_width.csv"
        assert [p.name for p in written] == ["sweep_comb_width_offset_10000.svg", "sweep_comb_width_offset_1000000.svg"]
        for path in written:
            svg = path.read_text()
            assert svg.count("<polyline") == 3
            for kind in ("ideal", "linear", "constant"):
                assert kind in svg

    def test_deterministic_svg(self, tmp_path):
        index = np.arange(-5, 6)
        table = experiments.OffsetsTable(1e11, index, 1550 + 0.01 * index, 0 * index, abs(index))
        a = offsets_chart(table, "offsets_diff_1e+11", tmp_path)
        assert a == tmp_path / "offsets_diff_1e+11.svg"
        (tmp_path / "b").mkdir()
        b = offsets_chart(table, "offsets_diff_1e+11", tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()
