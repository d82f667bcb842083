"""The study registry through the command line: manifests, bad input,
config keys every study honours, and the concurrent-job budget."""

import contextlib
import hashlib
import io
import json
import os
import pickle
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import talbotsim
from talbotsim import dispersion, experiments
from talbotsim.cli import _KEYS, _build_parser, _overrides_from_args, experiment_config, main, parse_config
from talbotsim.dispersion import delay_plans
from talbotsim.errors import BudgetError
from talbotsim.experiments import STUDIES, ExperimentConfig, dry_run, run_study
from talbotsim.model import SPEED_OF_LIGHT, CombSpec, NoiseProfile

SMALL = ["--t-sig", "2e-4"]

#: Run in a fresh interpreter: ``run_study`` on the (name, config, args)
#: pickled on stdin, printing the peak bytes tracemalloc sees it take.
TRACE_STUDY = """
import pickle, sys, tracemalloc
from talbotsim.experiments import run_study
name, cfg, args = pickle.load(sys.stdin.buffer)
tracemalloc.start()
start = tracemalloc.get_traced_memory()[0]
run_study(name, cfg, args)
print(tracemalloc.get_traced_memory()[1] - start)
"""


def traced_peak(name, cfg, args) -> int:
    """The peak bytes of ``run_study(name, cfg, args)`` as the first study
    of a fresh interpreter, as a command-line run takes it, whatever this
    process has run before."""
    package_root = str(Path(talbotsim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", TRACE_STUDY], input=pickle.dumps((name, cfg, args)), env=env, capture_output=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr.decode()
    return int(child.stdout)


def write_table(path, scale=1.0, half_span_nm=0.5):
    """Ideal 10 MHz characteristic around 1550 nm, times ``scale``."""
    lam_nm = np.linspace(1550.0 - half_span_nm, 1550.0 + half_span_nm, 401)
    d_ps_nm = scale * SPEED_OF_LIGHT / ((lam_nm * 1e-9) ** 2 * 1e7**2) * 1e3
    rows = [f"{lam:.6f}  {d:.9g}" for lam, d in zip(lam_nm, d_ps_nm)]
    path.write_text("# lambda_nm  D_ps_per_nm\n" + "\n".join(rows) + "\n")
    return path


def run(tmp_path, name, argv, config=""):
    """Run one subcommand into a fresh ``name`` directory; return its manifest and output bytes."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / name
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + SMALL + ["--config", str(cfg), "--out", str(out)])
    assert code == 0, (name, argv, config)
    manifest = json.loads((out / "manifest.json").read_text())
    return manifest, {p.name: p.read_bytes() for p in out.iterdir()}


SIM = ["simulate", "--width", "2e10", "--points", "20"]
TABLE = "dispersion.table = {table}\n"

# (subcommand argv, config) pairs that differ in one output-affecting input.
DIFFERING = {
    "simulate-kind": ((SIM + ["--kind", "ideal"], ""), (SIM + ["--kind", "constant"], "")),
    "simulate-pure-tone": ((SIM, ""), (SIM + ["--pure-tone"], "")),
    "simulate-points": ((SIM, ""), (SIM[:-1] + ["30"], "")),
    "simulate-jitter-band": (
        (SIM + ["--jitter-band", "2e4:2e5"], ""),
        (SIM + ["--jitter-band", "2e4:2e6"], ""),
    ),
    "simulate-m": ((SIM, "dispersion.m = 1\n"), (SIM, "dispersion.m = 2\n")),
    "simulate-noise": ((SIM, "noise.enabled = true\n"), (SIM, "noise.enabled = false\n")),
    "simulate-table": ((SIM + ["--kind", "tabulated"], TABLE), (SIM + ["--kind", "tabulated"], TABLE)),
    "sweep-oversampling-noise": (
        (["sweep-oversampling", "--ratios", "4,8", "--seeds", "1"], ""),
        (["sweep-oversampling", "--ratios", "4,8", "--seeds", "1"], "noise.enabled = false\n"),
    ),
    "sweep-comb-width-m": (
        (["sweep-comb-width", "--widths", "1e9", "--seeds", "1"], ""),
        (["sweep-comb-width", "--widths", "1e9", "--seeds", "1"], "dispersion.m = 2\n"),
    ),
    "sweep-comb-width-table": (
        (["sweep-comb-width", "--widths", "1e9", "--seeds", "1", "--kinds", "tabulated"], TABLE),
        (["sweep-comb-width", "--widths", "1e9", "--seeds", "1", "--kinds", "tabulated"], TABLE),
    ),
    "offsets-diff-m": (
        (["offsets-diff", "--widths", "1e10"], ""),
        (["offsets-diff", "--widths", "1e10"], "dispersion.m = 2\n"),
    ),
    "dispersion-eval-kind": (
        (["dispersion-eval", "--width", "1e10", "--kind", "ideal"], ""),
        (["dispersion-eval", "--width", "1e10", "--kind", "linear"], ""),
    ),
    "dispersion-eval-m": (
        (["dispersion-eval", "--width", "1e10"], ""),
        (["dispersion-eval", "--width", "1e10", "--m", "2"], ""),
    ),
    "dispersion-eval-table": (
        (["dispersion-eval", "--width", "1e10", "--kind", "tabulated"], TABLE),
        (["dispersion-eval", "--width", "1e10", "--kind", "tabulated"], TABLE),
    ),
}


class TestManifestHash:
    @pytest.mark.parametrize("case", sorted(DIFFERING))
    def test_output_affecting_input_changes_hash(self, tmp_path, case):
        # Both runs write to the same directory; table cases keep the path
        # and change only the file's contents.
        table = tmp_path / "element.txt"
        outputs = []
        for i, (argv, config) in enumerate(DIFFERING[case]):
            write_table(table, scale=1.0 if i == 0 else 0.5)
            outputs.append(run(tmp_path, "out", argv, config.format(table=table)))
        (ma, fa), (mb, fb) = outputs
        assert ma["config_sha256"] != mb["config_sha256"]
        fa.pop("manifest.json"), fb.pop("manifest.json")
        assert fa != fb, "the pair should differ in output bytes"

    @pytest.mark.parametrize(
        "argv",
        [
            SIM + ["--jitter-band", "2e4:2e6", "--format", "csv+svg"],
            ["sweep-oversampling", "--ratios", "4,8", "--seeds", "2", "--format", "csv+svg"],
            ["sweep-comb-width", "--widths", "1e8,1e9", "--seeds", "2", "--format", "csv+svg"],
            ["offsets-diff", "--widths", "1e10"],
            ["dispersion-eval", "--width", "1e10"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_dir_and_workers_change_nothing(self, tmp_path, argv):
        _, one = run(tmp_path, "one", argv, "run.workers = 1\n")
        _, two = run(tmp_path, "two", argv, "run.workers = 2\n")
        assert one == two
        manifest = json.loads(one["manifest.json"])
        assert "out_dir" not in manifest["config"] and "workers" not in manifest["config"]
        assert manifest["config"]["study"]["name"] == argv[0]


BAD_INPUT = {
    "band-one-value": (["simulate", "--jitter-band", "1e4"], "f_min:f_max"),
    "band-not-numbers": (["simulate", "--jitter-band", "a:b"], "f_min:f_max"),
    "points-zero": (["simulate", "--points", "0"], "points"),
    "points-one": (["simulate", "--points", "1"], "points"),
    "m-zero": (["dispersion-eval", "--m", "0"], "upconversion factor"),
    "kinds-unknown": (["sweep-comb-width", "--kinds", "bogus"], "bogus"),
    "kinds-tabulated-no-table": (["sweep-comb-width", "--kinds", "tabulated"], "dispersion.table"),
    "table-missing": (["simulate", "--kind", "tabulated", "--table", "{missing}"], "missing.txt"),
    "table-malformed": (["simulate", "--kind", "tabulated", "--table", "{malformed}"], "two columns"),
    "table-short-simulate": (
        ["simulate", "--kind", "tabulated", "--width", "1e10", "--table", "{narrow}"],
        "outside tabulated range",
    ),
    "table-short-sweep": (
        ["sweep-comb-width", "--kinds", "tabulated", "--widths", "1e10", "--config", "{narrow_cfg}"],
        "outside tabulated range",
    ),
    "table-short-dispersion-eval": (
        ["dispersion-eval", "--kind", "tabulated", "--width", "1e10", "--table", "{narrow}"],
        "outside tabulated range",
    ),
    # dispersion-eval takes no --format; a config file still sets run.format.
    "dispersion-eval-svg": (["dispersion-eval", "--config", "{svg}"], "--format csv+svg"),
    # A log axis has no 0 Hz: refused before any synthesis, not after the CSV is written.
    "widths-zero-svg": (["sweep-comb-width", "--widths", "0,1e8", "--format", "csv+svg"], "log axis"),
    "ratios-fractional": (["sweep-oversampling", "--ratios", "4,8.7"], "sweep.ratios must be an integer"),
    "ratios-fractional-file": (["sweep-oversampling", "--config", "{ratios}"], "sweep.ratios must be an integer"),
    "t-sig-zero": (["simulate", "--t-sig", "0"], "t_sig must be positive"),
    "t-sig-inf": (["simulate", "--t-sig", "inf"], "t_sig must be positive and finite"),
    "f-r-inf": (["simulate", "--f-r", "inf"], "repetition rate must be positive and finite"),
    "lambda0-inf": (["simulate", "--lambda0", "inf"], "center wavelength must be positive and finite"),
    # At 1e-300 m the comb's optical frequencies overflow, and every kind's delays are NaN.
    "lambda0-tiny-simulate": (["simulate", "--lambda0", "1e-300"], "not finite"),
    "lambda0-tiny-sweep": (["sweep-comb-width", "--widths", "1e8", "--lambda0", "1e-300"], "not finite"),
    "lambda0-tiny-dispersion-eval": (["dispersion-eval", "--lambda0", "1e-300"], "not finite"),
    # There lambda0^2 and lambda0^3 underflow to 0: the linear and constant
    # coefficients are inf, and their delays not finite at any width.  The
    # read takes ideal at 1e6 Hz, one line, and refuses linear there.
    "lambda0-tiny-simulate-constant": (["simulate", "--kind", "constant", "--lambda0", "1e-300"], "not finite"),
    "lambda0-tiny-dispersion-eval-linear": (["dispersion-eval", "--kind", "linear", "--lambda0", "1e-300"], "not finite"),
    "lambda0-tiny-offsets-diff": (
        ["offsets-diff", "--widths", "1e6,1e8", "--lambda0", "1e-300"],
        "linear dispersion: the linear characteristic gives group delays that are not finite",
    ),
    # 1e20 times the ideal characteristic: delays past what int64 sample offsets hold.
    "table-huge": (["simulate", "--kind", "tabulated", "--table", "{huge}"], "int64"),
    # A noise profile that is negative, or overflows, on the grid's bins is refused before any synthesis.
    "noise-negative-simulate": (["simulate", "--config", "{noise_negative}"], "noise profile is negative"),
    "noise-negative-sweep": (["sweep-comb-width", "--widths", "1e8", "--config", "{noise_negative}"], "negative"),
    "noise-negative-oversampling": (["sweep-oversampling", "--ratios", "4", "--config", "{noise_negative}"], "negative"),
    "noise-overflow-simulate": (["simulate", "--config", "{noise_overflow}"], "noise profile overflows"),
    "noise-overflow-oversampling": (["sweep-oversampling", "--ratios", "4,8", "--config", "{noise_overflow}"], "overflows"),
    "oversampling-one": (["simulate", "--oversampling", "1"], "oversampling ratio must be >= 2"),
    # Too large for a float: the sample rate overflows.
    "oversampling-huge": (["simulate", "--oversampling", "1" * 401], "overflows"),
    "ratios-huge": (["sweep-oversampling", "--ratios", "4," + "1" * 401], "overflows"),
    "workers-zero": (["sweep-comb-width", "--config", "{workers}"], "run.workers must be at least 1"),
    "budget-negative": (["simulate", "--memory-budget", "-1"], "run.memory_budget_bytes must be at least 1"),
    "format-unknown": (["simulate", "--config", "{format}"], "run.format must be csv or csv+svg"),
    # Rows pair L with the offsets in the order given, so they must ascend.
    "offsets-descending": (
        ["sweep-comb-width", "--widths", "1e8", "--kinds", "ideal", "--offsets", "1e6,1e4"],
        "analysis.offsets",
    ),
    "offsets-duplicate": (["sweep-oversampling", "--ratios", "4", "--offsets", "1e4,1e4"], "analysis.offsets"),
    "kinds-duplicate": (["sweep-comb-width", "--widths", "1e8", "--kinds", "ideal,ideal"], "dispersion.kinds"),
    # Offsets outside [df, Fs/2 - f_r] of a sweep's grid, refused before any synthesis,
    # and by the dry run of the sweeps' budget guards.
    "estimate-memory-offset-above-band": (["estimate-memory", "--offsets", "1e9"], "analysis.offsets"),
    "estimate-memory-offset-below-df": (["estimate-memory", "--offsets", "1,2"], "analysis.offsets"),
    "estimate-memory-offset-above-one-ratio": (
        ["estimate-memory", "--offsets", "1e4,1.5e7"],
        "oversampling point N=4",
    ),
    "offset-above-band": (["sweep-comb-width", "--widths", "1e8", "--offsets", "1e9"], "analysis.offsets"),
    "offset-below-df": (["sweep-comb-width", "--widths", "1e8", "--offsets", "1e3"], "analysis.offsets"),
    "offset-above-band-of-one-ratio": (
        ["sweep-oversampling", "--ratios", "4,8", "--offsets", "1e4,1.5e7"],
        "analysis.offsets",
    ),
    # Fs/2 - f_r, less an ulp at this window: 1e7 Hz lies just past the carrier bin's range.
    "offset-at-band-edge": (
        ["sweep-oversampling", "--ratios", "4", "--t-sig", "2.001e-4", "--offsets", "1e4,1e7"],
        "analysis.offsets",
    ),
    "simulate-oversampling-two": (["simulate", "--oversampling", "2"], "grid.oversampling"),
    # A repeated sweep value would be measured twice and written as two row groups.
    "widths-duplicate": (["sweep-comb-width", "--widths", "1e8,1e8", "--kinds", "ideal"], "sweep.widths"),
    "ratios-duplicate": (["sweep-oversampling", "--ratios", "4,4"], "sweep.ratios"),
    # The band must lie within the measured offsets [3 df, 0.999 (Fs/2 - f_r)], here [15 kHz, 69.93 MHz].
    "band-below-offsets": (["simulate", "--jitter-band", "1e2:1e3"], "jitter band"),
    "band-above-offsets": (["simulate", "--jitter-band", "1e6:1e8"], "jitter band"),
    "band-empty": (["simulate", "--kind", "none", "--jitter-band", "5e6:5e6"], "jitter band"),
    "band-reversed": (["simulate", "--jitter-band", "1e6:1e5"], "jitter band"),
    "seed-negative": (["simulate", "--seed", "-1"], "seeds.master"),
    # A negative width is refused before any plan is built, by every study that reads the list.
    "widths-negative-sweep": (["sweep-comb-width", "--config", "{widths}"], "sweep.widths"),
    "widths-negative-offsets-diff": (["offsets-diff", "--config", "{widths}"], "sweep.widths"),
    # An empty list would run nothing and write a CSV with no rows.
    "width-nan": (["simulate", "--width", "nan"], "comb width"),
    "widths-nan": (["sweep-comb-width", "--widths", "nan"], "sweep.widths"),
    "widths-inf": (["offsets-diff", "--widths", "inf"], "sweep.widths"),
    "offsets-nan": (["sweep-oversampling", "--ratios", "4", "--offsets", "nan"], "offsets of interest"),
    "widths-empty": (["sweep-comb-width", "--widths", ","], "sweep.widths"),
    "widths-empty-svg": (["sweep-comb-width", "--widths", ",", "--format", "csv+svg"], "sweep.widths"),
    "ratios-empty": (["sweep-oversampling", "--ratios", ","], "sweep.ratios"),
    "offsets-empty": (["sweep-oversampling", "--offsets", ","], "analysis.offsets"),
}

# One-line config files the cases above name: key = value lines with no flag.
CONFIGS = {
    "ratios": "sweep.ratios = 4.5, 8",
    "workers": "run.workers = 0",
    "format": "run.format = svg",
    "svg": "run.format = csv+svg",
    "widths": "sweep.widths = -1e9, 1e9",
    "noise_negative": "noise.term = {alpha = 0, b = -1e-11}",
    "noise_overflow": "noise.term = {alpha = 0, b = 1e308}",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_is_config_error(tmp_path, capsys, case):
    argv, message = BAD_INPUT[case]
    files = {
        "missing": tmp_path / "missing.txt",
        "malformed": tmp_path / "malformed.txt",
        "narrow": write_table(tmp_path / "narrow.txt", half_span_nm=0.01),
        "huge": write_table(tmp_path / "huge.txt", scale=1e20),
    }
    files["malformed"].write_text("1549.0 1.2e7 3\n1551.0 1.2e7 3\n")
    files["narrow_cfg"] = tmp_path / "narrow.cfg"
    files["narrow_cfg"].write_text(f"dispersion.table = {files['narrow']}\n")
    for name, line in CONFIGS.items():
        files[name] = tmp_path / f"{name}.cfg"
        files[name].write_text(line + "\n")
    argv = [a.format(**files) for a in argv]
    # The case's own flags come last, so a case may override SMALL's window.
    # estimate-memory writes nothing and takes no --out.
    out = [] if argv[0] == "estimate-memory" else ["--out", str(tmp_path / "out")]
    code = main(argv[:1] + SMALL + argv[1:] + out)
    err = capsys.readouterr().err
    assert code == 2, err
    assert "config error" in err and message in err
    assert not (tmp_path / "out").exists()


# Runs that must reproduce from their manifest alone: argv and config file.
REPRODUCE = {
    "simulate-ideal": (SIM + ["--jitter-band", "2e4:2e6", "--format", "csv+svg"], ""),
    "simulate-tabulated": (SIM + ["--kind", "tabulated", "--table", "{table}"], ""),
    "simulate-pure-tone": (SIM + ["--pure-tone"], ""),
    "sweep-oversampling": (["sweep-oversampling", "--ratios", "4,8", "--seeds", "2"], ""),
    "sweep-comb-width": (
        ["sweep-comb-width", "--widths", "1e8,1e9", "--seeds", "2", "--kinds", "ideal,tabulated", "--table", "{table}"],
        "",
    ),
    "offsets-diff": (["offsets-diff", "--widths", "1e10"], ""),
    "dispersion-eval": (["dispersion-eval", "--width", "1e10", "--m", "2"], ""),
}


def config_from_manifest(config: dict, tables: dict, out_dir) -> ExperimentConfig:
    """The ExperimentConfig a manifest's ``config`` records; ``tables`` maps a sha256 to its table file."""
    noise, sha = config["noise"], config["table_sha256"]
    return ExperimentConfig(
        comb=CombSpec(**config["comb"]),
        oversampling=config["oversampling"],
        t_sig=config["t_sig"],
        kinds=tuple(config["kinds"]),
        m=config["m"],
        table=None if sha is None else tables[sha],
        noise=None if noise is None else NoiseProfile(terms=noise["terms"], f_low=noise["f_low"]),
        noise_enabled=noise is not None,
        offsets=tuple(config["offsets"]),
        ratios=tuple(config["ratios"]),
        widths=tuple(config["widths"]),
        n_seeds=config["n_seeds"],
        master_seed=config["master_seed"],
        memory_budget_bytes=config["memory_budget_bytes"],
        out_dir=out_dir,
    )


@pytest.mark.parametrize("case", sorted(REPRODUCE))
def test_manifest_alone_reproduces_run(tmp_path, case):
    argv, config = REPRODUCE[case]
    table = write_table(tmp_path / "element.txt")
    other = write_table(tmp_path / "other.txt", scale=0.5)
    tables = {hashlib.sha256(p.read_bytes()).hexdigest(): p for p in (table, other)}
    manifest, files = run(tmp_path, "first", [a.format(table=table) for a in argv], config.format(table=table))
    recorded = dict(manifest["config"])
    args = dict(recorded.pop("study"))
    name = args.pop("name")
    if args.get("jitter_band") is not None:
        args["jitter_band"] = tuple(args["jitter_band"])
    again = tmp_path / "again"
    render_svg = any(f["name"].endswith(".svg") for f in manifest["files"])
    run_study(name, config_from_manifest(recorded, tables, again), args, render_svg)
    assert (again / "manifest.json").read_bytes() == files["manifest.json"]
    for entry in manifest["files"]:
        assert hashlib.sha256((again / entry["name"]).read_bytes()).hexdigest() == entry["sha256"], entry["name"]


class TestSweepsHonourConfig:
    def rows(self, tmp_path, name, argv, config):
        _, files = run(tmp_path, name, argv, config)
        csv = next(v for k, v in files.items() if k.startswith("sweep_")).decode().splitlines()
        return [line.split(",") for line in csv[1:]]

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-oversampling", "--ratios", "4,8", "--seeds", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_noise_disabled_measures_pure_tone(self, tmp_path, argv):
        rows = self.rows(tmp_path, "quiet", argv, "noise.enabled = false\n")
        assert max(float(r[3]) for r in rows) < -200.0

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_noise_disabled_comb_width_sweep_is_refused(self, tmp_path, capsys, how):
        # A pure tone's envelope is exactly 1: every sideband would read 0,
        # L = -inf with a NaN spread.  Refused before any synthesis, and
        # pointed to the oversampling sweep's pure tone.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("noise.enabled = false\n" if how == "config" else "")
        out = tmp_path / "quiet"
        argv = ["sweep-comb-width", "--widths", "1e8,1e9", "--seeds", "2", "--format", "csv+svg"]
        argv += ["--pure-tone"] if how == "flag" else []
        code = main(argv + SMALL + ["--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: the comb-width sweep" in err and "run sweep-oversampling" in err
        assert not out.exists()

    def test_upconversion_factor_reaches_ideal_plan(self, tmp_path):
        argv = ["sweep-comb-width", "--widths", "1e9", "--seeds", "2"]
        m1 = self.rows(tmp_path, "m1", argv, "")
        m2 = self.rows(tmp_path, "m2", argv, "dispersion.m = 2\n")
        ideal = [i for i, r in enumerate(m1) if r[1] == "ideal"]
        assert all(m1[i] != m2[i] for i in ideal)
        assert [r for r in m1 if r[1] != "ideal"] == [r for r in m2 if r[1] != "ideal"]

    def test_tabulated_kind_reads_table(self, tmp_path):
        table = write_table(tmp_path / "element.txt")
        argv = ["sweep-comb-width", "--widths", "1e9", "--seeds", "2", "--kinds", "ideal,tabulated"]
        rows = self.rows(tmp_path, "tab", argv, f"dispersion.table = {table}\n")
        assert {r[1] for r in rows} == {"ideal", "tabulated"}


class TestConcurrentBudget:
    @pytest.mark.parametrize(
        "name, config",
        [
            ("simulate", ""),
            ("sweep-oversampling", ""),
            ("sweep-comb-width", ""),
            ("sweep-comb-width", "run.workers = 2\n"),
            ("offsets-diff", ""),
            ("dispersion-eval", ""),
        ],
        ids=["simulate", "sweep-oversampling", "sweep-comb-width", "sweep-comb-width-2-workers", "offsets-diff",
             "dispersion-eval"],
    )
    def test_estimate_memory_prints_the_guards_figure(self, tmp_path, capsys, name, config):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(config)
        common = SMALL + ["--config", str(cfg_file)]
        assert main(["estimate-memory"] + common) == 0
        figure = int(dict(re.findall(r"^([\w-]+): (\d+) bytes", capsys.readouterr().out, re.M))[name])
        # The study's own guard refuses one byte below the figure, on that figure ...
        values = parse_config(cfg_file, {"grid.t_sig": 2e-4, "run.memory_budget_bytes": figure - 1})
        with pytest.raises(BudgetError) as refusal:
            STUDIES[name].run(experiment_config(values))
        assert refusal.value.estimate_bytes == figure
        # ... and so does the command line, which runs the study at the figure itself.
        for budget, expected in ((figure - 1, 3), (figure, 0)):
            out = tmp_path / f"budget-{budget}"
            code = main([name] + common + ["--memory-budget", str(budget), "--out", str(out)])
            assert code == expected, capsys.readouterr().err

    def test_budget_counts_workers(self, tmp_path, capsys):
        # The budget is the guard's own figure on one worker: a second
        # worker's concurrent carrier job, in a workspace of its own, takes
        # the run over it.
        argv = ["sweep-oversampling", "--ratios", "4,8", "--seeds", "2"]
        cfg = ExperimentConfig(t_sig=2e-4, ratios=(4, 8), n_seeds=2)
        budget = dry_run(cfg)["sweep-oversampling"]
        assert dry_run(replace(cfg, workers=2))["sweep-oversampling"] > budget
        for workers, expected in ((1, 0), (2, 3)):
            cfg_file = tmp_path / f"w{workers}.cfg"
            cfg_file.write_text(f"run.workers = {workers}\nrun.memory_budget_bytes = {budget}\n")
            out = tmp_path / f"w{workers}"
            code = main(argv + SMALL + ["--config", str(cfg_file), "--out", str(out)])
            assert code == expected, capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, settings, args, ceiling",
        [
            ("simulate", {}, {"kind": "ideal"}, 1.1),
            # A smaller grid, where the fixed costs of a first call weigh more.
            ("simulate", {"t_sig": 1e-3}, {"kind": "ideal"}, 1.1),
            # 2000 offsets: the reader's bins and candidates, not the window, are the most it holds.
            ("simulate", {"t_sig": 2e-4}, {"kind": "none", "points": 2000}, 1.5),
            # 20000 offsets: one pick-table row, for the one bin the carrier
            # peaks on, then the spectrum written, the most the run holds.
            ("simulate", {"t_sig": 2e-4}, {"kind": "none", "points": 20000}, 1.1),
            # The comb-width sweep's carriers are envelopes of 8100 samples, so
            # its plan jobs' scratch on the 320000-sample window is its largest phase.
            ("sweep-comb-width", {"n_seeds": 2}, {}, 1.2),
            ("sweep-comb-width", {"n_seeds": 2, "workers": 2}, {}, 1.2),
            # Ten carriers' values on the read bins, kept until every plan has read them.
            ("sweep-comb-width", {"n_seeds": 10}, {}, 1.2),
            ("sweep-oversampling", {"n_seeds": 2}, {}, 1.1),
            # On a small grid, 300 seeds: the guard counts each plan's L of
            # them, 24 plans where 9 are distinct, and a plan job's 256 KiB.
            ("sweep-comb-width", {"t_sig": 2e-4, "n_seeds": 300}, {}, 1.5),
            ("sweep-oversampling", {"t_sig": 2e-4, "n_seeds": 300}, {}, 1.3),
            # Six one-line plans, counted as one, and three plans at 1e9 Hz
            # counted apart, though they are one.
            ("sweep-comb-width", {"t_sig": 2e-4, "n_seeds": 300, "widths": (0.0, 1e7, 1e9)}, {}, 1.6),
            # No job: 200001-line plans and a table row per line, then the
            # table written as CSV and read back for its hash.
            ("offsets-diff", {"t_sig": 2e-4, "widths": (2e12,)}, {}, 1.3),
            ("dispersion-eval", {"t_sig": 2e-4, "comb": CombSpec(f_r=1e7, lambda0=1550e-9, width=2e12)}, {}, 1.3),
            # The desk default, 101 rows: the manifest weighs as much as the table.
            ("dispersion-eval", {}, {}, 1.5),
        ],
        ids=[
            "simulate",
            "simulate-t-sig-1e-3",
            "simulate-2000-points",
            "simulate-20000-points",
            "sweep-comb-width",
            "sweep-comb-width-2-workers",
            "sweep-comb-width-10-seeds",
            "sweep-oversampling",
            "sweep-comb-width-300-seeds",
            "sweep-oversampling-300-seeds",
            "sweep-comb-width-one-line-plans",
            "offsets-diff-2e12",
            "dispersion-eval-2e12",
            "dispersion-eval",
        ],
    )
    def test_prediction_covers_traced_peak(self, tmp_path, name, settings, args, ceiling):
        # Desk scale: the default grid of 320000 samples unless t_sig is set,
        # default widths and ratios.  What the command line runs: the study,
        # then its files and manifest, traced in a fresh interpreter, so the
        # peak does not depend on what this process ran before.
        cfg = ExperimentConfig(out_dir=tmp_path / "out", **settings)
        peak = traced_peak(name, cfg, args)
        # The guard refuses a budget one byte below the peak: it predicts at
        # least the peak, and at most ``ceiling`` times it.
        with pytest.raises(BudgetError) as refusal:
            run_study(name, replace(cfg, out_dir=tmp_path / "refused", memory_budget_bytes=peak - 1), args)
        assert refusal.value.estimate_bytes <= ceiling * peak
        assert not (tmp_path / "refused").exists()

    @pytest.mark.parametrize("command", ["simulate", "estimate-memory"])
    def test_plans_over_the_budget_are_refused_before_they_are_built(self, tmp_path, capsys, command):
        # 2e6 + 1 lines: the plan holds 16 MB at 8 B per line, and building
        # it would pass through 96 MB more; the guard runs first.
        budget = 4_000_000
        argv = [command, "--width", "2e13", "--memory-budget", str(budget)] + SMALL
        if command == "simulate":
            argv += ["--kind", "constant", "--out", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr()
        assert code == 3, out.err
        assert peak < budget
        if command == "simulate":
            assert "simulate needs about 106.8 MiB (112034880 B) for 1 concurrent job(s) and delay plans of " \
                "2000001 lines, over the budget of 3.8 MiB (4000000 B)" in out.err
        else:  # the largest phase, building the plan; dispersion-eval's one plan is at 2e13 Hz too
            assert "simulate: 112034880 bytes" in out.out
            assert "budget refusal: simulate, dispersion-eval would refuse, over the budget of 3.8 MiB" in out.err
        assert not (tmp_path / "out").exists()

    def test_nothing_is_built_when_the_guard_refuses(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return delay_plans(*args)

        # Every plan is built by delay_plans, which delay_plan calls too.
        monkeypatch.setattr(experiments, "delay_plans", counted)
        monkeypatch.setattr(dispersion, "delay_plans", counted)
        # At 2e13 Hz each plan has 2e6 + 1 lines, and building one passes through 112 MB.
        comb = CombSpec(f_r=1e7, lambda0=1550e-9, width=2e13)
        cfg = ExperimentConfig(comb=comb, t_sig=2e-4, widths=(1e8, 2e13), memory_budget_bytes=4_000_000)
        runs = {"simulate": {"kind": "constant"}, "sweep-comb-width": {}, "offsets-diff": {}, "dispersion-eval": {}}
        for name, args in runs.items():
            with pytest.raises(BudgetError):
                STUDIES[name].run(cfg, **args)
        assert calls == []
        # The dry run builds nothing at any budget, and its figure is the study's own.
        for budget in (1, 4_000_000, 1 << 40):
            figures = dry_run(replace(cfg, memory_budget_bytes=budget))
        assert main(["estimate-memory", "--width", "2e13", "--memory-budget", "4000000"] + SMALL) == 3
        assert calls == []
        assert figures["simulate"] > 4_000_000
        with pytest.raises(BudgetError) as refusal:
            STUDIES["simulate"].run(replace(cfg, memory_budget_bytes=figures["simulate"] - 1))
        assert refusal.value.estimate_bytes == figures["simulate"]
        assert calls == []

    def test_refusal_tells_apart_figures_a_few_bytes_apart(self):
        # Rounded to 0.1 MiB, a budget 4 B below the figure reads as the figure.
        cfg = ExperimentConfig(t_sig=2e-4)
        figure = dry_run(cfg)["sweep-oversampling"]
        expected = rf"needs about 2\.7 MiB \({figure} B\) .* over the budget of 2\.7 MiB \({figure - 4} B\)$"
        with pytest.raises(BudgetError, match=expected):
            STUDIES["sweep-oversampling"].run(replace(cfg, memory_budget_bytes=figure - 4))

    @pytest.mark.parametrize("name", ["simulate", "sweep-comb-width", "offsets-diff", "dispersion-eval"])
    def test_budget_refusal_comes_before_plan_errors(self, tmp_path, capsys, name):
        # At 1e-300 m every kind's delays are not finite, which only building
        # a plan finds (exit 2, the lambda0-tiny bad-input cases); the budget
        # is checked from the config before any plan is built.
        out = tmp_path / "out"
        code = main([name, "--lambda0", "1e-300", "--memory-budget", "1000", "--out", str(out)] + SMALL)
        assert code == 3
        assert "budget refusal" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, table_nm, refused",
        [
            # At 1e-300 m every line but the centre one sits at 0 m, so only
            # one-line plans are finite.  This table covers the narrow width's
            # one line, 1e-300 m, and not the 11 lines at 1e8 Hz.
            (["sweep-comb-width", "--kinds", "tabulated,ideal"], (1e-292, 1.0), "dispersion table {table}: wavelength outside"),
            (["sweep-comb-width", "--kinds", "ideal,tabulated"], (1e-292, 1.0), "ideal dispersion: the ideal characteristic"),
            # This one covers 0 m and not the centre line: the tabulated plan
            # at 1e6 Hz is refused before the ideal one at 1e8 Hz.
            (["sweep-comb-width", "--kinds", "ideal,tabulated"], (-1.0, 0.0), "dispersion table {table}: wavelength outside"),
        ],
        ids=["tabulated-at-the-wide-width", "ideal-at-the-wide-width", "tabulated-at-the-narrow-width"],
    )
    def test_plan_refusal_names_the_first_plan_in_the_reads_order(self, tmp_path, capsys, argv, table_nm, refused):
        # The plans are read width by width, each width's kinds in order; the
        # first refused there is named, whichever kind's plans are built first.
        table = tmp_path / "table.txt"
        table.write_text("".join(f"{lam!r} 1.0\n" for lam in table_nm))
        config = tmp_path / "table.cfg"
        config.write_text(f"dispersion.table = {table}\n")
        out = tmp_path / "out"
        argv = argv + ["--widths", "1e6,1e8", "--lambda0", "1e-300", "--config", str(config), "--out", str(out)]
        assert main(argv[:1] + SMALL + argv[1:]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and refused.format(table=table) in err, err
        assert not out.exists()

    def test_one_line_plans_count_once(self, monkeypatch):
        # Below 2 f_r a comb has one line, and every kind's plan is the bare
        # plan: the six plans at 0 and 1e7 Hz are one distinct plan.
        cfg = ExperimentConfig(t_sig=2e-4, widths=(0.0, 1e7, 1e9), n_seeds=1)
        counted = []
        read_phases = experiments._read_phases
        # The distinct plans the guard counts: _read_phases' sixth argument.
        monkeypatch.setattr(
            experiments, "_read_phases", lambda *args, **kw: counted.append(args[5]) or read_phases(*args, **kw)
        )
        STUDIES["sweep-comb-width"].guards(cfg)
        n = cfg.grid.n_samples
        plans = [experiments._plan(cfg, cfg.grid, k, w) for w in cfg.widths for k in cfg.kinds]
        distinct = {np.sort(p.offsets % n).tobytes() for p in plans}
        assert counted == [1 + len(cfg.kinds)] and 1 + len(cfg.kinds) >= len(distinct)


def test_cli_defaults_match_experiment_config():
    # A subcommand with no flags and no config file sets no key, so it runs
    # with ExperimentConfig's own defaults.
    for command in sorted(STUDIES) + ["estimate-memory"]:
        args = _build_parser().parse_args([command])
        overrides = _overrides_from_args(args)
        assert overrides == {}, command
        assert experiment_config(parse_config(args.config, overrides)) == ExperimentConfig(), command


#: A valid value, other than the default, for every config key: what a
#: config file sets for the keys a study does not read.  run.format is left
#: out: its one other value is refused by the one study that does not read it.
NON_DEFAULT = {
    "comb.f_r": "2e7",
    "comb.lambda0": "1.56e-6",
    "comb.width": "2e9",
    "grid.oversampling": "8",
    "grid.t_sig": "4e-4",
    "dispersion.kinds": "linear",
    "dispersion.m": "2",
    "dispersion.table": "{table}",
    "noise.enabled": "false",
    "noise.term": "{{alpha = 0, b = 1e-9}}",
    "noise.f_low": "1e3",
    "analysis.offsets": "2e4, 2e6",
    "sweep.ratios": "4, 8",
    "sweep.widths": "1e8, 1e9",
    "seeds.count": "3",
    "seeds.master": "7",
    "run.out_dir": "elsewhere",
    "run.memory_budget_bytes": "1",
    "run.workers": "2",
}

#: Each study at a small size, with flags of its own keys only.
SMALL_RUNS = {
    "simulate": ["simulate", "--points", "20"],
    "sweep-oversampling": ["sweep-oversampling", "--ratios", "4,8", "--seeds", "1"],
    "sweep-comb-width": ["sweep-comb-width", "--widths", "1e8,1e9", "--seeds", "1"],
    "offsets-diff": ["offsets-diff", "--widths", "1e10"],
    "dispersion-eval": ["dispersion-eval", "--width", "1e10"],
}


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_keys_a_study_does_not_read_change_none_of_its_bytes(tmp_path, name):
    table = write_table(tmp_path / "element.txt")
    outside = sorted(set(NON_DEFAULT) - set(STUDIES[name].keys))
    assert set(NON_DEFAULT) | {"run.format"} == set(_KEYS)
    config = "".join(f"{key} = {NON_DEFAULT[key].format(table=table)}\n" for key in outside)
    _, plain = run(tmp_path, "plain", SMALL_RUNS[name], "")
    _, other = run(tmp_path, "other", SMALL_RUNS[name], config)
    plain.pop("manifest.json"), other.pop("manifest.json")
    assert plain == other, outside
