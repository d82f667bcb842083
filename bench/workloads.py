"""The four study workloads: inputs, one study call, and its checks.

Each workload is a closed loop in one process: the next study call starts
when the previous one returns.  Inputs derive from the benchmark seed
only; sizes never depend on it.  Calls cycle through two master seeds, so
from the third call on every call repeats an earlier call's inputs and
must reproduce its output exactly.  A round, the unit a run measures in
whole, is one sweep call, or one ``simulate`` call per kind.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from pathlib import Path

import numpy as np

import talbotsim.cli
import talbotsim.experiments as experiments
from talbotsim.model import NoiseProfile

import checks

F_R = 1e7
LAMBDA0 = 1550e-9
OVERSAMPLING = 16
T_SIG = 2e-3
NOISE_TERMS = ((0.0, 1e-11), (-2.0, 1e-1))
F_LOW = 1.0 / T_SIG
OFFSETS = (1e4, 1e6)
KINDS = ("ideal", "linear", "constant")
DESK_WIDTHS = (1e8, 2e8, 5e8, 1e9, 2e9, 5e9, 1e10, 2e10)
WIDE_WIDTHS = (3e10, 6e10, 1e11, 2e11, 4e11)
RATIOS = (4, 8, 16, 32, 64)
#: Four seeds per sweep point: the oracle tolerances in ``checks`` are
#: set for a power mean of four.
N_SEEDS = 4
SEED_CYCLE = 2


def direct(fn, *args):
    """Call a study function as a user would: no tracing."""
    return fn(*args)


def cycle_seeds(seed: int) -> list[int]:
    """The master seeds a run cycles through, drawn from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(SEED_CYCLE)]


def oracle(oversampling: int = OVERSAMPLING) -> checks.Oracle:
    return checks.Oracle(
        f_r=F_R, lambda0=LAMBDA0, oversampling=oversampling, t_sig=T_SIG, terms=NOISE_TERMS, f_low=F_LOW
    )


class Sweep:
    """Repeated ``sweep_comb_width`` or ``sweep_oversampling`` calls."""

    def __init__(self, seed: int, study: str, workers: int, **grid):
        self.seeds = cycle_seeds(seed)
        self.study = study
        self.workers = workers
        self.grid = grid
        self.round_ops = 1
        self.fn = getattr(experiments, study)
        self._oracles: dict[int, checks.Oracle] = {}
        self._seen: dict[int, list] = {}

    def config(self, master_seed: int, n_seeds: int = N_SEEDS):
        return experiments.ExperimentConfig(
            kinds=KINDS,
            noise=NoiseProfile(terms=NOISE_TERMS, f_low=F_LOW),
            offsets=OFFSETS,
            n_seeds=n_seeds,
            master_seed=master_seed,
            workers=self.workers,
            **self.grid,
        )

    def prepare(self, work: Path):
        self.configs = [self.config(s) for s in self.seeds]

    def warmup(self):
        self.fn(self.config(self.seeds[0], n_seeds=1))

    def spectra(self) -> int:
        if self.study == "sweep_comb_width":
            return len(self.grid["widths"]) * len(KINDS) * N_SEEDS
        return len(self.grid["ratios"]) * (N_SEEDS + 1)

    def op(self, i: int, call):
        return call(self.fn, self.configs[i % len(self.seeds)])

    def oracle_for_ratio(self, n: int) -> checks.Oracle:
        if n not in self._oracles:
            self._oracles[n] = oracle(n)
        return self._oracles[n]

    def check(self, i: int, rows) -> list[str]:
        key = i % len(self.seeds)
        flat = [(r.x_value, r.kind, r.offset_hz, r.mean_l_dbc, r.std_l_db, r.per_seed) for r in rows]
        if key in self._seen:
            if flat != self._seen[key]:
                return [f"seed {self.seeds[key]}: rows differ from an earlier call with the same seed"]
            return []
        self._seen[key] = flat
        table = checks.rows_table(rows)
        if self.study == "sweep_comb_width":
            return checks.check_width_sweep(table, self.oracle_for_ratio(OVERSAMPLING))
        return checks.check_oversampling_sweep(table, self.oracle_for_ratio)

    def bytes_written(self, result) -> int:
        return 0

    def cleanup(self):
        pass


def write_table(path: Path, width: float, points: int = 2001):
    """Dispersion table sampled from the closed-form ideal D = c/(lam^2 f_r^2)."""
    c = checks.SPEED_OF_LIGHT
    half = math.floor(width / (2 * F_R))
    span = c / (c / LAMBDA0 - (half + 1) * F_R) - c / (c / LAMBDA0 + (half + 1) * F_R)
    lam = LAMBDA0 + np.linspace(-span, span, points)
    d_ps_nm = c / (lam**2 * F_R**2) * 1e3
    lines = ["# lambda_nm  D_ps_per_nm  (ideal characteristic, f_r = 10 MHz)"]
    lines += [f"{l * 1e9:.12f} {d:.12g}" for l, d in zip(lam, d_ps_nm)]
    path.write_text("\n".join(lines) + "\n")


class Simulate:
    """Repeated in-process ``talbotsim simulate`` calls, cycling the kinds."""

    KINDS = ("ideal", "constant", "tabulated", "none")
    WIDTH = 1e9
    BAND = (1e4, 1e6)

    def __init__(self, seed: int):
        self.seeds = cycle_seeds(seed)
        self.round_ops = len(self.KINDS)
        self.oracle = oracle()
        self._seen: dict[int, list[bytes]] = {}
        self._calls = 0

    def prepare(self, work: Path):
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.table = work / "ideal_table.txt"
        write_table(self.table, self.WIDTH)
        self.config = work / "simulate.cfg"
        terms = "\n".join(f"noise.term = {{alpha = {a:g}, b = {b:g}}}" for a, b in NOISE_TERMS)
        self.config.write_text(
            f"comb.f_r = {F_R:g}\ncomb.lambda0 = {LAMBDA0:g}\ncomb.width = {self.WIDTH:g}\n"
            f"grid.oversampling = {OVERSAMPLING}\ngrid.t_sig = {T_SIG:g}\n{terms}\n"
        )

    def argv(self, i: int, out: Path) -> list[str]:
        kind = self.KINDS[i % len(self.KINDS)]
        seed = self.seeds[(i // len(self.KINDS)) % len(self.seeds)]
        argv = ["simulate", "--config", str(self.config), "--kind", kind, "--jitter-band",
                f"{self.BAND[0]:g}:{self.BAND[1]:g}", "--format", "csv+svg", "--out", str(out), "--seed", str(seed)]
        if kind == "tabulated":
            argv += ["--table", str(self.table)]
        return argv

    def warmup(self):
        for i in range(len(self.KINDS)):
            self._cleanup_out(self.op(i, direct))

    def spectra(self) -> int:
        return 1

    def op(self, i: int, call):
        # A fresh output directory per call, as a user starting a new run.
        self._calls += 1
        out = self.work / f"call-{self._calls}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = call(talbotsim.cli.main, self.argv(i, out))
        return code, out

    def check(self, i: int, result) -> list[str]:
        code, out = result
        try:
            if code != 0:
                return [f"simulate exited with {code}"]
            kind = self.KINDS[i % len(self.KINDS)]
            problems = checks.check_simulate(out, kind, self.oracle, self.WIDTH, self.BAND)
            if problems:
                return problems
            outputs = [(out / n).read_bytes() for n in ("spectrum.csv", "jitter.csv", "spectrum.svg")]
            if self._seen.setdefault(i % (len(self.KINDS) * len(self.seeds)), outputs) != outputs:
                return [f"{kind}: outputs differ from an earlier call with the same seed"]
            return []
        finally:
            self._cleanup_out(result)

    def bytes_written(self, result) -> int:
        return sum(p.stat().st_size for p in result[1].iterdir())

    def _cleanup_out(self, result):
        shutil.rmtree(result[1], ignore_errors=True)

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def make(name: str, seed: int, toy: bool = False):
    """Build a workload.  ``toy`` shrinks the sweeps for the self-test."""
    if name == "width-sweep-wide":
        widths = (3e10, 2e11) if toy else WIDE_WIDTHS
        return Sweep(seed, "sweep_comb_width", 2, widths=widths)
    if name == "width-sweep-desk":
        widths = (1e8, 2e10) if toy else DESK_WIDTHS
        return Sweep(seed, "sweep_comb_width", 1, widths=widths)
    if name == "oversampling-sweep":
        ratios = (4, 8) if toy else RATIOS
        return Sweep(seed, "sweep_oversampling", 1, ratios=ratios)
    if name == "simulate-cli":
        return Simulate(seed)
    raise KeyError(name)


NAMES = ("width-sweep-wide", "width-sweep-desk", "oversampling-sweep", "simulate-cli")
