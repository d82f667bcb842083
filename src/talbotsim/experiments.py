"""Studies, their registry, and the manifest every run writes.

Five studies, all reproducible bit-for-bit from a config and a master
seed: a single ``simulate`` run, phase-noise accuracy vs oversampling
ratio, phase noise vs comb width per dispersion characteristic,
per-line delay-plan differences between characteristics, and a
tabulation of one characteristic.  ``STUDIES`` registers each one with
its runner, its writer and the config keys it reads; the command line
builds its subcommands and their flags from it, and it and
:func:`run_all` dispatch from it.

Seeds derive from (master seed, experiment id, point index, seed
index), so results do not depend on execution order or worker count.
The oversampling sweep draws new seeds at every ratio.  The comb-width
sweep synthesizes its ``n_seeds`` carriers once per call, on the seeds
of its first width (point index 0), and sees each of them through every
width's and every kind's delay plan: kinds and widths are compared on
identical noise (paired comparison), so its rows are correlated across
widths as well as across kinds.  Seeds within one point stay
independent of each other.

Every study that synthesizes reads its carriers on one path,
:func:`_through_plans`: carrier jobs keep each periodogram on the bins
the reader picks from, and then one read takes every carrier through
every distinct delay plan, summing their |H|^2 in one pass on the bins
it looks at.
``simulate --kind none`` and the oversampling sweep read through the
one-line plan at zero delay, whose |H|^2 is exactly 1.

Every study builds its delay plans one call per kind, at all of its
widths on the widest comb's line grid
(:func:`~talbotsim.dispersion.delay_plans`, through
:func:`_plans_by_kind`); a plan that a characteristic refuses is named
as building the plans one at a time in the study's order would name it.
A read compares plans cheaply first: by their offsets against the other
kinds' at the same width, then by the shape of their lag histograms.

The comb-width sweep reads L only near f_r, so its carrier jobs
synthesize each carrier as its complex envelope, on a window only as
wide as its offsets need (see :class:`~talbotsim.analysis.BinReader`),
and read it with no image term and no float32 floor.  ``simulate`` and
the oversampling sweep synthesize the real carrier on the passband
window: ``simulate`` reads up to Fs/2 - f_r, where an envelope would
save nothing, and the oversampling sweep studies that sampling itself,
float32 floor included.  A pure tone's envelope is exactly 1, with no
sideband to read, so the comb-width sweep refuses it.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import queue
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property, partial
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .analysis import (
    BinReader,
    PhaseNoiseSpectrum,
    envelope_periodogram,
    jitter,
    passband_periodogram,
    write_jitter_csv,
    write_spectrum_csv,
)
from .dispersion import (
    KINDS,
    OFFSET_BYTES,
    DelayPlan,
    DispersionSpec,
    delay_plans,
    eval_dispersion,
    offset_difference,
    read_dispersion_table,
)
from .errors import BudgetError, ConfigError
from .model import CombLines, CombSpec, SimGrid, bin_spacing, build_grid, comb_lines, NoiseProfile
from .superposition import Lags, lag_histogram, power_at_bins, scratch, scratch_bytes
from .svgplot import render_plots
from .synthesis import SynthesisRequest, Workspace, default_noise_profile, synth_carrier, synth_envelope

__all__ = [
    "ExperimentConfig",
    "SweepRow",
    "OffsetsTable",
    "Manifest",
    "Study",
    "STUDIES",
    "derive_seed",
    "simulate",
    "sweep_oversampling",
    "sweep_comb_width",
    "offsets_experiment",
    "dispersion_eval",
    "run_study",
    "run_all",
    "dry_run",
    "write_manifest",
    "write_sweep_csv",
    "write_offsets_csv",
]

#: Desk-scale defaults: every dimensionless ratio the physics depends on
#: (offset times maximum delay, lines per unit width) matches the full
#: 100 MHz / 3 THz configuration at a small fraction of the memory.
DEFAULT_COMB = CombSpec(f_r=1e7, lambda0=1550e-9, width=1e9)
DEFAULT_RATIOS = (4, 8, 16, 32, 64)
DEFAULT_WIDTHS = (1e8, 2e8, 5e8, 1e9, 2e9, 5e9, 1e10, 2e10)
#: The kinds whose plans ``offsets-diff`` compares, ideal first.
_DIFF_KINDS = ("ideal", "linear", "constant")


def _read_table(path: Path) -> tuple[np.ndarray, np.ndarray, str]:
    """Wavelengths, dispersion and sha256 of a table file; any fault is a ConfigError."""
    try:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lam, d = read_dispersion_table(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"dispersion table {path}: {exc}") from None
    return lam, d, digest


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved parameters of a run.

    ``m`` is the upconversion factor of the ideal characteristic and
    ``table`` the file of the tabulated one; ``noise_enabled = False``
    synthesizes a pure tone.
    """

    comb: CombSpec = DEFAULT_COMB
    oversampling: int = 16
    t_sig: float = 2e-3
    kinds: tuple[str, ...] = ("ideal", "linear", "constant")
    m: int = 1
    table: Path | None = None
    noise: NoiseProfile | None = None
    noise_enabled: bool = True
    offsets: tuple[float, ...] = (1e4, 1e6)
    ratios: tuple[int, ...] = DEFAULT_RATIOS
    widths: tuple[float, ...] = DEFAULT_WIDTHS
    n_seeds: int = 10
    master_seed: int = 12345
    out_dir: Path = Path("out")
    memory_budget_bytes: int = 1 << 30
    workers: int = 1
    _table: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            self.grid  # build_grid checks f_r, oversampling and t_sig
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # Within 1e-6 periods, or 8 roundings of the product on a window of
        # more than 1e9; never half a period below 5e14.
        periods = self.t_sig * self.comb.f_r
        if abs(periods - round(periods)) > max(1e-6, 8 * math.ulp(periods)):
            raise ConfigError(
                f"t_sig = {self.t_sig} s is not an integer number of carrier periods; "
                f"snap it to a multiple of 1/f_r = {1.0 / self.comb.f_r:.6e} s so the "
                "carrier stays bin-exact"
            )
        if self.n_seeds < 1:
            raise ConfigError("n_seeds must be >= 1")
        if self.master_seed < 0:
            raise ConfigError(f"seeds.master must be non-negative, got {self.master_seed}")
        if self.workers < 1:
            raise ConfigError(f"run.workers must be at least 1, got {self.workers}")
        if self.memory_budget_bytes < 1:
            raise ConfigError(f"run.memory_budget_bytes must be at least 1, got {self.memory_budget_bytes}")
        # An empty list would run no point and write a CSV with no rows.
        lists = {"sweep.ratios": self.ratios, "sweep.widths": self.widths, "analysis.offsets": self.offsets}
        for key, values in lists.items():
            if not values:
                raise ConfigError(f"{key} is empty; it needs at least one value")
        if any(r < 2 for r in self.ratios):
            raise ConfigError("oversampling ratios must be >= 2")
        # A repeated value would be measured again and written as a second row group.
        if any(b <= a for a, b in zip(self.ratios, self.ratios[1:])):
            raise ConfigError(f"sweep.ratios {list(self.ratios)} must be strictly ascending")
        try:  # the largest ratio's grid; build_grid checks the sample count
            build_grid(self.comb.f_r, self.ratios[-1], self.t_sig)
        except ValueError as exc:
            raise ConfigError(f"sweep.ratios: {exc}") from None
        if not all(0 <= w < math.inf for w in self.widths):  # also refuses NaN
            raise ConfigError(f"sweep.widths {list(self.widths)} must be finite and non-negative")
        if any(b <= a for a, b in zip(self.widths, self.widths[1:])):
            raise ConfigError(f"sweep.widths {list(self.widths)} must be strictly ascending")
        if not all(o > 0 for o in self.offsets):  # also refuses NaN
            raise ConfigError("offsets of interest must be positive")
        if any(b <= a for a, b in zip(self.offsets, self.offsets[1:])):
            raise ConfigError(f"analysis.offsets {list(self.offsets)} must be strictly ascending")
        if not self.kinds or any(k not in KINDS for k in self.kinds):
            raise ConfigError(f"dispersion kinds {list(self.kinds)} must be drawn from {list(KINDS)}")
        if len(set(self.kinds)) != len(self.kinds):
            raise ConfigError(f"dispersion.kinds {list(self.kinds)} names a kind twice")
        if self.m < 1 or self.m != int(self.m):
            raise ConfigError(f"upconversion factor m must be a positive integer, got {self.m}")
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        if self.table is not None:
            object.__setattr__(self, "table", Path(self.table))
            object.__setattr__(self, "_table", _read_table(self.table))
        elif "tabulated" in self.kinds:
            raise ConfigError("tabulated dispersion requires dispersion.table = <file>")

    @property
    def grid(self) -> SimGrid:
        return build_grid(self.comb.f_r, self.oversampling, self.t_sig)

    def resolved_noise(self) -> NoiseProfile | None:
        """The carrier's phase-noise profile; None synthesizes a pure tone."""
        if not self.noise_enabled:
            return None
        if self.noise is not None:
            return self.noise
        return default_noise_profile(f_low=1.0 / self.t_sig)

    def dispersion_spec(self, kind: str) -> DispersionSpec:
        """The characteristic of ``kind`` for this config's comb."""
        f_r, lambda0 = self.comb.f_r, self.comb.lambda0
        if kind != "tabulated":
            return DispersionSpec(kind, f_r, lambda0, m=self.m)
        if self._table is None:
            raise ConfigError("tabulated dispersion requires dispersion.table = <file>")
        return DispersionSpec.tabulated(f_r, lambda0, self._table[0], self._table[1])

    def to_dict(self) -> dict:
        """Every input that can change output bytes.

        ``out_dir`` and ``workers`` are left out: results do not depend on
        them.  The table enters by the sha256 of its contents, not its path.
        """
        noise = self.resolved_noise()
        return {
            "comb": {"f_r": self.comb.f_r, "lambda0": self.comb.lambda0, "width": self.comb.width},
            "oversampling": self.oversampling,
            "t_sig": self.t_sig,
            "kinds": list(self.kinds),
            "m": self.m,
            "table_sha256": self._table[2] if self._table is not None else None,
            "noise": None if noise is None else {"terms": [list(t) for t in noise.terms], "f_low": noise.f_low},
            "offsets": list(self.offsets),
            "ratios": list(self.ratios),
            "widths": list(self.widths),
            "n_seeds": self.n_seeds,
            "master_seed": self.master_seed,
            "memory_budget_bytes": self.memory_budget_bytes,
        }


@dataclass(frozen=True)
class SweepRow:
    """One measured point of a sweep: mean +- std of L over seeds."""

    x_value: float
    kind: str
    offset_hz: float
    mean_l_dbc: float
    std_l_db: float
    n_seeds: int
    per_seed: tuple[float, ...] = field(repr=False, default=())


@dataclass(frozen=True, eq=False)
class OffsetsTable:
    """Per-line delay-plan differences of linear/constant vs ideal."""

    width: float
    line_index: np.ndarray
    lambda_nm: np.ndarray
    diff_linear: np.ndarray
    diff_constant: np.ndarray


def derive_seed(master_seed: int, experiment: str, point_index: int, seed_index: int) -> int:
    """Stable per-job seed; independent of execution order."""
    ss = np.random.SeedSequence(
        [int(master_seed), zlib.crc32(experiment.encode()), int(point_index), int(seed_index)]
    )
    return int(ss.generate_state(1, np.uint64)[0])


#: Budget model.  Each layer states the bytes of its own arrays: a plan's
#: int64 offsets (``OFFSET_BYTES``), which bound its lag histogram too,
#: the workspaces and their shared scale (``Workspace.nbytes``), the
#: scratch of the |H|^2 pass (``scratch_bytes``), and a reader's bins, the
#: pick-table rows its reads can build, and its reads
#: (``BinReader.footprint``, of the reader the run uses); the kept values
#: and the read's results are arrays, counted as ``sys.getsizeof`` counts
#: them.  A read runs in phases, one after another, and the guard takes
#: the largest:
#: - build: the reader, and every plan, built one kind at a time, each
#:   kind's widths in groups no longer than its widest plan, then
#:   histogrammed one at a time, each plan dropped once it has its index
#:   and only the histograms of distinct plans held;
#: - carriers: the histograms, the reader, the carriers' kept values, and
#:   ``min(workers, carriers)`` jobs, each in a workspace of its own;
#: - plans: the histograms, the reader, the kept values, one scratch, the
#:   larger of the one pass that sums every distinct plan's |H|^2 and the
#:   read of every carrier through every distinct plan, and its results;
#: - rows: the results, each plan's L gathered, and the sweep rows.
#: The rows of earlier reads (the oversampling sweep's ratios) are held
#: through all four.  A table study builds its plans and its table, then
#: writes the table.  What no layer fixes is measured with tracemalloc, in
#: a fresh process per study, and rounded up:
#: the transients of a job, or of the |H|^2 pass, that do not grow with
#: its window: 0.16 MB in a carrier job (numpy's inverse-transform buffer,
#: the ramp chunks), and in the |H|^2 pass numpy's buffers and a tile's
#: bookkeeping, about those of its longest plan summed alone: 0.14 MB for
#: the desk sweep's 9 distinct plans on their 17 bins (0.13 MB for its
#: 2001-line plan alone), 0.27 MB for the wide sweep's 11 of up to 40001
#: lines (0.27 MB for that plan alone), with a plan's lines below;
_JOB_BYTES = 256 << 10
#: a line of the widest plan while a kind's plans are built (the widest
#: comb's wavelengths and one group's delays: 24-40 B per line on the desk
#: and wide sweeps' widths), or of a plan while its offsets are sorted and
#: counted (about 30 B per line);
_LINE_BYTES = 48
#: a read bin and distinct plan the |H|^2 pass may sum on: the masks of
#: the bins summed (1 B each, up to 5 at once), the bin, and
#: power_at_bins' arrays on it and its |H|^2 (on the desk grid, per plan
#: and bin: one plan 52 B on 16001 bins in runs of 3, 57 B on 50009 drawn
#: at random, and 84 B on 16001 consecutive bins, its run bookkeeping
#: within _JOB_BYTES; the desk sweep's 9 distinct plans 27-52 B);
_READ_BYTES = 72
#: a seed's value in a sweep row, as it is built (32 B held);
_ROW_BYTES_PER_VALUE = 48
#: a table row as values or as CSV text; a write holds both (167 B);
_TABLE_BYTES_PER_ROW = 96
#: what every run holds besides: its manifest, as it is written (16 KB).
_RUN_BYTES = 16 << 10
#: A carrier waiting for its read: its (noise, seed) tuple and a seed of up
#: to 64 bits; the noise profile is shared.
_CARRIER_BYTES = sys.getsizeof((None, 0)) + sys.getsizeof((1 << 64) - 1)


def _array_bytes(shape: tuple, dtype=np.float64) -> int:
    """``sys.getsizeof`` of an array of ``shape`` that owns its data, without making one."""
    return sys.getsizeof(np.empty((0,) * len(shape), dtype)) + np.dtype(dtype).itemsize * math.prod(shape)


def _read_phases(
    reader: BinReader, grid: SimGrid, workers: int, carriers: int, lines: list, distinct: int, rows=0, held=0
) -> dict[str, int]:
    """Peak bytes of each phase of a read: ``carriers`` carriers on
    ``grid``'s window, or ``reader``'s envelope window, synthesized on up
    to ``workers`` threads, seen through plans of ``lines`` lines each,
    ``distinct`` of them distinct, and read by ``reader``; ``rows`` values
    of sweep rows held once its rows are built, and ``held`` bytes
    throughout."""
    reads, offsets = len(reader.reads), len(reader.offsets)
    # A one-line plan moves no peak.
    finding, holding, reading = reader.footprint(carriers, distinct, moving=max(lines, default=0) > 1)
    plans, widest = OFFSET_BYTES * sum(lines), _LINE_BYTES * max(lines, default=0)
    kept = _array_bytes((carriers, reads))  # the carriers' values on the reads, as taken
    # The read of every carrier through every distinct plan: L, and each one's bin and power.
    read = distinct * carriers
    results = _array_bytes((read, offsets)) + _array_bytes((read,), np.int64) + _array_bytes((read,))
    jobs = min(workers, carriers)
    # The plans' |H|^2 summed in one scratch, into an array on every read
    # bin per plan, and then, those arrays and the sums' buffers freed, the read.
    value = np.dtype(np.float64).itemsize
    summed = _JOB_BYTES + distinct * (value + _READ_BYTES) * reads
    # Each plan's L, offsets x seeds, gathered in plan order for its rows, and a reduction's copy of it.
    gathered = 2 * _array_bytes((len(lines), offsets, carriers))
    phases = {
        "build": plans + max(finding, widest + holding),
        "carriers": plans + holding + kept + Workspace.nbytes(reader.length, reader.envelope, jobs) + jobs * _JOB_BYTES,
        "plans": plans + holding + kept + scratch_bytes(grid.n_samples) + max(summed, reading) + results,
        "rows": results + gathered + _ROW_BYTES_PER_VALUE * rows,
    }
    return {name: held + bytes_ for name, bytes_ in phases.items()}


def _predict_bytes(grid: SimGrid, lines: int = 0, jobs: int = 1, held: int = 0) -> int:
    """The guard's figure for ``jobs`` carriers on ``grid``'s passband
    window, as many at once, seen through one plan of ``lines`` lines and
    read at no offset, with ``held`` bytes besides.

    numpy's pocketfft allocates its scratch outside the Python allocator,
    so tracemalloc does not see it and this figure leaves it out; the
    resident set runs higher by that scratch.
    """
    reader = BinReader(grid.n_samples, grid.sample_rate, grid.f_r, ())
    return _Guard("", _read_phases(reader, grid, jobs, jobs, [lines], 1, held=held)).predicted


@dataclass(frozen=True)
class _Guard:
    """What the budget guard checks for one run: the peak bytes of each of
    its ``phases``; ``jobs`` is the most jobs a phase has to run, and
    ``lines`` counts the lines of its delay plans.  ``what`` names the run
    in a refusal."""

    what: str
    phases: dict
    jobs: int = 0
    lines: int = 0

    @property
    def predicted(self) -> int:
        """Peak bytes: the largest phase, and what every run holds besides."""
        return max(self.phases.values()) + _RUN_BYTES


def _human_bytes(n: float, exact: bool = False) -> str:
    """``n`` bytes in B, MiB or GiB; ``exact`` adds the bytes to a rounded figure."""
    if n < 2**20:
        return f"{n:.0f} B"
    rounded = f"{n / 2**30:.1f} GiB" if n >= 2**30 else f"{n / 2**20:.1f} MiB"
    return f"{rounded} ({n} B)" if exact else rounded


def _check_budget(cfg: ExperimentConfig, guard: _Guard):
    """Refuse when ``guard``'s run would overrun the budget, in exact bytes too."""
    predicted = guard.predicted
    if predicted > cfg.memory_budget_bytes:
        raise BudgetError(
            f"{guard.what} needs about {_human_bytes(predicted, True)} for {min(cfg.workers, guard.jobs)} "
            f"concurrent job(s) and delay plans of {guard.lines} lines, over the budget of "
            f"{_human_bytes(cfg.memory_budget_bytes, True)}",
            estimate_bytes=predicted,
        )


def _plan_lines(comb: CombSpec, plans) -> list[int]:
    """Lines of each of the (kind, width) ``plans`` for ``comb``, counted
    from the comb without building any: 1 for the bare plan, of kind "none"."""
    return [1 if kind == "none" else replace(comb, width=w).line_count for kind, w in plans]


def _plans(cfg: ExperimentConfig, grid: SimGrid, kind: str, widths, lines: CombLines | None = None) -> list[DelayPlan]:
    """The delay plans of ``kind`` for the config's comb at each of
    ``widths`` on ``grid``, in one call, from one line grid
    (:func:`~talbotsim.dispersion.delay_plans`; ``lines``, that of the
    widest comb, when the caller holds it).  ``kind = "none"`` is the
    one-line plan at zero delay, the bare carrier, at every width."""
    if kind == "none":
        return [DelayPlan(np.zeros(1, np.int64), grid) for _ in widths]
    try:
        return delay_plans(cfg.dispersion_spec(kind), cfg.comb, grid, widths, lines)
    except ValueError as exc:
        where = f"dispersion table {cfg.table}" if kind == "tabulated" else f"{kind} dispersion"
        raise ConfigError(f"{where}: {exc}") from None


def _plan(cfg: ExperimentConfig, grid: SimGrid, kind: str, width: float) -> DelayPlan:
    """The one plan of ``kind`` at ``width``: :func:`_plans` of one width."""
    return _plans(cfg, grid, kind, [width])[0]


def _plans_by_kind(cfg: ExperimentConfig, grid: SimGrid, plans: list, lines: CombLines | None = None) -> dict:
    """The delay plans of the (kind, width) ``plans`` on ``grid``, one
    :func:`_plans` call per kind: for each kind, its plans in the order
    of ``plans``.  ``lines``, if given, is the line grid of the widest
    comb of every kind.  A refusal names the first of ``plans`` refused,
    as building them one at a time in that order would."""
    widths = {}
    for kind, width in plans:
        widths.setdefault(kind, []).append(width)
    try:
        return {kind: _plans(cfg, grid, kind, ws, lines) for kind, ws in widths.items()}
    except ConfigError:
        for kind, width in plans:
            _plan(cfg, grid, kind, width)
        raise


def _check_offsets(reader: BinReader, what: str):
    """Refuse offsets of interest outside [df, Fs/2 - f_r], the range that
    ``reader`` measures (:meth:`BinReader.outside`); ``what`` names the
    run in the refusal."""
    outside, df, hi = reader.outside()
    if len(outside):
        raise ConfigError(f"analysis.offsets {outside.tolist()} Hz lie outside [{df}, {hi}] Hz, the range of {what}")


#: glibc's mallopt parameters and the values the study runner pins.  An
#: n-sized block, pocketfft's scratch above all, is otherwise mapped on
#: each transform and unmapped after it, or trimmed off the heap top,
#: and every call faults its pages in again; the munmap churn also
#: serializes concurrent jobs.  32 MiB is glibc's ceiling for the mmap
#: threshold; a freed heap top up to the trim threshold stays resident.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20
_allocator_pinned = False


def _libc():
    """The C library this process runs on."""
    return ctypes.CDLL(None)


def _pin_allocator() -> None:
    """Once per process, keep freed blocks of up to 32 MiB on the heap.

    Sets glibc's mmap threshold to 32 MiB and its trim threshold to
    64 MiB, so the transforms' scratch and the workspaces are reused
    instead of mapped afresh.  Does nothing where the C library has no
    ``mallopt`` or refuses the setting.  Two first calls that race both
    set the same values, which is harmless.
    """
    global _allocator_pinned
    if _allocator_pinned:
        return
    _allocator_pinned = True
    try:
        mallopt = _libc().mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no C library to load
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _map(workers: int, fn, items) -> list:
    """``[fn(item) for item in items]``, in item order, on up to ``workers`` threads."""
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as executor:
        return list(executor.map(fn, items))


def _map_on(workers: int, first, more: Callable, fn, items) -> list:
    """``[fn(work, item) for item in items]``, in item order, on up to
    ``workers`` threads, each call in one of ``min(workers, len(items))``
    working sets, all made before any call: ``first``, and ``more(first)``
    for each other.  They are dropped when this returns."""
    free = queue.SimpleQueue()
    free.put(first)
    for _ in range(min(workers, len(items)) - 1):
        free.put(more(first))

    def job(item):
        work = free.get()
        try:
            return fn(work, item)
        finally:
            free.put(work)

    return _map(workers, job, items)


def _detect_all(cfg: ExperimentConfig, grid: SimGrid, reader: BinReader, jobs: list) -> np.ndarray:
    """:func:`_detect` each of the (noise, seed) ``jobs`` on ``grid``, and
    keep its periodogram on ``reader``'s bins (:meth:`BinReader.take`);
    those values, one row per job, in job order.

    Each of the ``min(workers, len(jobs))`` concurrent jobs takes a
    workspace of its own, for the config's one noise profile, on
    ``reader``'s carrier window: ``grid``'s, or the envelope's.  The
    workspaces are dropped when this returns.  A noise profile that is
    negative, or overflows, on that window's bins is refused as a config
    error when the first workspace shapes it, before any job.
    """
    _pin_allocator()
    window = (reader.length, reader.rate)
    try:
        first = Workspace(*window, cfg.resolved_noise(), envelope=reader.envelope)
    except ValueError as exc:  # the profile is negative or overflows on this grid
        raise ConfigError(str(exc)) from None
    kept = np.empty((len(jobs), len(reader.reads)))

    def job(ws: Workspace, i: int):
        reader.take(_detect(grid, ws, jobs[i]), out=kept[i])

    more = partial(Workspace, *window, envelope=reader.envelope)
    _map_on(cfg.workers, first, lambda like: more(like=like), job, range(len(jobs)))
    return kept


def _detect(grid: SimGrid, ws: Workspace, job) -> np.ndarray:
    """Synthesize the carrier of a (noise, seed) job in ``ws`` and return
    its periodogram, in the workspace's ``wave`` buffer, over the carrier:
    valid until the workspace's next job.  In an envelope workspace the
    carrier is its complex envelope."""
    noise, seed = job
    if ws.envelope:
        return envelope_periodogram(synth_envelope(noise, seed, ws), ws)
    return passband_periodogram(synth_carrier(SynthesisRequest(grid=grid, noise=noise, seed=seed), ws), ws)


@dataclass(frozen=True, eq=False)
class _Reads:
    """(noise, seed) ``carriers`` on ``grid``, each to be seen through each
    of ``plans`` by :func:`_through_plans` and read at ``offsets``;
    ``what`` names the run in a budget refusal.  Each of ``plans`` is a
    (kind, width) pair, built by :func:`_plan` only once the guard has
    passed.  ``held_points`` counts the sweep points whose rows the study
    holds once these reads are done, theirs included: 0 for a run that
    writes no rows.  ``envelope`` reads synthesize each carrier as its
    complex envelope (see :class:`~talbotsim.analysis.BinReader`).
    """

    grid: SimGrid
    what: str
    carriers: list
    plans: list
    offsets: np.ndarray | tuple
    held_points: int = 1
    envelope: bool = False

    @cached_property
    def reader(self) -> BinReader:
        """The reader of L at ``offsets`` off the bins it picks on ``grid``,
        built once: a sweep's offsets check asks it for the measurable
        range, the guard sizes it, and the reads then use it."""
        grid = self.grid
        return BinReader(grid.n_samples, grid.sample_rate, grid.f_r, self.offsets, self.envelope)

    def guard(self, cfg: ExperimentConfig, others: int = 0) -> _Guard:
        """From the config alone: the carriers' jobs and then one read
        through the distinct plans, beside the ``others`` carriers of the
        study's other reads.  Every one-line plan is the bare plan, offset
        0, so the (kind, width) pairs of more than one line, plus one for
        all one-line plans, bound the distinct plans."""
        lines = _plan_lines(cfg.comb, self.plans)
        distinct = len({p if n > 1 else "bare" for p, n in zip(self.plans, lines)})
        point = len(self.plans) * len(self.carriers) * len(self.offsets)  # the values of one point's rows
        phases = _read_phases(
            self.reader, self.grid, cfg.workers, len(self.carriers), lines, distinct,
            rows=self.held_points * point,
            held=_CARRIER_BYTES * others + _ROW_BYTES_PER_VALUE * max(self.held_points - 1, 0) * point,
        )
        return _Guard(self.what, phases, jobs=len(self.carriers), lines=sum(lines))


def _through_plans(cfg: ExperimentConfig, *reads: _Reads):
    """For each of ``reads`` in turn, L(f) of its carriers seen through
    each of its plans: one read per plan (:meth:`BinReader.read`), its L
    carriers x offsets.

    Every guard is checked first, from the config alone, so a run over
    the budget is refused before any plan is built or any carrier
    synthesized.  The reads then run one at a time, each as the returned
    iterator reaches it (see :func:`_read_through`).
    """
    for guard in _guards(cfg, *reads):
        _check_budget(cfg, guard)
    return map(partial(_read_through, cfg), reads)


def _guards(cfg: ExperimentConfig, *reads: _Reads) -> list[_Guard]:
    """The guard of each of ``reads``, which a study makes at once: each
    also counts the carriers of the others, held until their turn."""
    carriers = sum(len(r.carriers) for r in reads)
    return [r.guard(cfg, carriers - len(r.carriers)) for r in reads]


def _read_through(cfg: ExperimentConfig, reads: _Reads) -> tuple:
    """L(f) of each of ``reads``' carriers seen through each of its plans:
    for each plan, in order, an index into its distinct plans, and L,
    distinct plans x carriers x offsets, with each carrier's bin and
    power, distinct plans x carriers.

    Each carrier is synthesized once, and its job keeps its periodogram
    on the bins the reader picks from (see
    :class:`~talbotsim.analysis.BinReader`), after the dominance test on
    the bare periodogram.  The detected periodogram is the carrier's
    times the plan's |H|^2, so every plan sees the same noise.  Plans
    whose offsets mod n are the same multiset have bit-equal |H|^2, so
    each plan is compared by its lag histogram, its offsets mod n sorted
    once (:func:`~talbotsim.superposition.lag_histogram`), and the
    distinct ones are read at once: one read of every carrier through
    every distinct plan (:meth:`BinReader.read`), which sums their |H|^2
    in one pass on the bins the reader asks for.  The reader is the one
    the guard sized.
    The carriers run as jobs on workspaces of their own, which are freed
    before the plans are read, on this thread, in one scratch: summing
    |H|^2 gains nothing from a second thread.  An envelope read
    synthesizes each carrier as its complex envelope; the plans, their
    |H|^2 and the read are the same.
    """
    grid = reads.grid
    keys, distinct = _distinct_lags(cfg, reads)
    reader = reads.reader
    kept = _detect_all(cfg, grid, reader, reads.carriers)
    work = scratch(grid.n_samples)

    def power(bins, which: list) -> np.ndarray:
        return power_at_bins([distinct[p] for p in which], bins, work)

    l_dbc, carrier, carrier_power = reader.read(kept, power, len(distinct))
    shape = (len(distinct), len(reads.carriers))
    return keys, l_dbc.reshape(*shape, -1), carrier.reshape(shape), carrier_power.reshape(shape)


def _distinct_lags(cfg: ExperimentConfig, reads: _Reads) -> tuple[list[int], list[Lags]]:
    """For each of ``reads``' plans, in order, an index into the lag
    histograms of its distinct plans (:meth:`Lags.same`), and those
    histograms.  Each kind's plans are built in one call
    (:func:`_plans_by_kind`).  A plan whose offsets equal an earlier
    kind's at the same width takes that plan's index with no histogram;
    every other plan is histogrammed, and compared only with the kept
    histograms of as many lines, distinct offsets and repeats.  Each plan
    is dropped once it has its index, and only the histograms of
    distinct plans are kept."""
    built = _plans_by_kind(cfg, reads.grid, reads.plans)
    keys, distinct, alike = [], [], {}
    for _, at_width in groupby(reads.plans, key=itemgetter(1)):
        plans = [built[kind].pop(0) for kind, _ in at_width]
        # Each plan's first equal at this width, found while they are all held.
        firsts = []
        for i, plan in enumerate(plans):
            equal = (j for j in range(i) if firsts[j] == j and np.array_equal(plans[j].offsets, plan.offsets))
            firsts.append(next(equal, i))
        base = len(keys)
        for i, first in enumerate(firsts):
            if first < i:
                keys.append(keys[base + first])
                continue
            lags = lag_histogram(plans[i])
            plans[i] = None
            shaped = alike.setdefault((lags.lines, len(lags.values), len(lags.repeats)), [])
            key = next((k for k in shaped if lags.same(distinct[k])), len(distinct))
            if key == len(distinct):
                shaped.append(key)
                distinct.append(lags)
            keys.append(key)
    return keys, distinct


def _point_rows(cfg: ExperimentConfig, points: list, per_seed: np.ndarray) -> list[SweepRow]:
    """Rows of sweep points: for each (x_value, key) of ``points``, in
    order, the mean and spread over seeds of L at each offset of
    interest, from ``per_seed``, points x offsets x seeds."""
    # Each offset's seeds contiguous: a reduction along them has the
    # bits of the same reduction of each offset's column on its own.
    columns = np.ascontiguousarray(per_seed)
    means, stds = columns.mean(axis=2).tolist(), columns.std(axis=2).tolist()
    rows = []
    for (x_value, key), mean, std, point in zip(points, means, stds, columns):
        for off, m, s, column in zip(cfg.offsets, mean, std, point.tolist()):
            rows.append(SweepRow(float(x_value), key, float(off), m, s, len(column), tuple(column)))
    return rows


def simulate(cfg: ExperimentConfig, kind: str = "ideal", points: int = 120, jitter_band=None):
    """One run: L(f) after ``kind``'s plan at ``points`` log-spaced offsets.

    ``kind = "none"`` measures the bare carrier, through the one-line plan
    at zero delay, whose |H|^2 is exactly 1 on every bin.  Returns the
    spectrum and, when ``jitter_band = (f_min, f_max)`` is given, its
    band-integrated jitter.
    """
    offsets = _simulate_offsets(cfg, points)
    if jitter_band is not None:
        f_min, f_max = jitter_band
        if not offsets[0] <= f_min < f_max <= offsets[-1]:
            raise ConfigError(
                f"jitter band [{f_min}, {f_max}] Hz must satisfy {offsets[0]} <= f_min < f_max <= "
                f"{offsets[-1]}, within the measured offsets"
            )
    _, ((l_dbc,),), ((carrier,),), ((power,),) = next(_through_plans(cfg, _simulate_reads(cfg, kind, offsets)))
    df = bin_spacing(cfg.grid.n_samples, cfg.grid.sample_rate)
    spectrum = PhaseNoiseSpectrum(int(carrier) * df, float(power), offsets, l_dbc, df)
    return spectrum, None if jitter_band is None else jitter(spectrum, *jitter_band)


def _simulate_offsets(cfg: ExperimentConfig, points: int = 120) -> np.ndarray:
    """``simulate``'s ``points`` log-spaced offsets, from 3 df to 0.999 (Fs/2 - f_r)."""
    if points < 2:
        raise ConfigError(f"points must be at least 2, got {points}")
    grid = cfg.grid
    f_top = (grid.sample_rate / 2 - cfg.comb.f_r) * 0.999
    if 3 * grid.df >= f_top:
        raise ConfigError(
            f"grid.oversampling = {cfg.oversampling} with grid.t_sig = {cfg.t_sig} s leaves no offset "
            f"between 3 df = {3 * grid.df} Hz and 0.999 (Fs/2 - f_r) = {f_top} Hz to measure"
        )
    return np.geomspace(3 * grid.df, f_top, points)


def _simulate_reads(cfg: ExperimentConfig, kind: str, offsets) -> _Reads:
    """``simulate``'s one carrier and ``kind``'s plan at the comb's width,
    read at ``offsets``."""
    carriers = [(cfg.resolved_noise(), cfg.master_seed)]
    return _Reads(cfg.grid, "simulate", carriers, [(kind, cfg.comb.width)], offsets, held_points=0)


def _oversampling_reads(cfg: ExperimentConfig, i: int) -> _Reads:
    """The oversampling sweep's reads at its ``i``-th ratio: the pure
    tone and ``n_seeds`` impaired carriers, on seeds of point index
    ``i``, through the bare plan on that ratio's grid.  Offsets outside
    the ratio's measurable range are refused here."""
    n = cfg.ratios[i]
    grid = build_grid(cfg.comb.f_r, n, cfg.t_sig)
    noise = cfg.resolved_noise()
    seeds = [derive_seed(cfg.master_seed, "oversampling", i, s) for s in range(cfg.n_seeds)]
    carriers = [(None, 0)] + [(noise, seed) for seed in seeds]
    what = f"oversampling point N={n}"
    # The rows of this ratio and of every ratio before it are held once its reads are done.
    reads = _Reads(grid, what, carriers, [("none", 0.0)], cfg.offsets, held_points=i + 1)
    _check_offsets(reads.reader, what)
    return reads


def sweep_oversampling(cfg: ExperimentConfig) -> list[SweepRow]:
    """Measure L of a pure tone and of the impaired carrier vs oversampling.

    No dispersion is applied (single line); the pure tone exposes the
    numerical floor of the simulation, the impaired carrier shows when
    the measured noise saturates.  Every ratio's offsets and budget are
    checked before any synthesis; then one grid at a time, so only one
    grid's reads and workspaces are ever held.
    """
    reads = _through_plans(cfg, *(_oversampling_reads(cfg, i) for i in range(len(cfg.ratios))))
    rows = []
    for n in cfg.ratios:
        # Unpacked from next(), not from a zip, whose reused result tuple would
        # keep this L while the next ratio's jobs run.
        _, (l_dbc,), _, _ = next(reads)
        per_seed = l_dbc.T[None]  # offsets x carriers
        rows += _point_rows(cfg, [(n, "pure_tone")], per_seed[..., :1])
        rows += _point_rows(cfg, [(n, "impaired")], per_seed[..., 1:])
        del l_dbc, per_seed
    return rows


def sweep_comb_width(cfg: ExperimentConfig) -> list[SweepRow]:
    """Measure L vs comb width for every configured dispersion kind.

    The ``n_seeds`` carriers are synthesized once, as complex envelopes,
    on the seeds of the first width (point index 0), and every width's
    plans read them (see :func:`_through_plans`), so kinds and widths are
    compared on identical noise and rows are correlated across widths as
    well as kinds.  A pure tone is refused before any synthesis: its
    envelope is exactly 1, and every sideband would read 0.
    """
    if not cfg.noise_enabled:
        raise ConfigError(
            "the comb-width sweep measures the phase noise of the impaired carrier, and with "
            "noise.enabled = false (--pure-tone) it has none: every sideband would read 0 (L = -inf). "
            "For the estimator's floor, run sweep-oversampling, whose pure_tone rows measure it"
        )
    reads = _comb_width_reads(cfg)
    keys, l_dbc, _, _ = next(_through_plans(cfg, reads))
    # Each plan's L, offsets x seeds, in the order of the (kind, width) plans.
    per_seed = np.take(l_dbc.transpose(0, 2, 1), keys, axis=0)
    del l_dbc
    return _point_rows(cfg, [(w, kind) for kind, w in reads.plans], per_seed)


def _comb_width_reads(cfg: ExperimentConfig) -> _Reads:
    """The comb-width sweep's ``n_seeds`` carriers, as complex envelopes on
    the seeds of point index 0, and every width's plans, one per kind,
    width by width.  Offsets outside the grid's measurable range are
    refused here."""
    noise = cfg.resolved_noise()
    carriers = [(noise, derive_seed(cfg.master_seed, "comb_width", 0, s)) for s in range(cfg.n_seeds)]
    plans = [(kind, w) for w in cfg.widths for kind in cfg.kinds]
    reads = _Reads(cfg.grid, "comb-width sweep", carriers, plans, cfg.offsets, envelope=True)
    _check_offsets(reads.reader, "the comb-width sweep")
    return reads


def _table_guard(cfg: ExperimentConfig, what: str, kinds, widths) -> _Guard:
    """The guard of ``what``, a study that synthesizes nothing: no job,
    the plans of ``kinds`` at each of ``widths``, and its table, of one
    row per line and width."""
    lines = _plan_lines(cfg.comb, [(kind, w) for w in widths for kind in kinds])
    table = _TABLE_BYTES_PER_ROW * sum(lines) // len(kinds)
    plans = OFFSET_BYTES * sum(lines) + _LINE_BYTES * max(lines)
    return _Guard(what, {"build": plans + table, "write": 2 * table}, lines=sum(lines))


def offsets_experiment(cfg: ExperimentConfig) -> list[OffsetsTable]:
    """Per-line delay-plan differences (ideal minus linear / constant).

    Each kind's plans are built in one call, on the widest comb's line
    grid, whose centre slices give each width's line indices and
    wavelengths."""
    _check_budget(cfg, _table_guard(cfg, "offsets-diff", _DIFF_KINDS, cfg.widths))
    lines = comb_lines(replace(cfg.comb, width=cfg.widths[-1]))
    built = _plans_by_kind(cfg, cfg.grid, [(kind, w) for w in cfg.widths for kind in _DIFF_KINDS], lines)
    middle = (len(lines) - 1) // 2
    tables = []
    for w in cfg.widths:
        ideal, linear, constant = (built[kind].pop(0) for kind in _DIFF_KINDS)
        half = (len(ideal) - 1) // 2
        centre = slice(middle - half, middle + half + 1)
        tables.append(
            OffsetsTable(
                width=float(w),
                line_index=lines.index[centre],
                lambda_nm=lines.lam[centre] * 1e9,
                diff_linear=offset_difference(ideal, linear),
                diff_constant=offset_difference(ideal, constant),
            )
        )
    return tables


def dispersion_eval(cfg: ExperimentConfig, kind: str = "ideal") -> tuple[str, list[str]]:
    """Tabulate ``kind``'s dispersion and delay-plan offset per comb line.

    Returns a summary line (D at the center wavelength) and the CSV lines.
    """
    comb = cfg.comb
    _check_budget(cfg, _table_guard(cfg, "dispersion-eval", (kind,), (comb.width,)))
    lines = comb_lines(comb)
    (plan,) = _plans(cfg, cfg.grid, kind, [comb.width], lines)
    spec = cfg.dispersion_spec(kind)
    d_ps_nm = np.asarray(eval_dispersion(spec, lines.lam)) * 1e3
    rows = ["line_index,lambda_nm,d_ps_per_nm,offset_samples"]
    for k, lam, d, off in zip(lines.index, lines.lam * 1e9, d_ps_nm, plan.offsets):
        rows.append(f"{k},{lam:.10g},{d:.10g},{off}")
    d0_ps_nm = eval_dispersion(spec, comb.lambda0) * 1e3
    return f"D({comb.lambda0 * 1e9:.6g} nm) = {d0_ps_nm:.4g} ps/nm", rows


def write_sweep_csv(rows: list[SweepRow], path: str | Path) -> None:
    lines = ["x_value,dispersion_kind,offset_hz,mean_L_dbc_hz,std_L_db,n_seeds"]
    for r in rows:
        lines.append(
            f"{r.x_value:.10g},{r.kind},{r.offset_hz:.10g},"
            f"{r.mean_l_dbc:.10g},{r.std_l_db:.10g},{r.n_seeds}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_offsets_csv(table: OffsetsTable, path: str | Path) -> None:
    lines = ["line_index,lambda_nm,diff_linear_samples,diff_constant_samples"]
    for k, lam, dl, dc in zip(
        table.line_index, table.lambda_nm, table.diff_linear, table.diff_constant
    ):
        lines.append(f"{k},{lam:.10g},{dl},{dc}")
    Path(path).write_text("\n".join(lines) + "\n")


def _with_plots(paths: list[Path], out: Path, render_svg: bool) -> list[Path]:
    return paths + (render_plots(paths, out) if render_svg else [])


def _write_simulate(result, out: Path, render_svg: bool) -> list[Path]:
    spectrum, jitter_result = result
    path = out / "spectrum.csv"
    write_spectrum_csv(spectrum, path)
    files = _with_plots([path], out, render_svg)
    if jitter_result is not None:
        files.append(out / "jitter.csv")
        write_jitter_csv(jitter_result, files[-1])
    return files


def _write_sweep(name: str, rows: list[SweepRow], out: Path, render_svg: bool) -> list[Path]:
    path = out / name
    write_sweep_csv(rows, path)
    return _with_plots([path], out, render_svg)


def _write_offsets(tables: list[OffsetsTable], out: Path, render_svg: bool) -> list[Path]:
    paths = []
    for table in tables:
        paths.append(out / f"offsets_diff_{table.width:.10g}.csv")
        write_offsets_csv(table, paths[-1])
    return _with_plots(paths, out, render_svg)


def _write_dispersion_eval(result, out: Path, render_svg: bool) -> list[Path]:
    path = out / "dispersion_eval.csv"
    path.write_text("\n".join(result[1]) + "\n")
    return [path]


@dataclass(frozen=True)
class Study:
    """A registered study.

    ``run(cfg, **args)`` computes its rows or tables; ``write(result,
    out_dir, render_svg)`` writes them and returns the paths written.
    ``keys`` names the config keys its code reads, a read of ``cfg.grid``
    included and a check that only validates them not; the command line
    gives the study a flag for each of them that has one.  ``args`` names
    the study's own arguments, which the manifest records next to the
    config; ``help`` is its one-line summary, and ``report`` turns a
    result into a line for the user.  ``no_svg(cfg)`` says why the study
    cannot draw its SVG under ``cfg``, or is None when it can.
    ``guards(cfg)`` lists the budget checks the study makes, at its
    default arguments, from the config alone, after the config checks
    the study makes on the way.
    """

    name: str
    run: Callable
    write: Callable
    keys: tuple[str, ...]
    help: str
    guards: Callable
    args: tuple[str, ...] = ()
    report: Callable | None = None
    no_svg: Callable = lambda cfg: None


#: The keys of the noise profile, and of a budgeted run's output, budget and pool.
_NOISE_KEYS = ("noise.enabled", "noise.term", "noise.f_low")
_RUN_KEYS = ("run.out_dir", "run.format", "run.memory_budget_bytes", "run.workers")

STUDIES: dict[str, Study] = {
    s.name: s
    for s in (
        Study(
            "simulate",
            simulate,
            _write_simulate,
            keys=(
                "comb.f_r", "comb.lambda0", "comb.width", "grid.oversampling", "grid.t_sig",
                "dispersion.m", "dispersion.table", *_NOISE_KEYS, "seeds.master", *_RUN_KEYS,
            ),
            help="single run: synth, plan, superpose, spectrum CSV",
            args=("kind", "points", "jitter_band"),
            guards=lambda cfg: [_simulate_reads(cfg, "ideal", _simulate_offsets(cfg)).guard(cfg)],
        ),
        Study(
            "sweep-oversampling",
            sweep_oversampling,
            partial(_write_sweep, "sweep_oversampling.csv"),
            keys=(
                "comb.f_r", "grid.t_sig", *_NOISE_KEYS, "analysis.offsets", "sweep.ratios",
                "seeds.count", "seeds.master", *_RUN_KEYS,
            ),
            help="L vs oversampling ratio",
            guards=lambda cfg: _guards(cfg, *(_oversampling_reads(cfg, i) for i in range(len(cfg.ratios)))),
        ),
        Study(
            "sweep-comb-width",
            sweep_comb_width,
            partial(_write_sweep, "sweep_comb_width.csv"),
            keys=(
                "comb.f_r", "comb.lambda0", "grid.oversampling", "grid.t_sig", "dispersion.kinds",
                "dispersion.m", "dispersion.table", *_NOISE_KEYS, "analysis.offsets", "sweep.widths",
                "seeds.count", "seeds.master", *_RUN_KEYS,
            ),
            help="L vs comb width per dispersion kind",
            no_svg=lambda cfg: "plots sweep.widths on a log axis, which has no 0 Hz" if cfg.widths[0] <= 0 else None,
            guards=lambda cfg: [_comb_width_reads(cfg).guard(cfg)],
        ),
        Study(
            "offsets-diff",
            offsets_experiment,
            _write_offsets,
            keys=(
                "comb.f_r", "comb.lambda0", "grid.oversampling", "grid.t_sig", "dispersion.m",
                "sweep.widths", "run.out_dir", "run.format", "run.memory_budget_bytes",
            ),
            help="per-line plan differences vs ideal",
            guards=lambda cfg: [_table_guard(cfg, "offsets-diff", _DIFF_KINDS, cfg.widths)],
        ),
        Study(
            "dispersion-eval",
            dispersion_eval,
            _write_dispersion_eval,
            keys=(
                "comb.f_r", "comb.lambda0", "comb.width", "grid.oversampling", "grid.t_sig",
                "dispersion.m", "dispersion.table", "run.out_dir", "run.memory_budget_bytes",
            ),
            help="tabulate a dispersion spec and its plan",
            args=("kind",),
            report=lambda r: r[0],
            no_svg=lambda cfg: "draws no SVG",
            guards=lambda cfg: [_table_guard(cfg, "dispersion-eval", ("ideal",), (cfg.comb.width,))],
        ),
    )
}


@dataclass
class Manifest:
    """What a run produced: resolved config, hashes, refusals, failures."""

    config: dict
    config_sha256: str
    master_seed: int
    versions: dict
    files: list = field(default_factory=list)
    refusals: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def write_manifest(
    cfg: ExperimentConfig, files: list[Path], study: str, args: dict, refusals=(), errors=()
) -> Manifest:
    """Write ``manifest.json`` into ``cfg.out_dir`` and return it.

    ``config`` is :meth:`ExperimentConfig.to_dict` plus the study's name
    and arguments; ``config_sha256`` is the sha256 of that dict as
    canonical JSON.  It changes with every input that can change output
    bytes, and also with inputs outside the study's ``keys`` that change
    none of its bytes: ``seeds.count`` for ``simulate``, for one.
    """
    config = {**cfg.to_dict(), "study": {"name": study, **args}}
    manifest = Manifest(
        config=config,
        config_sha256=hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
        master_seed=cfg.master_seed,
        versions={"talbotsim": __version__, "numpy": np.__version__},
        files=[
            {"name": p.name, "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
            for p in sorted(files, key=lambda p: p.name)
        ],
        refusals=list(refusals),
        errors=list(errors),
    )
    (cfg.out_dir / "manifest.json").write_text(manifest.to_json())
    return manifest


def run_study(name: str, cfg: ExperimentConfig, args: dict | None = None, render_svg: bool = False):
    """Run the registered study ``name`` and write its files and manifest.

    Returns the study's result and every path written, the manifest last.
    """
    study = STUDIES[name]
    _check_svg(study, cfg, render_svg)
    args = dict(args or {})
    result = study.run(cfg, **args)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    files = study.write(result, cfg.out_dir, render_svg)
    write_manifest(cfg, files, name, args)
    return result, files + [cfg.out_dir / "manifest.json"]


def _check_svg(study: Study, cfg: ExperimentConfig, render_svg: bool):
    """Refuse ``render_svg``, before ``study`` runs, where it cannot draw its SVG under ``cfg``."""
    why = study.no_svg(cfg) if render_svg else None
    if why:
        raise ConfigError(f"{study.name} {why}; --format csv+svg is not supported here, use --format csv")


def dry_run(cfg: ExperimentConfig) -> dict[str, int]:
    """The budget guard of every study, run without the study.

    Maps each study's name to the bytes its guard predicts under ``cfg``
    at its default arguments, the largest of its checks (for the
    oversampling sweep, its largest ratio's): the guard refuses the
    study exactly when that figure exceeds ``cfg.memory_budget_bytes``.
    No plan is built and nothing synthesized, so a characteristic the
    study would refuse is refused only when it runs.  Offsets a sweep
    cannot measure on its grid are refused as the sweep refuses them.
    """
    return {s.name: max(g.predicted for g in s.guards(cfg)) for s in STUDIES.values()}


def run_all(cfg: ExperimentConfig, render_svg: bool = False) -> Manifest:
    """Run the three sweep studies and write CSVs, plots, and one manifest.

    Budget refusals and per-study failures are recorded in the manifest
    instead of aborting the whole run.  Re-running with an identical
    config reproduces identical output bytes.
    """
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    refusals, errors = [], []
    for name in ("sweep-oversampling", "sweep-comb-width", "offsets-diff"):
        study = STUDIES[name]
        try:
            _check_svg(study, cfg, render_svg)
            written += study.write(study.run(cfg), cfg.out_dir, render_svg)
        except BudgetError as exc:
            refusals.append(
                {
                    "experiment": name,
                    "message": str(exc),
                    "estimate_bytes": exc.estimate_bytes,
                    "budget_bytes": cfg.memory_budget_bytes,
                }
            )
        except Exception as exc:  # noqa: BLE001 - reported per experiment
            errors.append({"experiment": name, "error": f"{type(exc).__name__}: {exc}"})
    return write_manifest(cfg, written, "all", {}, refusals, errors)
