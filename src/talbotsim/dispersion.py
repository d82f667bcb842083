"""Dispersion characteristics and integer-sample delay plans.

A dispersive element is modeled by its dispersion-vs-wavelength
characteristic D(lambda) in s/m.  Integrating D over wavelength gives
the relative group delay of each comb line; rounding those delays to
integer sample counts yields the delay plan used by the delay-and-sum
photodetection model.  :func:`delay_plans` builds one characteristic's
plans at many comb widths from the widest comb's line grid, whose
centre slices hold every narrower comb's lines bit for bit;
:func:`delay_plan` is its one-width case.

Supported characteristics:

``ideal``
    D(lambda) = c / (lambda^2 * f_r^2 * m); delays neighboring lines by
    exactly one carrier period (for m = 1), the self-imaging condition.
``linear``
    First-order Taylor expansion of the ideal characteristic around the
    comb center wavelength.
``constant``
    The ideal value at the center wavelength, applied across the span.
``tabulated``
    Piecewise-linear interpolation of measured (lambda, D) points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .model import SPEED_OF_LIGHT, CombLines, CombSpec, SimGrid, comb_lines

__all__ = [
    "DispersionSpec",
    "DelayPlan",
    "eval_dispersion",
    "group_delay",
    "delay_plan",
    "delay_plans",
    "normalize_offsets",
    "one_sample_dispersion",
    "min_effective_dispersion",
    "offset_difference",
    "read_dispersion_table",
]

KINDS = ("ideal", "linear", "constant", "tabulated")
#: Bytes a delay plan holds per comb line: its int64 offset.
OFFSET_BYTES = np.dtype(np.int64).itemsize
#: The speed of light as a float64: a coefficient over a denominator that
#: underflows to 0 (lambda0 = 1e-300 m cubed) is then inf, and the delays
#: are refused as not finite, where Python floats raise ZeroDivisionError.
_C = np.float64(SPEED_OF_LIGHT)


@dataclass(frozen=True, eq=False)
class DispersionSpec:
    """A dispersion characteristic referenced to a comb (f_r, lambda0)."""

    kind: str
    f_r: float
    lambda0: float
    m: int = 1
    table: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown dispersion kind {self.kind!r}; expected one of {KINDS}")
        if not self.f_r > 0 or not self.lambda0 > 0:
            raise ValueError("f_r and lambda0 must be positive")
        if self.m < 1 or self.m != int(self.m):
            raise ValueError(f"upconversion factor must be a positive integer, got {self.m}")
        if self.kind == "tabulated":
            if self.table is None:
                raise ValueError("tabulated kind requires a table")
            lam = np.asarray(self.table[0], dtype=np.float64)
            d = np.asarray(self.table[1], dtype=np.float64)
            if lam.ndim != 1 or lam.shape != d.shape or len(lam) < 2:
                raise ValueError("table must be two equal-length 1-d arrays with >= 2 points")
            if not np.all(np.diff(lam) > 0):
                raise ValueError("table wavelengths must be strictly increasing")
            lam.flags.writeable = False
            d.flags.writeable = False
            object.__setattr__(self, "table", (lam, d))
        elif self.table is not None:
            raise ValueError(f"{self.kind} kind takes no table")

    @classmethod
    def ideal(cls, f_r: float, lambda0: float, m: int = 1) -> "DispersionSpec":
        return cls("ideal", f_r, lambda0, m=m)

    @classmethod
    def linear(cls, f_r: float, lambda0: float) -> "DispersionSpec":
        return cls("linear", f_r, lambda0)

    @classmethod
    def constant(cls, f_r: float, lambda0: float) -> "DispersionSpec":
        return cls("constant", f_r, lambda0)

    @classmethod
    def tabulated(cls, f_r: float, lambda0: float, lam, d) -> "DispersionSpec":
        return cls("tabulated", f_r, lambda0, table=(np.asarray(lam, float), np.asarray(d, float)))


@dataclass(frozen=True, eq=False)
class DelayPlan:
    """Per-comb-line integer sample delays, normalized to min = 0."""

    offsets: np.ndarray
    grid: SimGrid

    def __post_init__(self):
        off = np.asarray(self.offsets, dtype=np.int64)
        if len(off) == 0:
            raise ValueError("a delay plan needs at least one line")
        if off.min() != 0:
            raise ValueError("offsets must be normalized to min = 0")
        off.flags.writeable = False
        object.__setattr__(self, "offsets", off)

    def __len__(self) -> int:
        return len(self.offsets)

    @property
    def max_offset(self) -> int:
        """The largest delay, in samples."""
        return int(self.offsets.max())


def _check_in_table(spec: DispersionSpec, lam: np.ndarray):
    lo, hi = spec.table[0][0], spec.table[0][-1]
    if np.any(lam < lo) or np.any(lam > hi):
        raise ValueError(
            f"wavelength outside tabulated range [{lo:.6e}, {hi:.6e}] m"
        )


def eval_dispersion(spec: DispersionSpec, lam) -> np.ndarray | float:
    """Dispersion D(lambda) in s/m at wavelength(s) ``lam`` (m)."""
    lam_arr = np.asarray(lam, dtype=np.float64)
    c, f_r, lam0 = _C, spec.f_r, spec.lambda0
    if spec.kind == "ideal":
        out = c / (lam_arr**2 * f_r**2 * spec.m)
    elif spec.kind == "linear":
        out = -2.0 * c / (lam0**3 * f_r**2) * lam_arr + 3.0 * c / (lam0**2 * f_r**2)
    elif spec.kind == "constant":
        out = np.full_like(lam_arr, c / (lam0**2 * f_r**2))
    else:
        _check_in_table(spec, lam_arr)
        out = np.interp(lam_arr, spec.table[0], spec.table[1])
    return out if isinstance(lam, np.ndarray) else float(out)


def _tabulated_delay_integral(spec: DispersionSpec, lam_to: np.ndarray) -> np.ndarray:
    """Trapezoid integral of the tabulated characteristic from its first knot."""
    knots, d = spec.table
    # Cumulative trapezoid over the native knots, then a partial segment
    # from the last knot below each target to the target itself.
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (d[1:] + d[:-1]) * np.diff(knots))))
    idx = np.clip(np.searchsorted(knots, lam_to, side="right") - 1, 0, len(knots) - 2)
    d_at = np.interp(lam_to, knots, d)
    partial = 0.5 * (d[idx] + d_at) * (lam_to - knots[idx])
    return cum[idx] + partial


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value of each run of equal entries of ``values``, and its length."""
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    return values[starts], np.diff(starts, append=len(values))


def group_delay(spec: DispersionSpec, lambda_ref, lam) -> np.ndarray | float:
    """Group delay (s) accumulated from ``lambda_ref`` to ``lam``.

    The integral of D over wavelength, in closed form for the analytic
    kinds and by the trapezoid rule on the native knots for tabulated
    data.  Antisymmetric under swapping the two wavelengths.
    ``lambda_ref`` is one wavelength, or one for each of ``lam``; a
    reference gives the same bits either way, since what depends on it
    alone (its square, its tabulated integral) is formed once for each
    run of equal references.
    """
    lam_arr = np.asarray(lam, dtype=np.float64)
    per_line = np.ndim(lambda_ref) > 0
    if per_line:
        lambda_ref = np.asarray(lambda_ref, dtype=np.float64)
    c, f_r, lam0 = _C, spec.f_r, spec.lambda0
    if spec.kind == "ideal":
        out = (c / (f_r**2 * spec.m)) * (1.0 / lambda_ref - 1.0 / lam_arr)
    elif spec.kind == "linear":
        a = -2.0 * c / (lam0**3 * f_r**2)
        b = 3.0 * c / (lam0**2 * f_r**2)
        if per_line:  # each run's square as a scalar's, which an array's square can miss by an ulp
            refs, lengths = _runs(lambda_ref)
            ref_squared = np.repeat([r**2 for r in refs], lengths)
        else:
            ref_squared = lambda_ref**2
        out = 0.5 * a * (lam_arr**2 - ref_squared) + b * (lam_arr - lambda_ref)
    elif spec.kind == "constant":
        out = (c / (lam0**2 * f_r**2)) * (lam_arr - lambda_ref)
    else:
        refs, lengths = _runs(lambda_ref) if per_line else (np.asarray([lambda_ref]), None)
        _check_in_table(spec, np.append(lam_arr, refs))
        at_refs = _tabulated_delay_integral(spec, refs)
        out = _tabulated_delay_integral(spec, lam_arr) - (np.repeat(at_refs, lengths) if per_line else at_refs[0])
    return out if isinstance(lam, np.ndarray) else float(out)


def normalize_offsets(raw: np.ndarray) -> np.ndarray:
    """Shift integer delays so the smallest is zero (global delays drop out)."""
    raw = np.asarray(raw, dtype=np.int64)
    return raw - raw.min()


def _close(a: float, b: float) -> bool:
    """``np.isclose(a, b, rtol=1e-12)`` on two floats: |a - b| <= 1e-8 + 1e-12 |b|."""
    return a == b or abs(a - b) <= 1e-8 + 1e-12 * abs(b)


def delay_plan(spec: DispersionSpec, comb: CombSpec, grid: SimGrid) -> DelayPlan:
    """Integer-sample delay plan of ``spec`` for every line of ``comb``.

    Group delays are referenced to the first line of the grid, rounded
    half-to-even to whole samples, and normalized so the earliest line
    has offset 0.  Delays that are not finite, or of 2^62 samples or
    more, raise ValueError.  The one-width case of :func:`delay_plans`.
    """
    return delay_plans(spec, comb, grid, [comb.width])[0]


def delay_plans(
    spec: DispersionSpec, comb: CombSpec, grid: SimGrid, widths, lines: CombLines | None = None
) -> list[DelayPlan]:
    """The :func:`delay_plan` of ``spec`` for ``comb`` at each of ``widths``, in order.

    Every width's lines are the centre slice of the widest comb's line
    grid, ``lines`` when the caller holds it (:func:`comb_lines` of
    ``comb`` at the largest of ``widths``), which holds the same bits as
    that width's own grid.  The widths are evaluated in order, packed
    into groups of whole widths of at most the widest plan's lines, each
    line referenced to its own plan's first line, so no group's delays
    are longer than the widest plan's.  Each plan has the bits
    :func:`delay_plan` gives it; a refusal is that of the first width,
    in order, whose delays :func:`delay_plan` refuses.
    """
    if not _close(spec.f_r, comb.f_r) or not _close(grid.f_r, comb.f_r):
        raise ValueError(
            f"inconsistent repetition rates: spec {spec.f_r}, comb {comb.f_r}, grid {grid.f_r}"
        )
    if not widths:
        return []
    counts = [replace(comb, width=w).line_count for w in widths]
    widest = max(counts)
    lam = (comb_lines(replace(comb, width=max(widths))) if lines is None else lines).lam
    if len(lam) != widest:
        raise ValueError(f"lines hold {len(lam)} lines, where the widest comb has {widest}")
    plans, group = [], []
    for count in counts:
        if sum(group) + count > widest:
            plans += _group_plans(spec, grid, lam, group)
            group = []
        group.append(count)
    return plans + _group_plans(spec, grid, lam, group)


def _group_plans(spec: DispersionSpec, grid: SimGrid, lam: np.ndarray, counts: list) -> list[DelayPlan]:
    """The plans of ``counts`` lines each, the centre slices of the line
    wavelengths ``lam``, their delays evaluated at once."""
    middle = (len(lam) - 1) // 2
    slices = [lam[middle - (k - 1) // 2 : middle + (k - 1) // 2 + 1] for k in counts]
    if len(slices) == 1:
        lines, ref = slices[0], slices[0][0]
    else:
        lines, ref = np.concatenate(slices), np.repeat([s[0] for s in slices], counts)
    starts = np.cumsum([0] + counts[:-1])
    try:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # refused below instead
            samples = group_delay(spec, ref, lines)
            samples *= grid.sample_rate
            reaches = np.maximum.reduceat(np.abs(samples), starts)
    except ValueError:
        if len(counts) == 1:
            raise
        for count in counts:  # the first width refused, alone, as delay_plan refuses it
            _group_plans(spec, grid, lam, [count])
        raise
    del lines, ref
    # Below 2^62 samples, the int64 offsets and their spread both fit.
    refused = np.flatnonzero(~(reaches < 2.0**62))
    if len(refused):
        reach = reaches[refused[0]]
        if not np.isfinite(reach):
            raise ValueError(f"the {spec.kind} characteristic gives group delays that are not finite")
        raise ValueError(f"group delays of up to {reach:.3g} samples are too long for int64 offsets")
    raw = np.rint(samples, out=samples).astype(np.int64)
    # Each plan's normalize_offsets, into an array of its own.
    lowest = np.minimum.reduceat(raw, starts)
    return [DelayPlan(offsets=raw[s : s + k] - low, grid=grid) for s, k, low in zip(starts, counts, lowest)]


def one_sample_dispersion(oversampling: int, f_r: float, lambda0: float) -> float:
    """Dispersion (s/m) that delays neighboring comb lines by one sample.

    One sample is 1/(oversampling*f_r); dividing by the wavelength
    spacing of two lines around ``lambda0`` gives the required
    dispersion.  With ``oversampling = 1`` this recovers the ideal
    (one-period-per-line) characteristic at the center wavelength.
    """
    if oversampling < 1:
        raise ValueError("oversampling must be >= 1")
    c = SPEED_OF_LIGHT
    one_sample = 1.0 / (oversampling * f_r)
    spacing = c / (c / lambda0 - f_r) - lambda0
    return one_sample / spacing


def min_effective_dispersion(comb: CombSpec, grid: SimGrid) -> float:
    """Smallest dispersion (s/m) that is visible at all in the delay plan.

    Anything below the value causing one sample of delay across the full
    comb span rounds to an all-zero plan.
    """
    if comb.width <= 0 or comb.line_count < 2:
        raise ValueError("minimum effective dispersion needs a comb with width > 0")
    lines = comb_lines(comb)
    span = lines.lam.max() - lines.lam.min()
    return (1.0 / grid.sample_rate) / span


def offset_difference(a: DelayPlan, b: DelayPlan) -> np.ndarray:
    """Per-line difference a - b of two plans on the same comb and grid."""
    if len(a) != len(b):
        raise ValueError(f"plans have different line counts: {len(a)} vs {len(b)}")
    if a.grid != b.grid:
        raise ValueError("plans were built on different grids")
    return a.offsets - b.offsets


def read_dispersion_table(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column dispersion table file.

    Format: whitespace-separated ``lambda_nm  D_ps_per_nm`` rows sorted
    ascending in wavelength; ``#`` starts a comment line.  Returns
    wavelengths in m and dispersion in s/m.
    """
    lam_nm, d_ps_nm = [], []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
        try:
            lam_nm.append(float(parts[0]))
            d_ps_nm.append(float(parts[1]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if len(lam_nm) < 2:
        raise ValueError(f"{path}: need at least 2 data rows")
    lam = np.asarray(lam_nm) * 1e-9
    d = np.asarray(d_ps_nm) / 1e3  # ps/nm to s/m
    if not np.all(np.diff(lam) > 0):
        raise ValueError(f"{path}: wavelengths must be strictly increasing")
    return lam, d
