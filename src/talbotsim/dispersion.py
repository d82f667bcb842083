"""Dispersion characteristics and integer-sample delay plans.

A dispersive element is modeled by its dispersion-vs-wavelength
characteristic D(lambda) in s/m.  Integrating D over wavelength gives
the relative group delay of each comb line; rounding those delays to
integer sample counts yields the delay plan used by the delay-and-sum
photodetection model.

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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import SPEED_OF_LIGHT, CombSpec, SimGrid, comb_lines, convert_dispersion

__all__ = [
    "DispersionSpec",
    "DelayPlan",
    "eval_dispersion",
    "group_delay",
    "delay_plan",
    "normalize_offsets",
    "one_sample_dispersion",
    "min_effective_dispersion",
    "offset_difference",
    "read_dispersion_table",
]

KINDS = ("ideal", "linear", "constant", "tabulated")
#: Bytes a delay plan holds per comb line: its int64 offset.
OFFSET_BYTES = np.dtype(np.int64).itemsize


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
    c, f_r, lam0 = SPEED_OF_LIGHT, spec.f_r, spec.lambda0
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


def group_delay(spec: DispersionSpec, lambda_ref: float, lam) -> np.ndarray | float:
    """Group delay (s) accumulated from ``lambda_ref`` to ``lam``.

    The integral of D over wavelength, in closed form for the analytic
    kinds and by the trapezoid rule on the native knots for tabulated
    data.  Antisymmetric under swapping the two wavelengths.
    """
    lam_arr = np.asarray(lam, dtype=np.float64)
    c, f_r, lam0 = SPEED_OF_LIGHT, spec.f_r, spec.lambda0
    if spec.kind == "ideal":
        out = (c / (f_r**2 * spec.m)) * (1.0 / lambda_ref - 1.0 / lam_arr)
    elif spec.kind == "linear":
        a = -2.0 * c / (lam0**3 * f_r**2)
        b = 3.0 * c / (lam0**2 * f_r**2)
        out = 0.5 * a * (lam_arr**2 - lambda_ref**2) + b * (lam_arr - lambda_ref)
    elif spec.kind == "constant":
        out = (c / (lam0**2 * f_r**2)) * (lam_arr - lambda_ref)
    else:
        _check_in_table(spec, np.append(lam_arr, lambda_ref))
        out = _tabulated_delay_integral(spec, lam_arr) - _tabulated_delay_integral(
            spec, np.asarray([lambda_ref])
        )[0]
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
    more, raise ValueError.
    """
    if not _close(spec.f_r, comb.f_r) or not _close(grid.f_r, comb.f_r):
        raise ValueError(
            f"inconsistent repetition rates: spec {spec.f_r}, comb {comb.f_r}, grid {grid.f_r}"
        )
    lines = comb_lines(comb)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # refused below instead
        tau = group_delay(spec, lines.lam[0], lines.lam)
        samples = np.asarray(tau) * grid.sample_rate
    reach = np.max(np.abs(samples))
    if not np.isfinite(reach):
        raise ValueError(f"the {spec.kind} characteristic gives group delays that are not finite")
    # Below 2^62 samples, the int64 offsets and their spread both fit.
    if reach >= 2.0**62:
        raise ValueError(f"group delays of up to {reach:.3g} samples are too long for int64 offsets")
    raw = np.rint(samples).astype(np.int64)
    offsets = normalize_offsets(raw)
    return DelayPlan(offsets=offsets, grid=grid)


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
    d = np.asarray([convert_dispersion(v, "ps/nm", "s/m") for v in d_ps_nm])
    if not np.all(np.diff(lam) > 0):
        raise ValueError(f"{path}: wavelengths must be strictly increasing")
    return lam, d
