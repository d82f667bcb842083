"""Core domain types, unit conversions and the paper's storage figures.

Everything downstream (dispersion plans, signal synthesis, spectral
analysis, experiment sweeps) consumes the types defined here.  All types
are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "CombSpec",
    "SimGrid",
    "SampledSignal",
    "NoiseProfile",
    "CombLines",
    "build_grid",
    "bin_spacing",
    "comb_lines",
    "convert_dispersion",
    "estimate_memory",
]

#: Speed of light in vacuum, m/s (exact by SI definition; never configurable).
SPEED_OF_LIGHT: float = 2.99792458e8


@dataclass(frozen=True)
class CombSpec:
    """An optical frequency comb: equally spaced coherent lines.

    Parameters
    ----------
    f_r : float
        Repetition rate (line spacing), Hz.
    lambda0 : float
        Center wavelength, m.
    width : float
        Spectral width of the comb, Hz.  The line grid is symmetric
        around ``lambda0`` and always contains an odd number of lines,
        so the center line sits exactly at ``lambda0``.
    """

    f_r: float
    lambda0: float
    width: float = 0.0

    def __post_init__(self):
        if not 0 < self.f_r < math.inf:  # also refuses NaN
            raise ValueError(f"repetition rate must be positive and finite, got {self.f_r}")
        if not 0 < self.lambda0 < math.inf:
            raise ValueError(f"center wavelength must be positive and finite, got {self.lambda0}")
        if not 0 <= self.width < math.inf:  # also refuses NaN
            raise ValueError(f"comb width must be finite and non-negative, got {self.width}")

    @property
    def line_count(self) -> int:
        """Number of comb lines (odd, centered on ``lambda0``)."""
        return 2 * int(math.floor(self.width / (2.0 * self.f_r))) + 1

    @property
    def nu0(self) -> float:
        """Center optical frequency, Hz."""
        return SPEED_OF_LIGHT / self.lambda0


@dataclass(frozen=True)
class SimGrid:
    """Sampling grid of the reduced (single-carrier) time-domain model.

    ``sample_rate = oversampling * f_r`` and ``df = 1/t_sig``; the
    frequency resolution is set solely by the time window, independent
    of the sample rate.
    """

    oversampling: int
    sample_rate: float
    t_sig: float
    n_samples: int
    df: float

    def __post_init__(self):
        if self.oversampling < 2:
            raise ValueError(
                f"oversampling ratio must be >= 2 to sample the carrier, got {self.oversampling}"
            )
        if self.n_samples < 2:
            raise ValueError(f"need at least 2 samples, got {self.n_samples}")

    @property
    def f_r(self) -> float:
        """Carrier (repetition) frequency implied by the grid, Hz."""
        return self.sample_rate / self.oversampling


def build_grid(f_r: float, oversampling: int, t_sig: float) -> SimGrid:
    """Build the sampling grid for a carrier at ``f_r``.

    Parameters
    ----------
    f_r : float
        Carrier / repetition frequency, Hz.
    oversampling : int
        Samples per carrier period; must be >= 2.
    t_sig : float
        Analysis time window, s.  Sets the frequency resolution 1/t_sig.

    Returns
    -------
    SimGrid
    """
    if not 0 < f_r < math.inf:  # also refuses NaN
        raise ValueError(f"f_r must be positive and finite, got {f_r}")
    if not 0 < t_sig < math.inf:
        raise ValueError(f"t_sig must be positive and finite, got {t_sig}")
    oversampling = int(oversampling)
    try:
        sample_rate = oversampling * f_r
    except OverflowError:  # an int too large to convert to float
        sample_rate = math.inf
    if not math.isfinite(sample_rate * t_sig):
        raise ValueError(f"f_r * oversampling * t_sig = {sample_rate * t_sig} samples overflows")
    n_samples = int(round(sample_rate * t_sig))
    return SimGrid(
        oversampling=oversampling,
        sample_rate=sample_rate,
        t_sig=t_sig,
        n_samples=n_samples,
        df=1.0 / t_sig,
    )


def bin_spacing(length: int, sample_rate: float) -> float:
    """Spacing of the rFFT bins of ``length`` samples at ``sample_rate``,
    computed as ``np.fft.rfftfreq`` computes it, so bin k's frequency
    ``k * bin_spacing(...)`` is bit-equal to rfftfreq's.  ``SimGrid.df``,
    1/t_sig, may differ from it in the last bit."""
    return 1.0 / (length * (1.0 / sample_rate))


#: Samples whose finiteness :class:`SampledSignal` checks at a time.
_CHECK_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """A real-valued sampled signal.

    Samples may be stored in single precision to halve memory; all
    arithmetic performed on them downstream is double precision.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        # In chunks, so the check makes no mask the size of the signal.
        for start in range(0, len(arr), _CHECK_CHUNK):
            if not np.all(np.isfinite(arr[start : start + _CHECK_CHUNK])):
                raise ValueError("samples must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class NoiseProfile:
    """Power-law phase-noise profile S_phi(f) = sum b_alpha * f**alpha.

    ``terms`` is a sequence of ``(alpha, b_alpha)`` pairs; S_phi is in
    rad^2/Hz for offset frequency f in Hz.  ``f_low`` caps the
    divergence of negative-exponent terms: below it the density is held
    at its ``f_low`` value.
    """

    terms: tuple[tuple[float, float], ...]
    f_low: float = 1.0

    def __post_init__(self):
        terms = tuple((float(a), float(b)) for a, b in self.terms)
        object.__setattr__(self, "terms", terms)
        if any(a < 0 for a, _ in terms) and not self.f_low > 0:
            raise ValueError("f_low must be positive when any exponent is negative")

    def psd(self, f) -> np.ndarray:
        """Evaluate S_phi at offset frequencies ``f`` (Hz), clamped to f_low."""
        f = np.maximum(np.asarray(f, dtype=np.float64), self.f_low)
        out = np.zeros_like(f)
        for alpha, b in self.terms:
            out += b * f**alpha
        return out


@dataclass(frozen=True, eq=False)
class CombLines:
    """Line grid of a comb: index k, optical frequency and wavelength."""

    index: np.ndarray
    nu: np.ndarray
    lam: np.ndarray

    def __len__(self) -> int:
        return len(self.index)


def comb_lines(comb: CombSpec) -> CombLines:
    """Enumerate the comb's line grid.

    Lines are returned in ascending optical frequency: ``nu[k] = nu0 +
    k*f_r`` for k in [-(K-1)/2, +(K-1)/2], with wavelengths ``c/nu``.
    The center line's wavelength is exactly ``lambda0``.
    """
    half = (comb.line_count - 1) // 2
    k = np.arange(-half, half + 1, dtype=np.int64)
    nu = comb.nu0 + k * comb.f_r
    lam = SPEED_OF_LIGHT / nu
    lam[half] = comb.lambda0
    return CombLines(index=k, nu=nu, lam=lam)


#: Conversion factors to the internal SI unit (s/m) for dispersion values.
_DISPERSION_UNITS = {"s/m": 1.0, "ps/nm": 1e-3}


def convert_dispersion(value: float, from_unit: str, to_unit: str) -> float:
    """Convert a dispersion value between ps/nm and s/m (1 ps/nm = 1e-3 s/m)."""
    for unit in (from_unit, to_unit):
        if unit not in _DISPERSION_UNITS:
            raise ValueError(f"unknown dispersion unit {unit!r}; expected one of {sorted(_DISPERSION_UNITS)}")
    if from_unit == to_unit:
        return value
    if from_unit == "ps/nm":
        return value / 1e3
    return value * 1e3


def estimate_memory(
    representation: str,
    comb: CombSpec,
    grid: SimGrid,
    bytes_per_sample: float = 8,
) -> int:
    """Storage estimate for a time-domain signal covering ``grid``'s window.

    ``full_band`` assumes real Nyquist sampling of the whole comb span
    (2 samples per hertz of bandwidth per second); ``reduced`` assumes
    the single-carrier representation sampled at ``grid.oversampling``
    samples per carrier period (``oversampling = 2`` is the Nyquist
    minimum).
    """
    if representation == "full_band":
        n = 2.0 * comb.width * grid.t_sig
    elif representation == "reduced":
        n = grid.oversampling * comb.f_r * grid.t_sig
    else:
        raise ValueError(f"unknown representation {representation!r}")
    return int(round(n * bytes_per_sample))
