"""Spectral estimation and phase-noise metrics.

The single-sideband phase noise L(f) is read off a rectangular-window
periodogram: both sidebands around the carrier are averaged and each
sideband value is the median of the 3 bins nearest the requested
offset, which tames single-bin estimator variance.  No taper is needed,
for the carrier or for the noise around it.  The experiments' window is
an integer number of carrier periods, which keeps the carrier
bin-exact, and the synthesized phase track is periodic in the window, so
every noise component sits on a bin as well: the rectangular window
leaks nothing, and a plan's comb-filter nulls are not filled in by the
1/f^2 noise of neighbouring bins.

On the real carrier the measured L is not S_phi(f)/2 alone: the phase
noise is shaped up to Fs/2, past 2 f_r, so the real carrier's
negative-frequency image adds S_phi(2 f_r ± f)/2 to each sideband
(+1.9 dB at 1 MHz and +0.8 dB at 100 kHz on the bare carrier of the
default config), and the float32 samples add a floor.  ``simulate`` and
the oversampling sweep read that carrier.  The comb-width sweep reads
the carrier's complex envelope (:func:`envelope_periodogram`), which has
neither: its L is S_phi(f)/2 with no image term and no float32 floor.

:func:`passband_periodogram` takes the periodogram in place in a
:class:`~talbotsim.synthesis.Workspace`: the samples are copied to its
``wave`` buffer in float64 (nothing to copy when they are the carrier
that :func:`~talbotsim.synthesis.synth_carrier` left there), their
spectrum goes to ``spec``, and the densities to the first n/2 + 1
samples of ``wave``, over the samples: a carrier synthesized in the
workspace is spent once its periodogram is taken, and the densities
returned are valid until the workspace's next job.  Bin k lies at
k * :func:`~talbotsim.model.bin_spacing`, which is how its readers
place it.  :func:`periodogram` takes it in a fresh workspace and returns
the bin frequencies too, from ``np.fft.rfftfreq``; both arrays belong to
the caller.

The reader looks at a few dozen bins: the carrier window, f_r +- 2
bins, and 5 candidates around each sideband target.  :class:`BinReader`
reads L off a PSD known on those bins alone, with the same peak and
sideband code as :func:`phase_noise_from_psd`: the studies hand it each
carrier's bare periodogram, keep the values on those bins, and multiply
them by each plan's |H|^2 there.  An envelope reader keeps the
envelope's periodogram on the same bins, and reads the lower sideband of
an offset above f_r where it is, below 0 Hz, where the real carrier's
reader finds it reflected through DC.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CarrierNotFoundError
from .model import SampledSignal, bin_spacing
from .synthesis import Workspace, envelope_length

__all__ = [
    "PhaseNoiseSpectrum",
    "JitterResult",
    "periodogram",
    "passband_periodogram",
    "envelope_periodogram",
    "phase_noise_spectrum",
    "phase_noise_from_psd",
    "BinReader",
    "jitter",
    "classical_penalty",
    "write_spectrum_csv",
    "write_jitter_csv",
]

#: Minimum carrier-to-total power ratio for peak detection.
CARRIER_THRESHOLD = 1e-6


@dataclass(frozen=True, eq=False)
class PhaseNoiseSpectrum:
    """Single-sideband phase noise L(f) at selected carrier offsets."""

    carrier_freq: float
    carrier_power: float
    offsets: np.ndarray
    l_dbc: np.ndarray
    df: float

    def __post_init__(self):
        off = np.asarray(self.offsets, dtype=np.float64)
        l = np.asarray(self.l_dbc, dtype=np.float64)
        if off.shape != l.shape:
            raise ValueError("offsets and l_dbc must have the same shape")
        if len(off) and (np.any(off <= 0) or np.any(np.diff(off) <= 0)):
            raise ValueError("offsets must be positive and strictly ascending")
        order = np.argsort(off)
        off, l = off[order], l[order]
        off.flags.writeable = False
        l.flags.writeable = False
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "l_dbc", l)

    def __len__(self) -> int:
        return len(self.offsets)


@dataclass(frozen=True)
class JitterResult:
    """Band-integrated linear-scale phase noise and its RMS-time reading."""

    integrated_l: float
    band: tuple[float, float]
    rms_time_jitter: float


def periodogram(y: SampledSignal) -> tuple[np.ndarray, np.ndarray]:
    """One-sided power spectral density (per Hz) of ``y``, and its bin
    frequencies.

    Rectangular window; Parseval-consistent: sum(psd)*df equals the
    mean square of the samples.
    """
    n = len(y.samples)
    psd = passband_periodogram(y, Workspace(n, y.sample_rate))
    return np.fft.rfftfreq(n, 1.0 / y.sample_rate), psd


def passband_periodogram(y: SampledSignal, workspace: Workspace) -> np.ndarray:
    """:func:`periodogram`'s densities of ``y``, taken in ``workspace``
    and left in its ``wave`` buffer (see the module docstring)."""
    n = len(y.samples)
    workspace.check(n, y.sample_rate)
    # A no-op when the samples are the workspace's own carrier.
    np.copyto(workspace.wave, y.samples)
    spec = np.fft.rfft(workspace.wave, out=workspace.spec)
    psd = np.square(spec.real, out=workspace.wave[: len(spec)])
    psd += np.square(spec.imag, out=spec.imag)
    psd *= 2.0 / (y.sample_rate * n)
    psd[0] *= 0.5
    if n % 2 == 0:
        psd[-1] *= 0.5
    return psd


def envelope_periodogram(envelope: np.ndarray, workspace: Workspace) -> np.ndarray:
    """The periodogram of the carrier whose complex envelope is ``envelope``.

    ``envelope`` is the ``spec`` buffer of the envelope ``workspace``, as
    :func:`~talbotsim.synthesis.synth_envelope` leaves it; it is
    transformed in place, and the periodogram goes to the workspace's
    ``wave`` buffer.  Two-sided, in FFT order: ``psd[k]`` (``psd[-k]``
    for negative k) is the one-sided density, per Hz, of the passband bin
    k away from the carrier, so a unit envelope's carrier holds 1/2, the
    power of a unit sine.
    """
    n = workspace.length
    spec = np.fft.fft(envelope, out=envelope)
    psd = np.square(spec.real, out=workspace.wave)
    psd += np.square(spec.imag, out=spec.imag)
    psd *= 0.5 / (workspace.sample_rate * n)
    return psd


def _carrier_window(size: int, df: float, f_r: float) -> range:
    """The bins within +-2 of f_r, where the carrier peak is searched."""
    center = int(round(f_r / df))
    window = range(max(center - 2, 0), min(center + 3, size))
    if not window:
        raise CarrierNotFoundError(f"carrier frequency {f_r} Hz is outside the spectrum")
    return window


def _peak(psd, window: range) -> int:
    """The bin of ``window`` where ``psd`` is largest, the first of equals."""
    return window.start + int(np.argmax([psd[j] for j in window]))


def _dominant(psd, window: range, df: float, f_r: float) -> int:
    """The peak of ``psd``, on bins ``df`` apart, in ``window``, refused
    unless it holds at least ``CARRIER_THRESHOLD`` of the total power of
    ``psd``."""
    peak = _peak(psd, window)
    total = float(np.sum(psd)) * df
    if total <= 0 or psd[peak] * df < CARRIER_THRESHOLD * total:
        raise CarrierNotFoundError(
            f"no dominant carrier within 2 bins of {f_r} Hz "
            f"(peak holds {psd[peak] * df / total if total else 0:.2e} of total power)"
        )
    return peak


def _sideband_value(psd, df: float, target: float, carrier_bin: int, two_sided: bool = False) -> float:
    """Median of the 3 valid bins nearest ``target``, excluding the carrier.

    At the ends of the spectrum fewer may be in reach: at Nyquist on an
    odd window, or at DC when the carrier sits within 2 bins of it.  The
    median of 2 is their mean.  A ``two_sided`` spectrum also has the
    bins below 0 Hz, down to minus Nyquist.
    """
    center = int(round(target / df))
    low = 1 - len(psd) if two_sided else 0
    candidates = [j for j in range(center - 2, center + 3) if low <= j < len(psd) and j != carrier_bin]
    candidates.sort(key=lambda j: (abs(j * df - target), j))
    values = sorted(float(psd[j]) for j in candidates[:3])
    if len(values) == 2:
        return (values[0] + values[1]) / 2.0
    return values[len(values) // 2]


def phase_noise_spectrum(y: SampledSignal, f_r: float, offsets) -> PhaseNoiseSpectrum:
    """Measure L(f) of ``y`` at the given carrier offsets (Hz).

    L is the double-sideband average of the per-Hz density at
    carrier +- offset, relative to the carrier power, in dBc/Hz.
    """
    freqs, psd = periodogram(y)
    return phase_noise_from_psd(freqs, psd, y.sample_rate, f_r, offsets)


def phase_noise_from_psd(freqs, psd, sample_rate: float, f_r: float, offsets) -> PhaseNoiseSpectrum:
    """L(f) read off a one-sided PSD on the bins ``freqs``, as
    :func:`phase_noise_spectrum` reads it off a signal's periodogram."""
    df = freqs[1] - freqs[0]
    return _read(df, psd, sample_rate, offsets, _dominant(psd, _carrier_window(len(psd), df, f_r), df, f_r))


def _read(df: float, psd, sample_rate: float, offsets, carrier_bin: int, two_sided: bool = False) -> PhaseNoiseSpectrum:
    """L(f) at ``offsets`` around the carrier on ``carrier_bin``, of a PSD
    on bins ``df`` apart.

    ``psd`` is read by bin index alone, ``psd[j]``, and ``len(psd)`` is
    the number of bins of the spectrum.  A one-sided spectrum reads the
    lower sideband of an offset above the carrier reflected through DC;
    a ``two_sided`` one reads it at its own, negative, bins.
    """
    carrier_freq = carrier_bin * df
    carrier_power = psd[carrier_bin] * df
    nyquist = sample_rate / 2.0
    offsets = np.sort(np.asarray(offsets, dtype=np.float64))
    l_dbc = np.empty_like(offsets)
    for i, off in enumerate(offsets):
        if off < df * (1.0 - 1e-9) or off > nyquist - carrier_freq:
            raise ValueError(
                f"offset {off} Hz outside the measurable range [{df}, {nyquist - carrier_freq}] Hz"
            )
        upper = _sideband_value(psd, df, carrier_freq + off, carrier_bin)
        lower_target = carrier_freq - off if two_sided else abs(carrier_freq - off)
        lower = _sideband_value(psd, df, lower_target, carrier_bin, two_sided)
        ratio = (upper + lower) / (2.0 * carrier_power)
        l_dbc[i] = 10.0 * math.log10(ratio) if ratio > 0 else -math.inf
    return PhaseNoiseSpectrum(
        carrier_freq=carrier_freq,
        carrier_power=carrier_power,
        offsets=offsets,
        l_dbc=l_dbc,
        df=df,
    )


class _OnBins:
    """A spectrum of ``size`` bins known on some of them: bin ``bins[i]``'s
    value is ``values[i]``, for the ascending ``bins``."""

    def __init__(self, size: int, bins: list, values: list):
        self.size, self.bins, self.values = size, bins, values

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, j):
        i = bisect_left(self.bins, j)
        if i == len(self.bins) or self.bins[i] != j:
            raise KeyError(j)
        return self.values[i]


#: Offsets whose sideband candidates are computed at a time, so building
#: a reader takes a bounded working set however many offsets it reads.
_OFFSET_CHUNK = 1024
#: Bytes a chunk's arrays take per offset at most: for each of the 5
#: carrier bins and 2 sides a float64 target, in up to two arrays at
#: once, and the 5 int64 candidates around it, in up to four.
_CANDIDATE_BYTES_PER_OFFSET = (2 * 10 + 4 * 50) * np.dtype(np.int64).itemsize


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``values`` sorted, each once; without np.unique, whose first call imports numpy.ma."""
    values = np.sort(values)
    return values[np.diff(values, prepend=values[:1] - 1) != 0]


def _layout(n_samples: int, sample_rate: float, f_r: float, offsets, envelope: bool) -> tuple:
    """A :class:`BinReader`'s ``size`` and ``df``, carrier window,
    ``reads`` and carrier-window ``length`` (see there)."""
    size, df = n_samples // 2 + 1, bin_spacing(n_samples, sample_rate)
    window = _carrier_window(size, df, f_r)
    carrier = np.arange(window.start, window.stop)
    carrier_freqs = (carrier * df)[:, None]
    offsets = np.asarray(offsets, dtype=np.float64)
    parts = [carrier]
    for start in range(0, len(offsets), _OFFSET_CHUNK):
        # The targets of every carrier bin the window allows, rounded as
        # _sideband_value rounds them; a superset of what any read picks.
        # Each array is dropped once spent, so no more are held than counted.
        chunk = offsets[start : start + _OFFSET_CHUNK]
        lower = carrier_freqs - chunk
        targets = np.concatenate((carrier_freqs + chunk, lower if envelope else np.abs(lower)))
        del lower
        candidates = (np.rint(targets / df).astype(np.int64)[..., None] + np.arange(-2, 3)).ravel()
        del targets
        parts.append(_sorted_unique(candidates[(candidates >= (1 - size if envelope else 0)) & (candidates < size)]))
    reads = _sorted_unique(np.concatenate(parts))
    if envelope:
        center = int(round(f_r / df))
        return size, df, window, reads, envelope_length(int(np.max(np.abs(reads - center))))
    return size, df, window, reads, n_samples


class BinReader:
    """L(f) read as :func:`phase_noise_from_psd` reads it, off a PSD known
    only on the bins that read can look at.

    The PSD is the periodogram of ``n_samples`` samples at
    ``sample_rate``, ``size`` bins ``df`` apart, or that periodogram seen
    through a delay plan.  ``reads`` (sorted) holds the carrier window,
    the bins within +-2 of f_r, and, for each bin of it where the peak
    may fall and each offset, the 5 candidates around each sideband
    target.

    An ``envelope`` reader reads the periodogram of the carrier's complex
    envelope (:func:`envelope_periodogram`), kept on the same bins, bin j
    being envelope bin j - ``shift``, the carrier's bin (``shift`` is 0
    for a passband reader).  Its lower sidebands are two-sided: an
    offset above f_r reads its bins below 0 Hz, which ``reads`` then
    holds too.  The envelope's window, ``length`` samples
    at ``rate``, holds every bin read with the margin of
    :func:`~talbotsim.synthesis.envelope_length`; for a passband reader
    they are the window's own ``n_samples`` and ``sample_rate``.

    A plan's |H|^2 is summed on ``bins``, the distinct ``|reads|`` (it is
    even in frequency), and indexing by ``fold`` takes it back to
    ``reads``: for a passband reader ``bins`` are ``reads``, and ``fold``
    takes them all.  :meth:`footprint` gives the size of ``reads``, the
    carrier window's ``length`` and the reader's bytes without building
    one; the offsets' candidates are found ``_OFFSET_CHUNK`` offsets at a
    time, so building a reader for many offsets holds little more than
    the reader.

    :meth:`take` runs the 1e-6 dominance test on a bare periodogram and
    keeps its values on ``reads``; :meth:`read` reads L off such values,
    each times a plan's |H|^2 on them.  Since |H| <= 1 the detected
    total is at most the bare one, so the dominance test is not rerun
    per plan: a plan is refused only when its detected carrier holds no
    power at all.
    """

    def __init__(self, n_samples: int, sample_rate: float, f_r: float, offsets, envelope: bool = False):
        self.offsets = np.sort(np.asarray(offsets, dtype=np.float64))
        self.size, self.df, self.window, self.reads, self.length = _layout(
            n_samples, sample_rate, f_r, self.offsets, envelope
        )
        self.sample_rate, self.f_r, self.envelope = sample_rate, f_r, envelope
        self._read_list = self.reads.tolist()
        if envelope:
            mirrored = np.abs(self.reads)
            self.bins = _sorted_unique(mirrored)
            self.fold = np.searchsorted(self.bins, mirrored)
            self.rate, self.shift = self.length * self.df, int(round(f_r / self.df))
        else:
            self.bins, self.fold = self.reads, slice(None)
            self.rate, self.shift = sample_rate, 0

    @staticmethod
    def footprint(n_samples: int, sample_rate: float, f_r: float, offsets, envelope: bool = False) -> tuple:
        """What a reader of these arguments takes, without building it: the
        number of its ``reads``, the ``length`` of its carrier window, the
        bytes that finding its reads passes through (one chunk's candidate
        arrays, and the reads found, sorted and merged, 8 B each at most
        three times), and the bytes the reader holds (each read as an
        int64 and as a Python int in a list; an envelope reader's
        ``bins`` and ``fold`` besides)."""
        size, _, _, reads, length = _layout(n_samples, sample_rate, f_r, offsets, envelope)
        finding = min(len(offsets), _OFFSET_CHUNK) * _CANDIDATE_BYTES_PER_OFFSET + 3 * reads.nbytes
        per_read = (4 if envelope else 2) * reads.itemsize + sys.getsizeof(size)
        return len(reads), length, finding, per_read * len(reads)

    def take(self, psd: np.ndarray) -> np.ndarray:
        """``psd``'s values on ``reads``, once its carrier passes the
        dominance test of :func:`phase_noise_from_psd`.

        ``psd`` is the bare periodogram of the reader's window, or for an
        envelope reader the envelope's, whose bin j is ``reads``' bin
        j + ``shift``.
        """
        _dominant(psd, range(self.window.start - self.shift, self.window.stop - self.shift), self.df, self.f_r)
        return psd[self.reads - self.shift]

    def read(self, values: np.ndarray) -> PhaseNoiseSpectrum:
        """L(f) off ``values``, the PSD on ``reads``.

        The carrier is the peak of the carrier window, as in
        :func:`phase_noise_from_psd`; a peak with no power raises
        CarrierNotFoundError.
        """
        psd = _OnBins(self.size, self._read_list, values.tolist())
        carrier_bin = _peak(psd, self.window)
        if not psd[carrier_bin] > 0:
            raise CarrierNotFoundError(f"the carrier within 2 bins of {self.f_r} Hz holds no power")
        return _read(self.df, psd, self.sample_rate, self.offsets, carrier_bin, self.envelope)


def jitter(spectrum: PhaseNoiseSpectrum, f_min: float, f_max: float) -> JitterResult:
    """Integrate linear-scale L over [f_min, f_max] (trapezoid rule).

    The companion RMS time jitter assumes L = S_phi/2 (small-angle
    modulation): sqrt(2 * integral) / (2*pi*carrier).
    """
    if len(spectrum) < 2:
        raise ValueError("jitter integration needs at least 2 spectrum points")
    lo, hi = spectrum.offsets[0], spectrum.offsets[-1]
    if not (lo <= f_min < f_max <= hi):
        raise ValueError(
            f"band [{f_min}, {f_max}] must satisfy {lo} <= f_min < f_max <= {hi}"
        )
    linear = 10.0 ** (spectrum.l_dbc / 10.0)
    inside = (spectrum.offsets > f_min) & (spectrum.offsets < f_max)
    f_grid = np.concatenate(([f_min], spectrum.offsets[inside], [f_max]))
    l_grid = np.concatenate(
        (
            [np.interp(f_min, spectrum.offsets, linear)],
            linear[inside],
            [np.interp(f_max, spectrum.offsets, linear)],
        )
    )
    integrated = float(np.trapezoid(l_grid, f_grid))
    rms = float(math.sqrt(2.0 * max(integrated, 0.0)) / (2.0 * math.pi * spectrum.carrier_freq))
    return JitterResult(integrated_l=integrated, band=(f_min, f_max), rms_time_jitter=rms)


def classical_penalty(l0_dbc: float, m: int) -> float:
    """Phase noise of a classically upconverted signal: L0 + 20*log10(m)."""
    if m < 1:
        raise ValueError("upconversion factor must be >= 1")
    return l0_dbc + 20.0 * math.log10(m)


def write_spectrum_csv(spectrum: PhaseNoiseSpectrum, path: str | Path) -> None:
    """Write ``offset_hz,L_dbc_hz`` rows for every measured offset."""
    lines = ["offset_hz,L_dbc_hz"]
    for off, l in zip(spectrum.offsets, spectrum.l_dbc):
        lines.append(f"{off:.10g},{l:.10g}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_jitter_csv(result: JitterResult, path: str | Path) -> None:
    """Write the single-row band-integration summary."""
    lines = [
        "f_min_hz,f_max_hz,integrated_L,rms_jitter_s",
        f"{result.band[0]:.10g},{result.band[1]:.10g},"
        f"{result.integrated_l:.10g},{result.rms_time_jitter:.10g}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")
