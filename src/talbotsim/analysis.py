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
reads L off a PSD known on those bins alone, many carriers at once: the
studies hand it each carrier's bare periodogram, keep the values on
those bins as one row of a carriers x bins array, and multiply it by
each plan's |H|^2 there.  A pick table holds, for a bin of the carrier
window and each offset, the 3 bins each sideband's median takes; a
bin's row is built with array operations the first time a carrier's
peak falls on it, so a read is array operations on the values: each
row's peak, its picks gathered, their median from minima and maxima,
and L.  A read looks at no other bin, and the reader states which bins
a read of given peaks takes (:meth:`BinReader.wanted`), so a plan's
|H|^2 need be summed on those alone.  :func:`phase_noise_from_psd` is
the same read of a dense PSD, with one row and a table for the one
carrier bin it finds.  An envelope reader keeps the envelope's
periodogram on the same bins, and reads the lower sideband of an offset
above f_r where it is, below 0 Hz, where the real carrier's reader
finds it reflected through DC.
"""

from __future__ import annotations

import math
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


def _dominant(psd: np.ndarray, window: range, df: float, f_r: float) -> int:
    """The peak of ``psd``, on bins ``df`` apart, in ``window`` (the first
    of equals; a bin below 0, of an envelope's window, counts from the
    end), refused unless it holds at least ``CARRIER_THRESHOLD`` of the
    total power of ``psd``."""
    peak = window.start + int(np.argmax(np.take(psd, window)))
    total = float(np.sum(psd)) * df
    if total <= 0 or psd[peak] * df < CARRIER_THRESHOLD * total:
        raise CarrierNotFoundError(
            f"no dominant carrier within 2 bins of {f_r} Hz "
            f"(peak holds {psd[peak] * df / total if total else 0:.2e} of total power)"
        )
    return peak


def phase_noise_spectrum(y: SampledSignal, f_r: float, offsets) -> PhaseNoiseSpectrum:
    """Measure L(f) of ``y`` at the given carrier offsets (Hz).

    L is the double-sideband average of the per-Hz density at
    carrier +- offset, relative to the carrier power, in dBc/Hz.
    """
    freqs, psd = periodogram(y)
    return phase_noise_from_psd(freqs, psd, y.sample_rate, f_r, offsets)


def phase_noise_from_psd(freqs, psd, sample_rate: float, f_r: float, offsets) -> PhaseNoiseSpectrum:
    """L(f) read off a one-sided PSD on the bins ``freqs``, as
    :func:`phase_noise_spectrum` reads it off a signal's periodogram: a
    :class:`BinReader`'s read of one row, every bin known, with a pick
    table for the carrier bin that passes the dominance test."""
    df = freqs[1] - freqs[0]
    psd = np.asarray(psd, dtype=np.float64)
    carrier = _dominant(psd, _carrier_window(len(psd), df, f_r), df, f_r)
    offsets = np.sort(np.asarray(offsets, dtype=np.float64))
    picks = _Picks(range(carrier, carrier + 1), offsets, df, len(psd), sample_rate)
    (l_dbc,), _, (power,) = picks.read(psd[None, :], [carrier], f_r)
    return PhaseNoiseSpectrum(carrier_freq=carrier * df, carrier_power=power, offsets=offsets, l_dbc=l_dbc, df=df)


#: Offsets whose sideband picks are computed, or read, at a time, so a
#: reader's build and reads take a bounded working set however many
#: offsets it reads.
_OFFSET_CHUNK = 256
#: The 5 candidates around a sideband target, in bins.
_AROUND = np.arange(-2, 3)
#: Bytes a chunk's arrays take at most per carrier bin and offset, while
#: the reads are found or the picks chosen: for each of 2 sides a float64
#: target, in up to two arrays at once, and the 5 int64 candidates around
#: it, in up to four (the candidates, their distances, their order).
_CANDIDATE_BYTES = (2 * 2 + 4 * 2 * 5) * np.dtype(np.int64).itemsize
#: Bytes a read passes through per carrier and offset of a chunk at most:
#: for each of 2 sides, the 3 picks' float64 values and one pick's index,
#: as the table holds it (int32), cast to int64 and into the flattened
#: values (int64), and which of median and mean the side takes.
_READ_BYTES_PER_OFFSET = 2 * (3 * 8 + 4 + 8 + 8 + 1)


def _candidates(carriers: np.ndarray, offsets: np.ndarray, df: float, two_sided: bool) -> tuple:
    """For carriers on bins ``carriers`` and each of ``offsets``: each
    sideband's target frequency, upper then lower, as (carriers, offsets,
    2), and the 5 bins around it, as (carriers, offsets, 2, 5).  A
    one-sided spectrum finds the lower sideband of an offset above the
    carrier reflected through DC; a ``two_sided`` one, below 0 Hz."""
    freqs = (carriers * df)[:, None]
    lower = freqs - offsets
    targets = np.stack((freqs + offsets, lower if two_sided else np.abs(lower)), axis=-1)
    return targets, np.rint(targets / df).astype(np.int64)[..., None] + _AROUND


class _Picks:
    """The pick table: for a carrier on a bin of ``carriers`` and each
    offset, the 3 valid bins nearest each sideband's target (the lower of
    equals first), whose median is the sideband's value.  A valid bin is
    one of the spectrum's ``size`` bins (``two_sided``: down to minus
    Nyquist) other than the carrier's.

    A bin's row (:meth:`row`) is built the first time a read finds a
    carrier's peak on it, and kept: a run's carriers peak on one or two
    bins of the window.  Its ``index`` holds the picks as indices into
    ``reads``, or into the bins themselves.  At DC, or at Nyquist on an
    odd window, fewer are in reach: the nearest fills the empty slots,
    and its ``two`` marks where 2 are, whose median is their mean.
    ``fits`` says, for each bin of ``carriers``, whether every offset lies
    in [df, Nyquist - carrier] for a carrier on that bin.
    """

    def __init__(
        self, carriers: range, offsets: np.ndarray, df: float, size: int, sample_rate: float,
        two_sided: bool = False, reads: np.ndarray | None = None,
    ):
        self.carriers, self.offsets, self.df, self.size, self.sample_rate = carriers, offsets, df, size, sample_rate
        self.two_sided, self.reads, self.rows = two_sided, reads, {}
        self.fits = np.ones(len(carriers), bool)
        if len(offsets):
            self.fits &= offsets[-1] <= sample_rate / 2.0 - np.arange(carriers.start, carriers.stop) * df
            self.fits &= offsets[0] >= df * (1.0 - 1e-9)

    def row(self, carrier: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``index`` (offsets x 2 sides x 3 picks) and ``two`` (offsets
        x 2 sides) of a carrier on bin ``carrier``, built on first use,
        ``_OFFSET_CHUNK`` offsets at a time."""
        if carrier in self.rows:
            return self.rows[carrier]
        offsets, df, size, reads = self.offsets, self.df, self.size, self.reads
        index = np.empty((len(offsets), 2, 3), _index_dtype(size if reads is None else len(reads)))
        two = np.empty((len(offsets), 2), bool)
        low = 1 - size if self.two_sided else 0
        for start in range(0, len(offsets), _OFFSET_CHUNK):
            chunk = slice(start, start + _OFFSET_CHUNK)
            (targets,), (candidates,) = _candidates(np.array([carrier]), offsets[chunk], df, self.two_sided)
            distance = candidates * df
            distance -= targets[..., None]
            del targets
            np.abs(distance, out=distance)
            distance[(candidates < low) | (candidates >= size) | (candidates == carrier)] = np.inf
            # Stable, so the lower of equally near bins comes first; as
            # indices into the flattened candidates.
            nearest = np.argsort(distance, axis=-1, kind="stable")[..., :3]
            nearest += np.arange(0, nearest.size // 3 * 5, 5).reshape(nearest.shape[:-1] + (1,))
            reach = distance.take(nearest) < np.inf
            del distance
            picked = candidates.take(nearest)
            del candidates, nearest
            picked = np.where(reach, picked, picked[..., :1])
            index[chunk] = picked if reads is None else np.searchsorted(reads, picked)
            two[chunk] = reach[..., 1] & ~reach[..., 2]
            del picked, reach  # before the next chunk's arrays
        self.rows[carrier] = index, two
        return index, two

    def read(self, values: np.ndarray, columns, f_r: float) -> tuple:
        """L of each row of ``values`` (carriers x values), and its carrier's
        bin and power: the peak of the columns ``columns``, one per bin of
        ``carriers``, the first of equals.  A carrier with no power raises
        CarrierNotFoundError, and one whose bin ``fits`` not ValueError,
        the first of either in row order.  The carriers that peak on a bin
        are read together, ``_OFFSET_CHUNK`` offsets at a time."""
        window = values[:, columns]
        peak = np.argmax(window, axis=1)
        power = window[np.arange(len(values)), peak]
        refused = ~(power > 0) | ~self.fits[peak]
        if refused.any():
            self._refuse(int(np.argmax(refused)), power, peak, f_r)
        power *= self.df
        l_dbc = np.empty((len(values), len(self.offsets)))
        for at in set(peak.tolist()):
            rows = np.flatnonzero(peak == at)
            index, two = self.row(self.carriers.start + at)
            # Each row's offset into the flattened values, and its scale.
            flat, scale = (rows * values.shape[1]).reshape(-1, 1, 1), (2.0 * power[rows])[:, None]
            for start in range(0, len(self.offsets), _OFFSET_CHUNK):
                chunk = slice(start, start + _OFFSET_CHUNK)
                l_dbc[rows, chunk] = _sidebands(values, index[chunk], flat, two[chunk], scale)
        return l_dbc, self.carriers.start + peak, power

    def _refuse(self, row: int, power: np.ndarray, peak: np.ndarray, f_r: float):
        """Raise the refusal of ``row``, whose carrier has no power or does not fit."""
        if not power[row] > 0:
            raise CarrierNotFoundError(f"the carrier within 2 bins of {f_r} Hz holds no power")
        df, top = self.df, self.sample_rate / 2.0 - (self.carriers.start + int(peak[row])) * self.df
        off = next(o for o in self.offsets if o < df * (1.0 - 1e-9) or o > top)
        raise ValueError(f"offset {off} Hz outside the measurable range [{df}, {top}] Hz")

    @staticmethod
    def nbytes(rows: int, offsets: int, size: int) -> int:
        """Bytes of ``rows`` rows of ``offsets`` offsets, indexing ``size`` values."""
        return rows * offsets * (6 * np.dtype(_index_dtype(size)).itemsize + 2 * np.dtype(bool).itemsize)


def _sidebands(values: np.ndarray, index: np.ndarray, flat: np.ndarray, two: np.ndarray, scale: np.ndarray):
    """L in dBc/Hz, rows x offsets, from a row's ``index`` and ``two`` on
    those offsets: each row's picks are its ``flat`` offset into the
    flattened ``values`` plus ``index``, each side's value is the median
    of 3, or where ``two`` marks it the mean of 2, and L is their sum over
    ``scale`` (each row's twice carrier power), ``10 * math.log10`` of each."""
    # The median of 3 (or the mean of the least and greatest, the empty
    # slot repeating the nearest) needs no sort.
    a, b, c = (values.take(index[..., i] + flat) for i in range(3))
    high = np.maximum(a, b)
    low = np.minimum(a, b, out=a)
    median = np.maximum(low, np.minimum(high, c, out=b), out=b)
    mean = np.minimum(low, c, out=a)
    mean += np.maximum(high, c, out=high)
    mean /= 2.0
    del low, high, c
    median = np.where(two, mean, median)
    del mean
    ratio = median[..., 0] + median[..., 1]
    del median
    ratio /= scale
    ratios = ratio.ravel().tolist()
    l_dbc = np.fromiter((10.0 * math.log10(r) if r > 0 else -math.inf for r in ratios), np.float64, len(ratios))
    return l_dbc.reshape(ratio.shape)


def _index_dtype(size: int):
    """The smallest of int32 and int64 that indexes ``size`` values."""
    return np.int32 if size <= np.iinfo(np.int32).max else np.int64


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``values`` sorted, each once; without np.unique, whose first call imports numpy.ma."""
    values = np.sort(values)
    return values[np.diff(values, prepend=values[:1] - 1) != 0]


class BinReader:
    """L(f) read as :func:`phase_noise_from_psd` reads it, off a PSD known
    only on the bins that read can look at, for many carriers at once.

    The PSD is the periodogram of ``n_samples`` samples at
    ``sample_rate``, ``size`` bins ``df`` apart, or that periodogram seen
    through a delay plan.  ``reads`` (sorted) holds the carrier window,
    the bins within +-2 of f_r, and, for each bin of it where the peak
    may fall and each offset, the 5 candidates around each sideband
    target; its pick table (:class:`_Picks`) says which 3 of them each
    sideband's median takes.

    An ``envelope`` reader reads the periodogram of the carrier's complex
    envelope (:func:`envelope_periodogram`), kept on the same bins, bin j
    being envelope bin j - ``shift``, the carrier's bin (``shift`` is 0
    for a passband reader).  Its lower sidebands are two-sided: an
    offset above f_r reads its bins below 0 Hz, which ``reads`` then
    holds too.  The envelope's window, ``length`` samples
    at ``rate``, holds every bin read with the margin of
    :func:`~talbotsim.synthesis.envelope_length`; for a passband reader
    they are the window's own ``n_samples`` and ``sample_rate``.

    A plan's |H|^2 is known on ``bins``, the distinct ``|reads|`` (it is
    even in frequency), and indexing by ``fold`` takes it back to
    ``reads``: for a passband reader ``bins`` are ``reads``, and ``fold``
    takes them all.  A read looks only at the carrier window and the
    picks of the bins its carriers peak on: :meth:`wanted` names those
    bins for given peaks, so a plan job sums |H|^2 on them alone, and
    every other value may hold anything.  The offsets' candidates are
    found, and read, ``_OFFSET_CHUNK`` offsets at a time, and a
    pick-table row is built only for a bin some carrier's peak falls
    on, so a reader for many offsets holds little more than its reads
    and a row or two.  :meth:`footprint` states its bytes, for the budget
    guard, from the one pass that found its ``reads``.

    :meth:`take` runs the 1e-6 dominance test on a bare periodogram and
    keeps its values on ``reads``; :meth:`read` reads L off a carriers x
    ``reads`` array of such values, each times a plan's |H|^2 on them.
    Since |H| <= 1 the detected total is at most the bare one, so the
    dominance test is not rerun per plan: a plan is refused only when its
    detected carrier holds no power at all.
    """

    def __init__(self, n_samples: int, sample_rate: float, f_r: float, offsets, envelope: bool = False):
        self.offsets = offsets = np.sort(np.asarray(offsets, dtype=np.float64))
        self.size, self.df = size, df = n_samples // 2 + 1, bin_spacing(n_samples, sample_rate)
        self.window = window = _carrier_window(size, df, f_r)
        self.sample_rate, self.f_r, self.envelope = sample_rate, f_r, envelope
        carrier = np.arange(window.start, window.stop)
        parts = [carrier]
        for start in range(0, len(offsets), _OFFSET_CHUNK):
            # The candidates of every carrier bin the window allows: a
            # superset of what any read picks.
            _, candidates = _candidates(carrier, offsets[start : start + _OFFSET_CHUNK], df, envelope)
            candidates = candidates.ravel()
            inside = (candidates >= (1 - size if envelope else 0)) & (candidates < size)
            parts.append(_sorted_unique(candidates[inside]))
        self.reads = _sorted_unique(np.concatenate(parts))
        del parts
        self._picks = _Picks(window, offsets, df, size, sample_rate, envelope, self.reads)
        self._columns = np.searchsorted(self.reads, carrier)
        if envelope:
            center = int(round(f_r / df))
            self.length = envelope_length(int(np.max(np.abs(self.reads - center))))
            mirrored = np.abs(self.reads)
            self.bins = _sorted_unique(mirrored)
            self.fold = np.searchsorted(self.bins, mirrored)
            self.rate, self.shift = self.length * df, center
        else:
            self.bins, self.fold = self.reads, slice(None)
            self.length, self.rate, self.shift = n_samples, sample_rate, 0

    def footprint(self, carriers: int = 1, plans: int = 0) -> tuple[int, int, int]:
        """What this reader takes when it reads ``carriers`` carriers
        through plans of which ``plans`` may move a carrier's peak: the
        bytes building it passed through (its own arrays: its offsets,
        reads, and an envelope reader's ``bins`` and ``fold``; one chunk's
        candidates on every bin of the window; and the reads found, sorted
        and merged); the bytes it holds once read (its own arrays, and a
        pick-table row for each bin the peaks can fall on, one per carrier
        for its bare peak and one more per carrier and plan); and the
        bytes one :meth:`read` passes through (a row's picks chosen one
        chunk at a time, and for each carrier its values on the reads and
        on the carrier window, its bin, peak and power, its row index,
        offset and scale, and ``_READ_BYTES_PER_OFFSET`` an offset of a
        chunk)."""
        reads, window, offsets = self.reads, self.window, len(self.offsets)
        value, chunk = np.dtype(np.float64).itemsize, min(offsets, _OFFSET_CHUNK)
        own = self.offsets.nbytes + (3 if self.envelope else 1) * reads.nbytes
        finding = own + chunk * len(window) * _CANDIDATE_BYTES + 3 * reads.nbytes
        held = own + _Picks.nbytes(min(len(window), carriers * (1 + plans)), offsets, len(reads))
        per_carrier = value * (len(reads) + len(window) + 6) + _READ_BYTES_PER_OFFSET * chunk
        return finding, held, chunk * _CANDIDATE_BYTES + carriers * per_carrier

    def take(self, psd: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``psd``'s values on ``reads``, into ``out`` if given, once its
        carrier passes the dominance test of :func:`phase_noise_from_psd`.

        ``psd`` is the bare periodogram of the reader's window, or for an
        envelope reader the envelope's, whose bin j is ``reads``' bin
        j + ``shift``.
        """
        _dominant(psd, range(self.window.start - self.shift, self.window.stop - self.shift), self.df, self.f_r)
        return np.take(psd, self.reads - self.shift, out=out)

    def read(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """L(f) off ``values``, carriers x ``reads``: each row the PSD of one
        carrier on ``reads``.

        Returns L in dBc/Hz, carriers x ``offsets``, and each carrier's bin
        and power.  The carrier is the peak of the carrier window, as in
        :func:`phase_noise_from_psd`; a peak with no power raises
        CarrierNotFoundError, and an offset outside [df, Fs/2 - carrier]
        ValueError, for the first carrier refused.
        """
        return self._picks.read(values, self._columns, self.f_r)

    def peaks(self, values: np.ndarray, gain: np.ndarray | None = None) -> np.ndarray:
        """The bin each row of ``values`` (carriers x ``reads``) peaks on
        in the carrier window, as :meth:`read` finds it, or each row seen
        through ``gain``, a plan's |H|^2 on ``bins``."""
        window = values[:, self._columns]
        if gain is not None:
            window = window * gain[self.fold][self._columns]
        return self.window.start + np.argmax(window, axis=1)

    def wanted(self, peaks) -> np.ndarray:
        """A mask on ``bins`` of every bin a :meth:`read` looks at when each
        carrier peaks on one of the carrier-window bins ``peaks``: the
        carrier window, and the picks of each of those bins where the
        offsets fit, whose pick-table rows this builds (a read refuses a
        carrier on any other).  A read of such carriers is the same
        whatever the values on the other bins."""
        start, picks = self.window.start, self._picks
        mask = np.zeros(len(self.reads), bool)
        mask[self._columns] = True
        for peak in peaks:
            if picks.fits[peak - start]:
                index = picks.row(peak)[0]
                for chunk in range(0, len(index), _OFFSET_CHUNK):
                    mask[index[chunk : chunk + _OFFSET_CHUNK]] = True
        if not self.envelope:
            return mask
        folded = np.zeros(len(self.bins), bool)
        folded[self.fold[mask]] = True
        return folded


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
