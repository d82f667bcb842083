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

There is one L reader, :class:`BinReader`.  It looks at a few dozen
bins: the carrier window, f_r +- 2 bins, and 5 candidates around each
sideband target, and reads L off a PSD known on those bins alone, many
carriers at once: the studies hand it each carrier's bare periodogram
and keep the values on those bins as one row of a carriers x bins
array.  A pick table holds, for a bin of the carrier window and each
offset, the 3 bins each sideband's median takes; a bin's row is built
with array operations the first time a carrier's peak falls on it, so a
read is array operations on the values: each row's peak, its picks
gathered, their median from minima and maxima, and L.
``read(values, power, plans)`` reads them seen through each of
``plans`` plans at once, whose |H|^2 is ``power(bins, which)``: the
reader asks for it only on the bins it looks at.
:func:`phase_noise_from_psd` is a reader's read of one row, every bin
of a dense PSD known.  An envelope reader keeps the envelope's
periodogram on the same bins, and reads the lower sideband of an offset
above f_r where it is, below 0 Hz, where the real carrier's reader
finds it reflected through DC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

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
        # Copies, frozen below, so the caller's arrays stay writable.
        off = np.array(self.offsets, dtype=np.float64)
        l = np.array(self.l_dbc, dtype=np.float64)
        if off.shape != l.shape:
            raise ValueError("offsets and l_dbc must have the same shape")
        if len(off) and (np.any(off <= 0) or np.any(np.diff(off) <= 0)):
            raise ValueError("offsets must be positive and strictly ascending")
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
    :func:`phase_noise_spectrum` reads it off a signal's periodogram: one
    row of a :class:`BinReader` on the window that the bins' spacing and
    ``sample_rate`` imply, after its dominance test.

    Raises ValueError when ``freqs`` has fewer than 2 bins, or when
    ``psd`` does not hold the n/2 + 1 bins of that window of n samples.
    """
    if len(freqs) < 2:
        raise ValueError(f"a PSD needs at least 2 bins, got {len(freqs)}")
    n = int(round(sample_rate / (freqs[1] - freqs[0])))
    if len(psd) != n // 2 + 1:
        raise ValueError(
            f"a PSD of {len(psd)} bins does not fit the {n}-sample window that its bin spacing "
            f"and {sample_rate} Hz imply, of {n // 2 + 1} bins"
        )
    reader = BinReader(n, sample_rate, f_r, offsets)
    (l_dbc,), (carrier,), (power,) = reader.read(reader.take(np.asarray(psd, dtype=np.float64))[None, :])
    return PhaseNoiseSpectrum(int(carrier) * reader.df, power, reader.offsets, l_dbc, reader.df)


#: Offsets whose sideband picks are computed, or read, at a time, so a
#: reader's build and reads take a bounded working set however many
#: offsets it reads.
_OFFSET_CHUNK = 256
#: Values a read through many plans forms at a time, (plans x carriers) x
#: reads, in blocks of whole plans, so it takes a bounded working set
#: however many plans and carriers it reads.
_BLOCK_VALUES = 1 << 14
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
    """The L(f) reader: L read off a PSD known only on the bins a read can
    look at, for many carriers at once.

    The PSD is the periodogram of ``n_samples`` samples at
    ``sample_rate``, ``size`` bins ``df`` apart, or that periodogram seen
    through a delay plan.  ``reads`` (sorted) holds the carrier window,
    the bins within +-2 of f_r, and, for each bin of it where the peak
    may fall and each offset, the 5 candidates around each sideband
    target.  A pick table says which of them each sideband's median
    takes: for a carrier on a bin of the window and each offset, the 3
    valid bins nearest each sideband's target (the lower of equals
    first), as indices into ``reads``.  A valid bin is one of the
    spectrum's bins (an envelope reader's: down to minus Nyquist) other
    than the carrier's.  At DC, or at Nyquist on an odd window, fewer are
    in reach: the nearest fills the empty slots, and the row marks where
    2 are, whose median is their mean.  A bin's row is built the first
    time a read finds a carrier's peak on it, and kept: a run's carriers
    peak on one or two bins of the window.

    An ``envelope`` reader reads the periodogram of the carrier's complex
    envelope (:func:`envelope_periodogram`), kept on the same bins, bin j
    being envelope bin j - ``shift``, the carrier's bin (``shift`` is 0
    for a passband reader).  Its lower sidebands are two-sided: an
    offset above f_r reads its bins below 0 Hz, which ``reads`` then
    holds too.  The envelope's window, ``length`` samples
    at ``rate``, holds every bin read with the margin of
    :func:`~talbotsim.synthesis.envelope_length`; for a passband reader
    they are the window's own ``n_samples`` and ``sample_rate``.

    :meth:`take` runs the 1e-6 dominance test on a bare periodogram and
    keeps its values on ``reads``; :meth:`read` reads L off a carriers x
    ``reads`` array of such values, each seen through each of many plans'
    |H|^2 when it is given them.  Since |H| <= 1 the detected total is
    at most the bare one, so the dominance test is not rerun per plan: a
    plan is refused only when its detected carrier holds no power at all.
    A read asks for |H|^2, which is even in frequency, on the distinct
    ``|reads|`` it looks at alone: the carrier window, and the picks of
    the bins its carriers peak on.  The offsets' candidates are found,
    and read, ``_OFFSET_CHUNK`` offsets at a time, and the plans read in
    blocks of ``_BLOCK_VALUES`` values, so a reader for many offsets,
    plans and carriers holds little more than its reads and a row or two.
    :meth:`footprint` states its bytes, for the budget guard, from the one
    pass that found its ``reads``.
    """

    def __init__(self, n_samples: int, sample_rate: float, f_r: float, offsets, envelope: bool = False):
        self.offsets = offsets = np.sort(np.asarray(offsets, dtype=np.float64))
        self.size, self.df = size, df = n_samples // 2 + 1, bin_spacing(n_samples, sample_rate)
        self._center = center = int(round(f_r / df))
        self.window = window = range(max(center - 2, 0), min(center + 3, size))
        if not window:
            raise CarrierNotFoundError(f"carrier frequency {f_r} Hz is outside the spectrum")
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
        self._columns = np.searchsorted(self.reads, carrier)
        # Whether every offset lies in the measurable range of a carrier on each bin of the window.
        self._fits = np.array([not len(self.outside(k)[0]) for k in window])
        self._rows = {}
        if envelope:
            self.length = envelope_length(int(np.max(np.abs(self.reads - center))))
            # The distinct |reads|, where a read asks for |H|^2, and each read's place among them.
            mirrored = np.abs(self.reads)
            self._bins = _sorted_unique(mirrored)
            self._fold = np.searchsorted(self._bins, mirrored)
            self.rate, self.shift = self.length * df, center
        else:
            self._bins, self._fold = self.reads, slice(None)
            self.length, self.rate, self.shift = n_samples, sample_rate, 0

    def outside(self, carrier: int | None = None) -> tuple[np.ndarray, float, float]:
        """The offsets outside the measurable range of a carrier on bin
        ``carrier``, by default the bin nearest f_r, and that range's ends:
        [df, Fs/2 - carrier], the lower end with a part in 1e9 to spare."""
        df, offsets = self.df, self.offsets
        top = self.sample_rate / 2.0 - (self._center if carrier is None else carrier) * df
        return offsets[(offsets < df * (1.0 - 1e-9)) | (offsets > top)], df, top

    def footprint(self, carriers: int = 1, plans: int = 1, moving: bool = False) -> tuple[int, int, int]:
        """What this reader takes when it reads ``carriers`` carriers
        through ``plans`` plans at once, which may move a carrier's peak
        when ``moving``: the bytes building it passed through (its own
        arrays: its offsets, reads, and an envelope reader's distinct
        ``|reads|`` and their places; one chunk's candidates on every bin
        of the window; and the reads found, sorted and merged); the bytes
        it holds once read (its own arrays, and a pick-table row for each
        bin the peaks can fall on, one per carrier for its bare peak and,
        when ``moving``, one more per carrier and plan: 6 indices and 2
        marks an offset); and the bytes one :meth:`read` passes through (a
        row's picks chosen one chunk at a time, and for each carrier and
        plan its values on the reads and on the carrier window, its bin,
        peak and power, its row index, offset and scale, and
        ``_READ_BYTES_PER_OFFSET`` an offset of a chunk)."""
        reads, window, offsets = self.reads, self.window, len(self.offsets)
        value, chunk = np.dtype(np.float64).itemsize, min(offsets, _OFFSET_CHUNK)
        own = self.offsets.nbytes + (3 if self.envelope else 1) * reads.nbytes
        finding = own + chunk * len(window) * _CANDIDATE_BYTES + 3 * reads.nbytes
        rows = min(len(window), carriers * (1 + plans if moving else 1))
        table = rows * offsets * (6 * np.dtype(_index_dtype(len(reads))).itemsize + 2 * np.dtype(bool).itemsize)
        per_row = value * (len(reads) + len(window) + 6) + _READ_BYTES_PER_OFFSET * chunk
        block = self._plans_at_once(carriers, plans) * carriers
        return finding, own + table, chunk * _CANDIDATE_BYTES + block * per_row

    def take(self, psd: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``psd``'s values on ``reads``, into ``out`` if given, once its
        carrier passes the dominance test: the peak of the carrier window
        holds at least ``CARRIER_THRESHOLD`` of the total power.

        ``psd`` is the bare periodogram of the reader's window, or for an
        envelope reader the envelope's, whose bin j is ``reads``' bin
        j + ``shift``.
        """
        _dominant(psd, range(self.window.start - self.shift, self.window.stop - self.shift), self.df, self.f_r)
        return np.take(psd, self.reads - self.shift, out=out)

    def read(
        self, values: np.ndarray, power: Callable | None = None, plans: int = 1
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """L(f) off ``values``, carriers x ``reads``: each row the PSD of one
        carrier on ``reads``, seen through each of ``plans`` plans if
        ``power`` is given.

        ``power(bins, which)`` is the |H|^2 of each plan of ``which``, a
        list of plan indices, on ``bins``, ascending and non-negative, as
        ``len(which)`` x bins.  The read asks it for the bins it looks at
        alone, and holds 0 on every other: it guesses the carriers' peaks
        from ``values`` and asks once, for every plan, for the carrier
        window and those peaks' picks; then it asks again, one plan at a
        time, for the picks of any bin that plan moves a peak to, which
        leaves the window, and so the peaks, as the first call found them.
        The values on the bins it does not ask for may hold anything.

        Returns L in dBc/Hz, (plans x carriers) x ``offsets``, row
        p * carriers + c for carrier c through plan p (carriers x
        ``offsets`` with no ``power``), and each row's carrier bin and
        power.  The carrier is the peak of the carrier
        window, the first of equals; a peak with no power raises
        CarrierNotFoundError, and an offset outside its measurable range
        (:meth:`outside`) ValueError, for the first row refused.  The
        plans are read in blocks of ``_BLOCK_VALUES`` values at most, or
        one plan, and a block's rows that peak on a bin together,
        ``_OFFSET_CHUNK`` offsets at a time.
        """
        carriers, width = values.shape
        rows = carriers * (1 if power is None else plans)
        results = (np.empty((rows, len(self.offsets))), np.empty(rows, np.int64), np.empty(rows))
        if power is None:
            self._read(values, *results)
            return results
        window, fold = values[:, self._columns], self._fold
        guessed = set(np.argmax(window, axis=1).tolist())
        asked = self._wanted(guessed)
        gain = np.zeros((plans, len(self._bins)))
        gain[:, asked] = power(self._bins[asked], list(range(plans)))
        at_once = self._plans_at_once(carriers, plans)
        for first in range(0, plans, at_once):
            block = gain[first : first + at_once]
            peaks = np.argmax(window * block[:, fold][:, None, self._columns], axis=2)
            for p, peak in enumerate(peaks.tolist(), first):
                moved = set(peak) - guessed
                if moved:
                    more = self._wanted(moved) & ~asked
                    gain[p, more] = power(self._bins[more], [p])[0]
            span = slice(first * carriers, (first + len(block)) * carriers)
            seen = (values * block[:, fold][:, None, :]).reshape(-1, width)
            self._read(seen, *(out[span] for out in results))
            del seen  # before the next block's
        return results

    def _plans_at_once(self, carriers: int, plans: int) -> int:
        """Plans of a block of :meth:`read`: as many as ``_BLOCK_VALUES``
        values hold for ``carriers`` carriers, at least one, at most ``plans``."""
        return max(1, min(plans, _BLOCK_VALUES // max(carriers * len(self.reads), 1)))

    def _read(self, values: np.ndarray, l_dbc: np.ndarray, carrier: np.ndarray, carrier_power: np.ndarray):
        """:meth:`read`'s L, bins and powers of the rows ``values``, into
        ``l_dbc``, ``carrier`` and ``carrier_power``."""
        window = values[:, self._columns]
        peak = np.argmax(window, axis=1)
        peak_power = window[np.arange(len(values)), peak]
        refused = ~(peak_power > 0) | ~self._fits[peak]
        if refused.any():
            row = int(np.argmax(refused))
            if not peak_power[row] > 0:
                raise CarrierNotFoundError(f"the carrier within 2 bins of {self.f_r} Hz holds no power")
            outside, df, top = self.outside(self.window.start + int(peak[row]))
            raise ValueError(f"offset {outside[0]} Hz outside the measurable range [{df}, {top}] Hz")
        np.multiply(peak_power, self.df, out=carrier_power)
        np.add(peak, self.window.start, out=carrier)
        for at in set(peak.tolist()):
            rows = np.flatnonzero(peak == at)
            index, two = self._row(self.window.start + at)
            # Each row's offset into the flattened values, and its scale.
            flat, scale = (rows * values.shape[1]).reshape(-1, 1, 1), (2.0 * carrier_power[rows])[:, None]
            for start in range(0, len(self.offsets), _OFFSET_CHUNK):
                chunk = slice(start, start + _OFFSET_CHUNK)
                l_dbc[rows, chunk] = _sidebands(values, index[chunk], flat, two[chunk], scale)

    def _wanted(self, peaks) -> np.ndarray:
        """A mask on the distinct ``|reads|`` of every bin a read looks at
        when each carrier peaks on one of the places ``peaks`` in the
        carrier window: the window, and the picks of each of those bins
        where the offsets fit, whose rows this builds (a read refuses a
        carrier on any other)."""
        mask = np.zeros(len(self.reads), bool)
        mask[self._columns] = True
        for at in peaks:
            if self._fits[at]:
                index = self._row(self.window.start + at)[0]
                for chunk in range(0, len(index), _OFFSET_CHUNK):
                    mask[index[chunk : chunk + _OFFSET_CHUNK]] = True
        if not self.envelope:
            return mask
        folded = np.zeros(len(self._bins), bool)
        folded[self._fold[mask]] = True
        return folded

    def _row(self, carrier: int) -> tuple[np.ndarray, np.ndarray]:
        """The pick-table row of a carrier on bin ``carrier``: its picks'
        indices into ``reads`` (offsets x 2 sides x 3 picks), and the
        offsets x 2 sides where 2 are in reach; built on first use,
        ``_OFFSET_CHUNK`` offsets at a time."""
        if carrier in self._rows:
            return self._rows[carrier]
        offsets, df, size, reads = self.offsets, self.df, self.size, self.reads
        index = np.empty((len(offsets), 2, 3), _index_dtype(len(reads)))
        two = np.empty((len(offsets), 2), bool)
        low = 1 - size if self.envelope else 0
        for start in range(0, len(offsets), _OFFSET_CHUNK):
            chunk = slice(start, start + _OFFSET_CHUNK)
            (targets,), (candidates,) = _candidates(np.array([carrier]), offsets[chunk], df, self.envelope)
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
            index[chunk] = np.searchsorted(reads, picked)
            two[chunk] = reach[..., 1] & ~reach[..., 2]
            del picked, reach  # before the next chunk's arrays
        self._rows[carrier] = index, two
        return index, two


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
