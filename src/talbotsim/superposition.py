"""Delay-and-sum photodetection model on a periodic window.

The detected signal is the sum of one integer-delayed copy of the
carrier per comb line, scaled by 1/K so a perfectly aligned pure tone
keeps unit amplitude.  The analysis window holds a whole number of
carrier periods and the synthesized phase track is periodic in the
window, so the carrier is periodic in it: delaying it by d samples is a
circular shift by ``d mod n_samples``.  The whole plan is then one
transfer function on the window's rFFT bins,

    H[j] = (1/K) * sum_k exp(-2 pi i j d_k / n),

and on every analysis bin the detected spectrum is X*H exactly: no
padding, no transform longer than the window, and the detected
periodogram is the carrier's times |H|^2.

L(f) is read on a few dozen bins, so :func:`power_at_bins` sums H on
those bins alone, over the distinct offsets mod n weighted by their
counts, and forms no window-sized array.  The phase index (j d) mod n
is exact in integers.  Bins come in runs of consecutive bins: each run
takes one twiddle per offset from two tables of about sqrt(n) entries
and steps along the run by multiplying by exp(-2 pi i d / n), so no
transcendental function is evaluated per bin.  It works in a
:class:`Scratch`: the two tables, and three arrays of at most ``_TILE``
entries, 40 bytes per entry in all, and on a window of 6 samples or more
at most n/3 entries, so at most about 13.4 bytes per window sample;
:func:`scratch_bytes` states both for the budget guard.  A caller that
sums many plans on one window hands each job a scratch of its own,
made once, and the tables, which depend on n alone, are shared.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dispersion import DelayPlan
from .model import SampledSignal

__all__ = ["Scratch", "power_at_bins", "scratch", "scratch_bytes", "superpose"]

#: Most bins stepped along from one exact twiddle.  A longer run starts
#: afresh, so stepping adds at most this many roundings to any bin.
_RUN = 16
#: Entries of each scratch array of :func:`power_at_bins`: runs by
#: distinct offsets, complex.
_TILE = 1 << 16


def _kernel(lags: np.ndarray, count: int, out: np.ndarray) -> np.ndarray:
    """The 1/``count`` impulse train at sample indices ``lags``, written into ``out``."""
    out.fill(0.0)
    # Whole-number counts, exact in float64: the same values as np.bincount's.
    np.add.at(out, lags, 1.0)
    out /= count
    return out


def _scratch_length(n: int) -> int:
    """Entries of each of :func:`power_at_bins`' three scratch arrays on a
    window of ``n`` samples."""
    return max(2, min(_TILE, n // 3))


def _twiddle_split(n: int) -> tuple[int, int]:
    """The bits of a phase index that :func:`power_at_bins`' low twiddle
    table covers on a window of ``n`` samples, and its high table's length."""
    shift = math.isqrt(n).bit_length()
    return shift, ((n - 1) >> shift) + 1


def scratch_bytes(n: int) -> tuple[int, int]:
    """Bytes of a :class:`Scratch` on a window of ``n`` samples: its
    three scratch arrays, two complex and one int64, and its two complex
    twiddle tables, which the scratches of one window share."""
    shift, high = _twiddle_split(n)
    complex_size, int_size = np.dtype(np.complex128).itemsize, np.dtype(np.int64).itemsize
    return (2 * complex_size + int_size) * _scratch_length(n), complex_size * ((1 << shift) + high)


class Scratch(NamedTuple):
    """What :func:`power_at_bins` works in on a window of ``n`` samples:
    the twiddle tables ``lo`` and ``hi``, with exp(-2 pi i p / n) =
    hi[p >> s] * lo[p & (2^s - 1)], and three scratch arrays."""

    n: int
    lo: np.ndarray
    hi: np.ndarray
    cur: np.ndarray
    tmp: np.ndarray
    idx: np.ndarray


def scratch(n: int, like: Scratch | None = None) -> Scratch:
    """A :class:`Scratch` on a window of ``n`` samples, with scratch
    arrays of its own and the twiddle tables of ``like``, which depend on
    n alone, or new ones."""
    if like is None:
        shift, high = _twiddle_split(n)
        lo = np.exp(-2j * np.pi / n * np.arange(1 << shift))
        hi = np.exp(-2j * np.pi / n * (np.arange(high) << shift))
    elif like.n != n:
        raise ValueError(f"twiddle tables of a {like.n}-sample window for a window of {n}")
    else:
        lo, hi = like.lo, like.hi
    size = _scratch_length(n)
    return Scratch(n, lo, hi, np.empty(size, np.complex128), np.empty(size, np.complex128), np.empty(size, np.int64))


def power_at_bins(plan: DelayPlan, bins, work: Scratch | None = None) -> np.ndarray:
    """|H|^2 of ``plan`` on the rFFT bins ``bins`` of its grid's window.

    ``bins`` ascend strictly within 0 .. n/2.  Multiplying a carrier's
    periodogram on those bins by the result gives the periodogram of
    the carrier after the plan; lines that share an offset mod n add up
    in amplitude.  H is summed over the distinct offsets u mod n,
    weighted by their counts c(u):

        H[j] = (1/K) * sum_u c(u) * exp(-2 pi i ((j u) mod n) / n).

    exp(-2 pi i p / n) is hi[p >> s] * lo[p & (2^s - 1)], from two tables
    of about sqrt(n) entries.  Each run of consecutive bins, up to
    ``_RUN`` long, takes that twiddle at its first bin and multiplies by
    exp(-2 pi i u / n) for each next bin.  A plan whose offsets are all
    0 mod n has |H|^2 exactly 1.

    The sums run in ``work``, a :class:`Scratch` on the plan's window,
    or in one made here.  Its arrays are :func:`_scratch_length` entries
    long: that length fixes the chunks the sums run over, and so their
    bits.
    """
    grid = plan.grid
    n = grid.n_samples
    if (n // 2) * (n - 1) >= 1 << 63:
        raise ValueError(f"a window of {n} samples overflows the exact int64 phase index")
    bins = np.asarray(bins, dtype=np.int64)
    if bins.ndim != 1 or np.any(np.diff(bins) <= 0) or (len(bins) and not 0 <= bins[0] <= bins[-1] <= n // 2):
        raise ValueError(f"bins must ascend strictly within 0 .. {n // 2}")
    lags = np.sort(plan.offsets % n)
    distinct = np.flatnonzero(np.diff(lags, prepend=-1))
    counts = np.diff(distinct, append=len(lags)).astype(np.float64)
    lags = lags[distinct]

    # Runs of consecutive bins, cut every _RUN bins, longest first: the
    # runs still being stepped are then always a leading block.
    index = np.arange(len(bins))
    run_start = np.maximum.accumulate(np.where(np.diff(bins, prepend=-2) != 1, index, 0))
    firsts = np.flatnonzero((index - run_start) % _RUN == 0)
    lengths = np.diff(firsts, append=len(bins))
    order = np.argsort(-lengths, kind="stable")
    firsts, lengths = firsts[order], lengths[order]

    work = scratch(n) if work is None else work
    if work.n != n:
        raise ValueError(f"scratch of a {work.n}-sample window for a window of {n}")
    _, lo, hi, cur_buf, tmp_buf, idx_buf = work
    shift, size = _twiddle_split(n)[0], len(cur_buf)
    group = max(1, min(len(firsts), size // 64))  # runs at a time, and one row of steps
    chunk = size // (group + 1)  # distinct offsets at a time
    total = np.empty(len(bins), np.complex128)
    for g in range(0, len(firsts), group):
        first, length = firsts[g : g + group], lengths[g : g + group]
        rows, starts = len(first), bins[first][:, None]
        # Runs still stepping at step k: those longer than k.
        active = [int(np.count_nonzero(length > k)) for k in range(int(length[0]))]
        sums = np.zeros((len(active), rows), np.complex128)  # step k of run r
        for c in range(0, len(lags), chunk):
            u = lags[c : c + chunk]
            width = (rows + 1) * len(u)
            idx = idx_buf[:width].reshape(rows + 1, len(u))
            np.multiply(starts, u, out=idx[:rows])
            np.remainder(idx[:rows], n, out=idx[:rows])
            idx[rows] = u
            cur = cur_buf[:width].reshape(rows + 1, len(u))
            tmp = tmp_buf[:width].reshape(rows + 1, len(u))
            low = cur_buf[:width].view(np.int64)[:width].reshape(rows + 1, len(u))  # spent by the second take
            np.take(lo, np.bitwise_and(idx, (1 << shift) - 1, out=low), out=tmp, mode="clip")
            np.take(hi, np.right_shift(idx, shift, out=idx), out=cur, mode="clip")
            cur *= tmp
            step = cur[rows]
            cur[:rows] *= counts[c : c + chunk]
            for k, live in enumerate(active):
                sums[k, :live] += cur[:live].sum(axis=1)
                if k + 1 < len(active):
                    cur[: active[k + 1]] *= step
        steps = np.arange(len(active))[:, None]
        inside = steps < length
        total[(first + steps)[inside]] = sums[inside]
    h = np.divide(total, len(plan), out=total)
    return np.square(h.real) + np.square(h.imag)


def superpose(x: SampledSignal, plan: DelayPlan) -> SampledSignal:
    """Time-domain view of the delay-and-sum: ``irfft(rfft(x) * H)``.

    ``x`` must cover exactly the plan's window of n_samples.  Each copy
    is delayed circularly, by its offset mod n, so the result is the
    true delay-and-sum only for an ``x`` that is periodic in the window;
    for the synthesized carrier that means a window of a whole number of
    carrier periods.
    """
    n = plan.grid.n_samples
    if len(x) != n:
        raise ValueError(f"input has {len(x)} samples; the plan's window is {n}")
    transfer = np.fft.rfft(_kernel(plan.offsets % n, len(plan), np.empty(n)))
    spec = np.fft.rfft(np.asarray(x.samples, dtype=np.float64)) * transfer
    return SampledSignal(samples=np.fft.irfft(spec, n=n), sample_rate=x.sample_rate)
