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
counts, and forms no window-sized array.  It takes that histogram,
:class:`Lags`, from :func:`lag_histogram`, which sorts the plan's
offsets mod n once; a caller that reads many plans histograms each
distinct one once.  Two plans whose offsets mod n are one multiset have
one histogram, and so bit-equal |H|^2.  It sums many histograms in one
pass: each plan's offsets are cut into the chunks it is summed in alone,
and the chunks of all the plans are packed into tiles, so each tile's
twiddles, steps and weights are formed once, and each plan's |H|^2 has
the bits of that plan summed alone.  Only the offsets that hold more
than one line are weighted, since a weight of 1 multiplies exactly.  The
phase index (j d) mod n is exact in integers: j d - (j d // n) n, where
dividing by the one scalar n is cheaper than a remainder.  Bins come in
runs of consecutive bins: each run takes one twiddle per offset from two
tables of about sqrt(n) entries and steps along the run by multiplying
by exp(-2 pi i d / n), so no transcendental function is evaluated per
bin.  The pass works in one :class:`Scratch`: the two tables, and three
arrays of at most ``_TILE`` entries, 40 bytes per entry in all, and on a
window of 6 samples or more at most n/3 entries, so at most about 13.4
bytes per window sample; :func:`scratch_bytes` states it for the budget
guard.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .dispersion import DelayPlan
from .model import SampledSignal

__all__ = ["Lags", "Scratch", "lag_histogram", "power_at_bins", "scratch", "scratch_bytes", "superpose"]

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


def scratch_bytes(n: int) -> int:
    """Bytes of a :class:`Scratch` on a window of ``n`` samples: its
    three scratch arrays, two complex and one int64, and its two complex
    twiddle tables."""
    shift, high = _twiddle_split(n)
    complex_size, int_size = np.dtype(np.complex128).itemsize, np.dtype(np.int64).itemsize
    return (2 * complex_size + int_size) * _scratch_length(n) + complex_size * ((1 << shift) + high)


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


def scratch(n: int) -> Scratch:
    """A :class:`Scratch` on a window of ``n`` samples."""
    shift, high = _twiddle_split(n)
    lo = np.exp(-2j * np.pi / n * np.arange(1 << shift))
    hi = np.exp(-2j * np.pi / n * (np.arange(high) << shift))
    size = _scratch_length(n)
    return Scratch(n, lo, hi, np.empty(size, np.complex128), np.empty(size, np.complex128), np.empty(size, np.int64))


class Lags(NamedTuple):
    """A delay plan's offsets mod ``n`` as a histogram, what
    :func:`power_at_bins` sums over: the plan's ``lines`` K, its distinct
    offsets mod n, ``values``, ascending, and the few that hold more than
    one line: ``repeats``, their indices into ``values``, ascending, and
    ``counts``, their lines.  Both are int32 up to 2^31 values, so a
    histogram holds at most 8 bytes per line, as its plan does."""

    n: int
    lines: int
    values: np.ndarray
    repeats: np.ndarray
    counts: np.ndarray


def lag_histogram(plan: DelayPlan) -> Lags:
    """The :class:`Lags` of ``plan``, from one sort of its offsets mod n.

    The sort is stable: a plan's offsets run monotone along its lines,
    and a stable sort merges such runs in near-linear time.
    """
    n, lines = plan.grid.n_samples, len(plan)
    values = _wrap(plan.offsets.copy(), n, np.empty(lines, np.int64))
    values.sort(kind="stable")
    first = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    index = np.int32 if len(first) <= np.iinfo(np.int32).max else np.int64
    if len(first) == lines:
        return Lags(n, lines, values, np.empty(0, index), np.empty(0, index))
    counts = np.diff(first, append=lines)
    repeats = np.flatnonzero(counts > 1)
    return Lags(n, lines, values[first], repeats.astype(index), counts[repeats].astype(index))


def _wrap(index: np.ndarray, n: int, quotient: np.ndarray) -> np.ndarray:
    """``index`` mod ``n`` in place, for 0 <= index < 2^63: index - (index
    // n) n, exact in int64, the quotient formed in ``quotient`` (int64, of
    index's shape).  numpy divides by one scalar with a multiply and a
    shift, cheaper than its remainder."""
    np.floor_divide(index, n, out=quotient)
    quotient *= n
    index -= quotient
    return index


def power_at_bins(plans, bins, work: Scratch | None = None) -> np.ndarray:
    """|H|^2 of each of ``plans`` on the rFFT bins ``bins`` of their window,
    plans x bins; of a single plan, its row alone.

    Each plan is a delay plan or its :class:`Lags`, which a caller that
    holds it hands in so the offsets are not sorted again; all are on
    one window.  ``bins`` ascend strictly within 0 .. n/2.  Multiplying
    a carrier's periodogram on those bins by a plan's row gives the
    periodogram of the carrier after the plan; lines that share an
    offset mod n add up in amplitude.  H is summed over the distinct
    offsets u mod n, weighted by their counts c(u):

        H[j] = (1/K) * sum_u c(u) * exp(-2 pi i ((j u) mod n) / n).

    exp(-2 pi i p / n) is hi[p >> s] * lo[p & (2^s - 1)], from two tables
    of about sqrt(n) entries.  Each run of consecutive bins of ``bins``,
    up to ``_RUN`` long, takes that twiddle at its first bin and
    multiplies by exp(-2 pi i u / n) for each next bin, so a bin's bits
    depend on where its run starts in ``bins``.  A plan whose offsets are
    all 0 mod n has |H|^2 exactly 1.

    The sums run in ``work``, a :class:`Scratch` on the plans' window,
    or in one made here.  Its arrays are :func:`_scratch_length` entries
    long: that length fixes the chunks each plan's offsets are summed
    in, and so their bits.  The chunks of all the plans are packed, in
    order, into tiles no longer than the longest chunk (:func:`_tiles`),
    and the twiddles, steps and weights of a tile are formed at once: a
    plan's row is the same whatever plans it is summed with.
    """
    one = isinstance(plans, (DelayPlan, Lags))
    lags = [p if isinstance(p, Lags) else lag_histogram(p) for p in ([plans] if one else plans)]
    if not lags:
        raise ValueError("power_at_bins needs at least one plan")
    n = lags[0].n
    if any(other.n != n for other in lags):
        raise ValueError(f"plans on windows of {sorted({other.n for other in lags})} samples")
    if (n // 2) * (n - 1) >= 1 << 63:
        raise ValueError(f"a window of {n} samples overflows the exact int64 phase index")
    bins = np.asarray(bins, dtype=np.int64)
    if bins.ndim != 1 or np.any(np.diff(bins) <= 0) or (len(bins) and not 0 <= bins[0] <= bins[-1] <= n // 2):
        raise ValueError(f"bins must ascend strictly within 0 .. {n // 2}")

    # Runs of consecutive bins, cut every _RUN bins, longest first: the
    # runs still being stepped are then always a leading block.  What is
    # spent is freed at once: the budget guard counts the pass per bin.
    index = np.arange(len(bins))
    run_start = np.maximum.accumulate(np.where(np.diff(bins, prepend=-2) != 1, index, 0))
    firsts = np.flatnonzero((index - run_start) % _RUN == 0)
    del index, run_start
    lengths = np.diff(firsts, append=len(bins))
    order = np.argsort(-lengths, kind="stable")
    firsts, lengths = firsts[order], lengths[order]
    del order

    work = scratch(n) if work is None else work
    if work.n != n:
        raise ValueError(f"scratch of a {work.n}-sample window for a window of {n}")
    _, lo, hi, cur_buf, tmp_buf, idx_buf = work
    shift, size = _twiddle_split(n)[0], len(cur_buf)
    group = max(1, min(len(firsts), size // 64))  # runs at a time, and one row of steps
    chunk = size // (group + 1)  # distinct offsets of a plan at a time
    total = np.empty((len(lags), len(bins)), np.complex128)
    for g in range(0, len(firsts), group):
        first, length = firsts[g : g + group], lengths[g : g + group]
        rows, starts = len(first), bins[first][:, None]
        # Runs still stepping at step k: those longer than k, whose sums
        # are held from stepped[k], one per bin of the group.
        active = [int(np.count_nonzero(length > k)) for k in range(int(length[0]))]
        stepped = list(accumulate(active, initial=0))
        sums = np.zeros((len(lags), stepped[-1]), np.complex128)  # plan p, step k of run r at stepped[k] + r
        for segments, at, weights in _tiles(lags, chunk):
            width = (rows + 1) * segments[-1][3]
            idx = idx_buf[:width].reshape(rows + 1, -1)
            u = idx[rows]
            for p, c, s, e in segments:
                u[s:e] = lags[p].values[c : c + e - s]
            # int64 views of cur, each spent before cur is written.
            low = cur_buf[:width].view(np.int64)[:width].reshape(rows + 1, -1)
            np.multiply(starts, u, out=idx[:rows])
            _wrap(idx[:rows], n, low[:rows])
            cur = cur_buf[:width].reshape(rows + 1, -1)
            tmp = tmp_buf[:width].reshape(rows + 1, -1)
            np.take(lo, np.bitwise_and(idx, (1 << shift) - 1, out=low), out=tmp, mode="clip")
            np.take(hi, np.right_shift(idx, shift, out=idx), out=cur, mode="clip")
            cur *= tmp
            step = cur[rows]
            # Weight the offsets of more than one line; each other weight
            # is 1, exact.  tmp, spent, holds their columns meanwhile.
            if len(at):
                held = tmp_buf[: rows * len(at)].reshape(rows, len(at))
                np.take(cur[:rows], at, axis=1, out=held, mode="clip")
                held *= weights
                cur[:rows, at] = held
            for k, live in enumerate(active):
                for p, _, s, e in segments:
                    sums[p, stepped[k] : stepped[k] + live] += cur[:live, s:e].sum(axis=1)
                if k + 1 < len(active):
                    cur[: active[k + 1]] *= step
        for k, live in enumerate(active):
            total[:, first[:live] + k] = sums[:, stepped[k] : stepped[k] + live]
    del firsts, lengths
    for h, plan in zip(total, lags):
        np.divide(h, plan.lines, out=h)
    power = np.square(total.real)
    power += np.square(total.imag, out=total.imag)
    return power[0] if one else power


def _tiles(lags: list[Lags], chunk: int):
    """The passes of :func:`power_at_bins` over ``lags``' distinct
    offsets, one at a time: each plan's cut every ``chunk`` values, as a
    plan's sums run on its own, and the pieces packed in order into tiles
    no longer than the longest piece, so a tile takes no more scratch than
    that piece summed alone.  Each tile is its pieces, (plan, first value,
    start, end in the tile), and the places in the tile of the offsets of
    more than one line, with their counts."""
    longest = min(chunk, max(len(plan.values) for plan in lags))
    segments, at, weights, filled = [], [], [], 0
    for p, plan in enumerate(lags):
        for c in range(0, len(plan.values), chunk):
            piece = min(chunk, len(plan.values) - c)
            if filled + piece > longest:
                yield segments, np.concatenate(at), np.concatenate(weights)
                segments, at, weights, filled = [], [], [], 0
            segments.append((p, c, filled, filled + piece))
            a, b = np.searchsorted(plan.repeats, (c, c + piece))
            at.append(plan.repeats[a:b] - c + filled)
            weights.append(plan.counts[a:b])
            filled += piece
    yield segments, np.concatenate(at), np.concatenate(weights)


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
