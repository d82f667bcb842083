"""Delay-and-sum photodetection model on a periodic window.

The detected signal is the sum of one integer-delayed copy of the
carrier per comb line, scaled by 1/K so a perfectly aligned pure tone
keeps unit amplitude.  The analysis window holds a whole number of
carrier periods and the synthesized phase track is periodic in the
window, so the carrier is periodic in it: delaying it by d samples is a
circular shift by ``d mod n_samples``.  The whole plan is then one
transfer function on the window's rFFT bins,

    H[j] = (1/K) * sum_k exp(-2 pi i j d_k / n),

the rFFT of the 1/K impulse train placed at the offsets mod n.  On
every analysis bin the detected spectrum is X*H exactly: no padding, no
transform longer than the window, and the detected periodogram is the
carrier's times |H|^2.

H is periodic in the bin index.  When every offset mod n is a multiple
of g = gcd(n, offsets mod n) samples, H[j + n/g] = H[j], so one period
of n/g bins holds all of it.  The Talbot delays are whole numbers of
carrier periods T/m, so an ideal plan's H repeats every m * f_r.
:func:`power_transfer` transforms that one period and tiles it; a plan
with g = 1 gets the window's own transform.

In a :class:`~talbotsim.synthesis.Workspace`, a plan job takes the two
buffers a carrier job uses: the kernel and then |H|^2 go to the
``wave`` buffer, H to ``spec``.  A carrier synthesized in that
workspace does not survive it; the studies keep each carrier's
periodogram and multiply it by |H|^2 in the spent ``spec``.
"""

from __future__ import annotations

import numpy as np

from .dispersion import DelayPlan
from .model import SampledSignal
from .synthesis import Workspace

__all__ = ["power_transfer", "superpose"]


def _kernel(lags: np.ndarray, count: int, out: np.ndarray) -> np.ndarray:
    """The 1/``count`` impulse train at sample indices ``lags``, written into ``out``."""
    out.fill(0.0)
    # Whole-number counts, exact in float64: the same values as np.bincount's.
    np.add.at(out, lags, 1.0)
    out /= count
    return out


def power_transfer(plan: DelayPlan, workspace: Workspace | None = None) -> np.ndarray:
    """|H|^2 of ``plan`` on the rFFT bins of its grid's window.

    Multiplying a carrier's periodogram by it gives the periodogram of
    the carrier after the plan; lines that share an offset mod n add up
    in amplitude.  Every offset mod n is a multiple of g = gcd(n,
    offsets mod n), so H repeats every L = n/g bins: the kernel is laid
    out on one period of L samples, at the offsets mod n divided by g,
    and its L-point rFFT gives bins 0..L/2.  |H|^2 is even, which fills
    the rest of the period, and the period is tiled over the window's
    n/2 + 1 bins.  With g = 1 that is the n-point transform of the
    kernel at the offsets mod n.

    With a ``workspace`` for the plan's window the kernel goes to the
    first L samples of its ``wave``, H to its ``spec``, and then |H|^2
    to the first n/2 + 1 samples of ``wave``, over the spent kernel;
    that view is returned and is valid until the workspace's next job,
    and ``spec`` is then free for the caller.  Without one, the result
    is the caller's.  Either way the bits are the same.
    """
    grid = plan.grid
    n = grid.n_samples
    lags = plan.offsets % n
    g = int(np.gcd.reduce(lags, initial=n))
    period = n // g
    bins = period // 2 + 1
    if workspace is None:
        kernel, spec, power = np.empty(period), np.empty(bins, dtype=np.complex128), np.empty(n // 2 + 1)
    else:
        workspace.check(n, grid.sample_rate)
        kernel, spec, power = workspace.wave[:period], workspace.spec[:bins], workspace.wave[: n // 2 + 1]
    h = np.fft.rfft(_kernel(lags // g, len(plan), kernel), out=spec)
    # The kernel is spent: in a workspace, |H|^2 goes over it.
    np.square(h.real, out=power[:bins])
    power[:bins] += np.square(h.imag, out=h.imag)
    # Bins L/2+1 .. L-1 mirror bins (L-1)/2 .. 1.  For g = 1 the
    # window ends first and there is nothing to mirror.
    mirror = power[bins:period]
    mirror[:] = power[mirror.size : 0 : -1]
    # Tile the period: the first ``done`` bins are whole periods.
    done = period
    while done < power.size:
        tile = power[done : 2 * done]
        tile[:] = power[: tile.size]
        done += tile.size
    return power


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
