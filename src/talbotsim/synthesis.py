"""Seeded synthesis of the noise-impaired repetition-rate carrier.

The carrier is a unit sine at the repetition rate, phase modulated by a
spectrally shaped Gaussian phase track.  Shaping happens in the
frequency domain (exact PSD targeting at O(n log n)); the same request
always produces bit-identical output.  The carrier covers exactly the
analysis window: over a whole number of carrier periods it is periodic
in the window, because the inverse-transformed phase track is periodic
in its own length.  Samples are stored in single precision to halve
memory; all intermediate math is double precision.

A :class:`Workspace` holds the buffers that synthesizing a carrier and
taking its periodogram fill in place, so jobs that run one after
another on one window allocate nothing that grows with it.  A
workspace holds one noise profile, shaped once when it is made, and
serves that profile and the pure tone.  A caller that passes one owns
it for as long as it keeps it (the studies keep one per concurrent job
for one study call, or for one grid of the oversampling sweep) and gets
back arrays that the workspace's next job overwrites.  Called without
one, :func:`synth_carrier` builds a fresh workspace, so what it returns
belongs to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NoiseProfile, SampledSignal, SimGrid

__all__ = [
    "SynthesisRequest",
    "Workspace",
    "synth_phase_track",
    "synth_carrier",
    "default_noise_profile",
]

#: Samples of the carrier's phase ramp built at a time, so the ramp is
#: never a window-sized array.
_RAMP_CHUNK = 1 << 13


@dataclass(frozen=True)
class SynthesisRequest:
    """What to synthesize: grid, noise profile (None for a pure tone), and seed."""

    grid: SimGrid
    noise: NoiseProfile | None = None
    seed: int = 0


class Workspace:
    """Buffers for one carrier at a time on a window of ``length`` samples.

    With m = length // 2 + 1 rFFT bins, each workspace holds

    - ``spec``, complex128 on m bins: the normal draws, then the carrier's spectrum;
    - ``wave``, float64 on the window: the phase, then the float64 copy of the carrier;
    - ``half``, float64 on m bins: draw scratch, then the periodogram;
    - ``samples``, float32 on the window: the carrier.

    Every job writes a buffer in full before it reads it.  The bin
    frequencies ``freqs`` and the spectral ``scale`` of the workspace's
    one ``noise`` profile (None for a pure tone only) depend only on the
    window and the profile; they are read-only, and a workspace made
    ``like`` another shares them and its profile.  The scale is computed
    before the buffers are allocated, so its temporaries never sit on
    top of the buffers.  One workspace serves one job at a time.
    """

    def __init__(
        self, length: int, sample_rate: float, noise: NoiseProfile | None = None, like: Workspace | None = None
    ):
        if length < 2:
            raise ValueError(f"a workspace needs at least 2 samples, got {length}")
        self.length = length
        self.sample_rate = sample_rate
        if like is None:
            self.noise = noise
            self.freqs = np.fft.rfftfreq(length, 1.0 / sample_rate)
            self.freqs.flags.writeable = False
            self.scale = None if noise is None else _scale(noise, self.freqs, sample_rate, length)
        else:
            like.check(length, sample_rate, noise)
            self.noise, self.freqs, self.scale = like.noise, like.freqs, like.scale
        bins = len(self.freqs)
        self.spec = np.empty(bins, dtype=np.complex128)
        self.wave = np.empty(length, dtype=np.float64)
        self.half = np.empty(bins, dtype=np.float64)
        self.samples = np.empty(length, dtype=np.float32)

    def check(self, length: int, sample_rate: float, noise: NoiseProfile | None = None) -> None:
        """Raise ValueError unless this workspace is for ``length`` samples at
        ``sample_rate`` and ``noise`` is None or its own profile."""
        if (self.length, self.sample_rate) != (length, sample_rate):
            raise ValueError(
                f"workspace is for {self.length} samples at {self.sample_rate} Hz, "
                f"not {length} at {sample_rate} Hz"
            )
        if noise not in (None, self.noise):
            raise ValueError(f"workspace is for noise profile {self.noise}, not {noise}")


def _scale(noise: NoiseProfile, freqs: np.ndarray, sample_rate: float, length: int) -> np.ndarray:
    """Standard deviation of each part of a shaped coefficient: sqrt(S * Fs * n / 2) / sqrt(2)."""
    target = noise.psd(freqs)
    if np.any(target < 0):
        raise ValueError("noise profile is negative inside the synthesis band")
    # One-sided PSD S at bin j corresponds to E|X_j|^2 = S * Fs * n / 2
    # for interior bins of an unnormalized length-n rFFT.
    # In place, with the same operations in the same order as
    # sqrt(target * Fs * n / 2.0) / sqrt(2.0).
    scale = target
    scale *= sample_rate
    scale *= length
    scale /= 2.0
    np.sqrt(scale, out=scale)
    scale /= np.sqrt(2.0)
    scale.flags.writeable = False
    return scale


def _phase_track(ws: Workspace, seed: int) -> np.ndarray:
    """Draw the phase track of ``ws``'s profile and ``seed`` into ``ws.wave`` and return it."""
    rng = np.random.default_rng(seed)
    coeff = ws.spec
    coeff.real = rng.standard_normal(out=ws.half)
    coeff.imag = rng.standard_normal(out=ws.half)
    coeff *= ws.scale
    coeff[0] = 0.0
    if ws.length % 2 == 0:
        # The Nyquist bin of a real signal is real and counted once.
        coeff[-1] = np.sqrt(2.0) * coeff[-1].real
    return np.fft.irfft(coeff, n=ws.length, out=ws.wave)


def synth_phase_track(
    noise: NoiseProfile, length: int, sample_rate: float, seed: int
) -> np.ndarray:
    """Random phase samples (rad) with one-sided PSD matching ``noise``.

    Seeded unit-variance Gaussian spectral coefficients are scaled to
    the target density and inverse transformed; the DC bin is forced to
    zero.  Identical arguments give bit-identical output.
    """
    if length < 2:
        raise ValueError("phase track needs at least 2 samples")
    return _phase_track(Workspace(length, sample_rate, noise), seed)


def synth_carrier(request: SynthesisRequest, workspace: Workspace | None = None) -> SampledSignal:
    """Synthesize the (optionally phase-noise-impaired) carrier.

    Returns ``sin(2*pi*f_r*n/Fs + phi[n])`` for the ``grid.n_samples``
    samples of the analysis window.  With a ``workspace`` the samples
    are its ``samples`` buffer, valid until its next job.
    """
    grid = request.grid
    length = grid.n_samples
    ws = workspace
    if ws is None:
        ws = Workspace(length, grid.sample_rate, request.noise)
    else:
        ws.check(length, grid.sample_rate, request.noise)
    if request.noise is None:
        phase = ws.wave
    else:
        phase = _phase_track(ws, request.seed)
    step = 2.0 * np.pi * grid.f_r / grid.sample_rate
    for start in range(0, length, _RAMP_CHUNK):
        stop = min(start + _RAMP_CHUNK, length)
        ramp = np.arange(start, stop, dtype=np.float64)
        ramp *= step
        if request.noise is None:
            phase[start:stop] = ramp
        else:
            phase[start:stop] += ramp
    np.sin(phase, out=phase)
    np.copyto(ws.samples, phase, casting="same_kind")
    # A view, so the workspace's own buffer stays writable for its next job.
    return SampledSignal(samples=ws.samples[:], sample_rate=grid.sample_rate)


def default_noise_profile(f_low: float = 1.0) -> NoiseProfile:
    """Default synthetic oscillator profile: white plus random-walk phase.

    S_phi(f) = 1e-11 + 1e-1/f^2 rad^2/Hz.  These are configuration
    defaults chosen to sit well above the numerical floor, not
    measurements of any physical source.
    """
    return NoiseProfile(terms=((0.0, 1e-11), (-2.0, 1e-1)), f_low=f_low)
