"""Seeded synthesis of the noise-impaired repetition-rate carrier.

The carrier is a unit sine at the repetition rate, phase modulated by a
spectrally shaped Gaussian phase track.  Shaping happens in the
frequency domain (exact PSD targeting at O(n log n)); the same request
always produces bit-identical output.  The carrier covers exactly the
analysis window: over a whole number of carrier periods it is periodic
in the window, because the inverse-transformed phase track is periodic
in its own length.  Samples are stored in single precision to halve
memory; all intermediate math is double precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NoiseProfile, SampledSignal, SimGrid

__all__ = ["SynthesisRequest", "synth_phase_track", "synth_carrier", "default_noise_profile"]


@dataclass(frozen=True)
class SynthesisRequest:
    """What to synthesize: grid, noise profile (None for a pure tone), and seed."""

    grid: SimGrid
    noise: NoiseProfile | None = None
    seed: int = 0


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
    f = np.fft.rfftfreq(length, 1.0 / sample_rate)
    target = noise.psd(f)
    if np.any(target < 0):
        raise ValueError("noise profile is negative inside the synthesis band")
    # One-sided PSD S at bin j corresponds to E|X_j|^2 = S * Fs * n / 2
    # for interior bins of an unnormalized length-n rFFT.
    scale = np.sqrt(target * sample_rate * length / 2.0)
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(len(f)) + 1j * rng.standard_normal(len(f))
    coeff *= scale / np.sqrt(2.0)
    coeff[0] = 0.0
    if length % 2 == 0:
        # The Nyquist bin of a real signal is real and counted once.
        coeff[-1] = np.sqrt(2.0) * coeff[-1].real
    return np.fft.irfft(coeff, n=length)


def synth_carrier(request: SynthesisRequest) -> SampledSignal:
    """Synthesize the (optionally phase-noise-impaired) carrier.

    Returns ``sin(2*pi*f_r*n/Fs + phi[n])`` for the ``grid.n_samples``
    samples of the analysis window.
    """
    grid = request.grid
    length = grid.n_samples
    # In place: only the phase (8 B per sample) is live while the track is drawn.
    phase = np.arange(length, dtype=np.float64)
    phase *= 2.0 * np.pi * grid.f_r / grid.sample_rate
    if request.noise is not None:
        phase += synth_phase_track(request.noise, length, grid.sample_rate, request.seed)
    np.sin(phase, out=phase)
    return SampledSignal(samples=phase.astype(np.float32), sample_rate=grid.sample_rate)


def default_noise_profile(f_low: float = 1.0) -> NoiseProfile:
    """Default synthetic oscillator profile: white plus random-walk phase.

    S_phi(f) = 1e-11 + 1e-1/f^2 rad^2/Hz.  These are configuration
    defaults chosen to sit well above the numerical floor, not
    measurements of any physical source.
    """
    return NoiseProfile(terms=((0.0, 1e-11), (-2.0, 1e-1)), f_low=f_low)
