"""Seeded synthesis of the noise-impaired repetition-rate carrier.

The carrier is a unit sine at the repetition rate, phase modulated by a
spectrally shaped Gaussian phase track.  Shaping happens in the
frequency domain (exact PSD targeting at O(n log n)); the same request
always produces bit-identical output.  The carrier covers exactly the
analysis window: over a whole number of carrier periods it is periodic
in the window, because the inverse-transformed phase track is periodic
in its own length.  Samples are rounded to single precision, as a
float32 carrier would hold them; all intermediate math is double
precision.

:func:`synth_envelope` draws the same carrier as its complex envelope
``exp(i phi[n])``, the lowpass-equivalent signal of communication-system
simulation (Jeruchim, Balaban and Shanmugan, *Simulation of
Communication Systems*, 2nd ed., 2000), on a window of its own: the
same bin spacing, and only as many bins as the offsets read need
(:func:`envelope_length`).  Envelope bin k stands for the passband bin
k away from the carrier.  It has no negative-frequency image and is not
rounded to single precision, so it carries neither the image term nor
the float32 floor of the real carrier; the comb-width sweep reads it.

A :class:`Workspace` holds the two buffers that synthesizing a carrier,
or an envelope, and taking its periodogram fill in place, so jobs that
run one after another on one window allocate nothing that grows with
it.  A workspace holds one noise profile, shaped once when it is made,
and serves that profile and, on the passband window, the pure tone.  A caller that passes one owns
it for as long as it keeps it (the studies keep one per concurrent
carrier job while they synthesize one grid's carriers) and gets
back arrays that the workspace's next step overwrites: a carrier's
samples are valid only until its periodogram is taken.  Called without
one, :func:`synth_carrier` builds a fresh workspace and returns a
float32 copy of the samples, which belongs to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NoiseProfile, SampledSignal, SimGrid, bin_spacing

__all__ = [
    "SynthesisRequest",
    "Workspace",
    "synth_carrier",
    "envelope_length",
    "synth_envelope",
    "default_noise_profile",
]

#: Samples of the carrier, or bins of the noise shaping, computed at a
#: time, so their temporaries are never window-sized.
_RAMP_CHUNK = 1 << 13


@dataclass(frozen=True)
class SynthesisRequest:
    """What to synthesize: grid, noise profile (None for a pure tone), and seed."""

    grid: SimGrid
    noise: NoiseProfile | None = None
    seed: int = 0


class Workspace:
    """Buffers for one carrier at a time on a window of ``length`` samples.

    With m = length // 2 + 1 rFFT bins, each workspace holds two buffers,
    16 bytes per window sample in all:

    - ``spec``, complex128 on m bins: the shaped coefficients, then the
      carrier's spectrum;
    - ``wave``, float64 on the window: draw scratch on its first m
      samples, the phase, then the carrier, rounded to single precision;
      its first m samples then hold the periodogram.

    An ``envelope`` workspace serves :func:`synth_envelope` instead, 24
    bytes per window sample: its ``spec`` covers the whole window, the
    coefficients on its first m entries, then the complex envelope and
    its spectrum; ``wave`` holds the draws, the phase and then the
    periodogram on every bin.

    Every step writes what it reads first, and each one overwrites what
    the step before left, so a carrier's samples are valid only until
    its periodogram is taken.  The spectral ``scale`` of the workspace's one ``noise`` profile (None for a pure
    tone only) depends only on the window and the profile; it is
    read-only, and a workspace made ``like`` another shares it and its
    profile.  The scale is computed before the buffers are allocated, so
    its temporaries never sit on top of the buffers.  One workspace
    serves one job at a time.
    """

    def __init__(
        self,
        length: int,
        sample_rate: float,
        noise: NoiseProfile | None = None,
        like: Workspace | None = None,
        envelope: bool = False,
    ):
        if length < 2:
            raise ValueError(f"a workspace needs at least 2 samples, got {length}")
        self.length = length
        self.sample_rate = sample_rate
        if like is None:
            self.noise = noise
            self.scale = None if noise is None else _scale(noise, length, sample_rate)
        else:
            like.check(length, sample_rate, noise)
            self.noise, self.scale = like.noise, like.scale
        self.envelope = envelope
        self.spec = np.empty(length if envelope else length // 2 + 1, dtype=np.complex128)
        self.wave = np.empty(length, dtype=np.float64)

    @staticmethod
    def nbytes(length: int, envelope: bool = False, count: int = 1) -> int:
        """Bytes of ``count`` workspaces on a window of ``length`` samples,
        ``envelope`` ones or not, and of the scale they share (none
        without a workspace): the layouts above."""
        bins = length // 2 + 1
        spec = np.dtype(np.complex128).itemsize * (length if envelope else bins)
        real = np.dtype(np.float64).itemsize
        return count * (spec + real * length) + (real * bins if count else 0)

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


def _scale(noise: NoiseProfile, length: int, sample_rate: float) -> np.ndarray:
    """Standard deviation of each part of a shaped coefficient on the rFFT
    bins of ``length`` samples: sqrt(S * Fs * n / 2) / sqrt(2).

    The density is evaluated ``_RAMP_CHUNK`` bins at a time, so the only
    array the size of the bins is the result.  Raises ValueError when
    the profile is negative on a bin, or when the scale overflows or is
    not a number.
    """
    df = bin_spacing(length, sample_rate)
    scale = np.empty(length // 2 + 1)
    # An overflow is reported below as an error, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(scale), _RAMP_CHUNK):
            chunk = scale[start : start + _RAMP_CHUNK]
            bins = np.arange(start, start + len(chunk), dtype=np.float64)
            bins *= df
            chunk[:] = noise.psd(bins)
            if np.any(chunk < 0):
                raise ValueError(f"noise profile is negative on the {length}-sample window at {sample_rate} Hz")
            # One-sided PSD S at bin j corresponds to E|X_j|^2 = S * Fs * n / 2
            # for interior bins of an unnormalized length-n rFFT.
            # In place, with the same operations in the same order as
            # sqrt(S * Fs * n / 2.0) / sqrt(2.0).
            chunk *= sample_rate
            chunk *= length
            chunk /= 2.0
            np.sqrt(chunk, out=chunk)
            chunk /= np.sqrt(2.0)
            if not np.all(np.isfinite(chunk)):
                raise ValueError(f"noise profile overflows on the {length}-sample window at {sample_rate} Hz")
    scale.flags.writeable = False
    return scale


def _phase_track(ws: Workspace, seed: int) -> np.ndarray:
    """Draw the phase track of ``ws``'s profile and ``seed`` into ``ws.wave`` and return it."""
    rng = np.random.default_rng(seed)
    coeff = ws.spec[: ws.length // 2 + 1]
    draws = ws.wave[: len(coeff)]
    coeff.real = rng.standard_normal(out=draws)
    coeff.imag = rng.standard_normal(out=draws)
    coeff *= ws.scale
    coeff[0] = 0.0
    if ws.length % 2 == 0:
        # The Nyquist bin of a real signal is real and counted once.
        coeff[-1] = np.sqrt(2.0) * coeff[-1].real
    return np.fft.irfft(coeff, n=ws.length, out=ws.wave)


def synth_carrier(request: SynthesisRequest, workspace: Workspace | None = None) -> SampledSignal:
    """Synthesize the (optionally phase-noise-impaired) carrier.

    Returns ``sin(2*pi*f_r*n/Fs + phi[n])``, rounded to single precision,
    for the ``grid.n_samples`` samples of the analysis window.  With a
    ``workspace`` the samples are its ``wave`` buffer, in float64, valid
    until its periodogram is taken; without one they are float32.
    """
    grid = request.grid
    length = grid.n_samples
    ws = workspace
    if ws is None:
        ws = Workspace(length, grid.sample_rate, request.noise)
    else:
        ws.check(length, grid.sample_rate, request.noise)
    wave = ws.wave if request.noise is None else _phase_track(ws, request.seed)
    step = 2.0 * np.pi * grid.f_r / grid.sample_rate
    rounded = np.empty(min(_RAMP_CHUNK, length), dtype=np.float32)
    for start in range(0, length, _RAMP_CHUNK):
        chunk = wave[start : start + _RAMP_CHUNK]
        ramp = np.arange(start, start + len(chunk), dtype=np.float64)
        ramp *= step
        if request.noise is None:
            chunk[:] = ramp
        else:
            chunk += ramp
        np.sin(chunk, out=chunk)
        # Through float32 and back: the values a float32 carrier holds.
        single = rounded[: len(chunk)]
        np.copyto(single, chunk, casting="same_kind")
        np.copyto(chunk, single)
    # In a workspace, a view, so its own buffer stays writable for its next job.
    samples = wave[:] if workspace is not None else wave.astype(np.float32)
    return SampledSignal(samples=samples, sample_rate=grid.sample_rate)


def envelope_length(span: int) -> int:
    """Samples of an envelope window whose bins -``span`` .. ``span`` are read.

    The smallest 5-smooth length of at least 4 ``span``: the read bins
    stay in the lower half of the envelope's band, below its Nyquist bin
    by a margin as wide as themselves, into which the envelope's spectrum
    beyond the window folds.  On the default profile that fold is below
    0.002 dB at every read bin, margin or none (the exact expected
    periodogram on the window); the margin bounds it for stronger noise.
    """
    length = max(4 * span, 2)
    while True:
        rest = length
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return length
        length += 1


def synth_envelope(noise: NoiseProfile, seed: int, workspace: Workspace) -> np.ndarray:
    """The complex envelope ``exp(i*phi[n])`` of the carrier, in ``workspace``.

    ``phi`` is the phase track of ``noise`` and ``seed``, shaped on the
    workspace's own window, which must be an ``envelope`` workspace for
    that profile.  Returns its ``spec`` buffer, valid until its
    periodogram is taken.
    """
    ws = workspace
    if noise is None or not ws.envelope:
        raise ValueError("an envelope is drawn for a noise profile, in an envelope workspace")
    ws.check(ws.length, ws.sample_rate, noise)
    phase = _phase_track(ws, seed)
    np.cos(phase, out=ws.spec.real)
    np.sin(phase, out=ws.spec.imag)
    return ws.spec


def default_noise_profile(f_low: float = 1.0) -> NoiseProfile:
    """Default synthetic oscillator profile: white plus random-walk phase.

    S_phi(f) = 1e-11 + 1e-1/f^2 rad^2/Hz.  These are configuration
    defaults chosen to sit well above the numerical floor, not
    measurements of any physical source.
    """
    return NoiseProfile(terms=((0.0, 1e-11), (-2.0, 1e-1)), f_low=f_low)
