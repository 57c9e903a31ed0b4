"""Audio front end: resampling, bandpass, tiling, CWT and spectrogram tools.

The chain turns a raw stethoscope clip into a fixed-size log-magnitude
scalogram: resample to 4 kHz, cyclically tile to a fixed duration, bandpass
60-2000 Hz, continuous wavelet transform against one of three analytic
mother wavelets, dB compression, bilinear resize.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import signal

from .errors import FormatError, InvalidConfigError, InvalidInputError

LOG_EPS = 1e-10
FREQ_LO_HZ = 60.0
FREQ_HI_HZ = 2000.0
TARGET_RATE = 4000
EVENT_SECONDS = 10.0
RECORD_SECONDS = 30.0

CACHE_MAGIC = b"LSSG"
CACHE_VERSION = 1

# time support of the scaled wavelet, in units of the scale factor; a crude
# bound used only to reject absurd scale/signal-length combinations
SUPPORT_PER_SCALE = 12.0


@dataclass(frozen=True)
class AudioClip:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise InvalidInputError("clip must be a nonempty 1-d sample array")
        if not np.all(np.isfinite(samples)):
            raise InvalidInputError("clip contains non-finite samples")
        if self.sample_rate <= 0:
            raise InvalidInputError("sample_rate must be positive")

    @property
    def duration(self):
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class WaveletSpec:
    family: str = "bump"
    morse_gamma: float = 3.0
    morse_beta: float = 20.0
    amor_center_freq: float = 6.0
    bump_mu: float = 5.0
    bump_sigma: float = 0.6

    FAMILIES = ("morse", "amor", "bump")

    def __post_init__(self):
        object.__setattr__(self, "family", self.family.lower())
        if self.family not in self.FAMILIES:
            raise InvalidConfigError(f"unknown wavelet family {self.family!r}")
        if self.morse_gamma <= 0 or self.morse_beta <= 0:
            raise InvalidConfigError("morse parameters must be positive")
        if not 0 < self.bump_sigma < self.bump_mu:
            raise InvalidConfigError("bump requires 0 < sigma < mu")

    @property
    def peak_omega(self):
        """Angular frequency (rad/sample at scale 1) of max wavelet response."""
        if self.family == "morse":
            return (self.morse_beta / self.morse_gamma) ** (1.0 / self.morse_gamma)
        if self.family == "amor":
            return self.amor_center_freq
        return self.bump_mu

    def freq_response(self, omega):
        """Evaluate the analytic mother wavelet at angular frequencies
        `omega` (rad/sample, scale already applied). Peak value is 2."""
        omega = np.asarray(omega, dtype=np.float64)
        pos = omega > 0
        out = np.zeros_like(omega)
        if self.family == "morse":
            g, b = self.morse_gamma, self.morse_beta
            wp = self.peak_omega
            norm = 2.0 / (wp**b * np.exp(-(wp**g)))
            w = omega[pos]
            out[pos] = norm * w**b * np.exp(-(w**g))
        elif self.family == "amor":
            out[pos] = 2.0 * np.exp(-0.5 * (omega[pos] - self.amor_center_freq) ** 2)
        else:
            w = (omega - self.bump_mu) / self.bump_sigma
            inside = pos & (np.abs(w) < 1.0)
            with np.errstate(divide="ignore"):
                out[inside] = 2.0 * np.exp(1.0 - 1.0 / (1.0 - w[inside] ** 2))
        return out


@dataclass(frozen=True)
class ScaleGrid:
    scales: np.ndarray
    center_freqs: np.ndarray

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=np.float64)
        freqs = np.asarray(self.center_freqs, dtype=np.float64)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "center_freqs", freqs)
        if scales.size != freqs.size or scales.size == 0:
            raise InvalidConfigError("scales and center_freqs must align")
        if np.any(scales <= 0):
            raise InvalidConfigError("scales must be positive")
        if np.any(np.diff(scales) <= 0) or np.any(np.diff(freqs) >= 0):
            raise InvalidConfigError(
                "scales must increase and center frequencies decrease"
            )

    def __len__(self):
        return self.scales.size


def make_scale_grid(spec, n_bins, sample_rate,
                    f_lo=FREQ_LO_HZ, f_hi=FREQ_HI_HZ):
    """Log-spaced grid whose wavelet center frequencies span [f_lo, f_hi],
    highest frequency first (matches spectrogram row order)."""
    if n_bins < 1:
        raise InvalidConfigError("n_bins must be >= 1")
    if not 0 < f_lo < f_hi <= sample_rate / 2:
        raise InvalidConfigError("frequency span must sit below Nyquist")
    freqs = np.geomspace(f_hi, f_lo, n_bins)
    scales = spec.peak_omega * sample_rate / (2.0 * np.pi * freqs)
    return ScaleGrid(scales=scales, center_freqs=freqs)


@dataclass(frozen=True)
class Spectrogram:
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float32)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.size == 0:
            raise InvalidInputError("spectrogram must be a nonempty 2-d matrix")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("spectrogram contains non-finite values")

    @property
    def freq_bins(self):
        return self.values.shape[0]

    @property
    def time_frames(self):
        return self.values.shape[1]


# -- waveform operations -------------------------------------------------------


def resample(clip, target_rate):
    """Polyphase windowed-sinc resampling (Kaiser beta=8)."""
    if target_rate <= 0:
        raise InvalidInputError("target_rate must be positive")
    if target_rate == clip.sample_rate:
        return clip
    ratio = Fraction(int(target_rate), int(clip.sample_rate))
    out = signal.resample_poly(
        clip.samples, ratio.numerator, ratio.denominator, window=("kaiser", 8.0)
    )
    return AudioClip(samples=out, sample_rate=int(target_rate))


def bandpass(clip, lo=FREQ_LO_HZ, hi=FREQ_HI_HZ):
    """4th-order Butterworth bandpass (two biquads), forward pass only."""
    nyquist = clip.sample_rate / 2.0
    if not 0 < lo < hi:
        raise InvalidInputError("need 0 < lo < hi")
    if hi > nyquist:
        raise InvalidInputError(
            f"high cutoff {hi} Hz above Nyquist {nyquist} Hz"
        )
    # a cutoff exactly at Nyquist is legal input; design just inside the edge
    hi = min(hi, nyquist * (1.0 - 1e-6))
    sos = signal.butter(2, [lo, hi], btype="bandpass", fs=clip.sample_rate,
                        output="sos")
    return AudioClip(samples=signal.sosfilt(sos, clip.samples),
                     sample_rate=clip.sample_rate)


def tile_to_duration(clip, target_seconds):
    """Cyclically repeat (or truncate) the clip to an exact duration."""
    if target_seconds <= 0:
        raise InvalidInputError("target_seconds must be positive")
    n_out = int(round(target_seconds * clip.sample_rate))
    n_in = clip.samples.size
    if n_out == n_in:
        return clip
    reps = -(-n_out // n_in)
    out = np.tile(clip.samples, reps)[:n_out]
    return AudioClip(samples=out, sample_rate=clip.sample_rate)


# -- continuous wavelet transform ------------------------------------------------


def _pad_signal(x):
    """Symmetric reflection padding up to the next power of two >= 2N."""
    n = x.size
    padded_len = 1 << int(np.ceil(np.log2(2 * n)))
    left = (padded_len - n) // 2
    right = padded_len - n - left
    return np.pad(x, (left, right), mode="reflect"), left


def cwt(clip, spec, grid):
    """FFT-based CWT; row i is the cross-correlation of the signal with the
    conjugate wavelet at grid.scales[i]. Output is complex, len(grid)×N."""
    x = clip.samples
    if x.size < 2:
        raise InvalidInputError("cwt needs at least two samples")
    xp, left = _pad_signal(x)
    p = xp.size
    max_scale = float(np.max(grid.scales))
    if SUPPORT_PER_SCALE * max_scale > p:
        raise InvalidConfigError(
            f"scale {max_scale:.1f} has support beyond the padded signal ({p})"
        )
    omega = 2.0 * np.pi * np.fft.fftfreq(p)
    xf = np.fft.fft(xp)
    out = np.empty((len(grid), x.size), dtype=np.complex128)
    for i, s in enumerate(grid.scales):
        psi_hat = spec.freq_response(s * omega)
        row = np.fft.ifft(xf * np.conj(psi_hat))
        out[i] = row[left : left + x.size]
    return out


def log_magnitude(coeffs):
    """dB compression: 20·log10(|c| + 1e-10)."""
    coeffs = np.asarray(coeffs)
    if not np.all(np.isfinite(coeffs)):
        raise InvalidInputError("coefficients must be finite")
    return Spectrogram(values=20.0 * np.log10(np.abs(coeffs) + LOG_EPS))


def resize(spec, f_out, t_out):
    """Bilinear resize with corner alignment; exact copy at the native size."""
    if f_out < 2 or t_out < 2:
        raise InvalidInputError("resize targets must be >= 2")
    v = spec.values.astype(np.float64)
    v = _interp_axis(v, f_out, axis=0)
    v = _interp_axis(v, t_out, axis=1)
    return Spectrogram(values=v)


def _interp_axis(v, n_out, axis):
    n_in = v.shape[axis]
    if n_in == n_out:
        return v
    if n_in == 1:
        return np.repeat(v, n_out, axis=axis)
    pos = np.linspace(0.0, n_in - 1.0, n_out)
    i0 = np.minimum(pos.astype(int), n_in - 2)
    frac = pos - i0
    lo = np.take(v, i0, axis=axis)
    hi = np.take(v, i0 + 1, axis=axis)
    shape = [1, 1]
    shape[axis] = n_out
    frac = frac.reshape(shape)
    return lo * (1.0 - frac) + hi * frac


def extract_spectrogram(clip, wavelet, f_bins, t_frames,
                        target_seconds, target_rate=TARGET_RATE):
    """Full front-end chain for one clip."""
    clip = resample(clip, target_rate)
    clip = tile_to_duration(clip, target_seconds)
    clip = bandpass(clip, FREQ_LO_HZ, FREQ_HI_HZ)
    grid = make_scale_grid(wavelet, f_bins, clip.sample_rate)
    coeffs = cwt(clip, wavelet, grid)
    return resize(log_magnitude(coeffs), f_bins, t_frames)


# -- spectrogram cache ------------------------------------------------------------


def save_spectrogram(path, spec):
    header = CACHE_MAGIC + struct.pack(
        "<III", CACHE_VERSION, spec.freq_bins, spec.time_frames
    )
    payload = spec.values.astype("<f4").tobytes()
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(header + payload)
    os.replace(tmp, path)


def load_spectrogram(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != CACHE_MAGIC:
        raise FormatError(f"{path}: not a spectrogram cache file")
    version, f, t = struct.unpack("<III", blob[4:16])
    if version != CACHE_VERSION:
        raise FormatError(f"{path}: unsupported cache version {version}")
    if f == 0 or t == 0:
        raise FormatError(f"{path}: empty {f}x{t} spectrogram")
    if len(blob) != 16 + 4 * f * t:
        raise FormatError(f"{path}: truncated cache payload")
    values = np.frombuffer(blob[16:], dtype="<f4").reshape(f, t)
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: non-finite values in cache payload")
    return Spectrogram(values=values)
