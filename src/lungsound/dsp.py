"""Audio front end: resampling, bandpass, tiling, CWT and spectrogram tools.

The chain turns a raw stethoscope clip into a fixed-size log-magnitude
scalogram: resample to 4 kHz, cyclically tile to a fixed duration, bandpass
60-2000 Hz, continuous wavelet transform against one of three analytic
mother wavelets, dB compression, bilinear resize.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import FormatError, InvalidConfigError, InvalidInputError

# scipy is imported inside resample, bandpass and cwt, its only users here:
# loading scipy.signal and scipy.fft takes ~0.85 s and ~75 MB, which a
# process that trains, scores or reports on cached spectrograms never needs

LOG_EPS = 1e-10
FREQ_LO_HZ = 60.0
FREQ_HI_HZ = 2000.0
TARGET_RATE = 4000
EVENT_SECONDS = 10.0
RECORD_SECONDS = 30.0

# mother-wavelet shape parameters. A cache file's name records only the
# family, so a change to any of these must bump CACHE_VERSION
MORSE_GAMMA = 3.0
MORSE_BETA = 20.0
AMOR_CENTER_FREQ = 6.0
BUMP_MU = 5.0
BUMP_SIGMA = 0.6

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

    FAMILIES = ("morse", "amor", "bump")

    def __post_init__(self):
        object.__setattr__(self, "family", self.family.lower())
        if self.family not in self.FAMILIES:
            raise InvalidConfigError(f"unknown wavelet family {self.family!r}")

    @property
    def peak_omega(self):
        """Angular frequency (rad/sample at scale 1) of max wavelet response."""
        if self.family == "morse":
            return (MORSE_BETA / MORSE_GAMMA) ** (1.0 / MORSE_GAMMA)
        if self.family == "amor":
            return AMOR_CENTER_FREQ
        return BUMP_MU

    def freq_response(self, omega):
        """Evaluate the analytic mother wavelet at angular frequencies
        `omega` (rad/sample, scale already applied). Peak value is 2."""
        omega = np.asarray(omega, dtype=np.float64)
        pos = omega > 0
        out = np.zeros_like(omega)
        if self.family == "morse":
            g, b = MORSE_GAMMA, MORSE_BETA
            wp = self.peak_omega
            norm = 2.0 / (wp**b * np.exp(-(wp**g)))
            w = omega[pos]
            out[pos] = norm * w**b * np.exp(-(w**g))
        elif self.family == "amor":
            out[pos] = 2.0 * np.exp(-0.5 * (omega[pos] - AMOR_CENTER_FREQ) ** 2)
        else:
            w = (omega - BUMP_MU) / BUMP_SIGMA
            inside = pos & (np.abs(w) < 1.0)
            with np.errstate(divide="ignore"):
                out[inside] = 2.0 * np.exp(1.0 - 1.0 / (1.0 - w[inside] ** 2))
        return out


def make_scale_grid(spec, n_bins, sample_rate,
                    f_lo=FREQ_LO_HZ, f_hi=FREQ_HI_HZ):
    """Increasing scales whose wavelet center frequencies are log-spaced
    over [f_lo, f_hi], highest frequency first (matches spectrogram row
    order)."""
    if n_bins < 1:
        raise InvalidConfigError("n_bins must be >= 1")
    if not 0 < f_lo < f_hi <= sample_rate / 2:
        raise InvalidConfigError("frequency span must sit below Nyquist")
    freqs = np.geomspace(f_hi, f_lo, n_bins)
    return spec.peak_omega * sample_rate / (2.0 * np.pi * freqs)


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
    from scipy import signal

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
    from scipy import signal

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


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_FFT_WORKERS = _usable_cpus()
# rows per batched inverse FFT; bounds the complex work buffer to
# 16 x P x 16 B (67 MB at record level) instead of F x P
_IFFT_ROWS = 16


# two banks: one wavelet at event and record level. A Morse or Amor bank
# holds ~100 MB at record level (bump: ~10 MB)
@functools.lru_cache(maxsize=2)
def _filter_bank(spec, scales, p):
    """Per-scale wavelet responses over the P FFT bins, each kept only over
    its nonzero support as (lo, hi, response[lo:hi]). `scales` is the scale
    array's bytes, so the key is hashable; every clip of a level has one
    padded length, so one bank serves them all."""
    omega = 2.0 * np.pi * np.fft.fftfreq(p)
    bank = []
    for s in np.frombuffer(scales, dtype=np.float64):
        response = spec.freq_response(s * omega)
        support = np.flatnonzero(response)
        lo, hi = (support[0], support[-1] + 1) if support.size else (0, 0)
        response = response[lo:hi].copy()
        response.flags.writeable = False  # shared by every cached caller
        bank.append((lo, hi, response))
    return tuple(bank)


def cwt(clip, spec, scales, columns=None):
    """FFT-based CWT; row i is the cross-correlation of the signal with the
    conjugate wavelet at scales[i]. Output is complex, len(scales)×N, or
    len(scales)×len(columns) holding only those sample columns."""
    import scipy.fft

    x = clip.samples
    if x.size < 2:
        raise InvalidInputError("cwt needs at least two samples")
    scales = np.asarray(scales, dtype=np.float64)
    xp, left = _pad_signal(x)
    p = xp.size
    max_scale = float(np.max(scales))
    if SUPPORT_PER_SCALE * max_scale > p:
        raise InvalidConfigError(
            f"scale {max_scale:.1f} has support beyond the padded signal ({p})"
        )
    if columns is None:
        keep = slice(left, left + x.size)
        n_keep = x.size
    else:
        columns = np.asarray(columns, dtype=np.intp)
        if columns.ndim != 1 or np.any((columns < 0) | (columns >= x.size)):
            raise InvalidInputError("columns must index the signal's samples")
        keep = left + columns
        n_keep = columns.size
    xf = np.fft.fft(xp)
    bank = _filter_bank(spec, scales.tobytes(), p)
    out = np.empty((scales.size, n_keep), dtype=np.complex128)
    for start in range(0, len(bank), _IFFT_ROWS):
        rows = bank[start : start + _IFFT_ROWS]
        # the responses are real: over each support this is
        # xf * conj(psi_hat) bit for bit, and outside it both are zero
        prod = np.zeros((len(rows), p), dtype=np.complex128)
        for k, (lo, hi, response) in enumerate(rows):
            np.multiply(xf[lo:hi], response, out=prod[k, lo:hi])
        prod = scipy.fft.ifft(prod, axis=1, overwrite_x=True,
                              workers=_FFT_WORKERS)
        out[start : start + len(rows)] = prod[:, keep]
    return out


def log_magnitude(coeffs):
    """dB compression: 20·log10(|c| + 1e-10)."""
    coeffs = np.asarray(coeffs)
    if not np.all(np.isfinite(coeffs)):
        raise InvalidInputError("coefficients must be finite")
    return Spectrogram(values=20.0 * np.log10(np.abs(coeffs) + LOG_EPS))


def resize(spec, f_out, t_out, native_frames=None):
    """Bilinear resize with corner alignment; exact copy at the native size.

    With `native_frames`, `spec` holds only the columns
    `resize_columns(native_frames, t_out)` of a scalogram that many frames
    wide, which are all the time axis reads."""
    if f_out < 2 or t_out < 2:
        raise InvalidInputError("resize targets must be >= 2")
    v = spec.values.astype(np.float64)
    v = _interp_axis(v, f_out, axis=0)
    v = _interp_axis(v, t_out, axis=1, n_in=native_frames)
    return Spectrogram(values=v)


def resize_columns(n_in, n_out):
    """Ascending indices of the n_in native columns that resizing the time
    axis to n_out frames reads."""
    if n_out < 2:
        raise InvalidInputError("resize targets must be >= 2")
    if n_in in (1, n_out):
        return np.arange(n_in)
    i0, _ = _taps(n_in, n_out)
    return np.union1d(i0, i0 + 1)


def _taps(n_in, n_out):
    """Output j of the corner-aligned interpolation reads inputs i0[j] and
    i0[j] + 1, with weight frac[j] on the second."""
    pos = np.linspace(0.0, n_in - 1.0, n_out)
    i0 = np.minimum(pos.astype(int), n_in - 2)
    return i0, pos - i0


def _interp_axis(v, n_out, axis, n_in=None):
    """Interpolate `v` along `axis` to n_out points. With `n_in`, `v` holds
    only the entries `resize_columns(n_in, n_out)` of an n_in-long axis."""
    held = None if n_in is None else resize_columns(n_in, n_out)
    if held is not None and v.shape[axis] != held.size:
        raise InvalidInputError(
            f"expected the {held.size} columns that resizing {n_in} to "
            f"{n_out} reads, got {v.shape[axis]}")
    n_in = v.shape[axis] if n_in is None else n_in
    if n_in == n_out:
        return v
    if n_in == 1:
        return np.repeat(v, n_out, axis=axis)
    i0, frac = _taps(n_in, n_out)
    i1 = i0 + 1
    if held is not None:
        i0, i1 = np.searchsorted(held, i0), np.searchsorted(held, i1)
    lo = np.take(v, i0, axis=axis)
    hi = np.take(v, i1, axis=axis)
    shape = [1, 1]
    shape[axis] = n_out
    frac = frac.reshape(shape)
    return lo * (1.0 - frac) + hi * frac


def extract_spectrogram(clip, wavelet, f_bins, t_frames, target_seconds):
    """Full front-end chain for one clip. The CWT and the dB compression
    run only at the native columns the resize reads; the result equals
    resize(log_magnitude(cwt(clip, wavelet, scales)), f_bins, t_frames)."""
    clip = resample(clip, TARGET_RATE)
    clip = tile_to_duration(clip, target_seconds)
    clip = bandpass(clip, FREQ_LO_HZ, FREQ_HI_HZ)
    scales = make_scale_grid(wavelet, f_bins, clip.sample_rate)
    n = clip.samples.size
    coeffs = cwt(clip, wavelet, scales, columns=resize_columns(n, t_frames))
    return resize(log_magnitude(coeffs), f_bins, t_frames, native_frames=n)


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
