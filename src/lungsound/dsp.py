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

# scipy is imported inside resample, bandpass and the CWT's functions, its
# only users here: loading scipy.signal and scipy.fft takes ~0.85 s and
# ~75 MB, which a process that trains, scores or reports on cached
# spectrograms never needs

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
# 2: narrow CWT rows are evaluated on a band grid, which moved some
# values by one float32 ulp
CACHE_VERSION = 2

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


# rows per batch: as many as keep its complex work buffer (rows x grid length
# x 16 B) within _BATCH_BYTES, and at least one. A full row takes 2 MB at
# event level and 4 MB at record level. Batches write disjoint rows, so a
# CWT of more than one batch runs them on a pool of _usable_cpus() threads,
# each inverse FFT on one thread (workers=1). Whatever is cached or traced
# (the forward FFT, the filter bank, the spreading matrices, the unit circle)
# is computed on the calling thread before any batch is queued
_BATCH_BYTES = 4 << 20
# A row with a narrow band is evaluated on a short grid instead of by a
# P-point inverse FFT: a type-2 non-uniform FFT with a Gaussian kernel
# (Greengard & Lee 2004, SIAM Review 46(3)), oversampled 2x, that sums
# _SPREAD grid points on each side of a column. With _SPREAD = 12 every row
# measured within 1.0e-12 of its max |c| of the full inverse FFT
_SPREAD = 12


def _band_size(lo, hi, p):
    """Grid length m for the row with FFT support [lo, hi) at padded length
    p: the next power of two >= 2(hi - lo), at least 4·_SPREAD. Returns 0
    when m > p/4: such a row takes its full inverse FFT, which measured
    faster for Amor than a grid of p/2 points."""
    m = max(1 << (2 * (hi - lo) - 1).bit_length(), 4 * _SPREAD)
    return m if 4 * m <= p else 0


# two banks: one wavelet at event and record level. A Morse or Amor bank
# holds ~100 MB at record level (bump: ~10 MB)
@functools.lru_cache(maxsize=2)
def _filter_bank(spec, scales, p):
    """Per-scale wavelet responses over the P FFT bins, each kept only over
    its nonzero support as (lo, hi, m, factor). `scales` is the scale
    array's bytes, so the key is hashable; every clip of a level has one
    padded length, so one bank serves them all.

    A row with m == 0 takes the full inverse FFT, and `factor` is the
    response over [lo, hi). Otherwise `factor` also holds the band grid's
    deconvolution sqrt(pi/tau)·exp(j²·tau)/P of bin j = k - centre, where
    centre = lo + (hi - lo)//2 and tau = 4·pi·_SPREAD/(3m²)."""
    omega = 2.0 * np.pi * np.fft.fftfreq(p)
    bank = []
    for s in np.frombuffer(scales, dtype=np.float64):
        response = spec.freq_response(s * omega)
        support = np.flatnonzero(response)
        lo, hi = (int(support[0]), int(support[-1]) + 1) if support.size \
            else (0, 0)
        factor = response[lo:hi].copy()
        m = _band_size(lo, hi, p)
        if m:
            tau = 4.0 * np.pi * _SPREAD / (3.0 * m * m)
            j = np.arange(lo, hi) - (lo + (hi - lo) // 2)
            factor *= np.sqrt(np.pi / tau) * np.exp(j * j * tau) / p
        factor.flags.writeable = False  # shared by every cached caller
        bank.append((lo, hi, m, factor))
    return tuple(bank)


# one entry per (level, grid length): bump uses 6 grid lengths at each
# level's paper size
@functools.lru_cache(maxsize=16)
def _spread_matrix(keep, p, m):
    """Sparse K×m matrix whose row n holds the Gaussian weights of padded
    column keep[n]'s 2·_SPREAD nearest points on an m-point grid, in
    summation order. `keep` is an index array's bytes."""
    from scipy import sparse

    keep = np.frombuffer(keep, dtype=np.intp)
    u = keep * m / p  # exact: m·keep is an integer and p a power of two
    near = (np.floor(u).astype(np.intp)[:, None]
            + np.arange(1 - _SPREAD, _SPREAD + 1))
    weight = np.exp(-0.75 * np.pi / _SPREAD * (u[:, None] - near) ** 2)
    indptr = np.arange(0, near.size + 1, near.shape[1])
    return sparse.csr_array((weight.ravel(), (near % m).ravel(), indptr),
                            shape=(keep.size, m))


@functools.lru_cache(maxsize=1)
def _executor():
    """The CWT's thread pool, with _usable_cpus() threads, made by the
    first CWT of more than one batch."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_usable_cpus(),
                              thread_name_prefix="lungsound-cwt")


if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's threads: its first
    # multi-batch CWT makes a pool of its own
    os.register_at_fork(after_in_child=_executor.cache_clear)


@functools.lru_cache(maxsize=2)
def _unit_circle(p):
    """e^(2·pi·i·q/p) for q = 0..p-1."""
    angle = 2.0 * np.pi / p * np.arange(p)
    turn = np.empty(p, dtype=np.complex128)
    turn.real, turn.imag = np.cos(angle), np.sin(angle)
    return turn


def _full_rows(xf, rows, keep, p):
    """Columns `keep` of each bank row's full p-point inverse FFT."""
    import scipy.fft

    # the responses are real: over each support this is
    # xf * conj(psi_hat) bit for bit, and outside it both are zero
    prod = np.zeros((len(rows), p), dtype=np.complex128)
    for k, (lo, hi, _, factor) in enumerate(rows):
        np.multiply(xf[lo:hi], factor, out=prod[k, lo:hi])
    prod = scipy.fft.ifft(prod, axis=1, overwrite_x=True, workers=1)
    return prod[:, keep]


def _band_rows(xf, rows, spread, turn, keep, p):
    """Columns `keep` of bank rows that share the grid length m. Each row's
    band goes onto its own grid column, centred (bin centre + j at point
    j mod m); one inverse FFT on m points; each output column n sums its
    nearest grid points (`spread`, the K×m `_spread_matrix`), then shifts
    back by e^(2·pi·i·centre·n/p), read from `turn` (`_unit_circle(p)`).
    Each column is summed on its own in a fixed order, and the shift is
    real arithmetic, so a column's value does not depend on which others
    are asked for."""
    import scipy.fft

    m = spread.shape[1]
    grid = np.zeros((m, len(rows)), dtype=np.complex128)
    centres = np.empty(len(rows), dtype=np.intp)
    for k, (lo, hi, _, factor) in enumerate(rows):
        h = (hi - lo) // 2
        centres[k] = lo + h
        np.multiply(xf[lo + h : hi], factor[h:], out=grid[: hi - lo - h, k])
        np.multiply(xf[lo : lo + h], factor[:h], out=grid[m - h :, k])
    grid = scipy.fft.ifft(grid, axis=0, overwrite_x=True, workers=1)
    # the weights are real, so the grid is summed as 2·len(rows) real
    # columns: K×(re, im) pairs per row
    a = spread @ grid.view(np.float64)
    a = a.reshape(keep.size, len(rows), 2)
    turn = turn[np.multiply.outer(keep, centres) % p]
    turn = turn.view(np.float64).reshape(a.shape)
    out = np.empty_like(a)
    out[..., 0] = a[..., 0] * turn[..., 0] - a[..., 1] * turn[..., 1]
    out[..., 1] = a[..., 0] * turn[..., 1] + a[..., 1] * turn[..., 0]
    return out.view(np.complex128)[..., 0].T


def cwt(clip, spec, scales, columns=None):
    """FFT-based CWT; row i is the cross-correlation of the signal with the
    conjugate wavelet at scales[i]. Output is complex, len(scales)×N, or
    len(scales)×len(columns) holding only those sample columns.

    A row whose band fits a grid of at most P/4 points (`_band_size`) is
    evaluated on that grid, within ~1e-12 of its max |c| of the row's full
    P-point inverse FFT; a wider row takes that inverse FFT. Which way a
    row goes depends only on its band and P, and each column is computed
    on its own, so the `columns` output is a bitwise gather of the full
    one, and no output depends on how rows are batched or on which thread
    a batch runs."""
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
        columns = np.arange(x.size)
    else:
        columns = np.asarray(columns, dtype=np.intp)
        if columns.ndim != 1 or np.any((columns < 0) | (columns >= x.size)):
            raise InvalidInputError("columns must index the signal's samples")
    keep = left + columns
    # every response is 0 at and below omega = 0, and fftfreq puts bin p/2
    # at -Nyquist, so each support ends at or below bin p/2: the half
    # spectrum holds every bin a row reads
    xf = scipy.fft.rfft(xp)
    bank = _filter_bank(spec, scales.tobytes(), p)
    turn = _unit_circle(p)
    by_size = {}
    for i, (_, _, m, _) in enumerate(bank):
        by_size.setdefault(m, []).append(i)
    batches = []
    # the largest grids first, so that the last batches to finish are short
    for m in sorted(by_size, key=lambda m: m or p, reverse=True):
        spread = _spread_matrix(keep.tobytes(), p, m) if m else None
        members = by_size[m]
        step = max(1, _BATCH_BYTES // (16 * (m or p)))
        batches += [(members[start : start + step], spread)
                    for start in range(0, len(members), step)]
    out = np.empty((scales.size, keep.size), dtype=np.complex128)

    def run(batch, spread):
        rows = [bank[i] for i in batch]
        out[batch] = (_full_rows(xf, rows, keep, p) if spread is None
                      else _band_rows(xf, rows, spread, turn, keep, p))

    if len(batches) == 1 or _usable_cpus() == 1:
        for batch in batches:
            run(*batch)
    else:
        from concurrent.futures import wait

        futures = [_executor().submit(run, *batch) for batch in batches]
        wait(futures)  # no batch still writes to `out` once this returns
        for future in futures:
            future.result()
    return out


def log_magnitude(coeffs):
    """dB compression: 20·log10(|c| + 1e-10)."""
    coeffs = np.asarray(coeffs)
    if not np.all(np.isfinite(coeffs)):
        raise InvalidInputError("coefficients must be finite")
    return Spectrogram(values=20.0 * np.log10(np.abs(coeffs) + LOG_EPS))


def resize(spec, f_out, t_out, native_frames=None):
    """Bilinear resize with corner alignment; exact copy at the native size.

    With `native_frames`, `spec` holds only the 2·t_out columns that the
    time axis reads of a scalogram that many frames wide: the columns i0
    of `_taps(native_frames, t_out)`, then the columns i0 + 1."""
    if f_out < 2 or t_out < 2:
        raise InvalidInputError("resize targets must be >= 2")
    v = spec.values.astype(np.float64)
    v = _interp_axis(v, f_out, axis=0)
    if native_frames is None:
        v = _interp_axis(v, t_out, axis=1)
    else:
        if v.shape[1] != 2 * t_out:
            raise InvalidInputError(
                f"expected the {2 * t_out} columns that resizing "
                f"{native_frames} to {t_out} reads, got {v.shape[1]}")
        _, frac = _taps(native_frames, t_out)
        v = v[:, :t_out] * (1.0 - frac) + v[:, t_out:] * frac
    return Spectrogram(values=v)


def _taps(n_in, n_out):
    """Output j of the corner-aligned interpolation reads inputs i0[j] and
    i0[j] + 1, with weight frac[j] on the second."""
    pos = np.linspace(0.0, n_in - 1.0, n_out)
    i0 = np.minimum(pos.astype(int), n_in - 2)
    return i0, pos - i0


def _interp_axis(v, n_out, axis):
    """Interpolate `v` along `axis` to n_out points."""
    n_in = v.shape[axis]
    if n_in == n_out:
        return v
    if n_in == 1:
        return np.repeat(v, n_out, axis=axis)
    i0, frac = _taps(n_in, n_out)
    lo = np.take(v, i0, axis=axis)
    hi = np.take(v, i0 + 1, axis=axis)
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
    i0, _ = _taps(n, t_frames)
    coeffs = cwt(clip, wavelet, scales, columns=np.concatenate([i0, i0 + 1]))
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
