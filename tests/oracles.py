"""Reference implementations the tests compare the program against."""

import numpy as np
import scipy.fft

from lungsound.autodiff import Tensor
from lungsound.dsp import _pad_signal


def grad_check(fn, shapes, seed=0, h=1e-4):
    """Compare analytic grads of scalar-valued `fn` against central
    differences; returns the max relative error over all input elements."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*leaves)
    out.backward()

    worst = 0.0
    for i, base in enumerate(arrays):
        analytic = leaves[i].grad
        if analytic is None:
            analytic = np.zeros_like(base)
        flat = base.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            hi = float(fn(*[Tensor(a) for a in arrays]).data)
            flat[j] = orig - h
            lo = float(fn(*[Tensor(a) for a in arrays]).data)
            flat[j] = orig
            numeric = (hi - lo) / (2 * h)
            a = analytic.reshape(-1)[j]
            denom = max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, abs(a - numeric) / denom)
    return worst


def cwt_direct(clip, spec, grid):
    """Time-domain oracle for `dsp.cwt`: explicit circular correlation
    against the wavelet kernels. O(F·P²); only for short signals."""
    x = clip.samples
    xp, left = _pad_signal(x)
    p = xp.size
    omega = 2.0 * np.pi * np.fft.fftfreq(p)
    out = np.empty((len(grid), x.size), dtype=np.complex128)
    idx = (np.arange(p)[None, :] - np.arange(p)[:, None]) % p
    for i, s in enumerate(grid.scales):
        kernel = np.fft.ifft(spec.freq_response(s * omega))
        row = np.conj(kernel)[idx] @ xp
        out[i] = row[left : left + x.size]
    return out


def cwt_dense(clip, spec, grid):
    """`dsp.cwt` as one full-length product and inverse FFT per row, with
    the filter bank rebuilt on every call."""
    x = clip.samples
    xp, left = _pad_signal(x)
    omega = 2.0 * np.pi * np.fft.fftfreq(xp.size)
    xf = np.fft.fft(xp)
    out = np.empty((len(grid), x.size), dtype=np.complex128)
    for i, s in enumerate(grid.scales):
        row = scipy.fft.ifft(xf * np.conj(spec.freq_response(s * omega)))
        out[i] = row[left : left + x.size]
    return out
