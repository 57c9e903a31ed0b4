"""Reference implementations the tests compare the program against, and
the helpers they share."""

import json
import struct

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import as_strided

from lungsound import autodiff as ad
from lungsound.autodiff import Tensor
from lungsound.dsp import _pad_signal
from lungsound.model import RespiratoryClassifier, glorot_uniform


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


def glorot_head_model(config, seed=0, dtype=np.float32):
    """A model built from `seed` whose classifier `head.fc2.weight` gets a
    Glorot draw from that same seed. A fresh model's classifier is zero, so
    its logits and every gradient beneath the head are exactly 0, and a
    check on them would pass however wrong they were."""
    model = RespiratoryClassifier(config, seed=seed, dtype=dtype)
    w = model.head.fc2.weight.data
    w[...] = glorot_uniform(np.random.default_rng(seed), w.shape, *w.shape,
                            dtype)
    return model


def cwt_direct(clip, spec, scales):
    """Time-domain oracle for `dsp.cwt`: explicit circular correlation
    against the wavelet kernels. O(F·P²); only for short signals."""
    x = clip.samples
    xp, left = _pad_signal(x)
    p = xp.size
    omega = 2.0 * np.pi * np.fft.fftfreq(p)
    out = np.empty((len(scales), x.size), dtype=np.complex128)
    idx = (np.arange(p)[None, :] - np.arange(p)[:, None]) % p
    for i, s in enumerate(scales):
        kernel = np.fft.ifft(spec.freq_response(s * omega))
        row = np.conj(kernel)[idx] @ xp
        out[i] = row[left : left + x.size]
    return out


def cwt_dense(clip, spec, scales):
    """`dsp.cwt` as one full-length product and inverse FFT per row, with
    the filter bank rebuilt on every call."""
    x = clip.samples
    xp, left = _pad_signal(x)
    omega = 2.0 * np.pi * np.fft.fftfreq(xp.size)
    xf = np.fft.fft(xp)
    out = np.empty((len(scales), x.size), dtype=np.complex128)
    for i, s in enumerate(scales):
        row = scipy.fft.ifft(xf * np.conj(spec.freq_response(s * omega)))
        out[i] = row[left : left + x.size]
    return out


def resize_bilinear(values, f_out, t_out):
    """Corner-aligned bilinear resize of a 2-d array to f_out×t_out, in
    float64, one axis after the other; an axis already at its size is
    copied. `dsp.resize` computes its time axis from the 2·t_out columns
    this reads."""
    v = np.asarray(values, dtype=np.float64)
    for axis, n_out in enumerate((f_out, t_out)):
        n_in = v.shape[axis]
        if n_in == n_out:
            continue
        pos = np.linspace(0.0, n_in - 1.0, n_out)
        i0 = np.minimum(pos.astype(int), n_in - 2)
        frac = np.expand_dims(pos - i0, 1 - axis)
        v = (np.take(v, i0, axis=axis) * (1.0 - frac)
             + np.take(v, i0 + 1, axis=axis) * frac)
    return v


def write_container(path, magic, version, header, payload):
    """The `lungsound.artifact` layout written by hand: magic, the version
    and header length as `<II`, the JSON `header` as given (its "arrays"
    list included, so a test can write one the program never would), then
    the `payload` bytes."""
    text = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(magic + struct.pack("<II", version, len(text)) + text
                     + payload)


def array_entries(pairs):
    """The "arrays" list of (name, array) pairs, in their order."""
    return [{"name": name, "dtype": a.dtype.str, "shape": list(a.shape)}
            for name, a in pairs]


def _pad_same(x, kh, kw):
    """x zero-padded for a "same" kh×kw correlation, the extra row or
    column of an even kernel on the high side; returns (padded, top, left)."""
    pl, pr = (kh - 1) // 2, kh - 1 - (kh - 1) // 2
    ql, qr = (kw - 1) // 2, kw - 1 - (kw - 1) // 2
    return np.pad(x, ((0, 0), (0, 0), (pl, pr), (ql, qr))), pl, ql


def conv2d_loop(x, w, b):
    """Quadruple-loop "same" cross-correlation oracle."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    x, _, _ = _pad_same(x, kh, kw)
    out = np.zeros((n, o, h, wd))
    for ni in range(n):
        for oi in range(o):
            for i in range(out.shape[2]):
                for j in range(out.shape[3]):
                    out[ni, oi, i, j] = (
                        np.sum(x[ni, :, i : i + kh, j : j + kw] * w[oi]) + b[oi]
                    )
    return out


def conv2d_loop_grads(x, w, g):
    """Loop oracle for the input and weight gradients of `conv2d_loop`
    under output gradient g: each output position adds g times its window
    of the weight to the input gradient, and g times its window of the
    input to the weight gradient."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    x, pl, ql = _pad_same(x, kh, kw)
    gxp, gw = np.zeros_like(x), np.zeros_like(w)
    for ni in range(n):
        for oi in range(o):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    gxp[ni, :, i : i + kh, j : j + kw] += g[ni, oi, i, j] * w[oi]
                    gw[oi] += g[ni, oi, i, j] * x[ni, :, i : i + kh, j : j + kw]
    return gxp[:, :, pl : pl + h, ql : ql + wd], gw


def conv2d_im2col(x, w, bias):
    """One kernel's "same" convolution as a tape node: a full kh×kw im2col
    copy and one GEMM, with a per-tap scatter of the column gradient."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp, top, left = _pad_same(x.data, kh, kw)
    s = xp.strides
    cols = as_strided(
        xp, (n, c, kh, kw, h, wd), (s[0], s[1], s[2], s[3], s[2], s[3])
    ).reshape(n, c * kh * kw, h * wd)
    w2 = w.data.reshape(o, c * kh * kw)
    out = (np.matmul(w2, cols) + bias.data.reshape(o, 1)).reshape(n, o, h, wd)

    def backprop(g):
        gflat = g.reshape(n, o, h * wd)
        gw = np.matmul(gflat, cols.transpose(0, 2, 1)).sum(axis=0)
        gcols = np.matmul(w2.T, gflat).reshape(n, c, kh, kw, h, wd)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i : i + h, j : j + wd] += gcols[:, :, i, j]
        gx = gxp[:, :, top : top + h, left : left + wd]
        return gx, gw.reshape(w.shape), gflat.sum(axis=(0, 2))

    return ad._node(out, (x, w, bias), backprop)


def pool2d_windows(x, mode, kernel, stride=None):
    """Window pooling as a tape node over an `as_strided` copy of every
    window: mean, or the argmax element with its gradient scattered back by
    `np.add.at`."""
    kh, kw = kernel
    sh, sw = stride if stride is not None else kernel
    n, c, h, wd = x.shape
    ho, wo = (h - kh) // sh + 1, (wd - kw) // sw + 1
    xd = np.ascontiguousarray(x.data)
    s = xd.strides
    windows = as_strided(
        xd, (n, c, ho, wo, kh, kw),
        (s[0], s[1], s[2] * sh, s[3] * sw, s[2], s[3]),
    ).reshape(n, c, ho, wo, kh * kw)
    if mode == "avg":
        out = windows.mean(axis=-1)

        def backprop(g):
            gx = np.zeros_like(xd)
            for i in range(kh):
                for j in range(kw):
                    gx[:, :, i : i + sh * ho : sh, j : j + sw * wo : sw] += (
                        g / (kh * kw))
            return (gx,)
    else:
        idx = windows.argmax(axis=-1)
        out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

        def backprop(g):
            gx = np.zeros_like(xd)
            ni, ci, hi, wi = np.indices(idx.shape)
            np.add.at(gx, (ni, ci, hi * sh + idx // kw, wi * sw + idx % kw), g)
            return (gx,)

    return ad._node(out, (x,), backprop)


def batch_norm_composite(x, gamma, beta, running_mean, running_var,
                         momentum=0.1, eps=1e-5):
    """Training-mode batch norm composed of taped primitives."""
    c = x.shape[1]
    shape = (1, c, 1, 1)
    mu = ad.tmean(x, axis=(0, 2, 3), keepdims=True)
    var = ad.tmean((x - mu) ** 2, axis=(0, 2, 3), keepdims=True)
    running_mean *= 1.0 - momentum
    running_mean += momentum * mu.data.reshape(c)
    running_var *= 1.0 - momentum
    running_var += momentum * var.data.reshape(c)
    xhat = (x - mu) * (var + eps) ** -0.5
    return xhat * gamma.reshape(shape) + beta.reshape(shape)


def batch_norm_eval_composite(x, gamma, beta, running_mean, running_var,
                              eps=1e-5):
    """Eval-mode batch norm composed of taped primitives; the float64
    running statistics take x's dtype where they meet it."""
    shape = (1, x.shape[1], 1, 1)
    mu = running_mean.reshape(shape)
    inv = 1.0 / np.sqrt(running_var.reshape(shape) + eps)
    return (x - mu) * inv * gamma.reshape(shape) + beta.reshape(shape)


def residual_norm_composite(x, lam):
    """lam·x plus `instance_norm_freq(x)`, composed of taped primitives."""
    return x * lam + ad.instance_norm_freq(x)


def standardize_whole(xd, axes):
    """(xhat, 1/σ) of xd over `axes`, each expression over the whole array:
    the reference for `autodiff._standardize` run by blocks."""
    total = xd.sum(axis=axes, keepdims=True)
    mu = total * (total.size / xd.size)
    diff = xd - mu
    total = (diff ** 2.0).sum(axis=axes, keepdims=True)
    inv = (total * (total.size / xd.size) + 1e-5) ** -0.5
    return diff * inv, inv


def standardize_grad_whole(g, xhat, inv, axes, scale=1.0):
    """(dx, Σg·xhat, Σg): the closed-form gradient through a standardization
    whose output is scaled by `scale`, each expression over the whole
    arrays: the reference for `autodiff._standardize_grad` run by blocks."""
    m = g.size / inv.size
    sg = g.sum(axis=axes, keepdims=True)
    dx = g * xhat
    sgx = dx.sum(axis=axes, keepdims=True)
    dx = scale * inv * (g - (xhat * (sgx / m) + sg / m))
    return dx, sgx, sg
