"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor that needs a gradient owns a grad handle: its parents' handles
and the closure that maps its gradient to theirs. A handle holds no array,
and a closure keeps only the arrays its backward reads, so an activation
lives only while user code or a closure refers to it. Calling
``backward()`` on a scalar walks the handles in reverse topological order,
accumulates gradients into every ``requires_grad`` leaf and frees the tape
behind it, so a graph is differentiated once. Constants take the dtype of
the Tensor they meet. Only the primitives needed by the network are
implemented: elementwise arithmetic, matmul, reductions, 2-d
convolution (one node for a sum of parallel kernels), 2×2 pooling,
normalizations, softmax and log-softmax, dropout and attention.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import InvalidConfigError, InvalidInputError, UsageError

# added to the variance under the square root of every normalization
NORM_EPS = 1e-5
# weight of each training batch's statistics in batch norm's running ones
BN_MOMENTUM = 0.1

_grad_enabled = True


class no_grad:
    """Context manager disabling tape recording (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class _Handle:
    """The graph side of a Tensor that needs a gradient: its parents'
    handles (None for a parent that needs none), the closure that maps the
    Tensor's gradient to theirs (None for a leaf), and for a leaf a weak
    reference to the Tensor that accumulates it."""

    __slots__ = ("parents", "backprop", "leaf")

    def __init__(self, parents, backprop, leaf=None):
        self.parents = parents
        self.backprop = backprop
        self.leaf = leaf


class Tensor:
    __slots__ = ("data", "grad", "_handle", "_done", "__weakref__")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self._handle = (_Handle((), None, weakref.ref(self)) if requires_grad
                        else None)
        self._done = False

    # -- graph plumbing ----------------------------------------------------

    @property
    def requires_grad(self):
        return self._handle is not None

    @property
    def _backprop(self):
        """This node's backward closure, None for a leaf or a constant.
        Assigning one replaces the closure that `backward` calls."""
        return None if self._handle is None else self._handle.backprop

    @_backprop.setter
    def _backprop(self, backprop):
        self._handle.backprop = backprop

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def backward(self):
        """Accumulate gradients of this scalar into all reachable leaves."""
        if self.data.size != 1:
            raise InvalidInputError("backward() requires a scalar loss")
        if self._done:
            raise UsageError("backward() already ran on this graph")
        self._done = True
        if self._handle is None:
            return

        # root popped first; a handle leaves the list and drops its parents
        # and closure (the arrays it saved) once it has passed its gradients on
        order = _toposort(self._handle)
        grads = {id(self._handle): np.ones_like(self.data)}
        while order:
            node = order.pop()
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.backprop is None:
                leaf = node.leaf()
                if leaf is not None:
                    leaf.grad = g if leaf.grad is None else leaf.grad + g
                continue
            # only parents that need a gradient get one: a gradient computed
            # for a constant dies here instead of waiting in `grads`
            passed = [(id(p), pg)
                      for p, pg in zip(node.parents, node.backprop(g))
                      if pg is not None and p is not None]
            for key, pg in passed:
                grads[key] = pg if key not in grads else grads[key] + pg
            node.parents, node.backprop = (), _unwound

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other, self))

    __radd__ = __add__

    def __neg__(self):
        return mul_scalar(self, -1.0)

    def __sub__(self, other):
        return add(self, -_wrap(other, self))

    def __rsub__(self, other):
        return add(-self, _wrap(other, self))

    def __mul__(self, other):
        if np.isscalar(other):
            return mul_scalar(self, float(other))
        return mul(self, _wrap(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _wrap(other, self))

    def __pow__(self, p):
        return power(self, float(p))

    def __matmul__(self, other):
        return matmul(self, _wrap(other, self))

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)


def _wrap(x, like):
    """`x` as a Tensor; a constant takes the dtype of the Tensor `like` it
    meets, so a float32 operand is not promoted by a float64 constant."""
    return x if isinstance(x, Tensor) else Tensor(
        np.asarray(x, dtype=like.data.dtype))


def _node(data, parents, backprop):
    """A Tensor of `data`; while recording, if any parent needs a gradient,
    with a handle that links the parents' handles and `backprop`, which
    maps its gradient to one per parent (None for a parent that needs
    none). `backprop` must capture arrays and shapes, never a Tensor."""
    out = Tensor(data)
    if _grad_enabled:
        handles = tuple(p._handle for p in parents)
        if any(h is not None for h in handles):
            out._handle = _Handle(handles, backprop)
    return out


def _unwound(g):
    raise UsageError("backward() already ran through this node")


def _toposort(root):
    """The handles that lead to the handle `root`, each after all of its
    parents."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p is not None:
                stack.append((p, False))
    return order


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, n in enumerate(shape):
        if n == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad.reshape(shape)


# -- elementwise primitives --------------------------------------------------


def add(a, b):
    a_shape, b_shape = a.shape, b.shape

    def backprop(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _node(a.data + b.data, (a, b), backprop)


def mul(a, b):
    """a·b. The backward keeps an operand's array only if the other operand
    needs a gradient, and gives None for an operand that needs none."""
    a_shape, b_shape = a.shape, b.shape
    a_saved = a.data if b.requires_grad else None
    b_saved = b.data if a.requires_grad else None

    def backprop(g):
        return (None if b_saved is None else _unbroadcast(g * b_saved, a_shape),
                None if a_saved is None else _unbroadcast(g * a_saved, b_shape))

    return _node(a.data * b.data, (a, b), backprop)


def mul_scalar(a, s):
    return _node(a.data * s, (a,), lambda g: (g * s,))


def div(a, b):
    """a / b, with `mul`'s rule for what the backward keeps."""
    a_shape, b_shape, bd = a.shape, b.shape, b.data
    a_needs = a.requires_grad
    a_saved = a.data if b.requires_grad else None

    def backprop(g):
        ga = _unbroadcast(g / bd, a_shape) if a_needs else None
        gb = (None if a_saved is None
              else _unbroadcast(-g * a_saved / (bd * bd), b_shape))
        return ga, gb

    return _node(a.data / bd, (a, b), backprop)


def power(a, p):
    a_data = a.data
    return _node(a_data**p, (a,), lambda g: (g * p * a_data ** (p - 1),))


def exp(a):
    out_data = np.exp(a.data)
    return _node(out_data, (a,), lambda g: (g * out_data,))


def log(a):
    a_data = a.data
    return _node(np.log(a_data), (a,), lambda g: (g / a_data,))


def relu(a):
    """max(a, 0); a NaN stays NaN. The gradient mask is taken from the
    output, which is positive exactly where the input is."""
    out = np.maximum(a.data, 0)
    return _node(out, (a,), lambda g: (g * (out > 0),))


def clip_min(a, floor):
    """max(a, floor); gradient is zero in the clamped region. A NaN stays
    NaN."""
    mask = a.data > floor
    return _node(np.maximum(a.data, floor), (a,), lambda g: (g * mask,))


# -- shape primitives ---------------------------------------------------------


def reshape(a, shape):
    a_shape = a.shape
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a_shape),))


def transpose(a, axes):
    inverse = np.argsort(axes)
    return _node(
        a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),)
    )


def concat(tensors, axis=-1):
    datas = [t.data for t in tensors]
    splits = np.cumsum([d.shape[axis] for d in datas])[:-1]

    def backprop(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(np.concatenate(datas, axis=axis), tuple(tensors), backprop)


# -- reductions ---------------------------------------------------------------


def tsum(a, axis=None, keepdims=False):
    a_shape = a.shape

    def backprop(g):
        if axis is None:
            return (np.broadcast_to(g, a_shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a_shape).copy(),)

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), backprop)


def tmean(a, axis=None, keepdims=False):
    total = tsum(a, axis, keepdims)
    return mul_scalar(total, total.data.size / a.data.size)


def tmax(a, axis, keepdims=False):
    out_data = a.data.max(axis=axis, keepdims=True)
    mask = a.data == out_data
    counts = mask.sum(axis=axis, keepdims=True, dtype=a.data.dtype)

    def backprop(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        return (mask * (gg / counts),)

    return _node(out_data if keepdims else out_data.squeeze(axis), (a,), backprop)


# -- linear algebra -----------------------------------------------------------


def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise InvalidInputError("matmul operands must be at least 2-d")
    if a.shape[-1] != b.shape[-2]:
        raise InvalidInputError(
            f"matmul inner dims disagree: {a.shape} @ {b.shape}"
        )

    # `mul`'s rule for what the backward keeps
    a_shape, b_shape = a.shape, b.shape
    a_saved = a.data if b.requires_grad else None
    b_saved = b.data if a.requires_grad else None

    def backprop(g):
        ga = (None if b_saved is None else _unbroadcast(
            np.matmul(g, np.swapaxes(b_saved, -1, -2)), a_shape))
        gb = (None if a_saved is None else _unbroadcast(
            np.matmul(np.swapaxes(a_saved, -1, -2), g), b_shape))
        return ga, gb

    return _node(np.matmul(a.data, b.data), (a, b), backprop)


def dense(x, w, bias):
    """Affine map x @ w + bias."""
    return matmul(x, w) + bias


# -- convolution and pooling ---------------------------------------------------


# bytes of im2col columns that a convolution builds at a time: a larger
# input is run one band of rows at a time, forward and backward
_BAND_BYTES = 32 << 20


def _bands(n, ho, row_bytes):
    """(sample, first row, end row) bands that tile the n×ho rows, each a
    run of one sample's rows with at most `_BAND_BYTES` of columns (and at
    least one row); `row_bytes` are one sample's columns for one row."""
    rows = max(1, _BAND_BYTES // row_bytes)
    return [(i, r, min(r + rows, ho))
            for i in range(n) for r in range(0, ho, rows)]


def _flush_subnormal(g):
    """A new array of g with every entry below the dtype's smallest normal
    magnitude set to zero: BLAS on subnormal operands is many times slower.
    A NaN stays NaN."""
    keep = np.abs(g)
    np.greater_equal(keep, np.finfo(g.dtype).tiny, out=keep)
    keep *= g
    return keep


def _band_columns(src, taps, rows, width):
    """The im2col columns of the N×C×H×W array `src`, one band at a time (see
    `_bands`): yields ((i, r0, r1), columns) for rows r0:r1 of sample i,
    where columns is (C·taps) × (rows·width) and entry (ch, t, r, x) is
    src[i, ch, dy_t + r0 + r, dx_t + x], or 0 where that lies outside src.
    So the zero border of a padded convolution is written here, tap by tap,
    and no padded copy of `src` is made. Every band is filled into the same
    buffer, so a band's columns are valid until the next one is yielded."""
    n, c, h, w = src.shape
    k = c * len(taps)
    bands = _bands(n, rows, k * width * src.itemsize)
    # the first band is the largest: one buffer serves every band
    _, r0, r1 = bands[0]
    buf = np.empty(k * (r1 - r0) * width, dtype=src.dtype)
    for band in bands:
        i, r0, r1 = band
        cols = buf[: k * (r1 - r0) * width].reshape(
            c, len(taps), r1 - r0, width)
        for t, (dy, dx) in enumerate(taps):
            # the band's rows a:b and columns p:q lie inside src, every
            # bound clamped to the band; the rest of the tap is border
            a = min(max(-dy - r0, 0), r1 - r0)
            b = min(max(h - dy - r0, a), r1 - r0)
            p = min(max(-dx, 0), width)
            q = min(max(w - dx, p), width)
            tap = cols[:, t]
            tap[:, :a] = 0
            tap[:, b:] = 0
            tap[:, a:b, :p] = 0
            tap[:, a:b, q:] = 0
            if a < b and p < q:
                tap[:, a:b, p:q] = src[i, :, dy + r0 + a : dy + r0 + b,
                                       dx + p : dx + q]
        yield band, cols.reshape(k, -1)


def conv2d(x, w, bias):
    """2-d cross-correlation, stride 1, "same" padding, over N×C×F×T input:
    the output keeps the input's spatial dims.

    w is O×C×Kf×Kt; bias is O, or None for none.
    """
    return conv2d_sum(x, [w], [] if bias is None else [bias])


def conv2d_sum(x, weights, biases):
    """Sum of stride-1, "same"-padded cross-correlations of x with each
    O×C×Kf×Kt kernel in `weights`, plus each O-vector in `biases`, as one
    node; the output keeps x's spatial dims.

    The kernels' taps sit at offsets from the output position; an im2col
    over the union of those offsets and a GEMM against the per-offset sum
    of the kernels' weights gives the sum of the separate convolutions. Each kernel's gradient is its own taps' slice of
    the merged weight gradient. All columns are built one band at a time by
    `_band_columns`, a band being a run of one sample's rows, so every GEMM
    is 2-d and no node keeps any columns for its backward. The same
    function writes the zero border: a tap that falls outside the array it
    reads gets zeros, so no padded copy of the input or of the gradient is
    made.

    The backward lays out im2col columns of the output gradient over the
    input's positions, one band of a sample's input rows at a time: entry
    (o, tap, y, x) is g[i, o, y - dy, x - dx], zero outside g. Against the
    merged weight, as C × (O·taps), they give the band's input gradient in
    one GEMM, and against the band's input the weight gradient in another,
    so the input's columns are never rebuilt and nothing is scattered. A node
    whose input is a constant needs only the weight gradient, which it
    gets from its input's columns, built again band by band. The backward
    flushes subnormal output gradients to zero once per node; the bias
    gradient sums them as they are.
    """
    if (x.ndim != 4 or 0 in x.shape or not weights
            or any(w.ndim != 4 for w in weights)):
        raise InvalidInputError("conv2d expects nonempty 4-d input and kernel")
    n, c, h, wd = x.shape
    o = weights[0].shape[0]
    offsets = []
    for w in weights:
        ow, cw, kh, kw = w.shape
        if cw != c:
            raise InvalidInputError(f"channel mismatch: input {c}, kernel {cw}")
        if ow != o:
            raise InvalidInputError(f"kernels disagree on outputs: {o} vs {ow}")
        # an even kernel's extra tap lies on the high-index side
        top, left = (kh - 1) // 2, (kw - 1) // 2
        offsets.append([(i - top, j - left)
                        for i in range(kh) for j in range(kw)])

    # row-major union of the taps; a lone kernel keeps its own tap order
    taps = sorted(set().union(*offsets))
    where = {tap: t for t, tap in enumerate(taps)}
    slots = [[where[tap] for tap in offs] for offs in offsets]
    k = c * len(taps)

    xd, x_needs = x.data, x.requires_grad
    w_shapes, n_biases = [w.shape for w in weights], len(biases)
    merged = np.zeros((o, c, len(taps)), dtype=weights[0].data.dtype)
    for w, slot in zip(weights, slots):
        merged[:, :, slot] += w.data.reshape(o, c, -1)
    w2 = merged.reshape(o, k)
    out = np.empty((n, o, h, wd), dtype=np.result_type(w2.dtype, xd.dtype))
    for (i, r0, r1), cols in _band_columns(xd, taps, h, wd):
        # a view: a band's rows of one channel are contiguous in `out`
        np.matmul(w2, cols, out=out[i, :, r0:r1].reshape(o, -1))
    if biases:
        out += sum(b.data for b in biases).reshape(o, 1, 1)

    def backprop(g):
        gf = _flush_subnormal(g)
        if x_needs:
            w_r = merged.transpose(1, 0, 2).reshape(c, -1)
            gx = np.empty(xd.shape, dtype=g.dtype)
            gw = np.zeros((o * len(taps), c), dtype=g.dtype)
            flipped = [(-dy, -dx) for dy, dx in taps]
            for (i, r0, r1), gc in _band_columns(gf, flipped, h, wd):
                # a view, as in the forward
                np.matmul(w_r, gc, out=gx[i, :, r0:r1].reshape(c, -1))
                gw += gc @ xd[i, :, r0:r1].reshape(c, -1).T
            gw = gw.reshape(o, len(taps), c).transpose(0, 2, 1)
        else:
            gx = None
            gw = np.zeros((o, k), dtype=g.dtype)
            for (i, r0, r1), cols in _band_columns(xd, taps, h, wd):
                gw += gf[i, :, r0:r1].reshape(o, -1) @ cols.T
            gw = gw.reshape(o, c, len(taps))
        gws = [gw[:, :, slot].reshape(shape)
               for shape, slot in zip(w_shapes, slots)]
        gb = g.reshape(n, o, -1).sum(axis=(0, 2))
        gbs = [gb.copy() for _ in range(n_biases)]
        return (gx, *gws, *gbs)

    return _node(out, (x, *weights, *biases), backprop)


def pool2d(x, mode):
    """2×2 pooling with stride 2 over the two trailing axes; an odd last
    row or column is dropped.

    avg sums the window in row-major order, starting from 0 as numpy's
    mean does, and divides by 4; max passes the gradient to the first
    maximum in row-major order, as argmax does.
    """
    shape = x.shape
    n, c, h, wd = shape
    if h < 2 or wd < 2:
        raise InvalidConfigError(f"2x2 pool window exceeds input {(h, wd)}")
    ho, wo = h // 2, wd // 2
    # the four window positions as strided views, in row-major order
    corners = [(slice(i, 2 * ho, 2), slice(j, 2 * wo, 2))
               for i in (0, 1) for j in (0, 1)]
    parts = [x.data[:, :, rows, columns] for rows, columns in corners]

    if mode == "avg":
        out = parts[0] + 0.0
        for part in parts[1:]:
            out += part
        out /= 4

        def shares(g):
            share = g / 4
            share += 0.0
            yield from [share] * 4

    elif mode == "max":
        out = np.maximum(parts[0], parts[1])
        np.maximum(out, parts[2], out=out)
        np.maximum(out, parts[3], out=out)
        # the first k whose element equals the maximum:
        # ne0·(1 + ne1·(1 + ne2)) in int8, with ne_k = (part_k != out)
        first = np.not_equal(parts[2], out).view(np.int8)
        first += 1
        first *= np.not_equal(parts[1], out)
        first += 1
        first *= np.not_equal(parts[0], out)
        # a NaN window, or a ±0 one, takes argmax's element, sign or NaN
        # included
        patch = out == 0
        patch |= np.isnan(out)
        if patch.any():
            at = np.nonzero(patch)
            window = np.stack([part[at] for part in parts])
            pick = window.argmax(axis=0)
            out[at] = window[pick, np.arange(pick.size)]
            first[at] = pick

        def shares(g):
            g = g + 0.0
            for k in range(4):
                yield np.where(first == k, g, 0)

    else:
        raise InvalidConfigError(f"unknown pool mode {mode!r}")

    # each corner's share of g is assigned rather than summed into zeros:
    # + 0.0 turns a -0.0 into the 0.0 that such a sum gives. The shares come
    # one at a time, and none is held once assigned, so one is live at once
    def backprop(g):
        gx = np.empty(shape, dtype=g.dtype)
        corner_shares = shares(g)
        for rows, columns in corners:
            gx[:, :, rows, columns] = next(corner_shares)
        gx[:, :, 2 * ho :] = 0
        gx[:, :, :, 2 * wo :] = 0
        return (gx,)

    return _node(out, (x,), backprop)


# -- normalizations ------------------------------------------------------------


def _standardize(xd, axes):
    """(xhat, 1/σ, mean, var) of xd over `axes`, with the biased variance
    and xhat = (x - mean)·(var + NORM_EPS)^-½, by the same array expressions,
    and so to the same bytes, as the tmean/power composite in
    `instance_norm_freq`."""
    total = xd.sum(axis=axes, keepdims=True)
    mu = total * (total.size / xd.size)
    diff = xd - mu
    total = (diff ** 2.0).sum(axis=axes, keepdims=True)
    var = total * (total.size / xd.size)
    inv = (var + NORM_EPS) ** -0.5
    return diff * inv, inv, mu, var


def _standardize_grad(g, xhat, inv, axes, scale=1.0):
    """(dx, Σg·xhat, Σg) for output gradient g of scale·xhat, where dx is
    the input gradient through `_standardize`; the two sums over `axes`
    are also the gradients of the scale and of a shift added after it."""
    m = g.size / inv.size
    sg = g.sum(axis=axes, keepdims=True)
    dx = g * xhat
    sgx = dx.sum(axis=axes, keepdims=True)
    # dx = scale·inv·(g − Σg/m − xhat·Σg·xhat/m), in the one buffer
    np.multiply(xhat, sgx / m, out=dx)
    dx += sg / m
    np.subtract(g, dx, out=dx)
    dx *= scale * inv
    return dx, sgx, sg


def batch_norm(x, gamma, beta, running_mean, running_var, training=True):
    """Per-channel batch normalization over an N×C×F×T tensor.

    `running_mean`/`running_var` are plain arrays mutated in place during
    training (biased batch variance, new = (1 − m)·old + m·batch with
    m = BN_MOMENTUM). Each mode is one node. Eval mode computes
    (x − μ)·inv·γ + β from the running statistics in one buffer, in that
    order; its backward rebuilds (x − μ)·inv from x for γ's gradient.
    """
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise InvalidInputError("batch_norm affine parameters must have length C")
    shape = (1, c, 1, 1)
    scale = gamma.data.reshape(shape)
    if not training:
        # the float64 running stats take x's dtype where they meet it
        xd = x.data
        mu = np.asarray(running_mean.reshape(shape), dtype=xd.dtype)
        inv = np.asarray(1.0 / np.sqrt(running_var.reshape(shape) + NORM_EPS),
                         dtype=xd.dtype)
        out = np.subtract(xd, mu)
        out *= inv
        out *= scale
        out += beta.data.reshape(shape)

        def backprop(g):
            xhat = np.subtract(xd, mu)
            xhat *= inv
            dx = g * scale
            dx *= inv
            return (dx, _unbroadcast(g * xhat, shape).reshape(c),
                    _unbroadcast(g, shape).reshape(c))

        return _node(out, (x, gamma, beta), backprop)

    axes = (0, 2, 3)
    xhat, inv, mu, var = _standardize(x.data, axes)
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mu.reshape(c)
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * var.reshape(c)

    def backprop(g):
        dx, sgx, sg = _standardize_grad(g, xhat, inv, axes, scale)
        return dx, sgx.reshape(c), sg.reshape(c)

    return _node(xhat * scale + beta.data.reshape(shape), (x, gamma, beta),
                 backprop)


def instance_norm_freq(x):
    """Normalize each (sample, channel, frequency-bin) row across time."""
    mu = tmean(x, axis=-1, keepdims=True)
    var = tmean((x - mu) ** 2, axis=-1, keepdims=True)
    return (x - mu) * (var + NORM_EPS) ** -0.5


def residual_norm(x, lam):
    """lam·x plus `instance_norm_freq(x)`, as one node."""
    lam = float(lam)
    xhat, inv, _, _ = _standardize(x.data, -1)

    def backprop(g):
        dx = _standardize_grad(g, xhat, inv, -1)[0]
        dx += g * lam
        return (dx,)

    return _node(x.data * lam + xhat, (x,), backprop)


# -- stochastic / nonlinear ----------------------------------------------------


def _shifted_exp(xd, axis):
    """(z, exp z, Σ exp z) along `axis` for z = x − max x: no exp overflows."""
    z = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return z, e, e.sum(axis=axis, keepdims=True)


def softmax(x, axis=-1):
    """exp z / Σ exp z along `axis`, one node; backward p·(g − Σ g·p)."""
    _, e, total = _shifted_exp(x.data, axis)
    p = e / total

    def backprop(g):
        gp = g * p
        gp -= p * gp.sum(axis=axis, keepdims=True)
        return (gp,)

    return _node(p, (x,), backprop)


def log_softmax(x, axis=-1):
    """z − log Σ exp z along `axis`, one node; backward g − softmax·Σg.
    Finite wherever x is, so a loss on it needs no probability floor."""
    z, _, total = _shifted_exp(x.data, axis)
    out = z - np.log(total)

    def backprop(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _node(out, (x,), backprop)


def dropout(x, p, training, rng=None):
    if not 0.0 <= p < 1.0:
        raise InvalidConfigError(f"dropout probability {p} outside [0, 1)")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise InvalidInputError("training-mode dropout needs an rng")
    return x * ((rng.random(x.shape) >= p) / (1.0 - p))


def multi_head_attention(x, wq, wk, wv, wo, heads):
    """Self-attention over N×S×D input, all heads in one batched pass.

    wq/wk/wv are D×(H·K) projections whose K-wide column blocks are the
    heads, in order; wo is (H·K)×D_out.
    """
    n, s, _ = x.shape
    key_dim = wq.shape[-1] // heads

    def split_heads(w):  # N×S×(H·K) -> N×H×S×K
        return transpose(reshape(matmul(x, w), (n, s, heads, key_dim)),
                         (0, 2, 1, 3))

    q, k, v = split_heads(wq), split_heads(wk), split_heads(wv)
    scores = matmul(q, transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(key_dim))
    out = transpose(matmul(softmax(scores, axis=-1), v), (0, 2, 1, 3))
    return matmul(reshape(out, (n, s, heads * key_dim)), wo)
