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


def relu(a, inplace=False):
    """max(a, 0); a NaN stays NaN. While recording, the node keeps the
    gradient mask out > 0, one byte an entry, and not the output: the
    output is positive exactly where the input is.

    `inplace=True` writes the output into a's own array when nothing
    records (under `no_grad`), where no closure can read that array: only
    for a caller that alone holds `a`, fresh from the op that made it.
    While recording it is ignored and a new array is written."""
    out = np.maximum(a.data, 0,
                     out=a.data if inplace and not _grad_enabled else None)
    mask = out > 0 if _grad_enabled and a.requires_grad else None
    return _node(out, (a,), lambda g: (g * mask,))


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
# bytes that a memory-bound pass (a norm, pooling) works on at a time, two
# channels or channel planes at least (`_blocks`): a block this small stays
# in L2 cache through the pass's several steps
_BLOCK_BYTES = 1 << 20


def _bands(n, ho, row_bytes):
    """(sample, first row, end row) bands that tile the n×ho rows, each a
    run of one sample's rows with at most `_BAND_BYTES` of columns (and at
    least one row); `row_bytes` are one sample's columns for one row."""
    rows = max(1, _BAND_BYTES // row_bytes)
    return [(i, r, min(r + rows, ho))
            for i in range(n) for r in range(0, ho, rows)]


def _blocks(a, axis=0):
    """Slices that tile `a` along `axis`, each of at most `_BLOCK_BYTES` and
    of two indices at least (one only when the axis has one): the blocks of
    channels, or of channel planes, that a memory-bound pass runs one at a
    time. A reduction over a slice of two or more channels of an N×C×H×W
    array sums in the whole array's order; over a single channel numpy may
    merge the batch axis with the plane's and sum in another, so no block
    holds a lone index."""
    count = a.shape[axis]
    step = max(2, _BLOCK_BYTES * count // max(a.nbytes, 1))
    starts = list(range(0, count, step))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return [slice(i, j) for i, j in zip(starts, starts[1:] + [count])]


def _scratch(a, blocks, axis=0):
    """A buffer like `a` but for the largest of `blocks` along `axis`, so
    a blocked pass allocates its temporary once rather than per block."""
    shape = list(a.shape)
    shape[axis] = max(s.stop - s.start for s in blocks)
    return np.empty(shape, dtype=a.dtype)


def _planes(a):
    """The N×C×H×W array `a` as its N·C channel planes, a view when `a` is
    contiguous."""
    return a.reshape(-1, *a.shape[-2:])


def _band_columns(src, taps, rows, width, halo=0):
    """The im2col columns of the N×C×H×W array `src`, one band at a time (see
    `_bands`): yields ((i, r0, r1), columns) for rows r0:r1 of sample i,
    where columns is (C·taps) × ((r1 − r0 + halo)·width) and entry
    (ch, t, r, x) is src[i, ch, dy_t + r0 + r, dx_t + x], or 0 where that
    lies outside src: a band also holds the `halo` rows after its own.
    So the zero border of a padded convolution is written here, tap by tap,
    and no padded copy of `src` is made. Every band is filled into the same
    buffer, so a band's columns are valid until the next one is yielded."""
    n, c, h, w = src.shape
    k = c * len(taps)
    bands = _bands(n, rows, k * width * src.itemsize)
    # the first band is the largest: one buffer serves every band
    _, r0, r1 = bands[0]
    buf = np.empty(k * (r1 - r0 + halo) * width, dtype=src.dtype)
    for band in bands:
        i, r0, r1 = band
        span = r1 - r0 + halo
        cols = buf[: k * span * width].reshape(c, len(taps), span, width)
        for t, (dy, dx) in enumerate(taps):
            # the band's rows a:b and columns p:q lie inside src, every
            # bound clamped to the band; the rest of the tap is border
            a = min(max(-dy - r0, 0), span)
            b = min(max(h - dy - r0, a), span)
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


def _conv_forward(xd, merged, taps, bias, out):
    """`conv2d_sum`'s forward into `out`, the schedule chosen from the shapes
    alone. Each band's columns hold a set of column shifts of the input, and
    the output band is a sum of GEMMs, one per group of taps, each against
    its rows of those columns moved down by the group's row offset.

    By rows of taps: a shift per distinct dx, each band holding the rows
    below it that its lower taps read, and one GEMM per row dy of taps, the
    GEMMs summed in order of dy. This copies a 3×3 kernel's input 3 times
    rather than 9, but each further row of taps costs one pass over the
    output band, so it runs only where the copies saved, (taps − distinct
    dx)·C, outnumber those passes, (rows of taps − 1)·O. Otherwise an
    im2col: every tap a shift, no halo rows and one GEMM."""
    _, c, h, wd = xd.shape
    o = merged.shape[0]
    dxs = sorted({dx for _, dx in taps})
    top, halo, n_dx = taps[0][0], taps[-1][0] - taps[0][0], len(dxs)
    if (len(taps) - n_dx) * c > halo * o:
        shifts = [(top, dx) for dx in dxs]
        groups = []  # (dy − top, rows of the columns, weight over those rows)
        for dy in range(top, taps[-1][0] + 1):
            row = [(dxs.index(dx), t) for t, (ty, dx) in enumerate(taps)
                   if ty == dy]
            if len(row) == 1:  # one tap: each channel's column of that dx
                (j, t), = row
                groups.append((dy - top, slice(j, None, n_dx),
                               np.ascontiguousarray(merged[:, :, t])))
            elif row:  # a dx the row lacks gets zero weight
                w = np.zeros((o, c, n_dx), dtype=merged.dtype)
                for j, t in row:
                    w[:, :, j] = merged[:, :, t]
                groups.append((dy - top, slice(None), w.reshape(o, -1)))
    else:
        shifts, halo = taps, 0
        groups = [(0, slice(None), merged.reshape(o, -1))]
    buf = None
    for (i, r0, r1), cols in _band_columns(xd, shifts, h, wd, halo):
        # a view: a band's rows of one channel are contiguous in `out`
        band = out[i, :, r0:r1].reshape(o, -1)
        span = band.shape[1]
        for g, (down, rows, w) in enumerate(groups):
            moved = cols[rows, down * wd : down * wd + span]
            if g == 0:
                np.matmul(w, moved, out=band)
                continue
            if buf is None:  # the first band is the largest
                buf = np.empty(band.size, dtype=out.dtype)
            band += np.matmul(w, moved, out=buf[: band.size].reshape(o, span))
        if bias is not None:
            band += bias  # while the GEMM's output is still in cache


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

    The kernels' taps sit at offsets from the output position. Summed per
    offset, the kernels' weights make one merged kernel over the union of
    those offsets, whose convolution is the sum of the separate ones; each
    kernel's gradient is its own taps' slice of the merged weight gradient.
    The forward runs the merged kernel by `_conv_forward`, which picks an
    im2col or a schedule by rows of taps from the shapes alone, so a
    recording and a non-recording forward give the same bytes. All columns
    are built one band at a time by `_band_columns`, a band being a run of
    one sample's rows, so every GEMM is 2-d and no node keeps any columns
    for its backward. The same function writes the zero border: a tap that
    falls outside the array it reads gets zeros, so no padded copy of the
    input or of the gradient is made.

    The backward lays out im2col columns of the output gradient over the
    input's positions, one band of a sample's input rows at a time: entry
    (o, tap, y, x) is g[i, o, y - dy, x - dx], zero outside g. Against the
    merged weight, as C × (O·taps), they give the band's input gradient in
    one GEMM, and against the band's input the weight gradient in another,
    so the input's columns are never rebuilt and nothing is scattered. A node
    whose input is a constant needs only the weight gradient, which it
    gets from its input's columns, built again band by band.
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
    bias = sum(b.data for b in biases).reshape(o, 1) if biases else None
    out = np.empty((n, o, h, wd), dtype=np.result_type(merged.dtype, xd.dtype))
    _conv_forward(xd, merged, taps, bias, out)

    def backprop(g):
        if x_needs:
            w_r = merged.transpose(1, 0, 2).reshape(c, -1)
            gx = np.empty(xd.shape, dtype=g.dtype)
            gw = np.zeros((o * len(taps), c), dtype=g.dtype)
            flipped = [(-dy, -dx) for dy, dx in taps]
            for (i, r0, r1), gc in _band_columns(g, flipped, h, wd):
                # a view, as in the forward
                np.matmul(w_r, gc, out=gx[i, :, r0:r1].reshape(c, -1))
                gw += gc @ xd[i, :, r0:r1].reshape(c, -1).T
            gw = gw.reshape(o, len(taps), c).transpose(0, 2, 1)
        else:
            gx = None
            gw = np.zeros((o, k), dtype=g.dtype)
            for (i, r0, r1), cols in _band_columns(xd, taps, h, wd):
                gw += g[i, :, r0:r1].reshape(o, -1) @ cols.T
            gw = gw.reshape(o, c, len(taps))
        gws = [gw[:, :, slot].reshape(shape)
               for shape, slot in zip(w_shapes, slots)]
        gb = g.reshape(n, o, -1).sum(axis=(0, 2)) if n_biases else None
        gbs = [gb.copy() for _ in range(n_biases)]
        return (gx, *gws, *gbs)

    return _node(out, (x, *weights, *biases), backprop)


def pool2d(x, mode):
    """2×2 pooling with stride 2 over the two trailing axes; an odd last
    row or column is dropped.

    avg sums the window in row-major order, starting from 0 as numpy's
    mean does, and divides by 4; max passes the gradient to the first
    maximum in row-major order, as argmax does. Average pooling's forward
    and both backwards run by blocks of channel planes (`_blocks`).
    """
    shape = x.shape
    n, c, h, wd = shape
    if h < 2 or wd < 2:
        raise InvalidConfigError(f"2x2 pool window exceeds input {(h, wd)}")
    ho, wo = h // 2, wd // 2
    xd = x.data
    # the four window positions, in row-major order
    corners = [(slice(i, 2 * ho, 2), slice(j, 2 * wo, 2))
               for i in (0, 1) for j in (0, 1)]

    if mode == "avg":
        planes = _planes(xd)
        out = np.empty((n, c, ho, wo), dtype=np.result_type(xd.dtype, 0.0))
        pooled = _planes(out)
        for s in _blocks(planes):
            block, sums = planes[s], pooled[s]
            windows = [block[:, rows, columns] for rows, columns in corners]
            np.add(windows[0], 0.0, out=sums)
            for part in windows[1:]:
                sums += part
            sums /= 4

        def shares(g, s):
            share = g / 4
            share += 0.0
            yield from [share] * 4

    elif mode == "max":
        parts = [xd[:, :, rows, columns] for rows, columns in corners]
        out = np.maximum(parts[0], parts[1])
        np.maximum(out, parts[2], out=out)
        np.maximum(out, parts[3], out=out)
        # the first k whose element equals the maximum, which only a
        # backward reads: ne0·(1 + ne1·(1 + ne2)) in int8, with
        # ne_k = (part_k != out)
        first = None
        if _grad_enabled and x.requires_grad:
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
            if first is not None:
                first[at] = pick

        def shares(g, s):
            g, block = g + 0.0, _planes(first)[s]
            for k in range(4):
                yield np.where(block == k, g, 0)

    else:
        raise InvalidConfigError(f"unknown pool mode {mode!r}")

    # each corner's share of g is assigned rather than summed into zeros:
    # + 0.0 turns a -0.0 into the 0.0 that such a sum gives. The shares of
    # a block come one at a time, and none is held once assigned
    def backprop(g):
        gx = np.empty(shape, dtype=g.dtype)
        gx_planes, g_planes = _planes(gx), _planes(g)
        for s in _blocks(gx_planes):
            block = gx_planes[s]
            for (rows, columns), share in zip(corners, shares(g_planes[s], s)):
                block[:, rows, columns] = share
            block[:, 2 * ho :] = 0
            block[:, :, 2 * wo :] = 0
        return (gx,)

    return _node(out, (x,), backprop)


# -- normalizations ------------------------------------------------------------


def _standardize(xd, axes, xhat=None, squares=None):
    """(xhat, 1/σ, mean, var) of xd over `axes`, with the biased variance
    and xhat = (x - mean)·(var + NORM_EPS)^-½, by the same array expressions,
    and so to the same bytes, as the tmean/power composite in
    `instance_norm_freq`. xhat is written into `xhat` and the squared
    deviations, whose sum is the variance, into `squares`, where given."""
    total = xd.sum(axis=axes, keepdims=True)
    mu = total * (total.size / xd.size)
    diff = np.subtract(xd, mu, out=xhat)
    total = np.square(diff, out=squares).sum(axis=axes, keepdims=True)
    var = total * (total.size / xd.size)
    inv = (var + NORM_EPS) ** -0.5
    diff *= inv
    return diff, inv, mu, var


def _standardize_grad(g, xhat, inv, axes, scale, dx):
    """(Σg·xhat, Σg) for output gradient g of scale·xhat, with the input
    gradient through `_standardize` written into `dx`; the two sums over
    `axes` are also the gradients of the scale and of a shift added after
    it."""
    m = g.size / inv.size
    sg = g.sum(axis=axes, keepdims=True)
    np.multiply(g, xhat, out=dx)
    sgx = dx.sum(axis=axes, keepdims=True)
    # dx = scale·inv·(g − Σg/m − xhat·Σg·xhat/m), in the one buffer
    np.multiply(xhat, sgx / m, out=dx)
    dx += sg / m
    np.subtract(g, dx, out=dx)
    dx *= scale * inv
    return sgx, sg


def batch_norm(x, gamma, beta, running_mean, running_var, relu=False):
    """Training-mode batch normalization over an N×C×F×T tensor, one node;
    with `relu`, a ReLU of its output in the same node.

    Normalizes by the batch's own statistics and updates the plain arrays
    `running_mean`/`running_var` in place (biased batch variance,
    new = (1 − m)·old + m·batch with m = BN_MOMENTUM). Eval mode reads
    the running statistics only where `model` folds them into the
    preceding convolution.

    Forward and backward run by blocks of channels (`_blocks`), each pass
    over a block while it is in cache. The node keeps xhat and no output:
    its backward takes the ReLU's mask from xhat·γ + β > 0, the very
    expression the forward thresholds.
    """
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise InvalidInputError("batch_norm affine parameters must have length C")
    shape = (1, c, 1, 1)
    scale, shift = gamma.data.reshape(shape), beta.data.reshape(shape)
    axes = (0, 2, 3)
    xd = x.data
    xhat = np.empty(xd.shape, dtype=np.result_type(xd.dtype, 0.0))
    out = np.empty(xd.shape, dtype=np.result_type(xhat, scale, shift))
    blocks = _blocks(xd, axis=1)
    stats = []
    for s in blocks:
        # the squares go to the output's block, which they precede
        _, inv, mu, var = _standardize(xd[:, s], axes, xhat[:, s], out[:, s])
        y = np.multiply(xhat[:, s], scale[:, s], out=out[:, s])
        y += shift[:, s]
        if relu:
            np.maximum(y, 0, out=y)
        stats.append((inv, mu, var))
    inv, mu, var = (np.concatenate(a, axis=1) for a in zip(*stats))
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mu.reshape(c)
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * var.reshape(c)

    def backprop(g):
        dx = np.empty(g.shape, dtype=np.result_type(g, xhat))
        scratch = _scratch(dx, blocks, axis=1) if relu else None
        sums = []
        for s in blocks:
            gs = g[:, s]
            if relu:
                # the gradient the ReLU passes, for its own output xhat·γ + β
                pre = scratch[:, : s.stop - s.start]
                np.multiply(xhat[:, s], scale[:, s], out=pre)
                pre += shift[:, s]
                gs = np.multiply(gs, pre > 0, out=pre)
            sums.append(_standardize_grad(gs, xhat[:, s], inv[:, s], axes,
                                          scale[:, s], dx[:, s]))
        sgx, sg = (np.concatenate(a, axis=1).reshape(c) for a in zip(*sums))
        return dx, sgx, sg

    return _node(out, (x, gamma, beta), backprop)


def instance_norm_freq(x):
    """Normalize each (sample, channel, frequency-bin) row across time."""
    mu = tmean(x, axis=-1, keepdims=True)
    var = tmean((x - mu) ** 2, axis=-1, keepdims=True)
    return (x - mu) * (var + NORM_EPS) ** -0.5


def residual_norm(x, lam):
    """lam·x plus `instance_norm_freq(x)`, as one node, by blocks of channel
    planes (`_blocks`). Only while recording does it keep a full-size xhat,
    which its backward reads; otherwise xhat is formed in the output."""
    lam = float(lam)
    xd = x.data
    out = np.empty(xd.shape, dtype=np.result_type(xd.dtype, 0.0))
    xhat = np.empty_like(out) if _grad_enabled and x.requires_grad else out
    planes, out_planes, xhat_planes = _planes(xd), _planes(out), _planes(xhat)
    blocks = _blocks(planes)
    scratch = _scratch(out_planes, blocks)
    invs = []
    for s in blocks:
        part = scratch[: s.stop - s.start]
        invs.append(_standardize(planes[s], -1, xhat_planes[s], part)[1])
        np.add(np.multiply(planes[s], lam, out=part), xhat_planes[s],
               out=out_planes[s])
    inv = np.concatenate(invs)

    def backprop(g):
        dx = np.empty(g.shape, dtype=np.result_type(g, xhat))
        g_planes, dx_planes = _planes(g), _planes(dx)
        scratch = _scratch(dx_planes, blocks)
        for s in blocks:
            _standardize_grad(g_planes[s], xhat_planes[s], inv[s], -1, 1.0,
                              dx_planes[s])
            dx_planes[s] += np.multiply(g_planes[s], lam,
                                        out=scratch[: s.stop - s.start])
        return (dx,)

    return _node(out, (x,), backprop)


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
    # the float64 draws decide; the mask is built in x's dtype
    scale = np.asarray(1.0 / (1.0 - p), dtype=x.data.dtype)
    return x * np.multiply(rng.random(x.shape) >= p, scale, dtype=scale.dtype)


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
