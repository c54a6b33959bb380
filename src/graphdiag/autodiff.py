"""Minimal reverse-mode automatic differentiation on numpy float64 arrays.

Every differentiable quantity is a Tensor holding a value array and, after
backward(), a gradient of the same shape.  Ops are free functions that record
a closure computing the parent gradients from the output gradient.  The op
set is what the model layers need: dense linear algebra (matmul, with an
optional bias and ReLU applied to its output in place, so a dense layer is
one node that keeps one array), propagation through a constant sparse graph
operator, pointwise nonlinearities, edge-list gather / scatter / segment
ops, GAT attention as one fused op (gat_aggregate: scores, segment softmax
and weighted neighbour sum, with a hand-written backward by sparse products
that forms no per-edge gradient), 1-d convolution
(conv1d: per-tap GEMMs over cache-sized row blocks of the batch, broadcast
products when Fin == 1, and an optional bias, ReLU and max pooling applied
to each block in cache, so a conv layer is one node that keeps one array,
plus a uint8 argmax offset when it pools) and max pooling (maxpool1d: a
running maximum that keeps no index array; the backward finds the first
argmax from the input), both with the bytes of the plain per-tap and argmax
loops, and the losses: cross-entropy, binary cross-entropy over a matrix of
probabilities (bce_matrix), the GAE inner-product decoder's binary
cross-entropy taken from the embedding Z in the row blocks of
inner_product_blocks, the walk that refinement scores with too, so no program
path forms an N x N array (inner_product_bce), and mean squared error.  No layer
calls leaky_relu, exp, segment_sum, repeat_segments or maxpool1d since GAT
became one op and conv1d took the pooling; they stay exported because the
benchmark's per-layer metrics time them by name.  Ops skip the gradient of
a parent that requires none where it costs a product (matmul, conv1d).
Inside `with no_grad():` ops record nothing, for forward-only passes.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = [
    "Tensor", "Parameter", "SegmentIndex", "GatherPlan",
    "add", "sub", "mul", "div", "neg", "matmul", "propagate", "transpose", "reshape",
    "concat", "relu", "leaky_relu", "sigmoid", "exp", "log",
    "conv1d", "maxpool1d", "sum_", "mean_",
    "take_rows", "put_rows", "segment_sum", "repeat_segments", "segment_max", "gat_aggregate",
    "cross_entropy", "bce_matrix", "BceTarget", "inner_product_bce", "mse_matrix", "grad_check",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    # arithmetic sugar
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __neg__(self):
        return neg(self)

    def backward(self, seed=None):
        """Accumulate gradients of this (scalar unless seeded) tensor's parents."""
        if seed is None:
            if self.data.size != 1:
                raise ShapeError(
                    f"backward() without seed requires a scalar, got shape {self.data.shape}")
            seed = np.ones_like(self.data)
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        grads = {id(self): np.asarray(seed, dtype=np.float64)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                # leaf: accumulate into .grad
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg


class Parameter(Tensor):
    """A named leaf tensor trained by an optimizer."""

    __slots__ = ("name",)

    def __init__(self, data, name=""):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


_recording = True


@contextlib.contextmanager
def no_grad():
    """Build no autodiff graph inside the block: outputs are plain constants."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _node(data, parents, backward):
    if _recording and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward)
    return Tensor(data)


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data
    return _node(out, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data
    return _node(out, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data
    return _node(out, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.data.shape),
                            _unbroadcast(g * a.data, b.data.shape)))


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data / b.data
    return _node(out, (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.data.shape),
                            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))


def neg(a):
    a = _as_tensor(a)
    return _node(-a.data, (a,), lambda g: (-g,))


# ---------------------------------------------------------------------------
# linear algebra and shape ops

def matmul(a, b, bias=None, relu=False):
    """a @ b where b is a 2-d matrix; a may carry leading batch axes.

    An optional epilogue adds `bias` (Fout,) in place, then, with `relu`,
    multiplies by (out > 0) in place: the expressions of
    relu(add(matmul(a, b), bias)), so the bytes are that composition's, but
    one array is kept in place of three and a mask.  The backward takes
    g * (out > 0), which holds exactly where the sum before the ReLU is > 0.
    A parent that requires no gradient gets None.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if b.ndim != 2:
        raise ShapeError(f"matmul right operand must be 2-d, got {b.data.shape}")
    if a.ndim < 2:
        raise ShapeError(f"matmul left operand must be >=2-d, got {a.data.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} vs {b.data.shape}")
    parents = (a, b)
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.data.shape != (b.data.shape[1],):
            raise ShapeError(f"matmul bias must be ({b.data.shape[1]},), got {bias.data.shape}")
        parents = (a, b, bias)
    out = a.data @ b.data
    if bias is not None:
        out += bias.data
    if relu:
        np.multiply(out, out > 0, out=out)

    def backward(g):
        if relu:
            g = g * (out > 0)
        da = g @ b.data.T if a.requires_grad else None
        db = None
        if b.requires_grad:
            a2 = a.data.reshape(-1, a.data.shape[-1])
            db = a2.T @ g.reshape(-1, b.data.shape[1])
        if bias is None:
            return da, db
        return da, db, _unbroadcast(g, bias.data.shape)

    return _node(out, parents, backward)


def propagate(s, x):
    """s @ x over the leading (node) axis for a constant matrix s, usually sparse.

    x is (n, ...) and the result (m, ...) keeps x's trailing axes.  Only x
    gets a gradient, s.T @ g: the constant s never costs a dense gradient.
    """
    x = _as_tensor(x)
    if x.ndim < 1 or s.shape[1] != x.data.shape[0]:
        raise ShapeError(f"propagate operator {s.shape} does not fit operand {x.data.shape}")
    n, m = s.shape[1], s.shape[0]
    out = (s @ x.data.reshape(n, -1)).reshape((m,) + x.data.shape[1:])
    st = s.T
    return _node(out, (x,), lambda g: ((st @ g.reshape(m, -1)).reshape(x.data.shape),))


def transpose(a, axes):
    a = _as_tensor(a)
    inv = np.argsort(axes)
    return _node(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def reshape(a, shape):
    a = _as_tensor(a)
    orig = a.data.shape
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _node(out, tuple(tensors), lambda g: tuple(np.split(g, splits, axis=axis)))


# ---------------------------------------------------------------------------
# pointwise nonlinearities

def relu(a):
    a = _as_tensor(a)
    mask = a.data > 0
    return _node(a.data * mask, (a,), lambda g: (g * mask,))


def leaky_relu(a, slope=0.2):
    a = _as_tensor(a)
    mask = a.data > 0
    scale = np.where(mask, 1.0, slope)
    return _node(a.data * scale, (a,), lambda g: (g * scale,))


def sigmoid(a):
    a = _as_tensor(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    return _node(s, (a,), lambda g: (g * s * (1.0 - s),))


def exp(a):
    a = _as_tensor(a)
    e = np.exp(a.data)
    return _node(e, (a,), lambda g: (g * e,))


def log(a):
    a = _as_tensor(a)
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


# ---------------------------------------------------------------------------
# reductions

def sum_(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _node(out, (a,), backward)


def mean_(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# 1-d convolution / pooling (valid padding, channels-last)

# output (or output-gradient) elements per row block of conv1d: a block takes
# all K taps while it is in cache
CONV_BLOCK_ELEMENTS = 32768


def conv1d(signal, kernel, stride=1, bias=None, relu=False, pool=1):
    """Valid cross-correlation.  signal: (B, T, Fin), kernel: (K, Fin, Fout).

    Each output element is summed as 0 + tap 0 + tap 1 + ..., where tap k is
    x[:, k::stride] @ w[k], one GEMM per sample.  The taps run over row blocks
    of the batch, CONV_BLOCK_ELEMENTS output elements each, so a block takes
    all K taps while it is in cache; a tap is the same GEMM on every block
    size, so the bytes do not depend on the blocking (except the sign of a
    NaN summed from NaNs of both signs, which numpy's add loops may pick
    either way).  With Fin == 1 a tap is a broadcast product, summed in a
    feature-major block (inner loops of length Tout).  The backward blocks dx
    the same way; dw is one GEMM per tap.

    An optional epilogue runs on each block while it is still in cache: add
    `bias` (Fout,), then, with `relu`, multiply by (out > 0), then, with
    `pool` > 1, max-pool windows of `pool` steps along time (the trailing
    remainder dropped), so the result is (B, Tout // pool, Fout).  These are
    the expressions of maxpool1d(relu(add(conv1d(x, w), bias)), pool), so the
    bytes are that composition's, signed zeros and NaNs included, but one
    array is kept in place of four or five; a pooled conv also keeps each
    window's first-argmax offset as uint8, and no (B, Tout, Fout) array
    outlives its block.  The backward sends g to those offsets (+0.0
    elsewhere), recomputes the ReLU mask as out > 0, which holds exactly
    where the sum before the ReLU is > 0, and sums dbias over the batch,
    then time, as add's backward does.  A parent that requires no gradient
    gets None.
    """
    x, w = _as_tensor(signal), _as_tensor(kernel)
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError(f"conv1d expects (B,T,Fin) and (K,Fin,Fout), got {x.data.shape} and {w.data.shape}")
    if x.data.shape[2] != w.data.shape[1]:
        raise ShapeError(f"conv1d channel mismatch: {x.data.shape} vs {w.data.shape}")
    B, T, Fin = x.data.shape
    K, _, Fout = w.data.shape
    if T < K:
        raise ShapeError(f"conv1d signal length {T} shorter than kernel {K}")
    parents = (x, w)
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.data.shape != (Fout,):
            raise ShapeError(f"conv1d bias must be ({Fout},), got {bias.data.shape}")
        parents = (x, w, bias)
    Tout = (T - K) // stride + 1
    if pool < 1:
        raise ShapeError(f"conv1d pool window {pool} is below 1")
    if pool > Tout:
        raise ShapeError(f"conv1d pool window {pool} exceeds output length {Tout}")
    span = stride * Tout
    rows = max(1, CONV_BLOCK_ELEMENTS // max(1, Tout * Fout))
    offsets = None
    if pool > 1:
        out = np.empty((B, Tout // pool, Fout))
        block = np.empty((min(rows, B), Tout, Fout))
        # the offsets serve only the backward
        if _recording and any(p.requires_grad for p in parents):
            offsets = np.empty(out.shape, np.uint8)
    else:
        out = np.empty((B, Tout, Fout))
    if Fin == 1:
        xs = x.data[:, :, 0]
        wk = w.data[:, 0, :, None]                      # (K, Fout, 1)
        acc = np.empty((min(rows, B), Fout, Tout))
        tap = np.empty_like(acc)

    for a in range(0, B, rows):
        b = min(B, a + rows)
        ob = block[:b - a] if pool > 1 else out[a:b]
        if Fin == 1:
            ac, tp = acc[:b - a], tap[:b - a]
            np.multiply(xs[a:b, None, :span:stride], wk[0], out=ac)
            for k in range(1, K):
                np.multiply(xs[a:b, None, k:k + span:stride], wk[k], out=tp)
                ac += tp
            # + 0.0 turns a -0.0 sum into the +0.0 of a sum started at 0; it
            # comes before the bias, as (-0.0 + 0.0) + -0.0 is +0.0 but
            # -0.0 + -0.0 is -0.0
            np.add(ac.transpose(0, 2, 1), 0.0, out=ob)
        else:
            ob.fill(0.0)
            xb = x.data[a:b]
            for k in range(K):
                ob += xb[:, k:k + span:stride] @ w.data[k]
        if bias is not None:
            ob += bias.data
        if relu:
            np.multiply(ob, ob > 0, out=ob)
        if pool > 1:
            _window_max(ob, pool, out[a:b])
            if offsets is not None:
                _first_hits(ob, out[a:b], pool, offsets[a:b])

    def backward(g):
        if relu:
            g = g * (out > 0)
        if pool > 1:
            g = _unpool(g, offsets, pool, Tout)
        g2 = g.reshape(-1, Fout)
        dw = None
        if w.requires_grad:
            dw = np.empty_like(w.data)
            for k in range(K):
                dw[k] = x.data[:, k:k + span:stride].reshape(-1, Fin).T @ g2
        dx = None
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            for a in range(0, B, rows):
                gb, dxb = g[a:a + rows], dx[a:a + rows]
                for k in range(K):
                    dxb[:, k:k + span:stride] += gb @ w.data[k].T
        if bias is None:
            return dx, dw
        return dx, dw, g.sum(axis=0).sum(axis=0)

    return _node(out, parents, backward)


def _window_max(x, window, out):
    """Max of each non-overlapping time window of x (B, T, F), written to out.

    out is (B, Tout, F) with Tout * window <= T; the remainder is ignored.
    For F > 1 it is a running np.maximum over the window offsets, so a NaN
    entry wins over numbers and the first NaN's bytes are kept.
    """
    B, Tout, F = out.shape
    span = Tout * window
    if F == 1:
        # numpy reduces along the window here, and a NaN comes out with
        # other bytes than the running maximum gives.  Only for those bytes:
        # no model pools at F == 1 (STGCN pools at 8, Cnn1d at 16), and at
        # F == 8 the running maximum is 2-4x faster than this reduction
        np.max(x[:, :span].reshape(B, Tout, window, F), axis=2, out=out)
    else:
        np.copyto(out, x[:, :span:window])
        for j in range(1, window):
            np.maximum(out, x[:, j:span:window], out=out)
    return out


def _first_hits(x, out, window, first):
    """Write to `first` the offset in its window of each max in out.

    That is the window's first entry equal to the max, or its first NaN,
    counted as the number of leading entries that miss.  Every window has
    a hit: a max is one of its entries, and a NaN max comes from a NaN
    entry, which equals nothing.
    """
    span = out.shape[1] * window
    nan = np.isnan(out).any()
    first.fill(0)
    run = np.ones(out.shape, bool)           # no hit yet in offsets 0..j
    for j in range(window - 1):
        run &= x[:, j:span:window] != out
        if nan:
            run &= ~np.isnan(x[:, j:span:window])
        first += run
    return first


def _unpool(g, offsets, window, length):
    """g (B, Tout, F) at each window's offset in a (B, length, F) array of +0.0."""
    B, Tout, F = g.shape
    dx = np.zeros((B, length, F))
    # splitting the time axis gives a view, so the put writes into dx
    windows = dx[:, :Tout * window].reshape(B, Tout, window, F)
    np.put_along_axis(windows, offsets[:, :, None, :], g[:, :, None, :], axis=2)
    return dx


def maxpool1d(signal, window):
    """Non-overlapping max pooling along the time axis; trailing remainder dropped.

    The forward is a running np.maximum over the window offsets and keeps no
    index array.  The backward finds each window's first argmax anew from
    the input: the first offset whose value equals the max, or the first
    NaN.  g goes there, and every other entry, the remainder included, gets
    +0.0.  conv1d(..., pool=window) pools by the same two rules.
    """
    x = _as_tensor(signal)
    if x.ndim != 3:
        raise ShapeError(f"maxpool1d expects (B,T,F), got {x.data.shape}")
    B, T, F = x.data.shape
    Tout = T // window
    if Tout == 0:
        raise ShapeError(f"maxpool1d window {window} exceeds length {T}")
    out = _window_max(x.data, window, np.empty((B, Tout, F)))

    def backward(g):
        first = _first_hits(x.data, out, window, np.empty(out.shape, np.uint8))
        return (_unpool(g, first, window, T),)

    return _node(out, (x,), backward)


# ---------------------------------------------------------------------------
# gather / scatter / segment ops (edge-list message passing)

def _summing_matrix(rows, n_rows):
    """CSR 0/1 matrix m of shape (n_rows, len(rows)) with m[rows[e], e] = 1.

    m @ g adds each row g[e] into output row rows[e]; rows no entry names
    stay zero.
    """
    # scipy.sparse takes ~0.2 s to import; only the edge-list ops need it
    from scipy import sparse

    rows = np.asarray(rows, dtype=np.intp)
    cols = np.arange(len(rows))
    return sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n_rows, len(rows)))


def _sum_rows(m, g):
    """m @ g over g's leading axis; the trailing axes of g are kept."""
    flat = g.reshape(g.shape[0], int(np.prod(g.shape[1:])))
    return (m @ flat).reshape((m.shape[0],) + g.shape[1:])


class GatherPlan:
    """Precomputed scatter-add for the backward pass of take_rows.

    The gradient of a[idx] adds row e of g into row idx[e].  One 0/1 summing
    matrix, built with the plan, does that as a single sparse matmul, which
    on ~1e5-edge graphs is far faster than np.add.at.
    """

    def __init__(self, idx, n_rows):
        self.matrix = _summing_matrix(idx, n_rows)

    def scatter_add(self, g):
        return _sum_rows(self.matrix, g)


def take_rows(a, idx, plan=None):
    """Row gather a[idx]; backward scatter-adds (via `plan` when supplied)."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)

    def backward(g):
        if plan is not None:
            return (plan.scatter_add(g),)
        da = np.zeros_like(a.data)
        np.add.at(da, idx, g)
        return (da,)

    return _node(a.data[idx], (a,), backward)


def put_rows(a, idx, n_rows):
    """Place rows a[k] at positions idx[k] of an n_rows output; rest zero."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = np.zeros((n_rows,) + a.data.shape[1:])
    out[idx] = a.data
    return _node(out, (a,), lambda g: (g[idx],))


class SegmentIndex:
    """Contiguous segments of a row-sorted edge array.

    `starts[k]` is the offset of segment k; all segments are non-empty.
    """

    def __init__(self, starts, total):
        self.starts = np.asarray(starts, dtype=np.intp)
        self.total = int(total)
        ends = np.concatenate((self.starts[1:], [self.total]))
        self.lengths = ends - self.starts
        if np.any(self.lengths <= 0):
            raise ShapeError("SegmentIndex segments must be non-empty")
        # the 0/1 summing matrix (n_segments, total), built with the index: an
        # index cached per graph then holds it from before the first epoch's
        # large temporaries, and later runs on the graph keep the same peak RSS
        self.matrix = _summing_matrix(np.repeat(np.arange(len(self.starts)), self.lengths),
                                      len(self.starts))

    @classmethod
    def from_sorted_ids(cls, sorted_ids):
        sorted_ids = np.asarray(sorted_ids, dtype=np.intp)
        boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
        starts = np.concatenate(([0], boundaries))
        return cls(starts, len(sorted_ids))


def segment_sum(a, seg):
    """Sum rows within each segment: (E, ...) -> (n_segments, ...)."""
    a = _as_tensor(a)
    out = _sum_rows(seg.matrix, a.data)
    return _node(out, (a,), lambda g: (np.repeat(g, seg.lengths, axis=0),))


def repeat_segments(a, seg):
    """Inverse-shape op of segment_sum: broadcast one row per segment back to E rows."""
    a = _as_tensor(a)
    out = np.repeat(a.data, seg.lengths, axis=0)
    return _node(out, (a,), lambda g: (_sum_rows(seg.matrix, g),))


def segment_max(a, seg):
    """Elementwise max within each segment; gradient to the first argmax row."""
    a = _as_tensor(a)
    out = np.maximum.reduceat(a.data, seg.starts, axis=0)
    shape = a.data.shape
    flat = a.data.reshape(len(a.data), -1)
    local = np.repeat(out.reshape(len(out), -1), seg.lengths, axis=0)
    winner = flat == local
    # first winner per (segment, column): within-segment cumulative count == 1
    cs = np.cumsum(winner, axis=0)
    prev = np.zeros_like(cs)
    prev[seg.starts[1:]] = cs[seg.starts[1:] - 1]
    np.maximum.accumulate(prev, axis=0, out=prev)
    firsts = winner & ((cs - prev) == 1)

    def backward(g):
        grepeat = np.repeat(g.reshape(len(g), -1), seg.lengths, axis=0)
        da = np.where(firsts, grepeat, 0.0)
        return (da.reshape(shape),)

    return _node(out, (a,), backward)


# ---------------------------------------------------------------------------
# graph attention (one fused node)

def gat_attention(xp, a_self, a_nbr, ei, slope):
    """GAT attention over an edge index, on plain arrays; records nothing.

    xp is (N, H, C) and a_self, a_nbr are (H, C).  `ei.seg` splits the
    edges into one non-empty segment per destination node `ei.dst`, which
    are sorted node ids (every node, or a subset); `ei.src` is each edge's
    source and `ei.edge_dst` its segment.  With s = (xp * a).sum(-1), edge
    (i, j) scores LeakyReLU(s_self[i] + s_nbr[j]) with slope in [0, 1], and
    alpha is the softmax of the scores within each segment, shifted by the
    segment max.  Returns alpha and the LeakyReLU's derivative per edge
    (1 or slope), each (H, E): the scores run head by head over contiguous
    (E,) rows.  It is not an op, so it is not in __all__.
    """
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"LeakyReLU slope must lie in [0, 1], got {slope}")
    seg, src, edge_dst = ei.seg, ei.src, ei.edge_dst
    s_self = (xp[ei.dst] * a_self).sum(axis=2).T.copy()
    s_nbr = (xp * a_nbr).sum(axis=2).T.copy()
    alpha = np.empty((xp.shape[1], seg.total))
    scale = np.empty_like(alpha)
    for h, e in enumerate(alpha):
        raw = np.take(s_self[h], edge_dst) + np.take(s_nbr[h], src)
        # max(True, slope) = 1 and max(False, slope) = slope, without np.where's branches
        np.maximum(raw > 0, slope, out=scale[h])
        np.multiply(raw, scale[h], out=e)
        e -= np.take(np.maximum.reduceat(e, seg.starts), edge_dst)
        np.exp(e, out=e)
        e /= np.take(seg.matrix @ e, edge_dst)
    return alpha, scale


def _rowwise_dot(a, b, out=None):
    """<a[k], b[k]> for each row k of two (K, C) arrays."""
    return np.einsum("kc,kc->k", a, b, out=out)


def gat_aggregate(xp, a_self, a_nbr, ei, slope):
    """GAT neighbour sum out[k] = sum_j alpha_ij xp[j], i = ei.dst[k], as one
    op: (N, H, C) -> (len(ei.dst), H, C).

    alpha is gat_attention's.  The sum is one CSR matmul per head over the
    edge pattern with alpha[h] as data, so no (E, H, C) message tensor is
    built.  The hand-written backward forms no per-edge gradient either:
    with beta = alpha * scale (scale 1 or the slope), B the pattern with
    beta[h] as data and g the output gradient, each head's score gradients
    are sparse products,

        c_i       = sum_e alpha_e dalpha_e = <g_i, out_i>
        ds_self_i = <g_i, P_i[:C]> - c_i P_i[C],   P = B [xp | 1],
        ds_nbr_j  = <Q_j[:C], xp_j> - Q_j[C],     Q = B^T [g | c],

    and dxp sends g back through the transposed pattern with alpha[h] as
    data.  The score gradients reach xp, a_self and a_nbr through the
    attention vectors, the self scores' into the `dst` rows.
    """
    from scipy import sparse

    xp, a_self, a_nbr = _as_tensor(xp), _as_tensor(a_self), _as_tensor(a_nbr)
    seg, src = ei.seg, ei.src
    if (xp.ndim != 3 or a_self.data.shape != xp.data.shape[1:]
            or a_nbr.data.shape != a_self.data.shape):
        raise ShapeError(f"gat_aggregate expects (N, H, C) features and (H, C) attention "
                         f"vectors, got {xp.data.shape}, {a_self.data.shape}, {a_nbr.data.shape}")
    n, heads, channels = xp.data.shape
    dst = ei.dst
    if ei.n != n or len(seg.starts) != len(dst) or seg.total != len(src):
        raise ShapeError(f"edge index into {len(dst)} of {ei.n} nodes over {len(src)} edges "
                         f"does not fit features of {n} nodes")
    alpha, scale = gat_attention(xp.data, a_self.data, a_nbr.data, ei, slope)
    # one CSR over the edge pattern; each head swaps in its row of alpha as data
    weights = sparse.csr_matrix((alpha[0], src, np.append(seg.starts, seg.total)),
                                shape=(len(dst), n))
    out = np.empty((len(dst), heads, channels))
    for h in range(heads):
        weights.data = alpha[h]
        out[:, h] = weights @ xp.data[:, h]

    def backward(g):
        x = xp.data
        dxp = np.empty_like(x)
        ds_self = np.empty((len(dst), heads))
        ds_nbr = np.empty((n, heads))
        g_c = np.empty((len(dst), channels + 1))        # [g_h | c_h]
        x_1 = np.ones((n, channels + 1))                # [x_h | 1]
        transposed = weights.T
        for h in range(heads):
            g_h = g[:, h]
            x_1[:, :channels] = x[:, h]
            transposed.data = alpha[h]
            dxp[:, h] = transposed @ g_h
            weights.data = transposed.data = alpha[h] * scale[h]
            g_c[:, :channels] = g_h
            c = _rowwise_dot(g_h, out[:, h], out=g_c[:, channels])
            p = weights @ x_1
            ds_self[:, h] = _rowwise_dot(g_h, p[:, :channels]) - c * p[:, channels]
            q = transposed @ g_c
            ds_nbr[:, h] = _rowwise_dot(q[:, :channels], x[:, h]) - q[:, channels]
        step = ds_nbr[:, :, None] * a_nbr.data
        step[dst] += ds_self[:, :, None] * a_self.data
        dxp += step
        return (dxp, np.einsum("nh,nhc->hc", ds_self, x[dst]),
                np.einsum("nh,nhc->hc", ds_nbr, x))

    return _node(out, (xp, a_self, a_nbr), backward)


# ---------------------------------------------------------------------------
# losses

def cross_entropy(logits, onehot, mask):
    """Mean negative log-likelihood over masked rows.

    logits: (N, M) Tensor; onehot: (N, M) constant; mask: boolean (N,).
    """
    logits = _as_tensor(logits)
    onehot = np.asarray(onehot, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if logits.data.shape != onehot.shape:
        raise ShapeError(f"logits shape {logits.data.shape} != labels shape {onehot.shape}")
    n_sel = int(mask.sum())
    if n_sel == 0:
        raise ValueError("cross_entropy: empty mask")
    z = logits.data
    zmax = z.max(axis=-1, keepdims=True)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True))
    logp = z - lse
    loss = -(onehot[mask] * logp[mask]).sum() / n_sel

    def backward(g):
        p = np.exp(logp)
        dz = (p - onehot) * mask[:, None] / n_sel
        return (g * dz,)

    return _node(loss, (logits,), backward)


def bce_matrix(recon, target, eps=1e-7):
    """Mean binary cross-entropy over all entries; recon clamped to [eps, 1-eps]."""
    recon = _as_tensor(recon)
    target = np.asarray(target, dtype=np.float64)
    if recon.data.shape != target.shape:
        raise ShapeError(f"recon shape {recon.data.shape} != target shape {target.shape}")
    r = np.clip(recon.data, eps, 1.0 - eps)
    n = r.size
    loss = -(target * np.log(r) + (1.0 - target) * np.log(1.0 - r)).sum() / n

    def backward(g):
        inside = (recon.data > eps) & (recon.data < 1.0 - eps)
        dr = np.where(inside, (r - target) / (r * (1.0 - r)) / n, 0.0)
        return (g * dr,)

    return _node(loss, (recon,), backward)


# rows per block of inner_product_bce: each block's arrays are IP_BCE_BLOCK x N
IP_BCE_BLOCK = 64


def inner_product_blocks(z):
    """(a, b, sigmoid(z[a:b] @ z[a:].T)) per IP_BCE_BLOCK rows of the (N, d) array
    z: the decoder's upper triangle, one block at a time.  Not an op, nor in __all__."""
    for a in range(0, len(z), IP_BCE_BLOCK):
        s = z[a:a + IP_BCE_BLOCK] @ z[a:].T
        np.negative(s, out=s)
        np.exp(s, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)
        yield a, a + len(s), s


class BceTarget:
    """inner_product_bce's symmetric 0/1 target A, as the flat indices of its
    ones in each row block.

    `pattern` is an (N, N) CSR matrix whose entries are A's ones (its values
    are ignored).  Block k covers rows [a, b), a = k * IP_BCE_BLOCK, against
    columns [a, N), so its one at (i, j), j >= a, is entry
    (i - a) * (N - a) + (j - a) of the block's (b - a) x (N - a) array.  A
    fit's target never changes, so the fit builds this once and every
    epoch's loss reads it.
    """

    def __init__(self, pattern):
        n = pattern.shape[0]
        if pattern.shape != (n, n):
            raise ShapeError(f"target pattern must be square, got {pattern.shape}")
        self.shape = pattern.shape
        indptr, indices = pattern.indptr, pattern.indices
        self.flat = []
        for a in range(0, n, IP_BCE_BLOCK):
            b = min(n, a + IP_BCE_BLOCK)
            rows = np.repeat(np.arange(b - a), np.diff(indptr[a:b + 1]))
            cols = indices[indptr[a]:indptr[b]] - a
            keep = cols >= 0
            self.flat.append(rows[keep] * (n - a) + cols[keep])


def inner_product_bce(z, target, eps=1e-7):
    """bce_matrix(sigmoid(z @ z.T), A) without forming an N x N array.

    z is (N, d) and `target` is A as a BceTarget, or as the (N, N) CSR
    pattern of its ones (its values are ignored), from which the call builds
    one.  The loss is the mean over all N * N entries with the same eps
    clamp as bce_matrix.  Z Z^T and A are symmetric, so the op walks the
    upper triangle's inner_product_blocks, rows [a, b) by columns [a, N),
    where the leading square counts once per entry and every column past b
    stands for its mirror too.  The gradient dZ = 2 G Z / N^2, G = s - t
    inside the clamp and 0 outside, is summed in the same pass, and only
    when the graph is recorded.  No array larger than the block times N is
    built.
    """
    z = _as_tensor(z)
    if z.ndim != 2:
        raise ShapeError(f"inner_product_bce expects 2-d z, got {z.data.shape}")
    n = z.data.shape[0]
    if not isinstance(target, BceTarget):
        target = BceTarget(target)
    if target.shape != (n, n):
        raise ShapeError(f"target pattern {target.shape} does not fit z {z.data.shape}")
    x = z.data
    want_grad = _recording and z.requires_grad
    dz = np.zeros_like(x) if want_grad else None
    total = 0.0
    for (a, b, s), ones in zip(inner_product_blocks(x), target.flat):
        # q = 1 - r where t = 0 and r where t = 1, for r = clip(s, eps, 1 - eps)
        q = np.clip(s, eps, 1.0 - eps)
        q_flat = q.reshape(-1)
        r_ones = q_flat[ones]
        np.subtract(1.0, q, out=q)
        q_flat[ones] = r_ones
        np.log(q, out=q)
        total += q[:, :b - a].sum() + 2.0 * q[:, b - a:].sum()
        if want_grad:
            outside = (s <= eps) | (s >= 1.0 - eps)
            s.reshape(-1)[ones] -= 1.0
            np.copyto(s, 0.0, where=outside)
            dz[a:b] += s @ x[a:]
            dz[b:] += s[:, b - a:].T @ x[a:b]
    size = float(n) * n
    loss = -total / size
    if not want_grad:
        return Tensor(loss)
    dz *= 2.0 / size
    return _node(loss, (z,), lambda g: (g * dz,))


def mse_matrix(recon, target):
    """Mean squared difference over all entries."""
    recon = _as_tensor(recon)
    target = np.asarray(target, dtype=np.float64)
    if recon.data.shape != target.shape:
        raise ShapeError(f"recon shape {recon.data.shape} != target shape {target.shape}")
    diff = recon.data - target
    loss = (diff * diff).sum() / diff.size
    return _node(loss, (recon,), lambda g: (g * 2.0 * diff / diff.size,))


# ---------------------------------------------------------------------------
# gradient checking

def grad_check(fn, params, h=1e-5):
    """Compare reverse-mode gradients of scalar fn() against central differences.

    Returns the max relative error over every element of every parameter.
    """
    for p in params:
        p.zero_grad()
    out = fn()
    if not np.isfinite(out.data).all():
        raise ValueError("grad_check: non-finite function value")
    out.backward()
    worst = 0.0
    for p in params:
        analytic = np.zeros_like(p.data) if p.grad is None else p.grad
        flat = p.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(fn().data)
            flat[i] = orig - h
            fm = float(fn().data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            denom = max(abs(aflat[i]) + abs(numeric), 1e-8)
            err = abs(aflat[i] - numeric) / denom
            if abs(aflat[i]) < 1e-10 and abs(numeric) < 1e-10:
                err = 0.0
            worst = max(worst, err)
    for p in params:
        p.zero_grad()
    return worst
