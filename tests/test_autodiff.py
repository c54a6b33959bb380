import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from graphdiag import autodiff as ad
from graphdiag import graph as gr
from graphdiag import graphbuild as gb
from graphdiag import models as md


def param(rng, *shape):
    return ad.Parameter(rng.normal(size=shape))


def segments_of(sorted_ids):
    """SegmentIndex of the runs of equal ids in a sorted id array."""
    sorted_ids = np.asarray(sorted_ids, dtype=np.intp)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_ids)) + 1))
    return ad.SegmentIndex(starts, len(sorted_ids))


class TestForwardValues:
    def test_add_sub_mul_div(self):
        a = ad.Tensor([2.0, 3.0])
        b = ad.Tensor([4.0, 5.0])
        assert (a + b).data.tolist() == [6.0, 8.0]
        assert (a - b).data.tolist() == [-2.0, -2.0]
        assert (a * b).data.tolist() == [8.0, 15.0]
        assert (a / b).data.tolist() == [0.5, 0.6]

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4))
        out = ad.matmul(ad.Tensor(x), ad.Tensor(np.eye(4)))
        assert np.allclose(out.data, x)

    def test_propagate_matches_dense_product(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=(3, 4))
        x = rng.normal(size=(4, 2, 5))
        out = ad.propagate(sparse.csr_matrix(s), ad.Tensor(x)).data
        assert out.shape == (3, 2, 5)
        assert np.abs(out - np.einsum("ij,jab->iab", s, x)).max() < 1e-12
        with pytest.raises(ad.ShapeError):
            ad.propagate(sparse.csr_matrix(s), ad.Tensor(np.ones((3, 2))))

    def test_matmul_shape_errors(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))
        with pytest.raises(ad.ShapeError):
            ad.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 2))))

    def test_relu_and_leaky(self):
        x = ad.Tensor([-2.0, 0.0, 3.0])
        assert ad.relu(x).data.tolist() == [0.0, 0.0, 3.0]
        assert np.allclose(ad.leaky_relu(x).data, [-0.4, 0.0, 3.0])

    def test_sigmoid_symmetry(self):
        x = ad.Tensor([0.0, 2.0, -2.0])
        s = ad.sigmoid(x).data
        assert s[0] == 0.5
        assert s[1] + s[2] == pytest.approx(1.0)

    def test_conv1d_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 9, 3))
        w = rng.normal(size=(4, 3, 5))
        for stride in (1, 2):
            out = ad.conv1d(ad.Tensor(x), ad.Tensor(w), stride=stride).data
            tout = (9 - 4) // stride + 1
            expected = np.zeros((2, tout, 5))
            for b in range(2):
                for t in range(tout):
                    for o in range(5):
                        acc = 0.0
                        for k in range(4):
                            for f in range(3):
                                acc += x[b, t * stride + k, f] * w[k, f, o]
                        expected[b, t, o] = acc
            assert np.abs(out - expected).max() < 1e-12

    def test_maxpool_values(self):
        x = np.arange(10, dtype=float).reshape(1, 10, 1)
        out = ad.maxpool1d(ad.Tensor(x), 3).data
        assert out.reshape(-1).tolist() == [2.0, 5.0, 8.0]

    def test_segment_sum_matches_loop(self):
        ids = np.array([0, 0, 1, 2, 2, 2])
        x = np.arange(12, dtype=float).reshape(6, 2)
        seg = segments_of(ids)
        out = ad.segment_sum(ad.Tensor(x), seg).data
        assert np.array_equal(out, [[2, 4], [4, 5], [24, 27]])

    def test_segment_max_matches_loop(self):
        ids = np.array([0, 0, 0, 1, 1])
        x = np.array([[1.0, 9.0], [5.0, 2.0], [3.0, 3.0], [0.0, 1.0], [2.0, 0.0]])
        seg = segments_of(ids)
        out = ad.segment_max(ad.Tensor(x), seg).data
        assert np.array_equal(out, [[5.0, 9.0], [2.0, 1.0]])

    def test_take_rows(self):
        x = np.arange(6, dtype=float).reshape(3, 2)
        taken = ad.take_rows(ad.Tensor(x), [2, 0, 2]).data
        assert np.array_equal(taken, [[4, 5], [0, 1], [4, 5]])

    def test_cross_entropy_uniform_logits(self):
        # equal logits over M classes give loss ln M regardless of labels
        onehot = np.eye(4)
        mask = np.ones(4, dtype=bool)
        loss = ad.cross_entropy(ad.Tensor(np.zeros((4, 4))), onehot, mask)
        assert loss.item() == pytest.approx(np.log(4.0))

    def test_cross_entropy_masked_mean(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(5, 3))
        y = np.array([0, 2, 1, 0, 2])
        onehot = np.eye(3)[y]
        mask = np.array([True, False, True, True, False])
        got = ad.cross_entropy(ad.Tensor(z), onehot, mask).item()
        # scalar oracle
        acc = 0.0
        for i in range(5):
            if not mask[i]:
                continue
            logz = np.log(np.exp(z[i]).sum())
            acc += logz - z[i, y[i]]
        assert got == pytest.approx(acc / mask.sum(), abs=1e-12)

    def test_cross_entropy_empty_mask(self):
        with pytest.raises(ValueError):
            ad.cross_entropy(ad.Tensor(np.zeros((2, 2))), np.eye(2),
                             np.zeros(2, dtype=bool))

    def test_bce_matrix_scalar_oracle(self):
        rng = np.random.default_rng(5)
        r = rng.uniform(0.05, 0.95, size=(3, 3))
        t = (rng.random((3, 3)) < 0.5).astype(float)
        got = ad.bce_matrix(ad.Tensor(r), t).item()
        acc = 0.0
        for i in range(3):
            for j in range(3):
                acc -= t[i, j] * np.log(r[i, j]) + (1 - t[i, j]) * np.log(1 - r[i, j])
        assert got == pytest.approx(acc / 9, abs=1e-12)


class TestKernelOracles:
    """The fast gather, segment and conv1d kernels against plain loops."""

    @pytest.mark.parametrize("idx, n_rows, tail", [
        ([3, 0, 3, 3, 1, 0], 5, (2,)),       # repeats; rows 2 and 4 never hit
        ([4, 4, 4], 6, ()),                  # 1-d gradient, one hit row
        ([], 4, (3,)),                       # empty index
        ([2, 0, 2, 1, 2], 4, (3, 2)),        # (E, H, C) gradient
    ])
    def test_scatter_add_matches_add_at(self, idx, n_rows, tail):
        rng = np.random.default_rng(len(idx) + n_rows)
        g = rng.normal(size=(len(idx),) + tail)
        expected = np.zeros((n_rows,) + tail)
        np.add.at(expected, np.asarray(idx, dtype=np.intp), g)
        a = ad.Parameter(np.zeros((n_rows,) + tail))
        ad.take_rows(a, idx).backward(g)
        out = a.grad
        assert out.shape == expected.shape
        assert np.abs(out - expected).max(initial=0.0) < 1e-12

    def test_segment_sum_and_repeat_backward_3d(self):
        rng = np.random.default_rng(11)
        ids = np.array([0, 0, 0, 1, 2, 2, 3, 3, 3, 3])
        seg = segments_of(ids)
        x = rng.normal(size=(10, 3, 2))
        expected = np.zeros((4, 3, 2))
        for e, s in enumerate(ids):
            expected[s] += x[e]
        assert np.abs(ad.segment_sum(ad.Tensor(x), seg).data - expected).max() < 1e-12
        a = ad.Parameter(rng.normal(size=(4, 3, 2)))
        out = ad.repeat_segments(a, seg)
        assert np.array_equal(out.data, a.data[ids])
        out.backward(x)
        assert np.abs(a.grad - expected).max() < 1e-12

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv1d_gradients_match_loop_oracle(self, stride):
        rng = np.random.default_rng(5 + stride)
        B, T, Fin, K, Fout = 3, 11, 4, 3, 2
        x = ad.Parameter(rng.normal(size=(B, T, Fin)))
        w = ad.Parameter(rng.normal(size=(K, Fin, Fout)))
        out = ad.conv1d(x, w, stride=stride)
        tout = (T - K) // stride + 1
        g = rng.normal(size=(B, tout, Fout))
        out.backward(g)
        dx = np.zeros((B, T, Fin))
        dw = np.zeros((K, Fin, Fout))
        for b in range(B):
            for t in range(tout):
                for k in range(K):
                    for f in range(Fin):
                        for o in range(Fout):
                            dx[b, t * stride + k, f] += g[b, t, o] * w.data[k, f, o]
                            dw[k, f, o] += g[b, t, o] * x.data[b, t * stride + k, f]
        assert np.abs(x.grad - dx).max() < 1e-12
        assert np.abs(w.grad - dw).max() < 1e-12


def conv_taps_reference(x, w, stride, g):
    """conv1d's output, dx and dw as one per-tap loop over the whole batch."""
    B, T, Fin = x.shape
    K, _, Fout = w.shape
    tout = (T - K) // stride + 1
    out = np.zeros((B, tout, Fout))
    dx = np.zeros_like(x)
    dw = np.empty_like(w)
    for k in range(K):
        xs = x[:, k:k + stride * tout:stride]
        out += xs @ w[k]
        dw[k] = xs.reshape(-1, Fin).T @ g.reshape(-1, Fout)
        dx[:, k:k + stride * tout:stride] += g @ w[k].T
    return out, dx, dw


def maxpool_backward_reference(x, window, g):
    """Gradient to each window's argmax through a (B, Tout, window, F) buffer."""
    B, T, F = x.shape
    tout = T // window
    idx = x[:, :tout * window].reshape(B, tout, window, F).argmax(axis=2)
    dr = np.zeros((B, tout, window, F))
    np.put_along_axis(dr, idx[:, :, None, :], g[:, :, None, :], axis=2)
    dx = np.zeros_like(x)
    dx[:, :tout * window] = dr.reshape(B, tout * window, F)
    return dx


def with_specials(rng, shape, values):
    """Normal draws, rounded to one decimal (ties), a third replaced by `values`."""
    a = np.round(rng.normal(size=shape), 1)
    hit = rng.random(shape) < 0.3
    a[hit] = rng.choice(values, size=int(hit.sum()))
    return a


class TestTemporalKernelBytes:
    """conv1d and maxpool1d against the plain loops, byte for byte."""

    @pytest.mark.parametrize("fin, stride", [(1, 1), (1, 2), (3, 1), (3, 2)])
    @pytest.mark.parametrize("small_blocks", [False, True])
    def test_conv1d_matches_per_tap_loop(self, fin, stride, small_blocks, monkeypatch):
        T, K, Fout = 40, 5, 8
        tout = (T - K) // stride + 1
        if small_blocks:
            monkeypatch.setattr(ad, "CONV_BLOCK_ELEMENTS", 3 * tout * Fout)
        rows = ad.CONV_BLOCK_ELEMENTS // (tout * Fout)
        B = 2 * rows + rows // 2 + 1        # two full row blocks and a partial one
        rng = np.random.default_rng(fin + 10 * stride)
        x = ad.Parameter(with_specials(rng, (B, T, fin), [0.0, -0.0]))
        w = ad.Parameter(with_specials(rng, (K, fin, Fout), [0.0, -0.0]))
        out = ad.conv1d(x, w, stride=stride)
        g = with_specials(rng, out.shape, [0.0, -0.0])
        out.backward(g)
        want = conv_taps_reference(x.data, w.data, stride, g)
        assert out.data.tobytes() == want[0].tobytes()
        assert x.grad.tobytes() == want[1].tobytes()
        assert w.grad.tobytes() == want[2].tobytes()

    @pytest.mark.parametrize("F", [1, 2, 8])
    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_maxpool1d_matches_reference(self, F, window):
        rng = np.random.default_rng(F + 10 * window)
        T = 7 * window + window - 1          # a trailing remainder unless window is 1
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
        x = ad.Parameter(with_specials(rng, (5, T, F), values))
        out = ad.maxpool1d(x, window)
        xr = x.data[:, :7 * window].reshape(5, 7, window, F)
        assert out.data.tobytes() == xr.max(axis=2).tobytes()
        g = with_specials(rng, out.shape, values)
        out.backward(g)
        assert x.grad.tobytes() == maxpool_backward_reference(x.data, window, g).tobytes()

    @pytest.mark.parametrize("F", [1, 2])
    def test_maxpool1d_first_index_takes_the_gradient(self, F):
        windows = [[1.0, 1.0, 0.5],             # tie
                   [-0.0, 0.0, -1.0],           # signed zeros compare equal
                   [0.0, -0.0, -1.0],
                   [1.0, np.nan, 2.0],          # the first NaN is the max
                   [np.nan, 3.0, -np.nan],
                   [-np.inf, -np.inf, -np.inf]]
        x = np.repeat(np.array(windows).reshape(1, -1, 1), F, axis=2)
        x = ad.Parameter(np.concatenate([x, np.full((1, 2, F), 9.0)], axis=1))
        out = ad.maxpool1d(x, 3)
        g = np.arange(1.0, 7.0)[None, :, None] * np.ones((1, 1, F))
        out.backward(g)
        first = [0, 0, 0, 1, 0, 0]
        want = np.zeros((1, 20, F))
        want[0, 3 * np.arange(6) + first] = g[0]
        assert x.grad.tobytes() == want.tobytes()      # the remainder's 9s get zero
        assert x.grad.tobytes() == maxpool_backward_reference(x.data, 3, g).tobytes()

    def test_maxpool1d_keeps_no_index_array(self):
        x = ad.Parameter(np.random.default_rng(3).normal(size=(64, 256, 8)))
        tracemalloc.start()
        try:
            out = ad.maxpool1d(x, 2)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert live < out.data.nbytes + 16 * 1024

    def test_conv1d_builds_no_tap_sized_buffer(self):
        rng = np.random.default_rng(4)
        x = ad.Parameter(rng.normal(size=(4096, 256, 1)))
        w = ad.Parameter(rng.normal(size=(5, 1, 8)))
        tracemalloc.start()
        try:
            out = ad.conv1d(x, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a block's accumulator and tap hold CONV_BLOCK_ELEMENTS each at most; a
        # tap-sized (B, Tout, Fout) or im2col (B, Tout, K * Fin) array would
        # need 66 or 41 MB; 256 KiB covers numpy's ufunc buffers
        assert peak < out.data.nbytes + 2 * 8 * ad.CONV_BLOCK_ELEMENTS + 256 * 1024


class TestConvEpilogue:
    """conv1d's bias and ReLU against relu(add(conv1d(x, w), b)), byte for byte."""

    @pytest.mark.parametrize("fin, stride", [(1, 1), (1, 2), (3, 1), (3, 2)])
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_matches_composition(self, fin, stride, relu, with_bias, monkeypatch):
        T, K, Fout = 40, 5, 8
        tout = (T - K) // stride + 1
        monkeypatch.setattr(ad, "CONV_BLOCK_ELEMENTS", 3 * tout * Fout)
        B = 3 + 3 + 1                       # two full row blocks of 3 and a partial one
        rng = np.random.default_rng(fin + 10 * stride + 100 * relu + 1000 * with_bias)
        x = with_specials(rng, (B, T, fin), [0.0, -0.0, np.nan])
        w = with_specials(rng, (K, fin, Fout), [0.0, -0.0])
        # output feature 0 of sample 0 starts with sums of -0.0 taps, and its bias is
        # -0.0: the conv's + 0.0 must come before the bias, (-0.0 + 0.0) + -0.0 = +0.0
        w[:, :, 0] = np.abs(w[:, :, 0]) + 0.5
        x[0, :10] = -0.0
        b = with_specials(rng, (Fout,), [-0.0, -0.5, -1.0]) if with_bias else None
        if with_bias:
            b[0] = -0.0
        fused = [ad.Parameter(a) for a in (x, w, b) if a is not None]
        plain = [ad.Parameter(a.copy()) for a in (x, w, b) if a is not None]
        out = ad.conv1d(fused[0], fused[1], stride, fused[2] if with_bias else None, relu)
        want = ad.conv1d(plain[0], plain[1], stride)
        if with_bias:
            want = ad.add(want, plain[2])
        if relu:
            want = ad.relu(want)
        g = with_specials(rng, out.shape, [0.0, -0.0])
        out.backward(g)
        want.backward(g)
        assert out.data.tobytes() == want.data.tobytes()
        for p, q in zip(fused, plain):
            assert p.grad.tobytes() == q.grad.tobytes()

    def test_bias_shape_is_checked(self):
        x, w = ad.Tensor(np.ones((2, 9, 3))), ad.Tensor(np.ones((3, 3, 4)))
        for shape in [(5,), (1, 4), ()]:
            with pytest.raises(ad.ShapeError, match="bias"):
                ad.conv1d(x, w, bias=np.zeros(shape))

    def test_layer_keeps_one_output(self):
        rng = np.random.default_rng(4)
        layer = md.Conv1dLayer(5, 1, 8, rng, name="t1a")
        x = ad.Tensor(rng.normal(size=(4096, 256, 1)))
        tracemalloc.start()
        try:
            out = layer(x)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        # relu(add(conv1d(x, w), b)) kept the conv output, the sum with the
        # bias, the ReLU output and its mask alive: 3.1 outputs of 66 MB
        assert live < out.data.nbytes + 1024 * 1024


class TestPooledConv:
    """conv1d(..., pool) against maxpool1d(relu(add(conv1d(x, w), b))), byte for byte."""

    @pytest.mark.parametrize("fin, fout", [(1, 8), (3, 8), (3, 1)])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pool", [2, 3])
    @pytest.mark.parametrize("relu, with_bias", [(False, False), (True, True),
                                                 (True, False), (False, True)])
    def test_matches_composition(self, fin, fout, stride, pool, relu, with_bias, monkeypatch):
        T, K = 41, 5                         # Tout 37 or 19: a remainder for both windows
        tout = (T - K) // stride + 1
        monkeypatch.setattr(ad, "CONV_BLOCK_ELEMENTS", 3 * tout * fout)
        B = 3 + 3 + 1                        # two full row blocks of 3 and a partial one
        rng = np.random.default_rng(fin + 10 * stride + 100 * pool + 1000 * relu + 5000 * with_bias)
        x = with_specials(rng, (B, T, fin), [0.0, -0.0, np.nan])
        w = with_specials(rng, (K, fin, fout), [0.0, -0.0])
        x[1] = 0.5                           # equal outputs: every window of sample 1 ties
        x[2] = -0.0                          # -0.0 sums, +0.0 after the conv's + 0.0
        x[3, 7:9] = np.nan                   # windows with several NaNs
        x[3, 20] = -np.nan
        b = with_specials(rng, (fout,), [-0.0, 0.0, -0.5]) if with_bias else None
        fused = [ad.Parameter(a) for a in (x, w, b) if a is not None]
        plain = [ad.Parameter(a.copy()) for a in (x, w, b) if a is not None]
        out = ad.conv1d(fused[0], fused[1], stride, fused[2] if with_bias else None, relu, pool)
        want = ad.conv1d(plain[0], plain[1], stride)
        if with_bias:
            want = ad.add(want, plain[2])
        if relu:
            want = ad.relu(want)
        want = ad.maxpool1d(want, pool)
        assert out.shape == (B, tout // pool, fout)
        g = with_specials(rng, out.shape, [0.0, -0.0, np.nan])
        out.backward(g)
        want.backward(g)
        assert out.data.tobytes() == want.data.tobytes()
        for p, q in zip(fused, plain):
            assert p.grad.tobytes() == q.grad.tobytes()

    def test_unrecorded_forward_has_the_same_bytes(self):
        rng = np.random.default_rng(6)
        x, w, b = param(rng, 5, 30, 3), param(rng, 3, 3, 8), param(rng, 8)
        recorded = ad.conv1d(x, w, 1, b, True, 3)
        with ad.no_grad():
            plain = ad.conv1d(x, w, 1, b, True, 3)
        assert not plain.requires_grad
        assert plain.data.tobytes() == recorded.data.tobytes()

    def test_pool_window_is_checked(self):
        x, w = ad.Tensor(np.ones((2, 9, 3))), ad.Tensor(np.ones((3, 3, 4)))   # Tout 7
        with pytest.raises(ad.ShapeError, match="pool window 0 is below 1"):
            ad.conv1d(x, w, pool=0)
        with pytest.raises(ad.ShapeError, match="pool window 8 exceeds output length 7"):
            ad.conv1d(x, w, pool=8)
        assert ad.conv1d(x, w, pool=7).shape == (2, 1, 4)

    def test_constant_signal_gets_no_gradient(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 20, 1))
        w, b = param(rng, 5, 1, 8), param(rng, 8)
        out = ad.conv1d(ad.Tensor(x), w, 1, b, True, 2)
        g = rng.normal(size=out.shape)
        dx, dw, db = out._backward(g)
        assert dx is None
        w2, b2 = ad.Parameter(w.data.copy()), ad.Parameter(b.data.copy())
        ad.conv1d(ad.Parameter(x), w2, 1, b2, True, 2).backward(g)
        assert dw.tobytes() == w2.grad.tobytes() and db.tobytes() == b2.grad.tobytes()

    def test_pooled_layer_keeps_pooled_output_and_offsets(self):
        rng = np.random.default_rng(4)
        layer = md.Conv1dLayer(5, 1, 8, rng, pool=2, name="t1a")
        x = ad.Tensor(rng.normal(size=(4096, 256, 1)))
        tracemalloc.start()
        try:
            out = layer(x)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad and out.shape == (4096, 126, 8)
        # the pooled float64 output and one uint8 offset per element; the
        # composition kept the (4096, 252, 8) conv output, 66 MB, as well
        assert live < out.data.nbytes + out.data.size + 1024 * 1024


class TestMatmulEpilogue:
    """matmul's bias and ReLU against relu(add(matmul(a, b), bias)), byte for byte."""

    @pytest.mark.parametrize("lead", [(7,), (3, 5)])
    @pytest.mark.parametrize("relu, with_bias", [(False, True), (True, True), (True, False)])
    def test_matches_composition(self, lead, relu, with_bias):
        rng = np.random.default_rng(len(lead) + 10 * relu + 100 * with_bias)
        a = with_specials(rng, lead + (4,), [0.0, -0.0, np.nan])
        a[0] = -0.0                          # a row of -0.0 sums, with a -0.0 bias below
        b = with_specials(rng, (4, 6), [0.0, -0.0])
        bias = with_specials(rng, (6,), [-0.0, 0.0, -0.5]) if with_bias else None
        fused = [ad.Parameter(v) for v in (a, b, bias) if v is not None]
        plain = [ad.Parameter(v.copy()) for v in (a, b, bias) if v is not None]
        out = ad.matmul(fused[0], fused[1], fused[2] if with_bias else None, relu)
        want = ad.matmul(plain[0], plain[1])
        if with_bias:
            want = ad.add(want, plain[2])
        if relu:
            want = ad.relu(want)
        g = with_specials(rng, out.shape, [0.0, -0.0])
        out.backward(g)
        want.backward(g)
        assert out.data.tobytes() == want.data.tobytes()
        for p, q in zip(fused, plain):
            assert p.grad.tobytes() == q.grad.tobytes()

    def test_bias_shape_is_checked(self):
        a, b = ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 4)))
        for shape in [(3,), (1, 4), (2, 4), ()]:
            with pytest.raises(ad.ShapeError, match="bias"):
                ad.matmul(a, b, bias=np.zeros(shape))

    def test_constant_operand_gets_no_gradient(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(5, 3)), param(rng, 3, 2)
        out = ad.matmul(ad.Tensor(a), b, relu=True)
        da, db = out._backward(np.ones(out.shape))
        assert da is None and db.shape == (3, 2)
        out = ad.matmul(ad.Parameter(a), ad.Tensor(b.data))
        da, db = out._backward(np.ones(out.shape))
        assert db is None and da.shape == (5, 3)

    @pytest.mark.parametrize("cls, args", [
        (md.Dense, (3, 4)), (md.GcnLayer, (3, 4)), (md.SageLayer, (3, 4)),
        (md.GatLayer, (3, 4, 2))])
    def test_layers_reject_unknown_activation(self, cls, args):
        with pytest.raises(ValueError, match="activation"):
            cls(*args, rng=np.random.default_rng(0), activation="tanh")

    def test_dense_layer_keeps_one_output(self):
        rng = np.random.default_rng(5)
        layer = md.Dense(64, 256, rng, activation="relu")
        x = ad.Tensor(rng.normal(size=(4096, 64)))
        tracemalloc.start()
        try:
            out = layer(x)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        # relu(add(matmul(x, w), b)) kept the product, the sum, the ReLU
        # output and its mask: 3.1 outputs of 8 MB
        assert live < out.data.nbytes + 256 * 1024


class TestBackward:
    def test_leaf_accumulation_reused_operand(self):
        # y = x*x + x uses x three times; dy/dx = 2x + 1
        x = ad.Parameter(np.array(3.0))
        y = x * x + x
        y.backward()
        assert x.grad == pytest.approx(7.0)

    def test_grad_accumulates_across_backward_calls(self):
        x = ad.Parameter(np.array(2.0))
        (x * x).backward()
        (x * x).backward()
        assert x.grad == pytest.approx(8.0)

    def test_chain_hand_case(self):
        # f = sum(sigmoid(W x)); check one entry against the closed form
        w = ad.Parameter(np.array([[0.5, -0.25]]))
        x = ad.Tensor(np.array([[1.0], [2.0]]))
        out = ad.sum_(ad.sigmoid(ad.matmul(w, x)))
        out.backward()
        s = 1 / (1 + np.exp(0.0))
        assert w.grad[0, 0] == pytest.approx(s * (1 - s) * 1.0)
        assert w.grad[0, 1] == pytest.approx(s * (1 - s) * 2.0)

    def test_no_grad_for_constants(self):
        a = ad.Tensor([1.0])
        b = ad.Parameter([2.0])
        (ad.sum_(a * b)).backward()
        assert a.grad is None
        assert b.grad is not None

    def test_no_grad_records_nothing(self):
        w = ad.Parameter(np.ones((3, 2)))
        with ad.no_grad():
            out = ad.relu(ad.matmul(ad.Tensor(np.ones((4, 3))), w))
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
        assert ad.matmul(ad.Tensor(np.ones((4, 3))), w)._backward is not None

    def test_backward_requires_scalar(self):
        x = ad.Parameter(np.ones(3))
        with pytest.raises(ad.ShapeError):
            (x * 2.0).backward()


FD_TOL = 1e-6


class TestGradCheck:
    """Central-difference verification of every differentiable op."""

    def check(self, build, n_params, seeds=range(5), shape_rng=None):
        for seed in seeds:
            rng = np.random.default_rng(seed)
            fn, params = build(rng)
            assert ad.grad_check(fn, params) < FD_TOL

    def test_arithmetic(self):
        def build(rng):
            a, b = param(rng, 3, 4), param(rng, 3, 4)
            c = param(rng, 4)  # broadcast operand

            def fn():
                return ad.sum_((a * b - a / (ad.sigmoid(b) + 1.5) + c) * 0.7 + (-a))

            return fn, [a, b, c]

        self.check(build, 3)

    def test_propagate(self):
        def build(rng):
            # non-square, so a backward that used s in place of s.T would fail
            s = sparse.csr_matrix(rng.normal(size=(5, 4)) * (rng.random((5, 4)) < 0.6))
            a, b = param(rng, 4, 3), param(rng, 4, 2, 3)
            w = rng.normal(size=(5, 2, 3))

            def fn():
                return (ad.sum_(ad.propagate(s, a) * w[:, 0])
                        + ad.sum_(ad.propagate(s, b) * w))

            return fn, [a, b]

        self.check(build, 2)

    def test_matmul_batched(self):
        def build(rng):
            a, w = param(rng, 2, 3, 4), param(rng, 4, 5)
            return (lambda: ad.sum_(ad.matmul(a, w))), [a, w]

        self.check(build, 2)

    def test_transpose_reshape_concat(self):
        def build(rng):
            a, b = param(rng, 2, 3), param(rng, 2, 3)

            def fn():
                t = ad.transpose(ad.concat([a, b], axis=0), (1, 0))
                return ad.sum_(ad.reshape(t, (12,)) * ad.reshape(t, (12,)))

            return fn, [a, b]

        self.check(build, 2)

    def test_pointwise(self):
        def build(rng):
            a = param(rng, 4, 3)

            def fn():
                return ad.sum_(ad.exp(0.1 * ad.relu(a))
                               + ad.log(ad.sigmoid(a) + 0.5)
                               + ad.leaky_relu(a))

            return fn, [a]

        self.check(build, 1)

    def test_reductions(self):
        def build(rng):
            a = param(rng, 4, 5)

            def fn():
                return ad.sum_(ad.mean_(a, axis=1)) + ad.mean_(a)

            return fn, [a]

        self.check(build, 1)

    def test_conv_and_pool(self):
        def build(rng):
            x, k = param(rng, 2, 8, 3), param(rng, 3, 3, 4)

            def fn():
                return ad.sum_(ad.maxpool1d(ad.conv1d(x, k), 2))

            return fn, [x, k]

        self.check(build, 2)

    @pytest.mark.parametrize("fin", [1, 3])
    def test_pooled_conv_layer(self, fin):
        def build(rng):
            layer = md.Conv1dLayer(3, fin, 4, rng, pool=2)
            layer.bias.data[:] = rng.normal(size=4)
            x = param(rng, 2, 12, fin)
            weights = rng.normal(size=(2, 5, 4))
            return (lambda: ad.sum_(layer(x) * weights)), [x] + layer.params

        self.check(build, 3)

    def test_matmul_bias_relu(self):
        def build(rng):
            a, b, c = param(rng, 2, 5, 3), param(rng, 3, 4), param(rng, 4)
            weights = rng.normal(size=(2, 5, 4))
            return (lambda: ad.sum_(ad.matmul(a, b, c, relu=True) * weights)), [a, b, c]

        self.check(build, 3)

    def test_conv_stride(self):
        def build(rng):
            x, k = param(rng, 1, 9, 2), param(rng, 3, 2, 2)
            return (lambda: ad.sum_(ad.conv1d(x, k, stride=2))), [x, k]

        self.check(build, 2)

    @pytest.mark.parametrize("fin", [1, 3])
    def test_conv_bias_relu(self, fin):
        def build(rng):
            x, k, b = param(rng, 2, 9, fin), param(rng, 3, fin, 4), param(rng, 4)
            weights = rng.normal(size=(2, 4, 4))
            return (lambda: ad.sum_(ad.conv1d(x, k, 2, b, relu=True) * weights)), [x, k, b]

        self.check(build, 3)

    def test_gather_scatter(self):
        def build(rng):
            a = param(rng, 4, 3)
            idx = rng.integers(0, 4, size=7)
            w = rng.normal(size=(7, 3))
            return (lambda: ad.sum_(ad.take_rows(a, idx) * w)), [a]

        self.check(build, 1)

    def test_segment_ops(self):
        def build(rng):
            ids = np.sort(rng.integers(0, 3, size=8))
            ids[0] = 0
            ids[-1] = 2
            seg = segments_of(ids)
            a = param(rng, 8, 2)
            w = rng.normal(size=(len(seg.starts), 2))

            def fn():
                return (ad.sum_(ad.segment_sum(a, seg) * w)
                        + ad.sum_(ad.segment_max(a, seg))
                        + ad.sum_(ad.repeat_segments(ad.segment_sum(a, seg), seg)))

            return fn, [a]

        self.check(build, 1)

    def test_losses(self):
        def build(rng):
            z = param(rng, 5, 3)
            y = np.eye(3)[rng.integers(0, 3, size=5)]
            mask = np.array([True, True, False, True, False])
            r = ad.Parameter(rng.uniform(-2, 2, size=(4, 4)))
            t = (rng.random((4, 4)) < 0.5).astype(float)

            def fn():
                return ad.cross_entropy(z, y, mask) + ad.bce_matrix(ad.sigmoid(r), t)

            return fn, [z, r]

        self.check(build, 2)


def ip_bce_graph(rng, n, isolated=0):
    """A random graph on n nodes whose last `isolated` nodes have no edge."""
    pairs = rng.integers(0, n - isolated, size=(3 * n, 2)) if n > isolated else np.zeros((0, 2))
    return gr.Graph(n, pairs[pairs[:, 0] != pairs[:, 1]])


def ip_bce_case(rng, n, isolated=0, saturated=0):
    """Embedding z (n, 3), a random symmetric A with `isolated` edge-free
    nodes as the BceTarget of its graph's A + I operator, and A dense.
    `saturated` rows of z get norm ~6, so the logits they meet lie beyond the
    eps clamp."""
    z = rng.normal(size=(n, 3))
    if saturated:
        big = rng.choice(n, size=saturated, replace=False)
        z[big] *= 6.0 / np.linalg.norm(z[big], axis=1, keepdims=True)
    g = ip_bce_graph(rng, n, isolated)
    return z, ad.BceTarget(gr.sym_propagation(g)), g.adjacency()


def ip_bce_compare(z, ones, target):
    """(loss, grad) of inner_product_bce and of the composition bce_matrix(sigmoid(Z Z^T), A)."""
    fused = ad.Parameter(z.copy())
    loss = ad.inner_product_bce(fused, ones)
    loss.backward()
    plain = ad.Parameter(z.copy())
    ref = ad.bce_matrix(ad.sigmoid(ad.matmul(plain, ad.transpose(plain, (1, 0)))), target)
    ref.backward()
    return loss.item(), fused.grad, ref.item(), plain.grad


def assert_close_rel(got, want, rtol=1e-12):
    scale = max(np.abs(want).max(), 1e-300)
    assert np.abs(np.asarray(got) - want).max() <= rtol * scale


class TestBceLogits:
    """inner_product_bce, the GAE decoder's BCE on the logits Z Z^T, against
    the composition bce_matrix(sigmoid(Z Z^T), A)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_composition(self, seed):
        rng = np.random.default_rng(seed)
        z, ones, target = ip_bce_case(rng, 9, saturated=3)
        loss, grad, ref, ref_grad = ip_bce_compare(z, ones, target)
        logits = z @ z.T
        assert (np.abs(logits) > 17.0).any()
        assert abs(loss - ref) <= 1e-12 * abs(ref)
        assert_close_rel(grad, ref_grad)

    def test_grad_check(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            z, ones, _ = ip_bce_case(rng, 6)
            z = ad.Parameter(z)
            assert ad.grad_check(lambda: ad.inner_product_bce(z, ones), [z]) < FD_TOL

    def test_shape_errors(self):
        _, ones, _ = ip_bce_case(np.random.default_rng(0), 4)
        with pytest.raises(ad.ShapeError):
            ad.inner_product_bce(ad.Tensor(np.zeros(4)), ones)
        with pytest.raises(ad.ShapeError):
            ad.inner_product_bce(ad.Tensor(np.zeros((4, 2, 1))), ones)
        for rows in (3, 5):
            with pytest.raises(ad.ShapeError):
                ad.inner_product_bce(ad.Tensor(np.zeros((rows, 2))), ones)

    def test_no_ones_is_all_zero_target(self):
        z = np.random.default_rng(3).normal(size=(3, 2))
        ones = ad.BceTarget(gr.sym_propagation(gr.Graph(3, [])))   # I alone
        loss, grad, ref, ref_grad = ip_bce_compare(z, ones, np.zeros((3, 3)))
        assert loss == pytest.approx(ref, rel=1e-15)
        assert_close_rel(grad, ref_grad)


def ip_bce_per_call(x, pattern, eps=1e-7):
    """(loss, dZ) of inner_product_bce's row-block walk as it was when each
    call indexed every block's ones anew, with 2-d fancy indices, from the
    CSR pattern of A's ones."""
    n = x.shape[0]
    indptr, indices = pattern.indptr, pattern.indices
    dz = np.zeros_like(x)
    total = 0.0
    for a in range(0, n, ad.IP_BCE_BLOCK):
        b = min(n, a + ad.IP_BCE_BLOCK)
        s = x[a:b] @ x[a:].T
        np.negative(s, out=s)
        np.exp(s, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)
        lengths = np.diff(indptr[a:b + 1])
        rows = np.repeat(np.arange(b - a), lengths)
        cols = indices[indptr[a]:indptr[b]] - a
        keep = cols >= 0
        ones = (rows[keep], cols[keep])
        q = np.clip(s, eps, 1.0 - eps)
        r_ones = q[ones]
        np.subtract(1.0, q, out=q)
        q[ones] = r_ones
        np.log(q, out=q)
        total += q[:, :b - a].sum() + 2.0 * q[:, b - a:].sum()
        outside = (s <= eps) | (s >= 1.0 - eps)
        s[ones] -= 1.0
        s[outside] = 0.0
        dz[a:b] += s @ x[a:]
        dz[b:] += s[:, b - a:].T @ x[a:b]
    size = float(n) * n
    dz *= 2.0 / size
    return -total / size, dz


class TestBceTarget:
    """inner_product_bce over a BceTarget built once gives the bytes of the
    walk that indexed the target's ones on every call."""

    @pytest.mark.parametrize("seed,n", [(0, 131), (1, 150), (2, 64)])
    def test_loss_and_gradient_bytes_match_the_per_call_index(self, seed, n):
        rng = np.random.default_rng(seed)
        z, kept, target = ip_bce_case(rng, n, isolated=3, saturated=4)
        assert not target[-1].any()
        loss_want, dz_want = ip_bce_per_call(z, sparse.csr_matrix(target))
        for _ in range(2):
            zp = ad.Parameter(z.copy())
            loss = ad.inner_product_bce(zp, kept)
            loss.backward()
            assert loss.data.tobytes() == np.float64(loss_want).tobytes()
            assert zp.grad.tobytes() == dz_want.tobytes()

    def test_block_indices(self):
        g = gr.Graph(3, [(0, 1), (1, 2)])
        kept = ad.BceTarget(gr.sym_propagation(g))
        assert kept.shape == (3, 3)
        # one block of 3 x 3: the ones (0, 1), (1, 0), (1, 2), (2, 1)
        assert [f.tolist() for f in kept.flat] == [[1, 3, 5, 7]]
        with pytest.raises(ad.ShapeError, match="square"):
            ad.BceTarget(sparse.csr_matrix((3, 4)))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 131])
    def test_a_plus_i_pattern_gives_the_ones_of_a(self, n):
        """Built from the cached A + I operator, the target holds the flat
        indices of one built from A's own pattern, isolated nodes included."""
        g = ip_bce_graph(np.random.default_rng(n), n, isolated=min(n, 5))
        a_dense = g.adjacency()
        assert not a_dense[n - min(n, 5):].any()
        own = ad.BceTarget(sparse.csr_matrix(a_dense))
        kept = ad.BceTarget(gr.sym_propagation(g))
        assert kept.shape == own.shape == (n, n)
        assert len(kept.flat) == len(own.flat) == -(-n // ad.IP_BCE_BLOCK)
        for k, (got, want) in enumerate(zip(kept.flat, own.flat)):
            assert np.array_equal(got, want)
            a, b = k * ad.IP_BCE_BLOCK, min(n, (k + 1) * ad.IP_BCE_BLOCK)
            block = np.zeros((b - a, n - a))
            block.reshape(-1)[got] = 1.0
            assert np.array_equal(block, a_dense[a:b, a:])


class TestInnerProductBce:
    """The blocked walk of inner_product_bce: sizes on and across block edges, memory."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 131])
    def test_block_edges_match_composition(self, n):
        assert ad.IP_BCE_BLOCK == 64
        rng = np.random.default_rng(n)
        z, ones, target = ip_bce_case(rng, n, isolated=min(n, 5), saturated=min(n, 4))
        assert not target[n - min(n, 5):].any()
        loss, grad, ref, ref_grad = ip_bce_compare(z, ones, target)
        assert abs(loss - ref) <= 1e-12 * abs(ref)
        assert_close_rel(grad, ref_grad)

    def test_fully_saturated_has_zero_gradient(self):
        # every logit is 800, beyond the clamp, so no entry passes a gradient
        z = ad.Parameter(np.full((70, 2), 20.0))
        _, ones, target = ip_bce_case(np.random.default_rng(1), 70)
        loss = ad.inner_product_bce(z, ones)
        loss.backward()
        assert not z.grad.any()
        r = 1.0 - 1e-7                     # every sigmoid clamps to 1 - eps
        want = -(target * np.log(r) + (1 - target) * np.log(1.0 - r)).mean()
        assert loss.item() == pytest.approx(want, rel=1e-12)

    def test_records_nothing_without_grad(self):
        z, ones, _ = ip_bce_case(np.random.default_rng(2), 10)
        with ad.no_grad():
            out = ad.inner_product_bce(ad.Parameter(z), ones)
        assert not out.requires_grad
        assert out.item() == ad.inner_product_bce(ad.Tensor(z), ones).item()

    def test_memory_stays_far_below_n_squared(self):
        n = 5000
        rng = np.random.default_rng(4)
        z = ad.Parameter(rng.normal(scale=0.3, size=(n, 16)))
        pairs = rng.integers(0, n, size=(5 * n, 2))
        ones = ad.BceTarget(gr.sym_propagation(gr.Graph(n, pairs[pairs[:, 0] != pairs[:, 1]])))
        tracemalloc.start()
        try:
            loss = ad.inner_product_bce(z, ones)
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss.item()) and z.grad.shape == (n, 16)
        assert peak < n * n * 8 / 10


def gat_reference(xp, a_self, a_nbr, g, slope):
    """GAT neighbour sum over each node's A + I neighbourhood, node by node."""
    s_self = (xp * a_self).sum(axis=2)
    s_nbr = (xp * a_nbr).sum(axis=2)
    out = np.zeros_like(xp)
    for i in range(g.n):
        nbhd = sorted(set(g.neighbors(i).tolist()) | {i})
        raw = s_self[i] + s_nbr[nbhd]                     # (deg, H)
        scores = np.where(raw > 0, raw, slope * raw)
        e = np.exp(scores - scores.max(axis=0))
        out[i] = np.einsum("jh,jhc->hc", e / e.sum(axis=0), xp[nbhd])
    return out


def gat_backward_reference(xp, a_self, a_nbr, ei, slope, g):
    """The per-edge GAT backward, which forms dalpha = (g[dst] * xp[src]).sum(-1)
    one channel at a time and routes the softmax and LeakyReLU backward
    through segment and scatter sums.  Returns the gradients of xp, a_self
    and a_nbr, and beta = alpha * scale (E, H)."""
    seg, src, dst = ei.seg, ei.src, ei.dst
    s_self = (xp[dst] * a_self).sum(axis=2)
    s_nbr = (xp * a_nbr).sum(axis=2)
    raw = np.repeat(s_self, seg.lengths, axis=0) + np.take(s_nbr, src, axis=0)
    scale = np.where(raw > 0, 1.0, slope)
    e = raw * scale
    e -= np.repeat(np.maximum.reduceat(e, seg.starts, axis=0), seg.lengths, axis=0)
    np.exp(e, out=e)
    alpha = e / np.repeat(np.add.reduceat(e, seg.starts, axis=0), seg.lengths, axis=0)
    g_edges = np.repeat(g, seg.lengths, axis=0)
    dxp = np.zeros_like(xp)
    np.add.at(dxp, src, alpha[:, :, None] * g_edges)
    dalpha = np.zeros_like(alpha)
    for c in range(xp.shape[2]):
        dalpha += g_edges[:, :, c] * np.take(xp[:, :, c], src, axis=0)
    ds = alpha * (dalpha - np.repeat(np.add.reduceat(alpha * dalpha, seg.starts, axis=0),
                                     seg.lengths, axis=0))
    ds *= scale
    ds_self = np.add.reduceat(ds, seg.starts, axis=0)
    ds_nbr = np.zeros((len(xp), xp.shape[1]))
    np.add.at(ds_nbr, src, ds)
    step = ds_nbr[:, :, None] * a_nbr
    step[dst] += ds_self[:, :, None] * a_self
    dxp += step
    return (dxp, np.einsum("nh,nhc->hc", ds_self, xp[dst]),
            np.einsum("nh,nhc->hc", ds_nbr, xp)), alpha * scale


@st.composite
def small_graphs(draw, max_nodes=12):
    n = draw(st.integers(1, max_nodes))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return gr.from_edge_list([p for p, k in zip(pairs, keep) if k], n)


class TestGatAggregate:
    """The fused GAT op against a node-by-node numpy composition and central differences."""

    SLOPE = md.GatLayer.LEAKY_SLOPE

    @staticmethod
    def case(seed, heads, negative=False, n=7, isolated=2, channels=2):
        """Random graph whose last `isolated` nodes have only their self loop."""
        rng = np.random.default_rng(seed)
        pairs = [(i, j) for i in range(n - isolated) for j in range(i + 1, n - isolated)
                 if rng.random() < 0.5]
        g = gr.from_edge_list(pairs, n)
        xp = rng.normal(size=(n, heads, channels))
        a_self = rng.normal(size=(heads, channels))
        a_nbr = rng.normal(size=(heads, channels))
        if negative:        # xp > 0 and a < 0: every raw score is negative
            xp, a_self, a_nbr = np.abs(xp), -np.abs(a_self), -np.abs(a_nbr)
        return g, xp, a_self, a_nbr

    @pytest.mark.parametrize("heads", [1, 2, 3])
    @pytest.mark.parametrize("negative", [False, True])
    def test_forward_matches_composition(self, heads, negative):
        for seed in range(4):
            g, xp, a_self, a_nbr = self.case(seed, heads, negative)
            ei = md.GatEdgeIndex(g)
            out = ad.gat_aggregate(ad.Tensor(xp), a_self, a_nbr, ei, self.SLOPE).data
            want = gat_reference(xp, a_self, a_nbr, g, self.SLOPE)
            assert np.abs(out - want).max() < 1e-12
            # an isolated node attends only to itself
            assert np.abs(out[-1] - xp[-1]).max() < 1e-12

    def test_scores_beyond_exp_range_stay_finite(self):
        g, xp, a_self, a_nbr = self.case(5, 2)
        a_self, a_nbr = 400.0 * a_self, 400.0 * a_nbr     # |scores| ~ 1e3: exp overflows unshifted
        out = ad.gat_aggregate(ad.Tensor(xp), a_self, a_nbr, md.GatEdgeIndex(g), self.SLOPE).data
        assert np.isfinite(out).all()
        assert np.abs(out - gat_reference(xp, a_self, a_nbr, g, self.SLOPE)).max() < 1e-9

    @pytest.mark.parametrize("heads", [1, 2, 3])
    @pytest.mark.parametrize("negative", [False, True])
    def test_grad_check(self, heads, negative):
        for seed in range(3):
            g, xp, a_self, a_nbr = self.case(10 + seed, heads, negative)
            ei = md.GatEdgeIndex(g)
            params = [ad.Parameter(xp), ad.Parameter(a_self), ad.Parameter(a_nbr)]
            w = np.random.default_rng(seed).normal(size=xp.shape)

            def fn():
                return ad.sum_(ad.gat_aggregate(*params, ei, self.SLOPE) * w)

            assert ad.grad_check(fn, params) < FD_TOL

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("negative", [False, True])
    def test_destination_subset(self, heads, negative):
        # node 0, node n-1 and node n-2, whose segments are only their self loops
        rows = np.array([0, 2, 3, 5, 6])
        for seed in range(3):
            g, xp, a_self, a_nbr = self.case(20 + seed, heads, negative)
            ei = md.GatEdgeIndex(g, rows)
            out = ad.gat_aggregate(ad.Tensor(xp), a_self, a_nbr, ei, self.SLOPE).data
            want = gat_reference(xp, a_self, a_nbr, g, self.SLOPE)[rows]
            assert np.abs(out - want).max() < 1e-12
            params = [ad.Parameter(xp), ad.Parameter(a_self), ad.Parameter(a_nbr)]
            w = np.random.default_rng(seed).normal(size=out.shape)

            def fn():
                return ad.sum_(ad.gat_aggregate(*params, ei, self.SLOPE) * w)

            assert ad.grad_check(fn, params) < FD_TOL

    def assert_gradients_match_the_per_edge_backward(self, g, xp, a_self, a_nbr, slope,
                                                       rows=None):
        """All three gradients within 1e-12 of sum |beta| |g| |xp| over the edges."""
        ei = md.GatEdgeIndex(g, rows)
        params = [ad.Parameter(xp), ad.Parameter(a_self), ad.Parameter(a_nbr)]
        out = ad.gat_aggregate(*params, ei, slope)
        grad = np.random.default_rng(len(xp)).normal(size=out.shape)
        out.backward(grad)
        want, beta = gat_backward_reference(xp, a_self, a_nbr, ei, slope, grad)
        size = np.einsum("eh,ehc,ehc->", np.abs(beta), np.abs(np.repeat(grad, ei.seg.lengths, axis=0)),
                         np.abs(xp[ei.src]))
        for p, w in zip(params, want):
            assert np.abs(p.grad - w).max() <= 1e-12 * size
        return beta

    @pytest.mark.parametrize("heads", [1, 2, 8])
    @pytest.mark.parametrize("channels", [1, 3, 8])
    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
    def test_gradients_match_the_per_edge_backward(self, heads, channels, slope):
        # the last two nodes have only their self loop
        for seed in range(3):
            g, xp, a_self, a_nbr = self.case(30 + seed, heads, n=9, channels=channels)
            self.assert_gradients_match_the_per_edge_backward(g, xp, a_self, a_nbr, slope)
            self.assert_gradients_match_the_per_edge_backward(g, xp, a_self, a_nbr, slope,
                                                              rows=np.array([0, 3, 4, 8]))

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
    def test_gradients_match_where_alpha_underflows(self, slope):
        g, xp, a_self, a_nbr = self.case(40, 8, n=12, channels=3)
        a_self, a_nbr = 400.0 * a_self, 400.0 * a_nbr     # |scores| ~ 1e3: exp(shifted) is 0
        for rows in (None, np.array([1, 2, 7, 11])):
            beta = self.assert_gradients_match_the_per_edge_backward(g, xp, a_self, a_nbr,
                                                                     slope, rows)
            assert (beta == 0.0).any()

    def test_peak_memory_stays_under_four_edge_arrays(self):
        # alpha and the LeakyReLU scale are (H, E) each; per-head work takes
        # (E,) rows, so an (E, H, C) array or C separate (E, H) ones would show
        rng = np.random.default_rng(6)
        g = gb.knn_graph(rng.normal(size=(1000, 6)), 45)
        ei = md.GatEdgeIndex(g)
        params = [param(rng, g.n, 8, 8), param(rng, 8, 8), param(rng, 8, 8)]
        grad = rng.normal(size=(g.n, 8, 8))
        tracemalloc.start()
        try:
            ad.gat_aggregate(*params, ei, self.SLOPE).backward(grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * ei.seg.total * 8 * 8

    def test_shape_errors(self):
        g, xp, a_self, a_nbr = self.case(0, 2)
        ei = md.GatEdgeIndex(g)
        with pytest.raises(ad.ShapeError):
            ad.gat_aggregate(xp[:, 0], a_self, a_nbr, ei, self.SLOPE)
        with pytest.raises(ad.ShapeError):
            ad.gat_aggregate(xp, a_self[:1], a_nbr, ei, self.SLOPE)
        with pytest.raises(ad.ShapeError):          # features of another graph
            ad.gat_aggregate(xp[:-1], a_self, a_nbr, ei, self.SLOPE)
        with pytest.raises(ValueError):
            ad.gat_aggregate(xp, a_self, a_nbr, ei, 1.5)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(g=small_graphs(), heads=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
    def test_attention_rows_are_distributions_on_a_plus_i(self, g, heads, seed):
        rng = np.random.default_rng(seed)
        layer = md.GatLayer(3, 2, heads, rng)
        x = ad.Tensor(rng.normal(size=(g.n, 3)))
        support = g.adjacency().astype(bool) | np.eye(g.n, dtype=bool)
        for alpha in layer.attention_weights(x, g):
            assert np.abs(alpha.sum(axis=1) - 1.0).max() < 1e-12
            assert np.all(alpha[support] > 0.0) and np.all(alpha[~support] == 0.0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(g=small_graphs(), heads=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
    def test_layer_is_permutation_equivariant(self, g, heads, seed):
        rng = np.random.default_rng(seed)
        layer = md.GatLayer(3, 2, heads, rng, merge="concat", activation="identity")
        x = rng.normal(size=(g.n, 3))
        perm = rng.permutation(g.n)
        out = layer(ad.Tensor(x), g).data
        out_permuted = layer(ad.Tensor(x[np.argsort(perm)]), gr.permute(g, perm)).data
        assert np.abs(out_permuted[perm] - out).max() < 1e-12
