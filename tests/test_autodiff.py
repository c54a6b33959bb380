import numpy as np
import pytest
from scipy import sparse

from graphdiag import autodiff as ad


def param(rng, *shape):
    return ad.Parameter(rng.normal(size=shape))


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
        seg = ad.SegmentIndex.from_sorted_ids(ids)
        out = ad.segment_sum(ad.Tensor(x), seg).data
        assert np.array_equal(out, [[2, 4], [4, 5], [24, 27]])

    def test_segment_max_matches_loop(self):
        ids = np.array([0, 0, 0, 1, 1])
        x = np.array([[1.0, 9.0], [5.0, 2.0], [3.0, 3.0], [0.0, 1.0], [2.0, 0.0]])
        seg = ad.SegmentIndex.from_sorted_ids(ids)
        out = ad.segment_max(ad.Tensor(x), seg).data
        assert np.array_equal(out, [[5.0, 9.0], [2.0, 1.0]])

    def test_take_put_rows(self):
        x = np.arange(6, dtype=float).reshape(3, 2)
        taken = ad.take_rows(ad.Tensor(x), [2, 0, 2]).data
        assert np.array_equal(taken, [[4, 5], [0, 1], [4, 5]])
        put = ad.put_rows(ad.Tensor(x[:2]), [3, 1], 4).data
        assert np.array_equal(put, [[0, 0], [2, 3], [0, 0], [0, 1]])

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

    def test_mse_matrix(self):
        got = ad.mse_matrix(ad.Tensor([[1.0, 2.0]]), np.array([[0.0, 0.0]])).item()
        assert got == pytest.approx(2.5)


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
        out = ad.GatherPlan(idx, n_rows).scatter_add(g)
        assert out.shape == expected.shape
        assert np.abs(out - expected).max(initial=0.0) < 1e-12

    def test_segment_sum_and_repeat_backward_3d(self):
        rng = np.random.default_rng(11)
        ids = np.array([0, 0, 0, 1, 2, 2, 3, 3, 3, 3])
        seg = ad.SegmentIndex.from_sorted_ids(ids)
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

    def test_conv_stride(self):
        def build(rng):
            x, k = param(rng, 1, 9, 2), param(rng, 3, 2, 2)
            return (lambda: ad.sum_(ad.conv1d(x, k, stride=2))), [x, k]

        self.check(build, 2)

    def test_gather_scatter(self):
        def build(rng):
            a = param(rng, 4, 3)
            idx = rng.integers(0, 4, size=7)
            plan = ad.GatherPlan(idx, 4)
            w = rng.normal(size=(7, 3))

            def fn():
                taken = ad.take_rows(a, idx, plan)
                return ad.sum_(taken * w) + ad.sum_(ad.put_rows(taken, np.arange(7), 9))

            return fn, [a]

        self.check(build, 1)

    def test_segment_ops(self):
        def build(rng):
            ids = np.sort(rng.integers(0, 3, size=8))
            ids[0] = 0
            ids[-1] = 2
            seg = ad.SegmentIndex.from_sorted_ids(ids)
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
                return (ad.cross_entropy(z, y, mask)
                        + ad.bce_matrix(ad.sigmoid(r), t)
                        + ad.mse_matrix(ad.sigmoid(r), t))

            return fn, [z, r]

        self.check(build, 2)
