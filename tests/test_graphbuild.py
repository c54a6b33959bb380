import tracemalloc

import numpy as np
import pytest

from graphdiag import autodiff as ad
from graphdiag import graph as gr
from graphdiag import graphbuild as gb
from graphdiag import models as md
from graphdiag.autodiff import Tensor
from graphdiag.optim import make_optimizer


class TestExtractFeatures:
    def test_vector_length(self):
        rng = np.random.default_rng(0)
        out = gb.extract_features(rng.normal(size=(64, 5)))
        assert out.shape == (5 * gb.FEATURES_PER_CHANNEL,)
        assert len(gb.FEATURE_NAMES) == gb.FEATURES_PER_CHANNEL

    def test_constant_channel(self):
        out = gb.extract_features(np.full((32, 1), 2.0))
        named = dict(zip(gb.FEATURE_NAMES, out))
        assert named["mean"] == 2.0
        assert named["std"] == 0.0
        assert named["rms"] == 2.0
        assert named["peak_to_peak"] == 0.0
        assert named["skewness"] == 0.0
        assert named["kurtosis"] == 0.0
        assert named["spectral_centroid"] == 0.0

    def test_sine_statistics(self):
        t = np.arange(256)
        s = 3.0 * np.sin(2 * np.pi * 8 * t / 256)
        named = dict(zip(gb.FEATURE_NAMES, gb.extract_features(s)))
        assert named["mean"] == pytest.approx(0.0, abs=1e-12)
        assert named["rms"] == pytest.approx(3.0 / np.sqrt(2))
        assert named["peak_to_peak"] == pytest.approx(6.0, rel=1e-3)
        assert named["crest_factor"] == pytest.approx(np.sqrt(2), rel=1e-3)
        # all spectral mass sits at bin 8, inside the first quarter band
        assert named["spectral_centroid"] == pytest.approx(8.0)
        assert named["band_energy_1"] == pytest.approx(0.0, abs=1e-12)
        assert named["band_energy_0"] > 0.0

    def test_skewed_signal_positive_skewness(self):
        rng = np.random.default_rng(1)
        s = rng.exponential(size=2048)
        named = dict(zip(gb.FEATURE_NAMES, gb.extract_features(s)))
        assert named["skewness"] > 1.0
        assert named["kurtosis"] > 1.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            gb.extract_features(np.zeros((4, 1)))

    def test_non_finite(self):
        s = np.zeros((16, 1))
        s[3] = np.nan
        with pytest.raises(ValueError):
            gb.extract_features(s)

    @staticmethod
    def features_by_loop(samples):
        """The statistics sample by sample and channel by channel, in plain numpy."""
        rows = []
        for x in samples:
            t = len(x)
            feats = []
            for ch in range(x.shape[1]):
                s = x[:, ch]
                mean, std = s.mean(), s.std()
                rms = np.sqrt((s * s).mean())
                skew = ((s - mean) / std) ** 3 if std > 0 else None
                kurt = ((s - mean) / std) ** 4 if std > 0 else None
                spec = np.abs(np.fft.rfft(s - mean)) ** 2
                total = spec.sum()
                feats += [mean, std, rms, s.max() - s.min(),
                          skew.mean() if std > 0 else 0.0,
                          kurt.mean() - 3.0 if std > 0 else 0.0,
                          np.abs(s).max() / rms if rms > 0 else 0.0,
                          (np.arange(len(spec)) * spec).sum() / total if total > 0 else 0.0]
                feats += [b.sum() / t for b in np.array_split(spec, 4)]
            rows.append(feats)
        return np.asarray(rows)

    def test_matrix_stacks_rows(self):
        rng = np.random.default_rng(2)
        # more samples than one block, and constant channels (zero and non-zero)
        samples = rng.normal(size=(gb.FEATURE_CHUNK + 5, 33, 4))
        samples[:, :, 1] = 0.0
        samples[::3, :, 2] = 1.5
        mat = gb.extract_feature_matrix(samples)
        assert mat.shape == (len(samples), 4 * gb.FEATURES_PER_CHANNEL)
        assert mat.tobytes() == self.features_by_loop(samples).tobytes()
        assert mat[7].tobytes() == gb.extract_features(samples[7]).tobytes()

    def test_matrix_rejects_non_finite_sample(self):
        samples = np.zeros((gb.FEATURE_CHUNK + 2, 16, 2))
        samples[-1, 3, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            gb.extract_feature_matrix(samples)


class TestStandardize:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(3)
        z = gb.standardize(rng.normal(2.0, 5.0, size=(100, 4)))
        assert np.abs(z.mean(axis=0)).max() < 1e-12
        assert np.abs(z.std(axis=0) - 1.0).max() < 1e-12

    def test_constant_column_centered_only(self):
        f = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        z = gb.standardize(f)
        assert np.all(z[:, 0] == 0.0)


def loops_neighbor_table(f, k):
    n = len(f)
    table = np.empty((n, k), dtype=np.intp)
    for i in range(n):
        d = ((f - f[i]) ** 2).sum(axis=1)
        d[i] = np.inf
        table[i] = np.argsort(d, kind="stable")[:k]
    return table


class TestKnnGraph:
    def test_line_of_points(self):
        f = np.arange(5.0)[:, None]
        g = gb.knn_graph(f, 1)
        # each point picks its closer line neighbor; ties go to the lower index
        assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3], [3, 4]]

    def test_tie_breaks_to_lower_index(self):
        f = np.array([[0.0], [-1.0], [1.0]])
        table = gb.nearest_neighbor_table(f, 1)
        assert table[0, 0] == 1

    def test_table_matches_loop_oracle_exactly(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 51))
            k = int(rng.integers(1, 6))
            f = rng.normal(size=(n, 4))
            got = gb.nearest_neighbor_table(f, k)
            assert np.array_equal(got, loops_neighbor_table(f, k))

    def test_small_chunk_budget_matches_loop_oracle(self, monkeypatch):
        # a budget below one row's n*d block forces one row per chunk
        rng = np.random.default_rng(11)
        f = rng.normal(size=(37, 5))
        for budget in (1, 37 * 5 * 4):
            monkeypatch.setattr(gb, "KNN_CHUNK_ELEMENTS", budget)
            assert np.array_equal(gb.nearest_neighbor_table(f, 4),
                                  loops_neighbor_table(f, 4))

    @pytest.mark.parametrize("case", ["pruned", "duplicated rows", "exact ties",
                                      "constant columns"])
    def test_hard_cases_match_loop_oracle(self, case):
        rng = np.random.default_rng(12)
        f, ks = {
            # n far above k + KNN_CANDIDATE_MARGIN, so the GEMM prunes candidates
            "pruned": lambda: (rng.normal(size=(420, 9)), (5, 45)),
            "duplicated rows": lambda: (np.tile(rng.normal(size=(210, 6)), (2, 1)), (1, 5, 45)),
            # one decimal on a small box: many pairs at exactly equal distance
            "exact ties": lambda: (np.round(rng.uniform(-1, 1, size=(400, 3)), 1), (5, 45)),
            "constant columns": lambda: (np.column_stack(
                [np.full(60, 3.0), rng.normal(size=(60, 2)), np.zeros(60)]), (4, 59)),
        }[case]()
        for k in ks:
            assert np.array_equal(gb.nearest_neighbor_table(f, k), loops_neighbor_table(f, k))

    def test_identical_points_widen_candidates(self):
        # 300 copies of one point: every candidate set of k + margin ties at
        # distance 0 with the rest, so each row must widen to find the
        # lowest indices; the outliers rank after all copies
        rng = np.random.default_rng(16)
        f = np.concatenate([np.tile(rng.normal(size=(1, 5)), (300, 1)),
                            rng.normal(size=(6, 5)) + 10.0])
        table = gb.nearest_neighbor_table(f, 5)
        assert np.array_equal(table, loops_neighbor_table(f, 5))
        assert table[299].tolist() == [0, 1, 2, 3, 4]

    def test_queries_without_self_exclusion(self):
        rng = np.random.default_rng(17)
        points = np.concatenate([np.zeros((40, 3)), np.round(rng.normal(size=(30, 3)), 1)])
        queries = np.concatenate([np.zeros((3, 3)), np.round(rng.normal(size=(20, 3)), 1)])
        d2 = ((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        want = np.argsort(d2, axis=1, kind="stable")
        for k in (1, 5, 70):
            assert np.array_equal(gb.nearest_indices(queries, points, k), want[:, :k])

    def test_table_memory_is_bounded(self):
        f = np.random.default_rng(18).normal(size=(3000, 72))
        tracemalloc.start()
        try:
            gb.nearest_neighbor_table(f, 45)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two budget-sized arrays at a time, and the 1 MB (3000, 45) table
        assert peak < 2 * 8 * gb.KNN_CHUNK_ELEMENTS + 2 * 1024 * 1024

    def test_edge_count_bounds(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=(40, 3))
        k = 5
        g = gb.knn_graph(f, k)
        assert 40 * k / 2 <= g.n_edges <= 40 * k

    def test_degree_at_least_k(self):
        rng = np.random.default_rng(5)
        g = gb.knn_graph(rng.normal(size=(30, 3)), 4)
        assert g.degrees().min() >= 4

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            gb.knn_graph(np.zeros((5, 2)), 5)

    def test_carries_raw_features_and_labels(self):
        rng = np.random.default_rng(6)
        f = rng.normal(size=(10, 2))
        y = rng.integers(0, 2, size=10)
        g = gb.knn_graph(f, 2, labels=y)
        assert np.array_equal(g.features, f)
        assert np.array_equal(g.labels, y)


class TestPriorPartitionGraph:
    def test_clique_edge_count(self):
        g = gb.prior_partition_graph([0, 0, 0, 1, 1])
        assert g.n_edges == 3 + 1

    def test_no_cross_cluster_edges(self):
        a = np.array([0, 1, 0, 1, 2, 2])
        g = gb.prior_partition_graph(a)
        for i, j in g.edges:
            assert a[i] == a[j]

    def test_true_labels_give_zero_label_disagreement(self):
        y = np.array([0, 0, 1, 1, 1, 2])
        g = gb.prior_partition_graph(y, labels=y)
        assert gb.label_smoothness(g) == 0.0

    def test_empty_assignment(self):
        with pytest.raises(ValueError):
            gb.prior_partition_graph([])

    def test_edges_match_pair_loop(self):
        a = np.random.default_rng(19).integers(0, 4, size=30)
        a[7] = 9                                  # a one-member cluster
        want = [[i, j] for i in range(30) for j in range(i + 1, 30) if a[i] == a[j]]
        assert gb.prior_partition_graph(a).edges.tolist() == want


class TestSmoothness:
    def loops_lambda_f(self, g):
        d = g.features.shape[1]
        acc = np.zeros(d)
        for i, j in g.edges:
            for f in range(d):
                acc[f] += (g.features[i, f] - g.features[j, f]) ** 2
        return float(np.sqrt((acc ** 2).sum()) / (g.n_edges * d))

    def test_lambda_f_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(4, 20))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.4]
            if not pairs:
                continue
            g = gr.Graph(n, pairs, features=rng.normal(size=(n, 5)))
            assert gb.feature_smoothness(g) == pytest.approx(
                self.loops_lambda_f(g), abs=1e-12)

    def test_lambda_f_across_edge_chunks(self):
        rng = np.random.default_rng(9)
        pairs = rng.integers(0, 150, size=(6000, 2))
        g = gr.Graph(150, pairs[pairs[:, 0] != pairs[:, 1]], features=rng.normal(size=(150, 3)))
        assert g.n_edges > gb.SMOOTHNESS_CHUNK
        got = gb.feature_smoothness(g)
        assert got == pytest.approx(self.loops_lambda_f(g), abs=1e-12)
        # one (|E|, d) difference array sums its rows in the same order
        diffs = g.features[g.edges[:, 0]] - g.features[g.edges[:, 1]]
        acc = (diffs * diffs).sum(axis=0)
        assert got == float(np.linalg.norm(acc) / (g.n_edges * 3))

    def test_lambda_f_zero_for_identical_features(self):
        g = gr.Graph(3, [(0, 1), (1, 2)], features=np.ones((3, 4)))
        assert gb.feature_smoothness(g) == 0.0

    def test_lambda_f_scales_quadratically(self):
        rng = np.random.default_rng(8)
        f = rng.normal(size=(10, 3))
        pairs = [(0, 1), (2, 3), (4, 5), (8, 9)]
        base = gb.feature_smoothness(gr.Graph(10, pairs, features=f))
        scaled = gb.feature_smoothness(gr.Graph(10, pairs, features=3.0 * f))
        assert scaled == pytest.approx(9.0 * base)

    def test_lambda_l_counts_disagreeing_edges(self):
        g = gr.Graph(4, [(0, 1), (1, 2), (2, 3)], labels=[0, 0, 1, 1])
        assert gb.label_smoothness(g) == pytest.approx(1.0 / 3.0)

    def test_lambda_l_invariant_under_label_renaming(self):
        rng = np.random.default_rng(9)
        y = rng.integers(0, 3, size=12)
        pairs = [(i, (i + 1) % 12) for i in range(11)]
        a = gb.label_smoothness(gr.Graph(12, pairs, labels=y))
        renamed = np.array([2, 0, 1])[y]
        b = gb.label_smoothness(gr.Graph(12, pairs, labels=renamed))
        assert a == b

    def test_requires_data(self):
        g = gr.from_edge_list([(0, 1)], 2)
        with pytest.raises(gr.GraphError):
            gb.feature_smoothness(g)
        with pytest.raises(gr.GraphError):
            gb.label_smoothness(g)

    def test_quality_bundle(self):
        g = gr.Graph(3, [(0, 1)], features=np.eye(3), labels=[0, 1, 1])
        q = gb.graph_quality(g)
        assert q.to_dict() == {"lambda_f": gb.feature_smoothness(g),
                               "lambda_l": 1.0, "edges": 1}


def two_cluster_features(rng, n=20, sep=6.0):
    half = n // 2
    f = rng.normal(size=(n, 3))
    f[half:] += sep
    y = np.array([0] * half + [1] * (n - half))
    return f, y


class TestGaeRefine:
    def test_refined_is_superset(self):
        rng = np.random.default_rng(10)
        f, y = two_cluster_features(rng)
        base = gb.knn_graph(f, 3, labels=y)
        spec = md.default_spec("gae", epochs=30)
        refined = gb.gae_refine_graph(f, base, tau=0.5, spec=spec)
        base_set = set(map(tuple, base.edges))
        refined_set = set(map(tuple, refined.edges))
        assert base_set <= refined_set

    def test_added_edges_respect_clusters(self):
        rng = np.random.default_rng(12)
        f, y = two_cluster_features(rng, n=24, sep=8.0)
        base = gb.knn_graph(f, 3, labels=y)
        spec = md.default_spec("gae", epochs=80)
        refined = gb.gae_refine_graph(f, base, tau=0.9, spec=spec)
        added = set(map(tuple, refined.edges)) - set(map(tuple, base.edges))
        if added:
            intra = sum(1 for i, j in added if y[i] == y[j])
            assert intra / len(added) >= 0.9

    def test_bad_tau(self):
        rng = np.random.default_rng(13)
        f, _ = two_cluster_features(rng)
        base = gb.knn_graph(f, 3)
        with pytest.raises(ValueError):
            gb.gae_refine_graph(f, base, tau=1.5)

    def test_training_loss_decreases(self):
        rng = np.random.default_rng(14)
        f, _ = two_cluster_features(rng)
        base = gb.knn_graph(f, 3)
        spec = md.default_spec("gae", epochs=60)
        _, _, trace = gb.train_gae_on_graph(f, base, spec)
        assert trace[-1] < trace[0]

    def test_first_layer_input_is_propagated_once_per_graph(self, monkeypatch):
        f, _ = two_cluster_features(np.random.default_rng(16))
        base = gb.knn_graph(f, 3)
        operands = []
        propagate = ad.propagate

        def recorded(s, x):
            operands.append(x)
            return propagate(s, x)

        monkeypatch.setattr(ad, "propagate", recorded)
        for _ in range(2):
            gb.train_gae_on_graph(base.features, base, md.default_spec("gae", epochs=5))
        x = base.derived(md.FirstLayerInputs).x
        assert sum(operand is x for operand in operands) == 1
        # the second layer propagates in each of the 5 epochs and the final encode
        assert len(operands) == 1 + 2 * (5 + 1)

    def test_fused_loss_trace_matches_composition(self):
        rng = np.random.default_rng(15)
        f = rng.normal(size=(30, 5))
        pairs = rng.integers(0, 30, size=(60, 2))
        base = gr.Graph(30, pairs[pairs[:, 0] != pairs[:, 1]])
        spec = md.default_spec("gae", epochs=5, seed=3)
        z, _, trace = gb.train_gae_on_graph(f, base, spec)

        model = md.GaeModel(f.shape[1], spec)
        opt = make_optimizer(spec.optimizer, model.params, spec.lr)
        x, target = Tensor(gb.standardize(f)), base.adjacency()
        want = []
        for _ in range(5):
            loss = ad.bce_matrix(model.forward(x, base), target)
            want.append(loss.item())
            loss.backward()
            opt.step()
        np.testing.assert_allclose(trace, want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(z, model.encode(x, base).data, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [12, 40, 130, 200])
    def test_refined_edges_follow_the_dense_rule(self, n):
        # the reference rule on the dense A_hat: the base edges and every other
        # pair i < j whose symmetrised score is >= tau
        rng = np.random.default_rng(n)
        f = rng.normal(size=(n, 5))
        pairs = rng.integers(0, n, size=(2 * n, 2))
        base = gr.Graph(n, pairs[pairs[:, 0] != pairs[:, 1]])
        spec = md.default_spec("gae", epochs=10, seed=n)
        _, model, _ = gb.train_gae_on_graph(f, base, spec)
        with ad.no_grad():
            recon = model.forward(Tensor(gb.standardize(f)), base).data
        scores = (recon + recon.T) / 2.0
        candidate = np.triu(np.ones((n, n), dtype=bool), 1) & (base.adjacency() == 0)
        # tau in the widest gap between the candidates' 75th and 95th percentile scores
        m = candidate.sum()
        ranked = np.sort(scores[candidate])[3 * m // 4:19 * m // 20]
        k = np.argmax(np.diff(ranked))
        tau = (ranked[k] + ranked[k + 1]) / 2.0
        assert ranked[k + 1] - ranked[k] > 1e-9
        refined = gb.gae_refine_graph(f, base, tau=tau, spec=spec)
        added = np.argwhere(candidate & (scores >= tau))
        want = set(map(tuple, base.edges)) | set(map(tuple, added))
        assert set(map(tuple, refined.edges)) == want
        assert refined.n_edges > base.n_edges

    def test_refines_graph_above_dense_cap_in_row_blocks(self):
        n = 4500
        assert n > gr.DENSE_CAP
        f = np.random.default_rng(0).normal(size=(n, 4))
        base = gr.Graph(n, np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1))
        spec = md.default_spec("gae", epochs=2)
        tracemalloc.start()
        try:
            refined = gb.gae_refine_graph(f, base, tau=0.8, spec=spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one N x N float64 array would be 162 MB
        assert peak < n * n * 8 / 4
        z, _, _ = gb.train_gae_on_graph(f, base, spec)
        want = set(map(tuple, base.edges))
        for a in range(0, n, 500):
            s = 1.0 / (1.0 + np.exp(-(z[a:a + 500] @ z.T)))
            assert np.abs(s - 0.8).min() > 1e-9
            i, j = np.nonzero(s >= 0.8)
            want |= {(int(r) + a, int(c)) for r, c in zip(i, j) if r + a < c}
        assert set(map(tuple, refined.edges)) == want
        # a barely trained GAE on this ring adds O(N) pairs, not O(N^2)
        assert 0 < refined.n_edges - base.n_edges < n
