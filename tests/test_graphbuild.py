import numpy as np
import pytest

from graphdiag import graph as gr
from graphdiag import graphbuild as gb
from graphdiag import models as md


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

    def test_matrix_stacks_rows(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(size=(3, 32, 2))
        mat = gb.extract_feature_matrix(samples)
        assert mat.shape == (3, 24)
        assert np.array_equal(mat[1], gb.extract_features(samples[1]))


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
        g = gb.knn_graph(f, 1, standardize_features=False)
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

    def test_edge_budget_exact(self):
        rng = np.random.default_rng(11)
        f, y = two_cluster_features(rng)
        base = gb.knn_graph(f, 3, labels=y)
        want = base.n_edges + 10
        spec = md.default_spec("gae", epochs=30)
        refined = gb.gae_refine_graph(f, base, spec=spec, edge_budget=want)
        assert refined.n_edges == want

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
