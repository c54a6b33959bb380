import numpy as np
import pytest

from graphdiag import graph as gr


def random_graph(rng, n, p=0.4):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return gr.from_edge_list(pairs, n)


class TestFromEdgeList:
    def test_orientation_collapse(self):
        g = gr.from_edge_list([(0, 1), (1, 0)], 2)
        assert g.n_edges == 1
        assert g.edges.tolist() == [[0, 1]]

    def test_empty(self):
        g = gr.from_edge_list([], 3)
        assert g.n_edges == 0
        assert g.n == 3

    def test_path_degrees(self):
        g = gr.from_edge_list([(0, 1), (1, 2)], 3)
        assert g.degrees().tolist() == [1, 2, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(gr.GraphError):
            gr.from_edge_list([(0, 3)], 3)

    def test_self_loop_rejected(self):
        with pytest.raises(gr.GraphError):
            gr.from_edge_list([(1, 1)], 3)

    def test_adjacency_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 15)))
            a = g.adjacency()
            assert np.array_equal(a, a.T)
            assert np.all(np.diag(a) == 0)

    @pytest.mark.parametrize("n", [-1, 2.5])
    def test_bad_node_count_rejected(self, n):
        with pytest.raises(gr.GraphError, match="node count"):
            gr.Graph(n, [])

    def test_dense_cap(self):
        g = gr.from_edge_list([(0, 1)], 2)
        with pytest.raises(gr.GraphError):
            g.adjacency(cap=1)


class TestNormalizedAdjacency:
    def test_isolated_node(self):
        g = gr.from_edge_list([], 1)
        assert np.array_equal(gr.normalized_adjacency(g), [[1.0]])

    def test_single_edge(self):
        g = gr.from_edge_list([(0, 1)], 2)
        assert np.allclose(gr.normalized_adjacency(g), 0.5)

    def test_path_entry(self):
        g = gr.from_edge_list([(0, 1), (1, 2)], 3)
        s = gr.normalized_adjacency(g)
        assert s[0, 1] == pytest.approx(1 / np.sqrt(2 * 3))

    def test_isolated_row_is_unit_self_entry(self):
        g = gr.from_edge_list([(0, 1)], 3)
        s = gr.normalized_adjacency(g)
        assert np.array_equal(s[2], [0, 0, 1.0])

    def test_spectrum_in_unit_interval(self):
        # independent dense eigensolver on random graphs
        rng = np.random.default_rng(2)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(1, 21)))
            eig = np.linalg.eigvalsh(gr.normalized_adjacency(g))
            assert eig.min() >= -1 - 1e-9
            assert eig.max() <= 1 + 1e-9


class TestMeanAggregation:
    def test_rows_average_neighbors(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(1, 15)))
            m = gr.mean_propagation(g).toarray()
            for v in range(g.n):
                want = np.zeros(g.n)
                nb = g.neighbors(v)
                want[nb] = 1.0 / len(nb) if len(nb) else 0.0
                assert np.array_equal(m[v], want)

    def test_operators_built_once_per_graph(self):
        g = gr.from_edge_list([(0, 1), (1, 2)], 3)
        assert gr.sym_propagation(g) is gr.sym_propagation(g)
        assert gr.mean_propagation(g) is gr.mean_propagation(g)

    @pytest.mark.parametrize("operator", [gr.sym_propagation, gr.mean_propagation])
    def test_row_operators_are_the_full_rows(self, operator):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 15)))
            rows = np.flatnonzero(rng.random(g.n) < 0.5)
            if not len(rows):
                continue
            part = operator(g, rows)
            assert part.has_sorted_indices
            assert np.array_equal(part.toarray(), operator(g).toarray()[rows])

    def test_row_operators_kept_for_the_latest_rows(self):
        g = gr.from_edge_list([(0, 1), (1, 2)], 3)
        full = gr.sym_propagation(g)
        first = gr.sym_propagation(g, np.array([0, 2]))
        assert gr.sym_propagation(g, np.array([0, 2])) is first
        other = gr.sym_propagation(g, np.array([1]))
        assert other is not first and other.shape == (1, 3)
        assert gr.sym_propagation(g, np.array([1])) is other
        assert gr.sym_propagation(g) is full


class TestNeighbors:
    def test_path_middle(self):
        g = gr.from_edge_list([(0, 1), (1, 2)], 3)
        assert set(g.neighbors(1)) == {0, 2}

    def test_isolated(self):
        g = gr.from_edge_list([], 2)
        assert len(g.neighbors(0)) == 0

    def test_k3(self):
        g = gr.from_edge_list([(0, 1), (0, 2), (1, 2)], 3)
        assert set(g.neighbors(0)) == {1, 2}

    def test_out_of_range(self):
        g = gr.from_edge_list([], 2)
        with pytest.raises(gr.GraphError):
            g.neighbors(5)

    def test_writing_the_result_leaves_the_cached_operator_alone(self):
        g = gr.from_edge_list([(0, 1), (1, 2), (0, 2)], 4)
        m = gr.mean_propagation(g)
        before = m.toarray()
        nb = g.neighbors(1)
        assert nb.dtype == np.intp
        nb[:] = 3
        assert np.array_equal(gr.mean_propagation(g).toarray(), before)
        assert g.neighbors(1).tolist() == [0, 2]


class TestStructureOracle:
    def test_neighbors_and_degrees_match_loop(self):
        rng = np.random.default_rng(7)
        n = 40
        pairs = rng.integers(0, 30, size=(120, 2))     # nodes 30..39 stay isolated
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        g = gr.from_edge_list(pairs, n)
        nbrs = [set() for _ in range(n)]
        for i, j in pairs:
            nbrs[i].add(j)
            nbrs[j].add(i)
        for v in range(n):
            assert g.neighbors(v).tolist() == sorted(nbrs[v])
        assert g.degrees().tolist() == [len(s) for s in nbrs]
        assert all(len(nbrs[v]) == 0 for v in range(30, n))


class TestPermute:
    def test_identity(self):
        g = gr.from_edge_list([(0, 2), (1, 2)], 3)
        assert gr.permute(g, [0, 1, 2]) == g

    def test_swap(self):
        g = gr.from_edge_list([(0, 2)], 3)
        assert gr.permute(g, [1, 0, 2]).edges.tolist() == [[1, 2]]

    def test_degree_multiset_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_graph(rng, 8)
            perm = rng.permutation(8)
            assert sorted(gr.permute(g, perm).degrees()) == sorted(g.degrees())

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(6, 3))
        g = gr.Graph(6, [(0, 1), (2, 5), (3, 4)], features=feats,
                     labels=[0, 1, 0, 1, 0, 1])
        perm = rng.permutation(6)
        inv = np.argsort(perm)
        back = gr.permute(gr.permute(g, perm), inv)
        assert back == g
        assert np.allclose(back.features, feats)

    def test_not_bijection(self):
        g = gr.from_edge_list([(0, 1)], 3)
        with pytest.raises(gr.GraphError):
            gr.permute(g, [0, 0, 1])


class TestEdgeListFile:
    def test_round_trip(self, tmp_path):
        g = gr.from_edge_list([(0, 1), (2, 3), (1, 3)], 5)
        path = tmp_path / "g.edges"
        gr.write_edge_list(path, g)
        back = gr.read_edge_list(path, n=5)
        assert back == g

    @pytest.mark.parametrize("block", [gr.EDGE_WRITE_BLOCK, 7])
    def test_bytes_match_the_per_edge_writer(self, tmp_path, block, monkeypatch):
        monkeypatch.setattr(gr, "EDGE_WRITE_BLOCK", block)
        path = tmp_path / "g.edges"
        for g in (random_graph(np.random.default_rng(5), 30), gr.Graph(4, []), gr.Graph(0, [])):
            gr.write_edge_list(path, g)
            # the numpy scalars of each edge row, formatted one line at a time
            want = f"# nodes {g.n}\n" + "".join(f"{i} {j}\n" for i, j in g.edges)
            assert path.read_bytes() == want.encode()
            back = gr.read_edge_list(path)
            assert back.n == g.n and back == g

    def test_comments_and_duplicates(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# comment\n0 1\n1 0\n0 1\n")
        g = gr.read_edge_list(path)
        assert g.n_edges == 1

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1 2\n")
        with pytest.raises(gr.GraphError):
            gr.read_edge_list(path)

    def test_round_trip_keeps_trailing_isolated_nodes(self, tmp_path):
        g = gr.from_edge_list([(0, 1), (1, 2)], 5)
        path = tmp_path / "g.edges"
        gr.write_edge_list(path, g)
        back = gr.read_edge_list(path)
        assert back.n == 5
        assert back == g
        assert gr.read_edge_list(path, n=7).n == 7

    @pytest.mark.parametrize("text, line", [
        ("# nodes 3\n0 1\n1 3\n", 3),
        ("# nodes 3\n0 1\n\n# c\n-1 2\n", 5),
    ])
    def test_endpoint_outside_header_range(self, tmp_path, text, line):
        path = tmp_path / "g.edges"
        path.write_text(text)
        with pytest.raises(gr.GraphError, match=f"line {line}"):
            gr.read_edge_list(path)

    def test_explicit_n_wins_over_header(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# nodes 10\n0 1\n4 5\n")
        with pytest.raises(gr.GraphError, match="line 3"):
            gr.read_edge_list(path, n=5)

    @pytest.mark.parametrize("text", ["# nodes x\n0 1\n", "0 a\n", "7\n"])
    def test_malformed_header_or_token(self, tmp_path, text):
        path = tmp_path / "g.edges"
        path.write_text(text)
        with pytest.raises(gr.GraphError, match="line 1"):
            gr.read_edge_list(path)
