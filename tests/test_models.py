import itertools
import json
import tracemalloc

import numpy as np
import pytest

from graphdiag import autodiff as ad
from graphdiag import graph as gr
from graphdiag import graphbuild as gb
from graphdiag import models as md
from graphdiag.autodiff import Tensor
from graphdiag.checkpoint import save_checkpoint, load_checkpoint

ORACLE_TOL = 1e-12


# ---------------------------------------------------------------------------
# scalar-loop reference implementations

def loops_norm_adj(g):
    n = g.n
    a = np.zeros((n, n))
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1.0
    for i in range(n):
        a[i, i] = 1.0
    s = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if a[i, j]:
                s[i, j] = 1.0 / np.sqrt(a[i].sum() * a[j].sum())
    return s


def loops_gcn_layer(x, theta, g, activation="relu"):
    s = loops_norm_adj(g)
    n, f_in = x.shape
    f_out = theta.shape[1]
    out = np.zeros((n, f_out))
    for i in range(n):
        for o in range(f_out):
            acc = 0.0
            for j in range(n):
                for f in range(f_in):
                    acc += s[i, j] * x[j, f] * theta[f, o]
            out[i, o] = acc if activation != "relu" or acc > 0 else 0.0
    return out


def loops_gat_layer(x, layer, g):
    n = g.n
    heads, c = layer.heads, layer.c_out
    w, a_self, a_nbr = layer.w.data, layer.a_self.data, layer.a_nbr.data
    xp = np.zeros((n, heads, c))
    for i in range(n):
        for h in range(heads):
            for o in range(c):
                acc = 0.0
                for f in range(x.shape[1]):
                    acc += x[i, f] * w[f, h * c + o]
                xp[i, h, o] = acc
    s_self = np.einsum("ihc,hc->ih", xp, a_self)
    s_nbr = np.einsum("ihc,hc->ih", xp, a_nbr)
    out = np.zeros((n, heads, c))
    for i in range(n):
        nbhd = sorted(set(g.neighbors(i).tolist()) | {i})
        for h in range(heads):
            raw = []
            for j in nbhd:
                v = s_self[i, h] + s_nbr[j, h]
                raw.append(v if v > 0 else layer.LEAKY_SLOPE * v)
            shift = max(raw)
            e = [np.exp(v - shift) for v in raw]
            z = sum(e)
            for j, ev in zip(nbhd, e):
                out[i, h] += (ev / z) * xp[j, h]
    if layer.merge == "concat":
        merged = out.reshape(n, heads * c)
    else:
        merged = out.mean(axis=1)
    return np.maximum(merged, 0.0) if layer.activation == "relu" else merged


def loops_sage_layer(x, layer, g):
    n = g.n
    f_in = x.shape[1]
    if layer.aggregator == "gcn":
        agg = loops_norm_adj(g) @ x
    elif layer.aggregator == "mean":
        agg = np.zeros((n, f_in))
        for i in range(n):
            nb = g.neighbors(i)
            if len(nb):
                agg[i] = x[nb].mean(axis=0)
    else:
        t = np.maximum(x @ layer.w_pool.data + layer.b_pool.data, 0.0)
        agg = np.zeros((n, f_in))
        for i in range(n):
            nb = g.neighbors(i)
            if len(nb):
                agg[i] = t[nb].max(axis=0)
    z = np.concatenate([x, agg], axis=1) @ layer.w.data
    return np.maximum(z, 0.0) if layer.activation == "relu" else z


def loops_conv_layer(h, layer):
    kernel, bias = layer.kernel.data, layer.bias.data
    k, f_in, f_out = kernel.shape
    b, t, _ = h.shape
    tout = t - k + 1
    out = np.zeros((b, tout, f_out))
    for bi in range(b):
        for ti in range(tout):
            for o in range(f_out):
                acc = bias[o]
                for kk in range(k):
                    for f in range(f_in):
                        acc += h[bi, ti + kk, f] * kernel[kk, f, o]
                out[bi, ti, o] = max(acc, 0.0)
    return out


def loops_gcn_model(x, model, g):
    z = loops_gcn_layer(x, model.gc.theta.data, g)
    h = z[:, :, None]
    for conv in model.convs:
        h = loops_conv_layer(h, conv)
    h = h.reshape(h.shape[0], -1)
    h = np.maximum(h @ model.fc1.w.data + model.fc1.b.data, 0.0)
    return h @ model.fc2.w.data + model.fc2.b.data


def all_graphs(n):
    """Every undirected graph on n labeled nodes."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        yield gr.from_edge_list([p for p, b in zip(pairs, bits) if b], n)


def random_case(rng, n_max=6, f_in=3):
    n = int(rng.integers(2, n_max + 1))
    p = rng.uniform(0.2, 0.8)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return gr.from_edge_list(pairs, n), rng.normal(size=(n, f_in))


def small_spec(architecture, seed=0, **kw):
    return md.default_spec(architecture, seed=seed, **kw)


# ---------------------------------------------------------------------------

class TestModelSpec:
    def test_table_defaults(self):
        gcn = md.default_spec("gcn")
        assert (gcn.epochs, gcn.lr, gcn.optimizer) == (300, 0.00018, "rmsprop")
        gat = md.default_spec("gat")
        assert (gat.epochs, gat.lr, gat.optimizer) == (200, 0.00005, "adam")
        sage = md.default_spec("graphsage")
        assert (sage.epochs, sage.lr, sage.optimizer) == (300, 0.005, "rmsprop")
        st = md.default_spec("stgcn")
        assert (st.epochs, st.lr, st.optimizer) == (200, 0.001, "adam")
        assert gat.heads == 8

    def test_unknown_architecture(self):
        with pytest.raises(ValueError):
            md.default_spec("transformer")

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            md.default_spec("gcn", epoch=5)

    def test_json_round_trip(self):
        spec = md.default_spec("gcn", seed=7, widths={"gc": 32})
        back = md.ModelSpec.from_json(spec.to_json())
        assert back == spec


class TestGcnOracle:
    def test_layer_exhaustive_small(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 4):
            for g in all_graphs(n):
                x = rng.normal(size=(n, 3))
                layer = md.GcnLayer(3, 4, np.random.default_rng(0))
                got = layer(Tensor(x), g).data
                want = loops_gcn_layer(x, layer.theta.data, g)
                assert np.abs(got - want).max() < ORACLE_TOL

    def test_model_random(self):
        rng = np.random.default_rng(11)
        spec = small_spec("gcn", widths={"gc": 8, "conv": (2, 2), "hidden": 4})
        for _ in range(20):
            g, x = random_case(rng)
            model = md.GcnModel(3, 3, spec)
            got = model.forward(Tensor(x), g).data
            want = loops_gcn_model(x, model, g)
            assert np.abs(got - want).max() < ORACLE_TOL


class TestGatOracle:
    def test_layer_exhaustive_small(self):
        rng = np.random.default_rng(12)
        for n in (2, 3):
            for g in all_graphs(n):
                x = rng.normal(size=(n, 3))
                for merge, act in (("concat", "relu"), ("average", "identity")):
                    layer = md.GatLayer(3, 2, 2, np.random.default_rng(1),
                                        merge=merge, activation=act)
                    got = layer(Tensor(x), g).data
                    want = loops_gat_layer(x, layer, g)
                    assert np.abs(got - want).max() < ORACLE_TOL

    def test_model_random(self):
        rng = np.random.default_rng(13)
        spec = small_spec("gat", heads=2, widths={"per_head": 3})
        for _ in range(20):
            g, x = random_case(rng)
            model = md.GatModel(3, 3, spec)
            got = model.forward(Tensor(x), g).data
            h1 = loops_gat_layer(x, model.layer1, g)
            want = loops_gat_layer(h1, model.layer2, g)
            assert np.abs(got - want).max() < ORACLE_TOL

    def test_attention_rows_stochastic(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            g, x = random_case(rng, n_max=10, f_in=3)
            layer = md.GatLayer(3, 2, 4, np.random.default_rng(3))
            for alpha in layer.attention_weights(Tensor(x), g):
                assert alpha.min() >= 0.0
                assert np.abs(alpha.sum(axis=1) - 1.0).max() < 1e-6
                mask = g.adjacency().astype(bool) | np.eye(g.n, dtype=bool)
                assert np.all(alpha[~mask] == 0.0)


class TestSageOracle:
    @pytest.mark.parametrize("aggregator", ["mean", "gcn", "pool"])
    def test_layer_exhaustive_small(self, aggregator):
        rng = np.random.default_rng(16)
        for n in (2, 3):
            for g in all_graphs(n):
                x = rng.normal(size=(n, 3))
                layer = md.SageLayer(3, 4, np.random.default_rng(4),
                                     aggregator=aggregator)
                got = layer(Tensor(x), g).data
                want = loops_sage_layer(x, layer, g)
                assert np.abs(got - want).max() < ORACLE_TOL

    @pytest.mark.parametrize("aggregator", ["mean", "gcn", "pool"])
    def test_model_random(self, aggregator):
        rng = np.random.default_rng(17)
        spec = small_spec("graphsage", widths={"hidden": 5, "aggregator": aggregator})
        for _ in range(20):
            g, x = random_case(rng)
            model = md.SageModel(3, 3, spec)
            h1 = loops_sage_layer(x, model.layer1, g)
            want = loops_sage_layer(h1, model.layer2, g)
            got = model.forward(Tensor(x), g).data
            assert np.abs(got - want).max() < ORACLE_TOL


def node_model_cases():
    return [
        ("gcn", small_spec("gcn", widths={"gc": 8, "conv": (2, 2), "hidden": 4})),
        ("gat", small_spec("gat", heads=2, widths={"per_head": 3})),
        ("graphsage", small_spec("graphsage", widths={"hidden": 5})),
    ]


class TestPermutationEquivariance:
    @pytest.mark.parametrize("arch,spec", node_model_cases())
    def test_outputs_follow_relabeling(self, arch, spec):
        rng = np.random.default_rng(18)
        for _ in range(10):
            g, x = random_case(rng, n_max=8)
            model = md.build_node_model(arch, 3, 3, spec)
            out = model.forward(Tensor(x), g).data
            perm = rng.permutation(g.n)
            inv = np.argsort(perm)
            g2 = gr.permute(g, perm)
            out2 = model.forward(Tensor(x[inv]), g2).data
            assert np.abs(out2[perm] - out).max() < 1e-9


class TestLocality:
    @pytest.mark.parametrize("arch,spec", [c for c in node_model_cases()
                                           if c[0] != "gcn"])
    def test_two_layer_models_see_two_hops_only(self, arch, spec):
        # path 0-1-2-3-4-5: node 5 is five hops from node 0
        g = gr.from_edge_list([(i, i + 1) for i in range(5)], 6)
        rng = np.random.default_rng(19)
        x = rng.normal(size=(6, 3))
        model = md.build_node_model(arch, 3, 3, spec)
        out = model.forward(Tensor(x), g).data
        x2 = x.copy()
        x2[5] += 10.0
        out2 = model.forward(Tensor(x2), g).data
        assert np.abs(out2[0] - out[0]).max() < 1e-12
        assert np.abs(out2[5] - out[5]).max() > 1e-6

    def test_gcn_graph_layer_sees_one_hop_only(self):
        g = gr.from_edge_list([(i, i + 1) for i in range(5)], 6)
        rng = np.random.default_rng(20)
        x = rng.normal(size=(6, 3))
        layer = md.GcnLayer(3, 4, np.random.default_rng(5))
        out = layer(Tensor(x), g).data
        x2 = x.copy()
        x2[5] += 10.0
        out2 = layer(Tensor(x2), g).data
        assert np.abs(out2[:4] - out[:4]).max() < 1e-12


class TestLargeGraph:
    @pytest.mark.parametrize("arch,widths", [
        ("gcn", {"gc": 4, "conv": (2,), "hidden": 4}),
        ("gat", {"per_head": 2}),
        ("graphsage", {"hidden": 4, "aggregator": "mean"}),
        ("graphsage", {"hidden": 4, "aggregator": "gcn"}),
        ("graphsage", {"hidden": 4, "aggregator": "pool"}),
    ])
    def test_ring_above_dense_cap(self, arch, widths):
        n = 5000
        assert n > gr.DENSE_CAP
        g = gr.from_edge_list([(i, (i + 1) % n) for i in range(n)], n)
        x = Tensor(np.random.default_rng(29).normal(size=(n, 3)))
        model = md.build_node_model(arch, 3, 2, small_spec(arch, heads=2, widths=widths))
        loss = ad.cross_entropy(model.forward(x, g), np.eye(2)[np.arange(n) % 2],
                                np.ones(n, dtype=bool))
        loss.backward()
        assert np.isfinite(loss.item())
        assert all(p.grad is not None and np.isfinite(p.grad).all() for p in model.params)


def rows_case(seed, n=60, isolated=3):
    """Random graph whose last `isolated` nodes have no edge, its features,
    and sorted rows that hold node 0, node n-1 and an isolated node."""
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n - isolated) for j in range(i + 1, n - isolated)
             if rng.random() < 0.15]
    rows = np.union1d(rng.choice(n, size=n // 4, replace=False), [0, n - 2, n - 1])
    return gr.from_edge_list(pairs, n), rng.normal(size=(n, 3)), rows


ROWS_CASES = [
    ("gcn", {"gc": 8, "conv": (2, 2), "hidden": 4}),
    ("gat", {"per_head": 3}),
    ("graphsage", {"hidden": 5, "aggregator": "mean"}),
    ("graphsage", {"hidden": 5, "aggregator": "gcn"}),
    ("graphsage", {"hidden": 5, "aggregator": "pool"}),
]


class TestRowsPath:
    """forward(x, g, rows) is the full forward's rows, and so are its gradients."""

    @pytest.mark.parametrize("arch,widths", ROWS_CASES)
    def test_forward_rows_are_the_full_rows_byte_for_byte(self, arch, widths):
        for seed in range(3):
            g, x, rows = rows_case(seed)
            model = md.build_node_model(arch, 3, 3, small_spec(arch, heads=2, widths=widths))
            full = model.forward(Tensor(x), g).data
            got = model.forward(Tensor(x), g, rows).data
            assert got.tobytes() == full[rows].tobytes()

    @pytest.mark.parametrize("arch,widths", ROWS_CASES)
    def test_masked_loss_gradients_match_the_full_batch(self, arch, widths):
        for seed in range(3):
            g, x, rows = rows_case(seed)
            train = np.zeros(g.n, dtype=bool)
            train[rows[::2]] = True
            y = np.eye(3)[np.arange(g.n) % 3]
            model = md.build_node_model(arch, 3, 3, small_spec(arch, heads=2, widths=widths))
            grads = []
            for loss in (lambda: ad.cross_entropy(model.forward(Tensor(x), g), y, train),
                         lambda: ad.cross_entropy(model.forward(Tensor(x), g, rows), y[rows],
                                                  train[rows])):
                for p in model.params:
                    p.grad = None
                loss().backward()
                grads.append([p.grad for p in model.params])
            for full, part in zip(*grads):
                if arch == "gcn":       # BLAS sums the rows' products without the zero rows
                    assert np.abs(part - full).max() <= 1e-12 * np.abs(full).max()
                else:
                    assert part.tobytes() == full.tobytes()

    @pytest.mark.parametrize("arch", ["gcn", "gat", "graphsage"])
    @pytest.mark.parametrize("rows,problem", [
        (np.array([], dtype=np.intp), "must not be empty"),
        (np.array([[0, 1]]), "must be 1-d"),
        (np.array([0.0, 1.0]), "must be integer"),
        (np.array([True, False]), "must be integer"),
        (np.array([0, 2, 2]), "strictly increasing"),
        (np.array([3, 1]), "strictly increasing"),
        (np.array([-1, 2]), r"must lie in \[0, 6\)"),
        (np.array([2, 6]), r"must lie in \[0, 6\)"),
    ])
    def test_bad_rows_raise_before_any_op(self, arch, rows, problem, monkeypatch):
        g = gr.from_edge_list([(i, i + 1) for i in range(5)], 6)
        model = md.build_node_model(arch, 3, 3, small_spec(arch, heads=2))
        for name in ad.__all__:
            if callable(getattr(ad, name)) and name[0].islower():
                monkeypatch.setattr(ad, name, lambda *a, **k: pytest.fail("an op ran"))
        with pytest.raises(ad.ShapeError, match=problem):
            model.forward(Tensor(np.zeros((6, 3))), g, rows)


FIRST_LAYER_CASES = [
    ("gcn", {"gc": 8, "conv": (2, 2), "hidden": 4}),
    ("graphsage", {"hidden": 5, "aggregator": "mean"}),
    ("graphsage", {"hidden": 5, "aggregator": "gcn"}),
]


def forward_and_gradients(model, x, g, rows):
    """Output bytes of a masked-loss forward and the gradients it gives."""
    for p in model.params + [x]:
        p.grad = None
    y = np.eye(3)[np.arange(g.n) % 3]
    mask = np.ones(g.n, dtype=bool)
    if rows is not None:
        y, mask = y[rows], mask[rows]
    out = model.forward(x, g, rows)
    ad.cross_entropy(out, y, mask).backward()
    return [out.data.tobytes()] + [p.grad.tobytes() for p in model.params]


class TestFirstLayerInputs:
    """A first layer reads g's kept S X or [X || agg X] only when its input is
    g's standardized features, and gives propagate's bytes either way."""

    @pytest.mark.parametrize("arch,widths", FIRST_LAYER_CASES)
    def test_kept_inputs_give_the_propagate_bytes(self, arch, widths, monkeypatch):
        for seed in range(3):
            g, x, rows = rows_case(seed)
            g = g.with_data(features=x)
            inputs = g.derived(md.FirstLayerInputs)
            model = md.build_node_model(arch, 3, 3, small_spec(arch, widths=widths))
            kept = {str(r): forward_and_gradients(model, inputs.x, g, r) for r in (None, rows)}
            # other features, and features that require a gradient, never read the cache
            with monkeypatch.context() as m:
                for name in ("propagated", "with_aggregate"):
                    m.setattr(md.FirstLayerInputs, name,
                              lambda *a, **k: pytest.fail("read the kept inputs"))
                for other in (Tensor(inputs.x.data.copy()), ad.Parameter(inputs.x.data.copy())):
                    for r in (None, rows):
                        assert forward_and_gradients(model, other, g, r) == kept[str(r)]
                    assert (other.grad is not None) == other.requires_grad

    def test_inputs_are_kept_per_graph_and_read_only(self):
        g, x, _ = rows_case(0)
        g = g.with_data(features=x)
        inputs = g.derived(md.FirstLayerInputs)
        assert g.derived(md.FirstLayerInputs) is inputs and inputs.x is inputs.x
        assert inputs.x.data.tobytes() == gb.standardize(x).tobytes()
        assert not inputs.x.requires_grad and not inputs.x.data.flags.writeable
        sx = inputs.propagated(g, gr.sym_propagation).data
        assert sx.tobytes() == (gr.sym_propagation(g) @ inputs.x.data).tobytes()
        both = inputs.with_aggregate(g, gr.mean_propagation).data
        assert both.tobytes() == np.concatenate(
            [inputs.x.data, gr.mean_propagation(g) @ inputs.x.data], axis=1).tobytes()
        assert not sx.flags.writeable and not both.flags.writeable
        with pytest.raises(ValueError, match="no features"):
            gr.Graph(3, [(0, 1)]).derived(md.FirstLayerInputs).x


def pool_aggregate_per_call(layer, x, g):
    """The pool aggregator as it was composed on every call, before its
    index was kept per graph."""
    pattern = gr.mean_propagation(g)
    if not pattern.nnz:
        return Tensor(np.zeros_like(x.data))
    present = np.flatnonzero(np.diff(pattern.indptr))
    seg = ad.SegmentIndex(pattern.indptr[present], pattern.nnz)
    src = pattern.indices.astype(np.intp)
    transformed = ad.matmul(x, layer.w_pool, layer.b_pool, relu=True)
    gathered = ad.take_rows(transformed, src, ad.GatherPlan(src, g.n))
    pooled = ad.segment_max(gathered, seg)
    return ad.put_rows(pooled, present, g.n)


class TestPoolIndex:
    def test_aggregate_and_gradients_match_the_per_call_composition(self):
        cases = [rows_case(seed)[:2] for seed in range(3)]
        cases.append((gr.Graph(4, []), np.random.default_rng(3).normal(size=(4, 3))))
        for g, x in cases:
            rng = np.random.default_rng(g.n_edges)
            layer = md.SageLayer(3, 4, rng, aggregator="pool")
            weights = Tensor(rng.normal(size=(g.n, 3)))
            results = []
            for aggregate in (layer._pool_aggregate,
                              lambda x, g: pool_aggregate_per_call(layer, x, g)):
                xp = ad.Parameter(x.copy())
                for p in layer.params:
                    p.grad = None
                out = aggregate(xp, g)
                ad.sum_(ad.mul(out, weights)).backward()
                grads = [xp.grad, layer.w_pool.grad, layer.b_pool.grad]
                results.append([out.data.tobytes()] + [
                    None if grad is None else grad.tobytes() for grad in grads])
            assert results[0] == results[1]

    def test_index_built_once_per_graph(self, monkeypatch):
        g, x, _ = rows_case(1)
        built = []
        init = md.PoolIndex.__init__
        monkeypatch.setattr(md.PoolIndex, "__init__",
                            lambda self, graph: built.append(graph) or init(self, graph))
        model = md.build_node_model("graphsage", 3, 3,
                                    small_spec("graphsage", widths={"aggregator": "pool"}))
        for _ in range(3):
            model.forward(Tensor(x), g)
        assert built == [g]


class TestGae:
    def test_reconstruction_symmetric_and_bounded(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            g, x = random_case(rng, n_max=10, f_in=4)
            model = md.GaeModel(4, small_spec("gae", widths={"hidden": 6, "latent": 3}))
            recon = model.forward(Tensor(x), g).data
            assert np.abs(recon - recon.T).max() < 1e-12
            assert recon.min() > 0.0
            assert recon.max() < 1.0

    def test_forward_is_sigmoid_of_logits(self):
        rng = np.random.default_rng(22)
        g, x = random_case(rng, n_max=10, f_in=4)
        model = md.GaeModel(4, small_spec("gae", widths={"hidden": 6, "latent": 3}))
        z = model.encode(Tensor(x), g).data
        logits = z @ z.T
        assert np.array_equal(model.forward(Tensor(x), g).data, 1.0 / (1.0 + np.exp(-logits)))

    def test_encoder_shape(self):
        g = gr.from_edge_list([(0, 1), (1, 2)], 3)
        model = md.GaeModel(4, small_spec("gae", widths={"hidden": 6, "latent": 3}))
        z = model.encode(Tensor(np.ones((3, 4))), g).data
        assert z.shape == (3, 3)


class TestStgcn:
    def make(self, seed=0):
        sensor_graph = gr.from_edge_list([(0, 1), (1, 2)], 3)
        spec = small_spec("stgcn", seed=seed)
        return md.StgcnModel(3, 4, spec, sensor_graph)

    def test_logit_shape(self):
        model = self.make()
        rng = np.random.default_rng(22)
        out = model.forward(rng.normal(size=(5, 64, 3))).data
        assert out.shape == (5, 4)

    def test_short_signal_reports_minimum(self):
        model = self.make()
        with pytest.raises(ad.ShapeError, match=str(model.min_length())):
            model.forward(np.zeros((2, model.min_length() - 1, 3)))

    def test_channel_mismatch(self):
        model = self.make()
        with pytest.raises(ad.ShapeError):
            model.forward(np.zeros((2, 64, 5)))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(3, 40, 3))
        a = self.make(seed=9).forward(x).data
        b = self.make(seed=9).forward(x).data
        assert np.array_equal(a, b)
        c = self.make(seed=10).forward(x).data
        assert not np.array_equal(a, c)

    def test_min_length_is_tight(self):
        model = self.make()
        t = model.min_length()
        assert model._length_after(t) >= 1
        assert model._length_after(t - 1) < 1
        out = model.forward(np.zeros((1, t, 3))).data
        assert out.shape == (1, 4)

    def test_recorded_forward_keeps_one_array_per_layer(self):
        model = self.make()
        x = np.random.default_rng(25).normal(size=(300, 256, 3))
        tracemalloc.start()
        try:
            out = model.forward(x)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        rows, f = 300 * 3, 8                        # sensor-major rows, every width 8
        t1 = (256 - model.k1 + 1) // model.pool     # t1a, pooled
        t2 = t1 - model.k2 + 1                      # t1b, the propagation, the spatial matmul
        t3 = (t2 - model.k2 + 1) // model.pool      # t2a, pooled
        t4 = t3 - model.k2 + 1                      # t2b
        # the sensor-major input copy, one float64 array per layer and a
        # uint8 offset per pooled element; the unfused layers kept t1a's and
        # t2a's unpooled outputs and the spatial pre-ReLU product and mask
        # too, 27 MB more
        kept = 8 * rows * (256 + f * (t1 + 3 * t2 + t3 + t4)) + rows * f * (t1 + t3)
        assert live < kept + 1024 * 1024

    def test_spatial_mixing_crosses_sensors(self):
        # same model, identical inputs except on sensor 2, which is linked
        # to sensor 1: sensor 1's pathway must change
        model = self.make()
        rng = np.random.default_rng(24)
        x = rng.normal(size=(1, 40, 3))
        x2 = x.copy()
        x2[:, :, 2] += 5.0
        a = model.forward(x).data
        b = model.forward(x2).data
        assert np.abs(a - b).max() > 1e-8


class TestBaselines:
    def test_mlp_shapes_and_flattening(self):
        model = md.MlpModel(12, 3, small_spec("mlp"))
        rng = np.random.default_rng(25)
        flat = model.forward(rng.normal(size=(4, 12))).data
        cube = model.forward(rng.normal(size=(4, 4, 3))).data
        assert flat.shape == (4, 3)
        assert cube.shape == (4, 3)

    def test_cnn_shape(self):
        model = md.Cnn1dModel(2, 5, small_spec("cnn1d"))
        out = model.forward(np.random.default_rng(26).normal(size=(3, 32, 2))).data
        assert out.shape == (3, 5)

    def test_knn_k1_memorizes_training_points(self):
        rng = np.random.default_rng(27)
        x = rng.normal(size=(20, 4))
        y = rng.integers(0, 3, size=20)
        clf = md.KnnClassifier(k=1).fit(x, y)
        assert np.array_equal(clf.predict(x), y)

    def test_knn_majority_vote(self):
        x = np.array([[0.0], [0.1], [0.2], [5.0]])
        y = np.array([1, 1, 0, 0])
        clf = md.KnnClassifier(k=3).fit(x, y)
        assert clf.predict(np.array([[0.05]]))[0] == 1

    def test_knn_separated_clusters(self):
        rng = np.random.default_rng(28)
        a = rng.normal(size=(15, 2))
        b = rng.normal(size=(15, 2)) + 20.0
        x = np.concatenate([a, b])
        y = np.array([0] * 15 + [1] * 15)
        clf = md.KnnClassifier(k=5).fit(x, y)
        assert np.array_equal(clf.predict(np.array([[0.0, 0.0], [20.0, 20.0]])),
                              [0, 1])

    @pytest.mark.parametrize("budget", [1, 7 * 40 * 3, None])
    def test_knn_row_blocks_match_one_block(self, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(gb, "KNN_CHUNK_ELEMENTS", budget)
        rng = np.random.default_rng(29)
        x = np.round(rng.normal(size=(40, 3)), 1)      # rounded: distance ties
        y = rng.integers(0, 4, size=40)
        q = np.round(rng.normal(size=(23, 3)), 1)
        d2 = ((q[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        votes = y[np.argsort(d2, axis=1, kind="stable")[:, :5]]
        want = [np.bincount(row).argmax() for row in votes]
        assert np.array_equal(md.KnnClassifier(k=5).fit(x, y).predict(q), want)

    def test_knn_predict_memory_is_bounded(self):
        rng = np.random.default_rng(30)
        clf = md.KnnClassifier(k=5).fit(rng.normal(size=(50, 1536)), rng.integers(0, 3, 50))
        q = rng.normal(size=(200, 1536))
        tracemalloc.start()
        try:
            clf.predict(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (200, 50, 1536) difference array would take 117 MB
        assert peak < 2 * 8 * gb.KNN_CHUNK_ELEMENTS + 1024 * 1024


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        spec = small_spec("graphsage", widths={"hidden": 5})
        model = md.SageModel(3, 2, spec)
        original = [p.data.copy() for p in model.params]
        save_checkpoint(tmp_path / "m", model.params, {"kind": "adam", "lr": 0.1})
        for p in model.params:
            p.data = np.zeros_like(p.data)
        manifest = load_checkpoint(tmp_path / "m", model.params)
        for p, orig in zip(model.params, original):
            assert np.array_equal(p.data, orig)
        assert manifest["optimizer"]["lr"] == 0.1

    def test_shape_mismatch_rejected(self, tmp_path):
        a = md.SageModel(3, 2, small_spec("graphsage", widths={"hidden": 5}))
        b = md.SageModel(4, 2, small_spec("graphsage", widths={"hidden": 5}))
        save_checkpoint(tmp_path / "m", a.params)
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "m", b.params)

    def test_count_mismatch_rejected(self, tmp_path):
        a = md.SageModel(3, 2, small_spec("graphsage", widths={"hidden": 5}))
        save_checkpoint(tmp_path / "m", a.params)
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "m", a.params[:1])

    def test_truncated_blob_rejected(self, tmp_path):
        model = md.SageModel(3, 2, small_spec("graphsage", widths={"hidden": 5}))
        save_checkpoint(tmp_path / "m", model.params)
        blob = (tmp_path / "m.bin").read_bytes()
        (tmp_path / "m.bin").write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="bytes"):
            load_checkpoint(tmp_path / "m", model.params)

    def test_extra_bytes_rejected(self, tmp_path):
        model = md.SageModel(3, 2, small_spec("graphsage", widths={"hidden": 5}))
        save_checkpoint(tmp_path / "m", model.params)
        with open(tmp_path / "m.bin", "ab") as fh:
            fh.write(b"\0" * 8)
        with pytest.raises(ValueError, match="bytes"):
            load_checkpoint(tmp_path / "m", model.params)

    def test_unknown_format_version_rejected(self, tmp_path):
        model = md.SageModel(3, 2, small_spec("graphsage", widths={"hidden": 5}))
        save_checkpoint(tmp_path / "m", model.params)
        manifest = json.loads((tmp_path / "m.json").read_text())
        manifest["format_version"] = 2
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format_version"):
            load_checkpoint(tmp_path / "m", model.params)
