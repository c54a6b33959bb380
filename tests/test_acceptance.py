"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line,
and pins its tolerance as a constant.  Run with `pytest -v tests/test_acceptance.py`.
"""

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from graphdiag import autodiff as ad
from graphdiag import cli
from graphdiag import diagnose as dg
from graphdiag import faultgen as fg
from graphdiag import graph as gr
from graphdiag import graphbuild as gb
from graphdiag import models as md
from graphdiag.autodiff import Tensor

from test_graphbuild import loops_neighbor_table
from test_models import (loops_gat_layer, loops_gcn_model, loops_norm_adj,
                         loops_sage_layer, random_case)

GRAD_TOL = 1e-4
GRAD_BUDGET_S = 60.0
ORACLE_TOL = 1e-12
EQUIVARIANCE_TOL = 1e-9
ATTENTION_ROW_TOL = 1e-6
SPECTRUM_TOL = 1e-9
SYMMETRY_TOL = 1e-12
AUC_FLOOR = 0.9
AUC_BUDGET_S = 30.0
CURVE_BUDGET_S = 900.0
SPEARMAN_FLOOR = 0.8
LABEL_SMOOTHNESS_SLACK = 0.05
STGCN_TRAIN_FLOOR = 0.95

CURVE_SIZES = list(range(10, 101, 10))
CURVE_SEEDS = [0, 1, 2, 3, 4]

_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_verdicts(capfd):
    # print each verdict line past pytest's capture so it always reaches
    # the terminal (and any tee), not just the captured-output section
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def verdict(num, name, ok, detail):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line)
    else:
        print(line)
    assert ok, f"criterion {num} ({name}): {detail}"


def curve_model_specs():
    """Reduced-budget configurations used for the learning-curve experiment."""
    return {
        "gcn": md.default_spec("gcn", epochs=30, lr=0.0015,
                               widths={"gc": 32, "conv": (8, 8, 8), "hidden": 32}),
        "gat": md.default_spec("gat", epochs=30, lr=0.01, heads=4,
                               widths={"per_head": 4}),
        "graphsage": md.default_spec("graphsage", epochs=60,
                                     widths={"hidden": 32}),
        "mlp": md.default_spec("mlp", epochs=150),
    }


@pytest.fixture(scope="module")
def rectifier():
    ds = fg.generate_preset("rectifier-like", 0)
    feats = gb.extract_feature_matrix(ds.samples)
    return ds, feats


@pytest.fixture(scope="module")
def knn45(rectifier):
    ds, feats = rectifier
    return gb.knn_graph(feats, 45, labels=ds.labels)


@pytest.fixture(scope="module")
def rectifier_curve(rectifier, knn45):
    ds, feats = rectifier
    static = fg.Dataset(samples=feats, labels=ds.labels,
                        class_names=ds.class_names)
    started = time.perf_counter()
    curve = dg.learning_curve(lambda: knn45, static, curve_model_specs(),
                              CURVE_SIZES, CURVE_SEEDS, n_val=30)
    return curve, time.perf_counter() - started


# ---------------------------------------------------------------------------

def nudge(params, rng):
    # zero-initialized biases can park relu inputs exactly on the kink,
    # where central differences and the subgradient legitimately disagree;
    # move every parameter to a generic point first
    for p in params:
        p.data = p.data + 0.05 * rng.normal(size=p.data.shape)


def test_criterion_1_gradient_fidelity():
    started = time.perf_counter()
    worst = {}
    rng = np.random.default_rng(0)
    g, x = random_case(np.random.default_rng(1), n_max=6, f_in=3)
    y = np.eye(3)[rng.integers(0, 3, size=g.n)]
    mask = np.ones(g.n, dtype=bool)

    node_specs = {
        "gcn": md.default_spec("gcn", widths={"gc": 8, "conv": (2, 2), "hidden": 4}),
        "gat": md.default_spec("gat", heads=2, widths={"per_head": 3}),
        "graphsage": md.default_spec("graphsage", widths={"hidden": 5}),
    }
    for arch, spec in node_specs.items():
        model = md.build_node_model(arch, 3, 3, spec)
        nudge(model.params, rng)
        fn = lambda: ad.cross_entropy(model.forward(Tensor(x), g), y, mask)
        worst[arch] = ad.grad_check(fn, model.params)

    gae = md.GaeModel(3, md.default_spec("gae", widths={"hidden": 5, "latent": 3}))
    nudge(gae.params, rng)
    target = g.adjacency()
    worst["gae"] = ad.grad_check(
        lambda: ad.bce_matrix(gae.forward(Tensor(x), g), target), gae.params)

    sensor = gr.from_edge_list([(0, 1), (1, 2)], 3)
    stgcn = md.StgcnModel(3, 3, md.default_spec(
        "stgcn", widths={"temporal1": 2, "spatial": 2}), sensor)
    nudge(stgcn.params, rng)
    ts = rng.normal(size=(2, 24, 3))
    yb = np.eye(3)[[0, 1]]
    worst["stgcn"] = ad.grad_check(
        lambda: ad.cross_entropy(stgcn.forward(ts), yb, np.ones(2, dtype=bool)),
        stgcn.params)

    mlp = md.MlpModel(6, 3, md.default_spec("mlp", widths={"hidden1": 5, "hidden2": 4}))
    nudge(mlp.params, rng)
    xb = rng.normal(size=(4, 6))
    y4 = np.eye(3)[[0, 1, 2, 0]]
    worst["mlp"] = ad.grad_check(
        lambda: ad.cross_entropy(mlp.forward(xb), y4, np.ones(4, dtype=bool)),
        mlp.params)

    cnn = md.Cnn1dModel(2, 3, md.default_spec("cnn1d", widths={"conv1": 3, "conv2": 3}))
    nudge(cnn.params, rng)
    xc = rng.normal(size=(3, 20, 2))
    y3 = np.eye(3)
    worst["cnn1d"] = ad.grad_check(
        lambda: ad.cross_entropy(cnn.forward(xc), y3, np.ones(3, dtype=bool)),
        cnn.params)

    elapsed = time.perf_counter() - started
    peak = max(worst.values())
    ok = peak < GRAD_TOL and elapsed < GRAD_BUDGET_S
    verdict(1, "gradient fidelity", ok,
            f"max rel err {peak:.2e} over {sorted(worst)} in {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    worst = 0.0
    # full node-model forwards vs scalar-loop references on graphs of N <= 6
    for i in range(20):
        rng = np.random.default_rng(100 + i)
        g, x = random_case(rng, n_max=6, f_in=3)
        gcn = md.GcnModel(3, 3, md.default_spec(
            "gcn", widths={"gc": 8, "conv": (2, 2), "hidden": 4}))
        worst = max(worst, np.abs(gcn.forward(Tensor(x), g).data
                                  - loops_gcn_model(x, gcn, g)).max())
        gat = md.GatModel(3, 3, md.default_spec(
            "gat", heads=2, widths={"per_head": 3}))
        want = loops_gat_layer(loops_gat_layer(x, gat.layer1, g), gat.layer2, g)
        worst = max(worst, np.abs(gat.forward(Tensor(x), g).data - want).max())
        sage = md.SageModel(3, 3, md.default_spec(
            "graphsage", widths={"hidden": 5}))
        want = loops_sage_layer(loops_sage_layer(x, sage.layer1, g), sage.layer2, g)
        worst = max(worst, np.abs(sage.forward(Tensor(x), g).data - want).max())

    # KNN tables must equal the brute-force reference exactly
    knn_exact = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 51))
        k = int(rng.integers(1, 8))
        f = rng.normal(size=(n, 5))
        got = gb.nearest_neighbor_table(f, k)
        knn_exact &= bool(np.array_equal(got, loops_neighbor_table(f, k)))

    # smoothness indicators vs scalar loops
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        g, x = random_case(rng, n_max=12, f_in=4)
        if g.n_edges == 0:
            continue
        y = rng.integers(0, 3, size=g.n)
        g = g.with_data(features=x, labels=y)
        acc = np.zeros(4)
        bad = 0
        for i, j in g.edges:
            for f in range(4):
                acc[f] += (x[i, f] - x[j, f]) ** 2
            bad += int(y[i] != y[j])
        worst = max(worst, abs(gb.feature_smoothness(g)
                               - np.sqrt((acc ** 2).sum()) / (g.n_edges * 4)))
        worst = max(worst, abs(gb.label_smoothness(g) - bad / g.n_edges))

    ok = worst < ORACLE_TOL and knn_exact
    verdict(2, "independent-oracle equivalence", ok,
            f"max deviation {worst:.2e}, knn exact: {knn_exact}")


def test_criterion_3_invariants():
    cases = 0
    worst_eq = 0.0
    node_specs = {
        "gcn": md.default_spec("gcn", widths={"gc": 8, "conv": (2, 2), "hidden": 4}),
        "gat": md.default_spec("gat", heads=2, widths={"per_head": 3}),
        "graphsage": md.default_spec("graphsage", widths={"hidden": 5}),
    }
    for i in range(15):
        rng = np.random.default_rng(300 + i)
        g, x = random_case(rng, n_max=8, f_in=3)
        perm = rng.permutation(g.n)
        inv = np.argsort(perm)
        g2 = gr.permute(g, perm)
        for arch, spec in node_specs.items():
            model = md.build_node_model(arch, 3, 3, spec)
            out = model.forward(Tensor(x), g).data
            out2 = model.forward(Tensor(x[inv]), g2).data
            worst_eq = max(worst_eq, np.abs(out2[perm] - out).max())
            cases += 1

    worst_row = 0.0
    for i in range(12):
        rng = np.random.default_rng(400 + i)
        g, x = random_case(rng, n_max=10, f_in=3)
        layer = md.GatLayer(3, 2, 4, np.random.default_rng(i))
        for alpha in layer.attention_weights(Tensor(x), g):
            worst_row = max(worst_row, np.abs(alpha.sum(axis=1) - 1.0).max())
        cases += 1

    worst_spec = 0.0
    for i in range(35):
        rng = np.random.default_rng(500 + i)
        g, _ = random_case(rng, n_max=15, f_in=2)
        eig = np.linalg.eigvalsh(gr.normalized_adjacency(g))
        worst_spec = max(worst_spec, eig.max() - 1.0, -1.0 - eig.min())
        cases += 1

    worst_sym = 0.0
    for i in range(12):
        rng = np.random.default_rng(600 + i)
        g, x = random_case(rng, n_max=10, f_in=4)
        gae = md.GaeModel(4, md.default_spec("gae", widths={"hidden": 5, "latent": 3},
                                             seed=i))
        recon = gae.forward(Tensor(x), g).data
        worst_sym = max(worst_sym, np.abs(recon - recon.T).max())
        cases += 1

    ok = (cases >= 100 and worst_eq < EQUIVARIANCE_TOL
          and worst_row < ATTENTION_ROW_TOL and worst_spec < SPECTRUM_TOL
          and worst_sym < SYMMETRY_TOL)
    verdict(3, "structural invariants", ok,
            f"{cases} cases; equivariance {worst_eq:.1e}, rows {worst_row:.1e}, "
            f"spectrum {worst_spec:.1e}, symmetry {worst_sym:.1e}")


def test_criterion_4_link_reconstruction():
    started = time.perf_counter()
    aucs = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        # two 20-node clusters with dense intra-cluster wiring
        members = [np.arange(20), np.arange(20, 40)]
        intra = []
        for block in members:
            for a in range(len(block)):
                for b in range(a + 1, len(block)):
                    if rng.random() < 0.9:
                        intra.append((block[a], block[b]))
        intra = np.array(intra)
        held = rng.choice(len(intra), size=len(intra) // 10, replace=False)
        keep = np.ones(len(intra), dtype=bool)
        keep[held] = False
        g = gr.from_edge_list(intra[keep], 40)
        feats = rng.normal(size=(40, 8))
        feats[20:] += 3.0
        _, gae, _ = gb.train_gae_on_graph(feats, g, md.default_spec("gae", seed=seed))
        with ad.no_grad():
            recon = gae.forward(Tensor(gb.standardize(feats)), g).data
        pos = recon[intra[held][:, 0], intra[held][:, 1]]
        linked = set(map(tuple, intra))
        neg = []
        while len(neg) < len(pos):
            a, b = sorted(rng.integers(0, 40, size=2))
            if a != b and (a, b) not in linked:
                neg.append(recon[a, b])
        neg = np.array(neg)
        auc = float((pos[:, None] > neg[None, :]).mean()
                    + 0.5 * (pos[:, None] == neg[None, :]).mean())
        aucs.append(auc)
    elapsed = time.perf_counter() - started
    mean_auc = float(np.mean(aucs))
    ok = mean_auc >= AUC_FLOOR and elapsed < AUC_BUDGET_S
    verdict(4, "held-out link reconstruction", ok,
            f"mean AUC {mean_auc:.3f} over 5 seeds in {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_5_learning_curves(rectifier_curve):
    curve, elapsed = rectifier_curve
    sizes = curve["sizes"]
    results = curve["results"]
    mlp10 = results["mlp"][0]
    gnn_beats_mlp = all(results[m][0] > mlp10 for m in ("gcn", "gat", "graphsage"))
    rhos = {m: float(stats.spearmanr(sizes, accs).statistic)
            for m, accs in results.items()}
    ok = (gnn_beats_mlp and all(r > SPEARMAN_FLOOR for r in rhos.values())
          and elapsed < CURVE_BUDGET_S)
    detail = (f"acc@10 mlp {mlp10:.3f} vs "
              + ", ".join(f"{m} {results[m][0]:.3f}" for m in ("gcn", "gat", "graphsage"))
              + "; spearman " + ", ".join(f"{m} {r:.2f}" for m, r in rhos.items())
              + f"; {elapsed:.0f}s")
    verdict(5, "learning-curve ordering", ok, detail)


@pytest.mark.slow
def test_criterion_6_graph_quality(rectifier, knn45):
    ds, feats = rectifier
    prior = gb.prior_partition_graph(ds.labels, features=feats, labels=ds.labels)
    specs = curve_model_specs()
    seeds = [0, 1, 2]
    better = {}
    for arch in ("gcn", "gat", "graphsage"):
        acc = {}
        for name, g in (("knn", knn45), ("prior", prior)):
            cells = [dg.run_node_experiment(
                arch, g, 50, 30, seed,
                spec=md.ModelSpec(**{**specs[arch].__dict__}))
                for seed in seeds]
            acc[name] = float(np.mean(cells))
        better[arch] = (acc["prior"], acc["knn"])

    refined = gb.gae_refine_graph(feats, knn45, tau=0.9,
                                  spec=md.default_spec("gae", epochs=100))
    l_knn = gb.label_smoothness(knn45)
    l_ref = gb.label_smoothness(refined)

    ok = (all(p >= k for p, k in better.values())
          and l_ref <= l_knn + LABEL_SMOOTHNESS_SLACK)
    detail = ("; ".join(f"{m} prior {p:.3f} vs knn {k:.3f}"
                        for m, (p, k) in better.items())
              + f"; label disagreement knn {l_knn:.3f} refined {l_ref:.3f}")
    verdict(6, "graph quality ordering", ok, detail)


def test_criterion_7_temporal_model_fit():
    spec = fg.ProcessSpec(channels=3, horizon=64, noise_std=0.3)
    plan = [("normal", None, 20),
            ("step", fg.FaultSpec("step", 3.0, 0.25, (1,)), 20),
            ("drift", fg.FaultSpec("slow_drift", 3.0, 0.0, (2,)), 20)]
    ds = fg.generate_dataset(spec, plan, 7)
    masks = {"train": np.ones(60, dtype=bool),
             "val": np.zeros(60, dtype=bool),
             "test": np.zeros(60, dtype=bool)}
    mspec = md.default_spec("stgcn", seed=0)
    assert mspec.epochs <= 200

    def run():
        model, trace, (mean, std) = dg.train_graph_level(ds, masks, mspec)
        logits = model.forward((ds.samples - mean) / std).data
        return logits, trace

    logits, trace = run()
    acc = float((logits.argmax(axis=1) == ds.labels).mean())
    logits2, trace2 = run()
    deterministic = (trace == trace2
                     and logits.tobytes() == logits2.tobytes())
    ok = (acc >= STGCN_TRAIN_FLOOR and logits.shape == (60, 3) and deterministic)
    verdict(7, "temporal model fit", ok,
            f"train acc {acc:.3f} in {mspec.epochs} epochs, logits {logits.shape}, "
            f"deterministic {deterministic}")


def test_criterion_8_reproducible_cli(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 8))
    y = np.repeat(np.arange(2), 20)
    x += 5.0 * y[:, None]
    data_dir = tmp_path / "data"
    fg.save_dataset(fg.Dataset(samples=x, labels=y, class_names=["normal", "fault"],
                               manifest={"format_version": 1, "shape": [40, 8],
                                         "classes": [{"name": "normal"},
                                                     {"name": "fault"}]}),
                    data_dir)

    def tree(root):
        return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}

    identical = True
    for args, out in (
        (["evaluate", "--dataset", data_dir, "--model", "graphsage,mlp",
          "--graph", "knn", "--k", "3", "--train-size", "12", "--val-size", "6",
          "--seeds", "0,1", "--epochs", "15", "--lr", "0.02"], tmp_path / "eval"),
        (["curve", "--dataset", data_dir, "--model", "mlp", "--sizes", "6,12",
          "--seeds", "0", "--val-size", "6", "--epochs", "10"], tmp_path / "curve"),
    ):
        argv = [str(a) for a in args + ["--out", out]]
        assert cli.main(argv) == 0
        first = tree(out)
        assert cli.main(argv) == 0
        identical &= tree(out) == first
    verdict(8, "byte-identical reruns", identical,
            "evaluate and curve outputs stable across reruns")


@pytest.mark.slow
def test_criterion_9_documented_protocol(rectifier_curve):
    curve, _ = rectifier_curve
    csv = dg.learning_curve_csv(curve)
    lines = csv.strip().split("\n")
    header_ok = lines[0].startswith("train_size,")
    sizes_ok = [int(l.split(",")[0]) for l in lines[1:]] == CURVE_SIZES

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table_rows = [
        r"GCN\s*\|\s*300\s*\|\s*0\.00018\s*\|\s*RMSProp",
        r"GAT\s*\|\s*200\s*\|\s*0\.00005\s*\|\s*Adam",
        r"GraphSage\s*\|\s*300\s*\|\s*0\.005\s*\|\s*RMSProp",
        r"STGCN\s*\|\s*200\s*\|\s*0\.001\s*\|\s*Adam",
        r"rectifier-like\s*\|\s*45",
        r"motor-like\s*\|\s*50",
        r"tep-like\s*\|\s*30",
    ]
    missing = [p for p in table_rows if not re.search(p, readme)]
    # the documented numbers must be the ones the code defaults to
    consistent = (md.TABLE_DEFAULTS["gcn"] == (300, 0.00018, "rmsprop")
                  and md.TABLE_DEFAULTS["gat"] == (200, 0.00005, "adam")
                  and md.TABLE_DEFAULTS["graphsage"] == (300, 0.005, "rmsprop")
                  and md.TABLE_DEFAULTS["stgcn"] == (200, 0.001, "adam"))
    ok = header_ok and sizes_ok and not missing and consistent
    verdict(9, "documented protocol", ok,
            f"csv header {header_ok}, sizes {sizes_ok}, "
            f"missing rows {missing or 'none'}")
