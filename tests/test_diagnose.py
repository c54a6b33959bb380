import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphdiag import autodiff as ad
from graphdiag import diagnose as dg
from graphdiag import faultgen as fg
from graphdiag import graphbuild as gb
from graphdiag import models as md
from graphdiag import optim


def clustered_graph(rng, n_per=15, n_classes=3, sep=6.0):
    n = n_per * n_classes
    f = rng.normal(size=(n, 4))
    y = np.repeat(np.arange(n_classes), n_per)
    f += sep * y[:, None]
    return gb.knn_graph(f, 4, labels=y)


def post_step_val_accuracies(monkeypatch, cls, labels, n_val):
    """Record the validation accuracy of every forward over n_val samples."""
    accs = []
    forward = cls.forward

    def recorded(model, x):
        out = forward(model, x)
        if len(x) == n_val:
            accs.append(float((out.data.argmax(axis=1) == labels).mean()))
        return out

    monkeypatch.setattr(cls, "forward", recorded)
    return accs


class TestSplit:
    def test_sizes_and_disjointness(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=100)
        masks = dg.split(labels, dg.SplitSpec(20, 10, seed=1))
        assert masks["train"].sum() == 20
        assert masks["val"].sum() == 10
        assert masks["test"].sum() == 70
        total = masks["train"].astype(int) + masks["val"] + masks["test"]
        assert np.all(total == 1)

    def test_stratified_covers_every_class(self):
        labels = np.array([0] * 50 + [1] * 5 + [2] * 45)
        for seed in range(5):
            masks = dg.split(labels, dg.SplitSpec(10, 5, seed=seed))
            assert len(np.unique(labels[masks["train"]])) == 3

    def test_stratified_proportions(self):
        labels = np.array([0] * 60 + [1] * 30 + [2] * 10)
        masks = dg.split(labels, dg.SplitSpec(50, 0, seed=3))
        counts = np.bincount(labels[masks["train"]])
        assert counts.tolist() == [30, 15, 5]

    def test_deterministic(self):
        labels = np.random.default_rng(2).integers(0, 3, size=60)
        a = dg.split(labels, dg.SplitSpec(15, 10, seed=9))
        b = dg.split(labels, dg.SplitSpec(15, 10, seed=9))
        for k in a:
            assert np.array_equal(a[k], b[k])

    @pytest.mark.parametrize("n_train, n_val", [(-1, 5), (5, -1)])
    def test_negative_size_rejected(self, n_train, n_val):
        with pytest.raises(ValueError, match="must not be negative"):
            dg.split(np.zeros(10, dtype=int), dg.SplitSpec(n_train, n_val))

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            dg.split(np.zeros(10, dtype=int), dg.SplitSpec(8, 5))

    def test_too_few_train_for_classes(self):
        labels = np.arange(6)
        with pytest.raises(ValueError):
            dg.split(labels, dg.SplitSpec(3, 0))


class TestTrainNodeLevel:
    def spec(self, arch):
        widths = {"gcn": {"gc": 8, "conv": (4,), "hidden": 8},
                  "gat": {"per_head": 4},
                  "graphsage": {"hidden": 8}}[arch]
        return md.default_spec(arch, epochs=80, lr=0.02, optimizer="adam",
                               heads=2, widths=widths)

    @pytest.mark.parametrize("arch", ["gcn", "gat", "graphsage"])
    def test_learns_separated_clusters(self, arch):
        rng = np.random.default_rng(0)
        g = clustered_graph(rng)
        masks = dg.split(g.labels, dg.SplitSpec(15, 9, seed=0))
        model, trace = dg.train_node_level(arch, g, masks, self.spec(arch))
        pred = dg.predict_node_level(model, g)
        acc = (pred[masks["test"]] == g.labels[masks["test"]]).mean()
        assert acc >= 0.9
        assert len(trace) == 80
        assert np.isfinite(trace).all()

    def test_test_labels_never_read(self):
        # corrupting every test label must not change training or predictions
        rng = np.random.default_rng(4)
        g = clustered_graph(rng)
        masks = dg.split(g.labels, dg.SplitSpec(15, 9, seed=1))
        spec = self.spec("graphsage")
        model_a, trace_a = dg.train_node_level("graphsage", g, masks, spec,
                                               n_classes=3)
        poisoned = np.where(masks["test"], (g.labels + 1) % 3, g.labels)
        g2 = g.with_data(labels=poisoned)
        model_b, trace_b = dg.train_node_level("graphsage", g2, masks, spec,
                                               n_classes=3)
        assert trace_a == trace_b
        assert np.array_equal(dg.predict_node_level(model_a, g),
                              dg.predict_node_level(model_b, g2))

    @pytest.mark.parametrize("arch", ["gcn", "gat", "graphsage"])
    def test_restored_model_scores_best_validation_accuracy(self, arch, monkeypatch):
        # record the validation accuracy of every epoch's training forward
        rng = np.random.default_rng(6)
        g = clustered_graph(rng, sep=1.0)
        masks = dg.split(g.labels, dg.SplitSpec(15, 15, seed=2))
        val = masks["val"]
        accs = []
        build = md.build_node_model

        def recording_build(*args, **kwargs):
            model = build(*args, **kwargs)
            forward = model.forward

            def recorded(x, graph, rows=None):
                out = forward(x, graph, rows)
                seen = np.arange(graph.n) if rows is None else rows
                pred = out.data.argmax(axis=1)
                accs.append(float((pred[val[seen]] == g.labels[seen][val[seen]]).mean()))
                return out

            model.forward = recorded
            return model

        monkeypatch.setattr(md, "build_node_model", recording_build)
        spec = md.default_spec(arch, epochs=8, lr=0.05, optimizer="adam", heads=2,
                               widths=self.spec(arch).widths)
        model, _ = dg.train_node_level(arch, g, masks, spec)
        best = max(accs)
        pred = dg.predict_node_level(model, g)
        assert float((pred[val] == g.labels[val]).mean()) == best

    @pytest.mark.parametrize("arch", ["gcn", "gat", "graphsage"])
    def test_forward_runs_at_the_train_and_validation_rows(self, arch, monkeypatch):
        rng = np.random.default_rng(7)
        g = clustered_graph(rng)
        masks = dg.split(g.labels, dg.SplitSpec(12, 6, seed=3))
        calls = []
        build = md.build_node_model

        def recording_build(*args, **kwargs):
            model = build(*args, **kwargs)
            forward = model.forward

            def recorded(x, graph, *rest):
                calls.append(rest)
                return forward(x, graph, *rest)

            model.forward = recorded
            return model

        monkeypatch.setattr(md, "build_node_model", recording_build)
        spec = md.default_spec(arch, epochs=3, heads=2, widths=self.spec(arch).widths)
        dg.train_node_level(arch, g, masks, spec)
        want = np.flatnonzero(masks["train"] | masks["val"])
        assert len(calls) == 4          # one per epoch, and one scores the last step
        assert all(len(rest) == 1 and np.array_equal(rest[0], want) for rest in calls)

    @pytest.mark.parametrize("arch", ["gcn", "gat", "graphsage"])
    def test_one_epoch_fit_returns_the_stepped_parameters(self, arch):
        # the parameters after the last step are a candidate of the restore,
        # so a fit whose step raises validation accuracy keeps them
        g = clustered_graph(np.random.default_rng(9))
        masks = dg.split(g.labels, dg.SplitSpec(12, 12, seed=4))
        spec = md.default_spec(arch, epochs=1, lr=0.05, optimizer="adam", heads=2,
                               widths=self.spec(arch).widths)
        model, _ = dg.train_node_level(arch, g, masks, spec)
        rows = np.flatnonzero(masks["train"] | masks["val"])
        x = g.derived(md.FirstLayerInputs).x
        stepped = md.build_node_model(arch, x.shape[1], 3, spec)
        before = stepped.forward(x, g, rows)
        ad.cross_entropy(before, dg.one_hot(g.labels[rows], 3), masks["train"][rows]).backward()
        optim.make_optimizer(spec.optimizer, stepped.params, spec.lr).step()
        with ad.no_grad():
            after = stepped.forward(x, g, rows)
        val, labels = masks["val"][rows], g.labels[rows]
        accs = [float((out.data.argmax(axis=1)[val] == labels[val]).mean())
                for out in (before, after)]
        assert accs[1] > accs[0]
        assert all(p.data.tobytes() == q.data.tobytes()
                   for p, q in zip(model.params, stepped.params))

    @pytest.mark.parametrize("arch,widths", [
        ("gcn", {"gc": 8, "conv": (4,), "hidden": 8}),
        ("graphsage", {"hidden": 8}),
    ])
    def test_constant_features_are_propagated_once_per_graph(self, arch, widths, monkeypatch):
        g = clustered_graph(np.random.default_rng(8))
        operands = []
        propagate = ad.propagate

        def recorded(s, x):
            operands.append(x)
            return propagate(s, x)

        monkeypatch.setattr(ad, "propagate", recorded)
        spec = md.default_spec(arch, epochs=4, widths=widths)
        for seed in range(2):
            masks = dg.split(g.labels, dg.SplitSpec(12, 6, seed=seed))
            model, _ = dg.train_node_level(arch, g, masks, spec)
            dg.predict_node_level(model, g)
        x = g.derived(md.FirstLayerInputs).x
        assert sum(operand is x for operand in operands) == 1
        # GCN has no other graph layer; GraphSage's second propagates each
        # forward: 4 epochs, the score of the last step and the prediction
        assert len(operands) == (1 if arch == "gcn" else 1 + 2 * (4 + 2))

    def test_empty_train_mask_rejected(self):
        rng = np.random.default_rng(5)
        g = clustered_graph(rng)
        masks = {k: np.zeros(g.n, dtype=bool) for k in ("train", "val", "test")}
        with pytest.raises(ValueError):
            dg.train_node_level("gcn", g, masks, self.spec("gcn"))

    def test_requires_graph_data(self):
        from graphdiag.graph import from_edge_list
        g = from_edge_list([(0, 1)], 2)
        masks = {"train": np.array([True, False]),
                 "val": np.array([False, False]),
                 "test": np.array([False, True])}
        with pytest.raises(ValueError):
            dg.train_node_level("gcn", g, masks, self.spec("gcn"))


class TestSensorGraph:
    def test_correlated_channels_linked(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(4, 100))
        x = np.stack([base, base + 0.01 * rng.normal(size=(4, 100)),
                      rng.normal(size=(4, 100))], axis=2)
        g = dg.correlation_sensor_graph(x, threshold=0.5)
        assert [0, 1] in g.edges.tolist()
        assert np.bincount(g.edges.ravel(), minlength=g.n)[2] == 0

    def test_anticorrelation_counts(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(2, 80))
        x = np.stack([base, -base], axis=2)
        g = dg.correlation_sensor_graph(x, threshold=0.9)
        assert g.n_edges == 1

    @pytest.mark.parametrize("threshold", [0.0, 0.1, 0.3, 0.6])
    def test_edges_match_the_pair_loop(self, threshold):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 30, 7))
        x[:, :, 4] += x[:, :, 0]
        x[:, :, 6] -= 0.5 * x[:, :, 2]
        r = np.corrcoef(x.reshape(-1, 7), rowvar=False)
        pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)
                 if abs(r[i, j]) >= threshold]
        g = dg.correlation_sensor_graph(x, threshold)
        assert g.edges.tobytes() == np.asarray(pairs, dtype=np.intp).tobytes()

    def test_single_channel_has_no_edge(self):
        x = np.random.default_rng(9).normal(size=(4, 20, 1))
        assert dg.correlation_sensor_graph(x, threshold=0.0).n_edges == 0


class TestTrainGraphLevel:
    def make_dataset(self):
        spec = fg.ProcessSpec(channels=3, horizon=48, noise_std=0.3)
        plan = [("normal", None, 12),
                ("fault", fg.FaultSpec("step", 3.0, 0.25, (1,)), 12)]
        return fg.generate_dataset(spec, plan, 11)

    def test_learns_toy_problem(self):
        ds = self.make_dataset()
        masks = dg.split(ds.labels, dg.SplitSpec(12, 4, seed=0))
        spec = md.default_spec("stgcn", epochs=40, lr=0.005, seed=1)
        model, trace, (mean, std) = dg.train_graph_level(ds, masks, spec)
        xs = (ds.samples - mean) / std
        pred = model.forward(xs[masks["train"]]).data.argmax(axis=1)
        assert (pred == ds.labels[masks["train"]]).mean() >= 0.9
        assert len(trace) == 40

    def test_rejects_static_features(self):
        ds = fg.Dataset(samples=np.zeros((10, 5)), labels=np.zeros(10, dtype=np.intp),
                        class_names=["a"])
        masks = {"train": np.ones(10, dtype=bool), "val": np.zeros(10, dtype=bool),
                 "test": np.zeros(10, dtype=bool)}
        with pytest.raises(ValueError):
            dg.train_graph_level(ds, masks, md.default_spec("stgcn", epochs=1))

    def test_unknown_sensor_graph_source(self):
        ds = self.make_dataset()
        masks = dg.split(ds.labels, dg.SplitSpec(10, 4, seed=0))
        with pytest.raises(ValueError, match="'test', 'train', 'val'"):
            dg.train_graph_level(ds, masks, md.default_spec("stgcn", epochs=1),
                                 sensor_graph_source="validation")

    def test_restored_model_scores_best_validation_accuracy(self, monkeypatch):
        spec = fg.ProcessSpec(channels=3, horizon=48, noise_std=0.3)
        plan = [("normal", None, 12),
                ("fault", fg.FaultSpec("step", 0.4, 0.25, (1,)), 12)]
        ds = fg.generate_dataset(spec, plan, 11)
        masks = dg.split(ds.labels, dg.SplitSpec(12, 5, seed=0))
        val = ds.labels[masks["val"]]
        accs = post_step_val_accuracies(monkeypatch, md.StgcnModel, val, 5)
        model, _, (mean, std) = dg.train_graph_level(
            ds, masks, md.default_spec("stgcn", epochs=8, lr=0.02, seed=1))
        best = max(accs)
        assert accs[-1] < best              # the restore is not a no-op
        pred = model.forward((ds.samples[masks["val"]] - mean) / std).data.argmax(axis=1)
        assert float((pred == val).mean()) == best

    def test_deterministic(self):
        ds = self.make_dataset()
        masks = dg.split(ds.labels, dg.SplitSpec(10, 4, seed=0))
        spec = md.default_spec("stgcn", epochs=3, seed=2)

        def run():
            model, trace, _ = dg.train_graph_level(ds, masks, spec)
            return trace

        assert run() == run()


class TestBaselineTraining:
    def make_dataset(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(60, 6))
        y = np.repeat(np.arange(3), 20)
        x += 4.0 * y[:, None]
        return fg.Dataset(samples=x, labels=y, class_names=["a", "b", "c"])

    @pytest.mark.parametrize("arch", ["mlp", "knn-classifier"])
    def test_baselines_learn(self, arch):
        ds = self.make_dataset()
        masks = dg.split(ds.labels, dg.SplitSpec(24, 6, seed=0))
        spec = md.default_spec(arch, epochs=100, lr=0.01)
        acc = dg.run_baseline_experiment(arch, ds, 24, 6, seed=0, spec=spec)
        assert acc >= 0.9

    def test_restored_model_scores_best_validation_accuracy(self, monkeypatch):
        rng = np.random.default_rng(8)
        y = np.repeat(np.arange(3), 20)
        ds = fg.Dataset(samples=rng.normal(size=(60, 6)) + y[:, None], labels=y,
                        class_names=["a", "b", "c"])
        masks = dg.split(ds.labels, dg.SplitSpec(24, 6, seed=0))
        val = ds.labels[masks["val"]]
        accs = post_step_val_accuracies(monkeypatch, md.MlpModel, val, 6)
        model, _, inputs = dg.train_baseline(ds, masks,
                                             md.default_spec("mlp", epochs=10, lr=0.05))
        best = max(accs)
        assert accs[-1] < best              # the restore is not a no-op
        pred = model.forward(inputs[masks["val"]]).data.argmax(axis=1)
        assert float((pred == val).mean()) == best

    def test_cnn_requires_timeseries(self):
        ds = self.make_dataset()
        masks = dg.split(ds.labels, dg.SplitSpec(10, 5, seed=0))
        with pytest.raises(ValueError):
            dg.train_baseline(ds, masks, md.default_spec("cnn1d", epochs=1))


def with_nan(x):
    x = np.array(x, dtype=float)
    x[:, 0] = np.nan
    return x


def diverge_node_level():
    g = clustered_graph(np.random.default_rng(0))
    masks = dg.split(g.labels, dg.SplitSpec(15, 9, seed=0))
    dg.train_node_level("gcn", g.with_data(features=with_nan(g.features)), masks,
                        TestTrainNodeLevel().spec("gcn"))


def diverge_graph_level():
    ds = TestTrainGraphLevel().make_dataset()
    bad = fg.Dataset(samples=with_nan(ds.samples), labels=ds.labels,
                     class_names=ds.class_names)
    masks = dg.split(ds.labels, dg.SplitSpec(12, 4, seed=0))
    dg.train_graph_level(bad, masks, md.default_spec("stgcn", epochs=2))


def diverge_baseline():
    ds = TestBaselineTraining().make_dataset()
    bad = fg.Dataset(samples=with_nan(ds.samples), labels=ds.labels,
                     class_names=ds.class_names)
    masks = dg.split(ds.labels, dg.SplitSpec(24, 6, seed=0))
    dg.train_baseline(bad, masks, md.default_spec("mlp", epochs=2))


def diverge_gae():
    g = clustered_graph(np.random.default_rng(0))
    gb.train_gae_on_graph(with_nan(g.features), g, md.default_spec("gae", epochs=2))


@pytest.mark.parametrize("train", [diverge_node_level, diverge_graph_level,
                                   diverge_baseline, diverge_gae])
def test_nan_input_diverges_at_epoch_zero(train):
    # every training loop is optim.fit, so all four raise the one error type
    with pytest.raises(dg.DivergenceError, match="non-finite loss at epoch 0"):
        train()


class TestEvaluation:
    def test_confusion_hand_case(self):
        cm = dg.confusion_matrix([0, 0, 1, 1, 1], [0, 1, 1, 1, 0], 2)
        assert cm.tolist() == [[1, 1], [1, 2]]

    def test_report_metrics(self):
        rep = dg.evaluate_predictions([0, 0, 1, 1, 1], [0, 1, 1, 1, 0], 2)
        assert rep.accuracy == pytest.approx(0.6)
        assert rep.per_class[0]["precision"] == pytest.approx(0.5)
        assert rep.per_class[0]["recall"] == pytest.approx(0.5)
        assert rep.per_class[1]["recall"] == pytest.approx(2 / 3)
        assert rep.per_class[1]["support"] == 3

    def test_accuracy_equals_confusion_trace(self):
        rng = np.random.default_rng(9)
        true = rng.integers(0, 4, size=50)
        pred = rng.integers(0, 4, size=50)
        rep = dg.evaluate_predictions(true, pred, 4)
        assert rep.accuracy == np.trace(rep.confusion) / 50

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dg.evaluate_predictions([], [], 2)

    def test_report_json_deterministic_and_written(self, tmp_path):
        rep = dg.evaluate_predictions([0, 1], [0, 1], 2, fingerprint="abc",
                                      seeds=[1, 2])
        assert rep.to_json() == rep.to_json()
        path = tmp_path / "report.json"
        rep.write(path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["accuracy"] == 1.0
        csv = (tmp_path / "report.confusion.csv").read_text()
        assert csv == "1,0\n0,1\n"

    def test_aggregate_mean_and_std(self):
        reps = [dg.evaluate_predictions([0, 1], [0, 1], 2, seeds=[i])
                for i in range(2)]
        reps[1].accuracy = 0.5
        agg = dg.aggregate_reports(reps, fingerprint="f")
        assert agg.accuracy == pytest.approx(0.75)
        assert agg.std == pytest.approx(0.25)
        assert agg.seeds == [0, 1]


class TestLearningCurve:
    def test_sizes_must_ascend(self):
        ds = fg.Dataset(samples=np.zeros((10, 3)), labels=np.zeros(10, dtype=np.intp),
                        class_names=["a"])
        with pytest.raises(ValueError):
            dg.learning_curve(lambda: None, ds, {}, [20, 10], [0])

    def test_small_curve_and_csv(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(60, 4))
        y = np.repeat(np.arange(2), 30)
        x += 5.0 * y[:, None]
        ds = fg.Dataset(samples=x, labels=y, class_names=["a", "b"])
        specs = {
            "graphsage": md.default_spec("graphsage", epochs=20, lr=0.01,
                                         optimizer="adam", widths={"hidden": 8}),
            "mlp": md.default_spec("mlp", epochs=20, lr=0.01),
        }
        curve = dg.learning_curve(lambda: gb.knn_graph(x, 3, labels=y), ds,
                                  specs, [6, 12], [0, 1], n_val=6)
        assert curve["sizes"] == [6, 12]
        assert set(curve["results"]) == {"graphsage", "mlp"}
        for accs in curve["results"].values():
            assert len(accs) == 2
            assert all(0.0 <= a <= 1.0 for a in accs)
        csv = dg.learning_curve_csv(curve)
        lines = csv.strip().split("\n")
        assert lines[0] == "train_size,graphsage,mlp"
        assert lines[1].startswith("6,")
        assert len(lines) == 3

    def test_curve_deterministic(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(40, 3))
        y = np.repeat(np.arange(2), 20)
        x += 4.0 * y[:, None]
        ds = fg.Dataset(samples=x, labels=y, class_names=["a", "b"])
        specs = {"mlp": md.default_spec("mlp", epochs=10)}

        def run():
            return dg.learning_curve(lambda: None, ds, specs, [6], [0, 1], n_val=4)

        assert run() == run()


# Whether BLAS gives the same bytes on one and two threads depends on its
# kernels and threading thresholds: numpy promises nothing, and another CPU or
# BLAS build may split a GEMM otherwise.  These tests record what OpenBLAS on
# x86-64 does.  OpenBLAS caps its threads at the CPU count, so on one CPU a
# comparison would test nothing.
needs_two_cpus = pytest.mark.skipif((os.cpu_count() or 1) < 2,
                                    reason="one CPU: BLAS runs one thread")


def digests_by_blas_threads(script):
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    return digests


# conv1d then maxpool1d, forward and input gradient, at STGCN's t1a and t1b
# shapes, hashed.
KERNELS_SCRIPT = """
import hashlib
import numpy as np
from graphdiag import autodiff as ad
rng = np.random.default_rng(0)
digest = hashlib.sha256()
for shape, kernel in (((600, 256, 1), (5, 1, 8)), ((600, 126, 8), (3, 8, 8))):
    x = ad.Parameter(rng.normal(size=shape))
    y = ad.maxpool1d(ad.conv1d(x, ad.Parameter(rng.normal(size=kernel))), 2)
    y.backward(rng.normal(size=y.shape))
    digest.update(y.data.tobytes() + x.grad.tobytes())
print(digest.hexdigest())
"""


@needs_two_cpus
def test_temporal_kernels_do_not_depend_on_blas_thread_count():
    digests = digests_by_blas_threads(KERNELS_SCRIPT)
    assert digests[0] == digests[1]


# A Conv1dLayer with a nonzero bias, its output and its input and bias
# gradients, at STGCN's t1a and t1b shapes, hashed: the fused bias and ReLU
# read the conv output in row blocks, so they too must not depend on threads.
CONV_LAYER_SCRIPT = """
import hashlib
import numpy as np
from graphdiag import autodiff as ad, models as md
rng = np.random.default_rng(0)
digest = hashlib.sha256()
for shape, k in (((600, 256, 1), 5), ((600, 126, 8), 3)):
    layer = md.Conv1dLayer(k, shape[2], 8, rng)
    layer.bias.data[:] = rng.normal(size=8)
    x = ad.Parameter(rng.normal(size=shape))
    y = layer(x)
    y.backward(rng.normal(size=y.shape))
    digest.update(y.data.tobytes() + x.grad.tobytes() + layer.bias.grad.tobytes())
print(digest.hexdigest())
"""


@needs_two_cpus
def test_conv_layer_does_not_depend_on_blas_thread_count():
    digests = digests_by_blas_threads(CONV_LAYER_SCRIPT)
    assert digests[0] == digests[1]


# gat_aggregate's output and its three gradients at GAT's first-layer shape
# (8 heads of 8 channels) on a k = 45 KNN graph, over every node and over a
# subset of rows, hashed: its sparse products and per-row dots must not
# depend on threads.
GAT_SCRIPT = """
import hashlib
import numpy as np
from graphdiag import autodiff as ad, graphbuild as gb, models as md
rng = np.random.default_rng(0)
g = gb.knn_graph(rng.normal(size=(1000, 6)), 45)
digest = hashlib.sha256()
for rows in (None, np.sort(rng.choice(g.n, 80, replace=False))):
    params = [ad.Parameter(rng.normal(size=s)) for s in ((g.n, 8, 8), (8, 8), (8, 8))]
    out = ad.gat_aggregate(*params, md.GatEdgeIndex(g, rows), md.GatLayer.LEAKY_SLOPE)
    out.backward(rng.normal(size=out.shape))
    digest.update(out.data.tobytes() + b"".join(p.grad.tobytes() for p in params))
print(digest.hexdigest())
"""


@needs_two_cpus
def test_gat_kernel_does_not_depend_on_blas_thread_count():
    digests = digests_by_blas_threads(GAT_SCRIPT)
    assert digests[0] == digests[1]


# A preset's samples and the KNN table over its standardized features,
# hashed.  The GEMM's approximate distances may round otherwise on two
# threads; the exact re-rank must leave the table unchanged.
SETUP_SCRIPT = """
import hashlib
from graphdiag import faultgen as fg, graphbuild as gb
ds = fg.generate_preset("rectifier-like", 0)
table = gb.nearest_neighbor_table(gb.standardize(gb.extract_feature_matrix(ds.samples)), 45)
print(hashlib.sha256(ds.samples.tobytes() + table.tobytes()).hexdigest())
"""


@needs_two_cpus
def test_dataset_and_knn_table_do_not_depend_on_blas_thread_count():
    digests = digests_by_blas_threads(SETUP_SCRIPT)
    assert digests[0] == digests[1]


# An STGCN fit and its test logits, then a GCN forward and the gradient of
# its loss with respect to the input, hashed.  The GCN's weight gradients are
# left out: matmul's a.T @ g over the graph's 1067 rows gives gc.theta and
# fc1.w other bytes on two BLAS threads than on one, so a GCN fit does too.
# The STGCN fit runs GEMMs of that kind as well (conv1d's dw, the dense
# head's weight gradient); that they are stable is a fact of the BLAS build,
# so the test is marked slow and `-m "not slow"` leaves it out.
THREADS_SCRIPT = """
import hashlib
import numpy as np
from graphdiag import autodiff as ad, diagnose as dg, faultgen as fg, graphbuild as gb, models as md
ds = fg.generate_preset("rectifier-like", 0)
masks = dg.split(ds.labels, dg.SplitSpec(60, 30, seed=0))
model, trace, (mean, std) = dg.train_graph_level(ds, masks, md.default_spec("stgcn", epochs=2))
with ad.no_grad():
    logits = model.forward((ds.samples[masks["test"]] - mean) / std).data
digest = hashlib.sha256(np.asarray(trace).tobytes() + logits.tobytes())
g = gb.knn_graph(gb.extract_feature_matrix(ds.samples), 45, labels=ds.labels)
x = ad.Parameter(gb.standardize(g.features))
logits = md.GcnModel(x.shape[1], ds.n_classes, md.default_spec("gcn")).forward(x, g)
ad.cross_entropy(logits, np.eye(ds.n_classes)[ds.labels], masks["train"]).backward()
digest.update(logits.data.tobytes() + x.grad.tobytes())
print(digest.hexdigest())
"""


@pytest.mark.slow
@needs_two_cpus
def test_outputs_do_not_depend_on_blas_thread_count():
    digests = digests_by_blas_threads(THREADS_SCRIPT)
    assert digests[0] == digests[1]
