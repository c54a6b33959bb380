import json

import numpy as np
import pytest

from graphdiag import diagnose as dg
from graphdiag import faultgen as fg
from graphdiag import graphbuild as gb
from graphdiag import models as md


def clustered_graph(rng, n_per=15, n_classes=3, sep=6.0):
    n = n_per * n_classes
    f = rng.normal(size=(n, 4))
    y = np.repeat(np.arange(n_classes), n_per)
    f += sep * y[:, None]
    return gb.knn_graph(f, 4, labels=y)


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

    def test_unstratified(self):
        labels = np.zeros(30, dtype=int)
        masks = dg.split(labels, dg.SplitSpec(10, 5, stratified=False, seed=0))
        assert masks["train"].sum() == 10

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

            def recorded(x, graph):
                out = forward(x, graph)
                accs.append(float((out.data.argmax(axis=1)[val] == g.labels[val]).mean()))
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
        assert g.degrees()[2] == 0

    def test_anticorrelation_counts(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(2, 80))
        x = np.stack([base, -base], axis=2)
        g = dg.correlation_sensor_graph(x, threshold=0.9)
        assert g.n_edges == 1


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

    def test_cnn_requires_timeseries(self):
        ds = self.make_dataset()
        masks = dg.split(ds.labels, dg.SplitSpec(10, 5, seed=0))
        with pytest.raises(ValueError):
            dg.train_baseline(ds, masks, md.default_spec("cnn1d", epochs=1))


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


class TestPca:
    def test_known_plane(self):
        rng = np.random.default_rng(10)
        coords2 = rng.normal(size=(50, 2)) * [5.0, 1.0]
        basis = np.linalg.qr(rng.normal(size=(4, 2)))[0]
        x = coords2 @ basis.T
        proj, ratios = dg.pca_project(x, dims=2)
        assert proj.shape == (50, 2)
        assert ratios.sum() == pytest.approx(1.0)
        assert ratios[0] > ratios[1]

    def test_rank_guard(self):
        x = np.outer(np.arange(10.0), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            dg.pca_project(x, dims=2)

    def test_centering(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 3)) + 100.0
        proj, _ = dg.pca_project(x, dims=2)
        assert np.abs(proj.mean(axis=0)).max() < 1e-9


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
