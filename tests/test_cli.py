import json

import numpy as np
import pytest

from graphdiag import autodiff as ad
from graphdiag import cli
from graphdiag import faultgen as fg
from graphdiag import models as md


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """Small static-feature dataset on disk, shared by the CLI tests."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 8))
    y = np.repeat(np.arange(2), 20)
    x += 5.0 * y[:, None]
    ds = fg.Dataset(samples=x, labels=y, class_names=["normal", "fault"],
                    manifest={"format_version": 1, "shape": [40, 8],
                              "classes": [{"name": "normal"}, {"name": "fault"}]})
    path = tmp_path_factory.mktemp("data") / "small"
    fg.save_dataset(ds, path)
    return path


@pytest.fixture(scope="module")
def series_dir(tmp_path_factory):
    """Small (B, T, C) time-series dataset on disk."""
    spec = fg.ProcessSpec(channels=2, horizon=32)
    plan = [("normal", None, 10), ("fault", fg.FaultSpec("step", 2.0, channels=(0,)), 10)]
    path = tmp_path_factory.mktemp("data") / "series"
    fg.save_dataset(fg.generate_dataset(spec, plan, 3), path)
    return path


def run(argv):
    return cli.main([str(a) for a in argv])


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestGenerate:
    @pytest.fixture(autouse=True)
    def tiny_preset(self, monkeypatch):
        def plan():
            spec = fg.ProcessSpec(channels=2, horizon=32)
            return spec, [("normal", None, 4),
                          ("fault", fg.FaultSpec("step", 2.0, channels=(0,)), 4)]

        monkeypatch.setitem(fg.PRESETS, "tiny", plan)

    def test_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert run(["generate", "--preset", "tiny", "--out", out, "--seed", "1"]) == 0
        assert (out / "manifest.json").exists()
        back = fg.load_dataset(out)
        assert back.samples.shape == (8, 32, 2)
        assert "wrote 8 samples" in capsys.readouterr().out

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["generate", "--preset", "tiny", "--out", a, "--seed", "3"])
        run(["generate", "--preset", "tiny", "--out", b, "--seed", "3"])
        assert read_tree(a) == read_tree(b)

    def test_missing_preset_is_config_error(self, tmp_path):
        assert run(["generate", "--out", tmp_path / "x"]) == cli.EXIT_CONFIG


class TestBuildGraph:
    def test_knn_outputs(self, dataset_dir, tmp_path):
        out = tmp_path / "g"
        code = run(["build-graph", "--dataset", dataset_dir, "--graph", "knn",
                    "--k", "3", "--out", out])
        assert code == 0
        assert (out / "graph.edges").exists()
        quality = json.loads((out / "quality.json").read_text())
        assert set(quality) == {"lambda_f", "lambda_l", "edges"}
        assert quality["edges"] >= 40 * 3 / 2

    def test_prior_from_true_labels_has_no_disagreement(self, dataset_dir, tmp_path):
        out = tmp_path / "g"
        assert run(["build-graph", "--dataset", dataset_dir, "--graph", "prior",
                    "--out", out]) == 0
        quality = json.loads((out / "quality.json").read_text())
        assert quality["lambda_l"] == 0.0

    def test_partition_file(self, dataset_dir, tmp_path):
        part = tmp_path / "part.txt"
        part.write_text("\n".join(str(i % 4) for i in range(40)) + "\n")
        out = tmp_path / "g"
        assert run(["build-graph", "--dataset", dataset_dir, "--graph", "prior",
                    "--partition", part, "--out", out]) == 0

    def test_partition_length_mismatch(self, dataset_dir, tmp_path):
        part = tmp_path / "part.txt"
        part.write_text("0\n1\n")
        code = run(["build-graph", "--dataset", dataset_dir, "--graph", "prior",
                    "--partition", part, "--out", tmp_path / "g"])
        assert code == cli.EXIT_CONFIG

    def test_missing_dataset(self, tmp_path):
        code = run(["build-graph", "--dataset", tmp_path / "nope",
                    "--out", tmp_path / "g"])
        assert code == cli.EXIT_CONFIG

    def test_invalid_dataset_is_config_error(self, dataset_dir, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        for name in ("manifest.json", "features.csv"):
            (bad / name).write_bytes((dataset_dir / name).read_bytes())
        (bad / "labels.csv").write_text("0\n" * 39)
        code = run(["build-graph", "--dataset", bad, "--graph", "knn", "--k", "3",
                    "--out", tmp_path / "g"])
        assert code == cli.EXIT_CONFIG == 2
        assert "has 40 rows but" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, dataset_dir, tmp_path):
        out = tmp_path / "g"
        args = ["build-graph", "--dataset", dataset_dir, "--graph", "knn",
                "--k", "3", "--seed", "7", "--out", out]
        assert run(args) == 0
        first = read_tree(out)
        assert run(args) == 0
        assert read_tree(out) == first

    def test_knn_gae_rerun_is_byte_identical(self, tmp_path):
        # 150 nodes: the GAE loss walks more than one row block
        rng = np.random.default_rng(1)
        y = np.repeat(np.arange(3), 50)
        x = rng.normal(size=(150, 6)) + 3.0 * y[:, None]
        ds = fg.Dataset(samples=x, labels=y, class_names=["a", "b", "c"],
                        manifest={"format_version": 1, "shape": [150, 6],
                                  "classes": [{"name": n} for n in "abc"]})
        fg.save_dataset(ds, tmp_path / "data")
        assert len(x) > ad.IP_BCE_BLOCK
        out = tmp_path / "g"
        args = ["build-graph", "--dataset", tmp_path / "data", "--graph", "knn-gae",
                "--k", "5", "--seed", "7", "--out", out]
        assert run(args) == 0
        first = read_tree(out)
        assert json.loads(first["quality.json"])["edges"] >= 150 * 5 / 2
        assert run(args) == 0
        assert read_tree(out) == first


class TestTrain:
    def test_baselines_and_summary(self, dataset_dir, tmp_path):
        out = tmp_path / "t"
        code = run(["train", "--dataset", dataset_dir,
                    "--model", "mlp,knn-classifier",
                    "--train-size", "12", "--val-size", "6",
                    "--seeds", "0,1", "--epochs", "15", "--lr", "0.01",
                    "--out", out])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"mlp", "knn-classifier"}
        for doc in summary.values():
            assert 0.0 <= doc["accuracy"] <= 1.0
        assert (out / "report_mlp_seed0.json").exists()
        assert (out / "report_mlp_aggregate.json").exists()
        assert (out / "report_mlp_seed0.confusion.csv").exists()
        assert (out / "config.json").exists()

    def test_node_model_with_graph(self, dataset_dir, tmp_path):
        out = tmp_path / "t"
        code = run(["train", "--dataset", dataset_dir, "--model", "graphsage",
                    "--graph", "knn", "--k", "3",
                    "--train-size", "12", "--val-size", "6",
                    "--seeds", "0", "--epochs", "20", "--lr", "0.02",
                    "--out", out])
        assert code == 0
        rep = json.loads((out / "report_graphsage_seed0.json").read_text())
        assert rep["graph_quality"] is not None
        assert rep["schema_version"] == 1

    def test_evaluate_alias_rerun_byte_identical(self, dataset_dir, tmp_path):
        out = tmp_path / "t"
        args = ["evaluate", "--dataset", dataset_dir, "--model", "mlp",
                "--train-size", "12", "--val-size", "6", "--seeds", "0",
                "--epochs", "10", "--out", out]
        assert run(args) == 0
        first = read_tree(out)
        assert run(args) == 0
        assert read_tree(out) == first

    def test_report_command(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "t"
        run(["train", "--dataset", dataset_dir, "--model", "knn-classifier",
             "--train-size", "12", "--val-size", "6", "--seeds", "0",
             "--out", out])
        capsys.readouterr()
        assert run(["report", "--out", out]) == 0
        assert "report_knn-classifier_aggregate.json" in capsys.readouterr().out

    def test_report_without_runs(self, tmp_path):
        assert run(["report", "--out", tmp_path / "empty"]) == cli.EXIT_CONFIG

    def test_stgcn_on_static_data_is_config_error(self, dataset_dir, tmp_path):
        code = run(["train", "--dataset", dataset_dir, "--model", "stgcn",
                    "--train-size", "12", "--val-size", "6", "--seeds", "0",
                    "--epochs", "2", "--out", tmp_path / "t"])
        assert code == cli.EXIT_CONFIG

    def test_shape_error_inside_training_is_runtime_error(self, dataset_dir, tmp_path,
                                                          monkeypatch, capsys):
        def broken(model, x):
            raise ad.ShapeError("operand shapes differ")

        monkeypatch.setattr(md.MlpModel, "forward", broken)
        code = run(["train", "--dataset", dataset_dir, "--model", "mlp",
                    "--train-size", "12", "--val-size", "6", "--seeds", "0",
                    "--epochs", "2", "--out", tmp_path / "t"])
        assert code == cli.EXIT_RUNTIME == 3
        assert "runtime error: operand shapes differ" in capsys.readouterr().err


class TestCurve:
    def test_csv_layout(self, dataset_dir, tmp_path):
        out = tmp_path / "c"
        code = run(["curve", "--dataset", dataset_dir, "--model", "mlp",
                    "--sizes", "6,12", "--seeds", "0", "--val-size", "6",
                    "--epochs", "10", "--out", out])
        assert code == 0
        lines = (out / "learning_curve.csv").read_text().strip().split("\n")
        assert lines[0] == "train_size,mlp"
        assert [int(l.split(",")[0]) for l in lines[1:]] == [6, 12]

    def test_rerun_byte_identical(self, dataset_dir, tmp_path):
        out = tmp_path / "c"
        args = ["curve", "--dataset", dataset_dir, "--model", "mlp",
                "--sizes", "6", "--seeds", "0", "--val-size", "6",
                "--epochs", "5", "--out", out]
        assert run(args) == 0
        first = read_tree(out)
        assert run(args) == 0
        assert read_tree(out) == first


class TestModelNames:
    CLASSIFIERS = "gcn, gat, graphsage, stgcn, mlp, cnn1d, knn-classifier"

    @pytest.mark.parametrize("command", ["train", "curve"])
    @pytest.mark.parametrize("model", ["gae", "mlp,gnc", "mlp,mlp"])
    def test_unknown_model_rejected_before_loading_data(self, command, model, tmp_path,
                                                        capsys):
        code = run([command, "--dataset", tmp_path / "missing", "--model", model,
                    "--out", tmp_path / "o"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown model" in err and f"known: {self.CLASSIFIERS}" in err

    @pytest.mark.parametrize("command", ["train", "curve"])
    @pytest.mark.parametrize("option, value", [("--epochs", "0"), ("--epochs", "-3"),
                                               ("--lr", "-1"), ("--lr", "0"),
                                               ("--lr", "nan"), ("--lr", "inf"),
                                               ("--k", "0"), ("--tau", "1"), ("--tau", "nan"),
                                               ("--seeds", "0,0"), ("--seeds", "0,x"),
                                               ("--train-size", "0"), ("--train-size", "-5"),
                                               ("--val-size", "-1")])
    def test_bad_training_option_rejected_before_loading_data(self, command, option, value,
                                                              tmp_path, capsys):
        code = run([command, "--dataset", tmp_path / "missing", "--model", "mlp",
                    option, value, "--out", tmp_path / "o"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert option in err and "does not exist" not in err

    @pytest.mark.parametrize("argv", [["curve", "--model", "mlp", "--sizes", "6,x"],
                                      ["curve", "--model", "mlp", "--sizes", "6,6"],
                                      ["build-graph", "--k", "-1"],
                                      ["build-graph", "--tau", "1.5"],
                                      ["curve", "--model", "mlp", "--sizes", "20,10"],
                                      ["curve", "--model", "mlp", "--sizes", "0,10"]])
    def test_bad_option_rejected_before_loading_data(self, argv, tmp_path, capsys):
        code = run(argv + ["--dataset", tmp_path / "missing", "--out", tmp_path / "o"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert argv[-2] in err and "does not exist" not in err

    def test_curve_trains_stgcn(self, series_dir, tmp_path):
        out = tmp_path / "c"
        code = run(["curve", "--dataset", series_dir, "--model", "stgcn,cnn1d",
                    "--sizes", "6", "--seeds", "0", "--val-size", "4",
                    "--epochs", "2", "--out", out])
        assert code == 0
        lines = (out / "learning_curve.csv").read_text().strip().split("\n")
        assert lines[0] == "train_size,stgcn,cnn1d"
        assert len(lines) == 2

    def test_curve_rejects_sensor_graph_from_test(self, series_dir, tmp_path, capsys):
        code = run(["curve", "--dataset", series_dir, "--model", "stgcn",
                    "--sizes", "6", "--seeds", "0", "--val-size", "4", "--epochs", "2",
                    "--sensor-graph-from-test", "--out", tmp_path / "c"])
        assert code == cli.EXIT_CONFIG
        assert "--sensor-graph-from-test" in capsys.readouterr().err


class TestSeedsAndConfig:
    def test_env_seed_fallback(self, dataset_dir, tmp_path, monkeypatch):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("GRAPHDIAG_SEED", "11")
        run(["build-graph", "--dataset", dataset_dir, "--graph", "knn",
             "--k", "3", "--out", out_a])
        monkeypatch.delenv("GRAPHDIAG_SEED")
        run(["build-graph", "--dataset", dataset_dir, "--graph", "knn",
             "--k", "3", "--seed", "11", "--out", out_b])
        cfg_a = json.loads((out_a / "config.json").read_text())
        cfg_b = json.loads((out_b / "config.json").read_text())
        assert cfg_a["master_seed"] == cfg_b["master_seed"] == 11

    def test_config_file_supplies_flags(self, dataset_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 3, "graph": "knn"}))
        out = tmp_path / "g"
        assert run(["build-graph", "--dataset", dataset_dir, "--config", cfg,
                    "--out", out]) == 0
        written = json.loads((out / "config.json").read_text())
        assert written["k"] == 3

    def test_flags_override_config_file(self, dataset_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2}))
        out = tmp_path / "g"
        assert run(["build-graph", "--dataset", dataset_dir, "--config", cfg,
                    "--k", "4", "--out", out]) == 0
        written = json.loads((out / "config.json").read_text())
        assert written["k"] == 4

    def test_explicit_flag_equal_to_default_overrides_config_file(self, dataset_dir,
                                                                 tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 3, "tau": 0.5}))
        out = tmp_path / "g"
        assert run(["build-graph", "--dataset", dataset_dir, "--config", cfg,
                    "--tau", "0.9", "--out", out]) == 0
        written = json.loads((out / "config.json").read_text())
        assert written["tau"] == 0.9
        assert written["k"] == 3

    def test_unknown_config_key(self, dataset_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 3, "neighbours": 5}))
        code = run(["build-graph", "--dataset", dataset_dir, "--config", cfg,
                    "--out", tmp_path / "g"])
        assert code == cli.EXIT_CONFIG

    def test_missing_config_file(self, dataset_dir, tmp_path):
        code = run(["build-graph", "--dataset", dataset_dir,
                    "--config", tmp_path / "nope.json", "--out", tmp_path / "g"])
        assert code == cli.EXIT_CONFIG
