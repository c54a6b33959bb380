"""The four benchmark workloads: set-up, one round of timed work, and checks.

Every workload uses the rectifier-like preset (1067 samples of 256 x 6, six
classes) generated from the run's seed.  A round is a fixed amount of work;
the runner repeats rounds until the run's time is up.  `round()` returns the
number of operations it completed, the bytes that must not change between
identical rounds or between traced and untraced runs (`fingerprint`), and the
rates a user would read off the run.  `check()` tests the outputs against
the computations in oracles.py or against properties the method must have.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

import numpy as np

from graphdiag import autodiff as ad
from graphdiag import cli
from graphdiag import diagnose as dg
from graphdiag import faultgen as fg
from graphdiag import graphbuild as gb
from graphdiag import models as md
from graphdiag.autodiff import Tensor

import oracles

PRESET = "rectifier-like"
PRESET_COUNTS = [178, 178, 178, 178, 178, 177]
N_CLASSES = len(PRESET_COUNTS)
K = 45

# node-train: the paper's widths, learning rates and optimisers, fewer epochs
NODE_EPOCHS = {"gcn": 4, "gat": 4, "graphsage": 30}
NODE_TRAIN, NODE_VAL = 50, 30
# well over chance (1/6); GAT gets none, its paper settings stay near chance this early
ACCURACY_FLOOR = {"gcn": 0.5, "graphsage": 0.5}
# central differences at h=1e-6 or 1e-7 agree with reverse mode to ~1e-8 away from kinks
GRAD_RTOL = 1e-5
# transductivity needs every code path of an epoch, not many epochs
TRANSDUCTIVE_EPOCHS = {"gcn": 1, "gat": 1, "graphsage": 5}

# learning-curve: smallest and largest criterion-5 training size, one seed per round
CURVE_SIZES = [10, 100]
CURVE_VAL = 30

# stgcn: minibatch training on the raw series, then prediction over the test split
STGCN_EPOCHS = 8
STGCN_TRAIN, STGCN_VAL = 100, 30
STGCN_BATCH = 32
CORR_THRESHOLD = 0.5


def curve_model_specs():
    """The reduced-width criterion-5 specs, copied so test edits leave the workload alone."""
    return {
        "gcn": md.default_spec("gcn", epochs=30, lr=0.0015,
                               widths={"gc": 32, "conv": (8, 8, 8), "hidden": 32}),
        "gat": md.default_spec("gat", epochs=30, lr=0.01, heads=4,
                               widths={"per_head": 4}),
        "graphsage": md.default_spec("graphsage", epochs=60,
                                     widths={"hidden": 32}),
        "mlp": md.default_spec("mlp", epochs=150),
    }


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _graph_state(seed):
    ds = fg.generate_preset(PRESET, seed)
    feats = gb.extract_feature_matrix(ds.samples)
    g = gb.knn_graph(feats, K, labels=ds.labels)
    return {"seed": seed, "ds": ds, "feats": feats, "g": g}


def _graph_fingerprint(state):
    return [state["ds"].samples.tobytes(), state["feats"].tobytes(), state["g"].edges.tobytes()]


class NodeTrain:
    name = "node-train"
    rate_names = ("gcn.epochs_per_s", "gat.epochs_per_s", "graphsage.epochs_per_s")
    identical_rounds = True

    def setup(self, seed, work_dir):
        return _graph_state(seed)

    def setup_fingerprint(self, state):
        return _graph_fingerprint(state)

    @staticmethod
    def _fit(arch, g, masks, seed, epochs=NODE_EPOCHS):
        spec = md.default_spec(arch, seed=seed, epochs=epochs[arch])
        started = time.perf_counter()
        model, trace = dg.train_node_level(arch, g, masks, spec, n_classes=N_CLASSES)
        train_s = time.perf_counter() - started
        pred = dg.predict_node_level(model, g)
        test = masks["test"]
        report = dg.evaluate_predictions(g.labels[test], pred[test], N_CLASSES)
        return {"trace": trace, "pred": pred, "accuracy": report.accuracy, "train_s": train_s}

    def round(self, state, index):
        g, seed = state["g"], state["seed"]
        masks = dg.split(g.labels, dg.SplitSpec(NODE_TRAIN, NODE_VAL, seed=seed))
        fits = {arch: self._fit(arch, g, masks, seed) for arch in NODE_EPOCHS}
        return {
            "ops": sum(NODE_EPOCHS.values()),
            "fingerprint": [b for f in fits.values()
                            for b in (np.asarray(f["trace"]).tobytes(), f["pred"].tobytes())],
            "rates": {f"{arch}.epochs_per_s": NODE_EPOCHS[arch] / f["train_s"]
                      for arch, f in fits.items()},
            "masks": masks, "fits": fits,
        }

    def check(self, state, rounds, checks):
        g, seed, feats = state["g"], state["seed"], state["feats"]
        first = rounds[0]
        for arch, fit in first["fits"].items():
            checks.add(f"{arch} loss falls", fit["trace"][-1] < fit["trace"][0],
                       f"{fit['trace'][0]:.4f} -> {fit['trace'][-1]:.4f}")
            if arch in ACCURACY_FLOOR:
                checks.add(f"{arch} accuracy over floor",
                           fit["accuracy"] > ACCURACY_FLOOR[arch],
                           f"{fit['accuracy']:.3f} > {ACCURACY_FLOOR[arch]}")

        # transductive: permuting the test labels changes no loss and no prediction
        masks = first["masks"]
        rng = np.random.default_rng(seed)
        test = np.flatnonzero(masks["test"])
        labels = g.labels.copy()
        labels[test] = rng.permutation(labels[test])
        moved = int(np.sum(labels != g.labels))
        permuted = g.with_data(labels=labels)
        for arch in NODE_EPOCHS:
            fits = [self._fit(arch, graph, masks, seed, TRANSDUCTIVE_EPOCHS)
                    for graph in (g, permuted)]
            same = all(np.asarray(fits[0][key]).tobytes() == np.asarray(fits[1][key]).tobytes()
                       for key in ("trace", "pred"))
            checks.add(f"{arch} transductive", same and moved > 0,
                       f"{moved} test labels moved")

        # gradient along a random direction on the full graph, at a generic point
        x = Tensor(gb.standardize(feats))
        y = np.eye(N_CLASSES)[g.labels]
        everyone = np.ones(g.n, dtype=bool)
        for arch in NODE_EPOCHS:
            model = md.build_node_model(arch, feats.shape[1], N_CLASSES,
                                        md.default_spec(arch, seed=seed))
            oracles.nudge(model.params, rng)
            err = oracles.directional_error(
                lambda: ad.cross_entropy(model.forward(x, g), y, everyone), model.params, rng)
            checks.add(f"{arch} directional derivative", err < GRAD_RTOL,
                       f"rel err {err:.2e} on {g.n} nodes")


class LearningCurve:
    name = "learning-curve"
    rate_names = ("curve.cells_per_s",)
    identical_rounds = False

    def setup(self, seed, work_dir):
        state = _graph_state(seed)
        ds = state["ds"]
        state["static"] = fg.Dataset(samples=state["feats"], labels=ds.labels,
                                     class_names=ds.class_names)
        return state

    def setup_fingerprint(self, state):
        return _graph_fingerprint(state)

    def round(self, state, index):
        g = state["g"]
        specs = curve_model_specs()
        started = time.perf_counter()
        curve = dg.learning_curve(lambda: g, state["static"], specs, CURVE_SIZES,
                                  [state["seed"] + index], n_val=CURVE_VAL)
        elapsed = time.perf_counter() - started
        cells = len(specs) * len(CURVE_SIZES)
        return {
            "ops": cells,
            "fingerprint": [json.dumps(curve, sort_keys=True).encode()],
            "rates": {"curve.cells_per_s": cells / elapsed},
            "curve": curve,
        }

    def check(self, state, rounds, checks):
        models = rounds[0]["curve"]["results"]
        acc = {m: np.mean([r["curve"]["results"][m] for r in rounds], axis=0) for m in models}
        for m in ("gcn", "gat", "graphsage"):
            checks.add(f"{m} beats mlp at {CURVE_SIZES[0]} labels", acc[m][0] > acc["mlp"][0],
                       f"{acc[m][0]:.3f} vs {acc['mlp'][0]:.3f}")
        for m, a in acc.items():
            checks.add(f"{m} curve does not fall", a[-1] >= a[0],
                       f"{a[0]:.3f} at {CURVE_SIZES[0]}, {a[-1]:.3f} at {CURVE_SIZES[-1]}")


class Stgcn:
    name = "stgcn"
    rate_names = ("stgcn.train_samples_per_s", "stgcn.predict_samples_per_s")
    identical_rounds = True

    def setup(self, seed, work_dir):
        return {"seed": seed, "ds": fg.generate_preset(PRESET, seed)}

    def setup_fingerprint(self, state):
        return [state["ds"].samples.tobytes(), state["ds"].labels.tobytes()]

    def round(self, state, index):
        ds, seed = state["ds"], state["seed"]
        masks = dg.split(ds.labels, dg.SplitSpec(STGCN_TRAIN, STGCN_VAL, seed=seed))
        spec = md.default_spec("stgcn", seed=seed, epochs=STGCN_EPOCHS)
        started = time.perf_counter()
        model, trace, (mean, std) = dg.train_graph_level(ds, masks, spec,
                                                         batch_size=STGCN_BATCH,
                                                         corr_threshold=CORR_THRESHOLD)
        trained = time.perf_counter()
        xs = (ds.samples[masks["test"]] - mean) / std
        logits = model.forward(xs).data
        predicted = time.perf_counter()
        result = {
            "ops": STGCN_EPOCHS + 1,
            "fingerprint": [np.asarray(trace).tobytes(), logits.tobytes()],
            "rates": {
                "stgcn.train_samples_per_s": STGCN_EPOCHS * STGCN_TRAIN / (trained - started),
                "stgcn.predict_samples_per_s": len(xs) / (predicted - trained),
            },
            "trace": trace, "finite": bool(np.isfinite(logits).all()),
        }
        if index == 0:
            result.update(model=model, masks=masks, norm=(mean, std))
        return result

    def check(self, state, rounds, checks):
        ds, seed = state["ds"], state["seed"]
        first = rounds[0]
        model, masks = first["model"], first["masks"]
        expected, margin = oracles.pearson_edges(ds.samples[masks["train"]], CORR_THRESHOLD)
        got = {tuple(e) for e in model.sensor_graph.edges.tolist()}
        # a pair within rounding of the threshold could fall either side
        checks.add("sensor graph is thresholded |pearson r| of the train split",
                   got == expected or margin < 1e-9,
                   f"{len(got)} edges, closest |r| {margin:.1e} from threshold")
        trace = first["trace"]
        checks.add("stgcn loss falls", trace[-1] < trace[0], f"{trace[0]:.4f} -> {trace[-1]:.4f}")
        checks.add("stgcn logits finite", all(r["finite"] for r in rounds), "")

        mean, std = first["norm"]
        batch = np.flatnonzero(masks["train"])[:STGCN_BATCH]
        xb = (ds.samples[batch] - mean) / std
        yb = np.eye(N_CLASSES)[ds.labels[batch]]
        rng = np.random.default_rng(seed)
        oracles.nudge(model.params, rng)
        err = oracles.directional_error(
            lambda: ad.cross_entropy(model.forward(xb), yb, np.ones(len(batch), dtype=bool)),
            model.params, rng)
        checks.add("stgcn directional derivative", err < GRAD_RTOL,
                   f"rel err {err:.2e} on a batch of {len(batch)}")


class BuildGraph:
    name = "build-graph"
    rate_names = ("build_graph_s",)
    identical_rounds = True
    setup_ops = 1   # the generate subcommand

    @staticmethod
    def _cli(argv):
        # the CLI prints to stdout, whose last line belongs to the result
        with contextlib.redirect_stdout(sys.stderr):
            return cli.main([str(a) for a in argv])

    def setup(self, seed, work_dir):
        data = work_dir / "data"
        code = self._cli(["generate", "--preset", PRESET, "--seed", seed, "--out", data])
        if code != 0:
            raise RuntimeError(f"generate exited {code}")
        return {"seed": seed, "data": data, "out": work_dir / "graph", "codes": [code]}

    def setup_fingerprint(self, state):
        return [(state["data"] / name).read_bytes()
                for name in ("features.csv", "labels.csv", "manifest.json")]

    def round(self, state, index):
        started = time.perf_counter()
        code = self._cli(["build-graph", "--dataset", state["data"], "--graph", "knn-gae",
                          "--k", K, "--seed", state["seed"], "--out", state["out"]])
        elapsed = time.perf_counter() - started
        state["codes"].append(code)
        return {
            "ops": 1,
            "fingerprint": [(state["out"] / name).read_bytes()
                            for name in ("graph.edges", "quality.json")],
            "rates": {"build_graph_s": elapsed},
        }

    def check(self, state, rounds, checks):
        codes = state["codes"]
        checks.add("subcommands exit 0", all(c == 0 for c in codes), f"codes {codes}")
        ds = fg.generate_preset(PRESET, state["seed"])
        flat, labels = oracles.read_dataset_csv(state["data"])
        same = (flat.tobytes() == ds.samples.reshape(len(ds.samples), -1).tobytes()
                and labels.tobytes() == ds.labels.astype(labels.dtype).tobytes())
        checks.add("reloaded dataset equals the preset bit for bit", same,
                   f"{flat.shape[0]} x {flat.shape[1]} values")
        counts = np.bincount(labels, minlength=N_CLASSES).tolist()
        checks.add("class counts match the preset plan", counts == PRESET_COUNTS, f"{counts}")

        n, pairs = oracles.read_edge_file(state["out"] / "graph.edges")
        ordered = all(i < j for i, j in pairs) and all(0 <= i and j < n for i, j in pairs)
        unique = len(set(pairs)) == len(pairs)
        checks.add("edge lines are i < j without duplicates",
                   ordered and unique and n == len(ds.labels),
                   f"{len(pairs)} edges over {n} nodes")

        feats = gb.extract_feature_matrix(ds.samples)
        neighbors = [set() for _ in range(n)]
        for i, j in pairs:
            neighbors[i].add(j)
            neighbors[j].add(i)
        bad = oracles.knn_violations(oracles.zscore(feats), K, neighbors, range(n))
        checks.add(f"graph holds every node's {K} nearest neighbours", not bad,
                   f"{len(bad)} of {n} nodes miss one")

        quality = oracles.read_quality(state["out"] / "quality.json")
        lambda_f, lambda_l = oracles.smoothness(feats, labels, pairs)
        checks.add("quality.json matches recomputed lambda_f and lambda_l",
                   _rel_err(quality["lambda_f"], lambda_f) < 1e-12
                   and _rel_err(quality["lambda_l"], lambda_l) < 1e-12
                   and quality["edges"] == len(pairs),
                   f"lambda_f {lambda_f:.6g}, lambda_l {lambda_l:.6g}")


WORKLOADS = {w.name: w for w in (NodeTrain(), LearningCurve(), Stgcn(), BuildGraph())}
RATE_NAMES = tuple(name for w in WORKLOADS.values() for name in w.rate_names)
