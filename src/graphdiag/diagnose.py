"""End-to-end diagnosis: splits, training loops, evaluation, learning curves.

Node-level training is full-batch and transductive (test labels are never
read); graph-level training is minibatched over samples with the sensor
graph built from channel correlations.  Reports are deterministic JSON
documents per (config, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import Graph
from . import graphbuild as gb
from . import models as md
from .faultgen import seed_stream
from .optim import make_optimizer


class DivergenceError(RuntimeError):
    pass


@dataclass
class SplitSpec:
    n_train: int
    n_val: int
    stratified: bool = True
    seed: int = 0


def split(labels, spec):
    """Train/val/test boolean masks; remainder after train+val is test.

    Stratified sampling keeps the class proportions and guarantees at least
    one training node per class.
    """
    labels = np.asarray(labels, dtype=np.intp)
    n = len(labels)
    if spec.n_train + spec.n_val > n:
        raise ValueError(f"split sizes {spec.n_train}+{spec.n_val} exceed N={n}")
    rng = np.random.default_rng(spec.seed)
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    if spec.stratified:
        classes = np.unique(labels)
        if spec.n_train < len(classes):
            raise ValueError(
                f"n_train={spec.n_train} cannot cover {len(classes)} classes")
        train_idx, val_idx = [], []
        # largest-remainder apportionment of per-class quotas
        for picks, total in ((train_idx, spec.n_train), (val_idx, spec.n_val)):
            taken = train  # already-claimed nodes
            counts = np.array([np.sum((labels == c) & ~taken) for c in classes])
            avail = counts.sum()
            if total == 0:
                continue
            quota = counts * total / avail
            base = np.floor(quota).astype(int)
            if picks is train_idx:
                base = np.maximum(base, 1)
            short = total - base.sum()
            if short > 0:
                order = np.argsort(-(quota - np.floor(quota)), kind="stable")
                for c in order[:short]:
                    base[c] += 1
            elif short < 0:
                order = np.argsort(quota - np.floor(quota), kind="stable")
                for c in order:
                    if short == 0:
                        break
                    floor_c = 1 if picks is train_idx else 0
                    if base[c] > floor_c:
                        base[c] -= 1
                        short += 1
            for c, take in zip(classes, base):
                pool = np.flatnonzero((labels == c) & ~train & ~val)
                chosen = rng.choice(pool, size=min(take, len(pool)), replace=False)
                picks.extend(chosen.tolist())
            if picks is train_idx:
                train[np.asarray(picks, dtype=np.intp)] = True
            else:
                val[np.asarray(picks, dtype=np.intp)] = True
    else:
        perm = rng.permutation(n)
        train[perm[:spec.n_train]] = True
        val[perm[spec.n_train:spec.n_train + spec.n_val]] = True
    test = ~(train | val)
    return {"train": train, "val": val, "test": test}


def one_hot(labels, n_classes):
    labels = np.asarray(labels, dtype=np.intp)
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


# ---------------------------------------------------------------------------
# training loops

def _snapshot(params):
    return [p.data.copy() for p in params]


def _restore(params, snap):
    for p, d in zip(params, snap):
        p.data = d.copy()


def train_node_level(architecture, g, masks, spec, n_classes=None):
    """Algorithm for node-level diagnosis: full-graph epochs, masked CE loss,
    best-on-validation snapshot returned.  Only training labels are read.
    """
    if g.features is None or g.labels is None:
        raise ValueError("graph must carry features and labels")
    if not masks["train"].any():
        raise ValueError("empty training mask")
    if n_classes is None:
        n_classes = int(g.labels[masks["train"] | masks["val"]].max()) + 1
    x = Tensor(gb.standardize(g.features))
    # labels outside train/val are zeroed: the loss and selection never see them
    visible = masks["train"] | masks["val"]
    safe_labels = np.where(visible, g.labels, 0)
    y = one_hot(safe_labels, n_classes)
    model = md.build_node_model(architecture, x.shape[1], n_classes, spec)
    opt = make_optimizer(spec.optimizer, model.params, spec.lr)
    trace = []
    best = (_snapshot(model.params), -1.0)
    use_val = masks["val"].any()
    for epoch in range(spec.epochs):
        logits = model.forward(x, g)
        loss = ad.cross_entropy(logits, y, masks["train"])
        if not np.isfinite(loss.data):
            raise DivergenceError(f"non-finite loss at epoch {epoch}")
        trace.append(loss.item())
        if use_val:
            # the logits came from the parameters as they are before this step
            pred = logits.data.argmax(axis=1)
            acc = float((pred[masks["val"]] == safe_labels[masks["val"]]).mean())
            if acc >= best[1]:
                best = (_snapshot(model.params), acc)
        loss.backward()
        opt.step()
    if use_val and spec.epochs > 0:
        _restore(model.params, best[0])
    return model, trace


def correlation_sensor_graph(samples, threshold=0.5):
    """Sensor graph over channels: edge where |Pearson r| >= threshold.

    samples: (B, T, C); correlations computed on the pooled time series.
    At the default threshold the rectifier-like preset gets no edge at all
    (its closest |r| is about 0.34), so STGCN's spatial block is the
    identity on that preset.
    """
    x = np.asarray(samples, dtype=np.float64)
    b, t, c = x.shape
    flat = x.transpose(0, 1, 2).reshape(b * t, c)
    r = np.corrcoef(flat, rowvar=False)
    r = np.nan_to_num(r, nan=0.0)
    pairs = [(i, j) for i in range(c) for j in range(i + 1, c)
             if abs(r[i, j]) >= threshold]
    return Graph(c, np.asarray(pairs, dtype=np.intp).reshape(-1, 2))


def train_graph_level(dataset, masks, spec, sensor_graph_source="train",
                      batch_size=32, corr_threshold=0.5):
    """Minibatch training of the spatio-temporal model over whole samples.

    sensor_graph_source chooses which split's samples define the channel
    correlation graph ("train" by default; "test" reproduces the published
    protocol at the cost of test leakage).
    """
    if not dataset.is_timeseries:
        raise ValueError("graph-level training needs (B, T, C) time-series data")
    src_mask = masks[sensor_graph_source if sensor_graph_source in masks else "train"]
    sensor_graph = correlation_sensor_graph(dataset.samples[src_mask], corr_threshold)
    n_classes = dataset.n_classes
    model = md.StgcnModel(dataset.samples.shape[2], n_classes, spec, sensor_graph)
    opt = make_optimizer(spec.optimizer, model.params, spec.lr)
    rng = np.random.default_rng(seed_stream(spec.seed, "stgcn-batches"))
    train_idx = np.flatnonzero(masks["train"])
    val_idx = np.flatnonzero(masks["val"])
    y = one_hot(dataset.labels, n_classes)
    mean = dataset.samples[train_idx].mean(axis=(0, 1))
    std = dataset.samples[train_idx].std(axis=(0, 1))
    std = np.where(std > 0, std, 1.0)
    xs = (dataset.samples - mean) / std
    trace = []
    best = (_snapshot(model.params), -1.0)
    for epoch in range(spec.epochs):
        order = rng.permutation(train_idx)
        total = 0.0
        for start in range(0, len(order), batch_size):
            idx = order[start:start + batch_size]
            logits = model.forward(xs[idx])
            loss = ad.cross_entropy(logits, y[idx], np.ones(len(idx), dtype=bool))
            if not np.isfinite(loss.data):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            total += loss.item() * len(idx)
            loss.backward()
            opt.step()
        trace.append(total / len(order))
        if len(val_idx):
            with ad.no_grad():
                pred = model.forward(xs[val_idx]).data.argmax(axis=1)
            acc = float((pred == dataset.labels[val_idx]).mean())
            if acc >= best[1]:
                best = (_snapshot(model.params), acc)
    if len(val_idx) and spec.epochs > 0:
        _restore(model.params, best[0])
    return model, trace, (mean, std)


def train_baseline(dataset, masks, spec):
    """MLP / 1d-CNN / KNN baselines trained on the training split only."""
    arch = spec.architecture
    train_idx = np.flatnonzero(masks["train"])
    val_idx = np.flatnonzero(masks["val"])
    flat = dataset.samples.reshape(len(dataset.samples), -1)
    mean = flat[train_idx].mean(axis=0)
    std = flat[train_idx].std(axis=0)
    std = np.where(std > 0, std, 1.0)
    xs = (flat - mean) / std
    if arch == "knn-classifier":
        k = spec.widths.get("k", 5)
        clf = md.KnnClassifier(k=min(k, len(train_idx)))
        clf.fit(xs[train_idx], dataset.labels[train_idx])
        return clf, [], xs
    n_classes = dataset.n_classes
    if arch == "mlp":
        model = md.MlpModel(xs.shape[1], n_classes, spec)
        inputs = xs
    elif arch == "cnn1d":
        if not dataset.is_timeseries:
            raise ValueError("cnn1d baseline needs time-series data")
        model = md.Cnn1dModel(dataset.samples.shape[2], n_classes, spec)
        inputs = xs.reshape(dataset.samples.shape)
    else:
        raise ValueError(f"unknown baseline {arch!r}")
    opt = make_optimizer(spec.optimizer, model.params, spec.lr)
    y = one_hot(dataset.labels, n_classes)
    trace = []
    best = (_snapshot(model.params), -1.0)
    rng = np.random.default_rng(seed_stream(spec.seed, "baseline-batches"))
    for epoch in range(spec.epochs):
        order = rng.permutation(train_idx)
        logits = model.forward(inputs[order])
        loss = ad.cross_entropy(logits, y[order], np.ones(len(order), dtype=bool))
        if not np.isfinite(loss.data):
            raise DivergenceError(f"non-finite loss at epoch {epoch}")
        trace.append(loss.item())
        loss.backward()
        opt.step()
        if len(val_idx):
            with ad.no_grad():
                pred = model.forward(inputs[val_idx]).data.argmax(axis=1)
            acc = float((pred == dataset.labels[val_idx]).mean())
            if acc >= best[1]:
                best = (_snapshot(model.params), acc)
    if len(val_idx) and spec.epochs > 0:
        _restore(model.params, best[0])
    return model, trace, inputs


# ---------------------------------------------------------------------------
# evaluation

@dataclass
class DiagnosisReport:
    accuracy: float
    std: float
    confusion: np.ndarray
    per_class: list
    graph_quality: dict | None
    config_fingerprint: str
    seeds: list = field(default_factory=list)

    def to_dict(self):
        return {
            "schema_version": 1,
            "accuracy": self.accuracy,
            "std": self.std,
            "confusion": self.confusion.astype(int).tolist(),
            "per_class": self.per_class,
            "graph_quality": self.graph_quality,
            "config_fingerprint": self.config_fingerprint,
            "seeds": list(self.seeds),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path):
        path = Path(path)
        path.write_text(self.to_json())
        csv_path = path.with_suffix(".confusion.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            for row in self.confusion.astype(int):
                fh.write(",".join(str(v) for v in row) + "\n")


def confusion_matrix(true, pred, n_classes):
    cm = np.zeros((n_classes, n_classes), dtype=np.intp)
    for t, p in zip(true, pred):
        cm[t, p] += 1
    return cm


def evaluate_predictions(true, pred, n_classes, graph_quality=None,
                         fingerprint="", seeds=()):
    true = np.asarray(true, dtype=np.intp)
    pred = np.asarray(pred, dtype=np.intp)
    if len(true) == 0:
        raise ValueError("empty test set")
    cm = confusion_matrix(true, pred, n_classes)
    acc = float(np.trace(cm) / cm.sum())
    per_class = []
    for c in range(n_classes):
        tp = cm[c, c]
        support = cm[c].sum()
        predicted = cm[:, c].sum()
        per_class.append({
            "class": c,
            "precision": float(tp / predicted) if predicted else 0.0,
            "recall": float(tp / support) if support else 0.0,
            "support": int(support),
        })
    return DiagnosisReport(accuracy=acc, std=0.0, confusion=cm,
                           per_class=per_class, graph_quality=graph_quality,
                           config_fingerprint=fingerprint, seeds=list(seeds))


def predict_node_level(model, g, features=None):
    x = Tensor(gb.standardize(g.features if features is None else features))
    with ad.no_grad():
        return model.forward(x, g).data.argmax(axis=1)


def aggregate_reports(reports, fingerprint=""):
    """Mean accuracy +- population std across per-seed reports."""
    accs = np.array([r.accuracy for r in reports])
    cm = np.sum([r.confusion for r in reports], axis=0)
    seeds = [s for r in reports for s in r.seeds]
    return DiagnosisReport(accuracy=float(accs.mean()), std=float(accs.std()),
                           confusion=cm, per_class=[],
                           graph_quality=reports[0].graph_quality,
                           config_fingerprint=fingerprint, seeds=seeds)


# ---------------------------------------------------------------------------
# PCA projection

def pca_project(x, dims=2):
    """Project centered data on the top principal directions.

    Returns (coordinates, explained variance ratios sorted descending).
    """
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean(axis=0)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-12)) if len(s) else 0
    if dims > rank:
        raise ValueError(f"requested {dims} components but data rank is {rank}")
    coords = centered @ vt[:dims].T
    var = s ** 2
    ratios = var[:dims] / var.sum()
    return coords, ratios


# ---------------------------------------------------------------------------
# learning curves

def run_node_experiment(architecture, g, n_train, n_val, seed, spec=None,
                        n_classes=None):
    """One (model, train size, seed) cell: split, train, test accuracy."""
    if spec is None:
        spec = md.default_spec(architecture)
    spec.seed = seed_stream(seed, f"{architecture}-init")
    masks = split(g.labels, SplitSpec(n_train, n_val, seed=seed_stream(seed, "split")))
    model, _ = train_node_level(architecture, g, masks, spec, n_classes=n_classes)
    pred = predict_node_level(model, g)
    test = masks["test"]
    return float((pred[test] == g.labels[test]).mean())


def run_baseline_experiment(architecture, dataset, n_train, n_val, seed, spec=None):
    if spec is None:
        spec = md.default_spec(architecture)
    spec.seed = seed_stream(seed, f"{architecture}-init")
    masks = split(dataset.labels, SplitSpec(n_train, n_val,
                                            seed=seed_stream(seed, "split")))
    if architecture == "knn-classifier":
        clf, _, xs = train_baseline(dataset, masks, spec)
        pred = clf.predict(xs[masks["test"]])
    else:
        model, _, inputs = train_baseline(dataset, masks, spec)
        with ad.no_grad():
            pred = model.forward(inputs[masks["test"]]).data.argmax(axis=1)
    return float((pred == dataset.labels[masks["test"]]).mean())


def learning_curve(graph_for, dataset, model_specs, train_sizes, seeds, n_val=30):
    """Accuracy table: one mean-over-seeds cell per (model, train size).

    `graph_for` maps nothing -> Graph for node-level models (called once);
    baselines train on the raw dataset.  Returns {model: [acc per size]}.
    """
    sizes = list(train_sizes)
    if sizes != sorted(sizes):
        raise ValueError("train sizes must be ascending")
    results = {}
    g = None
    for name, spec in model_specs.items():
        accs = []
        for size in sizes:
            if size + n_val > len(dataset.labels):
                raise ValueError(f"train size {size} + val {n_val} exceeds dataset")
            cells = []
            for seed in seeds:
                if spec.architecture in md.NODE_LEVEL:
                    if g is None:
                        g = graph_for()
                    cells.append(run_node_experiment(
                        spec.architecture, g, size, n_val, seed,
                        spec=md.ModelSpec(**{**spec.__dict__})))
                else:
                    cells.append(run_baseline_experiment(
                        spec.architecture, dataset, size, n_val, seed,
                        spec=md.ModelSpec(**{**spec.__dict__})))
            accs.append(float(np.mean(cells)))
        results[name] = accs
    return {"sizes": sizes, "results": results}


def learning_curve_csv(curve):
    """CSV layout: header 'train_size,<model>...', one row per size."""
    names = list(curve["results"])
    lines = ["train_size," + ",".join(names)]
    for i, size in enumerate(curve["sizes"]):
        row = [str(size)] + [f"{curve['results'][m][i]:.6f}" for m in names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
