"""End-to-end diagnosis: splits, training, evaluation, learning curves.

Node-level training is transductive (test labels are never read): every
epoch runs the first graph layers over the whole graph, and the last graph
layer and the head only at the train and validation nodes, which the masked
loss and the model selection read; prediction runs the whole graph.
Graph-level training is minibatched over samples with the sensor
graph built from channel correlations.  Each trainer prepares its data and
yields the optimizer steps of an epoch; `optim.fit` runs the epochs, checks
for divergence, records the loss trace and restores the best-on-validation
parameters.  `run_seed` splits, trains and predicts the test split for one
seed, with the trainer that the `models.METHODS` row's input kind picks; the
CLI's `train` reports on it and every learning-curve cell scores it.
Reports are deterministic JSON documents per (config, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .graph import Graph
from . import models as md
from .faultgen import seed_stream
from .optim import DivergenceError, fit  # noqa: F401  (DivergenceError re-exported)


@dataclass
class SplitSpec:
    n_train: int
    n_val: int
    seed: int = 0


def split(labels, spec):
    """Train/val/test boolean masks; remainder after train+val is test.

    Stratified sampling keeps the class proportions and guarantees at least
    one training node per class.
    """
    labels = np.asarray(labels, dtype=np.intp)
    n = len(labels)
    if spec.n_train < 0 or spec.n_val < 0:
        raise ValueError(f"split sizes must not be negative, got n_train={spec.n_train}, "
                         f"n_val={spec.n_val}")
    if spec.n_train + spec.n_val > n:
        raise ValueError(f"split sizes {spec.n_train}+{spec.n_val} exceed N={n}")
    classes = np.unique(labels)
    if spec.n_train < len(classes):
        raise ValueError(
            f"n_train={spec.n_train} cannot cover {len(classes)} classes")
    rng = np.random.default_rng(spec.seed)
    masks, free = {}, np.ones(n, dtype=bool)
    # largest-remainder apportionment of per-class quotas over the unclaimed
    # nodes; each class keeps at least `floor` of the pass's picks
    for name, total, floor in (("train", spec.n_train, 1), ("val", spec.n_val, 0)):
        picked = masks[name] = np.zeros(n, dtype=bool)
        if total == 0:
            continue
        members = [(labels == c) & free for c in classes]
        counts = np.array([m.sum() for m in members])
        quota = counts * total / counts.sum()
        base = np.maximum(np.floor(quota).astype(int), floor)
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
                if base[c] > floor:
                    base[c] -= 1
                    short += 1
        for member, take in zip(members, base):
            pool = np.flatnonzero(member)
            picked[rng.choice(pool, size=min(take, len(pool)), replace=False)] = True
        free &= ~picked
    masks["test"] = free
    return masks


def one_hot(labels, n_classes):
    labels = np.asarray(labels, dtype=np.intp)
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


# ---------------------------------------------------------------------------
# training: each trainer yields the steps of an epoch, and optim.fit runs them

def train_node_level(architecture, g, masks, spec, n_classes=None):
    """Algorithm for node-level diagnosis: epochs whose forward ends at the
    train and validation rows, masked CE loss, best-on-validation snapshot
    returned.  Only training and validation labels are read.
    """
    if g.features is None or g.labels is None:
        raise ValueError("graph must carry features and labels")
    if not masks["train"].any():
        raise ValueError("empty training mask")
    # the loss and the selection read only these rows, so the forward ends there
    rows = np.flatnonzero(masks["train"] | masks["val"])
    labels = g.labels[rows]
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    x = g.derived(md.FirstLayerInputs).x
    y = one_hot(labels, n_classes)
    train, val = masks["train"][rows], masks["val"][rows]
    model = md.build_node_model(architecture, x.shape[1], n_classes, spec)

    def steps(epoch):
        logits = model.forward(x, g, rows)
        # scored on the logits of the parameters as they are before this step
        pred = logits.data.argmax(axis=1)
        acc = float((pred[val] == labels[val]).mean()) if val.any() else None
        yield ad.cross_entropy(logits, y, train), 1, acc

    return model, fit(model, spec, steps)


def correlation_sensor_graph(samples, threshold=0.5):
    """Sensor graph over channels: edge where |Pearson r| >= threshold.

    samples: (B, T, C); correlations computed on the pooled time series.
    At the default threshold the time-series presets get no edge at all:
    at seed 0 the largest channel |r| over all samples is 0.157 on
    rectifier-like and 0.115 on tep-like, so STGCN's spatial block is the
    identity on them.
    """
    x = np.asarray(samples, dtype=np.float64)
    c = x.shape[2]
    r = np.nan_to_num(np.corrcoef(x.reshape(-1, c), rowvar=False), nan=0.0).reshape(c, c)
    return Graph(c, np.argwhere(np.triu(np.abs(r) >= threshold, 1)))


def _score_after_step(model, inputs, labels):
    """fit's post-step validation score of a sample model; None without samples."""
    if not len(labels):
        return None

    def score():
        with ad.no_grad():
            pred = model.forward(inputs).data.argmax(axis=1)
        return float((pred == labels).mean())
    return score


def train_graph_level(dataset, masks, spec, sensor_graph_source="train",
                      batch_size=32, corr_threshold=0.5):
    """Minibatch training of the spatio-temporal model over whole samples.

    sensor_graph_source chooses which split's samples define the channel
    correlation graph ("train" by default; "test" reproduces the published
    protocol at the cost of test leakage).
    """
    if not dataset.is_timeseries:
        raise ValueError("graph-level training needs (B, T, C) time-series data")
    if sensor_graph_source not in masks:
        raise ValueError(f"sensor_graph_source {sensor_graph_source!r} is not a split; "
                         f"valid: {sorted(masks)}")
    src_mask = masks[sensor_graph_source]
    sensor_graph = correlation_sensor_graph(dataset.samples[src_mask], corr_threshold)
    n_classes = dataset.n_classes
    model = md.StgcnModel(dataset.samples.shape[2], n_classes, spec, sensor_graph)
    rng = np.random.default_rng(seed_stream(spec.seed, "stgcn-batches"))
    train_idx = np.flatnonzero(masks["train"])
    val_idx = np.flatnonzero(masks["val"])
    y = one_hot(dataset.labels, n_classes)
    mean = dataset.samples[train_idx].mean(axis=(0, 1))
    std = dataset.samples[train_idx].std(axis=(0, 1))
    std = np.where(std > 0, std, 1.0)
    xs = (dataset.samples - mean) / std

    def steps(epoch):
        order = rng.permutation(train_idx)
        for start in range(0, len(order), batch_size):
            idx = order[start:start + batch_size]
            logits = model.forward(xs[idx])
            yield ad.cross_entropy(logits, y[idx], np.ones(len(idx), dtype=bool)), len(idx), None

    score = _score_after_step(model, xs[val_idx], dataset.labels[val_idx])
    return model, fit(model, spec, steps, score), (mean, std)


def train_baseline(dataset, masks, spec):
    """MLP / 1d-CNN / KNN baselines trained on the training split only."""
    arch = spec.architecture
    method = md.METHODS[arch]
    if method.trains_on not in (md.SAMPLES, md.SERIES):
        raise ValueError(f"unknown baseline {arch!r}")
    if method.trains_on == md.SERIES and not dataset.is_timeseries:
        raise ValueError(f"{arch} baseline needs time-series data")
    train_idx = np.flatnonzero(masks["train"])
    val_idx = np.flatnonzero(masks["val"])
    flat = dataset.samples.reshape(len(dataset.samples), -1)
    mean = flat[train_idx].mean(axis=0)
    std = flat[train_idx].std(axis=0)
    std = np.where(std > 0, std, 1.0)
    xs = (flat - mean) / std
    inputs = xs.reshape(dataset.samples.shape) if method.trains_on == md.SERIES else xs
    if hasattr(method.model, "fit"):                # fitted in one call, no epochs
        clf = method.model(k=spec.widths.get("k", 5))
        return clf.fit(inputs[train_idx], dataset.labels[train_idx]), [], inputs
    n_classes = dataset.n_classes
    model = method.model(inputs.shape[-1], n_classes, spec)
    y = one_hot(dataset.labels, n_classes)
    rng = np.random.default_rng(seed_stream(spec.seed, "baseline-batches"))

    def steps(epoch):
        order = rng.permutation(train_idx)
        logits = model.forward(inputs[order])
        # weight 1: the trace entry is the loss itself, not (loss * n) / n
        yield ad.cross_entropy(logits, y[order], np.ones(len(order), dtype=bool)), 1, None

    score = _score_after_step(model, inputs[val_idx], dataset.labels[val_idx])
    return model, fit(model, spec, steps, score), inputs


def train_and_predict(architecture, dataset, g, masks, spec, n_classes=None,
                      sensor_graph_source="train"):
    """Predicted classes of the test split, trained on g (node-level models)
    or on dataset (STGCN and the baselines)."""
    test = masks["test"]
    trains_on = md.METHODS[architecture].trains_on
    if trains_on == md.GRAPH:
        model, _ = train_node_level(architecture, g, masks, spec, n_classes=n_classes)
        return predict_node_level(model, g)[test]
    if trains_on == md.SENSOR_GRAPH:
        model, _, (mean, std) = train_graph_level(dataset, masks, spec,
                                                  sensor_graph_source=sensor_graph_source)
        inputs = (dataset.samples - mean) / std
    else:
        model, _, inputs = train_baseline(dataset, masks, spec)
    if hasattr(model, "predict"):
        return model.predict(inputs[test])
    with ad.no_grad():
        return model.forward(inputs[test]).data.argmax(axis=1)


def run_seed(architecture, dataset, g, n_train, n_val, seed, spec=None, n_classes=None,
             sensor_graph_source="train"):
    """(masks, predicted test classes) of a stratified split of dataset's labels,
    or g's without a dataset; the split and init seeds are drawn from `seed`."""
    labels = g.labels if dataset is None else dataset.labels
    spec = replace(spec or md.default_spec(architecture),
                   seed=seed_stream(seed, f"{architecture}-init"))
    masks = split(labels, SplitSpec(n_train, n_val, seed=seed_stream(seed, "split")))
    return masks, train_and_predict(architecture, dataset, g, masks, spec, n_classes=n_classes,
                                    sensor_graph_source=sensor_graph_source)


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


def predict_node_level(model, g):
    """Predicted class of every node of g, from g's features."""
    x = g.derived(md.FirstLayerInputs).x
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
# learning curves

def _cell(architecture, dataset, g, n_train, n_val, seed, spec, n_classes=None):
    """One (model, train size, seed) cell: run_seed's test accuracy."""
    masks, pred = run_seed(architecture, dataset, g, n_train, n_val, seed, spec, n_classes)
    labels = g.labels if dataset is None else dataset.labels
    return float((pred == labels[masks["test"]]).mean())


def run_node_experiment(architecture, g, n_train, n_val, seed, spec=None,
                        n_classes=None):
    return _cell(architecture, None, g, n_train, n_val, seed, spec, n_classes)


def run_baseline_experiment(architecture, dataset, n_train, n_val, seed, spec=None):
    return _cell(architecture, dataset, None, n_train, n_val, seed, spec)


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
        arch = spec.architecture
        accs = []
        for size in sizes:
            if size + n_val > len(dataset.labels):
                raise ValueError(f"train size {size} + val {n_val} exceeds dataset")
            if md.METHODS[arch].trains_on == md.GRAPH:
                g = graph_for() if g is None else g
                cells = [run_node_experiment(arch, g, size, n_val, s, spec=spec) for s in seeds]
            else:
                cells = [run_baseline_experiment(arch, dataset, size, n_val, s, spec=spec)
                         for s in seeds]
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
