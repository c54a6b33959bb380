"""Computations the benchmark makes apart from graphdiag to check its outputs.

Each function here re-derives a result from its definition (distances,
correlations, smoothness scores, file formats) or tests a property the
method must have (a gradient's directional derivative), so a check never
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# relative closeness of two squared distances treated as a tie at the k-th neighbour
TIE_RTOL = 1e-9


def zscore(features):
    """Per-column z-score with population std; constant columns left unscaled."""
    f = np.asarray(features, dtype=np.float64)
    std = f.std(axis=0)
    return (f - f.mean(axis=0)) / np.where(std > 0, std, 1.0)


def squared_distances(z, rows):
    """Squared Euclidean distances from z[rows] to every row of z, (len(rows), N)."""
    out = np.empty((len(rows), len(z)))
    for i, r in enumerate(rows):
        diff = z - z[r]
        out[i] = np.einsum("ij,ij->i", diff, diff)
    return out


def knn_violations(z, k, neighbors, rows):
    """Nodes of `rows` whose k nearest neighbours are not all in `neighbors[node]`.

    Neighbours whose distance ties the k-th within TIE_RTOL may be swapped for
    one another; every neighbour strictly closer than the k-th must be present.
    """
    bad = []
    d2 = squared_distances(z, rows)
    for i, node in enumerate(rows):
        d = d2[i].copy()
        d[node] = np.inf
        order = np.argsort(d, kind="stable")
        kth = d[order[k - 1]]
        strict = order[d[order] < kth * (1 - TIE_RTOL)]
        ties = order[np.abs(d[order] - kth) <= kth * TIE_RTOL]
        have = neighbors[node]
        if not set(strict.tolist()) <= have:
            bad.append(int(node))
        elif len(have & set(ties.tolist())) < k - len(strict):
            bad.append(int(node))
    return bad


def pearson_edges(samples, threshold):
    """Channel pairs i < j with |Pearson r| >= threshold over the pooled series."""
    x = np.asarray(samples, dtype=np.float64)
    flat = x.reshape(-1, x.shape[-1])
    centered = flat - flat.mean(axis=0)
    norms = np.sqrt((centered ** 2).sum(axis=0))
    c = flat.shape[1]
    edges, margins = set(), []
    for i in range(c):
        for j in range(i + 1, c):
            if norms[i] == 0 or norms[j] == 0:
                continue
            r = float((centered[:, i] * centered[:, j]).sum() / (norms[i] * norms[j]))
            margins.append(abs(abs(r) - threshold))
            if abs(r) >= threshold:
                edges.add((i, j))
    return edges, min(margins) if margins else np.inf


def read_edge_file(path):
    """Parse '# nodes N' plus 'i j' lines; returns (n, list of pairs)."""
    n, pairs = None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# nodes "):
            n = int(line.split()[2])
        elif line and not line.startswith("#"):
            i, j = line.split()
            pairs.append((int(i), int(j)))
    return n, pairs


def read_dataset_csv(directory):
    """features.csv and labels.csv of a dataset directory as float64 / int arrays."""
    directory = Path(directory)
    rows = directory.joinpath("features.csv").read_text(encoding="utf-8").splitlines()
    flat = np.array([float(v) for row in rows for v in row.split(",")])
    labels = np.array([int(v) for v in
                       directory.joinpath("labels.csv").read_text(encoding="utf-8").split()])
    return flat.reshape(len(rows), -1), labels


def read_quality(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def smoothness(features, labels, pairs):
    """(lambda_f, lambda_l) of an edge list, from their definitions."""
    e = np.asarray(pairs, dtype=np.intp)
    diff = features[e[:, 0]] - features[e[:, 1]]
    per_dim = (diff ** 2).sum(axis=0)
    lambda_f = float(np.sqrt((per_dim ** 2).sum()) / (len(e) * features.shape[1]))
    lambda_l = float(np.mean(labels[e[:, 0]] != labels[e[:, 1]]))
    return lambda_f, lambda_l


def directional_error(loss_fn, params, rng, steps=(1e-6, 1e-7)):
    """Relative gap between the reverse-mode and the central-difference
    derivative of loss_fn along a random unit direction.

    loss_fn() builds a scalar Tensor from the current parameter values.  A
    ReLU or max-pool kink inside [-h, h] spoils one step size; the gap is the
    smallest over `steps`, so only an error seen at every step size counts.
    """
    direction = [rng.normal(size=p.data.shape) for p in params]
    norm = np.sqrt(sum((d ** 2).sum() for d in direction))
    direction = [d / norm for d in direction]
    base = [p.data.copy() for p in params]
    for p in params:
        p.grad = None
    loss_fn().backward()
    analytic = float(sum((p.grad * d).sum() for p, d in zip(params, direction)))
    gaps = []
    for h in steps:
        values = []
        for sign in (1.0, -1.0):
            for p, b, d in zip(params, base, direction):
                p.data = b + sign * h * d
            values.append(float(loss_fn().data))
        numeric = (values[0] - values[1]) / (2 * h)
        gaps.append(abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-300))
    for p, b in zip(params, base):
        p.data = b
        p.grad = None
    return min(gaps)


def nudge(params, rng, scale=0.05):
    """Move every parameter to a generic point, biases off zero, so no ReLU
    input sits on its kink where central differences and subgradients disagree."""
    for p in params:
        p.data = p.data + scale * rng.normal(size=p.data.shape)
