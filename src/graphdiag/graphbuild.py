"""Association-graph construction and quality scoring.

Three builders: brute-force KNN on extracted (or supplied) features, clique
graphs from an externally supplied partition, and GAE-based refinement that
adds high-scoring reconstructed edges to a KNN base graph.  Quality is
scored by feature smoothness (lambda_f) and label smoothness (lambda_l).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import Graph, GraphError
from .models import GaeModel, default_spec
from .optim import make_optimizer

# elements of the (rows, N, d) difference block one KNN chunk may form
KNN_CHUNK_ELEMENTS = 2_000_000
FEATURES_PER_CHANNEL = 12
FEATURE_NAMES = [
    "mean", "std", "rms", "peak_to_peak", "skewness", "kurtosis",
    "crest_factor", "spectral_centroid",
    "band_energy_0", "band_energy_1", "band_energy_2", "band_energy_3",
]


@dataclass
class GraphQuality:
    lambda_f: float
    lambda_l: float
    n_edges: int

    def to_dict(self):
        return {"lambda_f": self.lambda_f, "lambda_l": self.lambda_l,
                "edges": self.n_edges}


def extract_features(sample):
    """Time/frequency statistics per channel of a (T, C) sample.

    Returns a vector of 12*C values (FEATURE_NAMES per channel, channels
    concatenated).  Constant channels get skewness/kurtosis/crest of 0.
    """
    x = np.asarray(sample, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if not np.isfinite(x).all():
        raise ValueError("non-finite values in sample")
    t, c = x.shape
    if t < 8:
        raise ValueError(f"sample too short for feature extraction: T={t}")
    feats = []
    for ch in range(c):
        s = x[:, ch]
        mean = s.mean()
        std = s.std()
        rms = np.sqrt((s * s).mean())
        p2p = s.max() - s.min()
        if std > 0:
            z = (s - mean) / std
            skew = (z ** 3).mean()
            kurt = (z ** 4).mean() - 3.0
        else:
            skew = 0.0
            kurt = 0.0
        crest = np.abs(s).max() / rms if rms > 0 else 0.0
        spec = np.abs(np.fft.rfft(s - mean)) ** 2
        freqs = np.arange(len(spec))
        total = spec.sum()
        centroid = (freqs * spec).sum() / total if total > 0 else 0.0
        bands = np.array_split(spec, 4)
        energies = [b.sum() / t for b in bands]
        feats.extend([mean, std, rms, p2p, skew, kurt, crest, centroid, *energies])
    return np.asarray(feats)


def extract_feature_matrix(samples):
    """Stack extract_features over a (B, T, C) array."""
    return np.stack([extract_features(s) for s in samples])


def standardize(features):
    """Z-score per column; constant columns pass through unscaled."""
    f = np.asarray(features, dtype=np.float64)
    mean = f.mean(axis=0)
    std = f.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return (f - mean) / std


def nearest_neighbor_table(features, k):
    """N x K matrix of nearest-neighbor indices, distance-sorted ascending.

    Ties break toward the lower index; a point never lists itself.
    """
    f = np.asarray(features, dtype=np.float64)
    n = len(f)
    if not 1 <= k < n:
        raise ValueError(f"K={k} out of range for N={n}")
    table = np.empty((n, k), dtype=np.intp)
    chunk = max(1, KNN_CHUNK_ELEMENTS // (n * max(1, f.shape[1])))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        diff = f[start:stop, None, :] - f[None, :, :]
        d2 = (diff * diff).sum(axis=2)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        # stable argsort breaks distance ties toward the lower index
        table[start:stop] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return table


def knn_graph(features, k, *, standardize_features=True, labels=None, raw_features=None):
    """Symmetrized (union) K-nearest-neighbor graph over sample features."""
    f = np.asarray(features, dtype=np.float64)
    table = nearest_neighbor_table(standardize(f) if standardize_features else f, k)
    n = len(f)
    rows = np.repeat(np.arange(n), k)
    pairs = np.stack([rows, table.reshape(-1)], axis=1)
    return Graph(n, pairs, features=f if raw_features is None else raw_features,
                 labels=labels)


def prior_partition_graph(assignment, features=None, labels=None):
    """Clique per cluster: same-cluster nodes all connected, none across."""
    a = np.asarray(assignment, dtype=np.intp)
    if len(a) == 0:
        raise ValueError("empty partition assignment")
    pairs = []
    for cluster in np.unique(a):
        members = np.flatnonzero(a == cluster)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pairs.append((members[i], members[j]))
    return Graph(len(a), np.asarray(pairs, dtype=np.intp).reshape(-1, 2),
                 features=features, labels=labels)


def train_gae_on_graph(features, g, spec=None, rng_seed=None):
    """Fit a GAE to reconstruct g's adjacency from features; returns (A_hat, model)."""
    if spec is None:
        spec = default_spec("gae")
    if rng_seed is not None:
        spec.seed = rng_seed
    x = Tensor(standardize(features))
    target = g.adjacency()
    model = GaeModel(x.shape[1], spec)
    opt = make_optimizer(spec.optimizer, model.params, spec.lr)
    loss_fn = ad.bce_matrix if spec.gae_loss == "bce" else ad.mse_matrix
    trace = []
    for _ in range(spec.epochs):
        recon = model.forward(x, g)
        loss = loss_fn(recon, target)
        if not np.isfinite(loss.data):
            raise RuntimeError(f"GAE training diverged at epoch {len(trace)}")
        trace.append(loss.item())
        loss.backward()
        opt.step()
    with ad.no_grad():
        recon = model.forward(x, g)
    return recon.data, model, trace


def gae_refine_graph(features, base, tau=0.9, spec=None, edge_budget=None):
    """Union of the base edges and reconstructed pairs scoring >= tau.

    With edge_budget set, the top-scoring non-base pairs are added until the
    refined graph has that many edges, ignoring tau.
    """
    if not 0.0 < tau < 1.0 and edge_budget is None:
        raise ValueError(f"tau={tau} outside (0, 1)")
    recon, model, trace = train_gae_on_graph(features, base, spec)
    scores = (recon + recon.T) / 2.0
    candidate = np.triu(np.ones((base.n, base.n), dtype=bool), k=1)
    candidate &= ~base.adjacency().astype(bool)
    if edge_budget is not None:
        extra = max(0, int(edge_budget) - base.n_edges)
        ii, jj = np.nonzero(candidate)
        order = np.lexsort((jj, ii, -scores[ii, jj]))[:extra]
        added = np.stack([ii[order], jj[order]], axis=1)
    else:
        added = np.argwhere(candidate & (scores >= tau))
    pairs = np.concatenate([base.edges, np.asarray(added, dtype=np.intp).reshape(-1, 2)])
    return Graph(base.n, pairs, features=base.features, labels=base.labels)


def feature_smoothness(g):
    """lambda_f: norm of the summed elementwise-squared edge differences over |E|*d."""
    if g.features is None:
        raise GraphError("feature_smoothness requires node features")
    if g.n_edges == 0:
        raise GraphError("feature_smoothness of an empty edge set")
    diffs = g.features[g.edges[:, 0]] - g.features[g.edges[:, 1]]
    acc = (diffs * diffs).sum(axis=0)
    d = g.features.shape[1]
    return float(np.linalg.norm(acc) / (g.n_edges * d))


def label_smoothness(g):
    """lambda_l: fraction of edges joining differently labeled nodes."""
    if g.labels is None:
        raise GraphError("label_smoothness requires node labels")
    if g.n_edges == 0:
        raise GraphError("label_smoothness of an empty edge set")
    differ = g.labels[g.edges[:, 0]] != g.labels[g.edges[:, 1]]
    return float(differ.mean())


def graph_quality(g):
    return GraphQuality(lambda_f=feature_smoothness(g),
                        lambda_l=label_smoothness(g),
                        n_edges=g.n_edges)
