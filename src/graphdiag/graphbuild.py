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
from .graph import DENSE_CAP, Graph, GraphError, mean_propagation, sym_propagation
from .models import GaeModel, default_spec
from .optim import fit

# elements of the (rows, N, d) difference block one KNN chunk may form
KNN_CHUNK_ELEMENTS = 2_000_000
FEATURES_PER_CHANNEL = 12
# samples per block of extract_feature_matrix
FEATURE_CHUNK = 128
# edges per block of feature_smoothness
SMOOTHNESS_CHUNK = 4096
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
    return extract_feature_matrix(np.asarray(sample, dtype=np.float64)[None])[0]


def extract_feature_matrix(samples):
    """extract_features of every (T, C) sample of a (B, T, C) array, one row each.

    Works one channel and FEATURE_CHUNK samples at a time, every statistic a
    reduction along the contiguous time axis, so the memory peak stays that
    of one (FEATURE_CHUNK, T) block whatever B is.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 2:                     # one-channel samples given as (B, T)
        x = x[:, :, None]
    b, t, c = x.shape
    if t < 8:
        raise ValueError(f"sample too short for feature extraction: T={t}")
    out = np.empty((b, FEATURES_PER_CHANNEL * c))
    for ch in range(c):
        cols = slice(ch * FEATURES_PER_CHANNEL, (ch + 1) * FEATURES_PER_CHANNEL)
        for a in range(0, b, FEATURE_CHUNK):
            block = np.ascontiguousarray(x[a:a + FEATURE_CHUNK, :, ch])
            out[a:a + FEATURE_CHUNK, cols] = _channel_features(block)
    return out


def _channel_features(s):
    """The FEATURE_NAMES columns of each row of s, one channel's (m, T) series."""
    if not np.isfinite(s).all():
        raise ValueError("non-finite values in sample")
    t = s.shape[1]
    mean = s.mean(axis=1)
    std = s.std(axis=1)
    rms = np.sqrt((s * s).mean(axis=1))
    p2p = s.max(axis=1) - s.min(axis=1)
    centred = s - mean[:, None]
    spread = std > 0
    z = centred / np.where(spread, std, 1.0)[:, None]
    skew = np.where(spread, (z ** 3).mean(axis=1), 0.0)
    kurt = np.where(spread, (z ** 4).mean(axis=1) - 3.0, 0.0)
    crest = np.divide(np.abs(s).max(axis=1), rms, out=np.zeros_like(rms), where=rms > 0)
    spec = np.abs(np.fft.rfft(centred, axis=1)) ** 2
    total = spec.sum(axis=1)
    weighted = (np.arange(spec.shape[1]) * spec).sum(axis=1)
    centroid = np.divide(weighted, total, out=np.zeros_like(total), where=total > 0)
    energies = [band.sum(axis=1) / t for band in np.array_split(spec, 4, axis=1)]
    return np.stack([mean, std, rms, p2p, skew, kurt, crest, centroid, *energies], axis=1)


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
    """Fit a GAE to reconstruct g's adjacency from features; returns (A_hat, model, losses)."""
    if spec is None:
        spec = default_spec("gae")
    if rng_seed is not None:
        spec.seed = rng_seed
    if g.n > DENSE_CAP:
        raise GraphError(f"GAE's dense N x N decoder refused for n={g.n} > {DENSE_CAP}")
    x = Tensor(standardize(features))
    model = GaeModel(x.shape[1], spec)
    # the first layer's S x, constant across epochs; D^-1 A has A's ones as its pattern
    sx = ad.propagate(sym_propagation(g), x)
    pattern = mean_propagation(g)

    def steps(epoch):
        yield ad.inner_product_bce(model.encode(x, g, sx=sx), pattern), 1, None

    trace = fit(model, spec, steps)
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
    d = g.features.shape[1]
    # edges in chunks: no (|E|, d) difference array, yet rows still add in edge order
    acc = np.zeros(d)
    for start in range(0, g.n_edges, SMOOTHNESS_CHUNK):
        e = g.edges[start:start + SMOOTHNESS_CHUNK]
        diffs = g.features[e[:, 0]] - g.features[e[:, 1]]
        diffs *= diffs
        diffs[0] += acc
        acc = diffs.sum(axis=0)
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
