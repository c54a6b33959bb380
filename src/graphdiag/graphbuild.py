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
from .graph import Graph, GraphError, mean_propagation
from .models import FirstLayerInputs, GaeModel, default_spec
from .optim import fit

# elements of each (rows, N) or (rows, candidates, d) array one KNN block may form
KNN_CHUNK_ELEMENTS = 2_000_000
# candidates beyond K that a KNN row re-ranks exactly before it widens
KNN_CANDIDATE_MARGIN = 16
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

    Ties break toward the lower index; a point never lists itself.  The
    table is that of a stable argsort of the squared distances
    ((f_i - f_j)^2).sum(-1), byte for byte; nearest_indices finds it
    without forming every (i, j) difference.
    """
    f = np.asarray(features, dtype=np.float64)
    n = len(f)
    if not 1 <= k < n:
        raise ValueError(f"K={k} out of range for N={n}")
    return nearest_indices(f, f, k, exclude_self=True)


def nearest_indices(queries, points, k, *, exclude_self=False):
    """Indices of the k points nearest each query, in stable (distance, index) order.

    Exact brute force in the scheme of FAISS (Johnson, Douze and Jegou, 2017).
    For a block of query rows, one GEMM gives the approximate squared
    distances |a|^2 + |b|^2 - 2 a.b, and argpartition keeps the c = k +
    KNN_CANDIDATE_MARGIN smallest as candidates.  Their distances are
    recomputed as ((a - b)^2).sum(-1), the expression whose stable argsort
    defines the answer, and sorted by (distance, index).  With exclude_self,
    queries are the points and query i never lists point i.

    A row is accepted only if no point outside its candidates can rank among
    its k: if m, the least approximate distance outside, satisfies
    m - delta > the k-th exact distance.  Rows that fail repeat with c
    doubled; once c covers every eligible point there is no outside and the
    test passes, so every row ends exact.

    The bound delta.  With u = 2^-53, gamma_n = n u / (1 - n u), d columns and
    X = (|a| + max |b|)^2, which bounds both sum (a - b)^2 and
    |a|^2 + |b|^2 + 2 sum |a b|:
    - the exact expression rounds each difference and each square, a factor
      within gamma_3 per term, then adds d non-negative terms with d - 1
      roundings, so it is within gamma_{d+2} X of the true distance;
    - the GEMM's a.b and the two squared norms are sums of d products, each
      within gamma_d of the sum of its terms' magnitudes in any summation
      order, and adding the three rounds twice more, so the approximate
      distance is within gamma_d X + gamma_2 (1 + gamma_d) X <= gamma_{d+2} X.
    So the exact distance of any point outside is at least m - delta, with
    delta = 2 gamma_{d+2} X.  Evaluating delta and the test's subtraction
    rounds by a further O(u X).  delta is not padded for it: the two bounds
    assume every rounding of both sums falls the same way, so the real error
    stays far inside them.

    Every block keeps each of its (rows, N) and (rows, c, d) arrays within
    KNN_CHUNK_ELEMENTS elements, and the two kinds are never alive together.
    """
    q = np.asarray(queries, dtype=np.float64)
    p = np.asarray(points, dtype=np.float64)
    n, d = p.shape
    eligible = n - 1 if exclude_self else n
    q_sq = np.einsum("ij,ij->i", q, q)
    p_sq = q_sq if exclude_self else np.einsum("ij,ij->i", p, p)
    u = np.finfo(np.float64).eps / 2
    gamma = (d + 2) * u / (1 - (d + 2) * u)
    delta = 2 * gamma * (np.sqrt(q_sq) + np.sqrt(p_sq.max())) ** 2
    table = np.empty((len(q), k), dtype=np.intp)
    pending = np.arange(len(q))
    c = min(k + KNN_CANDIDATE_MARGIN, eligible)
    while len(pending):
        rows = max(1, KNN_CHUNK_ELEMENTS // max(n, c * d))
        failed = []
        for start in range(0, len(pending), rows):
            ids = pending[start:start + rows]
            r = np.arange(len(ids))
            approx = q[ids] @ p.T
            approx *= -2.0
            approx += q_sq[ids, None]
            approx += p_sq
            if exclude_self:
                approx[r, ids] = np.inf
            if c < n:
                # [:, :c] the c least, [:, c] the least outside them
                part = np.argpartition(approx, c, axis=1)
                cand, outside = part[:, :c].copy(), approx[r, part[:, c]]
                del part
            else:
                cand = np.broadcast_to(np.arange(n), (len(ids), n))
                outside = np.full(len(ids), np.inf)
            del approx
            diff = p[cand]
            np.subtract(q[ids, None, :], diff, out=diff)
            diff *= diff
            exact = diff.sum(axis=2)
            del diff
            order = np.lexsort((cand, exact), axis=1)
            ranked = np.take_along_axis(cand, order[:, :k], axis=1)
            kth = exact[r, order[:, k - 1]]
            ok = outside - delta[ids] > kth
            table[ids[ok]] = ranked[ok]
            failed.append(ids[~ok])
        pending = np.concatenate(failed)
        c = min(2 * c, eligible)
    return table


def knn_graph(features, k, *, labels=None):
    """Symmetrized (union) K-nearest-neighbor graph over the standardized
    sample features; the graph carries the features as given."""
    f = np.asarray(features, dtype=np.float64)
    table = nearest_neighbor_table(standardize(f), k)
    n = len(f)
    rows = np.repeat(np.arange(n), k)
    pairs = np.stack([rows, table.reshape(-1)], axis=1)
    return Graph(n, pairs, features=f, labels=labels)


def prior_partition_graph(assignment, features=None, labels=None):
    """Clique per cluster: same-cluster nodes all connected, none across."""
    a = np.asarray(assignment, dtype=np.intp)
    if len(a) == 0:
        raise ValueError("empty partition assignment")
    pairs = []
    for cluster in np.unique(a):
        members = np.flatnonzero(a == cluster)
        i, j = np.triu_indices(len(members), 1)
        pairs.append(np.stack([members[i], members[j]], axis=1))
    return Graph(len(a), np.concatenate(pairs), features=features, labels=labels)


def train_gae_on_graph(features, g, spec=None):
    """Fit a GAE to reconstruct g's adjacency from features; returns (Z, model,
    losses), Z the fitted embedding that ad.inner_product_blocks decodes."""
    if spec is None:
        spec = default_spec("gae")
    # g's own features are its cached constant, so the first layer's S x is computed once
    x = g.derived(FirstLayerInputs).x if features is g.features else Tensor(standardize(features))
    model = GaeModel(x.shape[1], spec)
    # D^-1 A has A's ones as its pattern
    target = ad.BceTarget(mean_propagation(g))

    def steps(epoch):
        yield ad.inner_product_bce(model.encode(x, g), target), 1, None

    trace = fit(model, spec, steps)
    with ad.no_grad():
        z = model.encode(x, g)
    return z.data, model, trace


def gae_refine_graph(features, base, tau=0.9, spec=None):
    """Union of the base edges and the pairs i < j whose decoder score
    sigmoid(z_i . z_j) is >= tau, each scored once, in i's row block."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau={tau} outside (0, 1)")
    z, _, _ = train_gae_on_graph(features, base, spec)
    pairs = [base.edges]
    for a, _, scores in ad.inner_product_blocks(z):
        i, j = np.nonzero(np.triu(scores >= tau, 1))
        pairs.append(np.stack([i + a, j + a], axis=1))
    return Graph(base.n, np.concatenate(pairs), features=base.features, labels=base.labels)


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
