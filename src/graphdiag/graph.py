"""Undirected association graphs and their matrix derivations.

A Graph is immutable after construction: a sorted (i < j) edge array plus
per-node neighbor lists, with optional node features, labels, and
train/val/test masks.  Self-loops are never stored; the +I used by the
symmetric normalization is applied inside its operator only.

Operators derived from a graph's structure (the sparse propagation matrices
and the attention edge index) are built on first use and kept on the Graph,
so every model that runs on the same graph shares one copy.
"""

from __future__ import annotations

import numpy as np

DENSE_CAP = 4096


class GraphError(ValueError):
    pass


class Graph:
    __slots__ = ("n", "edges", "_neighbors", "features", "labels", "masks", "_hash",
                 "_derived")

    def __init__(self, n, edges, features=None, labels=None, masks=None):
        self.n = int(n)
        self._derived = {}
        edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        if len(edges):
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            if lo.min() < 0 or hi.max() >= self.n:
                raise GraphError(f"edge endpoint out of range for n={self.n}")
            if np.any(lo == hi):
                raise GraphError("self-loop in edge list")
            # one int64 key per edge: the order of unique(axis=0) without its slow row sort
            key = np.unique(lo * self.n + hi)
            edges = np.stack([key // self.n, key % self.n], axis=1)
        else:
            edges = np.zeros((0, 2), dtype=np.intp)
        self.edges = edges
        self.edges.setflags(write=False)
        rows, cols = _directed_edges(self)
        order = np.lexsort((cols, rows))
        flat = cols[order]
        flat.setflags(write=False)
        self._neighbors = np.split(flat, np.cumsum(np.bincount(rows, minlength=self.n))[:-1])
        if features is not None:
            features = np.asarray(features, dtype=np.float64)
            if features.shape[0] != self.n:
                raise GraphError(f"features row count {features.shape[0]} != n={self.n}")
        self.features = features
        if labels is not None:
            labels = np.asarray(labels, dtype=np.intp)
            if labels.shape != (self.n,):
                raise GraphError(f"labels length {labels.shape} != n={self.n}")
        self.labels = labels
        if masks is not None:
            masks = {k: np.asarray(v, dtype=bool) for k, v in masks.items()}
            total = np.zeros(self.n, dtype=int)
            for k, v in masks.items():
                if v.shape != (self.n,):
                    raise GraphError(f"mask {k!r} length mismatch")
                total += v
            if total.max() > 1:
                raise GraphError("masks overlap")
        self.masks = masks

    @property
    def n_edges(self):
        return len(self.edges)

    def neighbors(self, v):
        if not 0 <= v < self.n:
            raise GraphError(f"node {v} out of range for n={self.n}")
        return self._neighbors[v]

    def degrees(self):
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def adjacency(self, cap=DENSE_CAP):
        if self.n > cap:
            raise GraphError(f"dense adjacency refused for n={self.n} > cap={cap}")
        a = np.zeros((self.n, self.n))
        if len(self.edges):
            a[self.edges[:, 0], self.edges[:, 1]] = 1.0
            a[self.edges[:, 1], self.edges[:, 0]] = 1.0
        return a

    def derived(self, build):
        """`build(self)`, computed on the first call for `build` and kept.

        A Graph never changes after construction, so an operator derived
        from its structure stays valid for the graph's lifetime.
        """
        try:
            return self._derived[build]
        except KeyError:
            value = self._derived[build] = build(self)
            return value

    def with_data(self, features=None, labels=None, masks=None):
        """Copy of this graph's structure with data fields replaced."""
        return Graph(self.n, self.edges,
                     features=self.features if features is None else features,
                     labels=self.labels if labels is None else labels,
                     masks=self.masks if masks is None else masks)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.n, self.edges.tobytes()))
            return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.n_edges})"


def from_edge_list(pairs, n):
    """Build a Graph from (i, j) pairs; duplicates and orientations collapse."""
    return Graph(n, np.asarray(list(pairs), dtype=np.intp).reshape(-1, 2))


def laplacian(g):
    """L = D - A as a dense matrix."""
    a = g.adjacency()
    return np.diag(g.degrees().astype(np.float64)) - a


def _csr(values, rows, cols, n):
    # scipy.sparse takes ~0.2 s to import; only these operators need it
    from scipy import sparse

    m = sparse.csr_matrix((values, (rows, cols)), shape=(n, n))
    m.sort_indices()
    return m


def _directed_edges(g):
    return (np.concatenate([g.edges[:, 0], g.edges[:, 1]]),
            np.concatenate([g.edges[:, 1], g.edges[:, 0]]))


def _build_sym_propagation(g):
    loops = np.arange(g.n)
    rows, cols = _directed_edges(g)
    rows, cols = np.concatenate([rows, loops]), np.concatenate([cols, loops])
    dinv = 1.0 / np.sqrt(np.bincount(rows, minlength=g.n))
    return _csr(dinv[rows] * dinv[cols], rows, cols, g.n)


def _build_mean_propagation(g):
    rows, cols = _directed_edges(g)
    return _csr(1.0 / np.bincount(rows, minlength=g.n)[rows], rows, cols, g.n)


def sym_propagation(g):
    """D~^{-1/2} (A + I) D~^{-1/2} as a CSR matrix, cached on g; indices sorted."""
    return g.derived(_build_sym_propagation)


def mean_propagation(g):
    """Row-normalized adjacency D^{-1} A as a CSR matrix, cached on g.

    Isolated nodes get an empty row; column indices are sorted.
    """
    return g.derived(_build_mean_propagation)


def normalized_adjacency(g):
    """Symmetric normalization D~^{-1/2} (A + I) D~^{-1/2}, dense."""
    return sym_propagation(g).toarray()


def mean_aggregation_matrix(g):
    """Row-normalized adjacency D^{-1} A, dense; isolated nodes get a zero row."""
    return mean_propagation(g).toarray()


def permute(g, perm):
    """Relabel nodes by a bijection perm: old index -> new index."""
    perm = np.asarray(perm, dtype=np.intp)
    if perm.shape != (g.n,) or not np.array_equal(np.sort(perm), np.arange(g.n)):
        raise GraphError("perm is not a bijection on [0, n)")
    edges = perm[g.edges] if len(g.edges) else g.edges
    inv = np.empty_like(perm)
    inv[perm] = np.arange(g.n)
    features = g.features[inv] if g.features is not None else None
    labels = g.labels[inv] if g.labels is not None else None
    masks = {k: v[inv] for k, v in g.masks.items()} if g.masks is not None else None
    return Graph(g.n, edges, features=features, labels=labels, masks=masks)


def write_edge_list(path, g):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes {g.n}\n")
        for i, j in g.edges:
            fh.write(f"{i} {j}\n")


def read_edge_list(path, n=None):
    """Read the one-edge-per-line text format; '#' lines are comments.

    The node count is `n` when given, else the `# nodes N` header that
    write_edge_list puts on the first line, else one more than the largest
    endpoint.  An endpoint outside [0, N) raises GraphError naming its line.
    """
    pairs, lines = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if lineno == 1 and line.startswith("# nodes"):
                header = line[len("# nodes"):].strip()
                if not header.isdigit():
                    raise GraphError(f"{path}: malformed header on line 1: {line!r}")
                if n is None:
                    n = int(header)
                continue
            if not line or line.startswith("#"):
                continue
            try:
                i, j = map(int, line.split())
            except ValueError:
                raise GraphError(f"{path}: malformed edge on line {lineno}: {line!r}") from None
            pairs.append((i, j))
            lines.append(lineno)
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    if n is None:
        n = int(pairs.max()) + 1 if len(pairs) else 0
    bad = np.flatnonzero((pairs < 0).any(axis=1) | (pairs >= n).any(axis=1))
    if len(bad):
        i, j = pairs[bad[0]]
        raise GraphError(f"{path}: edge ({i}, {j}) on line {lines[bad[0]]} "
                         f"is outside [0, {n})")
    return Graph(n, pairs)
