"""Undirected association graphs and their matrix derivations.

A Graph is immutable after construction: a sorted (i < j) edge array with
optional node features and labels.  Self-loops are never stored; the +I used
by the symmetric normalization is applied inside its operator only.

Values derived from a graph (the sparse A + I propagation operator, whose
pattern also gives the neighbour lists, the attention edge index and the
GAE's target; and the standardized features with the first-layer inputs
made of them) are built on first use and kept on the Graph, so every model
that runs on the same graph shares one copy.  Restrictions of the symmetric
operator and of the attention edge index to a set of rows (the train and
validation nodes of a fit) are kept too, for the latest set of rows asked
for.
"""

from __future__ import annotations

import operator

import numpy as np

DENSE_CAP = 4096
# edges per write of write_edge_list: one block's Python ints and lines stay under 1 MB
EDGE_WRITE_BLOCK = 4096


class GraphError(ValueError):
    pass


class Graph:
    __slots__ = ("n", "edges", "features", "labels", "_derived", "_derived_rows")

    def __init__(self, n, edges, features=None, labels=None):
        try:
            self.n = operator.index(n)
        except TypeError:
            raise GraphError(f"node count must be an integer, got {n!r}") from None
        if self.n < 0:
            raise GraphError(f"node count must not be negative, got {self.n}")
        self._derived = {}
        self._derived_rows = {}
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

    @property
    def n_edges(self):
        return len(self.edges)

    def neighbors(self, v):
        """Sorted neighbor ids of node v: row v of sym_propagation's pattern
        without v, as a new array."""
        if not 0 <= v < self.n:
            raise GraphError(f"node {v} out of range for n={self.n}")
        s = sym_propagation(self)
        row = s.indices[s.indptr[v]:s.indptr[v + 1]]
        return row[row != v].astype(np.intp)

    def adjacency(self, cap=DENSE_CAP):
        if self.n > cap:
            raise GraphError(f"dense adjacency refused for n={self.n} > cap={cap}")
        a = np.zeros((self.n, self.n))
        if len(self.edges):
            a[self.edges[:, 0], self.edges[:, 1]] = 1.0
            a[self.edges[:, 1], self.edges[:, 0]] = 1.0
        return a

    def derived(self, build, rows=None):
        """`build(self)`, computed on the first call for `build` and kept.

        A Graph never changes after construction, so a value derived from
        its structure or its features stays valid for the graph's lifetime.
        With `rows` (sorted node ids) the value is `build(self, rows)`, kept
        in one slot per `build` until other rows are asked for: a fit asks
        for the same rows every epoch, and the next fit for its own.
        """
        if rows is None:
            try:
                return self._derived[build]
            except KeyError:
                value = self._derived[build] = build(self)
                return value
        key = rows.tobytes()
        slot = self._derived_rows.get(build)
        if slot is None or slot[0] != key:
            slot = self._derived_rows[build] = (key, build(self, rows))
        return slot[1]

    def with_data(self, features=None, labels=None):
        """Copy of this graph's structure with data fields replaced."""
        return Graph(self.n, self.edges,
                     features=self.features if features is None else features,
                     labels=self.labels if labels is None else labels)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.n_edges})"


def from_edge_list(pairs, n):
    """Build a Graph from (i, j) pairs; duplicates and orientations collapse."""
    return Graph(n, np.asarray(list(pairs), dtype=np.intp).reshape(-1, 2))


def _csr(values, rows, cols, n):
    # scipy.sparse takes ~0.2 s to import; only this operator needs it
    from scipy import sparse

    m = sparse.csr_matrix((values, (rows, cols)), shape=(n, n))
    m.sort_indices()
    return m


def _directed_edges(g):
    return (np.concatenate([g.edges[:, 0], g.edges[:, 1]]),
            np.concatenate([g.edges[:, 1], g.edges[:, 0]]))


def _build_sym_propagation(g, rows=None):
    if rows is not None:
        return sym_propagation(g)[rows]
    loops = np.arange(g.n)
    rows, cols = _directed_edges(g)
    rows, cols = np.concatenate([rows, loops]), np.concatenate([cols, loops])
    dinv = 1.0 / np.sqrt(np.bincount(rows, minlength=g.n))
    return _csr(dinv[rows] * dinv[cols], rows, cols, g.n)


def sym_propagation(g, rows=None):
    """D~^{-1/2} (A + I) D~^{-1/2} as a CSR matrix, cached on g; indices sorted.

    With `rows` (sorted node ids), only those rows, as a CSR row slice.
    """
    return g.derived(_build_sym_propagation, rows)


def normalized_adjacency(g):
    """Symmetric normalization D~^{-1/2} (A + I) D~^{-1/2}, dense."""
    return sym_propagation(g).toarray()


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
    return Graph(g.n, edges, features=features, labels=labels)


def write_edge_list(path, g):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes {g.n}\n")
        for start in range(0, g.n_edges, EDGE_WRITE_BLOCK):
            block = g.edges[start:start + EDGE_WRITE_BLOCK].tolist()
            fh.write("".join(f"{i} {j}\n" for i, j in block))


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
