"""GNN layers, assembled diagnosis models, and the non-graph baselines.

Layers operate on the autodiff Tensor type and keep their Parameters in a
`params` list so the optimizers and checkpoints can reach them.  Graph layers
take `(x, g)` and read their operators from the per-Graph cache: GCN,
GraphSage (its gcn aggregator), the GAE encoder and the STGCN sensor mixing
propagate through the sparse symmetric-normalized adjacency S; GAT attention
is one fused op, `ad.gat_aggregate`, over S's A + I CSR pattern.  S is the
graph's only sparse operator: its pattern also gives the GAE's target.
When the input of a GCN, GraphSage or GAE first layer is the graph's
standardized features, its propagated input (S X, or [X || S X]) is read
from the graph's `FirstLayerInputs`: once per graph, not per epoch.
No program path forms an N x N array; the dense `GaeModel.forward` is a
small-graph reference; GAE training and refinement score Z in row blocks.  A
1-d conv layer (GCN's conv head, STGCN's temporal blocks, the 1d-CNN) is one
`ad.conv1d` call that adds its bias, applies its ReLU and, in
STGCN's and the 1d-CNN's pooled layers, max-pools inside the op, so it keeps
one output array (and a uint8 argmax offset when it pools).  Dense, GCN and
GraphSage layers are likewise one `ad.matmul` call with the bias and ReLU
inside.

The node-level models' `forward(x, g, rows)` computes the last graph layer
and everything after it only at `rows`, sorted node ids, with their full
neighbourhoods: training passes its train and validation nodes, so the
masked loss computes no row that it would multiply by zero, and the rows
equal those of the full forward (`rows=None`), which prediction uses.  GCN
takes the rows of its kept S X (or propagates through the row slice of its
operator when its input is not the graph's features), GraphSage's second layer
through the row slice of S, and GAT's second layer
attends over a `GatEdgeIndex` of the rows' segments; the earlier layers
stay full-graph.

Every method scores with `forward`: logits, or `KnnClassifier`'s class votes.
`METHODS` declares each method once: its table defaults, what it trains on
and its model class.  `default_spec`, `build_node_model`, the CLI's model
names and `diagnose`'s dispatch read it, so a new method is one row.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, Parameter
from . import graph as gr

@dataclass
class ModelSpec:
    """Architecture id plus training hyperparameters and layer widths."""

    architecture: str
    epochs: int
    lr: float
    optimizer: str
    seed: int = 0
    heads: int = 8
    widths: dict = field(default_factory=dict)


def default_spec(architecture, seed=0, **overrides):
    """The METHODS row's defaults; an override that is no ModelSpec field raises."""
    architecture = architecture.lower()
    if architecture not in METHODS:
        raise ValueError(f"unknown architecture {architecture!r}; known: {tuple(METHODS)}")
    epochs, lr, opt = METHODS[architecture].defaults
    return replace(ModelSpec(architecture=architecture, epochs=epochs, lr=lr,
                             optimizer=opt, seed=seed), **overrides)


def _check_activation(activation, name):
    if activation not in ("relu", "identity"):
        raise ValueError(f"{name}: activation must be 'relu' or 'identity', got {activation!r}")


def _check_rows(rows, n):
    """rows as an intp array, or None; a ShapeError unless they are a
    non-empty, 1-d, strictly increasing array of integer node ids in [0, n)."""
    if rows is None:
        return None
    rows = np.asarray(rows)
    if rows.ndim != 1:
        raise ad.ShapeError(f"rows must be 1-d, got shape {rows.shape}")
    if not len(rows):
        raise ad.ShapeError("rows must not be empty")
    if not np.issubdtype(rows.dtype, np.integer):
        raise ad.ShapeError(f"rows must be integer node ids, got dtype {rows.dtype}")
    if np.any(rows[1:] <= rows[:-1]):
        raise ad.ShapeError("rows must be strictly increasing")
    if rows[0] < 0 or rows[-1] >= n:
        raise ad.ShapeError(f"rows must lie in [0, {n}), got {rows[0]} .. {rows[-1]}")
    return rows.astype(np.intp, copy=False)


def glorot(rng, shape):
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# ---------------------------------------------------------------------------
# per-graph inputs and indices, built through g.derived

class FirstLayerInputs:
    """g's standardized features X and the first-layer inputs made of them:
    S X, S the cached symmetric-normalized A + I operator, and GraphSage's
    [X || S X], each built on first use and kept through
    `g.derived(FirstLayerInputs)`, so every epoch and every fit on the graph
    shares one copy.  A layer reads them only when its input *is* `x`; any
    other input is propagated.  A CSR product computes each row on its own,
    so the rows of a kept product are the bytes of the row-sliced operator's
    product.
    """

    def __init__(self, g):
        self._features = g.features
        self._x = None
        self._kept = {}

    @property
    def x(self):
        """The standardized features as a Tensor that requires no gradient."""
        if self._x is None:
            if self._features is None:
                raise ValueError("graph carries no features")
            # graphbuild imports this module, so standardize is imported at call time
            from .graphbuild import standardize

            self._x = Tensor(standardize(self._features))
            self._x.data.setflags(write=False)
        return self._x

    def holds(self, x):
        """Whether x is this graph's constant `x`."""
        return x is self._x and not x.requires_grad

    def propagated(self, g, rows=None):
        """S X, at `rows` only when given, as a constant Tensor."""
        return self._kept_rows(
            "sx", lambda: ad.propagate(gr.sym_propagation(g), self.x), rows)

    def with_aggregate(self, g, rows=None):
        """[X || S X], at `rows` only when given, as a constant Tensor."""
        return self._kept_rows("concat", lambda: ad.concat(
            [self.x, self.propagated(g)], axis=1), rows)

    def _kept_rows(self, key, build, rows):
        value = self._kept.get(key)
        if value is None:
            value = self._kept[key] = build().data
            value.setflags(write=False)
        return Tensor(value if rows is None else value[rows])


# ---------------------------------------------------------------------------
# layers

class GcnLayer:
    """Z = act(S X Theta) with S the symmetric-normalized adjacency."""

    def __init__(self, c_in, c_out, rng, activation="relu", name="gcn"):
        _check_activation(activation, name)
        self.theta = Parameter(glorot(rng, (c_in, c_out)), name=f"{name}.theta")
        self.activation = activation
        self.params = [self.theta]

    def __call__(self, x, g, rows=None):
        """act(S x Theta), at `rows` only when given; S x of g's standardized
        features is read from g's FirstLayerInputs."""
        inputs = g.derived(FirstLayerInputs)
        if inputs.holds(x):
            sx = inputs.propagated(g, rows)
        else:
            sx = ad.propagate(gr.sym_propagation(g, rows), x)
        return ad.matmul(sx, self.theta, relu=self.activation == "relu")


class GatEdgeIndex:
    """Directed edges of A + I into the nodes `dst` as CSR rows: one segment each.

    `dst` is every node, or the sorted `rows` when given; `seg` holds each
    destination's run of edges and `src` their sources, sorted, as in the
    cached A + I pattern, and `edge_dst` each edge's segment, the position
    of its destination in `dst`; every node has its self loop, so no segment
    is empty.  Built once per graph, or per set of rows, through
    `g.derived(GatEdgeIndex, rows)`, so `ad.gat_aggregate` gathers its
    per-edge scores through these arrays and builds no index per call.
    """

    def __init__(self, g, rows=None):
        pattern = gr.sym_propagation(g, rows)
        self.n = g.n
        self.dst = np.arange(g.n) if rows is None else rows
        self.src = pattern.indices.astype(np.intp)
        self.seg = ad.SegmentIndex(pattern.indptr[:-1], pattern.nnz)
        self.edge_dst = np.repeat(np.arange(len(self.dst)), self.seg.lengths)


class GatLayer:
    """Multi-head attention over each node's neighborhood incl. itself.

    merge="concat" stacks head outputs, merge="average" averages them
    (the usual choice for a final layer).
    """

    LEAKY_SLOPE = 0.2

    def __init__(self, c_in, c_out, heads, rng, merge="concat",
                 activation="relu", name="gat"):
        _check_activation(activation, name)
        self.c_in, self.c_out, self.heads = c_in, c_out, heads
        self.merge = merge
        self.activation = activation
        self.w = Parameter(glorot(rng, (c_in, heads * c_out)), name=f"{name}.w")
        self.a_self = Parameter(glorot(rng, (heads, c_out)), name=f"{name}.a_self")
        self.a_nbr = Parameter(glorot(rng, (heads, c_out)), name=f"{name}.a_nbr")
        self.params = [self.w, self.a_self, self.a_nbr]

    def __call__(self, x, g, rows=None):
        """The layer's output at every node, or at `rows` only when given."""
        xp = ad.reshape(ad.matmul(x, self.w), (g.n, self.heads, self.c_out))
        out = ad.gat_aggregate(xp, self.a_self, self.a_nbr, g.derived(GatEdgeIndex, rows),
                               self.LEAKY_SLOPE)       # (len(dst), H, c_out)
        if self.merge == "concat":
            merged = ad.reshape(out, (out.shape[0], self.heads * self.c_out))
        else:
            merged = ad.mean_(out, axis=1)
        return ad.relu(merged) if self.activation == "relu" else merged

    def attention_weights(self, x, g):
        """Per-head dense attention matrices (no grad), for export/tests."""
        ei = g.derived(GatEdgeIndex)
        xp = (x.data @ self.w.data).reshape(g.n, self.heads, self.c_out)
        alpha = ad.gat_attention(xp, self.a_self.data, self.a_nbr.data, ei,
                                 self.LEAKY_SLOPE)[0]
        mats = []
        for alpha_h in alpha:
            mat = np.zeros((g.n, g.n))
            mat[ei.dst[ei.edge_dst], ei.src] = alpha_h
            mats.append(mat)
        return mats


class SageLayer:
    """out = act(W [x || S x]): GraphSage with the gcn aggregator, S the
    symmetric-normalized adjacency incl. self loops."""

    def __init__(self, c_in, c_out, rng, activation="relu", name="sage"):
        _check_activation(activation, name)
        self.activation = activation
        self.w = Parameter(glorot(rng, (2 * c_in, c_out)), name=f"{name}.w")
        self.params = [self.w]

    def __call__(self, x, g, rows=None):
        """The layer's output at every node, or at `rows` only when given;
        [x || S x] of g's standardized features is read from g's
        FirstLayerInputs."""
        inputs = g.derived(FirstLayerInputs)
        if inputs.holds(x):
            both = inputs.with_aggregate(g, rows)
        else:
            agg = ad.propagate(gr.sym_propagation(g, rows), x)
            both = ad.concat([x if rows is None else ad.take_rows(x, rows), agg], axis=1)
        return ad.matmul(both, self.w, relu=self.activation == "relu")


class Dense:
    """act(x W + b), act "relu" or "identity", as one matmul node."""

    def __init__(self, c_in, c_out, rng, activation="identity", name="dense"):
        _check_activation(activation, name)
        self.w = Parameter(glorot(rng, (c_in, c_out)), name=f"{name}.w")
        self.b = Parameter(np.zeros(c_out), name=f"{name}.b")
        self.activation = activation
        self.params = [self.w, self.b]

    def __call__(self, x):
        return ad.matmul(x, self.w, self.b, self.activation == "relu")


class Conv1dLayer:
    """relu(conv1d(x, kernel) + bias), max-pooled over windows of
    `pool` steps when pool > 1, as one conv1d node."""

    def __init__(self, k, c_in, c_out, rng, pool=1, name="conv"):
        self.kernel = Parameter(glorot(rng, (k, c_in, c_out)), name=f"{name}.kernel")
        self.bias = Parameter(np.zeros(c_out), name=f"{name}.bias")
        self.pool = pool
        self.params = [self.kernel, self.bias]

    def __call__(self, x):
        return ad.conv1d(x, self.kernel, bias=self.bias, relu=True, pool=self.pool)


# ---------------------------------------------------------------------------
# assembled node-level models

class GcnModel:
    """GC layer, three 1d-conv layers over the GC output, two dense layers."""

    def __init__(self, c_in, n_classes, spec):
        rng = np.random.default_rng(spec.seed)
        w = spec.widths
        gc_width = w.get("gc", 64)
        conv_w = w.get("conv", (16, 32, 32))
        hidden = w.get("hidden", 64)
        self.gc = GcnLayer(c_in, gc_width, rng, name="gc")
        self.convs = []
        prev = 1
        for i, cw in enumerate(conv_w):
            self.convs.append(Conv1dLayer(3, prev, cw, rng, name=f"conv{i}"))
            prev = cw
        length = gc_width - 2 * len(conv_w)
        if length < 1:
            raise ValueError(f"gc width {gc_width} too small for {len(conv_w)} convs")
        self.fc1 = Dense(length * prev, hidden, rng, activation="relu", name="fc1")
        self.fc2 = Dense(hidden, n_classes, rng, name="fc2")
        self.params = (self.gc.params + [p for c in self.convs for p in c.params]
                       + self.fc1.params + self.fc2.params)

    def forward(self, x, g, rows=None):
        rows = _check_rows(rows, g.n)
        z = self.gc(x, g, rows=rows)                    # (N or len(rows), gc_width)
        h = ad.reshape(z, (z.shape[0], z.shape[1], 1))  # treat width as a sequence
        for conv in self.convs:
            h = conv(h)
        h = ad.reshape(h, (h.shape[0], h.shape[1] * h.shape[2]))
        return self.fc2(self.fc1(h))


class GatModel:
    """Two multi-head attention layers: concat merge then average merge."""

    def __init__(self, c_in, n_classes, spec):
        rng = np.random.default_rng(spec.seed)
        per_head = spec.widths.get("per_head", 8)
        self.layer1 = GatLayer(c_in, per_head, spec.heads, rng,
                               merge="concat", activation="relu", name="gat1")
        self.layer2 = GatLayer(spec.heads * per_head, n_classes, spec.heads, rng,
                               merge="average", activation="identity", name="gat2")
        self.params = self.layer1.params + self.layer2.params

    def forward(self, x, g, rows=None):
        rows = _check_rows(rows, g.n)
        return self.layer2(self.layer1(x, g), g, rows)


class SageModel:
    """Two sample-and-aggregate layers with the gcn aggregator."""

    def __init__(self, c_in, n_classes, spec):
        rng = np.random.default_rng(spec.seed)
        hidden = spec.widths.get("hidden", 64)
        self.layer1 = SageLayer(c_in, hidden, rng, activation="relu", name="sage1")
        self.layer2 = SageLayer(hidden, n_classes, rng, activation="identity", name="sage2")
        self.params = self.layer1.params + self.layer2.params

    def forward(self, x, g, rows=None):
        rows = _check_rows(rows, g.n)
        return self.layer2(self.layer1(x, g), g, rows)


class GaeModel:
    """GCN encoder + inner-product decoder: A_hat = sigmoid(Z Z^T).

    Training and refinement score `encode`'s Z in row blocks, never forming
    Z Z^T; `forward`, the dense A_hat, is a reference for small graphs.
    """

    def __init__(self, c_in, spec):
        rng = np.random.default_rng(spec.seed)
        hidden = spec.widths.get("hidden", 32)
        latent = spec.widths.get("latent", 16)
        self.enc1 = GcnLayer(c_in, hidden, rng, activation="relu", name="enc1")
        self.enc2 = GcnLayer(hidden, latent, rng, activation="identity", name="enc2")
        self.params = self.enc1.params + self.enc2.params

    def encode(self, x, g):
        """Embedding Z."""
        return self.enc2(self.enc1(x, g), g)

    def forward(self, x, g):
        z = self.encode(x, g)
        return ad.sigmoid(ad.matmul(z, ad.transpose(z, (1, 0))))


# ---------------------------------------------------------------------------
# graph-level model

class StgcnModel:
    """Temporal conv block, spatial graph conv over the sensor graph,
    second temporal block, then a dense classifier head.

    Input (B, T, C) with one sensor per graph node; temporal blocks run
    convolution - max pooling - convolution independently per sensor.
    Hidden states are sensor-major, (C*B, T, F), so the spatial block
    propagates over a contiguous (C, B*T*F) view.  The first conv's kernel
    is K1 and the other three's K2; each block's first conv max-pools over
    POOL steps.
    """

    K1, K2 = 5, 3
    POOL = 2

    def __init__(self, n_channels, n_classes, spec, sensor_graph):
        rng = np.random.default_rng(spec.seed)
        f1 = spec.widths.get("temporal1", 8)
        f2 = spec.widths.get("spatial", 8)
        self.n_channels = n_channels
        self.sensor_graph = sensor_graph
        self.s_norm = gr.sym_propagation(sensor_graph)
        self.t1a = Conv1dLayer(self.K1, 1, f1, rng, pool=self.POOL, name="t1a")
        self.t1b = Conv1dLayer(self.K2, f1, f1, rng, name="t1b")
        self.theta = Parameter(glorot(rng, (f1, f2)), name="spatial.theta")
        self.t2a = Conv1dLayer(self.K2, f2, f2, rng, pool=self.POOL, name="t2a")
        self.t2b = Conv1dLayer(self.K2, f2, f2, rng, name="t2b")
        self.head = Dense(n_channels * f2, n_classes, rng, name="head")
        self.params = (self.t1a.params + self.t1b.params + [self.theta]
                       + self.t2a.params + self.t2b.params + self.head.params)

    def _length_after(self, t):
        t = t - self.K1 + 1          # t1a
        t //= self.POOL              # pool 1
        t = t - self.K2 + 1          # t1b
        t = t - self.K2 + 1          # t2a
        t //= self.POOL              # pool 2
        t = t - self.K2 + 1          # t2b
        return t

    def min_length(self):
        t = self.K1
        while self._length_after(t) < 1:
            t += 1
        return t

    def forward(self, batch):
        x = batch if isinstance(batch, Tensor) else Tensor(batch)
        if x.ndim != 3 or x.shape[2] != self.n_channels:
            raise ad.ShapeError(
                f"expected (B, T, {self.n_channels}), got {x.shape}")
        b, t, c = x.shape
        if t < self.min_length():
            raise ad.ShapeError(
                f"signal length {t} below the receptive field; need T >= {self.min_length()}")
        # temporal block 1, per sensor
        h = ad.reshape(ad.transpose(x, (2, 0, 1)), (c * b, t, 1))
        h = self.t1b(self.t1a(h))                       # (C*B, T1, F1)
        # spatial block: mix sensors through the normalized sensor adjacency
        h = ad.reshape(ad.propagate(self.s_norm, ad.reshape(h, (c, -1))), h.shape)
        h = ad.matmul(h, self.theta, relu=True)         # (C*B, T1, F2)
        # temporal block 2, per sensor
        h = self.t2b(self.t2a(h))
        h = ad.mean_(h, axis=1)                         # (C*B, F2)
        f2 = h.shape[1]
        h = ad.reshape(ad.transpose(ad.reshape(h, (c, b, f2)), (1, 0, 2)), (b, c * f2))
        return self.head(h)


# ---------------------------------------------------------------------------
# baselines

class MlpModel:
    """Two hidden layers on flat (B, d) samples."""

    def __init__(self, c_in, n_classes, spec):
        rng = np.random.default_rng(spec.seed)
        h1 = spec.widths.get("hidden1", 64)
        h2 = spec.widths.get("hidden2", 32)
        self.fc1 = Dense(c_in, h1, rng, activation="relu", name="fc1")
        self.fc2 = Dense(h1, h2, rng, activation="relu", name="fc2")
        self.fc3 = Dense(h2, n_classes, rng, name="fc3")
        self.params = self.fc1.params + self.fc2.params + self.fc3.params

    def forward(self, x):
        x = x if isinstance(x, Tensor) else Tensor(x)
        return self.fc3(self.fc2(self.fc1(x)))


class Cnn1dModel:
    """conv - pool - conv - dense over the time axis of (B, T, C) series,
    channels as features."""

    def __init__(self, n_channels, n_classes, spec):
        rng = np.random.default_rng(spec.seed)
        f1 = spec.widths.get("conv1", 16)
        f2 = spec.widths.get("conv2", 16)
        self.conv1 = Conv1dLayer(5, n_channels, f1, rng, pool=2, name="conv1")
        self.conv2 = Conv1dLayer(3, f1, f2, rng, name="conv2")
        self.head = Dense(f2, n_classes, rng, name="head")
        self.params = self.conv1.params + self.conv2.params + self.head.params

    def forward(self, x):
        x = x if isinstance(x, Tensor) else Tensor(x)
        h = self.conv2(self.conv1(x))
        h = ad.mean_(h, axis=1)
        return self.head(h)


class KnnClassifier:
    """Majority vote over the K nearest labeled samples (Euclidean)."""

    def __init__(self, k=5):
        self.k = k
        self.x = None
        self.y = None

    def fit(self, x, y):
        self.x = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
        self.y = np.asarray(y, dtype=np.intp)
        return self

    def forward(self, x):
        """Each row's votes for classes 0 to the top training label among its K nearest."""
        # graphbuild imports this module, so its kernel is imported at call time
        from .graphbuild import nearest_indices

        x = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
        votes = self.y[nearest_indices(x, self.x, min(self.k, len(self.y)))]
        n = int(self.y.max()) + 1
        flat = (np.arange(len(x))[:, None] * n + votes).ravel()
        return Tensor(np.bincount(flat, minlength=len(x) * n).reshape(len(x), n))


# What a method trains on; the kind picks its trainer in diagnose
GRAPH = "graph"                 # node features over the association graph
SENSOR_GRAPH = "sensor graph"   # standardized (B, T, C) series over a channel graph
SERIES = "series"               # the baselines' standardized samples, shaped (B, T, C)
SAMPLES = "samples"             # the baselines' standardized samples, one row each
BUILDER = "builder"             # builds association graphs and classifies nothing

Method = namedtuple("Method", "defaults trains_on model")

METHODS = {
    # (epochs, lr, optimizer) from the reference protocol's hyperparameter table
    "gcn": Method((300, 0.00018, "rmsprop"), GRAPH, GcnModel),
    "gat": Method((200, 0.00005, "adam"), GRAPH, GatModel),
    "graphsage": Method((300, 0.005, "rmsprop"), GRAPH, SageModel),
    "stgcn": Method((200, 0.001, "adam"), SENSOR_GRAPH, StgcnModel),
    # below are not specified by the reference protocol; chosen here
    "gae": Method((200, 0.01, "adam"), BUILDER, GaeModel),
    "mlp": Method((200, 0.001, "adam"), SAMPLES, MlpModel),
    "cnn1d": Method((200, 0.001, "adam"), SERIES, Cnn1dModel),
    "knn-classifier": Method((0, 0.0, "adam"), SAMPLES, KnnClassifier),
}

# criterion 5's consistency check reads the defaults by name
TABLE_DEFAULTS = {name: method.defaults for name, method in METHODS.items()}


def build_node_model(architecture, c_in, n_classes, spec):
    method = METHODS.get(architecture.lower())
    if method is None or method.trains_on != GRAPH:
        raise ValueError(f"not a node-level architecture: {architecture!r}")
    return method.model(c_in, n_classes, spec)
