"""GNN layers, assembled diagnosis models, and the non-graph baselines.

Layers operate on the autodiff Tensor type and keep their Parameters in a
`params` list so the optimizers and checkpoints can reach them.  Graph layers
take `(x, g)` and read their operators from the per-Graph cache: GCN, the
GraphSage mean and gcn aggregators, the GAE encoder and the STGCN sensor
mixing propagate through a sparse normalized adjacency; GAT attention is one
fused op, `ad.gat_aggregate`, over the cached A + I CSR pattern; the
GraphSage pool aggregator runs on edge lists.  No layer forms a dense N x N
matrix; only the GAE decoder's reconstruction `forward` is dense, and GAE
training takes its loss from Z without it.  A 1-d conv layer (GCN's conv
head, STGCN's temporal blocks, the 1d-CNN) is one `ad.conv1d` call that adds
its bias, applies its ReLU and, in STGCN's and the 1d-CNN's pooled layers,
max-pools inside the op, so it keeps one output array (and a uint8 argmax
offset when it pools).  Dense, GCN and GraphSage layers are likewise one
`ad.matmul` call with the bias and ReLU inside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, Parameter
from . import graph as gr

# Defaults from the hyperparameter table: (epochs, lr, optimizer)
TABLE_DEFAULTS = {
    "gcn": (300, 0.00018, "rmsprop"),
    "gat": (200, 0.00005, "adam"),
    "graphsage": (300, 0.005, "rmsprop"),
    "stgcn": (200, 0.001, "adam"),
    # below are not specified by the reference protocol; chosen here
    "gae": (200, 0.01, "adam"),
    "mlp": (200, 0.001, "adam"),
    "cnn1d": (200, 0.001, "adam"),
    "knn-classifier": (0, 0.0, "adam"),
}

ARCHITECTURES = tuple(TABLE_DEFAULTS)


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

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls(**json.loads(text))


def default_spec(architecture, seed=0, **overrides):
    architecture = architecture.lower()
    if architecture not in TABLE_DEFAULTS:
        raise ValueError(f"unknown architecture {architecture!r}; known: {ARCHITECTURES}")
    epochs, lr, opt = TABLE_DEFAULTS[architecture]
    spec = ModelSpec(architecture=architecture, epochs=epochs, lr=lr,
                     optimizer=opt, seed=seed)
    for k, v in overrides.items():
        setattr(spec, k, v)
    return spec


def _check_activation(activation, name):
    if activation not in ("relu", "identity"):
        raise ValueError(f"{name}: activation must be 'relu' or 'identity', got {activation!r}")


def glorot(rng, shape):
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# ---------------------------------------------------------------------------
# layers

class GcnLayer:
    """Z = act(S X Theta) with S the symmetric-normalized adjacency."""

    def __init__(self, c_in, c_out, rng, activation="relu", name="gcn"):
        _check_activation(activation, name)
        self.theta = Parameter(glorot(rng, (c_in, c_out)), name=f"{name}.theta")
        self.activation = activation
        self.params = [self.theta]

    def __call__(self, x, g, sx=None):
        """act(S x Theta); a caller whose x never changes passes sx = S x once computed."""
        if sx is None:
            sx = ad.propagate(gr.sym_propagation(g), x)
        return ad.matmul(sx, self.theta, relu=self.activation == "relu")


class GatEdgeIndex:
    """Directed edges of A + I as CSR rows: one segment per destination node.

    `seg` holds each node's run of edges and `src` their sources, sorted, as
    in the cached A + I pattern; every node has its self loop, so no segment
    is empty.  Built once per graph through `g.derived(GatEdgeIndex)`.
    """

    def __init__(self, g):
        pattern = gr.sym_propagation(g)
        self.src = pattern.indices
        self.seg = ad.SegmentIndex(pattern.indptr[:-1], pattern.nnz)
        self.src_plan = ad.GatherPlan(self.src, g.n)


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

    def __call__(self, x, g):
        n = g.n
        xp = ad.reshape(ad.matmul(x, self.w), (n, self.heads, self.c_out))
        out = ad.gat_aggregate(xp, self.a_self, self.a_nbr, g.derived(GatEdgeIndex),
                               self.LEAKY_SLOPE)       # (N, H, c_out)
        if self.merge == "concat":
            merged = ad.reshape(out, (n, self.heads * self.c_out))
        else:
            merged = ad.mean_(out, axis=1)
        return ad.relu(merged) if self.activation == "relu" else merged

    def attention_weights(self, x, g):
        """Per-head dense attention matrices (no grad), for export/tests."""
        ei = g.derived(GatEdgeIndex)
        xp = (x.data @ self.w.data).reshape(g.n, self.heads, self.c_out)
        alpha = ad.gat_attention(xp, self.a_self.data, self.a_nbr.data, ei,
                                 self.LEAKY_SLOPE)[0]
        dst = np.repeat(np.arange(g.n), ei.seg.lengths)
        mats = []
        for h in range(self.heads):
            mat = np.zeros((g.n, g.n))
            mat[dst, ei.src] = alpha[:, h]
            mats.append(mat)
        return mats


class SageLayer:
    """out = act(W [self || aggregate(neighbors)]) with mean/gcn/pool aggregators.

    The mean aggregator averages neighbor rows (zero vector when there are
    none); gcn applies the symmetric-normalized mean incl. self; pool takes
    an elementwise max over linearly transformed, ReLU'd neighbor rows.
    """

    def __init__(self, c_in, c_out, rng, aggregator="gcn", activation="relu",
                 name="sage"):
        if aggregator not in ("mean", "gcn", "pool"):
            raise ValueError(f"unknown aggregator {aggregator!r}")
        _check_activation(activation, name)
        self.aggregator = aggregator
        self.activation = activation
        self.w = Parameter(glorot(rng, (2 * c_in, c_out)), name=f"{name}.w")
        self.params = [self.w]
        if aggregator == "pool":
            self.w_pool = Parameter(glorot(rng, (c_in, c_in)), name=f"{name}.w_pool")
            self.b_pool = Parameter(np.zeros(c_in), name=f"{name}.b_pool")
            self.params += [self.w_pool, self.b_pool]

    def __call__(self, x, g):
        if self.aggregator == "mean":
            agg = ad.propagate(gr.mean_propagation(g), x)
        elif self.aggregator == "gcn":
            agg = ad.propagate(gr.sym_propagation(g), x)
        else:
            agg = self._pool_aggregate(x, g)
        return ad.matmul(ad.concat([x, agg], axis=1), self.w,
                         relu=self.activation == "relu")

    def _pool_aggregate(self, x, g):
        # neighbor lists are the rows of the D^-1 A pattern; isolated rows are empty
        pattern = gr.mean_propagation(g)
        if not pattern.nnz:
            return Tensor(np.zeros_like(x.data))
        present = np.flatnonzero(np.diff(pattern.indptr))
        seg = ad.SegmentIndex(pattern.indptr[present], pattern.nnz)
        src = pattern.indices.astype(np.intp)
        transformed = ad.matmul(x, self.w_pool, self.b_pool, relu=True)
        gathered = ad.take_rows(transformed, src, ad.GatherPlan(src, g.n))
        pooled = ad.segment_max(gathered, seg)
        return ad.put_rows(pooled, present, g.n)


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
    """act(conv1d(x, kernel) + bias), act "relu" or "identity", max-pooled over
    windows of `pool` steps when pool > 1, as one conv1d node."""

    def __init__(self, k, c_in, c_out, rng, stride=1, activation="relu", pool=1, name="conv"):
        _check_activation(activation, name)
        self.kernel = Parameter(glorot(rng, (k, c_in, c_out)), name=f"{name}.kernel")
        self.bias = Parameter(np.zeros(c_out), name=f"{name}.bias")
        self.stride, self.pool = stride, pool
        self.activation = activation
        self.params = [self.kernel, self.bias]

    def __call__(self, x):
        return ad.conv1d(x, self.kernel, self.stride, self.bias, self.activation == "relu",
                         self.pool)


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

    def forward(self, x, g):
        z = self.gc(x, g)                               # (N, gc_width)
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

    def forward(self, x, g):
        return self.layer2(self.layer1(x, g), g)


class SageModel:
    """Two sample-and-aggregate layers (gcn aggregator by default)."""

    def __init__(self, c_in, n_classes, spec):
        rng = np.random.default_rng(spec.seed)
        hidden = spec.widths.get("hidden", 64)
        aggregator = spec.widths.get("aggregator", "gcn")
        self.layer1 = SageLayer(c_in, hidden, rng, aggregator=aggregator,
                                activation="relu", name="sage1")
        self.layer2 = SageLayer(hidden, n_classes, rng, aggregator=aggregator,
                                activation="identity", name="sage2")
        self.params = self.layer1.params + self.layer2.params

    def forward(self, x, g):
        return self.layer2(self.layer1(x, g), g)


class GaeModel:
    """GCN encoder + inner-product decoder: A_hat = sigmoid(Z Z^T).

    Training feeds the embedding Z from `encode` to `ad.inner_product_bce`,
    which never forms Z Z^T; `logits` returns the dense pre-sigmoid scores
    Z Z^T and `forward` the probabilities A_hat.
    """

    def __init__(self, c_in, spec):
        rng = np.random.default_rng(spec.seed)
        hidden = spec.widths.get("hidden", 32)
        latent = spec.widths.get("latent", 16)
        self.enc1 = GcnLayer(c_in, hidden, rng, activation="relu", name="enc1")
        self.enc2 = GcnLayer(hidden, latent, rng, activation="identity", name="enc2")
        self.params = self.enc1.params + self.enc2.params

    def encode(self, x, g, sx=None):
        """Embedding Z; sx = S x is the first layer's propagated input, if known."""
        return self.enc2(self.enc1(x, g, sx=sx), g)

    def logits(self, x, g):
        z = self.encode(x, g)
        return ad.matmul(z, ad.transpose(z, (1, 0)))

    def forward(self, x, g):
        return ad.sigmoid(self.logits(x, g))


# ---------------------------------------------------------------------------
# graph-level model

class StgcnModel:
    """Temporal conv block, spatial graph conv over the sensor graph,
    second temporal block, then a dense classifier head.

    Input (B, T, C) with one sensor per graph node; temporal blocks run
    convolution - max pooling - convolution independently per sensor.
    Hidden states are sensor-major, (C*B, T, F), so the spatial block
    propagates over a contiguous (C, B*T*F) view.
    """

    def __init__(self, n_channels, n_classes, spec, sensor_graph):
        rng = np.random.default_rng(spec.seed)
        w = spec.widths
        f1 = w.get("temporal1", 8)
        f2 = w.get("spatial", 8)
        k1, k2 = w.get("kernels", (5, 3))
        self.pool = w.get("pool", 2)
        self.k1, self.k2 = k1, k2
        self.n_channels = n_channels
        self.sensor_graph = sensor_graph
        self.s_norm = gr.sym_propagation(sensor_graph)
        self.t1a = Conv1dLayer(k1, 1, f1, rng, pool=self.pool, name="t1a")
        self.t1b = Conv1dLayer(k2, f1, f1, rng, name="t1b")
        self.theta = Parameter(glorot(rng, (f1, f2)), name="spatial.theta")
        self.t2a = Conv1dLayer(k2, f2, f2, rng, pool=self.pool, name="t2a")
        self.t2b = Conv1dLayer(k2, f2, f2, rng, name="t2b")
        self.head = Dense(n_channels * f2, n_classes, rng, name="head")
        self.params = (self.t1a.params + self.t1b.params + [self.theta]
                       + self.t2a.params + self.t2b.params + self.head.params)

    def _length_after(self, t):
        t = t - self.k1 + 1          # t1a
        t //= self.pool              # pool 1
        t = t - self.k2 + 1          # t1b
        t = t - self.k2 + 1          # t2a
        t //= self.pool              # pool 2
        t = t - self.k2 + 1          # t2b
        return t

    def min_length(self):
        t = self.k1
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
    """Two hidden layers on flattened samples."""

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
        if x.ndim > 2:
            x = ad.reshape(x, (x.shape[0], int(np.prod(x.shape[1:]))))
        return self.fc3(self.fc2(self.fc1(x)))


class Cnn1dModel:
    """conv - pool - conv - dense over the time axis, channels as features."""

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
        if x.ndim == 2:                                 # static features: (B, d) -> (B, d, 1)
            x = ad.reshape(x, (x.shape[0], x.shape[1], 1))
            if self.conv1.kernel.shape[1] != 1:
                raise ad.ShapeError("model built for multichannel input, got static features")
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

    def predict(self, x):
        # graphbuild imports this module, so its kernel is imported at call time
        from .graphbuild import nearest_indices

        x = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
        votes = self.y[nearest_indices(x, self.x, min(self.k, len(self.y)))]
        out = np.empty(len(x), dtype=np.intp)
        for i, row in enumerate(votes):
            out[i] = np.bincount(row).argmax()
        return out


NODE_LEVEL = {"gcn": GcnModel, "gat": GatModel, "graphsage": SageModel}


def build_node_model(architecture, c_in, n_classes, spec):
    cls = NODE_LEVEL.get(architecture.lower())
    if cls is None:
        raise ValueError(f"not a node-level architecture: {architecture!r}")
    return cls(c_in, n_classes, spec)
