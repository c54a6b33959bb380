"""Span tracer installed around graphdiag's public functions from outside the package.

`Tracer.install()` replaces module attributes and class methods with timing
wrappers and `uninstall()` puts the originals back.  Every wrapper records a
span (key, scope, start, end, parent).  Spans stay in memory; `metric()`
aggregates them by the naming rules in README.md and `write_spans()` dumps
them at the end of a run.

Self time is a span's duration minus the duration of its child spans.  The
wrappers change no argument or result, so a traced run computes the same
bytes as an untraced one; the benchmark checks this.
"""

from __future__ import annotations

import inspect
import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

from graphdiag import autodiff as ad
from graphdiag import cli, optim
from graphdiag import diagnose as dg
from graphdiag import faultgen as fg
from graphdiag import graph as gr
from graphdiag import graphbuild as gb
from graphdiag import models as md

# layer names used by more than one model get the model as a prefix
SHARED_LAYER_NAMES = ("fc1", "fc2")

MODEL_NAMES = {
    "GcnModel": "gcn", "GatModel": "gat", "SageModel": "graphsage",
    "GaeModel": "gae", "StgcnModel": "stgcn", "MlpModel": "mlp",
}
LAYER_CLASSES = ("GcnLayer", "GatLayer", "SageLayer", "Dense", "Conv1dLayer")
# the layer name= scopes that the workloads' models create, and the models
# themselves for ops they call outside any layer
KNOWN_SCOPES = tuple(MODEL_NAMES.values()) + (
    "gc", "conv0", "conv1", "conv2", "gcn.fc1", "gcn.fc2", "gat1", "gat2",
    "sage1", "sage2", "t1a", "t1b", "t2a", "t2b", "head", "enc1", "enc2",
    "mlp.fc1", "mlp.fc2", "fc3",
)


class _TracedBackward:
    """Backward closure of one op output, timed under the forward-time scope."""

    __slots__ = ("tracer", "key", "scope", "fn")

    def __init__(self, tracer, key, scope, fn):
        self.tracer, self.key, self.scope, self.fn = tracer, key, scope, fn

    def __call__(self, g):
        self.tracer._enter(self.key, self.scope)
        try:
            return self.fn(g)
        finally:
            self.tracer._exit("bwd")


class Tracer:
    def __init__(self):
        self.spans = []                 # [key, scope, start, end, parent index]
        self._stack = []                # [span index, child seconds, child count]
        self._scopes = []               # innermost layer or model scope last
        self._models = []               # innermost model name last
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.scope_fwd = defaultdict(float)
        self.scope_bwd = defaultdict(float)
        self.counters = defaultdict(float)
        self.keys = set()
        self._undo = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, key, scope):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([key, scope, time.perf_counter(), 0.0, parent])
        self._stack.append([len(self.spans) - 1, 0.0, 0])

    def _exit(self, kind):
        """Close the innermost span; returns (span, child count)."""
        end = time.perf_counter()
        index, child_s, n_children = self._stack.pop()
        span = self.spans[index]
        span[3] = end
        duration = end - span[2]
        own = duration - child_s
        if self._stack:
            self._stack[-1][1] += duration
            self._stack[-1][2] += 1
        key, scope = span[0], span[1]
        self.self_s[key] += own
        self.calls[key] += 1
        if scope is not None:
            if kind == "fwd":
                self.scope_fwd[scope] += own
            elif kind == "bwd":
                self.scope_bwd[scope] += duration
        return span, n_children

    def _scope(self):
        return self._scopes[-1] if self._scopes else None

    # -- wrappers ---------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def _timed(self, key, on_exit=None):
        self.keys.add(key)

        def make(fn):
            def wrapper(*args, **kwargs):
                self._enter(key, None)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit("call")
                if on_exit is not None:
                    on_exit(args, result)
                return result
            return wrapper
        return make

    def _op(self, name):
        fwd_key, bwd_key = f"autodiff.{name}.fwd", f"autodiff.{name}.bwd"
        self.keys.update((fwd_key, bwd_key))

        def make(fn):
            def wrapper(*args, **kwargs):
                scope = self._scope()
                self._enter(fwd_key, scope)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    _, n_children = self._exit("fwd")
                # an op built from other ops returns their output, already counted
                if n_children == 0:
                    self.counters["autodiff.out_bytes"] += out.data.nbytes
                if out._backward is not None and not isinstance(out._backward, _TracedBackward):
                    out._backward = _TracedBackward(self, bwd_key, scope, out._backward)
                    self.counters["autodiff.nodes"] += 1
                return out
            return wrapper
        return make

    def _model(self, name):
        key = f"models.{name}.forward"

        def make(fn):
            def wrapper(model, *args, **kwargs):
                self._models.append(name)
                self._scopes.append(name)
                self._enter(key, name)
                try:
                    return fn(model, *args, **kwargs)
                finally:
                    self._exit("fwd")
                    self._scopes.pop()
                    self._models.pop()
            return wrapper
        return make

    def _layer(self):
        def make(fn):
            def wrapper(layer, *args, **kwargs):
                name = layer.params[0].name.split(".")[0]
                if name in SHARED_LAYER_NAMES and self._models:
                    name = f"{self._models[-1]}.{name}"
                self._scopes.append(name)
                self._enter(f"models.{name}.call", name)
                try:
                    return fn(layer, *args, **kwargs)
                finally:
                    self._exit("fwd")
                    self._scopes.pop()
            return wrapper
        return make

    def _knn_peak(self):
        """Wrap knn_graph so tracemalloc records the peak bytes it allocates."""
        def make(fn):
            def wrapper(*args, **kwargs):
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    if started:
                        tracemalloc.stop()
                    self.counters["graphbuild.knn_peak_mb"] = max(
                        self.counters["graphbuild.knn_peak_mb"], peak)
            return wrapper
        return make

    def _count_csv_bytes(self, args, _result):
        self.counters["faultgen.csv_bytes"] += sum(
            p.stat().st_size for p in Path(args[1]).glob("*.csv"))

    def install(self):
        for name in ad.__all__:
            fn = getattr(ad, name)
            if inspect.isfunction(fn) and name != "grad_check":
                self._patch(ad, name, self._op(name))
        self._patch(ad.Tensor, "backward", self._timed("autodiff.backward"))

        for cls_name, model in MODEL_NAMES.items():
            self._patch(getattr(md, cls_name), "forward", self._model(model))
        for cls_name in LAYER_CLASSES:
            self._patch(getattr(md, cls_name), "__call__", self._layer())
        self._patch(md.GatEdgeIndex, "__init__", self._timed("models.gat.edge_index"))

        self._patch(fg, "generate_preset", self._timed("faultgen.generate"))
        self._patch(fg, "save_dataset", self._timed("faultgen.save", self._count_csv_bytes))
        self._patch(fg, "load_dataset", self._timed("faultgen.load"))

        self._patch(gb, "extract_feature_matrix", self._timed("graphbuild.features"))
        self._patch(gb, "knn_graph", self._knn_peak())
        self._patch(gb, "knn_graph", self._timed("graphbuild.knn"))
        self._patch(gb, "train_gae_on_graph", self._timed("graphbuild.gae_train"))
        self._patch(gb, "gae_refine_graph", self._timed("graphbuild.refine"))
        self._patch(gb, "graph_quality", self._timed("graphbuild.quality"))

        self._patch(gr.Graph, "__init__", self._timed("graph.init"))
        self._patch(gr.Graph, "adjacency", self._timed("graph.adjacency"))
        self._patch(gr, "normalized_adjacency", self._timed("graph.normalized_adjacency"))
        self._patch(gr, "write_edge_list", self._timed("graph.edge_io"))
        self._patch(gr, "read_edge_list", self._timed("graph.edge_io"))

        self._patch(optim.Adam, "step", self._timed("optim.step"))
        self._patch(optim.RMSProp, "step", self._timed("optim.step"))

        self._patch(dg, "split", self._timed("diagnose.split"))
        for name in ("train_node_level", "train_graph_level", "train_baseline"):
            self._patch(dg, name, self._timed("diagnose.train"))
        self._patch(dg, "predict_node_level", self._timed("diagnose.predict"))
        self._patch(dg, "evaluate_predictions", self._timed("diagnose.evaluate"))
        self._patch(dg, "run_node_experiment", self._timed("diagnose.cell"))
        self._patch(dg, "run_baseline_experiment", self._timed("diagnose.cell"))
        self._patch(dg, "learning_curve", self._timed("diagnose.curve"))

        self._patch(cli, "main", self._timed("cli.self"))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def backward_balance(self):
        """(Tensor.backward total, op backward total + walk self time)."""
        total = sum(end - start for key, _, start, end, _ in self.spans
                    if key == "autodiff.backward")
        parts = self.self_s["autodiff.backward"] + sum(
            s for key, s in self.self_s.items() if key.endswith(".bwd"))
        return total, parts

    def metric(self, name):
        """Value of one per-layer metric; raises KeyError for an unknown name."""
        if name in ("autodiff.nodes", "autodiff.out_bytes", "faultgen.csv_bytes",
                    "graphbuild.knn_peak_mb"):
            return float(self.counters[name])
        if name == "autodiff.backward_walk_s":
            return self.self_s["autodiff.backward"]
        if name == "optim.steps":
            return float(self.calls["optim.step"])
        if name == "diagnose.cells":
            return float(self.calls["diagnose.cell"])
        if name.startswith("models.") and name.endswith((".fwd_s", ".bwd_s")):
            scope = name[len("models."):-len(".fwd_s")]
            if scope in KNOWN_SCOPES:
                return (self.scope_fwd if name.endswith(".fwd_s") else self.scope_bwd)[scope]
        if name.endswith("_calls") and name[:-len("_calls")] in self.keys:
            return float(self.calls[name[:-len("_calls")]])
        if name.endswith("_s") and name[:-len("_s")] in self.keys:
            return self.self_s[name[:-len("_s")]]
        raise KeyError(f"no per-layer metric named {name!r}")

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
