"""The benchmark's per-layer metric names resolve against the current program.

bench/tracing.py times every function in `graphdiag.autodiff.__all__` as an
op, and `Tracer.metric` raises KeyError for an `autodiff.<op>.*` metric whose
op has left `__all__`; so do the layer and model names.  Such a KeyError
fails every traced benchmark run.  The benchmark's modules are imported
read-only.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from graphdiag import autodiff as ad
from graphdiag import diagnose as dg
from graphdiag import faultgen as fg
from graphdiag import graphbuild as gb
from graphdiag import models as md

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return tracing, workloads


def test_every_per_layer_metric_resolves(bench):
    tracing, workloads = bench
    original = ad.gat_aggregate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ad.gat_aggregate is not original       # the fused op is timed
    finally:
        tracer.uninstall()
    assert ad.gat_aggregate is original
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    unresolved = []
    for name in names:
        # run.py fills the rates and the trace.* metrics itself
        if name in workloads.RATE_NAMES or name.startswith("trace."):
            continue
        try:
            tracer.metric(name)
        except KeyError:
            unresolved.append(name)
    assert not unresolved


def test_traced_learning_curve_times_every_cell(bench):
    """The tracer patches diagnose's trainers and cells as module attributes;
    a dispatch that held them from import time would leave these at 0."""
    tracing, _ = bench
    rng = np.random.default_rng(12)
    y = np.repeat(np.arange(2), 20)
    x = rng.normal(size=(40, 4)) + 5.0 * y[:, None]
    ds = fg.Dataset(samples=x, labels=y, class_names=["a", "b"])
    specs = {"graphsage": md.default_spec("graphsage", epochs=2, widths={"hidden": 4}),
             "mlp": md.default_spec("mlp", epochs=2)}
    sizes, seeds = [6, 12], [0, 1]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        dg.learning_curve(lambda: gb.knn_graph(x, 3, labels=y), ds, specs, sizes, seeds,
                          n_val=6)
    finally:
        tracer.uninstall()
    assert tracer.metric("diagnose.cells") == len(specs) * len(sizes) * len(seeds)
    assert tracer.metric("diagnose.train_s") > 0


def test_traced_refinement_times_one_training_and_one_refinement(bench):
    """The decoder's block walk is a generator, not an op: in ad.__all__ the
    tracer would wrap it as one and fail on reading its output's data."""
    tracing, _ = bench
    rng = np.random.default_rng(13)
    f = rng.normal(size=(40, 4))
    base = gb.knn_graph(f, 3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        gb.gae_refine_graph(f, base, spec=md.default_spec("gae", epochs=2))
    finally:
        tracer.uninstall()
    assert tracer.calls["graphbuild.refine"] == 1
    assert tracer.calls["graphbuild.gae_train"] == 1
