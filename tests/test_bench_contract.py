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

import pytest

from graphdiag import autodiff as ad

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
