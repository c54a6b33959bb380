"""Benchmark of the graphdiag diagnosis pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 the run measures the
end-to-end metrics with no tracing; with --trace 1 it runs set-up and body
traced, then again untraced, checks that both computed the same bytes, and
reports the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
only when every check passed.  See bench/README.md.
"""

import os
import sys
import time

STARTED = time.perf_counter()

# one BLAS thread, set before numpy loads: steadier on a shared host, never
# more than nproc, and the same summation order on every machine
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 2


class Checks:
    def __init__(self):
        self.results = []

    def add(self, name, ok, detail):
        self.results.append((name, bool(ok), detail))
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", file=sys.stderr)

    @property
    def failed(self):
        return sum(not ok for _, ok, _ in self.results)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def machine():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.26 prints its config instead
        blas = {}
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_rounds(workload, state, seconds=None, count=None):
    """Whole rounds until `seconds` have passed (at least one), or exactly `count`."""
    rounds, times = [], []
    started = time.perf_counter()
    while (len(rounds) < count if count is not None
           else not rounds or time.perf_counter() - started < seconds):
        t = time.perf_counter()
        rounds.append(workload.round(state, len(rounds)))
        times.append(time.perf_counter() - t)
        print(f"round {len(rounds)}: {times[-1]:.3f} s", file=sys.stderr)
    return rounds, times


def check_rounds(workload, rounds, checks):
    if workload.identical_rounds and len(rounds) > 1:
        checks.add("identical rounds compute identical bytes",
                   all(r["fingerprint"] == rounds[0]["fingerprint"] for r in rounds),
                   f"{len(rounds)} rounds")


def rate(rounds, name):
    return statistics.median(r["rates"].get(name, 0.0) for r in rounds)


def run_untraced(workload, args, work_dir, imported_at, checks):
    """End-to-end metrics: set-up repeated SETUP_REPS times, then timed rounds."""
    rep_s, state = [], None
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        fresh = workload.setup(args.seed, work_dir)
        rep_s.append(time.perf_counter() - t)
        if state is None:
            state = fresh
        del fresh
    setup_s = (imported_at - STARTED) + statistics.median(rep_s)
    rounds, times = run_rounds(workload, state, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_rounds(workload, rounds, checks)
    workload.check(state, rounds, checks)
    ops = sum(r["ops"] for r in rounds) + SETUP_REPS * getattr(workload, "setup_ops", 0)
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
               "round_s": statistics.median(times)}
    return ops, metrics


def run_traced(workload, args, work_dir, per_layer, checks):
    """Per-layer metrics: traced set-up and rounds, then the same untraced."""
    from tracing import Tracer
    from workloads import RATE_NAMES

    tracer = Tracer()
    tracer.install()
    try:
        state = workload.setup(args.seed, work_dir / "traced")
        traced_setup = workload.setup_fingerprint(state)
        traced, traced_times = run_rounds(workload, state, seconds=args.seconds)
    finally:
        tracer.uninstall()
    traced_prints = [r["fingerprint"] for r in traced]
    del state, traced

    state = workload.setup(args.seed, work_dir / "untraced")
    rounds, times = run_rounds(workload, state, count=len(traced_prints))
    check_rounds(workload, rounds, checks)
    workload.check(state, rounds, checks)
    checks.add("traced run computes the untraced bytes",
               traced_setup == workload.setup_fingerprint(state)
               and traced_prints == [r["fingerprint"] for r in rounds],
               f"set-up and {len(rounds)} rounds")
    total, parts = tracer.backward_balance()
    checks.add("op backward times plus walk add up to Tensor.backward",
               abs(total - parts) <= 1e-9 * max(total, 1.0),
               f"{total:.6f} s vs {parts:.6f} s")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl")

    extra = {"trace.overhead_s": sum(traced_times) - sum(times),
             "trace.spans": float(len(tracer.spans))}
    metrics = {}
    for name in per_layer:
        if name in RATE_NAMES:
            metrics[name] = rate(rounds, name)
        elif name in extra:
            metrics[name] = extra[name]
        else:
            metrics[name] = tracer.metric(name)
    ops = 2 * sum(r["ops"] for r in rounds) + 2 * getattr(workload, "setup_ops", 0)
    return ops, metrics


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "graphdiag" / "__init__.py").is_file():
        print(f"error: no graphdiag sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}

    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (import time counts toward set-up)
    from workloads import WORKLOADS
    imported_at = time.perf_counter()

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_dir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    checks = Checks()
    try:
        if args.trace:
            names = [m["name"] for m in config["per_layer"]]
            ops, values = run_traced(workload, args, work_dir, names, checks)
        else:
            names = [m["name"] for m in config["end_to_end"]]
            ops, values = run_untraced(workload, args, work_dir, imported_at, checks)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({"machine": machine(), "workload": workload.name, "seed": args.seed,
                      "checks": len(checks.results)}, sort_keys=True))
    result = {
        "correct": checks.failed == 0,
        "attempted": ops + len(checks.results),
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
