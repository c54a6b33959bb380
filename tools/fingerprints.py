"""Print a sha256 of the bytes each benchmark workload computes.

    python3 tools/fingerprints.py [--workload NAME]... [--seeds 5,17,29] [--rounds 2]

One line per set-up and per round: `<workload> seed=<N> setup <sha256>` over
the workload's `setup_fingerprint`, and `<workload> seed=<N> round=<R> <sha256>`
over `round()["fingerprint"]` (see bench/workloads.py).  Two checkouts
computed the same bytes when their outputs `diff` clean.  BLAS is pinned to
one thread before numpy loads, as in bench/run.py; the bench modules are only
imported, and the files a set-up writes go to a temporary directory.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def digest(parts):
    """sha256 of a list of byte strings, each prefixed by its length."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def main(argv=None):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                   help="workload to run, repeatable (default: all)")
    p.add_argument("--seeds", default="5,17,29", help="comma-separated seeds")
    p.add_argument("--rounds", type=int, default=2, help="rounds per seed")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload or list(WORKLOADS):
            workload = WORKLOADS[name]
            for seed in seeds:
                work_dir = Path(tmp) / f"{name}-{seed}"
                work_dir.mkdir()
                state = workload.setup(seed, work_dir)
                print(f"{name} seed={seed} setup {digest(workload.setup_fingerprint(state))}",
                      flush=True)
                for index in range(args.rounds):
                    parts = workload.round(state, index)["fingerprint"]
                    print(f"{name} seed={seed} round={index} {digest(parts)}", flush=True)
                del state
    return 0


if __name__ == "__main__":
    sys.exit(main())
