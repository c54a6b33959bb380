"""tools/fingerprints.py prints the same digests on a rerun."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def fingerprints(*argv):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "fingerprints.py"), *argv],
                          capture_output=True, text=True, check=True, timeout=600).stdout


def test_rerun_prints_the_same_lines():
    argv = ("--workload", "node-train", "--seeds", "3", "--rounds", "1")
    first = fingerprints(*argv)
    lines = first.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == ["node-train seed=3 setup",
                                                          "node-train seed=3 round=0"]
    assert all(len(line.rsplit(" ", 1)[1]) == 64 for line in lines)
    assert fingerprints(*argv) == first


def test_cli_rerun_prints_the_same_lines():
    # each run works in a new temporary directory, so equal lines also show
    # that no output records the directory it was written in
    argv = ("--workload", "cli", "--seeds", "3")
    first = fingerprints(*argv)
    lines = [line.split(" ") for line in first.splitlines()]
    assert all(line[:2] == ["cli", "seed=3"] and len(line[3]) == 64 for line in lines)
    files = {line[2] for line in lines}
    assert {"train-rectifier/report_knn-classifier_seed3.json",
            "train-stgcn-test-graph/report_stgcn_seed3.json",
            "train-tep/report_cnn1d_seed3.json", "curve-motor/learning_curve.csv",
            "curve-rectifier/learning_curve.csv"} <= files
    assert fingerprints(*argv) == first
