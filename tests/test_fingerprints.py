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
