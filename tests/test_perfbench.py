"""The benchmark's self-test still runs against the package sources.

perfbench/spans.py reads basis attributes (exact, cells, pivot_cells,
kind, r) at run time, so a change under src/ can break the benchmark
without breaking any other test.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--selftest"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("selftest ok")
