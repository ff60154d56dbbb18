"""The benchmark harness's own tests, run as ``python -m pytest flipbench``.

They pin what the harness reads of the package (its spans, its per-layer
metrics, the inputs its workloads check), so a change to the package that
breaks the benchmark fails here too.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_harness_tests_pass():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "flipbench"], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
