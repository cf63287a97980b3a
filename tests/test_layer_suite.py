"""The layer timings (bench_layers.py) run in tier-1, with the clock off.

The default collection skips bench_layers.py, which calls
conjugate_generators, select_ansatz, generate_hwe_ansatz and private dense
helpers, so an API change could break it unnoticed. This runs it once in a
subprocess, as its docstring says to, with the BLAS pools pinned.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layer_suite_passes():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    argv = [sys.executable, "-m", "pytest", "-q", "tests/bench_layers.py", "--benchmark-disable",
            "-p", "no:cacheprovider"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
