"""Suites that run in a subprocess in tier-1, with the BLAS pools pinned.

The default collection skips bench_layers.py, which calls
conjugate_generators, select_ansatz, generate_hwe_ansatz and private dense
helpers, so an API change could break it unnoticed. It runs here once, with
the clock off, as its docstring says to.

The traced benchmark pass replays every command of the README flow
(select-ansatz, expand, verify and optimize) stage by stage and compares
each replayed document with the command's bit for bit, so it runs here
once too, on the smallest pipeline.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return proc.stdout


def test_layer_suite_passes():
    _run(["-m", "pytest", "-q", "tests/bench_layers.py", "--benchmark-disable",
          "-p", "no:cacheprovider"])


def test_traced_pipeline_replays_every_command():
    out = _run(["benchmark/run.py", "--workload", "pipeline-chain8", "--seed", "1",
                "--seconds", "1", "--trace", "1"])
    summary = json.loads(out.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, out[-4000:]
