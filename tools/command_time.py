"""Wall time, peak RSS and scipy use of each README-flow command, as JSON.

    python3 tools/command_time.py [--runs 7]

Runs the README flow on data/chain8.txt, each command in its own fresh
interpreter as a user runs it: select-ansatz (real, depth 2, 32
candidates, seed 5, reference 01010101), expand of the winner, verify
--exact-ground, optimize --init zero and optimize --init pert-hessian. The
children get PYTHONPATH=src and the BLAS thread pools pinned to one
thread. A first, untimed round writes the files the later commands read
into a temporary directory, with PYTHONDONTWRITEBYTECODE dropped from the
children's environment so that it also writes the package's bytecode
caches: every timed run then reads them, whatever that variable says and
whether or not the checkout held caches before, so two checkouts time the
same imports. Then --runs rounds run the five commands in order. Per
command it prints the min and median wall time of the whole process
(interpreter start-up and imports included), the min and median of the
child's own peak RSS (ru_maxrss from wait4), whether any run loaded a
scipy module, and whether every run found an up-to-date bytecode cache of
every package module when it started. benchmark/run.py runs every command
in one process, so it measures neither per-process figure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE = "01010101"
# The child checks, before any import of the package, that each of its
# modules has a bytecode cache whose header matches the source's mtime and
# size (the check the import system makes). It runs one command, then
# reports on stderr whether the caches were there and whether scipy was
# loaded.
CHILD = (
    "import importlib.util, os, sys\n"
    f"pkg = {str(ROOT / 'src' / 'cliffgrad')!r}\n"
    "def cached(src):\n"
    "    try:\n"
    "        with open(importlib.util.cache_from_source(src), 'rb') as f:\n"
    "            head = f.read(16)\n"
    "    except OSError:\n"
    "        return False\n"
    "    st = os.stat(src)\n"
    "    return head == importlib.util.MAGIC_NUMBER + bytes(4) + b''.join(\n"
    "        (int(v) & 0xFFFFFFFF).to_bytes(4, 'little') for v in (st.st_mtime, st.st_size))\n"
    "hit = all(cached(os.path.join(pkg, f)) for f in os.listdir(pkg) if f.endswith('.py'))\n"
    "from cliffgrad.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    "print(hit, any(m.split('.')[0] == 'scipy' for m in sys.modules), file=sys.stderr)\n"
    "sys.exit(rc)\n"
)


def flow(work: Path) -> dict:
    """{name: argv} of the README flow on chain8, in the order a user runs it."""
    ham, ansatz, result = ROOT / "data" / "chain8.txt", work / "ansatz.json", work / "result.json"
    common = ["--hamiltonian", str(ham), "--ansatz", str(ansatz), "--reference", REFERENCE]
    return {
        "select-ansatz": ["select-ansatz", "--qubits", "8", "--depth", "2", "--variant", "real",
                          "--count", "32", "--seed", "5", "--hamiltonian", str(ham),
                          "--reference", REFERENCE, "--out", str(ansatz)],
        "expand": ["expand", *common, "--out", str(result)],
        "verify": ["verify", *common, "--result", str(result), "--exact-ground",
                   "--out", str(work / "verify.json")],
        "optimize-zero": ["optimize", *common, "--init", "zero",
                          "--trace-out", str(work / "cold.json")],
        "optimize-pert-hessian": ["optimize", *common, "--result", str(result),
                                  "--init", "pert-hessian", "--trace-out", str(work / "warm.json")],
    }


def one_run(argv: list, env: dict) -> tuple:
    """(wall s, peak RSS MB, bytecode cached, scipy loaded) of one fresh
    interpreter running argv."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CHILD, *argv], env=env, cwd=ROOT,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {err.strip()}")
    cached, scipy = (flag == "True" for flag in err.splitlines()[-1].split())
    return wall, usage.ru_maxrss / 1024, cached, scipy


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=7)
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{k: "1" for k in PINNED})
    with tempfile.TemporaryDirectory() as work:
        commands = flow(Path(work))
        # the untimed round writes the inputs and the bytecode caches
        writer = {k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"}
        for argv in commands.values():
            one_run(argv, writer)
        runs = {name: [] for name in commands}
        for _ in range(args.runs):
            for name, argv in commands.items():
                runs[name].append(one_run(argv, env))

    def summary(values) -> dict:
        return {"min": round(min(values), 4), "median": round(statistics.median(values), 4)}

    print(json.dumps({
        "tool": "tools/command_time.py",
        "runs": args.runs,
        "python": sys.version.split()[0],
        "instance": f"data/chain8.txt, reference {REFERENCE}",
        "commands": {
            name: {
                "wall_s": summary([r[0] for r in rs]),
                "peak_rss_mb": summary([r[1] for r in rs]),
                "bytecode_cached": all(r[2] for r in rs),
                "scipy_loaded": any(r[3] for r in rs),
            }
            for name, rs in runs.items()
        },
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
