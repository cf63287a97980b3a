"""Import time of each cliffgrad module over 20 fresh interpreters, as JSON.

    python3 tools/import_time.py

Runs `python -X importtime -c "import cliffgrad.cli"` 20 times, each in a
new interpreter with PYTHONPATH=src and the BLAS thread pools pinned to one
thread, and prints one JSON object with the minimum and median self and
cumulative microseconds of every cliffgrad module. A single run moves by
tens of percent on a shared machine; the minimum and median of many are
the steadier figures, and a module's self time is steadier than the
cumulative time of cliffgrad.cli, which includes numpy and scipy.

The object also records whether PYTHONDONTWRITEBYTECODE is set: with it
set, every run compiles the package's source, so self times include
compilation; with it unset, the runs after the first read cached bytecode.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 20
ROOT = Path(__file__).resolve().parents[1]
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def one_run(env) -> dict:
    """{module: (self µs, cumulative µs)} of one fresh interpreter's imports."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import cliffgrad.cli"]
    out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    times = {}
    for line in out.stderr.splitlines():
        # "import time:       412 |       1530 |   cliffgrad.tableau"
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[2].strip().startswith("cliffgrad"):
            times[fields[2].strip()] = (int(fields[0]), int(fields[1]))
    return times


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{k: "1" for k in PINNED})
    runs = [one_run(env) for _ in range(RUNS)]

    def summary(values) -> dict:
        return {"min": min(values), "median": statistics.median(values)}

    modules = {
        name: {
            "self_us": summary([r[name][0] for r in runs]),
            "cumulative_us": summary([r[name][1] for r in runs]),
        }
        for name in sorted(runs[0])
    }
    print(json.dumps({
        "command": "python -X importtime -c 'import cliffgrad.cli'",
        "runs": RUNS,
        "python": sys.version.split()[0],
        "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "modules": modules,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
