"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmark/spread.py --workload expand-wide --seeds 1-10 --seconds 20

Runs ``benchmark/run.py`` once per seed, one run at a time, and prints for
each end-to-end metric the median, the quartiles and the spread: the
distance between the quartiles (``statistics.quantiles(values, n=4)``) as
a share of the median, beside the metric's bound from ``BENCHMARK.json``.
A seed may repeat (``--seeds 1,1,2,2``): the run set fails if the work
counts (``count.*`` in each run's ``record.json``) differ between runs of
one seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import work_dir

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 3,5,8")
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs, counts = [], {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        last["seed"] = seed
        runs.append(last)
        record = json.loads((work_dir(args.workload, seed, 0) / "record.json").read_text())
        counts.setdefault(seed, []).append(
            {k: v["value"] for k, v in record["metrics"].items() if k.startswith("count.")})
        print(f"seed {seed}: correct={last['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in last["metrics"].items()), flush=True)

    print(f"{'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        print(f"{m['name']:14s} {med:10.4g} {q1:10.4g} {q3:10.4g} {(q3 - q1) / med:8.3f} {m['bound']:6.2f}")
    unsteady = sorted(seed for seed, cs in counts.items() if any(c != cs[0] for c in cs))
    if unsteady:
        print(f"work counts differ between runs of seed {unsteady}")
    return 0 if all(r["correct"] for r in runs) and not unsteady else 1


if __name__ == "__main__":
    sys.exit(main())
