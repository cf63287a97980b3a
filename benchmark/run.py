"""Run one cliffgrad benchmark workload and print its metrics.

    python3 benchmark/run.py --workload expand-narrow --seed 1 --seconds 25 --trace 0

The run generates its inputs from the seed into ``.bench_work/`` at the
repository root, sets up (import, input generation and loading, a warm-up
call) several times, then drives the ``cliffgrad`` commands in-process,
one after another, until ``--seconds`` have passed; a pass is the
workload's whole command sequence and always completes. Every output is
checked after the timed phase. With ``--trace 1`` the run instead runs
one pass of the commands with spans only around ``cli.main`` and the
library calls it makes, replays that pass stage by stage under spans, and
reports per-layer metrics. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the full report, also written to ``record.json`` in the
run's work directory.
"""

import os

# Pin the BLAS/OpenMP pools before numpy loads: threads add run-to-run
# spread on a shared 2-core machine and the program gains nothing from them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 7
CHECK_SAMPLE = 16     # Hessian entries and gradient entries recomputed per output
DENSE_MAX_QUBITS = 12  # widths at which outputs are also checked by finite differences


def work_dir(workload, seed, trace) -> Path:
    """Where a run writes its inputs, outputs and ``record.json``."""
    return WORK / f"{workload}-s{seed}-t{trace}"


def _median(values):
    return statistics.median(values) if values else None


def run_command(cmd):
    """One cliffgrad command in this process: (wall s, cpu s, error or None)."""
    from cliffgrad.cli import main as cli_main

    sink = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli_main(cmd.argv)
        error = None if rc == 0 else f"exit code {rc}: {sink.getvalue().strip()}"
    except Exception as exc:  # a traceback is a failed operation, the run goes on
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, time.process_time() - c0, error


def import_fresh() -> None:
    """Import the CLI in a fresh interpreter, as every user command does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", "import cliffgrad.cli"], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"importing cliffgrad failed: {proc.stderr.strip()}")


def setup(workload, seed, work, span=None):
    """Import, input generation and loading, and a warm-up pass on a tiny instance."""
    from cliffgrad import AnsatzCircuit, parse_observable

    span = span or wl.no_span
    t0 = time.perf_counter()
    import_fresh()
    instances = wl.generate(workload, seed, work / "in", span)
    for inst in instances:
        with span("observable.parse"):
            parse_observable(inst.hamiltonian.read_text())
        if inst.ansatz.exists():
            with span("circuit.deserialize"):
                AnsatzCircuit.deserialize(inst.ansatz.read_text())
    tiny = wl.generate_tiny(workload, work / "warm")
    for cmd in wl.commands(workload, tiny, work / "warm", tiny=True):
        error = run_command(cmd)[2]
        if error:
            raise RuntimeError(f"warm-up {cmd.kind} failed: {error}")
    return instances, time.perf_counter() - t0


def load_doc(path: Path) -> dict:
    """A command's output without the fields that differ between identical passes."""
    doc = json.loads(path.read_text())
    doc.pop("timings", None)
    # the hash of an input result document covers that document's timings
    doc.get("inputs", {}).pop("result", None)
    return doc


def counts_of(doc: dict) -> dict:
    """The work counts that must repeat exactly between passes of one seed."""
    if doc["command"] == "expand":
        c = doc["counters"]
        rows = doc["hessian"]["rows"]
        return {
            "K": c.get("K"), "K_kept": c.get("K_kept"), "N_o": c.get("N_o"),
            "expectations_evaluated": c.get("pauli_expectations_evaluated"),
            "cache_hits": c.get("expectation_cache_hits"),
            "hessian_nnz": sum(1 for row in rows for v in row if v != 0.0),
        }
    if doc["command"] == "optimize":
        return {"bfgs_iterations": doc["n_iterations"]}
    return {}


def same_output(a: dict, b: dict) -> bool:
    from checks import ground_agrees

    def rest(doc):
        return {k: v for k, v in doc.items() if k != "exact_ground_energy"}

    return rest(a) == rest(b) and ground_agrees(a, b)


def run_passes(cmds, seconds):
    """Closed loop: whole passes, one command at a time, until ``seconds`` have passed."""
    passes = []
    t0, c0 = time.perf_counter(), time.process_time()
    while True:
        runs = []
        for cmd in cmds:
            wall, cpu, error = run_command(cmd)
            doc = load_doc(cmd.out) if error is None else None
            runs.append({"cmd": cmd, "wall": wall, "cpu": cpu, "error": error, "doc": doc})
            if error:
                break  # later commands read this one's output
        passes.append(runs)
        if error or time.perf_counter() - t0 >= seconds:
            return passes, time.perf_counter() - t0, time.process_time() - c0


def check_outputs(instances, passes, rng):
    """Mark each command run that failed or whose output fails its check."""
    import checks
    from cliffgrad import AnsatzCircuit, exact_ground_energy, parse_observable

    failures = []
    first = passes[0]
    for p, runs in enumerate(passes):
        for i, run in enumerate(runs):
            if run["error"]:
                failures.append((p, i, run["error"]))
            elif p > 0 and i < len(first) and first[i]["doc"] is not None:
                if counts_of(run["doc"]) != counts_of(first[i]["doc"]):
                    failures.append((p, i, "work counts differ from the first pass"))
                elif not same_output(run["doc"], first[i]["doc"]):
                    failures.append((p, i, "output differs from the first pass"))

    by_label = {inst.label: inst for inst in instances}
    docs = {(r["cmd"].kind, r["cmd"].label): r["doc"] for r in first if r["doc"] is not None}
    ground = {}
    for i, run in enumerate(first):
        if run["doc"] is None:
            continue
        cmd, doc = run["cmd"], run["doc"]
        inst = by_label[cmd.label]
        obs = parse_observable(inst.hamiltonian.read_text())
        circ = AnsatzCircuit.deserialize(inst.ansatz.read_text())
        if cmd.kind in ("verify", "optimize_cold", "optimize_warm") and cmd.label not in ground:
            ground[cmd.label] = exact_ground_energy(obs)
        if cmd.kind == "expand":
            msgs = checks.check_expand(circ, obs, inst.reference, doc, rng, CHECK_SAMPLE,
                                       dense=inst.n_qubits <= DENSE_MAX_QUBITS)
        elif cmd.kind == "select":
            msgs = checks.check_select(obs, inst.reference, wl.PIPELINE_SELECT_SEED,
                                       wl.PIPELINE_SELECT_COUNT, inst.n_qubits,
                                       wl.PIPELINE_DEPTH, doc, inst.ansatz.read_text())
        elif cmd.kind == "verify":
            msgs = checks.check_verify(circ, obs, inst.reference, docs[("expand", cmd.label)],
                                       doc, ground[cmd.label])
        else:
            msgs = checks.check_optimize(doc, ground[cmd.label])
        for m in msgs:
            # every pass reproduced the first, so a failed check fails them all
            failures += [(p, i, f"{cmd.kind} {cmd.label}: {m}") for p in range(len(passes))
                         if i < len(passes[p])]
    return failures


def environment(load_start):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
    }


def git_revision():
    """HEAD of the checkout, or None where it is not a git repository."""
    # the ceiling keeps git from taking the revision of an enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the program's sources, which names the code measured without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metric(value, unit, n=None, note=None):
    m = {"value": value, "unit": unit}
    if n is not None:
        m["samples"] = n
    if note:
        m["note"] = note
    return m


_ALL = {"expand", "select", "verify", "optimize_cold", "optimize_warm"}


def timed_metrics(passes, wall, cpu, setups):
    complete = [runs for runs in passes if all(r["error"] is None for r in runs)]
    n = len(complete)

    def per_pass(kinds, field="wall"):
        return [sum(r[field] for r in runs if r["cmd"].kind in kinds) for runs in complete]

    out = {
        "setup_s": metric(_median(setups), "s", len(setups)),
        "pass_s": metric(_median(per_pass(_ALL)), "s", n),
        "pass_cpu_s": metric(_median(per_pass(_ALL, "cpu")), "s", n),
        "expand_s": metric(_median(per_pass({"expand"})), "s", n),
        "expand_cpu_s": metric(_median(per_pass({"expand"}, "cpu")), "s", n),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "wall_s": metric(wall, "s", 1, f"timed phase, {len(passes)} passes"),
        "cpu_s": metric(cpu, "s", 1, f"timed phase, {len(passes)} passes"),
    }
    kinds = {r["cmd"].kind for runs in complete for r in runs}
    if "select" in kinds:
        out["select_s"] = metric(_median([t / wl.PIPELINE_SELECT_COUNT for t in per_pass({"select"})]),
                                 "s", n, "per candidate")
        out["verify_s"] = metric(_median(per_pass({"verify"})), "s", n)
        out["optimize_cold_s"] = metric(_median(per_pass({"optimize_cold"})), "s", n)
        out["optimize_warm_s"] = metric(_median(per_pass({"optimize_warm"})), "s", n)
        for kind, name in (("optimize_cold", "bfgs_iters_cold"), ("optimize_warm", "bfgs_iters_warm")):
            docs = [r["doc"] for r in complete[0] if r["cmd"].kind == kind] if complete else []
            if docs:
                out[name] = metric(sum(d["n_iterations"] for d in docs), "count", n)
    return out


def work_counts(runs) -> dict:
    """Per-pass totals of the expansion work counts, from the commands' outputs."""
    total = {}
    for r in runs:
        if r["doc"] is not None:
            for k, v in counts_of(r["doc"]).items():
                total[k] = total.get(k, 0) + (v or 0)
    return total


def traced_metrics(instances, tracer, seconds_commands, runs):
    """Replay the commands' pass stage by stage and check it against that pass's outputs.

    ``runs`` is the pass of the commands themselves, with spans only around
    ``cli.main`` and the library calls it makes.
    """
    import traced
    from cliffgrad import AnsatzCircuit, parse_observable

    failures = []
    t0 = time.perf_counter()
    for i, r in enumerate(runs):
        if r["doc"] is None:
            break
        doc = traced.replay(r["cmd"].argv, tracer)
        bad = traced.replay_mismatches(r["doc"], doc)
        if bad:
            failures.append((0, i, f"traced {r['cmd'].kind} differs in {', '.join(bad)}"))
    traced_wall = time.perf_counter() - t0

    selfs = tracer.self_times()
    counts = work_counts(runs)
    hits, misses = counts.get("cache_hits", 0), counts.get("expectations_evaluated", 0)
    kept_sq = sum(r["doc"]["counters"]["K_kept"] ** 2 for r in runs
                  if r["doc"] is not None and r["doc"]["command"] == "expand")
    out = {"cli.self_s": metric(selfs.get("cli.main", 0.0), "s", len(runs),
                                "cli.main minus the library calls it makes")}
    for name in ("circuit.generate", "circuit.deserialize", "circuit.state_prep",
                 "observable.parse", "observable.e0", "expansion.conjugate",
                 "expansion.gradient", "expansion.dropout", "expansion.hessian",
                 "expansion.solve", "expansion.to_dict", "expansion.from_dict",
                 "circuit.serialize"):
        out[name + "_s"] = metric(selfs.get(name, 0.0), "s", 1)
    out["expansion.K"] = metric(counts.get("K", 0), "count")
    out["expansion.K_kept"] = metric(counts.get("K_kept", 0), "count")
    out["expansion.N_o"] = metric(counts.get("N_o", 0), "count")
    out["expansion.expectations_evaluated"] = metric(misses, "count")
    out["expansion.cache_hit_ratio"] = metric(
        hits / (hits + misses) if hits + misses else 0.0, "ratio", None,
        f"{hits} hits of {hits + misses} lookups")
    out["expansion.hessian_nnz_frac"] = metric(
        counts.get("hessian_nnz", 0) / kept_sq if kept_sq else 0.0, "ratio", None,
        f"{counts.get('hessian_nnz', 0)} of {kept_sq} entries")

    loaded = []
    for inst in instances:
        loaded.append((AnsatzCircuit.deserialize(inst.ansatz.read_text()),
                       parse_observable(inst.hamiltonian.read_text()), inst.reference))
    for name, v in traced.layer_probes(loaded).items():
        out[name] = metric(v, "1/s", None, "throughput on the workload's own products")

    dense_names = ("dense.energy", "dense.exact_ground", "dense.optimize_bfgs_cold",
                   "dense.optimize_bfgs_warm")
    if any(name in selfs for name in dense_names):
        for name in dense_names:
            out[name + "_s"] = metric(selfs.get(name, 0.0), "s", 1)
        circ, obs, ref = loaded[0]
        result = next(r["doc"] for r in runs if r["doc"] and r["doc"]["command"] == "expand")
        for name, v in traced.dense_probes(circ, obs, ref, result).items():
            out[name] = metric(v, "s", 1, "one standalone call")
    out["trace.overhead_s"] = metric(traced_wall - seconds_commands, "s", 1,
                                     f"replay {traced_wall:.4f} s - commands {seconds_commands:.4f} s")
    return out, failures


# The metrics the final JSON line carries; BENCHMARK.json lists the same.
END_TO_END = ("setup_s", "pass_s", "pass_cpu_s", "peak_rss_mb")
PER_LAYER = (
    "cli.self_s", "circuit.generate_s", "circuit.deserialize_s", "circuit.state_prep_s",
    "observable.parse_s", "observable.e0_s", "expansion.conjugate_s", "expansion.gradient_s",
    "expansion.hessian_s", "expansion.solve_s", "expansion.expectations_evaluated",
    "expansion.cache_hit_ratio", "pauli.mul_per_s", "tableau.expectation_per_s",
)


def print_report(header, env, metrics, failures):
    print(header)
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        extra = f"  n={m['samples']}" if "samples" in m else ""
        note = f"  ({m['note']})" if "note" in m else ""
        print(f"  {name:36s} {m['value']!r:>24} {m['unit']:6s}{extra}{note}")
    for p, i, msg in failures:
        print(f"FAILED pass {p} command {i}: {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cliffgrad" / "__init__.py").is_file():
        print(f"error: no cliffgrad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    from tracing import Tracer

    load_start = os.getloadavg()
    work = work_dir(args.workload, args.seed, args.trace)
    shutil.rmtree(work, ignore_errors=True)
    cmds_dir = work / "out"
    rng = np.random.default_rng(wl.sub_seed(args.seed, 7919))

    if args.trace:
        import traced

        tracer = Tracer(f"{work.name}-{os.getpid()}")
        instances, _ = setup(args.workload, args.seed, work, tracer.span)
        cmds = wl.commands(args.workload, instances, cmds_dir)
        with traced.cli_spans(tracer):
            passes, wall, _ = run_passes(cmds, 0.0)
        metrics, failures = traced_metrics(instances, tracer, wall, passes[0])
        tracer.write(work / "spans.json")
        wanted = PER_LAYER
    else:
        setups = []
        for _ in range(SETUP_REPS):
            instances, seconds = setup(args.workload, args.seed, work)
            setups.append(seconds)
        cmds = wl.commands(args.workload, instances, cmds_dir)
        passes, wall, cpu = run_passes(cmds, args.seconds)
        metrics = timed_metrics(passes, wall, cpu, setups)
        for k, v in work_counts(passes[0]).items():
            metrics[f"count.{k}"] = metric(v, "count", None, "first pass")
        failures = []
        wanted = END_TO_END
    failures += check_outputs(instances, passes, rng)

    attempted = sum(len(runs) for runs in passes)
    failed = len({(p, i) for p, i, _ in failures})
    metrics["failed_frac"] = metric(failed / attempted, "ratio", None,
                                    f"{failed} failed of {attempted} attempted")
    env = environment(load_start)
    print_report(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
                 f"trace {args.trace}", env, metrics, failures)
    (work / "record.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
         "metrics": metrics, "failures": failures}, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
