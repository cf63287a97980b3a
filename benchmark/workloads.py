"""Seeded inputs for each workload and the cliffgrad commands it runs.

The benchmark writes every input the program reads into the run's work
directory, so ``cliffgrad`` receives only generated files; the shipped
Hamiltonians under ``data/`` are copied there first.
"""

from __future__ import annotations

import contextlib
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"

# The ansatz generator seeds are fixed so that every workload seed does the
# same amount of work: the ansatz sets K, the memo cache's hit pattern and
# the Hessian's sparsity. The workload seed draws the wide Hamiltonian's
# coefficients and the sample of outputs the checks recompute.
NARROW = (("chain8", 8, 4), ("chain10", 10, 2))  # label, qubits, depth
NARROW_ANSATZ_SEED = 1
WIDE_QUBITS = 66
WIDE_ANSATZ_SEED = 1  # K_kept = 64 of 198
# pipeline-chain8 runs the README flow on fixed inputs: across select-ansatz
# seeds 1-5 the cold BFGS run took 28 to 95 iterations, so a seeded winner
# would make the run-to-run spread measure the seed, not the program.
PIPELINE_SELECT_SEED = 5
PIPELINE_SELECT_COUNT = 32
PIPELINE_DEPTH = 2

TINY_HAMILTONIAN = """qubits 4
-1.0 Z0
1.0 Z1
-1.0 Z2
1.0 Z3
0.2 X0 X1
0.2 Y0 Y1
0.2 X1 X2
0.2 X2 X3
"""

WORKLOADS = ("expand-narrow", "expand-wide", "pipeline-chain8")


@dataclass
class Instance:
    label: str
    n_qubits: int
    hamiltonian: Path
    ansatz: Path
    reference: str


@dataclass
class Command:
    kind: str           # expand | select | verify | optimize_cold | optimize_warm
    label: str          # instance label
    argv: List[str]
    out: Path           # the document the command writes


def reference_for(n: int) -> str:
    """Qubit j occupied for odd j, the convention of the shipped chains."""
    return "".join("1" if j % 2 else "0" for j in range(n))


def sub_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1, np.uint32)[0])


def wide_hamiltonian(n: int, seed: int) -> str:
    """Dimerized chain: staggered Z field on every site, XX on every other bond."""
    rng = np.random.default_rng(sub_seed(seed, n))
    lines = [f"qubits {n}"]
    for j in range(n):
        h = float(rng.uniform(0.8, 1.2))
        lines.append(f"{-h if j % 2 == 0 else h!r} Z{j}")
    for j in range(0, n - 1, 2):
        lines.append(f"{float(rng.uniform(0.05, 0.25))!r} X{j} X{j + 1}")
    return "\n".join(lines) + "\n"


def no_span(name):
    return contextlib.nullcontext()


def _write_ansatz(path: Path, n: int, depth: int, seed: int, span=no_span) -> None:
    from cliffgrad import generate_hwe_ansatz

    with span("circuit.generate"):
        circ = generate_hwe_ansatz(n, depth, seed, "real")
    path.write_text(circ.serialize())


def generate(workload: str, seed: int, in_dir: Path, span=no_span) -> List[Instance]:
    """Write the workload's input files for ``seed``; return its instances.

    ``span`` wraps each library call, for the traced run.
    """
    in_dir.mkdir(parents=True, exist_ok=True)
    if workload == "expand-narrow":
        out = []
        for label, n, depth in NARROW:
            ham = in_dir / f"{label}.txt"
            shutil.copyfile(DATA / f"{label}.txt", ham)
            ansatz = in_dir / f"ansatz-{label}.json"
            _write_ansatz(ansatz, n, depth, NARROW_ANSATZ_SEED, span)
            out.append(Instance(label, n, ham, ansatz, reference_for(n)))
        return out
    if workload == "expand-wide":
        n = WIDE_QUBITS
        ham = in_dir / "wide.txt"
        ham.write_text(wide_hamiltonian(n, seed))
        ansatz = in_dir / "ansatz-wide.json"
        _write_ansatz(ansatz, n, 1, WIDE_ANSATZ_SEED, span)
        inst = Instance("wide", n, ham, ansatz, reference_for(n))
        _require_wide(inst)
        return [inst]
    if workload == "pipeline-chain8":
        ham = in_dir / "chain8.txt"
        shutil.copyfile(DATA / "chain8.txt", ham)
        return [Instance("chain8", 8, ham, in_dir / "ansatz-selected.json", reference_for(8))]
    raise ValueError(f"unknown workload {workload!r}")


def _require_wide(inst: Instance) -> None:
    """expand-wide must span two packed words and keep a parameter at the default dropout."""
    from checks import first_kept_parameter
    from cliffgrad import AnsatzCircuit, parse_observable
    from cliffgrad.cli import build_parser

    if inst.n_qubits <= 64:
        raise RuntimeError(f"expand-wide needs more than 64 qubits, got {inst.n_qubits}")
    ansatz = AnsatzCircuit.deserialize(inst.ansatz.read_text())
    obs = parse_observable(inst.hamiltonian.read_text())
    # the threshold the workload's expand command runs with, the CLI's default
    threshold = build_parser().parse_args(_expand(inst, Path("."), None).argv).dropout_threshold
    if first_kept_parameter(ansatz, obs, inst.reference, threshold) is None:
        raise RuntimeError("expand-wide keeps no parameter at the default dropout threshold")


def generate_tiny(workload: str, in_dir: Path) -> List[Instance]:
    """A 4-qubit instance that runs the workload's commands for the warm-up."""
    in_dir.mkdir(parents=True, exist_ok=True)
    ham = in_dir / "tiny.txt"
    ham.write_text(TINY_HAMILTONIAN)
    ansatz = in_dir / "ansatz-tiny.json"
    if workload != "pipeline-chain8":
        _write_ansatz(ansatz, 4, 1, 0)
    return [Instance("tiny", 4, ham, ansatz, reference_for(4))]


def result_path(inst: Instance, out_dir: Path) -> Path:
    return out_dir / f"result-{inst.label}.json"


def _expand(inst: Instance, out_dir: Path, threshold: Optional[float]) -> Command:
    out = result_path(inst, out_dir)
    argv = ["expand", "--hamiltonian", str(inst.hamiltonian), "--ansatz", str(inst.ansatz),
            "--reference", inst.reference, "--out", str(out)]
    if threshold is not None:
        argv += ["--dropout-threshold", repr(threshold)]
    return Command("expand", inst.label, argv, out)


def _pipeline(inst: Instance, out_dir: Path, count: int) -> List[Command]:
    common = ["--hamiltonian", str(inst.hamiltonian), "--ansatz", str(inst.ansatz),
              "--reference", inst.reference]
    result = result_path(inst, out_dir)
    select_report = out_dir / f"select-{inst.label}.json"
    verify = out_dir / f"verify-{inst.label}.json"
    cold = out_dir / f"optimize-zero-{inst.label}.json"
    warm = out_dir / f"optimize-warm-{inst.label}.json"
    return [
        Command("select", inst.label, [
            "select-ansatz", "--qubits", str(inst.n_qubits), "--depth", str(PIPELINE_DEPTH),
            "--variant", "real", "--count", str(count), "--seed", str(PIPELINE_SELECT_SEED),
            "--hamiltonian", str(inst.hamiltonian), "--reference", inst.reference,
            "--out", str(inst.ansatz), "--report-out", str(select_report)], select_report),
        _expand(inst, out_dir, None),
        Command("verify", inst.label, ["verify", *common, "--result", str(result),
                                       "--exact-ground", "--out", str(verify)], verify),
        Command("optimize_cold", inst.label, ["optimize", *common, "--init", "zero",
                                              "--trace-out", str(cold)], cold),
        Command("optimize_warm", inst.label, ["optimize", *common, "--result", str(result),
                                              "--init", "pert-hessian",
                                              "--trace-out", str(warm)], warm),
    ]


def commands(workload: str, instances: List[Instance], out_dir: Path, tiny: bool = False) -> List[Command]:
    """One pass of the workload: the commands in the order a user runs them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "expand-narrow":
        return [_expand(inst, out_dir, 0.0) for inst in instances]
    if workload == "expand-wide":
        return [_expand(inst, out_dir, None) for inst in instances]
    if workload == "pipeline-chain8":
        count = 2 if tiny else PIPELINE_SELECT_COUNT
        return [c for inst in instances for c in _pipeline(inst, out_dir, count)]
    raise ValueError(f"unknown workload {workload!r}")
