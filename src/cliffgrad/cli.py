"""Command-line front end.

Subcommands wire the pipeline together: ansatz generation and selection,
Clifford-point expansion, dense verification, warm-started optimization,
and a stage-timing benchmark. Every output document embeds the tool
version, the full flag configuration, and SHA-256 hashes of the input
files, so re-running a command on identical inputs reproduces the
document modulo timing fields.

Exit codes: 0 success, 1 generic failure, 2 input/parse error,
3 expansion error, 4 solve error, 5 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import AnsatzCircuit, generate_hwe_ansatz, select_ansatz
from .dense import (
    DEFAULT_QUBIT_CAP,
    energy,
    exact_ground_energy,
    optimize_bfgs,
)
from .errors import (
    CircuitFormatError,
    CliffgradError,
    ObservableFormatError,
    PauliFormatError,
    ResourceCapError,
    SolveError,
)
from .expansion import ExpansionResult, expand
from .observable import Observable, parse_observable

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_INPUT = 2
EXIT_EXPANSION = 3
EXIT_SOLVE = 4
EXIT_CAP = 5


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise _CliError(EXIT_INPUT, f"input file not found: {p}")
    return p.read_text()


def _load_observable(path: str) -> Observable:
    try:
        return parse_observable(_read_text(path))
    except ObservableFormatError as exc:
        raise _CliError(EXIT_INPUT, f"{path}: {exc}")


def _load_ansatz(path: str) -> AnsatzCircuit:
    try:
        return AnsatzCircuit.deserialize(_read_text(path))
    except CircuitFormatError as exc:
        raise _CliError(EXIT_INPUT, f"{path}: {exc}")


def _check_reference(reference: str, n_qubits: int) -> str:
    if set(reference) - {"0", "1"} or len(reference) != n_qubits:
        raise _CliError(
            EXIT_INPUT,
            f"reference bitstring {reference!r} must be {n_qubits} characters of 0/1",
        )
    return reference


def _document(args: argparse.Namespace, payload: dict, input_paths: dict) -> dict:
    config = {k: v for k, v in vars(args).items() if k not in ("func",)}
    return {
        "tool_version": __version__,
        "command": args.command,
        "config": config,
        "inputs": {name: _sha256(Path(p)) for name, p in input_paths.items() if p},
        **payload,
    }


def _emit(doc: dict, out: str | None) -> None:
    try:
        text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # NaN or infinity, which strict JSON cannot hold
        raise _CliError(EXIT_GENERIC, f"output document not written: {exc}")
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_ansatz(args) -> int:
    try:
        circ = generate_hwe_ansatz(args.qubits, args.depth, args.seed, args.variant)
    except CircuitFormatError as exc:
        raise _CliError(EXIT_INPUT, str(exc))
    Path(args.out).write_text(circ.serialize())
    print(f"wrote {args.out}: n_qubits={circ.n_qubits} K={circ.n_params}")
    return EXIT_OK


def cmd_select_ansatz(args) -> int:
    obs = _load_observable(args.hamiltonian)
    if obs.n_qubits != args.qubits:
        raise _CliError(
            EXIT_INPUT,
            f"hamiltonian is on {obs.n_qubits} qubits, --qubits says {args.qubits}",
        )
    reference = _check_reference(args.reference, args.qubits)
    try:
        best, sums = select_ansatz(
            args.count, args.qubits, args.depth, obs, reference, args.seed, args.variant
        )
    except CircuitFormatError as exc:
        raise _CliError(EXIT_INPUT, str(exc))
    except CliffgradError as exc:
        raise _CliError(EXIT_EXPANSION, str(exc))
    Path(args.out).write_text(best.serialize())
    report = _document(
        args,
        {
            "candidates": [
                {"index": i, "seed_sum_abs_gradient": s} for i, s in enumerate(sums)
            ],
            "winner_index": int(best.metadata["candidate_index"]),
            "winner_sum_abs_gradient": max(sums),
        },
        {"hamiltonian": args.hamiltonian},
    )
    _emit(report, args.report_out)
    print(f"wrote {args.out}: candidate {best.metadata['candidate_index']} "
          f"of {args.count}, sum|g| = {max(sums):.6g}")
    return EXIT_OK


def _check_non_negative(flag: str, value: float) -> None:
    if not 0 <= value < float("inf"):  # also rejects NaN
        raise _CliError(EXIT_INPUT, f"{flag} must be finite and >= 0, got {value!r}")


def cmd_expand(args) -> int:
    _check_non_negative("--dropout-threshold", args.dropout_threshold)
    _check_non_negative("--rtol", args.rtol)
    obs = _load_observable(args.hamiltonian)
    circ = _load_ansatz(args.ansatz)
    reference = _check_reference(args.reference, circ.n_qubits)
    try:
        result = expand(
            circ,
            obs,
            reference,
            threshold=args.dropout_threshold,
            rtol=args.rtol,
            jobs=args.jobs,
            stable_subspace=args.stable_subspace,
        )
    except SolveError as exc:
        raise _CliError(EXIT_SOLVE, str(exc))
    except CliffgradError as exc:
        raise _CliError(EXIT_EXPANSION, str(exc))
    doc = _document(
        args,
        result.to_dict(),
        {"hamiltonian": args.hamiltonian, "ansatz": args.ansatz},
    )
    _emit(doc, args.out)
    if args.out:
        print(
            f"wrote {args.out}: e0={result.e0:.10g} "
            f"optimum={result.perturbative_optimum:.10g} "
            f"kept {int(result.dropout_mask.sum())}/{result.n_params}"
        )
    return EXIT_OK


def _load_result(path: str, n_params: int) -> ExpansionResult:
    """The expansion result at `path`, which must have the ansatz's n_params."""
    try:
        doc = json.loads(_read_text(path))
        result = ExpansionResult.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise _CliError(EXIT_INPUT, f"{path}: invalid result document: {exc}")
    if result.theta_star.size != n_params:
        raise _CliError(
            EXIT_INPUT,
            f"{path}: result has {result.theta_star.size} parameters, ansatz has {n_params}",
        )
    return result


def cmd_verify(args) -> int:
    obs = _load_observable(args.hamiltonian)
    circ = _load_ansatz(args.ansatz)
    reference = _check_reference(args.reference, circ.n_qubits)
    result = _load_result(args.result, circ.n_params)
    try:
        e_circuit = energy(circ, result.theta_star, reference, obs, cap=args.cap)
    except ResourceCapError as exc:
        raise _CliError(EXIT_CAP, f"{exc}; rerun with desk-scale inputs or raise --cap")
    gap = abs(e_circuit - result.perturbative_optimum)
    payload = {
        "e0": result.e0,
        "circuit_value": e_circuit,
        "perturbative_optimum": result.perturbative_optimum,
        "gap": gap,
        "theta_star_norm": float(np.linalg.norm(result.theta_star)),
    }
    if args.exact_ground:
        try:
            payload["exact_ground_energy"] = exact_ground_energy(obs)
        except ResourceCapError as exc:
            raise _CliError(EXIT_CAP, str(exc))
    doc = _document(
        args,
        payload,
        {"hamiltonian": args.hamiltonian, "ansatz": args.ansatz, "result": args.result},
    )
    _emit(doc, args.out)
    return EXIT_OK


_INIT_MODES = {"zero": "zero", "pert": "theta_star", "pert-hessian": "theta_star_with_hessian"}


def cmd_optimize(args) -> int:
    _check_non_negative("--gtol", args.gtol)
    if args.max_iters < 0:
        raise _CliError(EXIT_INPUT, f"--max-iters must be >= 0, got {args.max_iters}")
    obs = _load_observable(args.hamiltonian)
    circ = _load_ansatz(args.ansatz)
    reference = _check_reference(args.reference, circ.n_qubits)
    expansion = None
    if args.init != "zero":
        if not args.result:
            raise _CliError(EXIT_INPUT, f"--init {args.init} requires --result")
        expansion = _load_result(args.result, circ.n_params)
    try:
        trace = optimize_bfgs(
            circ,
            obs,
            reference,
            init=_INIT_MODES[args.init],
            expansion=expansion,
            gtol=args.gtol,
            max_iterations=args.max_iters,
            cap=args.cap,
        )
    except ResourceCapError as exc:
        raise _CliError(EXIT_CAP, str(exc))
    doc = _document(
        args,
        trace.to_dict(),
        {"hamiltonian": args.hamiltonian, "ansatz": args.ansatz, "result": args.result},
    )
    _emit(doc, args.trace_out)
    return EXIT_OK


def _random_observable(n_qubits: int, n_terms: int, seed: int) -> Observable:
    rng = np.random.default_rng(seed)
    terms = {}
    while len(terms) < n_terms:
        toks = []
        for q in range(n_qubits):
            letter = "IXYZ"[rng.integers(0, 4)]
            if letter != "I":
                toks.append(f"{letter}{q}")
        terms.setdefault(" ".join(toks), float(rng.normal()))
    return Observable.from_strings(n_qubits, terms)


def _int_list(flag: str, text: str) -> list:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise _CliError(EXIT_INPUT, f"{flag} must be comma-separated integers, got {text!r}")


def cmd_bench(args) -> int:
    qubit_list = _int_list("--qubits", args.qubits)
    depth_list = _int_list("--depths", args.depths)
    _check_non_negative("--dropout-threshold", args.dropout_threshold)
    ham = _load_observable(args.hamiltonian) if args.hamiltonian else None
    if ham is not None and ham.n_qubits not in qubit_list:
        raise _CliError(
            EXIT_INPUT, f"hamiltonian is on {ham.n_qubits} qubits, not one of --qubits {args.qubits}"
        )
    for n in qubit_list:
        if n < 1:
            raise _CliError(EXIT_INPUT, f"--qubits entries must be positive, got {n}")
        # the random observable draws distinct strings, and only 4^n exist
        if ham is None and not 1 <= args.terms <= 4**n:
            raise _CliError(
                EXIT_INPUT,
                f"--terms {args.terms} must be between 1 and 4^n, the number of "
                f"Pauli strings on n={n} qubits",
            )
    rows = []
    for n in qubit_list:
        if ham is not None and ham.n_qubits != n:
            print(f"skip n={n}: hamiltonian is on {ham.n_qubits} qubits")
            continue
        obs = ham if ham is not None else _random_observable(n, args.terms, args.seed)
        reference = "0" * n
        for depth in depth_list:
            circ = generate_hwe_ansatz(n, depth, args.seed, args.variant)
            res = expand(circ, obs, reference, threshold=args.dropout_threshold)
            rows.append(
                {
                    "n": n,
                    "depth": depth,
                    "K": res.counters["K"],
                    "K_kept": res.counters["K_kept"],
                    "N_o": res.counters["N_o"],
                    "t_grad": res.timings["gradient_s"],
                    "t_hess": res.timings["hessian_s"],
                    "t_solve": res.timings["solve_s"],
                    "expectations_evaluated": res.counters["pauli_expectations_evaluated"],
                }
            )
            print(
                f"n={n} depth={depth} K={rows[-1]['K']} "
                f"t_hess={rows[-1]['t_hess']:.3f}s"
            )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    # empirical scaling exponent of the Hessian stage vs K at fixed n
    for n in qubit_list:
        sub = [r for r in rows if r["n"] == n and r["t_hess"] > 0]
        if len(sub) >= 2:
            ks = np.log([r["K"] for r in sub])
            ts = np.log([r["t_hess"] for r in sub])
            slope = np.polyfit(ks, ts, 1)[0]
            print(f"n={n}: empirical t_hess ~ K^{slope:.2f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffgrad",
        description="Quadratic model of a Clifford+rotation ansatz cost surface "
        "at theta=0: exact gradient/Hessian, pseudo-inverse solve, dense "
        "verification, warm-started BFGS.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gen_flags(p):
        p.add_argument("--qubits", type=int, required=True)
        p.add_argument("--depth", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--variant", choices=("complex", "real"), default="complex")

    p = sub.add_parser("gen-ansatz", help="generate a brickwork ansatz file")
    add_gen_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_ansatz)

    p = sub.add_parser("select-ansatz", help="pick the max sum|g| candidate")
    add_gen_flags(p)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report-out", default=None)
    p.set_defaults(func=cmd_select_ansatz)

    p = sub.add_parser("expand", help="gradient/Hessian/theta* at theta=0")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--ansatz", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--dropout-threshold", type=float, default=1e-6)
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--stable-subspace", action="store_true")
    p.add_argument("--jobs", type=int, default=None, help="accepted and ignored")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="dense E(theta*) vs the quadratic model")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--ansatz", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_QUBIT_CAP)
    p.add_argument("--exact-ground", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("optimize", help="BFGS with zero/pert/pert-hessian init")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--ansatz", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--result", default=None)
    p.add_argument("--init", choices=tuple(_INIT_MODES), default="zero")
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--gtol", type=float, default=1e-6)
    p.add_argument("--cap", type=int, default=DEFAULT_QUBIT_CAP)
    p.add_argument("--trace-out", default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("bench", help="time the pipeline over a sweep")
    p.add_argument("--qubits", required=True, help="comma-separated widths")
    p.add_argument("--depths", required=True, help="comma-separated depths")
    p.add_argument("--terms", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variant", choices=("complex", "real"), default="real")
    p.add_argument("--dropout-threshold", type=float, default=1e-6)
    p.add_argument("--hamiltonian", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (PauliFormatError, ObservableFormatError, CircuitFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except CliffgradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERIC


if __name__ == "__main__":
    sys.exit(main())
