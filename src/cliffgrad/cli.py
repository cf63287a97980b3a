"""Command-line front end.

Subcommands wire the pipeline together: ansatz generation and selection,
Clifford-point expansion, dense verification and warm-started
optimization. Every output document embeds the tool version, the full
flag configuration, and SHA-256 hashes of the input files, so re-running
a command on identical inputs reproduces the document modulo timing
fields. An expand document times each stage and counts K, K_kept and
N_o, so a depth sweep is one gen-ansatz and one expand per depth.

Each input is checked once, where it enters: the library checks the
widths, reference bitstrings, gate lists and seeds it is given, and the
CLI checks only files, flag ranges and result documents. Output paths
are checked before any work. main maps the error class to the exit code
through EXIT_CODES. Every error prints one ``error: ...`` line on stderr
and writes no output file.

    0  success
    1  any other package error, such as an output document that strict
       JSON cannot hold (NaN or infinity); the message names its key
    2  input error: a missing or malformed Hamiltonian, ansatz or result
       file (JSON nested too deeply to read included), or one that is not
       UTF-8 text; an output path in a missing directory, or one that is a
       directory; an input or output path the operating system refuses,
       such as a file name longer than it allows; a missing flag or a flag
       value that does not parse; an out-of-range or non-finite flag; a
       negative --seed; a --cap below 1; a result whose width
       (counters.n_qubits) or parameter count differs from the ansatz; a
       reference bitstring that is not n characters of 0/1
       (CircuitFormatError); a Hamiltonian whose width differs from the
       ansatz or --qubits (DimensionMismatchError)
    3  reserved; nothing raises it
    4  solve error: the quadratic model's eigensolve failed, its entries
       are not finite, its optimum overflows the float range, or a sum of
       observable terms (e0, a gradient or a Hessian entry, or a
       select-ansatz candidate's sum |g|) overflows it; or an optimize
       sweep's energy or gradient entry is not finite, or the warm start's
       eigensolve failed; or Lanczos failed to converge on the exact ground
       energy of verify --exact-ground, or that energy overflows the float
       range (SolveError)
    5  resource cap: a dense simulation above --cap qubits, or exact
       diagonalization above 14 qubits (ResourceCapError); or an array the
       machine cannot allocate, such as the dense operator of a Hamiltonian
       with thousands of X parts (MemoryError; the message names the
       allocation). Whether a too-large allocation fails at once or later
       depends on the operating system's memory overcommit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
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
    DimensionMismatchError,
    ObservableFormatError,
    PauliFormatError,
    ResourceCapError,
    SolveError,
    WireError,
)
from .expansion import ExpansionResult, expand
from .observable import parse_observable

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_INPUT = 2
EXIT_SOLVE = 4
EXIT_CAP = 5


class _InputError(CliffgradError):
    """Command-line input that no library call checks: files, flags, results."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (a missing flag, a value that
    is no number) are _InputErrors, so main prints them as one line."""

    def error(self, message):
        raise _InputError(f"{self.prog}: {message}")


# Error class -> exit code; main takes the first class the error belongs to.
EXIT_CODES = {
    _InputError: EXIT_INPUT,
    PauliFormatError: EXIT_INPUT,
    ObservableFormatError: EXIT_INPUT,
    CircuitFormatError: EXIT_INPUT,
    WireError: EXIT_INPUT,
    DimensionMismatchError: EXIT_INPUT,
    SolveError: EXIT_SOLVE,
    ResourceCapError: EXIT_CAP,
    MemoryError: EXIT_CAP,
    CliffgradError: EXIT_GENERIC,
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_text(path: str) -> str:
    p = Path(path)
    try:
        if not p.is_file():
            raise _InputError(f"input file not found: {p}")
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _InputError(f"{p}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    except OSError as exc:  # a path the OS refuses, such as a name too long
        raise _InputError(f"input file not readable: {p}: {exc.strerror}")


def _load(path: str, parse):
    """parse(the text of the file at path), an _InputError naming the file
    when the text is no observable (parse_observable) or no ansatz
    (AnsatzCircuit.deserialize)."""
    try:
        return parse(_read_text(path))
    except (ObservableFormatError, CircuitFormatError) as exc:
        raise _InputError(f"{path}: {exc}")


def _document(args: argparse.Namespace, payload: dict) -> dict:
    """The output document: payload plus version, flags and input-file hashes."""
    config = {k: v for k, v in vars(args).items() if k not in ("func",)}
    inputs = {
        name: _sha256(Path(getattr(args, name)))
        for name in ("hamiltonian", "ansatz", "result")
        if getattr(args, name, None)
    }
    return {
        "tool_version": __version__,
        "command": args.command,
        "config": config,
        "inputs": inputs,
        **payload,
    }


_OUTPUT_FLAGS = ("out", "report_out", "trace_out")


def _check_output_paths(args: argparse.Namespace) -> None:
    """_InputError unless each output flag names a file in an existing directory."""
    for name in _OUTPUT_FLAGS:
        path = getattr(args, name, None)
        if not path:  # unset; an empty --out means stdout where _emit writes
            continue
        flag = "--" + name.replace("_", "-")
        try:
            if not Path(path).parent.is_dir():
                raise _InputError(f"{flag}: output directory not found: {Path(path).parent}")
            if Path(path).is_dir():
                raise _InputError(f"{flag}: output path is a directory: {path}")
        except OSError as exc:  # a path the OS refuses, such as a name too long
            raise _InputError(f"{flag}: output path not usable: {path}: {exc.strerror}")


def _non_finite(value, key: str = ""):
    """(key, value) of the first NaN or infinity in a document, the key
    dotted from the top (``iterations.3.cost``); None if there is none."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (key, value)
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, (list, tuple)) else ()
    for k, v in items:
        found = _non_finite(v, f"{key}.{k}" if key else str(k))
        if found:
            return found
    return None


def _emit(doc: dict, out: str | None) -> None:
    try:
        text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:  # NaN or infinity, which strict JSON cannot hold
        key, value = _non_finite(doc)
        raise CliffgradError(f"output document not written: {key} is {value}, "
                             "which strict JSON cannot hold")
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_ansatz(args) -> int:
    circ = generate_hwe_ansatz(args.qubits, args.depth, args.seed, args.variant)
    Path(args.out).write_text(circ.serialize())
    print(f"wrote {args.out}: n_qubits={circ.n_qubits} K={circ.n_params}")
    return EXIT_OK


def cmd_select_ansatz(args) -> int:
    obs = _load(args.hamiltonian, parse_observable)
    timings = {}
    best, sums = select_ansatz(
        args.count, args.qubits, args.depth, obs, args.reference, args.seed, args.variant,
        timings=timings,
    )
    Path(args.out).write_text(best.serialize())
    report = _document(
        args,
        {
            "candidates": [
                {"index": i, "seed_sum_abs_gradient": s} for i, s in enumerate(sums)
            ],
            "winner_index": int(best.metadata["candidate_index"]),
            "winner_sum_abs_gradient": max(sums),
            "timings": timings,
        },
    )
    _emit(report, args.report_out)
    print(f"wrote {args.out}: candidate {best.metadata['candidate_index']} "
          f"of {args.count}, sum|g| = {max(sums):.6g}")
    return EXIT_OK


def _check_non_negative(flag: str, value: float) -> None:
    if not 0 <= value < float("inf"):  # also rejects NaN
        raise _InputError(f"{flag} must be finite and >= 0, got {value!r}")


def _check_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise _InputError(f"{flag} must be >= {low}, got {value}")


def cmd_expand(args) -> int:
    _check_non_negative("--dropout-threshold", args.dropout_threshold)
    _check_non_negative("--rtol", args.rtol)
    obs = _load(args.hamiltonian, parse_observable)
    circ = _load(args.ansatz, AnsatzCircuit.deserialize)
    result = expand(
        circ,
        obs,
        args.reference,
        threshold=args.dropout_threshold,
        rtol=args.rtol,
        stable_subspace=args.stable_subspace,
    )
    _emit(_document(args, result.to_dict()), args.out)
    if args.out:
        print(
            f"wrote {args.out}: e0={result.e0:.10g} "
            f"optimum={result.perturbative_optimum:.10g} "
            f"kept {int(result.dropout_mask.sum())}/{result.n_params}"
        )
    return EXIT_OK


def _load_result(path: str, circ: AnsatzCircuit) -> ExpansionResult:
    """The expansion result at `path`, which must have the ansatz's width and n_params."""
    try:
        doc = json.loads(_read_text(path))
        result = ExpansionResult.from_dict(doc)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError; JSON nested too deeply is a RecursionError
        raise _InputError(f"{path}: invalid result document: {exc}")
    if result.n_qubits != circ.n_qubits:
        raise _InputError(
            f"{path}: result is on {result.n_qubits} qubits, ansatz on {circ.n_qubits}"
        )
    if result.theta_star.size != circ.n_params:
        raise _InputError(
            f"{path}: result has {result.theta_star.size} parameters, ansatz has {circ.n_params}"
        )
    return result


def cmd_verify(args) -> int:
    _check_at_least("--cap", args.cap, 1)  # a cap below one qubit admits no simulation
    obs = _load(args.hamiltonian, parse_observable)
    circ = _load(args.ansatz, AnsatzCircuit.deserialize)
    result = _load_result(args.result, circ)
    e_circuit = energy(circ, result.theta_star, args.reference, obs, cap=args.cap)
    with np.errstate(over="ignore"):  # an infinite norm is refused by _emit instead
        norm = float(np.linalg.norm(result.theta_star))
    payload = {
        "e0": result.e0,
        "circuit_value": e_circuit,
        "perturbative_optimum": result.perturbative_optimum,
        "gap": abs(e_circuit - result.perturbative_optimum),
        "theta_star_norm": norm,
    }
    if args.exact_ground:
        payload["exact_ground_energy"] = exact_ground_energy(obs)
    _emit(_document(args, payload), args.out)
    return EXIT_OK


_INIT_MODES = {"zero": "zero", "pert": "theta_star", "pert-hessian": "theta_star_with_hessian"}


def cmd_optimize(args) -> int:
    _check_non_negative("--gtol", args.gtol)
    _check_at_least("--max-iters", args.max_iters, 0)
    _check_at_least("--cap", args.cap, 1)
    obs = _load(args.hamiltonian, parse_observable)
    circ = _load(args.ansatz, AnsatzCircuit.deserialize)
    # a result given with --init zero is not used, but its hash is in the document
    expansion = _load_result(args.result, circ) if args.result else None
    if args.init != "zero" and expansion is None:
        raise _InputError(f"--init {args.init} requires --result")
    trace = optimize_bfgs(
        circ,
        obs,
        args.reference,
        init=_INIT_MODES[args.init],
        expansion=expansion,
        gtol=args.gtol,
        max_iterations=args.max_iters,
        cap=args.cap,
    )
    _emit(_document(args, trace.to_dict()), args.trace_out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    def add_input_flags(p):
        for flag in ("--hamiltonian", "--ansatz", "--reference"):
            p.add_argument(flag, required=True)

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
    add_input_flags(p)
    p.add_argument("--dropout-threshold", type=float, default=1e-6)
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--stable-subspace", action="store_true")
    p.add_argument("--jobs", type=int, default=None, help="accepted and ignored")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="dense E(theta*) vs the quadratic model")
    add_input_flags(p)
    p.add_argument("--result", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_QUBIT_CAP)
    p.add_argument("--exact-ground", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("optimize", help="BFGS with zero/pert/pert-hessian init")
    add_input_flags(p)
    p.add_argument("--result", default=None)
    p.add_argument("--init", choices=tuple(_INIT_MODES), default="zero")
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--gtol", type=float, default=1e-6)
    p.add_argument("--cap", type=int, default=DEFAULT_QUBIT_CAP)
    p.add_argument("--trace-out", default=None)
    p.set_defaults(func=cmd_optimize)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_output_paths(args)
        return args.func(args)
    except (CliffgradError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
