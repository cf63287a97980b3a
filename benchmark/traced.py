"""Stage-by-stage replay of the cliffgrad commands for the traced run.

Each replay parses the command's own argv with ``cliffgrad.cli``'s parser
and calls the library's public functions in the order the command does,
with one span per call, all inside one ``replay`` span. The replay writes
its document next to the command's, with a ``.replay`` suffix, and
``REPLAY_FIELDS`` lists the fields that must equal the command's output.

The replay's glue (file reads, input hashes, the JSON document) is a copy
of the CLI's, so the CLI layer is measured on the commands themselves:
``cli_spans`` opens a ``cli.main`` span around each command and a span
around each library call that ``cliffgrad.cli`` makes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from cliffgrad import (
    AnsatzCircuit,
    ExpansionResult,
    __version__,
    apply_dropout,
    compute_gradient,
    compute_hessian,
    conjugate_generators,
    energy,
    exact_ground_energy,
    finite_diff_gradient,
    generate_hwe_ansatz,
    optimize_bfgs,
    parse_observable,
    pauli_mul,
    solve_quadratic,
)
from cliffgrad import cli
from cliffgrad.circuit import candidate_seed
from cliffgrad.cli import _INIT_MODES, build_parser
from cliffgrad.dense import OptimizationTrace, warm_start_hess_inv
from cliffgrad.expansion import _ExpectationCache

from checks import ground_agrees

# Fields of each command's document that the replay must reproduce exactly.
REPLAY_FIELDS = {
    "expand": ("e0", "gradient", "hessian", "dropout", "theta_star", "perturbative_optimum", "rank",
               "counters"),
    "select-ansatz": ("candidates", "winner_index", "winner_sum_abs_gradient"),
    "verify": ("e0", "circuit_value", "perturbative_optimum", "gap", "theta_star_norm"),
    "optimize": ("iterations", "final_cost", "n_iterations", "converged", "message"),
}

PROBE_SECONDS = 0.5   # minimum measuring time of each throughput probe
PROBE_DISTINCT = 2000  # cap on distinct products timed by the tableau probe


def _load(args, span):
    obs_text = Path(args.hamiltonian).read_text()
    with span("observable.parse"):
        obs = parse_observable(obs_text)
    circ_text = Path(args.ansatz).read_text()
    with span("circuit.deserialize"):
        circ = AnsatzCircuit.deserialize(circ_text)
    return obs, circ


def _load_result(path, span):
    doc = json.loads(Path(path).read_text())
    with span("expansion.from_dict"):
        return ExpansionResult.from_dict(doc)


def _expand(args, span) -> dict:
    obs, circ = _load(args, span)
    with span("circuit.state_prep"):
        state0 = circ.clifford_point_state(args.reference)
    cache = _ExpectationCache(state0)  # shared by both stages, as in expand()
    with span("observable.e0"):
        e0 = obs.expectation_at_clifford_point(state0)
    with span("expansion.conjugate"):
        gens = conjugate_generators(circ)
    with span("expansion.gradient"):
        gradient = compute_gradient(obs, state0, gens, cache)
    with span("expansion.dropout"):
        mask = apply_dropout(gradient, args.dropout_threshold)
    with span("expansion.hessian"):
        hessian = compute_hessian(obs, state0, gens, mask, e0, args.jobs, cache)
    with span("expansion.solve"):
        theta, optimum, rank = solve_quadratic(
            e0, gradient, hessian, mask, args.rtol, args.stable_subspace
        )
    with span("expansion.to_dict"):
        return ExpansionResult(
            n_qubits=circ.n_qubits, e0=e0, gradient=gradient, hessian_kept=hessian,
            dropout_mask=mask, dropout_threshold=args.dropout_threshold,
            theta_star=theta, perturbative_optimum=optimum, rank=rank, rtol=args.rtol,
            stable_subspace=args.stable_subspace,
            counters={
                "n_qubits": circ.n_qubits, "K": int(mask.size), "K_kept": int(mask.sum()),
                "N_o": obs.n_terms, "pauli_expectations_evaluated": cache.misses,
                "expectation_cache_hits": cache.hits,
            },
        ).to_dict()


def _select(args, span) -> dict:
    obs_text = Path(args.hamiltonian).read_text()
    with span("observable.parse"):
        obs = parse_observable(obs_text)
    best, best_sum, sums = None, -1.0, []
    for i in range(args.count):
        with span("circuit.generate"):
            cand = generate_hwe_ansatz(
                args.qubits, args.depth, candidate_seed(args.seed, i), args.variant
            )
        cand.metadata["candidate_index"] = i
        cand.metadata["master_seed"] = int(args.seed)
        with span("circuit.state_prep"):
            state0 = cand.clifford_point_state(args.reference)
        with span("expansion.conjugate"):
            gens = conjugate_generators(cand)
        with span("expansion.gradient"):
            g = compute_gradient(obs, state0, gens)
        s = float(np.abs(g).sum())
        sums.append(s)
        if s > best_sum:
            best, best_sum = cand, s
    with span("circuit.serialize"):
        text = best.serialize()
    Path(args.out + ".replay").write_text(text)
    return {
        "candidates": [{"index": i, "seed_sum_abs_gradient": s} for i, s in enumerate(sums)],
        "winner_index": int(best.metadata["candidate_index"]),
        "winner_sum_abs_gradient": max(sums),
    }


def _verify(args, span) -> dict:
    obs, circ = _load(args, span)
    result = _load_result(args.result, span)
    with span("dense.energy"):
        value = energy(circ, result.theta_star, args.reference, obs, cap=args.cap)
    payload = {
        "e0": result.e0,
        "circuit_value": value,
        "perturbative_optimum": result.perturbative_optimum,
        "gap": abs(value - result.perturbative_optimum),
        "theta_star_norm": float(np.linalg.norm(result.theta_star)),
    }
    if args.exact_ground:
        with span("dense.exact_ground"):
            payload["exact_ground_energy"] = exact_ground_energy(obs)
    return payload


def _optimize(args, span) -> dict:
    obs, circ = _load(args, span)
    expansion = None if args.init == "zero" else _load_result(args.result, span)
    with span("dense.optimize_bfgs_cold" if args.init == "zero" else "dense.optimize_bfgs_warm"):
        trace = optimize_bfgs(
            circ, obs, args.reference, init=_INIT_MODES[args.init], expansion=expansion,
            gtol=args.gtol, max_iterations=args.max_iters, cap=args.cap,
        )
    return trace.to_dict()


_REPLAYS = {"expand": _expand, "select-ansatz": _select, "verify": _verify, "optimize": _optimize}
_INPUTS = {
    "expand": ("hamiltonian", "ansatz"),
    "select-ansatz": ("hamiltonian",),
    "verify": ("hamiltonian", "ansatz", "result"),
    "optimize": ("hamiltonian", "ansatz", "result"),
}


def replay(argv, tracer) -> dict:
    """Run one command stage by stage under ``tracer``; return its document."""
    with tracer.span("replay"):
        args = build_parser().parse_args(argv)
        payload = _REPLAYS[args.command](args, tracer.span)
        inputs = {}
        for name in _INPUTS[args.command]:
            path = getattr(args, name)
            if path:
                inputs[name] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        doc = {
            "tool_version": __version__,
            "command": args.command,
            "config": {k: v for k, v in vars(args).items() if k != "func"},
            "inputs": inputs,
            **payload,
        }
        out = args.report_out if args.command == "select-ansatz" else (
            args.trace_out if args.command == "optimize" else args.out)
        Path(out + ".replay").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


# Where cliffgrad.cli calls into the library.
CLI_CALLS = (
    (cli, "parse_observable"), (cli, "expand"), (cli, "select_ansatz"), (cli, "energy"),
    (cli, "exact_ground_energy"), (cli, "optimize_bfgs"),
    (AnsatzCircuit, "deserialize"), (AnsatzCircuit, "serialize"),
    (ExpansionResult, "from_dict"), (ExpansionResult, "to_dict"), (OptimizationTrace, "to_dict"),
)


@contextmanager
def cli_spans(tracer):
    """Spans around ``cliffgrad.cli.main`` and around each library call in ``CLI_CALLS``.

    The self time of the ``cli.main`` spans is then the CLI layer's own work
    in the commands themselves: argument parsing, file reads, input hashes
    and the JSON documents.
    """
    targets = [(cli, "main", "cli.main")] + [
        (owner, attr, f"call.{owner.__name__}.{attr}") for owner, attr in CLI_CALLS]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, name in targets:
            setattr(owner, attr, _spanned(owner.__dict__[attr], name, tracer))
        yield
    finally:
        for owner, attr, raw in saved:
            setattr(owner, attr, raw)


def _spanned(raw, name, tracer):
    if isinstance(raw, classmethod):
        return classmethod(_spanned(raw.__func__, name, tracer))

    @functools.wraps(raw)
    def call(*args, **kwargs):
        with tracer.span(name):
            return raw(*args, **kwargs)

    return call


def replay_mismatches(command_doc: dict, replay_doc: dict) -> list:
    """Fields where the replay differs from the command's output, bit for bit."""
    fields = REPLAY_FIELDS[command_doc["command"]]
    bad = [f for f in fields if command_doc.get(f) != replay_doc.get(f)]
    if not ground_agrees(command_doc, replay_doc):
        bad.append("exact_ground_energy")
    return bad


def _throughput(fn, items) -> float:
    """Calls per second of ``fn`` over ``items``, repeated for PROBE_SECONDS."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        for item in items:
            fn(item)
        calls += len(items)
        elapsed = time.perf_counter() - t0
        if elapsed >= PROBE_SECONDS:
            return calls / elapsed


def layer_probes(loaded) -> dict:
    """Throughput of the Pauli and tableau layers on the workload's own products.

    ``loaded`` holds (ansatz, observable, reference) per expanded instance.
    The products are each observable term times each conjugated generator,
    at the instance's width; the tableau probe evaluates their distinct
    unphased forms on the instance's Clifford-point state.
    """
    pairs, distinct = [], []
    for circ, obs, ref in loaded:
        gens = conjugate_generators(circ).paulis
        state = circ.clifford_point_state(ref)
        seen = set()
        for pk in gens:
            for _, p in obs.terms:
                pairs.append((p, pk))
                q = pauli_mul(p, pk)
                if q.key() not in seen and len(distinct) < PROBE_DISTINCT:
                    seen.add(q.key())
                    distinct.append((state, q.unphased()))
    return {
        "pauli.mul_per_s": _throughput(lambda ab: pauli_mul(*ab), pairs),
        "tableau.expectation_per_s": _throughput(lambda sq: sq[0].expectation(sq[1]), distinct),
    }


def dense_probes(circ, obs, ref, result_doc) -> dict:
    """One standalone call each of the dense calls that optimize_bfgs makes internally."""
    out = {}
    t0 = time.perf_counter()
    finite_diff_gradient(circ, obs, ref)
    out["dense.fd_gradient_s"] = time.perf_counter() - t0
    hessian = ExpansionResult.from_dict(result_doc).hessian_full()
    t0 = time.perf_counter()
    warm_start_hess_inv(hessian)
    out["dense.warm_start_hess_inv_s"] = time.perf_counter() - t0
    return out
