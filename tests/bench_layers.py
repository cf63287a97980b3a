"""Layer timings of the packed Pauli, tableau and dense kernels (pytest-benchmark).

The file name keeps it out of the default test collection; run it as

    PYTHONPATH=src python -m pytest -q tests/bench_layers.py

Each kernel runs at n = 8, 64, 65 and 256 qubits (one, one, two and four
packed words) on a tableau evolved by a random Clifford circuit:

- mul_rows: a 64 x 64 broadcast product of random rows,
- pauli_mul: the same 4096 products of the same rows, one PauliString
  pair at a time (the per-object path; pauli.mul_per_s in the benchmark),
- input_frame: 256 random rows mapped to the input frame,
- expectation: one Pauli with a nonzero expectation (the frame path),
- conjugate_rows: a block of 256 rows through 32 random Clifford gates,
- conjugate_rows_1q: the same block through 32 random single-qubit gates
  (H, S, SDG, X, Y, Z and C1) only.

select_ansatz screens 32 candidates of depth 2, real and complex, at n = 8
and 65 against a Heisenberg chain (XX + YY + ZZ on every bond), three
rounds each: the skeleton and the dressings, one sweep of the skeleton per
chunk of dressings, the gradients, and the winner's circuit.

The dense simulator's gates are timed as one energy-and-gradient sweep (one
forward and one backward pass) over the gate-by-gate op list and over the
Pauli-rotation normal form that BFGS uses, each with the compiled gather
tables of its rotations and the observable's operator (one gather per
distinct X part): at n = 8 and 12 on a real depth-2 ansatz and a chain
Hamiltonian (chain-8, chain-12), and at n = 12 on a real depth-1 ansatz and
the Jordan-Wigner-like document _jw_document(12, 900, 12) below (jw-12:
639 terms, 368 X parts), where applying O is most of the sweep.
exact_ground_energy is timed on Heisenberg chains at n = 8 (Lanczos over
the 8 X parts of the 21 terms) and n = 12 (12 X parts of 33 terms), the
operator's building included.

conftest.py pins the BLAS and OpenMP pools to one thread before numpy loads,
as benchmark/run.py does, so the timings measure the kernels and not thread
hand-off.

parse_observable is timed on a generated Jordan-Wigner-like document of
60,000 lines on 48 qubits (the width of an H24 chain), three rounds: one-
and two-body terms, each pair of X/Y letters joined by a string of Z, with
coefficients from a fixed seed. No file is committed; the document is built
before the clock starts.

compute_hessian is timed on two instances, three rounds each: the shipped
8-site chain with a real depth-4 ansatz and no dropout (K = 72), and a
66-qubit dimerized chain (staggered Z fields, XX on every other bond; two
packed words) with a real depth-1 ansatz at dropout 1e-6 (64 of 198 kept).
expansion_frame times the stage that e0, the gradient and the Hessian
share on the same two instances: one input_frame call over the terms and
all K generators, and the (K, N_o) mul_rows product, without the pair loop.
state_and_generators times what expand does before the frame, the state
(clifford_point_state) and the generators (conjugate_generators), on the
same two instances and on a complex depth-2 ansatz at n = 8.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from cliffgrad import dense
from cliffgrad.circuit import conjugate_generators, generate_hwe_ansatz, select_ansatz
from cliffgrad.expansion import _Frame, apply_dropout, compute_gradient, compute_hessian
from cliffgrad.observable import Observable, parse_observable
from cliffgrad.pauli import PauliString, mul_rows, pauli_mul, stack_rows
from cliffgrad.tableau import StabilizerTableau, conjugate_pauli, conjugate_rows

from conftest import random_clifford_gates, random_pauli

CHAIN8 = Path(__file__).resolve().parents[1] / "data" / "chain8.txt"
WIDTHS = (8, 64, 65, 256)
ROWS = 256


def _paulis(n: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    return [random_pauli(rng, n) for _ in range(count)]


def _rows(n: int, count: int, seed: int):
    return stack_rows(_paulis(n, count, seed), n)


def _state(n: int):
    """A tableau after 4n random gates, and a Pauli with nonzero expectation."""
    rng = np.random.default_rng(n)
    gates = random_clifford_gates(rng, n, 4 * n)
    t = StabilizerTableau(n).apply_circuit(gates)
    diagonal = PauliString.from_bits([0] * n, rng.integers(0, 2, n))
    return t, conjugate_pauli(gates, diagonal)


@pytest.mark.parametrize("n", WIDTHS)
def test_mul_rows(benchmark, n):
    x, z, p = _rows(n, 128, 0)
    a, b = (x[:64, None], z[:64, None], p[:64, None]), (x[None, 64:], z[None, 64:], p[None, 64:])
    benchmark(mul_rows, *a, *b)


@pytest.mark.parametrize("n", WIDTHS)
def test_pauli_mul(benchmark, n):
    ps = _paulis(n, 128, 0)

    def products():
        for a in ps[:64]:
            for b in ps[64:]:
                pauli_mul(a, b)

    benchmark(products)


@pytest.mark.parametrize("n", WIDTHS)
def test_input_frame(benchmark, n):
    t, _ = _state(n)
    rows = _rows(n, ROWS, 1)
    benchmark(t.input_frame, *rows)


@pytest.mark.parametrize("n", WIDTHS)
def test_expectation(benchmark, n):
    t, q = _state(n)
    assert benchmark(t.expectation, q) != 0


@pytest.mark.parametrize("n", WIDTHS)
def test_conjugate_rows(benchmark, n):
    x, z, _ = _rows(n, ROWS, 2)
    r = np.zeros(ROWS, dtype=np.uint8)
    gates = random_clifford_gates(np.random.default_rng(3), n, 32)

    def sweep():
        for g in gates:
            conjugate_rows(x, z, r, g)

    benchmark(sweep)


@pytest.mark.parametrize("n", WIDTHS)
def test_conjugate_rows_1q(benchmark, n):
    x, z, _ = _rows(n, ROWS, 2)
    r = np.zeros(ROWS, dtype=np.uint8)
    rng = np.random.default_rng(4)
    gates = [g for g in random_clifford_gates(rng, n, 96) if len(g.wires) == 1][:32]

    def sweep():
        for g in gates:
            conjugate_rows(x, z, r, g)

    benchmark(sweep)


@pytest.mark.parametrize("variant", ("real", "complex"))
@pytest.mark.parametrize("n", (8, 65))
def test_select_ansatz(benchmark, n, variant):
    terms = {f"{a}{q} {a}{q + 1}": 1.0 for q in range(n - 1) for a in "XYZ"}
    obs = Observable.from_strings(n, terms)
    reference = ("01" * n)[:n]
    benchmark.pedantic(
        select_ansatz, (32, n, 2, obs, reference, 5, variant), rounds=3, iterations=1
    )


@pytest.mark.parametrize("form", ("gates", "normal"))
@pytest.mark.parametrize("name, n", (("chain", 8), ("chain", 12), ("jw", 12)))
def test_energy_and_gradient(benchmark, name, n, form):
    if name == "jw":
        circ, obs = generate_hwe_ansatz(n, 1, 1, "real"), parse_observable(_jw_document(n, 900, n))
    else:
        circ = generate_hwe_ansatz(n, 2, 1, "real")
        terms = {f"{a}{q} {a}{q + 1}": 1.0 for q in range(n - 1) for a in "XYZ"}
        obs = Observable.from_strings(n, terms)
    reference = "01" * (n // 2)
    if form == "gates":
        ops = dense._op_list(circ, dense.DEFAULT_QUBIT_CAP)
        start = dense.basis_state(reference, n)
    else:
        ops, start = dense._normal_form(circ, reference, dense.DEFAULT_QUBIT_CAP)
    operator = dense._operator(obs)
    theta = np.random.default_rng(n).uniform(-np.pi, np.pi, circ.n_params)
    benchmark(dense._energy_and_gradient, ops, operator, start, theta, n)


@pytest.mark.parametrize("n", (8, 12))
def test_exact_ground_energy(benchmark, n):
    terms = {f"{a}{q} {a}{q + 1}": 1.0 for q in range(n - 1) for a in "XYZ"}
    benchmark(dense.exact_ground_energy, Observable.from_strings(n, terms))


def _jw_document(n: int, lines: int, seed: int) -> str:
    """Terms like Jordan-Wigner hopping: X or Y on two or four sorted qubits,
    each pair joined by Z on every qubit between them."""
    rng = np.random.default_rng(seed)
    out = [f"qubits {n}"]
    for _ in range(lines):
        qubits = np.sort(rng.choice(n, size=2 * int(rng.integers(1, 3)), replace=False))
        letters = {}
        for a, b in zip(qubits[::2], qubits[1::2]):
            letters |= {q: "Z" for q in range(a + 1, b)}
            letters[a], letters[b] = rng.choice(["X", "Y"], 2)
        tokens = " ".join(f"{letters[q]}{q}" for q in sorted(letters))
        out.append(f"{rng.normal():.15g} {tokens}")
    return "\n".join(out) + "\n"


def test_parse_observable(benchmark):
    document = _jw_document(48, 60_000, 48)
    obs = benchmark.pedantic(parse_observable, (document,), rounds=3, iterations=1)
    assert obs.n_qubits == 48 and obs.n_terms > 0


def _hessian_instance(name: str):
    """(observable, ansatz, reference, dropout threshold)."""
    if name == "chain8":
        obs = parse_observable(CHAIN8.read_text())
        return obs, generate_hwe_ansatz(8, 4, 1, "real"), "01010101", 0.0
    n, rng = 66, np.random.default_rng(66)
    terms = {f"Z{j}": float(rng.uniform(0.8, 1.2)) * (-1) ** (j + 1) for j in range(n)}
    terms |= {f"X{j} X{j + 1}": float(rng.uniform(0.05, 0.25)) for j in range(0, n - 1, 2)}
    return Observable.from_strings(n, terms), generate_hwe_ansatz(n, 1, 1, "real"), "01" * 33, 1e-6


@pytest.mark.parametrize("name", ("chain8", "wide66"))
def test_compute_hessian(benchmark, name):
    obs, circ, reference, threshold = _hessian_instance(name)
    state0 = circ.clifford_point_state(reference)
    gens = conjugate_generators(circ)
    mask = apply_dropout(compute_gradient(obs, state0, gens), threshold)
    benchmark.pedantic(compute_hessian, (obs, state0, gens, mask), rounds=3, iterations=1)


@pytest.mark.parametrize("name", ("chain8", "wide66"))
def test_expansion_frame(benchmark, name):
    obs, circ, reference, _ = _hessian_instance(name)
    state0 = circ.clifford_point_state(reference)
    gens = conjugate_generators(circ)
    benchmark(_Frame, obs, state0, gens)


@pytest.mark.parametrize("name", ("chain8", "wide66", "complex8"))
def test_state_and_generators(benchmark, name):
    if name == "complex8":
        circ, reference = generate_hwe_ansatz(8, 2, 1, "complex"), "01010101"
    else:
        _, circ, reference, _ = _hessian_instance(name)

    def sweep():
        circ.clifford_point_state(reference)
        conjugate_generators(circ)

    benchmark(sweep)
