"""Layer timings of the packed Pauli, tableau and dense kernels (pytest-benchmark).

The file name keeps it out of the default test collection; run it as

    PYTHONPATH=src python -m pytest -q tests/bench_layers.py

Each kernel runs at n = 8, 64, 65 and 256 qubits (one, one, two and four
packed words) on a tableau evolved by a random Clifford circuit:

- mul_rows: a 64 x 64 broadcast product of random rows,
- input_frame: 256 random rows mapped to the input frame,
- expectation: one Pauli with a nonzero expectation (the frame path),
- conjugate_rows: a block of 256 rows through 32 random Clifford gates.

The dense simulator's gates are timed as one energy-and-gradient sweep (one
forward and one backward pass) at n = 8 and 12 on a real depth-2 ansatz and
a chain Hamiltonian, over the gate-by-gate op list and over the
Pauli-rotation normal form that BFGS uses.
"""

from __future__ import annotations

import numpy as np
import pytest

from cliffgrad import dense
from cliffgrad.circuit import generate_hwe_ansatz
from cliffgrad.observable import Observable
from cliffgrad.pauli import PauliString, mul_rows, stack_rows
from cliffgrad.tableau import StabilizerTableau, conjugate_pauli, conjugate_rows

from conftest import random_clifford_gates, random_pauli

WIDTHS = (8, 64, 65, 256)
ROWS = 256


def _rows(n: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    return stack_rows([random_pauli(rng, n) for _ in range(count)], n)


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


@pytest.mark.parametrize("form", ("gates", "normal"))
@pytest.mark.parametrize("n", (8, 12))
def test_energy_and_gradient(benchmark, n, form):
    circ = generate_hwe_ansatz(n, 2, 1, "real")
    terms = {f"{a}{q} {a}{q + 1}": 1.0 for q in range(n - 1) for a in "XYZ"}
    obs = Observable.from_strings(n, terms)
    reference = "01" * (n // 2)
    if form == "gates":
        ops = dense._op_list(circ, dense.DEFAULT_QUBIT_CAP)
        start = dense.basis_state(reference, n)
    else:
        ops, start = dense._normal_form(circ, reference, dense.DEFAULT_QUBIT_CAP)
    actions = dense._observable_actions(obs)
    theta = np.random.default_rng(n).uniform(-np.pi, np.pi, circ.n_params)
    benchmark(dense._energy_and_gradient, ops, actions, start, theta, n)
