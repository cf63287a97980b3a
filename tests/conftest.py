"""Shared helpers: random instances and dense-matrix oracles."""

from __future__ import annotations

import itertools
import os

# Pin the BLAS/OpenMP pools before numpy loads, as benchmark/run.py does:
# pytest imports this file before any test module, so a pin in a test module
# would come too late. On a shared 2-core machine a threaded pool makes the
# layer timings of bench_layers.py measure thread hand-off, not the kernels.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from cliffgrad.circuit import AnsatzCircuit, RotationGate, generate_hwe_ansatz  # noqa: E402
from cliffgrad.dense import _MAT_1Q, _MAT_C1, _apply_matrix, gate_matrix  # noqa: E402
from cliffgrad.observable import Observable  # noqa: E402
from cliffgrad.pauli import PauliString  # noqa: E402
from cliffgrad.tableau import CliffordGate, StabilizerTableau  # noqa: E402

GATE_KINDS = ["H", "S", "SDG", "X", "Y", "Z", "CNOT", "CZ", "SWAP", "C1"]


def random_clifford_gates(rng: np.random.Generator, n: int, count: int) -> list:
    gates = []
    while len(gates) < count:
        kind = GATE_KINDS[rng.integers(0, len(GATE_KINDS))]
        if kind in ("CNOT", "CZ", "SWAP"):
            if n < 2:
                continue
            a, b = rng.choice(n, 2, replace=False)
            gates.append(CliffordGate(kind, (int(a), int(b))))
        elif kind == "C1":
            gates.append(CliffordGate(kind, (int(rng.integers(0, n)),), int(rng.integers(0, 24))))
        else:
            gates.append(CliffordGate(kind, (int(rng.integers(0, n)),)))
    return gates


def general_clifford_circuit(rng, n, n_rotations):
    """Rotations between random Clifford gates, param ids shuffled.

    Unlike a generated ansatz, the Clifford part is not the identity.
    """
    elements = []
    for k in rng.permutation(n_rotations):
        elements += random_clifford_gates(rng, n, int(rng.integers(0, 4)))
        elements.append(RotationGate("XYZ"[rng.integers(0, 3)], int(rng.integers(0, n)), int(k)))
    return AnsatzCircuit(n, elements + random_clifford_gates(rng, n, 3))


def random_pauli(rng: np.random.Generator, n: int, hermitian: bool = False) -> PauliString:
    phase = 2 * int(rng.integers(0, 2)) if hermitian else int(rng.integers(0, 4))
    return PauliString.from_bits(rng.integers(0, 2, n), rng.integers(0, 2, n), phase)


def random_observable(rng: np.random.Generator, n: int, max_terms: int = 16) -> Observable:
    # distinct strings are drawn, and only 4^n exist on n qubits
    n_terms = int(rng.integers(1, min(max_terms, 4**n) + 1))
    terms = {}
    while len(terms) < n_terms:
        toks = []
        for q in range(n):
            letter = "IXYZ"[rng.integers(0, 4)]
            if letter != "I":
                toks.append(f"{letter}{q}")
        terms.setdefault(" ".join(toks), float(rng.normal()))
    return Observable.from_strings(n, terms)


def random_bitstring(rng: np.random.Generator, n: int) -> str:
    return "".join(rng.choice(["0", "1"], n))


def random_instance(rng: np.random.Generator, max_qubits: int = 8, max_depth: int = 4):
    """A generated ansatz, random observable, and random basis reference.

    Larger widths fall back to the real variant and shallower depth to keep
    finite-difference oracles affordable.
    """
    n = int(rng.integers(2, max_qubits + 1))
    depth = int(rng.integers(1, max_depth + 1))
    variant = "complex" if (2 * depth + 1) * n * 3 <= 48 else "real"
    if (2 * depth + 1) * n > 80:
        depth = 2
    ansatz = generate_hwe_ansatz(n, depth, int(rng.integers(0, 1 << 31)), variant)
    obs = random_observable(rng, n, max_terms=16)
    return ansatz, obs, random_bitstring(rng, n)


def dense_unitary(gates, n: int) -> np.ndarray:
    """Full 2^n unitary of a Clifford gate list (time order)."""
    cols = np.eye(2**n, dtype=complex)
    for g in gates:
        cols = _apply_matrix(cols, gate_matrix(g), g.wires, n)
    # row i of cols is U|i>, so the unitary is the transpose
    return cols.T


def statevector_of(gates, n: int, bitstring: str) -> np.ndarray:
    psi = np.zeros((1, 2**n), dtype=complex)
    psi[0, int(bitstring, 2)] = 1.0
    for g in gates:
        psi = _apply_matrix(psi, gate_matrix(g), g.wires, n)
    return psi[0]


# ---------------------------------------------------------------------------
# Shift-rule oracle: e0, g and A from energies at Clifford points
#
# Along one parameter E(t) = α + β cos 2t + γ sin 2t, and at t = m·π/4 each
# rotation exp(i t P) is a single-qubit Clifford gate up to a global phase.
# So g and A follow exactly from energies of Clifford circuits, each read
# off one stabilizer state: no generator is conjugated, no frame product is
# formed and no derivative identity is used (Mitarai et al.,
# arXiv:1803.00745; Schuld et al., arXiv:1811.11184).
# ---------------------------------------------------------------------------


def _rotation_as_c1(axis: str, m: int) -> int:
    """The C1 entry equal to exp(i·m·π/4·P) up to phase, P the axis's Pauli."""
    u = np.cos(m * np.pi / 4) * np.eye(2) + 1j * np.sin(m * np.pi / 4) * _MAT_1Q[axis]
    # |tr(C† U)| = 2 exactly when C equals U up to a phase
    (entry,) = [i for i, c in enumerate(_MAT_C1) if abs(abs(np.trace(c.conj().T @ u)) - 2) < 1e-9]
    return entry


SHIFT_C1 = {(axis, m): _rotation_as_c1(axis, m) for axis in "XYZ" for m in (-1, 1, 2)}


def clifford_point_energy(ansatz: AnsatzCircuit, obs: Observable, reference: str,
                          shifts: dict) -> float:
    """E(θ) at θ_k = shifts[k]·π/4, every other θ 0: rotation k becomes the
    C1 gate SHIFT_C1[axis, shifts[k]], every other rotation is dropped, and
    E is read off the stabilizer state of that Clifford circuit."""
    gates = [
        e if isinstance(e, CliffordGate)
        else CliffordGate("C1", (e.wire,), SHIFT_C1[e.axis, shifts[e.param]])
        for e in ansatz.elements
        if isinstance(e, CliffordGate) or shifts.get(e.param)
    ]
    state = StabilizerTableau(ansatz.n_qubits, reference).apply_circuit(gates)
    return obs.expectation_at_clifford_point(state)


def shift_rule_derivatives(ansatz: AnsatzCircuit, obs: Observable, reference: str, params):
    """(e0, g, A) over the parameters `params`, by the exact shift rule:

        g_k  = E(+π/4·e_k) − E(−π/4·e_k)
        A_kk = 2 (E(π/2·e_k) − e0)
        A_kl = E(++) − E(+−) − E(−+) + E(−−), with shifts ±π/4 of θ_k and θ_l.
    """
    def E(shifts: dict) -> float:
        return clifford_point_energy(ansatz, obs, reference, shifts)

    e0 = E({})
    g = np.array([E({k: 1}) - E({k: -1}) for k in params])
    A = np.diag([2.0 * (E({k: 2}) - e0) for k in params])
    for (s, k), (t, l) in itertools.combinations(enumerate(params), 2):
        A[s, t] = A[t, s] = (E({k: 1, l: 1}) - E({k: 1, l: -1})
                             - E({k: -1, l: 1}) + E({k: -1, l: -1}))
    return e0, g, A


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)
