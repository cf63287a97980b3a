import itertools

import numpy as np
import pytest

from cliffgrad.errors import DimensionMismatchError, WireError
from cliffgrad.pauli import PHASES, PauliString, commutes, parse_pauli, stack_rows
from cliffgrad.tableau import (
    CLIFFORD_1Q_INVERSE,
    CLIFFORD_1Q_WORDS,
    CliffordGate,
    StabilizerTableau,
    conjugate_pauli,
    conjugate_rows,
)

from conftest import dense_unitary, random_clifford_gates, random_pauli, statevector_of

# One packed word, two words, and three words with a partial last word.
WIDTHS = (3, 65, 130)


def test_initial_tableau_from_bitstring():
    t = StabilizerTableau(3, "010")
    assert t.stabilizer(0) == parse_pauli("Z0", 3)
    assert t.stabilizer(1) == parse_pauli("Z1", 3).with_phase(2)
    assert t.stabilizer(2) == parse_pauli("Z2", 3)


def test_h_makes_plus_state():
    t = StabilizerTableau(1).apply(CliffordGate("H", (0,)))
    assert t.stabilizer(0) == parse_pauli("X0", 1)


def test_cnot_spreads_z():
    t = StabilizerTableau(2).apply(CliffordGate("CNOT", (0, 1)))
    stabs = {s.to_text() for s in t.stabilizers()}
    assert stabs == {"Z0", "Z0 Z1"}


def test_wire_validation():
    with pytest.raises(WireError):
        CliffordGate("CNOT", (0, 0))
    with pytest.raises(WireError):
        CliffordGate("C1", (0,), 24)
    with pytest.raises(WireError):
        StabilizerTableau(2).apply(CliffordGate("H", (5,)))


def test_clifford_word_table_is_the_full_group():
    # 24 distinct conjugation actions, inverses consistent
    seen = set()
    for i in range(24):
        gates = [CliffordGate("C1", (0,), i)]
        imx = conjugate_pauli(gates, parse_pauli("X0", 1))
        imz = conjugate_pauli(gates, parse_pauli("Z0", 1))
        seen.add((imx.to_text(), imx.phase, imz.to_text(), imz.phase))
        inv = [CliffordGate("C1", (0,), CLIFFORD_1Q_INVERSE[i])]
        assert conjugate_pauli(gates + inv, parse_pauli("X0", 1)) == parse_pauli("X0", 1)
        assert conjugate_pauli(gates + inv, parse_pauli("Z0", 1)) == parse_pauli("Z0", 1)
    assert len(seen) == 24


def test_clifford_table_matches_shipped_data_file():
    from pathlib import Path

    import cliffgrad

    path = Path(cliffgrad.__file__).parent / "data" / "single_qubit_cliffords.txt"
    rows = [l.split() for l in path.read_text().splitlines() if l and not l.startswith("#")]
    assert len(rows) == 24
    for row in rows:
        i = int(row[0])
        word = "" if row[1] == "-" else row[1]
        assert CLIFFORD_1Q_WORDS[i] == word
        assert CLIFFORD_1Q_INVERSE[i] == int(row[4])


def test_conjugate_examples():
    assert conjugate_pauli([CliffordGate("H", (0,))], parse_pauli("X0", 1)) == parse_pauli("Z0", 1)
    assert conjugate_pauli([CliffordGate("CNOT", (0, 1))], parse_pauli("Z0", 2)) == parse_pauli("Z0", 2)


def test_conjugate_random_matches_dense(rng):
    for _ in range(40):
        n = int(rng.integers(2, 4))
        gates = random_clifford_gates(rng, n, 5)
        p = random_pauli(rng, n, hermitian=True)
        got = conjugate_pauli(gates, p)
        assert got.is_hermitian
        U = dense_unitary(gates, n)
        assert np.allclose(got.to_matrix(), U @ p.to_matrix() @ U.conj().T, atol=1e-9)


def test_conjugation_composes_and_preserves_commutation(rng):
    n = 4
    g1 = random_clifford_gates(rng, n, 4)
    g2 = random_clifford_gates(rng, n, 4)
    for _ in range(20):
        a = random_pauli(rng, n)
        b = random_pauli(rng, n)
        assert conjugate_pauli(g1 + g2, a) == conjugate_pauli(g2, conjugate_pauli(g1, a))
        assert commutes(a, b) == commutes(conjugate_pauli(g1, a), conjugate_pauli(g1, b))


@pytest.mark.parametrize("n", WIDTHS)
def test_conjugate_rows_matches_conjugate_pauli(rng, n):
    rows = [random_pauli(rng, n, hermitian=True) for _ in range(12)]
    x = np.array([p.x for p in rows])
    z = np.array([p.z for p in rows])
    r = np.array([p.phase // 2 for p in rows], dtype=np.uint8)
    gates = random_clifford_gates(rng, n, 60)
    for g in gates:
        conjugate_rows(x, z, r, g)
    for i, p in enumerate(rows):
        assert PauliString(n, x[i], z[i], 2 * int(r[i])) == conjugate_pauli(gates, p)


SINGLE_QUBIT_KINDS = [(k, None) for k in ("H", "S", "SDG", "X", "Y", "Z")] + [
    ("C1", i) for i in range(24)
]

EVERY_GATE_ON_TWO_WIRES = [
    CliffordGate(kind, (wire,), index) for kind, index in SINGLE_QUBIT_KINDS for wire in (0, 1)
] + [CliffordGate(kind, wires) for kind in ("CNOT", "CZ", "SWAP") for wires in ((0, 1), (1, 0))]


def _gate_id(gate: CliffordGate) -> str:
    return gate.kind + (f"[{gate.index}]" if gate.kind == "C1" else "") + f"@{gate.wires}"


@pytest.mark.parametrize("gate", EVERY_GATE_ON_TWO_WIRES, ids=_gate_id)
def test_conjugation_rule_matches_dense_gate_matrix(gate):
    # every letter on both wires of a 2-qubit register, with both signs: the
    # single walk that both update tables are read off, against U P U†
    U = dense_unitary([gate], 2)
    for x, z, phase in itertools.product(range(4), range(4), (0, 2)):
        p = PauliString.from_bits([x >> 1, x & 1], [z >> 1, z & 1], phase)
        want = U @ p.to_matrix() @ U.conj().T
        assert np.abs(conjugate_pauli([gate], p).to_matrix() - want).max() < 1e-12, p


def _every_letter_rows(rng, n: int, wires, count: int) -> list:
    """Hermitian rows, random off `wires`, whose letters on `wires` cycle
    through all 4^k combinations (I, X, Z, Y on wires[0] fastest), with the
    sign flipping after each full cycle."""
    xb, zb = rng.integers(0, 2, (count, n)), rng.integers(0, 2, (count, n))
    i = np.arange(count)
    for j, wire in enumerate(wires):
        xb[:, wire], zb[:, wire] = i >> 2 * j & 1, i >> 2 * j + 1 & 1
    sign = i >> 2 * len(wires) & 1
    return [PauliString.from_bits(xb[a], zb[a], 2 * int(sign[a])) for a in range(count)]


def _packed(rows):
    x, z = np.array([p.x for p in rows]), np.array([p.z for p in rows])
    return x, z, np.array([p.phase // 2 for p in rows], dtype=np.uint8)


def _unpacked(n, x, z, r) -> list:
    return [PauliString(n, x[i], z[i], 2 * int(r[i])) for i in range(len(r))]


@pytest.mark.parametrize("n", WIDTHS)
def test_single_qubit_table_matches_conjugate_pauli(rng, n):
    for wire in (0, n - 1):  # the first word and the last, partial one
        rows = _every_letter_rows(rng, n, (wire,), 12)
        for kind, index in SINGLE_QUBIT_KINDS:
            gate = CliffordGate(kind, (wire,), index)
            x, z, r = _packed(rows)
            conjugate_rows(x, z, r, gate)
            assert _unpacked(n, x, z, r) == [conjugate_pauli([gate], p) for p in rows], gate


@pytest.mark.parametrize("n", WIDTHS)
def test_single_qubit_table_takes_one_index_per_row(rng, n):
    wire = n - 1
    # row i carries letter i % 4 on the wire and goes through C1 entry i // 4
    rows = _every_letter_rows(rng, n, (wire,), 96)
    index = np.arange(96) // 4
    x, z, r = _packed(rows)
    conjugate_rows(x, z, r, CliffordGate("C1", (wire,), 0), index)
    assert _unpacked(n, x, z, r) == [
        conjugate_pauli([CliffordGate("C1", (wire,), int(i))], p) for i, p in zip(index, rows)
    ]
    # all-identity entries leave every row as it was
    x, z, r = _packed(rows)
    conjugate_rows(x, z, r, CliffordGate("H", (wire,)), np.zeros(96, dtype=int))
    assert _unpacked(n, x, z, r) == rows


@pytest.mark.parametrize("n", WIDTHS)
def test_two_qubit_table_matches_conjugate_pauli(rng, n):
    # wires 0 and n - 1 share a word at n = 3 and not at n = 65 or 130
    for wires in ((0, n - 1), (n - 1, 0)):
        rows = _every_letter_rows(rng, n, wires, 32)  # all 16 letter pairs, both signs
        for kind in ("CNOT", "CZ", "SWAP"):
            gate = CliffordGate(kind, wires)
            x, z, r = _packed(rows)
            conjugate_rows(x, z, r, gate)
            assert _unpacked(n, x, z, r) == [conjugate_pauli([gate], p) for p in rows], gate


def _input_frame_expectation(gates, bits: str, q: PauliString) -> complex:
    """<b|C† Q C|b> from conjugating Q by C† bit by bit; no tableau involved."""
    n = q.n_qubits
    inverse = [g.inverse() for g in reversed(gates)]
    qb = conjugate_pauli(inverse, q)
    if qb.x.any():
        return 0j
    b = PauliString.from_bits([0] * n, [int(c) for c in bits]).z
    return PHASES[qb.phase] * (-1) ** (int(np.bitwise_count(qb.z & b).sum()) % 2)


@pytest.mark.parametrize("n", WIDTHS)
def test_expectation_matches_input_frame_oracle(rng, n):
    for _ in range(6):
        bits = "".join(rng.choice(["0", "1"], n))
        gates = random_clifford_gates(rng, n, 4 * n)
        t = StabilizerTableau(n, bits).apply_circuit(gates)
        # C D C† for a diagonal D has a nonzero expectation; a random Q rarely does.
        diagonal = PauliString.from_bits([0] * n, rng.integers(0, 2, n), int(rng.integers(0, 4)))
        nonzero = conjugate_pauli(gates, diagonal)
        assert t.expectation(nonzero) != 0
        for q in (nonzero, random_pauli(rng, n)):
            assert t.expectation(q) == _input_frame_expectation(gates, bits, q)


def test_expectation_basics():
    t = StabilizerTableau(3)
    assert t.expectation(parse_pauli("Z1", 3)) == 1.0
    assert t.expectation(parse_pauli("X1", 3)) == 0.0
    assert t.expectation(parse_pauli("Z0", 3).with_phase(1)) == 1j
    t1 = StabilizerTableau(3, "010")
    assert t1.expectation(parse_pauli("Z1", 3)) == -1.0
    assert t1.expectation(PauliString.identity(3)) == 1.0


def test_expectation_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        StabilizerTableau(2).expectation(parse_pauli("Z0", 3))


def test_random_state_expectation_matches_dense(rng):
    for _ in range(60):
        n = int(rng.integers(1, 5))
        bits = "".join(rng.choice(["0", "1"], n))
        gates = random_clifford_gates(rng, n, int(rng.integers(0, 9)))
        t = StabilizerTableau(n, bits).apply_circuit(gates)
        psi = statevector_of(gates, n, bits)
        q = random_pauli(rng, n)
        want = psi.conj() @ (q.to_matrix() @ psi)
        got = t.expectation(q)
        assert abs(got - want) < 1e-10
        if q.is_hermitian:
            assert got.real in (-1.0, 0.0, 1.0) and got.imag == 0.0


def test_tableau_invariants_after_random_circuit(rng):
    n = 4
    t = StabilizerTableau(n, "0110").apply_circuit(random_clifford_gates(rng, n, 12))
    stabs = t.stabilizers()
    for j in range(n):
        assert stabs[j].is_hermitian
        for k in range(n):
            assert commutes(stabs[j], stabs[k])
            anti = not commutes(t.destabilizer(j), stabs[k])
            assert anti == (j == k)


@pytest.mark.parametrize("n", WIDTHS)
def test_input_frame_is_conjugation_by_the_state_clifford(rng, n):
    # The state is C X^b |0...0>, so U†QU = X^b C† Q C X^b.
    for _ in range(4):
        bits = "".join(rng.choice(["0", "1"], n))
        gates = random_clifford_gates(rng, n, 4 * n)
        t = StabilizerTableau(n, bits).apply_circuit(gates)
        undo = [g.inverse() for g in reversed(gates)]
        undo += [CliffordGate("X", (j,)) for j, c in enumerate(bits) if c == "1"]
        diagonal = PauliString.from_bits([0] * n, rng.integers(0, 2, n), int(rng.integers(0, 4)))
        rows = [conjugate_pauli(gates, diagonal)] + [random_pauli(rng, n) for _ in range(8)]
        xt, zt, kt = t.input_frame(*stack_rows(rows, n))
        for i, q in enumerate(rows):
            assert PauliString(n, xt[i], zt[i], int(kt[i])) == conjugate_pauli(undo, q)
            want = 0j if xt[i].any() else PHASES[kt[i]]
            assert t.expectation(q) == want
        assert t.expectation(rows[0]) != 0


def test_input_frame_and_expectation_reject_a_broken_tableau():
    for n, j in ((2, 0), (65, 64)):
        t = StabilizerTableau(n)
        t.z[n + j] = 0  # stabilizer j becomes the identity; j = 64 is in the second word
        zj = parse_pauli(f"Z{j}", n)
        with pytest.raises(AssertionError, match="reconstruction mismatch"):
            t.expectation(zj)
        with pytest.raises(AssertionError, match="reconstruction mismatch"):
            t.input_frame(*stack_rows([zj], n))
