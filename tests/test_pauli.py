import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffgrad.errors import DimensionMismatchError, PauliFormatError
from cliffgrad.pauli import (
    PauliString,
    _bits,
    _pack,
    commutes,
    mul_rows,
    parse_pauli,
    pauli_mul,
    stack_rows,
)
from cliffgrad.tableau import CliffordGate, StabilizerTableau, conjugate_pauli

from conftest import random_pauli


def test_single_qubit_identities():
    X = parse_pauli("X0", 1)
    Y = parse_pauli("Y0", 1)
    Z = parse_pauli("Z0", 1)
    assert pauli_mul(X, Y) == Z.with_phase(1)        # XY = iZ
    assert pauli_mul(Y, X) == Z.with_phase(3)        # YX = -iZ
    assert pauli_mul(Y, Z) == X.with_phase(1)
    assert pauli_mul(Z, X) == Y.with_phase(1)


@pytest.mark.parametrize("text", ["", "X0", "Y1", "X0 Z1", "Y0 Y1"])
def test_hermitian_involution(text):
    p = parse_pauli(text, 2)
    assert pauli_mul(p, p) == PauliString.identity(2)


def test_two_qubit_product_matches_dense():
    a = parse_pauli("X0 Z1", 2)
    b = parse_pauli("Z0 Z1", 2)
    prod = pauli_mul(a, b)
    # brute-force 4x4 oracle
    assert np.allclose(prod.to_matrix(), a.to_matrix() @ b.to_matrix())
    assert prod.phase == 3 and prod.letter(0) == "Y" and prod.letter(1) == "I"


def test_commutes_cases():
    assert commutes(parse_pauli("X0", 1), parse_pauli("X0", 1))
    assert not commutes(parse_pauli("X0", 1), parse_pauli("Z0", 1))
    # two anticommuting sites cancel
    assert commutes(parse_pauli("X0 X1", 2), parse_pauli("Z0 Z1", 2))


def test_parse_basics():
    assert parse_pauli("", 2) == PauliString.identity(2)
    p = parse_pauli("Y1", 2)
    assert p.letter(0) == "I" and p.letter(1) == "Y" and p.phase == 0
    assert parse_pauli("X0 Z3 Y7", 8).to_text() == "X0 Z3 Y7"


@pytest.mark.parametrize(
    "bad",
    # only ASCII whitespace separates tokens: str.split() would read
    # 'X0\u00a0Z1' (no-break space) as X0 Z1
    ["X0 X0", "Q1", "x0", "X9", "X", "X0\u00a0Z1", "X0\u2003Z1", "X0\u3000Z1", "X0\u2028Z1"],
)
def test_parse_errors(bad):
    with pytest.raises(PauliFormatError):
        parse_pauli(bad, 4)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        pauli_mul(parse_pauli("X0", 1), parse_pauli("X0", 2))
    with pytest.raises(DimensionMismatchError):
        commutes(parse_pauli("X0", 1), parse_pauli("X0", 2))


@st.composite
def paulis(draw, n):
    xb = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    zb = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return PauliString.from_bits(xb, zb, draw(st.integers(0, 3)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(paulis(n), paulis(n))))
def test_encode_multiply_decode_equals_dense(pair):
    a, b = pair
    prod = pauli_mul(a, b)
    assert prod.phase in (0, 1, 2, 3)
    assert np.allclose(prod.to_matrix(), a.to_matrix() @ b.to_matrix())


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(paulis(n), paulis(n))))
def test_commutation_phase_factor(pair):
    a, b = pair
    ab = pauli_mul(a, b)
    ba = pauli_mul(b, a)
    assert np.array_equal(ab.x, ba.x) and np.array_equal(ab.z, ba.z)
    expected = 0 if commutes(a, b) else 2
    assert (ab.phase - ba.phase) % 4 == expected


def test_hermitian_times_hermitian_phase_domain():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        a = PauliString.from_bits(rng.integers(0, 2, n), rng.integers(0, 2, n), 2 * rng.integers(0, 2))
        b = PauliString.from_bits(rng.integers(0, 2, n), rng.integers(0, 2, n), 2 * rng.integers(0, 2))
        assert a.is_hermitian and b.is_hermitian
        assert pauli_mul(a, b).phase in (0, 1, 2, 3)


def shifted_words(qubits, n):
    """Packed words of a qubit set built from Python ints: qubit q is bit
    q % 64 of word q // 64. Independent of the _pack/_bits helpers."""
    words = [0] * ((n + 63) // 64)
    for q in qubits:
        words[q // 64] |= 1 << (q % 64)
    return np.array(words, dtype=np.uint64)


def test_bit_packing_beyond_one_word(rng):
    p = parse_pauli("X0 Y70 Z130", 200)
    assert p.to_text() == "X0 Y70 Z130"
    assert p.n_y() == 1
    q = parse_pauli("Z70", 200)
    assert not commutes(p, q)
    # every constructor writes the layout that shifted_words pins; a slip in
    # _pack or _bits would pass the cross-checks that share them
    for n in (3, 64, 65, 130):
        xb, zb = rng.integers(0, 2, n), rng.integers(0, 2, n)
        xs, zs = np.flatnonzero(xb), np.flatnonzero(zb)
        p = PauliString.from_bits(xb, zb)
        assert np.array_equal(p.x, shifted_words(xs, n))
        assert np.array_equal(p.z, shifted_words(zs, n))
        assert np.array_equal(_pack(_bits(p.x, n), p.x.size), p.x)
        text = " ".join(f"{'IXZY'[xb[j] + 2 * zb[j]]}{j}" for j in range(n) if xb[j] | zb[j])
        assert parse_pauli(text, n) == p
        for j in {j for j in (0, 2, 63, 64, n - 1) if j < n}:
            single = PauliString.single(n, "Y", j)
            assert np.array_equal(single.x, shifted_words([j], n))
            assert np.array_equal(single.z, shifted_words([j], n))
            assert conjugate_pauli([CliffordGate("H", (j,))], single) == single.with_phase(2)
        t = StabilizerTableau(n, "".join(map(str, zb)))
        for j in range(n):
            assert np.array_equal(t.x[j], shifted_words([j], n)) and not t.z[j].any()
            assert np.array_equal(t.z[n + j], shifted_words([j], n)) and not t.x[n + j].any()
        assert np.array_equal(t.phase, 2 * np.concatenate([np.zeros(n), zb]))


@pytest.mark.parametrize("n", (3, 65, 130))
def test_mul_rows_broadcast_matches_pauli_mul(rng, n):
    left = [random_pauli(rng, n) for _ in range(5)]
    right = [random_pauli(rng, n) for _ in range(7)]
    xa, za, pa = stack_rows(left, n)
    xb, zb, pb = stack_rows(right, n)
    x, z, phase = mul_rows(xa[:, None], za[:, None], pa[:, None], xb[None], zb[None], pb[None])
    assert x.shape == (5, 7, xa.shape[1]) and phase.shape == (5, 7)
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            assert PauliString(n, x[i, j], z[i, j], int(phase[i, j])) == pauli_mul(a, b)


@pytest.mark.parametrize("n", (3, 64, 65, 130))
def test_product_fast_path_builds_a_valid_pauli_string(rng, n):
    """pauli_mul skips __init__'s copy, mask and checks; its result must be
    indistinguishable from one that went through them."""
    for _ in range(20):
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        prod = pauli_mul(a, b)
        rebuilt = PauliString(n, prod.x, prod.z, prod.phase)
        assert prod == rebuilt and hash(prod) == hash(rebuilt)
        assert not (prod.x.flags.writeable or prod.z.flags.writeable)
        for words in (prod.x, prod.z):
            with pytest.raises(ValueError):
                words[0] = 1
            # padding above n is zero: the words survive unpack and repack
            assert np.array_equal(_pack(_bits(words, n), words.size), words)
        n_y = int((_bits(prod.x, n) * _bits(prod.z, n)).sum())
        assert prod.n_y() == rebuilt.n_y() == n_y
        assert prod.unphased().n_y() == n_y
        assert all(prod.with_phase(k).n_y() == n_y for k in range(4))
        if n <= 6:
            assert np.allclose(prod.to_matrix(), a.to_matrix() @ b.to_matrix())
