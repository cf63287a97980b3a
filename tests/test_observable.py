import hashlib
from pathlib import Path

import numpy as np
import pytest

from cliffgrad.errors import DimensionMismatchError, ObservableFormatError
from cliffgrad.observable import Observable, parse_observable
from cliffgrad.pauli import PauliString, parse_pauli
from cliffgrad.tableau import StabilizerTableau

from conftest import random_clifford_gates, random_observable, statevector_of

DATA = Path(__file__).resolve().parents[1] / "data"


def test_random_observable_helper_terminates_on_one_qubit():
    # only 4 distinct strings exist on one qubit, fewer than max_terms
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert 1 <= random_observable(rng, 1, max_terms=16).n_terms <= 4


def test_duplicate_terms_merge():
    obs = parse_observable("qubits 2\n0.5 Z0\n0.5 Z0\n")
    assert obs.n_terms == 1
    assert obs.terms[0][0] == 1.0


def test_identity_constant_term():
    obs = parse_observable("qubits 1\n-1.0\n")
    assert obs.n_terms == 1
    assert obs.terms[0][1] == PauliString.identity(1)
    assert obs.expectation_at_clifford_point(StabilizerTableau(1)) == -1.0


def test_comments_and_blank_lines():
    doc = "# header\nqubits 2\n\n1.5 X0 X1  # trailing comment\n-0.25 Z1\n"
    obs = parse_observable(doc)
    assert obs.n_terms == 2 and obs.n_qubits == 2


def test_tabs_separate_like_spaces():
    spaced = parse_observable("qubits 3\n1.0 Z0 Z1\n-0.5 X2\n2.0\n")
    tabbed = parse_observable("qubits\t3\n1.0\tZ0\tZ1\n-0.5\t X2\n2.0\t\n")
    assert tabbed == spaced


def test_serializer_round_trip_stable():
    doc = "qubits 4\n-1.0 Z0 Z1\n-1.0 Z1 Z2\n0.5 X0\n0.5 X3\n"
    once = parse_observable(doc)
    assert once.n_terms == 4
    twice = parse_observable(once.serialize())
    assert twice.serialize() == once.serialize()
    assert [(c, p.key()) for c, p in twice.terms] == [(c, p.key()) for c, p in once.terms]


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ("0.5 Z0\n", "qubits"),
        ("qubits 0\n", "positive"),
        ("qubits 2\nabc Z0\n", "line 2"),
        ("qubits 2\n1.0 Z5\n", "line 2"),
        ("qubits 2\n1.0 Z0 Z0\n", "duplicate"),
        ("qubits 2\nnan Z0\n", "finite"),
        ("", "empty"),
        # only ASCII digits count: int() would read '٣' as 3 and '1_0' as 10
        ("qubits 4\n1.0 Z\u0663\n", "line 2: bad Pauli token"),
        ("# c\nqubits \u0664\n1.0 Z0\n", "line 2: qubit count"),
        ("qubits 1_0\n1.0 Z0\n", "line 1: qubit count"),
        ("qubits +2\n1.0 Z0\n", "line 1: qubit count"),
        # a row of ceil(n / 64) words that no C size or allocation holds
        ("qubits 99999999999999999999\n1 Z0\n", "line 1: 99999999999999999999 qubits"),
        ("# c\nqubits 99999999999999999999\n", "line 2: 99999999999999999999 qubits"),
        # and coefficients are ASCII without underscores: float() would read
        # '1_0' as 10.0, '\u0663' as 3.0 and fullwidth '\uff11.5' as 1.5
        ("qubits 1\n1_0 Z0\n", "line 2: bad coefficient"),
        ("qubits 1\n\u0663 Z0\n", "line 2: bad coefficient"),
        ("qubits 1\n\uff11.5 Z0\n", "line 2: bad coefficient"),
        # only ASCII whitespace separates tokens and only '\n' ends a line:
        # str.split() and splitlines() would also break at these
        ("qubits 2\n1.0\u00a0Z0 X1\n", "line 2: bad coefficient"),
        ("qubits 2\n1.0 Z0\u2003X1\n", "line 2: bad Pauli token"),
        ("qubits\u00a02\n1.0 Z0\n", "line 1: expected 'qubits N' header"),
        ("qubits 2\n\u3000\n1.0 Z0\n", "line 2"),
        ("qubits 2\n1.0 Z0\u2028X1\n", "line 2: bad Pauli token"),
    ],
)
def test_parse_errors_carry_line_numbers(doc, fragment):
    with pytest.raises(ObservableFormatError, match=fragment):
        parse_observable(doc)


@pytest.mark.parametrize("text", ["+2", ".5", "1e3", "-0", "-4.25E-3"])
def test_ascii_coefficient_forms_read_as_float(text):
    (c,) = parse_observable(f"qubits 1\n{text} Z0\n").coeffs.tolist()
    assert repr(c) == repr(float(text))  # repr keeps the sign of -0.0


def test_prune_threshold():
    doc = "qubits 1\n1e-9 X0\n1.0 Z0\n"
    assert parse_observable(doc).n_terms == 2
    assert parse_observable(doc, prune_threshold=1e-6).n_terms == 1


@pytest.mark.parametrize("threshold", [-1.0, float("nan")])
def test_bad_prune_threshold_is_rejected(threshold):
    with pytest.raises(ObservableFormatError, match="prune threshold"):
        parse_observable("qubits 1\n1.0 Z0\n", prune_threshold=threshold)


def _reference_parse(document: str, prune_threshold: float = 0.0) -> Observable:
    """The PauliString route: parse_pauli per line, merged on the terms' bits."""
    lines = [raw.split("#", 1)[0].strip() for raw in document.splitlines()]
    lines = [line for line in lines if line]
    n = int(lines[0].split()[1])
    merged = {}
    for line in lines[1:]:
        coef, *text = line.split(None, 1)
        p = parse_pauli("".join(text), n)
        c, _ = merged.get(p.key(), (None, p))
        merged[p.key()] = (float(coef) if c is None else c + float(coef), p)
    terms = [(c, p) for c, p in merged.values() if abs(c) >= prune_threshold]
    return Observable.from_terms(n, terms)


def _document(rng, n: int, lines: int) -> str:
    """Random terms with repeats in shuffled token order, identity lines,
    comments, blank lines and signed zeros."""
    pool = []
    for _ in range(lines // 3):
        qubits = rng.choice(n, size=int(rng.integers(0, min(n, 6) + 1)), replace=False)
        pool.append([f"{'XYZ'[rng.integers(0, 3)]}{q}" for q in qubits])
    out = ["# generated", f"qubits {n}", ""]
    for i in range(lines):
        toks = list(pool[rng.integers(0, len(pool))])
        rng.shuffle(toks)
        coef = float(rng.choice([0.5, -0.25, 1e-9, -0.0, 0.0, 0.1, 0.2, -0.3]))
        comment = "  # note" if i % 7 == 0 else ""
        out.append(f"{coef!r} {' '.join(toks)}{comment}")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("n", [3, 64, 65, 130])
@pytest.mark.parametrize("threshold", [0.0, 1e-6, 0.3])
def test_packed_parse_matches_pauli_string_route(n, threshold):
    doc = _document(np.random.default_rng(n), n, 300)
    got, want = parse_observable(doc, threshold), _reference_parse(doc, threshold)
    assert got.n_qubits == want.n_qubits == n
    assert got.x.shape == (want.n_terms, (n + 63) // 64)
    np.testing.assert_array_equal(got.x, want.x)
    np.testing.assert_array_equal(got.z, want.z)
    np.testing.assert_array_equal(got.coeffs, want.coeffs)
    np.testing.assert_array_equal(np.signbit(got.coeffs), np.signbit(want.coeffs))
    assert got.terms == want.terms  # same PauliStrings in the same order
    assert got.serialize() == want.serialize()


def test_duplicates_merge_in_first_seen_order():
    obs = parse_observable("qubits 3\n1.0 Z0 X2\n-0.5\n2.0 X2 Z0\n0.25 \n-0.0 Y1\n")
    assert [(c, p.to_text()) for c, p in obs.terms] == [(3.0, "Z0 X2"), (-0.25, ""), (-0.0, "Y1")]
    assert np.signbit(obs.coeffs[2])


def test_duplicate_overflow_message_is_unchanged():
    with pytest.raises(ObservableFormatError) as exc:
        parse_observable("qubits 3\n1e308 Y2 X0\n0.5 Z1\n1e308 X0 Y2\n")
    assert str(exc.value) == "line 4: merged coefficient of duplicate term 'X0 Y2' overflows"
    with pytest.raises(ObservableFormatError) as exc:
        parse_observable("qubits 1\n-1e308\n-1e308\n")
    assert str(exc.value) == "line 3: merged coefficient of duplicate term 'I' overflows"


@pytest.mark.parametrize(
    "name,digest",
    [
        # sha256 of serialize() as the PauliString-list Observable wrote it
        ("chain8.txt", "86c3bbfba59d9c3f0a81eb85e957a5e461339a48bd8be9cc289b250184512c5d"),
        ("chain10.txt", "2a1f98cd866433b4f16b190fa40bf7441bf1c6714f812413923c8c0fa3a6d160"),
    ],
)
def test_serialize_of_shipped_chains_is_unchanged(name, digest):
    text = parse_observable((DATA / name).read_text()).serialize()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_parse_builds_no_pauli_strings(monkeypatch):
    built = []
    original = PauliString._set

    def counting_set(self, *args):
        built.append(1)
        original(self, *args)

    monkeypatch.setattr(PauliString, "_set", counting_set)
    obs = parse_observable((DATA / "chain8.txt").read_text())
    Observable.from_strings(4, {"Z0 Z1": 1.0, "X2": 0.5})
    assert obs.n_terms > 0 and not built
    terms = obs.terms  # built on request
    assert len(built) == len(terms) == obs.n_terms


def test_from_strings_keeps_duplicates():
    obs = Observable.from_strings(2, {"Z0 Z1": 1.0, "Z1 Z0": 2.0})
    assert obs.n_terms == 2
    assert obs.coeffs.tolist() == [1.0, 2.0]
    np.testing.assert_array_equal(obs.z, [[3], [3]])


def test_from_terms_checks_width_and_phase():
    one = Observable.from_terms(2, [(1.5, parse_pauli("X1", 2))])
    assert one == Observable.from_strings(2, {"X1": 1.5})
    with pytest.raises(DimensionMismatchError):
        Observable.from_terms(2, [(1.0, parse_pauli("X0", 3))])
    with pytest.raises(ObservableFormatError, match="phase"):
        Observable.from_terms(2, [(1.0, parse_pauli("X0", 2).with_phase(2))])


def test_clifford_point_expectation_examples():
    t = StabilizerTableau(1)
    assert parse_observable("qubits 1\n1.0 Z0\n").expectation_at_clifford_point(t) == 1.0
    both = parse_observable("qubits 1\n1.0 X0\n1.0 Z0\n")
    assert both.expectation_at_clifford_point(t) == 1.0


def test_linearity(rng):
    n = 3
    t = StabilizerTableau(n, "010").apply_circuit(random_clifford_gates(rng, n, 6))
    o1 = random_observable(rng, n, 5)
    o2 = random_observable(rng, n, 5)
    combined = Observable.from_terms(n, o1.terms + o2.terms)
    assert np.isclose(
        combined.expectation_at_clifford_point(t),
        o1.expectation_at_clifford_point(t) + o2.expectation_at_clifford_point(t),
    )


def test_width_mismatch():
    obs = parse_observable("qubits 2\n1.0 Z0\n")
    with pytest.raises(DimensionMismatchError):
        obs.expectation_at_clifford_point(StabilizerTableau(3))


def test_stabilizer_expectation_matches_dense(rng):
    for _ in range(25):
        n = int(rng.integers(2, 5))
        bits = "".join(rng.choice(["0", "1"], n))
        gates = random_clifford_gates(rng, n, 7)
        t = StabilizerTableau(n, bits).apply_circuit(gates)
        psi = statevector_of(gates, n, bits)
        obs = random_observable(rng, n, 8)
        want = (psi.conj() @ (obs.to_matrix() @ psi)).real
        assert abs(obs.expectation_at_clifford_point(t) - want) < 1e-12
