import numpy as np
import pytest

from cliffgrad.errors import DimensionMismatchError, ObservableFormatError
from cliffgrad.observable import Observable, parse_observable
from cliffgrad.tableau import StabilizerTableau

from conftest import random_clifford_gates, random_observable, statevector_of


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
    assert obs.terms[0][1].is_identity
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
    ],
)
def test_parse_errors_carry_line_numbers(doc, fragment):
    with pytest.raises(ObservableFormatError, match=fragment):
        parse_observable(doc)


def test_prune_threshold():
    doc = "qubits 1\n1e-9 X0\n1.0 Z0\n"
    assert parse_observable(doc).n_terms == 2
    assert parse_observable(doc, prune_threshold=1e-6).n_terms == 1


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
    combined = Observable(n, o1.terms + o2.terms)
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
