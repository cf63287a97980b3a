import json

import numpy as np
import pytest

from cliffgrad.circuit import (
    AnsatzCircuit,
    RotationGate,
    candidate_seed,
    generate_hwe_ansatz,
    select_ansatz,
)
from cliffgrad.dense import finite_diff_gradient, simulate
from cliffgrad.errors import CircuitFormatError
from cliffgrad.observable import Observable
from cliffgrad.tableau import CliffordGate, StabilizerTableau

from conftest import random_bitstring


def tableaus_equal(a: StabilizerTableau, b: StabilizerTableau) -> bool:
    return (
        np.array_equal(a.x, b.x)
        and np.array_equal(a.z, b.z)
        and np.array_equal(a.r, b.r)
    )


@pytest.mark.parametrize("variant", ["complex", "real"])
def test_identity_at_zero(rng, variant):
    for seed in range(8):
        n = int(rng.choice([2, 4, 6]))
        circ = generate_hwe_ansatz(n, int(rng.integers(1, 4)), seed, variant)
        ref = random_bitstring(rng, n)
        assert tableaus_equal(circ.clifford_point_state(ref), StabilizerTableau(n, ref))


def test_real_variant_structure():
    n, depth = 4, 2
    real = generate_hwe_ansatz(n, depth, 0, "real")
    cplx = generate_hwe_ansatz(n, depth, 0, "complex")
    assert all(r.axis == "Y" for r in real.rotation_gates())
    assert real.n_params * 3 == cplx.n_params
    assert real.n_params == (2 * depth + 1) * n


def test_generation_deterministic():
    a = generate_hwe_ansatz(6, 3, 11, "complex").serialize()
    b = generate_hwe_ansatz(6, 3, 11, "complex").serialize()
    assert a == b
    assert a != generate_hwe_ansatz(6, 3, 12, "complex").serialize()


def test_generator_argument_validation():
    with pytest.raises(CircuitFormatError):
        generate_hwe_ansatz(1, 2, 0)
    with pytest.raises(CircuitFormatError):
        generate_hwe_ansatz(4, 0, 0)
    with pytest.raises(CircuitFormatError):
        generate_hwe_ansatz(4, 2, 0, "other")
    with pytest.raises(CircuitFormatError, match="seed"):
        generate_hwe_ansatz(4, 2, -1)


def test_serialization_round_trip():
    circ = generate_hwe_ansatz(4, 2, 7, "real")
    again = AnsatzCircuit.deserialize(circ.serialize())
    assert again.serialize() == circ.serialize()
    assert again.metadata == circ.metadata


def test_hand_written_single_rotation_document():
    doc = {
        "version": 1,
        "n_qubits": 1,
        "elements": [{"type": "rotation", "axis": "Y", "wire": 0, "param": 0}],
        "metadata": {},
    }
    circ = AnsatzCircuit.from_dict(doc)
    assert circ.n_params == 1
    assert isinstance(circ.elements[0], RotationGate)


def test_duplicate_param_rejected():
    doc = {
        "version": 1,
        "n_qubits": 2,
        "elements": [
            {"type": "rotation", "axis": "Y", "wire": 0, "param": 0},
            {"type": "rotation", "axis": "X", "wire": 1, "param": 0},
        ],
        "metadata": {},
    }
    with pytest.raises(CircuitFormatError):
        AnsatzCircuit.from_dict(doc)


def test_schema_violations_report_element_index():
    doc = {
        "version": 1,
        "n_qubits": 2,
        "elements": [
            {"type": "clifford", "kind": "H", "wires": [0]},
            {"type": "rotation", "axis": "Q", "wire": 0, "param": 0},
        ],
        "metadata": {},
    }
    with pytest.raises(CircuitFormatError, match="element 1"):
        AnsatzCircuit.from_dict(doc)
    with pytest.raises(CircuitFormatError, match="version"):
        AnsatzCircuit.deserialize(json.dumps({"version": 99}))


def test_param_ids_contiguous_and_in_element_order():
    circ = generate_hwe_ansatz(4, 2, 3, "complex")
    params = [e.param for e in circ.elements if isinstance(e, RotationGate)]
    assert params == list(range(circ.n_params))


def test_real_variant_yields_real_states(rng):
    circ = generate_hwe_ansatz(4, 1, 9, "real")
    theta = rng.normal(size=circ.n_params) * 0.3
    psi = simulate(circ, theta, "0101")
    assert np.abs(psi.imag).max() < 1e-12


def _ising(n):
    terms = {f"Z{q} Z{q+1}": -1.0 for q in range(n - 1)}
    terms.update({f"X{q}": -0.7 for q in range(n)})
    return Observable.from_strings(n, terms)


def test_select_single_candidate_returned():
    obs = _ising(4)
    best, sums = select_ansatz(1, 4, 1, obs, "0000", seed=5)
    assert len(sums) == 1
    assert best.metadata["candidate_index"] == 0


def test_select_prefers_nonzero_gradient():
    # observable diagonal in Z: any candidate with all-Y rotations killed by
    # symmetry loses to one with signal; here just check the argmax contract
    obs = _ising(4)
    best, sums = select_ansatz(6, 4, 1, obs, "0000", seed=2)
    assert sums[best.metadata["candidate_index"]] == max(sums)
    first_max = max(range(len(sums)), key=lambda i: (sums[i], -i))
    assert best.metadata["candidate_index"] == sums.index(max(sums)) == first_max


def test_select_winner_matches_finite_difference_recomputation():
    obs = _ising(4)
    ref = "0000"
    best, sums = select_ansatz(5, 4, 1, obs, ref, seed=31)
    fd_sums = []
    for i in range(5):
        cand = generate_hwe_ansatz(4, 1, candidate_seed(31, i))
        fd_sums.append(float(np.abs(finite_diff_gradient(cand, obs, ref)).sum()))
    assert np.abs(np.array(fd_sums) - np.array(sums)).max() < 1e-6
    assert int(np.argmax(fd_sums)) == best.metadata["candidate_index"]
