import json

import numpy as np
import pytest

from cliffgrad import circuit
from cliffgrad.circuit import (
    AnsatzCircuit,
    RotationGate,
    _clifford_sweep,
    candidate_seed,
    generate_hwe_ansatz,
    select_ansatz,
)
from cliffgrad.dense import finite_diff_gradient, simulate
from cliffgrad.errors import CircuitFormatError
from cliffgrad.expansion import compute_gradient
from cliffgrad.observable import Observable
from cliffgrad.pauli import PauliString
from cliffgrad.tableau import CliffordGate, StabilizerTableau, conjugate_pauli

from conftest import general_clifford_circuit, random_bitstring


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


def _redress(circ: AnsatzCircuit, rng) -> AnsatzCircuit:
    """circ with every single-qubit Clifford replaced by a random C1 on its wire.

    The result shares circ's skeleton, so the two can be swept stacked.
    """
    elements = [
        CliffordGate("C1", e.wires, int(rng.integers(0, 24)))
        if isinstance(e, CliffordGate) and len(e.wires) == 1 else e
        for e in circ.elements
    ]
    return AnsatzCircuit(circ.n_qubits, elements)


def _suffix_images(circ: AnsatzCircuit) -> list:
    """P'_k by conjugate_pauli through the Clifford gates after rotation k."""
    images = {}
    for pos, e in enumerate(circ.elements):
        if isinstance(e, RotationGate):
            suffix = [g for g in circ.elements[pos + 1:] if isinstance(g, CliffordGate)]
            seed = PauliString.single(circ.n_qubits, e.axis, e.wire)
            images[e.param] = conjugate_pauli(suffix, seed)
    return [images[k] for k in range(len(images))]


@pytest.mark.parametrize("kind", ("real", "complex", "general"))
@pytest.mark.parametrize("n", (3, 65, 130))
def test_stacked_sweep_equals_one_sweep_per_ansatz(rng, n, kind):
    if kind == "general":  # a Clifford part that is not the identity
        base = general_clifford_circuit(rng, n, 8)
        cands = [base] + [_redress(base, rng) for _ in range(3)]
    else:
        cands = [generate_hwe_ansatz(n, 1, s, kind) for s in (3, 4, 5)]
    ref = random_bitstring(rng, n)
    stacked = _clifford_sweep(cands, ref)
    assert len(stacked) == len(cands)
    for cand, (state, gens) in zip(cands, stacked):
        [(alone, gens_alone)] = _clifford_sweep([cand], ref)
        assert tableaus_equal(state, alone)
        assert tableaus_equal(state, StabilizerTableau(n, ref).apply_circuit(cand.clifford_elements()))
        for a in ("x", "z", "phase"):
            assert np.array_equal(getattr(gens, a), getattr(gens_alone, a))
        assert gens.positions == gens_alone.positions
        assert gens.paulis == _suffix_images(cand)


def test_conjugated_generators_paulis_are_the_packed_rows(rng):
    circ = general_clifford_circuit(rng, 65, 10)
    [(_, gens)] = _clifford_sweep([circ], None)
    assert gens.n_params == 10 and gens.x.shape == (10, 2)
    assert gens.paulis == [
        PauliString(65, x, z, int(k)) for x, z, k in zip(gens.x, gens.z, gens.phase)
    ]
    assert gens.paulis == _suffix_images(circ)
    assert gens.paulis is gens.paulis  # built once


def test_stacked_sweep_rejects_ansatze_of_different_skeletons():
    base = generate_hwe_ansatz(4, 1, 1, "complex")
    # base starts C1(0) C1(1) CZ(0, 1) ... and its first rotation comes later
    first_rotation = next(i for i, e in enumerate(base.elements) if isinstance(e, RotationGate))
    rot = base.elements[first_rotation]

    def changed(pos, element):
        elements = list(base.elements)
        elements[pos] = element
        return AnsatzCircuit(4, elements)

    others = [
        generate_hwe_ansatz(5, 1, 1, "complex"),            # width
        generate_hwe_ansatz(4, 2, 1, "complex"),            # length
        changed(0, CliffordGate("H", (2,))),               # single-qubit wire
        changed(2, CliffordGate("CNOT", (0, 1))),           # two-qubit kind
        changed(2, CliffordGate("C1", (0,), 1)),            # arity
        changed(first_rotation, RotationGate("Z" if rot.axis != "Z" else "X", rot.wire, rot.param)),
    ]
    for other in others:
        with pytest.raises(ValueError, match="stacked ansätze differ"):
            _clifford_sweep([base, other], "0000")
    with pytest.raises(ValueError, match="stacked ansätze differ at element 2"):
        _clifford_sweep([changed(2, CliffordGate("C1", (0,), 1)), base], None)


@pytest.mark.parametrize("rows", (None, 1, 3 * (12 + 90)))
@pytest.mark.parametrize("count", (1, 7))
def test_select_sums_equal_one_sweep_per_candidate(monkeypatch, count, rows):
    if rows is not None:  # chunks of one candidate, and of three
        monkeypatch.setattr(circuit, "SWEEP_ROWS", rows)
    obs = _ising(6)
    timings = {}
    best, sums = select_ansatz(count, 6, 2, obs, "010101", 11, "complex", timings=timings)
    loop, cands = [], []
    for i in range(count):
        cands.append(generate_hwe_ansatz(6, 2, candidate_seed(11, i), "complex"))
        [(state0, gens)] = _clifford_sweep([cands[-1]], "010101")
        loop.append(float(np.abs(compute_gradient(obs, state0, gens)).sum()))
    assert sums == loop
    assert count == 1 or len(set(loop)) > 1
    winner = loop.index(max(loop))
    assert best.metadata["candidate_index"] == winner
    assert best.elements == cands[winner].elements
    assert set(timings) == {"generate_s", "sweep_s", "gradient_s"}
    assert all(t >= 0 for t in timings.values())
