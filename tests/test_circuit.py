import json
from pathlib import Path

import numpy as np
import pytest

from cliffgrad import circuit
from cliffgrad.circuit import (
    AnsatzCircuit,
    RotationGate,
    _dressing_of,
    _skeleton,
    candidate_seed,
    conjugate_generators,
    generate_hwe_ansatz,
    select_ansatz,
)
from cliffgrad.dense import finite_diff_gradient, simulate
from cliffgrad.errors import CircuitFormatError
from cliffgrad.expansion import compute_gradient
from cliffgrad.observable import Observable, parse_observable
from cliffgrad.pauli import PauliString
from cliffgrad.tableau import CLIFFORD_1Q_INVERSE, CliffordGate, StabilizerTableau, conjugate_pauli

from conftest import general_clifford_circuit, random_bitstring

CHAIN8 = Path(__file__).resolve().parents[1] / "data" / "chain8.txt"


def tableaus_equal(a: StabilizerTableau, b: StabilizerTableau) -> bool:
    return (
        np.array_equal(a.x, b.x)
        and np.array_equal(a.z, b.z)
        and np.array_equal(a.phase, b.phase)
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


def _ising(n, zx=0.0):
    terms = {f"Z{q} Z{q+1}": -1.0 for q in range(n - 1)}
    terms.update({f"X{q}": -0.7 for q in range(n)})
    # Z X couplings make select's sums depend on the reference: with the
    # Ising terms alone, |000000> and |010101> give the same sums
    if zx:
        terms.update({f"Z{q} X{q+1}": zx for q in range(n - 1)})
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


def _single_qubit(e) -> bool:
    return isinstance(e, CliffordGate) and len(e.wires) == 1


def _redress(circ: AnsatzCircuit, dressing) -> AnsatzCircuit:
    """circ with its g-th single-qubit Clifford replaced by C1 entry dressing[g]."""
    entries = iter(dressing)
    elements = [
        CliffordGate("C1", e.wires, int(next(entries))) if _single_qubit(e) else e
        for e in circ.elements
    ]
    return AnsatzCircuit(circ.n_qubits, elements)


@pytest.mark.parametrize("variant", ("real", "complex"))
def test_dressing_is_the_generated_single_qubit_entries(variant):
    choices = 24 if variant == "complex" else [0, 1]
    for n in (*range(2, 9), 65):
        for depth in range(1, 5):
            skeleton = AnsatzCircuit(n, _skeleton(n, depth, variant))
            assert {e.index for e in skeleton.elements if _single_qubit(e)} == {0}
            for seed in range(5):
                circ = generate_hwe_ansatz(n, depth, seed, variant)
                dressing = _dressing_of(n, depth, seed, variant).tolist()
                assert [e.index for e in circ.elements if _single_qubit(e)] == dressing
                assert circ.elements == _redress(skeleton, dressing).elements
                # four draws per entangler block from one stream, then the
                # inverses of those entries in reverse order
                rng = np.random.default_rng(seed)
                half = len(dressing) // 2
                drawn = [rng.choice(choices, size=4).tolist() for _ in range(half // 4)]
                assert dressing[:half] == sum(drawn, [])
                assert dressing[half:] == [CLIFFORD_1Q_INVERSE[i] for i in reversed(dressing[:half])]


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
        skeleton = general_clifford_circuit(rng, n, 8)
        width = sum(map(_single_qubit, skeleton.elements))
        dressings = rng.integers(0, 24, (4, width))
    else:
        skeleton = AnsatzCircuit(n, _skeleton(n, 1, kind))
        dressings = np.array([_dressing_of(n, 1, s, kind) for s in (3, 4, 5)])
    stacked = conjugate_generators(skeleton, dressings)
    assert len(stacked) == len(dressings)
    for dressing, gens in zip(dressings, stacked):
        cand = _redress(skeleton, dressing)
        gens_alone = conjugate_generators(cand)
        for a in ("x", "z", "phase"):
            assert np.array_equal(getattr(gens, a), getattr(gens_alone, a))
        assert gens.positions == gens_alone.positions
        assert gens.paulis == _suffix_images(cand)


def test_conjugated_generators_paulis_are_the_packed_rows(rng):
    circ = general_clifford_circuit(rng, 65, 10)
    gens = conjugate_generators(circ)
    assert gens.n_params == 10 and gens.x.shape == (10, 2)
    assert gens.paulis == [
        PauliString(65, x, z, int(k)) for x, z, k in zip(gens.x, gens.z, gens.phase)
    ]
    assert gens.paulis == _suffix_images(circ)
    assert gens.paulis is gens.paulis  # built once


def test_dressing_matrix_of_wrong_width_or_entries_is_rejected():
    # two entangler blocks: 16 single-qubit gates
    skeleton = AnsatzCircuit(4, _skeleton(4, 1, "complex"))
    assert len(conjugate_generators(skeleton, np.zeros((2, 16), dtype=int))) == 2
    for bad in (np.zeros((2, 15), dtype=int), np.zeros((2, 17), dtype=int), np.zeros(16, dtype=int),
                np.full((1, 16), 24), np.full((1, 16), -1), np.full((1, 16), 0.5)):
        with pytest.raises(ValueError, match="dressings must be an"):
            conjugate_generators(skeleton, bad)


@pytest.mark.parametrize("variant", ("real", "complex"))
def test_select_builds_only_the_winner(monkeypatch, variant):
    built = {AnsatzCircuit: 0, CliffordGate: 0}
    for cls in built:
        def counted(self, cls=cls, init=cls.__post_init__):
            built[cls] += 1
            init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    obs = parse_observable(CHAIN8.read_text())
    best, sums = select_ansatz(32, 8, 2, obs, "01010101", 5, variant)
    assert best.metadata["candidate_index"] == sums.index(max(sums))
    # the skeleton and the winner: each candidate used to be built whole
    assert built[AnsatzCircuit] <= 2 and built[CliffordGate] <= 200


# a candidate has K = 90 generator rows: chunks of one candidate, and of three
@pytest.mark.parametrize("rows", (None, 1, 306))
@pytest.mark.parametrize("count", (1, 7))
def test_select_sums_equal_one_sweep_per_candidate(monkeypatch, count, rows):
    if rows is not None:
        monkeypatch.setattr(circuit, "SWEEP_ROWS", rows)
    obs = _ising(6, zx=0.4)
    timings = {}
    best, sums = select_ansatz(count, 6, 2, obs, "010101", 11, "complex", timings=timings)
    loop, cands = [], []
    for i in range(count):
        cands.append(generate_hwe_ansatz(6, 2, candidate_seed(11, i), "complex"))
        # each candidate's own state, against select's one shared |ref>
        state0 = cands[-1].clifford_point_state("010101")
        gens = conjugate_generators(cands[-1])
        loop.append(float(np.abs(compute_gradient(obs, state0, gens)).sum()))
    assert sums == loop
    assert count == 1 or len(set(loop)) > 1
    winner = loop.index(max(loop))
    assert best.metadata["candidate_index"] == winner
    assert best.elements == cands[winner].elements
    assert set(timings) == {"generate_s", "sweep_s", "gradient_s"}
    assert all(t >= 0 for t in timings.values())
