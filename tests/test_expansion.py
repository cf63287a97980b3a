import math
from pathlib import Path

import numpy as np
import pytest

from cliffgrad import circuit, expansion
from cliffgrad.circuit import (
    AnsatzCircuit,
    RotationGate,
    generate_hwe_ansatz,
    select_ansatz,
)
from cliffgrad.dense import energy, finite_diff_gradient, finite_diff_hessian, optimize_bfgs
from cliffgrad.errors import DimensionMismatchError, SolveError
from cliffgrad.expansion import (
    ExpansionResult,
    _ExpectationCache,
    apply_dropout,
    compute_gradient,
    compute_hessian,
    conjugate_generators,
    expand,
    solve_quadratic,
)
from cliffgrad.observable import Observable, parse_observable
from cliffgrad.pauli import PHASES, PauliString, parse_pauli, pauli_mul
from cliffgrad.tableau import CliffordGate, StabilizerTableau, conjugate_pauli

from conftest import (
    dense_unitary,
    general_clifford_circuit,
    random_bitstring,
    random_clifford_gates,
    random_instance,
    random_observable,
)


CHAIN8 = Path(__file__).resolve().parents[1] / "data" / "chain8.txt"
# the counters that the benchmark's traced replay (benchmark/traced.py)
# builds and compares with the command's, key for key
TRACED_COUNTER_KEYS = {
    "n_qubits", "K", "K_kept", "N_o", "pauli_expectations_evaluated", "expectation_cache_hits"
}


def ry_circuit():
    return AnsatzCircuit(1, [RotationGate("Y", 0, 0)])


def test_generator_with_empty_suffix():
    gens = conjugate_generators(ry_circuit())
    assert gens.paulis == [parse_pauli("Y0", 1)]


def test_generator_conjugated_through_trailing_h():
    circ = AnsatzCircuit(1, [RotationGate("Y", 0, 0), CliffordGate("H", (0,))])
    gens = conjugate_generators(circ)
    assert gens.paulis == [parse_pauli("Y0", 1).with_phase(2)]  # HYH = -Y


def test_generators_match_dense_suffix_conjugation(rng):
    circ = generate_hwe_ansatz(3, 1, 5, "complex")
    gens = conjugate_generators(circ)
    for k, pk in enumerate(gens.paulis):
        pos = gens.positions[k]
        rot = circ.elements[pos]
        suffix = [e for e in circ.elements[pos + 1 :] if isinstance(e, CliffordGate)]
        U = dense_unitary(suffix, 3)
        base = parse_pauli(f"{rot.axis}{rot.wire}", 3)
        assert np.allclose(pk.to_matrix(), U @ base.to_matrix() @ U.conj().T, atol=1e-9)


def general_circuit(rng, n: int, n_rotations: int = 12) -> AnsatzCircuit:
    """Random Clifford gates with rotations inserted at random slots.

    The gates do not compose to the identity, unlike a generated ansatz;
    param ids are a permutation of element order.
    """
    gates = random_clifford_gates(rng, n, 3 * n)
    slots = sorted(rng.integers(0, len(gates) + 1, n_rotations))
    params = rng.permutation(len(slots))
    elements = list(gates)
    for k, slot in zip(params[::-1], slots[::-1]):
        axis = "XYZ"[rng.integers(0, 3)]
        elements.insert(int(slot), RotationGate(axis, int(rng.integers(0, n)), int(k)))
    return AnsatzCircuit(n, elements)


@pytest.mark.parametrize("n", (3, 65, 130))
def test_generators_of_general_clifford_part_match_conjugate_pauli(rng, n):
    circ = general_circuit(rng, n)
    gens = conjugate_generators(circ)
    for k, pk in enumerate(gens.paulis):
        pos = gens.positions[k]
        rot = circ.elements[pos]
        assert isinstance(rot, RotationGate) and rot.param == k
        suffix = [e for e in circ.elements[pos + 1 :] if isinstance(e, CliffordGate)]
        assert pk == conjugate_pauli(suffix, PauliString.single(n, rot.axis, rot.wire))


def test_gradient_analytic_examples():
    obs_z = parse_observable("qubits 1\n1.0 Z0\n")
    obs_x = parse_observable("qubits 1\n1.0 X0\n")
    circ = ry_circuit()
    state0 = circ.clifford_point_state("0")
    gens = conjugate_generators(circ)
    assert compute_gradient(obs_z, state0, gens) == pytest.approx([0.0])
    assert compute_gradient(obs_x, state0, gens) == pytest.approx([-2.0])


def direct_gradient(obs, state0, gens) -> np.ndarray:
    """g_k = -2 fsum_i c_i Im <O_i P'_k>, one tableau expectation per term."""
    return np.array([
        -2.0 * math.fsum(c * state0.expectation(pauli_mul(p, pk)).imag for c, p in obs.terms)
        for pk in gens.paulis
    ])


def signal_observable(rng, state0, gens, n_terms: int = 12) -> Observable:
    """Terms s·P'_k for s in the stabilizer group, so that many g_k are nonzero."""
    n = state0.n
    terms = {}
    for _ in range(n_terms):
        s = PauliString.identity(n)
        for j in np.flatnonzero(rng.integers(0, 2, n)):
            s = pauli_mul(s, state0.stabilizer(int(j)))
        pk = gens.paulis[int(rng.integers(0, gens.n_params))]
        terms[pauli_mul(s, pk).to_text()] = float(rng.normal())
    return Observable.from_strings(n, terms)


def assert_bit_identical(a: np.ndarray, b: np.ndarray) -> None:
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("variant", ("real", "complex"))
def test_gradient_matches_direct_formula_on_generated_ansatzes(rng, variant):
    for _ in range(6):
        n = int(rng.integers(2, 7))
        circ = generate_hwe_ansatz(n, int(rng.integers(1, 3)), int(rng.integers(0, 1 << 31)), variant)
        state0 = circ.clifford_point_state(random_bitstring(rng, n))
        gens = conjugate_generators(circ)
        for obs in (random_observable(rng, n), signal_observable(rng, state0, gens)):
            g = compute_gradient(obs, state0, gens)
            assert_bit_identical(g, direct_gradient(obs, state0, gens))


@pytest.mark.parametrize("n", (3, 65, 130))
def test_gradient_matches_direct_formula_on_general_clifford_part(rng, n):
    for _ in range(3):
        circ = general_circuit(rng, n)
        state0 = circ.clifford_point_state(random_bitstring(rng, n))
        gens = conjugate_generators(circ)
        obs = signal_observable(rng, state0, gens)
        g = compute_gradient(obs, state0, gens)
        assert np.count_nonzero(g) > 0
        assert_bit_identical(g, direct_gradient(obs, state0, gens))


def test_gradient_of_ansatz_without_rotations(rng):
    circ = AnsatzCircuit(3, random_clifford_gates(rng, 3, 6))
    obs = random_observable(rng, 3)
    g = compute_gradient(obs, circ.clifford_point_state("010"), conjugate_generators(circ))
    assert g.shape == (0,)


def test_gradient_of_general_clifford_part_matches_finite_differences(rng):
    for n in (3, 5):
        circ = general_circuit(rng, n, n_rotations=8)
        ref = random_bitstring(rng, n)
        state0 = circ.clifford_point_state(ref)
        gens = conjugate_generators(circ)
        obs = signal_observable(rng, state0, gens)
        g = compute_gradient(obs, state0, gens)
        assert np.count_nonzero(g) > 0
        assert np.abs(g - finite_diff_gradient(circ, obs, ref)).max() < 1e-6


def test_gradient_rejects_an_observable_of_another_width():
    circ = AnsatzCircuit(2, [RotationGate("Y", 0, 0)])
    obs = parse_observable("qubits 3\n1.0 X0\n")
    with pytest.raises(DimensionMismatchError):
        compute_gradient(obs, circ.clifford_point_state("00"), conjugate_generators(circ))


@pytest.mark.parametrize(
    "call",
    [
        lambda circ, obs: expand(circ, obs, "00"),
        lambda circ, obs: energy(circ, np.zeros(1), "00", obs),
        lambda circ, obs: optimize_bfgs(circ, obs, "00"),
        lambda circ, obs: select_ansatz(3, 2, 1, obs, "00", 0),
    ],
    ids=["expand", "energy", "optimize_bfgs", "select_ansatz"],
)
def test_observable_of_another_width_is_rejected(monkeypatch, call):
    def no_candidates(*args):
        raise AssertionError("generated a candidate before the width check")

    monkeypatch.setattr(circuit, "generate_hwe_ansatz", no_candidates)
    circ = AnsatzCircuit(2, [RotationGate("Y", 0, 0)])
    obs = parse_observable("qubits 3\n1.0 X0\n")
    with pytest.raises(DimensionMismatchError, match="observable on 3 qubits vs ansatz on 2"):
        call(circ, obs)


def test_gradient_zero_for_commuting_diagonal_observable():
    # all-Z observable, Z rotations only: every term commutes with every
    # conjugated generator and is stabilizer-diagonal
    circ = AnsatzCircuit(2, [RotationGate("Z", 0, 0), RotationGate("Z", 1, 1)])
    obs = parse_observable("qubits 2\n0.5 Z0\n0.25 Z0 Z1\n")
    g = compute_gradient(obs, circ.clifford_point_state("00"), conjugate_generators(circ))
    assert np.array_equal(g, [0.0, 0.0])


def test_hessian_analytic_examples():
    circ = ry_circuit()
    state0 = circ.clifford_point_state("0")
    gens = conjugate_generators(circ)
    obs_z = parse_observable("qubits 1\n1.0 Z0\n")
    obs_x = parse_observable("qubits 1\n1.0 X0\n")
    a_z = compute_hessian(obs_z, state0, gens)
    a_x = compute_hessian(obs_x, state0, gens)
    assert a_z[0, 0] == pytest.approx(-4.0)
    assert a_x[0, 0] == pytest.approx(0.0)


def test_full_hessian_matches_finite_differences(rng):
    circ = generate_hwe_ansatz(4, 1, 13, "real")
    obs = Observable.from_strings(
        4, {f"Z{q} Z{q+1}": -1.0 for q in range(3)} | {f"X{q}": -0.6 for q in range(4)}
    )
    res = expand(circ, obs, "0101", threshold=0.0)
    fd = finite_diff_hessian(circ, obs, "0101")
    assert np.abs(res.hessian_kept - fd).max() < 1e-5
    assert np.array_equal(res.hessian_kept, res.hessian_kept.T)


def test_hessian_of_general_clifford_part_matches_finite_differences(rng):
    widths = [3, 5] * 3
    while widths:
        n = widths[-1]
        circ = general_circuit(rng, n, n_rotations=6)
        ref = random_bitstring(rng, n)
        state0 = circ.clifford_point_state(ref)
        # only states that are not basis states need the sign reconstruction
        if not any(state0.stabilizer(j).x.any() for j in range(n)):
            continue
        widths.pop()
        gens = conjugate_generators(circ)
        # terms s·P'_k·P'_m, s in the stabilizer group, make many entries nonzero
        terms = {}
        for _ in range(10):
            s = PauliString.identity(n)
            for j in np.flatnonzero(rng.integers(0, 2, n)):
                s = pauli_mul(s, state0.stabilizer(int(j)))
            k, m = rng.integers(0, gens.n_params, 2)
            q = pauli_mul(pauli_mul(s, gens.paulis[k]), gens.paulis[m])
            terms[q.to_text()] = float(rng.normal())
        obs = Observable.from_strings(n, terms)
        A = compute_hessian(obs, state0, gens)
        assert np.count_nonzero(np.abs(A) > 1e-9) > 0
        # criterion 1's bound; the central differences err by ~1e-6 of |A|
        assert np.abs(A - finite_diff_hessian(circ, obs, ref)).max() <= 1e-4


def two_product_hessian(obs, state, circ, mask, e0):
    """A from two products per term and one tableau expectation each.

    P'_k comes from conjugate_pauli through the gates after rotation k.
    With e earlier in the circuit than l and R_li = O_i P'_l, A_el sums
    c_i Re <P'_e R_li> and c_i Re <R_li P'_e> in term order; A_kk sums
    c_i Re <P'_k O_i P'_k>.
    """
    n = circ.n_qubits
    gens, positions = {}, {}
    for pos, el in enumerate(circ.elements):
        if isinstance(el, RotationGate):
            suffix = [g for g in circ.elements[pos + 1 :] if isinstance(g, CliffordGate)]
            gens[el.param] = conjugate_pauli(suffix, PauliString.single(n, el.axis, el.wire))
            positions[el.param] = pos

    def fsum_terms(products):
        return math.fsum(
            c * (PHASES[q.phase] * state.expectation(q.unphased())).real
            for (c, _), q in zip(obs.terms, products)
        )

    kept = np.flatnonzero(mask)
    A = np.zeros((kept.size, kept.size))
    for s, ks in enumerate(kept):
        pk = gens[ks]
        A[s, s] = 2.0 * fsum_terms([pauli_mul(pk, pauli_mul(p, pk)) for _, p in obs.terms])
        A[s, s] -= 2.0 * e0
        for t in range(s + 1, kept.size):
            kt = kept[t]
            e, l = (ks, kt) if positions[ks] <= positions[kt] else (kt, ks)
            right = [pauli_mul(p, gens[l]) for _, p in obs.terms]
            first = fsum_terms([pauli_mul(gens[e], r) for r in right])
            second = fsum_terms([pauli_mul(r, gens[e]) for r in right])
            A[s, t] = A[t, s] = 2.0 * first - 2.0 * second
    return A


def dropout_masks(rng, K: int) -> list:
    """Masks that keep all, some, exactly one and none of K parameters."""
    some = rng.permutation(np.arange(K) < K // 2)
    one = np.zeros(K, dtype=bool)
    one[rng.integers(0, K)] = True
    return [np.ones(K, dtype=bool), some, one, np.zeros(K, dtype=bool)]


def assert_hessian_is_two_product_formula(obs, state0, circ, mask):
    """compute_hessian is bit-identical to two_product_hessian and looks
    nothing up in the memo cache. Returns A."""
    e0 = obs.expectation_at_clifford_point(state0)
    cache = _ExpectationCache(state0)
    A = compute_hessian(obs, state0, conjugate_generators(circ), mask, e0, None, cache)
    assert_bit_identical(A, two_product_hessian(obs, state0, circ, mask, e0))
    assert cache.misses == cache.hits == 0
    return A


@pytest.mark.parametrize("n", (3, 65, 130))
def test_hessian_matches_two_product_formula_on_general_clifford_part(rng, n):
    draws, off_diagonal_nonzeros = 2, 0
    while draws:
        # rotations on the top four wires, which straddle a word boundary at
        # n = 65 and 130, so that many P'_k anticommute; a tail of 2n gates
        # reaches those wires, so P'_k carry sign bits
        elements = [
            RotationGate(e.axis, int(rng.integers(max(n - 4, 0), n)), e.param)
            if isinstance(e, RotationGate) else e
            for e in general_clifford_circuit(rng, n, 10).elements
        ]
        circ = AnsatzCircuit(n, elements + random_clifford_gates(rng, n, 2 * n))
        ref = random_bitstring(rng, n)
        state0 = circ.clifford_point_state(ref)
        gens = conjugate_generators(circ)
        # signed generators on a state that is not a basis state
        if not (any(p.phase == 2 for p in gens.paulis)
                and any(state0.stabilizer(j).x.any() for j in range(n))):
            continue
        draws -= 1
        # terms s·P'_k·P'_m, s in the stabilizer group, make A_km nonzero
        terms = {}
        for _ in range(20):
            s = PauliString.identity(n)
            for j in np.flatnonzero(rng.integers(0, 2, n)):
                s = pauli_mul(s, state0.stabilizer(int(j)))
            k, m = rng.choice(gens.n_params, 2, replace=False)
            terms[pauli_mul(pauli_mul(s, gens.paulis[k]), gens.paulis[m]).to_text()] = float(
                rng.normal()
            )
        obs = Observable.from_strings(n, terms)
        for mask in dropout_masks(rng, circ.n_params):
            A = assert_hessian_is_two_product_formula(obs, state0, circ, mask)
            if mask.all():
                off_diagonal_nonzeros += np.count_nonzero(A - np.diag(np.diag(A)))
        # expand and the stage functions the traced replay calls agree bit for bit
        res = expand(circ, obs, ref, threshold=0.0)
        e0 = obs.expectation_at_clifford_point(state0)
        assert_bit_identical(np.array(res.e0), np.array(e0))
        assert_bit_identical(res.gradient, compute_gradient(obs, state0, gens))
        assert_bit_identical(res.hessian_kept, compute_hessian(obs, state0, gens, None, e0))
    assert off_diagonal_nonzeros > 0


def test_hessian_cache_misses_match_two_product_formula_on_chain8():
    # the ansatz that the README flow (and the pipeline benchmark) selects
    obs = parse_observable(CHAIN8.read_text())
    circ, _ = select_ansatz(32, 8, 2, obs, "01010101", 5, "real")
    state0 = circ.clifford_point_state("01010101")
    mask = apply_dropout(compute_gradient(obs, state0, conjugate_generators(circ)), 1e-6)
    assert 1 < mask.sum() < mask.size
    A = assert_hessian_is_two_product_formula(obs, state0, circ, mask)
    res = expand(circ, obs, "01010101")
    assert_bit_identical(res.hessian_kept, A)
    assert res.counters.keys() == TRACED_COUNTER_KEYS
    assert res.counters["pauli_expectations_evaluated"] == 0
    assert res.counters["expectation_cache_hits"] == 0


def test_hessian_makes_no_tableau_lookup(monkeypatch):
    obs = parse_observable(CHAIN8.read_text())
    circ = generate_hwe_ansatz(8, 1, 1, "real")
    before = expand(circ, obs, "01010101", threshold=0.0)
    assert before.counters["K_kept"] >= 2

    def lookup(self, q):
        raise AssertionError("StabilizerTableau.expectation called")

    monkeypatch.setattr(StabilizerTableau, "expectation", lookup)
    after = expand(circ, obs, "01010101", threshold=0.0)
    assert np.array_equal(after.hessian_kept, before.hessian_kept)


def test_expand_maps_into_the_input_frame_once(monkeypatch):
    obs = parse_observable(CHAIN8.read_text())
    circ = generate_hwe_ansatz(8, 1, 1, "real")
    calls = {"input_frame": 0, "pauli_mul": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(
        StabilizerTableau, "input_frame", counted("input_frame", StabilizerTableau.input_frame)
    )
    monkeypatch.setattr(expansion, "pauli_mul", counted("pauli_mul", pauli_mul))
    res = expand(circ, obs, "01010101", threshold=0.0)
    k, n_o = res.counters["K_kept"], res.counters["N_o"]
    assert k == circ.n_params >= 2
    # one map for e0, g and A; one product per off-diagonal pair and term
    assert calls == {"input_frame": 1, "pauli_mul": k * (k - 1) // 2 * n_o}


def test_apply_dropout():
    g = np.array([0.0, 3e-7, 0.2])
    assert apply_dropout(g, 0.0).tolist() == [True, True, True]
    assert apply_dropout(g, 1e-6).tolist() == [False, False, True]
    with pytest.raises(ValueError):
        apply_dropout(g, -1.0)


@pytest.mark.parametrize("rtol", [float("nan"), -1.0, float("inf")])
def test_bad_rtol_is_rejected_by_expand_and_solve_quadratic(rtol):
    # NaN inverted nothing yet counted nothing discarded, and -1 inverted
    # the null space (condition number 6.7e16 on chain8)
    circ = generate_hwe_ansatz(8, 1, 3, "real")
    obs = parse_observable(CHAIN8.read_text())
    with pytest.raises(ValueError, match="rtol"):
        expand(circ, obs, "01010101", rtol=rtol)
    with pytest.raises(ValueError, match="rtol"):
        solve_quadratic(0.0, np.array([1.0, 0.0]), np.diag([2.0, 0.0]), np.ones(2, bool), rtol)


@pytest.mark.parametrize("rtol", [float("nan"), -1.0, float("inf")])
def test_bad_rtol_is_rejected_before_any_stage(monkeypatch, rtol):
    # the check used to run in the solve only, after the whole expansion
    def reached(self, reference):
        raise AssertionError("expand built the state before checking rtol")

    monkeypatch.setattr(AnsatzCircuit, "clifford_point_state", reached)
    circ = generate_hwe_ansatz(8, 4, 1, "real")
    obs = parse_observable(CHAIN8.read_text())
    with pytest.raises(ValueError, match=f"rtol must be finite and >= 0, got {rtol!r}"):
        expand(circ, obs, "01010101", 0.0, rtol=rtol)


def test_nan_dropout_threshold_is_rejected():
    # NaN would drop every parameter: no |g_k| >= NaN
    with pytest.raises(ValueError, match="dropout threshold"):
        apply_dropout(np.array([0.0, 0.2]), float("nan"))
    circ = generate_hwe_ansatz(8, 1, 3, "real")
    with pytest.raises(ValueError, match="dropout threshold"):
        expand(circ, parse_observable(CHAIN8.read_text()), "01010101", threshold=float("nan"))


def test_dropout_matches_independent_zero_gradient_count(rng):
    circ = generate_hwe_ansatz(6, 1, 17, "real")
    obs = Observable.from_strings(
        6, {f"Z{q} Z{q+1}": -1.0 for q in range(5)} | {f"X{q}": -0.4 for q in range(6)}
    )
    res = expand(circ, obs, "010101", threshold=1e-6)
    fd = finite_diff_gradient(circ, obs, "010101")
    dropped_fd = int((np.abs(fd) < 1e-6).sum())
    assert int((~res.dropout_mask).sum()) == dropped_fd


def test_solve_quadratic_zero_gradient():
    theta, opt, rank = solve_quadratic(
        1.5, np.zeros(3), np.diag([1.0, 2.0, 3.0]), np.ones(3, dtype=bool)
    )
    assert np.array_equal(theta, np.zeros(3)) and opt == 1.5 and rank == 3


def test_solve_quadratic_toy_numbers():
    theta, opt, rank = solve_quadratic(
        2.0, np.array([-2.0]), np.array([[-8.0]]), np.ones(1, dtype=bool)
    )
    assert theta == pytest.approx([-0.25]) and opt == pytest.approx(2.25) and rank == 1


def test_solve_quadratic_singular_null_space():
    A = np.array([[2.0, 0.0], [0.0, 0.0]])
    g = np.array([1.0, 0.0])
    theta, opt, rank = solve_quadratic(0.0, g, A, np.ones(2, dtype=bool))
    assert theta[1] == 0.0 and np.isfinite(opt) and rank == 1


def test_solve_quadratic_stable_subspace_ignores_negative_curvature():
    A = np.diag([4.0, -4.0])
    g = np.array([2.0, 2.0])
    theta, _, rank = solve_quadratic(0.0, g, A, np.ones(2, dtype=bool), stable_subspace=True)
    assert rank == 1 and theta[1] == 0.0 and theta[0] == pytest.approx(-0.5)


def test_solve_quadratic_rejects_non_finite():
    with pytest.raises(SolveError):
        solve_quadratic(0.0, np.array([np.nan]), np.array([[1.0]]), np.ones(1, dtype=bool))


def test_expand_stationary_reference():
    # observable whose ground state is the reference: gradient vanishes
    circ = AnsatzCircuit(2, [RotationGate("Z", 0, 0), RotationGate("Z", 1, 1)])
    obs = parse_observable("qubits 2\n-1.0 Z0\n-1.0 Z1\n")
    res = expand(circ, obs, "00", threshold=0.0)
    assert np.array_equal(res.gradient, [0.0, 0.0])
    assert np.array_equal(res.theta_star, [0.0, 0.0])
    assert res.perturbative_optimum == res.e0 == -2.0


def test_expand_all_dropped_degenerate():
    circ = ry_circuit()
    obs = parse_observable("qubits 1\n1.0 Z0\n")
    res = expand(circ, obs, "0", threshold=1e9)
    assert not res.dropout_mask.any()
    assert res.warnings and res.perturbative_optimum == res.e0
    assert np.array_equal(res.theta_star, [0.0])


def test_expand_model_block_hand_checked():
    # g = (-2, 0, 0) and A = diag(-8, 2, 0): RY on qubit 0 sees X0 + 2 Z0,
    # RY on qubit 1 sees -0.5 Z1, and nothing acts on qubit 2
    circ = AnsatzCircuit(3, [RotationGate("Y", q, q) for q in range(3)])
    obs = parse_observable("qubits 3\n1.0 X0\n2.0 Z0\n-0.5 Z1\n")
    res = expand(circ, obs, "000", threshold=0.0)
    assert np.array_equal(res.hessian_kept, np.diag([-8.0, 2.0, 0.0]))
    assert res.model == {
        "max_abs_gradient": 2.0, "stationary_point": False, "negative_curvature": 1,
        "discarded_by_rtol": 1, "condition_number": 4.0,
    }
    # the stable subspace inverts only the +2 direction
    assert expand(circ, obs, "000", 0.0, stable_subspace=True).model["condition_number"] == 1.0
    # A = diag(0, -4e-300, 4e150) (e0 = 1e-300 keeps the small entry exact);
    # at rtol 0 both nonzero eigenvalues are inverted and their ratio overflows
    wide = parse_observable("qubits 3\n1e150 Z0\n-1e150 Z0 Z2\n1e-300 Z1\n")
    res = expand(circ, wide, "000", 0.0, rtol=0.0)
    assert np.array_equal(res.hessian_kept, np.diag([0.0, -4e-300, 4e150]))
    assert res.rank == 2 and res.model["condition_number"] is None
    # the model block stays out of counters and survives the document round trip
    assert "model" not in res.counters
    assert ExpansionResult.from_dict(res.to_dict()).model == res.model
    old = res.to_dict()
    del old["model"]
    assert ExpansionResult.from_dict(old).model == {}
    stationary = expand(circ, parse_observable("qubits 3\n-0.5 Z1\n"), "000", threshold=0.0)
    assert stationary.model["stationary_point"] and stationary.model["max_abs_gradient"] == 0.0
    dropped = expand(circ, obs, "000", threshold=1e9)
    assert dropped.model == {
        "max_abs_gradient": 2.0, "stationary_point": False, "negative_curvature": 0,
        "discarded_by_rtol": 0, "condition_number": None,
    }


def test_expand_is_bit_identical_across_calls(rng):
    circ = generate_hwe_ansatz(4, 2, 21, "complex")
    obs = Observable.from_strings(
        4, {f"Z{q} Z{q+1}": -1.0 for q in range(3)} | {f"X{q}": -0.6 for q in range(4)}
    )
    a = expand(circ, obs, "0011", threshold=0.0)
    b = expand(circ, obs, "0011", threshold=0.0)
    assert np.array_equal(a.gradient, b.gradient)
    assert np.array_equal(a.hessian_kept, b.hessian_kept)
    assert np.array_equal(a.theta_star, b.theta_star)


def test_dropout_consistency_with_full_hessian_submatrix(rng):
    circ = generate_hwe_ansatz(4, 1, 23, "real")
    obs = Observable.from_strings(
        4, {f"X{q} X{q+1}": 0.3 for q in range(3)} | {f"Z{q}": -1.0 for q in range(4)}
    )
    full = expand(circ, obs, "0101", threshold=0.0)
    thresholded = expand(circ, obs, "0101", threshold=1e-6)
    kept = thresholded.kept_indices()
    sub = full.hessian_kept[np.ix_(kept, kept)]
    assert np.array_equal(thresholded.hessian_kept, sub)
    theta, opt, rank = solve_quadratic(
        full.e0, full.gradient, sub, thresholded.dropout_mask
    )
    assert np.array_equal(theta, thresholded.theta_star)
    assert opt == thresholded.perturbative_optimum


def test_expand_counters_and_result_document(rng):
    circ = generate_hwe_ansatz(4, 1, 29, "complex")
    obs = Observable.from_strings(4, {"Z0 Z1": -1.0, "X2": 0.5})
    res = expand(circ, obs, "0000", threshold=1e-6)
    c = res.counters
    assert c["K"] == circ.n_params and c["N_o"] == 2 and c["n_qubits"] == 4
    assert c["K_kept"] >= 2
    # every expectation is read in the input frame, so nothing is looked up
    assert c.keys() == TRACED_COUNTER_KEYS
    assert c["pauli_expectations_evaluated"] == c["expectation_cache_hits"] == 0
    assert set(res.timings) == {
        "state_s", "conjugate_s", "gradient_s", "dropout_s", "hessian_s", "solve_s"
    }
    two = AnsatzCircuit(2, [RotationGate("Y", 0, 0), RotationGate("Y", 1, 1)])
    single = expand(two, Observable.from_strings(2, {"X0": 0.5, "X1": 0.25}), "00", 0.75)
    assert np.array_equal(single.gradient, [-1.0, -0.5])
    assert single.counters["K_kept"] == 1
    doc = res.to_dict()
    from cliffgrad.expansion import ExpansionResult

    back = ExpansionResult.from_dict(doc)
    assert back.n_qubits == 4
    assert np.array_equal(back.theta_star, res.theta_star)
    assert np.array_equal(back.hessian_full(), res.hessian_full())


def test_quadratic_model_residual_shrinks_cubically(rng):
    for _ in range(4):
        ansatz, obs, ref = random_instance(rng, max_qubits=4, max_depth=2)
        res = expand(ansatz, obs, ref, threshold=0.0)
        norm = np.linalg.norm(res.theta_star)
        if norm < 1e-8:
            continue
        def model(theta):
            d = theta[res.dropout_mask]
            g = res.gradient[res.dropout_mask]
            return res.e0 + g @ d + 0.5 * d @ res.hessian_kept @ d
        r_prev = None
        for t in (0.2, 0.1, 0.05):
            theta = t * res.theta_star / max(norm, 1.0)
            r = abs(energy(ansatz, theta, ref, obs) - model(theta))
            if r_prev is not None and r > 1e-12:
                assert r_prev / r > 3.0  # at least superquadratic shrinkage
            r_prev = r
