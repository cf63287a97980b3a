"""End-to-end acceptance checks for the quadratic Clifford-point model.

Each test prints a single PASS line on success; the criterion number in the
test name keys the check. Tolerances are deliberate and should not be
loosened without revisiting the derivation they guard.
"""

import gc
import json
import time
from pathlib import Path

import numpy as np
import pytest

from cliffgrad.circuit import AnsatzCircuit, RotationGate, generate_hwe_ansatz
from cliffgrad.cli import main as cli_main
from cliffgrad.dense import (
    energy,
    finite_diff_gradient,
    finite_diff_hessian,
    optimize_bfgs,
    simulate,
)
from cliffgrad.expansion import compute_hessian, conjugate_generators, expand
from cliffgrad.observable import Observable, parse_observable
from cliffgrad.tableau import StabilizerTableau

from conftest import (
    random_clifford_gates,
    random_observable,
    random_pauli,
    statevector_of,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def _sample_instance(i: int):
    """Deterministic instance i: width cycles 2..8, depth cycles 1..4."""
    rng = np.random.default_rng(31000 + i)
    n = 2 + i % 7
    depth = 1 + (i // 7) % 4
    variant = "complex" if 3 * (2 * depth + 1) * n <= 48 else "real"
    circ = generate_hwe_ansatz(n, depth, 31000 + i, variant)
    obs = random_observable(rng, n, int(rng.integers(3, 17)))
    ref = "".join(rng.choice(["0", "1"], n))
    return circ, obs, ref


@pytest.fixture(scope="module")
def instances():
    out = []
    for i in range(50):
        circ, obs, ref = _sample_instance(i)
        out.append((circ, obs, ref, expand(circ, obs, ref, threshold=0.0)))
    return out


def test_criterion_1_derivatives_match_finite_differences(instances):
    t0 = time.monotonic()
    worst_g, worst_a = 0.0, 0.0
    for circ, obs, ref, res in instances:
        g_fd = finite_diff_gradient(circ, obs, ref)
        scaled = np.abs(res.gradient - g_fd) / (1.0 + np.abs(res.gradient))
        assert scaled.max() <= 1e-6
        a_err = np.abs(res.hessian_kept - finite_diff_hessian(circ, obs, ref)).max()
        assert a_err <= 1e-4
        worst_g = max(worst_g, float(scaled.max()))
        worst_a = max(worst_a, float(a_err))
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(
        f"criterion 1: PASS (50 instances, worst scaled grad err {worst_g:.2e}, "
        f"worst Hessian err {worst_a:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_2_quadratic_model_error_shrinks_cubically(instances):
    ratios = []
    for circ, obs, ref, res in instances:
        norm = float(np.linalg.norm(res.theta_star))
        if norm < 1e-8:
            continue
        direction = res.theta_star / norm
        g, A = res.gradient, res.hessian_full()

        def model(theta):
            return res.e0 + g @ theta + 0.5 * theta @ A @ theta

        r = {t: abs(energy(circ, t * direction, ref, obs) - model(t * direction))
             for t in (0.2, 0.1, 0.05)}
        if min(r.values()) > 1e-12:
            ratios += [r[0.2] / r[0.1], r[0.1] / r[0.05]]
    # stationary or numerically exact instances contribute no ratio
    assert len(ratios) >= 10
    med = float(np.median(ratios))
    assert 6.0 <= med <= 10.0
    print(f"criterion 2: PASS (median per-halving ratio {med:.2f} from {len(ratios)} ratios)")


def test_criterion_3_stabilizer_matches_dense_expectations():
    rng = np.random.default_rng(32000)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        bits = "".join(rng.choice(["0", "1"], n))
        gates = random_clifford_gates(rng, n, int(rng.integers(0, 13)))
        t = StabilizerTableau(n, bits).apply_circuit(gates)
        psi = statevector_of(gates, n, bits)
        q = random_pauli(rng, n)
        want = psi.conj() @ (q.to_matrix() @ psi)
        worst = max(worst, abs(t.expectation(q) - want))
        assert worst < 1e-10
    print(f"criterion 3: PASS (200 instances, worst |delta| {worst:.2e})")


def test_criterion_4_toy_golden_case():
    # closed form for <X + 2Z> through a single Ry on |0>: -sin(2t) + 2cos(2t)
    obs = parse_observable("qubits 1\n1.0 X0\n2.0 Z0\n")
    circ = AnsatzCircuit(1, [RotationGate("Y", 0, 0)])
    res = expand(circ, obs, "0", threshold=0.0)
    assert res.e0 == 2.0
    assert res.gradient.tolist() == [-2.0]
    assert res.hessian_kept.tolist() == [[-8.0]]
    assert res.theta_star == pytest.approx([-0.25], abs=1e-12)
    assert res.perturbative_optimum == pytest.approx(2.25, abs=1e-12)
    t = res.theta_star[0]
    closed = -np.sin(2 * t) + 2 * np.cos(2 * t)
    assert energy(circ, res.theta_star, "0", obs) == pytest.approx(closed, abs=1e-12)
    # Taylor remainder: |E'''| <= 8 + 16 = 24 on the whole line
    assert abs(closed - res.perturbative_optimum) <= 24.0 / 6.0 * abs(t) ** 3
    print("criterion 4: PASS (e0=2, g=[-2], A=[[-8]], theta*=[-0.25], model=2.25)")


def test_criterion_5_generated_ansatzes_are_identity_at_zero():
    rng = np.random.default_rng(33000)
    for i in range(100):
        variant = ("complex", "real")[i % 2]
        n = int(rng.choice([2, 3, 4, 6, 8]))
        depth = int(rng.integers(1, 5))
        circ = generate_hwe_ansatz(n, depth, 33000 + i, variant)
        ref = "".join(rng.choice(["0", "1"], n))
        t = circ.clifford_point_state(ref)
        want = StabilizerTableau(n, ref)
        assert (
            np.array_equal(t.x, want.x)
            and np.array_equal(t.z, want.z)
            and np.array_equal(t.phase, want.phase)
        )
    print("criterion 5: PASS (100 seeded ansatzes, both variants, exact tableau identity)")


# Recorded on first computation (10-qubit chain, real variant, depth 2, seed 3):
# every parameter dropped at 1e-6 has an exactly-zero gradient and decouples
# from the kept block, so the two optima coincide to machine precision.
DROPOUT_GAP_GOLDEN = 0.0


def test_criterion_6_dropout_changes_optimum_negligibly():
    obs = parse_observable((DATA / "chain10.txt").read_text())
    assert obs.n_qubits == 10
    circ = generate_hwe_ansatz(10, 2, 3, "real")
    full = expand(circ, obs, "0101010101", threshold=0.0)
    cut = expand(circ, obs, "0101010101", threshold=1e-6)
    gap = abs(full.perturbative_optimum - cut.perturbative_optimum)
    assert gap < 1e-2
    assert gap == pytest.approx(DROPOUT_GAP_GOLDEN, abs=1e-12)
    kept = int(cut.dropout_mask.sum())
    print(f"criterion 6: PASS (gap {gap:.3e} with {kept}/{cut.n_params} parameters kept)")


def _pinned_chain(seed: int, n: int = 4) -> Observable:
    """Staggered fields favouring 0101... plus weak random couplings."""
    rng = np.random.default_rng(seed + 7000)
    terms = {}
    for q in range(n):
        sign = 1.0 if q % 2 else -1.0
        terms[f"Z{q}"] = float(sign * rng.uniform(0.4, 2.0))
    for q in range(n - 1):
        terms[f"X{q} X{q+1}"] = float(0.3 * rng.normal())
        terms[f"Y{q} Y{q+1}"] = float(0.3 * rng.normal())
        terms[f"Z{q} Z{q+1}"] = float(0.15 * rng.normal())
    return Observable.from_strings(n, terms)


def test_criterion_7_warm_starts_reduce_median_iterations():
    counts = {"zero": [], "theta_star": [], "theta_star_with_hessian": []}
    for s in range(20):
        obs = _pinned_chain(s)
        circ = generate_hwe_ansatz(4, 2, s, "real")
        res = expand(circ, obs, "0101", threshold=0.0, stable_subspace=True)
        for mode in counts:
            trace = optimize_bfgs(
                circ, obs, "0101",
                init=mode,
                expansion=None if mode == "zero" else res,
            )
            counts[mode].append(trace.n_iterations)
    med = {m: float(np.median(v)) for m, v in counts.items()}
    assert med["theta_star_with_hessian"] <= med["theta_star"] <= med["zero"]
    print(
        "criterion 7: PASS (median iterations "
        f"{med['theta_star_with_hessian']:.1f} <= {med['theta_star']:.1f} "
        f"<= {med['zero']:.1f} over 20 instances)"
    )


def test_criterion_8_hessian_stage_scales_quadratically_in_k():
    t0 = time.monotonic()
    n = 8
    terms = {f"Z{q} Z{q+1}": -1.0 for q in range(n - 1)}
    terms |= {f"X{q}": -0.7 for q in range(n)}
    obs = Observable.from_strings(n, terms)
    instances = []
    # five depths, not three: one slow spell moves a fit over more points less
    for depth in (2, 3, 4, 6, 8):
        circ = generate_hwe_ansatz(n, depth, 0, "real")
        state0 = circ.clifford_point_state("0" * n)
        e0 = obs.expectation_at_clifford_point(state0)
        instances.append((circ.n_params, state0, conjugate_generators(circ), e0))
    ks = [inst[0] for inst in instances]
    # Best of 5 in process CPU time, one round over every K at a time: load
    # on the machine stretches the wall clock, not the CPU time, and a slow
    # spell then hits one round of all K rather than the repeats of one K.
    # The cyclic collector is off while a call is timed, as in timeit: every
    # round allocates alike, so its full collections fell on the same K in
    # each round and the minimum kept them (K = 56 read 186-278 ms).
    times = [float("inf")] * len(instances)
    for _ in range(5):
        for i, (_, state0, gens, e0) in enumerate(instances):
            gc.collect()
            gc.disable()
            try:
                c0 = time.process_time()
                compute_hessian(obs, state0, gens, e0=e0)
                times[i] = min(times[i], time.process_time() - c0)
            finally:
                gc.enable()
    slope = float(np.polyfit(np.log(ks), np.log(times), 1)[0])
    elapsed = time.monotonic() - t0
    assert 1.7 <= slope <= 2.3
    assert elapsed < 600.0
    print(f"criterion 8: PASS (t_hess ~ K^{slope:.2f} over K={ks}, {elapsed:.1f}s)")


def test_criterion_9_end_to_end_chain_run(tmp_path):
    ham = DATA / "chain8.txt"
    ansatz = tmp_path / "ansatz.json"
    result = tmp_path / "result.json"
    verify = tmp_path / "verify.json"
    ref = "01010101"
    assert cli_main(["gen-ansatz", "--qubits", "8", "--depth", "2", "--seed", "3",
                     "--variant", "real", "--out", str(ansatz)]) == 0
    assert cli_main(["expand", "--hamiltonian", str(ham), "--ansatz", str(ansatz),
                     "--reference", ref, "--out", str(result)]) == 0
    assert cli_main(["verify", "--hamiltonian", str(ham), "--ansatz", str(ansatz),
                     "--reference", ref, "--result", str(result),
                     "--exact-ground", "--out", str(verify)]) == 0
    doc = json.loads(verify.read_text())
    e_star = doc["circuit_value"]
    assert e_star <= doc["e0"]
    assert e_star >= doc["exact_ground_energy"] - 1e-9
    print(
        f"criterion 9: PASS (E(theta*)={e_star:.6f} <= e0={doc['e0']:.6f}, "
        f"exact ground {doc['exact_ground_energy']:.6f})"
    )
