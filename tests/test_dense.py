import dataclasses

import numpy as np
import pytest

from cliffgrad import dense
from cliffgrad.circuit import AnsatzCircuit, RotationGate, generate_hwe_ansatz
from cliffgrad.dense import (
    DEFAULT_QUBIT_CAP,
    basis_state,
    energy,
    exact_ground_energy,
    finite_diff_gradient,
    finite_diff_hessian,
    optimize_bfgs,
    simulate,
    warm_start_hess_inv,
)
from cliffgrad.errors import ResourceCapError
from cliffgrad.expansion import expand
from cliffgrad.observable import Observable, parse_observable
from cliffgrad.tableau import StabilizerTableau

from conftest import random_bitstring, random_clifford_gates, random_observable


def ry_circuit():
    return AnsatzCircuit(1, [RotationGate("Y", 0, 0)])


def test_zero_theta_reproduces_reference():
    circ = generate_hwe_ansatz(4, 2, 1, "complex")
    psi = simulate(circ, np.zeros(circ.n_params), "0110")
    # identity at zero up to a global phase: all weight on the reference index
    assert abs(psi[int("0110", 2)]) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_ry_quarter_pi_amplitudes():
    psi = simulate(ry_circuit(), [np.pi / 4], "0")
    assert np.allclose(psi, [np.cos(np.pi / 4), -np.sin(np.pi / 4)], atol=1e-12)


def test_clifford_only_circuit_matches_stabilizer_engine(rng):
    for _ in range(15):
        n = int(rng.integers(2, 5))
        bits = random_bitstring(rng, n)
        gates = random_clifford_gates(rng, n, 8)
        circ = AnsatzCircuit(n, list(gates))
        psi = simulate(circ, np.zeros(0), bits)
        t = StabilizerTableau(n, bits).apply_circuit(gates)
        # fidelity 1 via the stabilizer projector: every generator fixes psi
        for j in range(n):
            assert np.allclose(t.stabilizer(j).to_matrix() @ psi, psi, atol=1e-10)


def test_energy_closed_form_toy():
    obs = parse_observable("qubits 1\n1.0 X0\n2.0 Z0\n")
    theta = -0.25
    want = -np.sin(2 * theta) + 2 * np.cos(2 * theta)
    assert energy(ry_circuit(), [theta], "0", obs) == pytest.approx(want, abs=1e-12)


def test_energy_at_zero_matches_stabilizer_e0(rng):
    circ = generate_hwe_ansatz(4, 1, 2, "complex")
    obs = Observable.from_strings(4, {"Z0 Z1": -1.0, "X1 X2": 0.4, "Z3": 0.9})
    res = expand(circ, obs, "0101", threshold=0.0)
    assert energy(circ, np.zeros(circ.n_params), "0101", obs) == pytest.approx(res.e0, abs=1e-12)


def test_energy_linear_in_observable_terms(rng):
    circ = generate_hwe_ansatz(3, 1, 4, "complex")
    theta = rng.normal(size=circ.n_params) * 0.2
    o1 = Observable.from_strings(3, {"Z0": 1.0})
    o2 = Observable.from_strings(3, {"X1 X2": 0.5})
    both = Observable(3, o1.terms + o2.terms)
    assert energy(circ, theta, "000", both) == pytest.approx(
        energy(circ, theta, "000", o1) + energy(circ, theta, "000", o2), abs=1e-12
    )


def test_finite_diff_toy_values():
    obs = parse_observable("qubits 1\n1.0 Z0\n")
    g = finite_diff_gradient(ry_circuit(), obs, "0")
    A = finite_diff_hessian(ry_circuit(), obs, "0")
    assert abs(g[0]) < 1e-8
    assert A[0, 0] == pytest.approx(-4.0, abs=1e-4)


def test_finite_diff_hessian_symmetric(rng):
    circ = generate_hwe_ansatz(3, 1, 6, "real")
    obs = Observable.from_strings(3, {"Z0 Z1": -1.0, "X0": -0.5, "X2": -0.5})
    A = finite_diff_hessian(circ, obs, "010")
    assert np.abs(A - A.T).max() < 1e-6


def test_exact_ground_energy_examples():
    assert exact_ground_energy(parse_observable("qubits 1\n1.0 Z0\n")) == pytest.approx(-1.0)
    assert exact_ground_energy(parse_observable("qubits 1\n1.0 X0\n")) == pytest.approx(-1.0)
    heis = parse_observable("qubits 2\n1.0 X0 X1\n1.0 Y0 Y1\n1.0 Z0 Z1\n")
    assert exact_ground_energy(heis) == pytest.approx(-3.0)


def test_exact_ground_energy_sparse_path():
    terms = {f"Z{q} Z{q+1}": -1.0 for q in range(7)}
    obs = Observable.from_strings(8, terms)
    assert exact_ground_energy(obs) == pytest.approx(-7.0)


def test_resource_caps():
    with pytest.raises(ResourceCapError):
        simulate(generate_hwe_ansatz(6, 1, 0), np.zeros(18 * 3), "0" * 6, cap=4)
    with pytest.raises(ResourceCapError):
        exact_ground_energy(Observable.from_strings(15, {"Z0": 1.0}))


def test_warm_start_hess_inv_is_positive_definite():
    A = np.diag([4.0, -2.0, 0.0])
    H = warm_start_hess_inv(A)
    evals = np.linalg.eigvalsh(H)
    assert (evals > 0).all()
    assert H[0, 0] == pytest.approx(0.25)
    assert H[1, 1] == pytest.approx(1.0) and H[2, 2] == pytest.approx(1.0)


def test_theta_star_init_converges_in_few_iterations():
    # X - 2Z has positive curvature at theta=0, so the predicted step descends
    obs = parse_observable("qubits 1\n1.0 X0\n-2.0 Z0\n")
    circ = ry_circuit()
    res = expand(circ, obs, "0", threshold=0.0)
    trace = optimize_bfgs(circ, obs, "0", init="theta_star", expansion=res)
    assert trace.converged and trace.n_iterations <= 4
    zero = optimize_bfgs(circ, obs, "0", init="zero")
    assert trace.final_cost == pytest.approx(zero.final_cost, abs=1e-8)
    assert trace.iterations[0]["cost"] <= zero.iterations[0]["cost"]


def test_max_iteration_exhaustion_is_flagged_not_fatal():
    obs = parse_observable("qubits 1\n1.0 X0\n2.0 Z0\n")
    trace = optimize_bfgs(ry_circuit(), obs, "0", init="zero", max_iterations=1)
    assert not trace.converged
    assert trace.n_iterations <= 1 and np.isfinite(trace.final_cost)


def test_optimize_requires_expansion_for_warm_modes():
    obs = parse_observable("qubits 1\n1.0 Z0\n")
    with pytest.raises(ValueError):
        optimize_bfgs(ry_circuit(), obs, "0", init="theta_star")


def test_trace_document_schema():
    obs = parse_observable("qubits 1\n1.0 X0\n2.0 Z0\n")
    trace = optimize_bfgs(ry_circuit(), obs, "0", init="zero")
    doc = trace.to_dict()
    assert {"init", "iterations", "final_cost", "n_iterations", "converged"} <= doc.keys()
    assert all({"iteration", "cost", "grad_norm"} <= it.keys() for it in doc["iterations"])
    assert set(doc["timings"]) == {"compile_s", "bfgs_s"}


def adjoint_energy_and_gradient(circ, obs, ref, theta):
    return dense._energy_and_gradient(
        dense._op_list(circ, DEFAULT_QUBIT_CAP),
        dense._observable_actions(obs),
        basis_state(ref, circ.n_qubits),
        theta,
        circ.n_qubits,
    )


def general_clifford_circuit(rng, n, n_rotations):
    """Rotations between random Clifford gates, param ids shuffled.

    Unlike a generated ansatz, the Clifford part is not the identity.
    """
    elements = []
    for k in rng.permutation(n_rotations):
        elements += random_clifford_gates(rng, n, int(rng.integers(0, 4)))
        elements.append(RotationGate("XYZ"[rng.integers(0, 3)], int(rng.integers(0, n)), int(k)))
    return AnsatzCircuit(n, elements + random_clifford_gates(rng, n, 3))


@pytest.mark.parametrize("kind", ("real", "complex", "general"))
def test_adjoint_gradient_matches_finite_differences(rng, kind):
    for _ in range(4):
        n = int(rng.integers(2, 7))
        if kind == "general":
            circ = general_clifford_circuit(rng, n, int(rng.integers(1, 13)))
        else:
            circ = generate_hwe_ansatz(n, int(rng.integers(1, 3)), int(rng.integers(0, 1000)), kind)
        obs = random_observable(rng, n, max_terms=8)
        ref = random_bitstring(rng, n)
        theta = rng.uniform(-np.pi, np.pi, circ.n_params)
        e, g = adjoint_energy_and_gradient(circ, obs, ref, theta)
        assert e == pytest.approx(energy(circ, theta, ref, obs), abs=1e-12)
        g_fd = finite_diff_gradient(circ, obs, ref, theta0=theta)
        assert (np.abs(g - g_fd) / (1.0 + np.abs(g))).max() <= 1e-6


@pytest.mark.parametrize("kind", ("real", "complex", "general"))
def test_normal_form_sweep_matches_gate_by_gate_sweep(rng, kind):
    # the normal form comes from the stabilizer generators; the op list is the oracle
    for _ in range(4):
        n = int(rng.integers(2, 7))
        if kind == "general":
            circ = general_clifford_circuit(rng, n, int(rng.integers(2, 13)))
        else:
            circ = generate_hwe_ansatz(n, int(rng.integers(1, 3)), int(rng.integers(0, 1000)), kind)
        obs = random_observable(rng, n, max_terms=8)
        ref = random_bitstring(rng, n)
        rotations, start = dense._normal_form(circ, ref, DEFAULT_QUBIT_CAP)
        assert np.abs(start[0] - simulate(circ, np.zeros(circ.n_params), ref)).max() <= 1e-15
        terms = dense._observable_actions(obs)
        for _ in range(3):
            theta = rng.uniform(-np.pi, np.pi, circ.n_params)
            e, g = dense._energy_and_gradient(rotations, terms, start, theta, n)
            e_ref, g_ref = adjoint_energy_and_gradient(circ, obs, ref, theta)
            assert abs(e - e_ref) <= 1e-12
            assert (np.abs(g - g_ref) / (1.0 + np.abs(g_ref))).max() <= 1e-12
        g_fd = finite_diff_gradient(circ, obs, ref, theta0=theta)
        assert (np.abs(g - g_fd) / (1.0 + np.abs(g))).max() <= 1e-6


def test_trace_records_without_extra_sweeps(monkeypatch):
    swept = []
    sweep = dense._energy_and_gradient

    def counting(ops, terms, reference, theta, n):
        swept.append(tuple(theta))
        return sweep(ops, terms, reference, theta, n)

    monkeypatch.setattr(dense, "_energy_and_gradient", counting)
    circ = generate_hwe_ansatz(3, 1, 5, "real")
    obs = Observable.from_strings(3, {"Z0 Z1": -1.0, "Z1 Z2": -1.0, "X0": -0.6, "X2": -0.6})
    trace = optimize_bfgs(circ, obs, "010", init="zero")
    assert trace.converged and trace.n_iterations >= 2
    # every sweep is at a new point: recording an iteration re-evaluates nothing
    assert len(swept) == len(set(swept)) == trace.n_evaluations
    assert trace.to_dict()["n_evaluations"] == trace.n_evaluations


@pytest.mark.parametrize(
    "init, theta_star_width",
    [("theta_star", 2), ("theta_star_with_hessian", 2), ("theta_star_with_hessian", 1)],
)
def test_optimize_rejects_expansion_of_another_width(monkeypatch, init, theta_star_width):
    obs = parse_observable("qubits 1\n1.0 X0\n2.0 Z0\n")
    wider = AnsatzCircuit(1, [RotationGate("Y", 0, 0), RotationGate("X", 0, 1)])
    res = expand(wider, obs, "0", threshold=0.0)
    # width 1 matches the ansatz, so only the 2 x 2 Hessian is of another width
    res = dataclasses.replace(res, theta_star=res.theta_star[:theta_star_width])

    def no_sweep(*args):
        raise AssertionError("swept before the width check")

    monkeypatch.setattr(dense, "_energy_and_gradient", no_sweep)
    with pytest.raises(ValueError, match="ansatz has 1 parameters"):
        optimize_bfgs(ry_circuit(), obs, "0", init=init, expansion=res)
