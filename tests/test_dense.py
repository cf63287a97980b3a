import dataclasses
from pathlib import Path

import numpy as np
import pytest

from cliffgrad import dense
from cliffgrad.circuit import AnsatzCircuit, RotationGate, generate_hwe_ansatz, select_ansatz
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
from cliffgrad.errors import ResourceCapError, SolveError
from cliffgrad.expansion import _Frame, conjugate_generators, expand
from cliffgrad.observable import Observable, parse_observable
from cliffgrad.pauli import PHASES, PauliString, stack_rows
from cliffgrad.tableau import StabilizerTableau

from conftest import (
    general_clifford_circuit,
    random_bitstring,
    random_clifford_gates,
    random_observable,
)

DATA = Path(__file__).resolve().parents[1] / "data"
CHAIN8, CHAIN10 = DATA / "chain8.txt", DATA / "chain10.txt"


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
    both = Observable.from_terms(3, o1.terms + o2.terms)
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


def _loop_fd_hessian(circ, obs, ref, theta0, h=1e-3):
    """The difference stencil point by point, in the batch order finite_diff_hessian uses."""
    K = circ.n_params
    base, eye = np.zeros(K) if theta0 is None else theta0, np.eye(K)
    points = [base]
    for k in range(K):
        points += [base + h * eye[k], base - h * eye[k]]
    pairs = [(k, m) for k in range(K) for m in range(k + 1, K)]
    for k, m in pairs:
        for a in (base + h * eye[k], base - h * eye[k]):
            points += [a + h * eye[m], a - h * eye[m]]
    vals = dense.energies_batch(circ, np.vstack(points), ref, obs)
    A = np.zeros((K, K))
    for k in range(K):
        A[k, k] = (vals[1 + 2 * k] - 2 * vals[0] + vals[2 + 2 * k]) / h**2
    for i, (k, m) in enumerate(pairs):
        vpp, vpm, vmp, vmm = vals[1 + 2 * K + 4 * i : 5 + 2 * K + 4 * i]
        A[k, m] = A[m, k] = (vpp - vpm - vmp + vmm) / (4 * h**2)
    return A


def test_finite_diff_hessian_equals_the_point_by_point_stencil(rng):
    for n in (2, 3, 4):
        obs, ref = random_observable(rng, n), random_bitstring(rng, n)
        for circ in (generate_hwe_ansatz(n, 1, n, "real"), generate_hwe_ansatz(n, 1, n, "complex"),
                     general_clifford_circuit(rng, n, 7)):
            for theta0 in (None, rng.normal(0, 0.5, circ.n_params)):
                want = _loop_fd_hessian(circ, obs, ref, theta0)
                got = finite_diff_hessian(circ, obs, ref, theta0=theta0)
                assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_exact_ground_energy_examples():
    assert exact_ground_energy(parse_observable("qubits 1\n1.0 Z0\n")) == pytest.approx(-1.0)
    assert exact_ground_energy(parse_observable("qubits 1\n1.0 X0\n")) == pytest.approx(-1.0)
    heis = parse_observable("qubits 2\n1.0 X0 X1\n1.0 Y0 Y1\n1.0 Z0 Z1\n")
    assert exact_ground_energy(heis) == pytest.approx(-3.0)


def test_exact_ground_energy_sparse_path():
    terms = {f"Z{q} Z{q+1}": -1.0 for q in range(7)}
    obs = Observable.from_strings(8, terms)
    assert exact_ground_energy(obs) == pytest.approx(-7.0)


# ---------------------------------------------------------------------------
# The observable as one operator: one gather per distinct X part
# ---------------------------------------------------------------------------


def assert_applies_matrix(obs, states):
    got = dense._apply(dense._operator(obs), states)
    assert got.shape == states.shape
    assert np.abs(got - states @ obs.to_matrix().T).max() <= 1e-13


@pytest.mark.parametrize("n", range(1, 7))
def test_operator_applies_the_observable_matrix(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        obs = random_observable(rng, n, max_terms=40)
        states = rng.normal(size=(4, 2**n)) + 1j * rng.normal(size=(4, 2**n))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        assert_applies_matrix(obs, states)  # a (B, 2^n) batch
        assert_applies_matrix(obs, states[0])  # one state


def test_operator_sums_terms_that_share_an_x_part():
    # X0, X0 Z1 and Y0 Z1 share one X part, and Y0 makes the weights complex
    obs = Observable.from_strings(2, {"X0": 0.5, "X0 Z1": -1.25, "Y0 Z1": 0.75,
                                      "Y0 X1": 2.0, "Z1": 0.3})
    gathers, weights = dense._operator(obs)
    assert gathers.shape == weights.shape == (3, 4) and weights.dtype == complex
    assert sorted(gathers[:, 0]) == [0, 2, 3]  # X parts 00, 10 and 11 as basis masks
    assert_applies_matrix(obs, np.eye(4, dtype=complex))


def test_operator_of_chain8_is_real_with_eight_gathers():
    obs = parse_observable(CHAIN8.read_text())
    gathers, weights = dense._operator(obs)
    assert gathers.shape == weights.shape == (8, 256) and weights.dtype == float
    assert_applies_matrix(obs, np.random.default_rng(8).normal(size=(3, 256)))


def test_operator_without_terms_is_zero():
    gathers, weights = dense._operator(Observable.from_terms(3, []))
    assert gathers.shape == weights.shape == (0, 8)
    states = np.ones((2, 8), dtype=complex)
    assert np.array_equal(dense._apply((gathers, weights), states), np.zeros((2, 8)))


@pytest.mark.parametrize("name", ("chain8", "random5", "random6"))
def test_operator_weights_do_not_depend_on_the_gather_budget(monkeypatch, name):
    # budget 0 reads one term's tables per block, 3 three terms' per block
    obs = _ground_instance(name)
    want = dense._operator(obs)
    for budget in (0, 3):
        monkeypatch.setattr(dense, "_GATHER_ELEMENTS", budget * 2**obs.n_qubits)
        got = dense._operator(obs)
        assert np.array_equal(got[0], want[0])
        assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()


def _ground_instance(name: str) -> Observable:
    """The shipped chains, random observables at n = 1-6, a four-fold
    degenerate ground state and an observable whose only coefficient is 0."""
    if name.startswith("chain"):
        return parse_observable((DATA / f"{name}.txt").read_text())
    if name.startswith("random"):
        n = int(name[6:])
        return random_observable(np.random.default_rng(n), n, max_terms=40)
    if name == "degenerate":
        return Observable.from_strings(3, {"Z0": 1.0})
    return Observable.from_strings(3, {"X0 Y2": 0.0})


GROUND_INSTANCES = ("chain8", "chain10", *(f"random{n}" for n in range(1, 7)), "degenerate", "zero")


@pytest.mark.parametrize("budget", (None, 5))
@pytest.mark.parametrize("name", GROUND_INSTANCES)
def test_exact_ground_energy_matches_dense_spectrum(monkeypatch, name, budget):
    # the shipped chains have XX and YY terms, so H has off-diagonal entries;
    # budget 5 (in states) sums the X parts' weights from blocks of five terms
    obs = _ground_instance(name)
    if budget is not None:
        monkeypatch.setattr(dense, "_GATHER_ELEMENTS", budget * 2**obs.n_qubits)
    want = np.linalg.eigvalsh(obs.to_matrix()).min()
    assert abs(exact_ground_energy(obs) - want) <= 1e-12


@pytest.mark.parametrize("width", (4, 10))
@pytest.mark.parametrize("name", ("chain8", "chain10", "random5", "random6"))
def test_thick_restarts_keep_the_ground_energy(monkeypatch, name, width):
    # a narrow basis restarts long before the ground state converges
    monkeypatch.setattr(dense, "_KRYLOV_WIDTH", width)
    obs = _ground_instance(name)
    want = np.linalg.eigvalsh(obs.to_matrix()).min()
    assert abs(exact_ground_energy(obs) - want) <= 1e-12


@pytest.mark.parametrize("n", (3, 8))
def test_exact_ground_energy_of_constant_and_empty_observables(n):
    # Lanczos stops at once: the first new vector is zero
    assert exact_ground_energy(Observable.from_strings(n, {"": 2.5})) == pytest.approx(2.5)
    assert exact_ground_energy(Observable.from_terms(n, [])) == 0.0


def test_lanczos_step_limit_is_a_solve_error(monkeypatch):
    monkeypatch.setattr(dense, "_LANCZOS_STEPS", 1)
    with pytest.raises(SolveError, match="Lanczos did not converge in 1 steps"):
        exact_ground_energy(parse_observable(CHAIN8.read_text()))


# The coefficients are scaled by a power of two, so no norm overflows: the
# first two values are those ARPACK gave, and at 1.7e308 ARPACK failed
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coeff, want", (("1e200", -1.0000000000000003e200),
                                         ("1e300", -1.0000000000000002e300),
                                         ("1.7e308", -1.7e308)))
def test_exact_ground_energy_of_a_huge_coefficient(coeff, want):
    obs = parse_observable(CHAIN8.read_text().replace("0.094217 X0 X1\n", f"{coeff} X0 X1\n", 1))
    assert exact_ground_energy(obs) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_ground_energy_is_a_solve_error():
    with pytest.raises(SolveError, match="overflows"):
        exact_ground_energy(Observable.from_strings(2, {"Z0": 1e308, "Z1": 1e308}))


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
        dense._operator(obs),
        basis_state(ref, circ.n_qubits),
        theta,
        circ.n_qubits,
    )


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
        # one operator and one reduction read both, over the same op list
        assert e == energy(circ, theta, ref, obs)
        g_fd = finite_diff_gradient(circ, obs, ref, theta0=theta)
        assert (np.abs(g - g_fd) / (1.0 + np.abs(g))).max() <= 1e-6


@pytest.mark.parametrize("kind", ("real", "complex", "general"))
def test_normal_form_sweep_matches_gate_by_gate_sweep(rng, kind):
    # the normal form comes from the stabilizer engine's input frame; the op
    # list is the oracle
    for _ in range(4):
        n = int(rng.integers(2, 7))
        if kind == "general":
            circ = general_clifford_circuit(rng, n, int(rng.integers(2, 13)))
        else:
            circ = generate_hwe_ansatz(n, int(rng.integers(1, 3)), int(rng.integers(0, 1000)), kind)
        obs = random_observable(rng, n, max_terms=8)
        ref = random_bitstring(rng, n)
        rotations, operator, start = dense._normal_form(circ, obs, ref, DEFAULT_QUBIT_CAP)
        assert np.array_equal(start, basis_state("0" * n, n))  # exactly e_0
        for _ in range(3):
            theta = rng.uniform(-np.pi, np.pi, circ.n_params)
            e, g = dense._energy_and_gradient(rotations, operator, start, theta, n)
            e_ref, g_ref = adjoint_energy_and_gradient(circ, obs, ref, theta)
            assert abs(e - e_ref) <= 1e-12
            assert (np.abs(g - g_ref) / (1.0 + np.abs(g_ref))).max() <= 1e-12
        g_fd = finite_diff_gradient(circ, obs, ref, theta0=theta)
        assert (np.abs(g - g_fd) / (1.0 + np.abs(g))).max() <= 1e-6


def test_trace_records_without_extra_sweeps(monkeypatch):
    swept = []
    sweep = dense._energy_and_gradient

    def counting(ops, operator, reference, theta, n):
        swept.append(tuple(theta))
        return sweep(ops, operator, reference, theta, n)

    monkeypatch.setattr(dense, "_energy_and_gradient", counting)
    circ = generate_hwe_ansatz(3, 1, 5, "real")
    obs = Observable.from_strings(3, {"Z0 Z1": -1.0, "Z1 Z2": -1.0, "X0": -0.6, "X2": -0.6})
    trace = optimize_bfgs(circ, obs, "010", init="zero")
    assert trace.converged and trace.n_iterations >= 2
    # every sweep is at a new point: recording an iteration re-evaluates nothing
    assert len(swept) == len(set(swept)) == trace.n_evaluations
    assert trace.to_dict()["n_evaluations"] == trace.n_evaluations


def bfgs_instance(name):
    """(circuit, observable, reference): the pipeline's instance (the
    select-ansatz winner of 32 real depth-2 candidates on chain8), the
    stationary complex depth-2 instance on chain8, or a complex depth-2
    ansatz on chain10."""
    obs, ref = parse_observable(CHAIN8.read_text()), "01010101"
    if name == "pipeline":
        return select_ansatz(32, 8, 2, obs, ref, 5, "real")[0], obs, ref
    if name == "stationary":
        return generate_hwe_ansatz(8, 2, 6, "complex"), obs, ref
    return generate_hwe_ansatz(10, 2, 0, "complex"), parse_observable(CHAIN10.read_text()), "01" * 5


@pytest.mark.parametrize("instance", ("pipeline", "stationary"))
def test_normal_form_sweep_is_exact_at_the_clifford_point(instance):
    # at theta = 0 the sweep reads O~ at e_0, so the entries that the
    # stabilizer expansion finds exactly 0 come out exactly 0
    circ, obs, ref = bfgs_instance(instance)
    res = expand(circ, obs, ref, threshold=0.0)
    rotations, operator, start = dense._normal_form(circ, obs, ref, DEFAULT_QUBIT_CAP)
    assert np.array_equal(start, basis_state("0" * 8, 8))
    e, g = dense._energy_and_gradient(rotations, operator, start, np.zeros(circ.n_params), 8)
    zero = res.gradient == 0
    assert zero.any() and not g[zero].any()
    bound = 1e-14 * np.abs(obs.coeffs).sum()
    assert abs(e - res.e0) <= bound and np.abs(g - res.gradient).max() <= bound


def test_optimize_applies_no_clifford_gate(monkeypatch):
    circ, obs, ref = bfgs_instance("pipeline")
    res = expand(circ, obs, ref)

    def no_gate(*args):
        raise AssertionError("applied a gate matrix")

    monkeypatch.setattr(dense, "_apply_matrix", no_gate)
    for init in ("zero", "theta_star_with_hessian"):
        assert optimize_bfgs(circ, obs, ref, init=init, expansion=res).converged
    # the oracle still sweeps the gate-by-gate op list
    with pytest.raises(AssertionError, match="gate matrix"):
        energy(circ, res.theta_star, ref, obs)


# the pipeline's instance cold and warm; the stationary instance cold, which
# stops at its saddle after 18 iterations and 2 zooms; and the chain10
# instance cold, whose 27 iterations take 9 zooms and keep the zoom covered
@pytest.mark.parametrize("instance, init", [
    ("pipeline", "zero"), ("pipeline", "theta_star_with_hessian"), ("stationary", "zero"),
    ("chain10", "zero"),
])
def test_every_bfgs_step_meets_the_strong_wolfe_conditions(monkeypatch, instance, init):
    circ, obs, ref = bfgs_instance(instance)
    res = expand(circ, obs, ref)
    swept, zooms = [], []
    sweep, zoom = dense._energy_and_gradient, dense._zoom

    def counting_zoom(*args):
        zooms.append(args)
        return zoom(*args)

    def recording(ops, operator, reference, theta, n):
        value = sweep(ops, operator, reference, theta, n)
        swept.append((theta.copy(), *value))
        return value

    monkeypatch.setattr(dense, "_energy_and_gradient", recording)
    monkeypatch.setattr(dense, "_zoom", counting_zoom)
    trace = optimize_bfgs(circ, obs, ref, init=init, expansion=res)
    assert trace.converged and trace.n_iterations > 10
    if instance == "chain10":  # the case that keeps the zoom covered
        assert len(zooms) >= 5
    # each recorded iteration is the one sweep with its cost and gradient norm
    accepted = []
    for it in trace.iterations:
        (point,) = [(x, f, g) for x, f, g in swept
                    if f == it["cost"] and np.abs(g).max() == it["grad_norm"]]
        accepted.append(point)
    for (x, f, g), (x_next, f_next, g_next) in zip(accepted, accepted[1:]):
        s = x_next - x
        assert g @ s < 0
        assert f_next <= f + 1e-4 * (g @ s)
        assert abs(g_next @ s) <= 0.9 * abs(g @ s)


def test_bfgs_with_the_exact_inverse_hessian_converges_in_one_iteration():
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    A = q @ np.diag([2.0, 3.0, 5.0, 8.0, 13.0]) @ q.T
    # |b| is small enough that scipy's first trial step is the full Newton step
    b = 0.5 * rng.standard_normal(5)
    recorded = []
    f, k, converged, message = dense._bfgs(
        lambda x: (0.5 * x @ A @ x - b @ x, A @ x - b), np.zeros(5), np.linalg.inv(A),
        1e-6, 50, lambda f, g: recorded.append(f),
    )
    assert (k, converged, message) == (1, True, "Optimization terminated successfully.")
    assert len(recorded) == 2 and f == pytest.approx(-0.5 * b @ np.linalg.solve(A, b), abs=1e-14)


def test_a_failed_line_search_ends_with_scipys_precision_loss_message(monkeypatch):
    # a flat energy whose sweep reports a gradient: no step decreases it
    def flat(ops, terms, reference, theta, n):
        return 1.5, np.ones(theta.size)

    monkeypatch.setattr(dense, "_energy_and_gradient", flat)
    obs = parse_observable("qubits 1\n1.0 X0\n2.0 Z0\n")
    trace = optimize_bfgs(ry_circuit(), obs, "0", init="zero")
    assert not trace.converged and trace.n_iterations == 0 and trace.final_cost == 1.5
    assert trace.message == "Desired error not necessarily achieved due to precision loss."
    assert len(trace.iterations) == 1 and trace.n_evaluations > 1


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


# ---------------------------------------------------------------------------
# Reference sweep: one scatter per rotation and per X part of O
# ---------------------------------------------------------------------------


def scatter_action(n, p):
    """Permutation and per-source phases such that P|b> = phase[b] |perm[b]>."""
    basis = np.arange(2**n)
    # qubit 0 is the most significant bit of a basis index
    xmask = sum(p.x_bit(q) << (n - 1 - q) for q in range(n))
    zmask = sum(p.z_bit(q) << (n - 1 - q) for q in range(n))
    zsign = 1 - 2 * (np.bitwise_count(basis & zmask) % 2).astype(np.int64)
    phase = PHASES[(p.phase + p.n_y()) % 4] * zsign
    return basis ^ xmask, phase.astype(complex)


def scatter(states, perm, phase):
    out = np.empty_like(states)
    out[:, perm] = states * phase
    return out


def scatter_parts(obs):
    """[(perm, weights)] of O, one per distinct X part in the order of
    np.unique over the packed X rows: the weights sum c_t times the source
    phases of scatter_action in term order, real when every part's are."""
    n, xs = obs.n_qubits, obs.rows[0]
    parts = []
    for flip in np.unique(xs, axis=0):
        perm, weights = None, np.zeros(2**n, dtype=complex)
        for (c, p), x in zip(obs.terms, xs):
            if np.array_equal(x, flip):
                perm, phase = scatter_action(n, p)
                weights += c * phase
        parts.append((perm, weights))
    if not any(w.imag.any() for _, w in parts):
        parts = [(perm, w.real.copy()) for perm, w in parts]
    return parts


def scatter_apply(obs, psi):
    lam = np.zeros_like(psi)
    for perm, weights in scatter_parts(obs):
        part = np.empty_like(psi)
        # weights times amplitudes, in this order: with FMA, complex products
        # need not commute in their last bit
        part[:, perm] = weights * psi
        lam += part
    return lam


def scatter_ops(circ, obs, ref, form):
    """(ops, observable, start) of the gate-by-gate op list or the normal
    form, with each rotation as (param, perm, phase) for scatter. The normal
    form rotates about the input frame's generator images, in time order,
    applies the term images (each image's sign in its coefficient) and
    starts from e_0."""
    n = circ.n_qubits
    if form == "gates":
        ops = [
            (e.param, *scatter_action(n, PauliString.single(n, e.axis, e.wire)))
            if isinstance(e, RotationGate)
            else dense._gate(e)
            for e in circ.elements
        ]
        return ops, obs, basis_state(ref, n)
    gens = conjugate_generators(circ)
    frame = _Frame(obs, circ.clifford_point_state(ref), gens)
    images = [PauliString(n, x, z, int(p)) for x, z, p in zip(*frame.generators)]
    order = sorted(range(gens.n_params), key=gens.positions.__getitem__)
    ops = [(k, *scatter_action(n, images[k])) for k in order]
    x, z, k = frame.terms
    start = np.zeros((1, 2**n), dtype=complex)
    start[0, 0] = 1.0
    return ops, Observable(n, x, z, obs.coeffs * np.array(PHASES)[k].real), start


def scatter_forward(ops, start, thetas, n):
    psi = start
    for op in ops:
        if isinstance(op, dense._Gate):
            psi = dense._apply_matrix(psi, op.u, op.wires, n)
        else:
            t = thetas[:, op[0]]
            psi = np.cos(t)[:, None] * psi + (1j * np.sin(t))[:, None] * scatter(psi, *op[1:])
    return psi


def scatter_energies(ops, obs, start, thetas, n):
    psi = scatter_forward(ops, start, thetas, n)
    return np.einsum("bi,bi->b", psi.conj(), scatter_apply(obs, psi)).real


def scatter_sweep(ops, obs, start, theta, n):
    """Energy and adjoint gradient, one scatter per rotation and per X part."""
    psi = scatter_forward(ops, start, theta[None, :], n)
    lam = scatter_apply(obs, psi)
    value = np.einsum("bi,bi->b", psi.conj(), lam).real[0]
    grad = np.zeros(theta.size)
    states = np.vstack([psi, lam])
    for op in reversed(ops):
        if isinstance(op, dense._Gate):
            states = dense._apply_matrix(states, op.u_dag, op.wires, n)
        else:
            p_states = scatter(states, *op[1:])
            grad[op[0]] -= 2.0 * np.vdot(states[1], p_states[0]).imag
            t = theta[op[0]]
            states = np.cos(t) * states - 1j * np.sin(t) * p_states
    return float(value), grad


def compiled(circ, obs, ref, form):
    """(ops, operator, start) of the op list or of the normal form."""
    if form == "gates":
        ops = dense._op_list(circ, DEFAULT_QUBIT_CAP)
        return ops, dense._operator(obs), basis_state(ref, circ.n_qubits)
    return dense._normal_form(circ, obs, ref, DEFAULT_QUBIT_CAP)


def assert_bit_identical(got, want):
    assert got[0] == want[0] and np.array_equal(got[1], want[1])
    # sign bits too: a -0.0 would show in the optimize trace
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("budget", (None, 3, 0))
@pytest.mark.parametrize("form", ("gates", "normal"))
@pytest.mark.parametrize("kind", ("real", "complex", "general"))
def test_gather_sweep_is_bit_identical_to_scatter_sweep(rng, monkeypatch, kind, form, budget):
    # budget 3 (in states) reads three terms' tables per block, 0 one term per block
    for _ in range(4):
        n = int(rng.integers(2, 7))
        if kind == "general":
            circ = general_clifford_circuit(rng, n, int(rng.integers(1, 13)))
        else:
            circ = generate_hwe_ansatz(n, int(rng.integers(1, 3)), int(rng.integers(0, 1000)), kind)
        obs = random_observable(rng, n, max_terms=8)
        ref = random_bitstring(rng, n)
        if budget is not None:
            monkeypatch.setattr(dense, "_GATHER_ELEMENTS", budget * 2**n)
        ops, operator, start = compiled(circ, obs, ref, form)
        want_ops, want_obs, want_start = scatter_ops(circ, obs, ref, form)
        assert np.array_equal(start, want_start)
        for _ in range(3):
            theta = rng.uniform(-np.pi, np.pi, circ.n_params)
            assert_bit_identical(
                dense._energy_and_gradient(ops, operator, start, theta, n),
                scatter_sweep(want_ops, want_obs, want_start, theta, n),
            )
        if form == "gates":
            thetas = rng.uniform(-np.pi, np.pi, (5, circ.n_params))
            got = dense.energies_batch(circ, thetas, ref, obs)
            starts = np.repeat(want_start, 5, axis=0)
            assert got.tobytes() == scatter_energies(want_ops, obs, starts, thetas, n).tobytes()


def test_op_list_holds_one_gather_table_per_distinct_pauli():
    # K = 90 rotations about 18 distinct single-qubit Paulis, 5 each
    circ = generate_hwe_ansatz(6, 2, 1, "complex")
    ops = dense._op_list(circ, DEFAULT_QUBIT_CAP)
    rotations = [op for op in ops if isinstance(op, dense._Rotation)]
    distinct = {(e.axis, e.wire) for e in circ.rotation_gates()}
    assert len(rotations) == circ.n_params == 90 and len(distinct) == 18
    assert len({id(op.idx) for op in rotations}) == len({id(op.phase) for op in rotations}) == 18
    for e, op in zip(circ.rotation_gates(), rotations):
        want = dense._actions(*stack_rows([PauliString.single(6, e.axis, e.wire)], 6), 6)
        assert np.array_equal(op.idx, want[0][0]) and np.array_equal(op.phase, want[1][0])


@pytest.mark.parametrize("form", ("gates", "normal"))
def test_gather_sweep_of_an_observable_without_terms(rng, form):
    circ = generate_hwe_ansatz(4, 1, 3, "complex")
    obs = Observable.from_terms(4, [])
    ops, operator, start = compiled(circ, obs, "0110", form)
    theta = rng.uniform(-np.pi, np.pi, circ.n_params)
    got = dense._energy_and_gradient(ops, operator, start, theta, 4)
    want_ops, want_obs, want_start = scatter_ops(circ, obs, "0110", form)
    assert_bit_identical(got, scatter_sweep(want_ops, want_obs, want_start, theta, 4))
    assert got[0] == 0.0 and not got[1].any()


def test_bfgs_trace_is_identical_under_the_scatter_sweep(monkeypatch):
    obs = parse_observable(CHAIN8.read_text())
    circ = generate_hwe_ansatz(8, 1, 2, "real")
    ref = "01010101"
    compiled_trace = optimize_bfgs(circ, obs, ref, init="zero").to_dict()
    want_ops, want_obs, want_start = scatter_ops(circ, obs, ref, "normal")

    def scatter_energy_and_gradient(ops, operator, start, theta, n):
        return scatter_sweep(want_ops, want_obs, want_start, theta, n)

    monkeypatch.setattr(dense, "_energy_and_gradient", scatter_energy_and_gradient)
    scatter_trace = optimize_bfgs(circ, obs, ref, init="zero").to_dict()
    assert compiled_trace["n_iterations"] > 5
    del compiled_trace["timings"], scatter_trace["timings"]
    assert compiled_trace == scatter_trace
