"""Dense statevector verification tools.

Desk-scale companions to the stabilizer machinery: exact simulation of an
ansatz at arbitrary parameters, finite-difference derivative oracles,
exact diagonalization of small observables, and the BFGS warm-start
experiment (zero vs theta* vs theta* + initial Hessian).

An ansatz is compiled once into an op list (each Clifford gate's matrix and
each rotation's Pauli action). Forward sweeps over it simulate batches of
parameter vectors; the finite-difference gradient and Hessian stay as the
oracles the tests compare against.

BFGS sweeps the ansatz in Pauli-rotation normal form instead. Moving each
rotation left through the Clifford gates after it rewrites the circuit as
U(theta) = R(theta_K, P'_K)...R(theta_1, P'_1) C_total, with the conjugated
generators P'_k (signs included) that expansion.conjugate_generators
returns. C_total|reference> is computed once, and each exact gradient is
one forward and one backward (adjoint) sweep over the K rotations alone,
with no gate matrices. The normal form is built from the stabilizer
engine's generators, so it cannot check them: the gate-by-gate op list
stays the oracle behind simulate, energy and the finite differences.

Rotation convention matches the expansion: R(theta) = exp(i theta P)
= cos(theta) I + i sin(theta) P.

scipy is imported inside the functions that use it, so that commands
which never call them (expand, select-ansatz, bench) do not load it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .circuit import AnsatzCircuit, RotationGate
from .errors import ResourceCapError
from .expansion import ExpansionResult, conjugate_generators
from .observable import Observable
from .pauli import PHASES, PauliString
from .tableau import CLIFFORD_1Q_WORDS, CliffordGate, check_reference

DEFAULT_QUBIT_CAP = 20

_SQRT2 = np.sqrt(2.0)
_MAT_1Q = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_MAT_2Q = {
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def clifford_1q_matrix(index: int) -> np.ndarray:
    u = np.eye(2, dtype=complex)
    for ch in CLIFFORD_1Q_WORDS[index]:
        u = _MAT_1Q[ch] @ u
    return u


def gate_matrix(gate: CliffordGate) -> np.ndarray:
    if gate.kind == "C1":
        return clifford_1q_matrix(gate.index)
    if gate.kind in _MAT_1Q:
        return _MAT_1Q[gate.kind]
    return _MAT_2Q[gate.kind]


def _check_cap(n_qubits: int, cap: int) -> None:
    if n_qubits > cap:
        raise ResourceCapError(
            f"dense simulation of {n_qubits} qubits exceeds the cap of {cap}"
        )


def _apply_matrix(states: np.ndarray, u: np.ndarray, wires: Tuple[int, ...], n: int) -> np.ndarray:
    """Apply a 1- or 2-qubit unitary to a batch of states, shape (B, 2^n).

    Qubit 0 is the most significant bit of the basis index (leftmost wire).
    """
    B = states.shape[0]
    psi = states.reshape((B,) + (2,) * n)
    axes = [1 + w for w in wires]
    k = len(wires)
    uk = u.reshape((2,) * (2 * k))
    # contract u's input legs with the wire axes; the k output legs land in
    # front, the remaining axes keep their relative order, so moving the
    # output legs back to the wire positions restores the layout
    psi = np.tensordot(uk, psi, axes=(list(range(k, 2 * k)), axes))
    psi = np.moveaxis(psi, list(range(k)), axes)
    return psi.reshape(B, -1)


def basis_state(
    reference: str, n_qubits: int, batch: int = 1, cap: int = DEFAULT_QUBIT_CAP
) -> np.ndarray:
    """(batch, 2^n) copies of the basis state |reference>.

    Raises CircuitFormatError unless `reference` is n_qubits characters of
    0/1, then ResourceCapError above the qubit cap.
    """
    check_reference(reference, n_qubits)
    _check_cap(n_qubits, cap)
    amps = np.zeros((batch, 2**n_qubits), dtype=complex)
    amps[:, int(reference, 2)] = 1.0  # qubit 0 = leftmost = most significant
    return amps


def _pauli_action(n: int, p: PauliString) -> Tuple[np.ndarray, np.ndarray]:
    """Permutation and per-source phases such that P|b> = phase[b] |perm[b]>."""
    dim = 2**n
    idx = np.arange(dim)
    xmask = 0
    zmask = 0
    for q in range(n):
        bitpos = n - 1 - q  # qubit 0 is the most significant bit
        if p.x_bit(q):
            xmask |= 1 << bitpos
        if p.z_bit(q):
            zmask |= 1 << bitpos
    perm = idx ^ xmask
    # Z acts before X in the letter convention? For each qubit the letter
    # acts as a whole: letter|b> contributions: X flips, Z sign (-1)^b,
    # Y|b> = i(-1)^b |1-b>. Using i^{nY} * X-flip * Z-sign-on-input works:
    # Y = i X Z, and Z acts on the input bit.
    zsign = 1 - 2 * (np.bitwise_count(idx & zmask) % 2).astype(np.int64)
    phase = PHASES[(p.phase + p.n_y()) % 4] * zsign
    return perm, phase.astype(complex)


def _apply_action(states: np.ndarray, perm: np.ndarray, phase: np.ndarray) -> np.ndarray:
    out = np.empty_like(states)
    out[:, perm] = states * phase
    return out


class _Rotation(NamedTuple):
    param: int
    perm: np.ndarray
    phase: np.ndarray


class _Gate(NamedTuple):
    u: np.ndarray
    u_dag: np.ndarray
    wires: Tuple[int, ...]


def _gate(gate: CliffordGate) -> _Gate:
    u = gate_matrix(gate)
    return _Gate(u, np.ascontiguousarray(u.conj().T), gate.wires)


def _op_list(ansatz: AnsatzCircuit, cap: int) -> list:
    """The ansatz in time order as _Rotation / _Gate ops, each built once."""
    n = ansatz.n_qubits
    _check_cap(n, cap)
    ops = []
    for e in ansatz.elements:
        if isinstance(e, RotationGate):
            p = PauliString.single(n, e.axis, e.wire)
            ops.append(_Rotation(e.param, *_pauli_action(n, p)))
        else:
            ops.append(_gate(e))
    return ops


def _normal_form(ansatz: AnsatzCircuit, reference: str, cap: int) -> Tuple[list, np.ndarray]:
    """The ansatz as (rotations, start) with U(theta)|reference> = R_K...R_1 start.

    One _Rotation per parameter, R(theta_k, P'_k) in circuit time order, and
    the (1, 2^n) start state C_total|reference> from one gate-by-gate sweep.
    """
    n = ansatz.n_qubits
    basis = basis_state(reference, n, cap=cap)
    gens = conjugate_generators(ansatz)
    order = sorted(range(gens.n_params), key=gens.positions.__getitem__)
    rotations = [_Rotation(k, *_pauli_action(n, gens.paulis[k])) for k in order]
    gates = [_gate(e) for e in ansatz.clifford_elements()]
    return rotations, _forward(gates, basis, np.empty((1, 0)), n)


def _forward(ops: list, amps: np.ndarray, thetas: np.ndarray, n: int) -> np.ndarray:
    for op in ops:
        if isinstance(op, _Rotation):
            t = thetas[:, op.param]
            amps = np.cos(t)[:, None] * amps + (1j * np.sin(t))[:, None] * _apply_action(
                amps, op.perm, op.phase
            )
        else:
            amps = _apply_matrix(amps, op.u, op.wires, n)
    return amps


def _observable_actions(observable: Observable) -> list:
    n = observable.n_qubits
    return [(c, *_pauli_action(n, p)) for c, p in observable.terms]


def _energy_and_gradient(
    ops: list, terms: list, reference: np.ndarray, theta: np.ndarray, n: int
) -> Tuple[float, np.ndarray]:
    """Energy and its exact gradient by adjoint differentiation.

    One forward sweep gives psi and lambda = O psi. The backward sweep undoes
    each op on the stacked pair (phi, lambda); at rotation k, where
    d phi / d theta_k = i P_k phi, it reads g_k = -2 Im <lambda|P_k|phi>
    (Jones & Gacon, arXiv:2009.02823). `reference` is the (1, 2^n) input state.
    """
    psi = _forward(ops, reference, theta[None, :], n)
    # the energy sums term by term as energies_batch does, so it equals energy()
    value = 0.0
    lam = np.zeros_like(psi)
    for c, perm, phase in terms:
        p_psi = _apply_action(psi, perm, phase)
        value += c * np.einsum("bi,bi->b", psi.conj(), p_psi).real[0]
        lam += c * p_psi
    grad = np.zeros(theta.size)
    states = np.vstack([psi, lam])
    for op in reversed(ops):
        if isinstance(op, _Rotation):
            p_states = _apply_action(states, op.perm, op.phase)
            grad[op.param] -= 2.0 * np.vdot(states[1], p_states[0]).imag
            t = theta[op.param]
            states = np.cos(t) * states - 1j * np.sin(t) * p_states
        else:
            states = _apply_matrix(states, op.u_dag, op.wires, n)
    return float(value), grad


def simulate(
    ansatz: AnsatzCircuit,
    theta: np.ndarray,
    reference: str,
    cap: int = DEFAULT_QUBIT_CAP,
) -> np.ndarray:
    """Exact U(theta)|reference> as a 2^n amplitude vector."""
    return simulate_batch(ansatz, np.asarray(theta, dtype=float)[None, :], reference, cap)[0]


def simulate_batch(
    ansatz: AnsatzCircuit,
    thetas: np.ndarray,
    reference: str,
    cap: int = DEFAULT_QUBIT_CAP,
) -> np.ndarray:
    """Simulate many parameter vectors at once; returns (B, 2^n) amplitudes."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != ansatz.n_params:
        raise ValueError(
            f"theta has {thetas.shape[1]} entries, ansatz has {ansatz.n_params} parameters"
        )
    amps = basis_state(reference, ansatz.n_qubits, thetas.shape[0], cap)
    return _forward(_op_list(ansatz, cap), amps, thetas, ansatz.n_qubits)


def energy(
    ansatz: AnsatzCircuit,
    theta: np.ndarray,
    reference: str,
    observable: Observable,
    cap: int = DEFAULT_QUBIT_CAP,
) -> float:
    return float(
        energies_batch(ansatz, np.asarray(theta, dtype=float)[None, :], reference, observable, cap)[0]
    )


def energies_batch(
    ansatz: AnsatzCircuit,
    thetas: np.ndarray,
    reference: str,
    observable: Observable,
    cap: int = DEFAULT_QUBIT_CAP,
) -> np.ndarray:
    """<O> at each parameter vector; DimensionMismatchError unless the
    observable acts on the ansatz's qubits."""
    observable.check_width(ansatz.n_qubits)
    amps = simulate_batch(ansatz, thetas, reference, cap)
    vals = np.zeros(amps.shape[0])
    for c, perm, phase in _observable_actions(observable):
        vals += c * np.einsum("bi,bi->b", amps.conj(), _apply_action(amps, perm, phase)).real
    return vals


# ---------------------------------------------------------------------------
# Finite-difference oracles
# ---------------------------------------------------------------------------


def finite_diff_gradient(
    ansatz: AnsatzCircuit,
    observable: Observable,
    reference: str,
    h: float = 1e-4,
    theta0: Optional[np.ndarray] = None,
    cap: int = DEFAULT_QUBIT_CAP,
) -> np.ndarray:
    """Central differences (E(+h) - E(-h)) / 2h, all entries in one batch."""
    K = ansatz.n_params
    if K == 0:
        return np.zeros(0)
    base = np.zeros(K) if theta0 is None else np.asarray(theta0, dtype=float)
    eye = np.eye(K)
    points = np.vstack([base + h * eye, base - h * eye])
    vals = energies_batch(ansatz, points, reference, observable, cap)
    return (vals[:K] - vals[K:]) / (2 * h)


def finite_diff_hessian(
    ansatz: AnsatzCircuit,
    observable: Observable,
    reference: str,
    h: float = 1e-3,
    theta0: Optional[np.ndarray] = None,
    cap: int = DEFAULT_QUBIT_CAP,
) -> np.ndarray:
    """Second-order central differences, evaluated as one batched sweep."""
    K = ansatz.n_params
    if K == 0:
        return np.zeros((0, 0))
    base = np.zeros(K) if theta0 is None else np.asarray(theta0, dtype=float)
    eye = np.eye(K)
    points = [base]
    for k in range(K):
        points.append(base + h * eye[k])
        points.append(base - h * eye[k])
    off = []
    for k in range(K):
        for m in range(k + 1, K):
            off.append((k, m))
            points.append(base + h * eye[k] + h * eye[m])
            points.append(base + h * eye[k] - h * eye[m])
            points.append(base - h * eye[k] + h * eye[m])
            points.append(base - h * eye[k] - h * eye[m])
    vals = energies_batch(ansatz, np.vstack(points), reference, observable, cap)
    e0 = vals[0]
    A = np.zeros((K, K))
    for k in range(K):
        A[k, k] = (vals[1 + 2 * k] - 2 * e0 + vals[2 + 2 * k]) / h**2
    base_off = 1 + 2 * K
    for i, (k, m) in enumerate(off):
        vpp, vpm, vmp, vmm = vals[base_off + 4 * i : base_off + 4 * i + 4]
        A[k, m] = A[m, k] = (vpp - vpm - vmp + vmm) / (4 * h**2)
    return A


# ---------------------------------------------------------------------------
# Exact diagonalization
# ---------------------------------------------------------------------------


def _pauli_sparse(n: int, p: PauliString):
    import scipy.sparse

    perm, phase = _pauli_action(n, p)
    dim = 2**n
    return scipy.sparse.csr_matrix((phase, (perm, np.arange(dim))), shape=(dim, dim))


def exact_ground_energy(observable: Observable, cap: int = 14) -> float:
    """Minimum eigenvalue of the observable matrix (n <= cap)."""
    n = observable.n_qubits
    if n > cap:
        raise ResourceCapError(f"exact diagonalization refused for n={n} > {cap}")
    H = None
    for c, p in observable.terms:
        m = c * _pauli_sparse(n, p)
        H = m if H is None else H + m
    if H is None:
        return 0.0
    if n <= 6:
        return float(np.linalg.eigvalsh(H.toarray()).min())
    import scipy.sparse.linalg

    # A seeded start vector makes the value reproducible; ARPACK's own is
    # random. An all-ones vector would not do: it is invariant under every
    # basis permutation, so orthogonal to ground states odd under one.
    v0 = np.random.default_rng(0).standard_normal(H.shape[0])
    vals = scipy.sparse.linalg.eigsh(H, k=1, which="SA", v0=v0, return_eigenvectors=False)
    return float(vals[0])


# ---------------------------------------------------------------------------
# BFGS warm start
# ---------------------------------------------------------------------------


@dataclass
class OptimizationTrace:
    """Per-iteration record of a quasi-Newton run."""

    init: str                      # "zero" | "theta_star" | "theta_star_with_hessian"
    iterations: List[dict] = field(default_factory=list)
    final_cost: float = float("nan")
    n_iterations: int = 0
    converged: bool = False
    message: str = ""
    gtol: float = 1e-6
    n_evaluations: int = 0         # energy-and-gradient sweeps run
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "init": self.init,
            "gtol": self.gtol,
            "iterations": list(self.iterations),
            "final_cost": self.final_cost,
            "n_iterations": self.n_iterations,
            "n_evaluations": self.n_evaluations,
            "converged": self.converged,
            "message": self.message,
            "timings": dict(self.timings),
        }


def warm_start_hess_inv(hessian: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Initial inverse-Hessian estimate from the Clifford-point Hessian.

    The quadratic model's curvature can be indefinite; eigenvalues <= eps
    are replaced by identity-scale curvature (1.0) before inversion so the
    estimate stays positive definite, as BFGS requires.
    """
    evals, evecs = np.linalg.eigh(hessian)
    safe = np.where(evals > eps, evals, 1.0)
    inv = (evecs / safe) @ evecs.T
    # exact symmetry so downstream Cholesky-based checks accept it
    return (inv + inv.T) / 2.0


def optimize_bfgs(
    ansatz: AnsatzCircuit,
    observable: Observable,
    reference: str,
    init: str = "zero",
    expansion: Optional[ExpansionResult] = None,
    gtol: float = 1e-6,
    max_iterations: int = 500,
    cap: int = DEFAULT_QUBIT_CAP,
) -> OptimizationTrace:
    """Run BFGS on the dense energy with the chosen initialization.

    init "zero" starts at theta = 0; "theta_star" at the quadratic model's
    stationary point; "theta_star_with_hessian" additionally seeds the
    optimizer's inverse-Hessian estimate from the model Hessian. Gradients
    are exact, from one forward and one backward (adjoint) statevector sweep
    each over the ansatz in Pauli-rotation normal form (_normal_form): K
    Pauli rotations applied to C_total|reference>, which is computed once.
    The trace records the values of the last sweep, so it adds none, and
    its timings split compiling the normal form (compile_s) from the BFGS
    run (bfgs_s). Raises DimensionMismatchError when the observable and the
    ansatz differ in width, CircuitFormatError for a malformed reference,
    and ValueError when theta* or the Hessian does not match the ansatz.
    """
    observable.check_width(ansatz.n_qubits)
    K = ansatz.n_params
    if init not in ("zero", "theta_star", "theta_star_with_hessian"):
        raise ValueError(f"unknown init mode {init!r}")
    if init != "zero" and expansion is None:
        raise ValueError(f"init={init!r} requires an expansion result")

    options = {"gtol": gtol, "maxiter": max_iterations}
    if init == "zero":
        x0 = np.zeros(K)
    else:
        x0 = np.array(expansion.theta_star, dtype=float)
        if x0.shape != (K,):
            raise ValueError(f"theta* has shape {x0.shape}, ansatz has {K} parameters")
    if init == "theta_star_with_hessian":
        hessian = expansion.hessian_full()
        if hessian.shape != (K, K):
            raise ValueError(f"Hessian has shape {hessian.shape}, ansatz has {K} parameters")
        options["hess_inv0"] = warm_start_hess_inv(hessian)

    import scipy.optimize

    t0 = time.perf_counter()
    ops, start = _normal_form(ansatz, reference, cap)
    terms = _observable_actions(observable)
    t1 = time.perf_counter()
    trace = OptimizationTrace(init=init, gtol=gtol)
    last = {}

    def cost_and_grad(theta: np.ndarray) -> Tuple[float, np.ndarray]:
        if "theta" not in last or not np.array_equal(theta, last["theta"]):
            last["theta"] = np.array(theta, dtype=float)
            last["value"] = _energy_and_gradient(ops, terms, start, last["theta"], ansatz.n_qubits)
            trace.n_evaluations += 1
        return last["value"]

    def record(theta: np.ndarray) -> None:
        cost, grad = cost_and_grad(theta)
        trace.iterations.append(
            {
                "iteration": len(trace.iterations),
                "cost": cost,
                "grad_norm": float(np.linalg.norm(grad, np.inf)),
            }
        )

    record(x0)
    res = scipy.optimize.minimize(
        cost_and_grad, x0, jac=True, method="BFGS", options=options, callback=record
    )
    trace.timings = {"compile_s": t1 - t0, "bfgs_s": time.perf_counter() - t1}
    trace.final_cost = float(res.fun)
    trace.n_iterations = int(res.nit)
    trace.converged = bool(res.success)
    trace.message = str(res.message)
    return trace
