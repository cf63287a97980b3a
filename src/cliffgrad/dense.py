"""Dense statevector verification tools.

Desk-scale companions to the stabilizer machinery: exact simulation of an
ansatz at arbitrary parameters, finite-difference derivative oracles,
exact diagonalization of small observables, and the BFGS warm-start
experiment (zero vs theta* vs theta* + initial Hessian).

Every Pauli action is compiled once into a gather table: P psi =
psi[idx] * phase, with idx[c] = c XOR x and the phases already permuted.
_actions builds the tables of a whole set of packed rows in one
vectorised call: the observable's terms, the conjugated generators, or
the single-qubit rotations of an op list.

An ansatz is compiled once into an op list (each Clifford gate's matrix and
each rotation's gather table). Forward sweeps over it simulate batches of
parameter vectors. The gate-by-gate op list stays the oracle: simulate,
energy and the finite-difference gradient and Hessian sweep it, and the
tests compare against them.

BFGS sweeps the ansatz in Pauli-rotation normal form instead, over the
generators' gather tables. Moving each rotation left through the Clifford
gates after it rewrites the circuit as
U(theta) = R(theta_K, P'_K)...R(theta_1, P'_1) C_total, with the conjugated
generators P'_k (signs included) that circuit.conjugate_generators
returns. C_total|reference> is computed
once, and each exact gradient is one forward and one backward (adjoint)
sweep over the K rotations alone, with no gate matrices. The observable's
term images are gathered as stacked blocks of at most _GATHER_ELEMENTS
amplitudes, but the energy still sums term by term and O psi accumulates in
term order, so every value is bit-identical to a sweep that applies one
term at a time. The normal form is built from the stabilizer engine's
generators, so it cannot check them.

exact_ground_energy builds the observable's CSR matrix from the same
tables, one CSR per block of terms under the same budget.

Rotation convention matches the expansion: R(theta) = exp(i theta P)
= cos(theta) I + i sin(theta) P.

scipy is imported inside the functions that use it, so that commands
which never call them (expand, select-ansatz) do not load it.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import reduce
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .circuit import AnsatzCircuit, RotationGate, conjugate_generators
from .errors import ResourceCapError, SolveError
from .expansion import ExpansionResult, eigh
from .observable import Observable
from .pauli import PHASES, _bits, _row_popcount, pack_masks
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


# The 24 single-qubit Cliffords, each word multiplied out once, letters in time order
_MAT_C1 = [reduce(lambda u, ch: _MAT_1Q[ch] @ u, word, np.eye(2, dtype=complex))
           for word in CLIFFORD_1Q_WORDS]


def gate_matrix(gate: CliffordGate) -> np.ndarray:
    if gate.kind == "C1":
        return _MAT_C1[gate.index]
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


def _actions(x: np.ndarray, z: np.ndarray, phase: np.ndarray, n: int) -> Tuple[np.ndarray, ...]:
    """Gather tables of M packed Pauli rows: P_m psi = psi[..., idx[m]] * phase[m].

    Both tables are (M, 2^n): idx[m, c] = c XOR x_m, and phase[m, c] is the
    phase P_m gives the basis state |idx[m, c]> on its way to |c>.
    """
    # qubit 0 is the most significant bit of a basis index
    xmask, zmask = _bits(np.stack([x, z]), n).astype(np.int64) @ (1 << np.arange(n)[::-1])
    idx = np.arange(2**n) ^ xmask[:, None]
    # P|b> = i^(phase + n_Y) (-1)^|b ∧ z| |b ⊕ x>, since Y = i XZ; read at b = idx
    signed = np.array(PHASES)[(phase + _row_popcount(x & z)) % 4][:, None] * np.array([1, -1])
    odd = np.bitwise_count(idx & zmask[:, None]) % 2 == 1
    return idx, np.where(odd, signed[:, 1:], signed[:, :1])


class _Rotation(NamedTuple):
    param: int
    idx: np.ndarray
    phase: np.ndarray


class _Gate(NamedTuple):
    u: np.ndarray
    u_dag: np.ndarray
    wires: Tuple[int, ...]


def _gate(gate: CliffordGate) -> _Gate:
    u = gate_matrix(gate)
    return _Gate(u, np.ascontiguousarray(u.conj().T), gate.wires)


def _op_list(ansatz: AnsatzCircuit, cap: int) -> list:
    """The ansatz in time order as _Rotation / _Gate ops, each built once.

    Rotations about one Pauli (axis, wire) share one gather table: at most
    3n tables of 2^n entries, however many rotations there are.
    """
    n = ansatz.n_qubits
    _check_cap(n, cap)
    paulis = sorted({(e.axis, e.wire) for e in ansatz.elements if isinstance(e, RotationGate)})
    masks = [((axis != "Z") << wire, (axis != "X") << wire) for axis, wire in paulis]
    actions = _actions(*pack_masks(masks, n), np.zeros(len(masks), dtype=np.int64), n)
    tables = dict(zip(paulis, zip(*actions)))
    return [
        _Rotation(e.param, *tables[e.axis, e.wire]) if isinstance(e, RotationGate) else _gate(e)
        for e in ansatz.elements
    ]


def _normal_form(ansatz: AnsatzCircuit, reference: str, cap: int) -> Tuple[list, np.ndarray]:
    """The ansatz as (rotations, start) with U(theta)|reference> = R_K...R_1 start.

    One _Rotation per parameter, R(theta_k, P'_k) in circuit time order, and
    the (1, 2^n) start state C_total|reference> from one gate-by-gate sweep.
    """
    n = ansatz.n_qubits
    basis = basis_state(reference, n, cap=cap)
    gens = conjugate_generators(ansatz)
    order = sorted(range(gens.n_params), key=gens.positions.__getitem__)
    idx, phase = _actions(gens.x[order], gens.z[order], gens.phase[order], n)
    rotations = [_Rotation(*op) for op in zip(order, idx, phase)]
    gates = [_gate(e) for e in ansatz.clifford_elements()]
    no_theta = np.empty((1, 0))
    return rotations, _forward(gates, basis, no_theta, no_theta, n)


def _forward(ops: list, amps: np.ndarray, cos: np.ndarray, sin: np.ndarray, n: int) -> np.ndarray:
    """Sweep (B, 2^n) states through ops; cos and sin are (B, K), of every theta."""
    isin = 1j * sin
    for op in ops:
        if isinstance(op, _Rotation):
            k = op.param
            p_amps = amps.take(op.idx, axis=1) * op.phase
            amps = cos[:, k, None] * amps + isin[:, k, None] * p_amps
        else:
            amps = _apply_matrix(amps, op.u, op.wires, n)
    return amps


# Most complex amplitudes one gathered block of term images may hold; the
# terms are gathered a block at a time so memory stays bounded at the cap.
_GATHER_ELEMENTS = 1 << 22


def _observable_actions(observable: Observable) -> Tuple[np.ndarray, ...]:
    """(coeffs, idx, phase): the coefficients and the terms' gather tables."""
    return (observable.coeffs, *_actions(*observable.rows, observable.n_qubits))


def _term_blocks(states: np.ndarray, terms: Tuple[np.ndarray, ...]):
    """(coeffs, images, energies) per block of terms, in term order:
    images[:, t] is P_t states and energies[:, t] the real <states|P_t|states>,
    for at most _GATHER_ELEMENTS amplitudes of images (and at least one term)."""
    coeffs, idx, phase = terms
    step = max(1, _GATHER_ELEMENTS // states.size)
    bra = states.conj()
    for b in (slice(lo, lo + step) for lo in range(0, coeffs.size, step)):
        block = states.take(idx[b], axis=1) * phase[b]
        # one einsum sums each term's products in the same order as one per term
        yield coeffs[b], block, np.einsum("bi,bti->bt", bra, block).real


def _energy_and_gradient(
    ops: list, terms: tuple, reference: np.ndarray, theta: np.ndarray, n: int
) -> Tuple[float, np.ndarray]:
    """Energy and its exact gradient by adjoint differentiation.

    One forward sweep gives psi and lambda = O psi. The backward sweep undoes
    each op on the stacked pair (phi, lambda); at rotation k, where
    d phi / d theta_k = i P_k phi, it reads g_k = -2 Im <lambda|P_k|phi>
    (Jones & Gacon, arXiv:2009.02823). `reference` is the (1, 2^n) input
    state. cos and sin of theta are taken once per sweep.
    """
    cos, sin = np.cos(theta), np.sin(theta)
    psi = _forward(ops, reference, cos[None], sin[None], n)
    # the energy sums term by term as energies_batch does, so it equals energy()
    value, lam = 0.0, np.zeros_like(psi)
    for coeffs, images, energies in _term_blocks(psi, terms):
        for c, e in zip(coeffs, energies[0]):
            value += c * e
        for weighted in (images * coeffs[:, None]).transpose(1, 0, 2):
            lam += weighted
    grad = np.zeros(theta.size)
    states = np.vstack([psi, lam])
    for op in reversed(ops):
        if isinstance(op, _Rotation):
            k = op.param
            # take keeps the rows C-contiguous; a strided row would send vdot
            # down another BLAS path and change the gradient's last bits
            p_states = states.take(op.idx, axis=1) * op.phase
            grad[k] -= 2.0 * np.vdot(states[1], p_states[0]).imag
            states = cos[k] * states - 1j * sin[k] * p_states
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
    return _forward(_op_list(ansatz, cap), amps, np.cos(thetas), np.sin(thetas), ansatz.n_qubits)


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
    for coeffs, _, energies in _term_blocks(amps, _observable_actions(observable)):
        for c, e in zip(coeffs, energies.T):
            vals += c * e
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
    step = h * np.eye(K)
    axis = np.stack([base + step, base - step], axis=1)  # (K, 2, K): +e_k, -e_k
    k, m = np.triu_indices(K, 1)
    # (P, 2, 2, K): each axis point of k, then plus and minus the step of m
    pairs = np.stack([axis[k] + step[m, None], axis[k] - step[m, None]], axis=2)
    points = np.vstack([base, axis.reshape(-1, K), pairs.reshape(-1, K)])
    vals = energies_batch(ansatz, points, reference, observable, cap)
    e0, ax, pp = vals[0], vals[1 : 1 + 2 * K], vals[1 + 2 * K :]
    A = np.diag((ax[0::2] - 2 * e0 + ax[1::2]) / h**2)
    A[k, m] = A[m, k] = (pp[0::4] - pp[1::4] - pp[2::4] + pp[3::4]) / (4 * h**2)
    return A


# ---------------------------------------------------------------------------
# Exact diagonalization
# ---------------------------------------------------------------------------


def exact_ground_energy(observable: Observable, cap: int = 14) -> float:
    """Minimum eigenvalue of the observable matrix (n <= cap).

    H is built from the terms' gather tables as one CSR matrix per block of
    at most _GATHER_ELEMENTS table entries (one block up to 1024 terms at
    n = 12), row c holding c_i phase_i[c] at column idx_i[c] for every term
    i of the block. Raises SolveError when ARPACK fails (n > 6).
    """
    n = observable.n_qubits
    if n > cap:
        raise ResourceCapError(f"exact diagonalization refused for n={n} > {cap}")
    if observable.n_terms == 0:
        return 0.0
    import scipy.sparse
    import scipy.sparse.linalg

    (x, z, p), coeffs, dim = observable.rows, observable.coeffs, 2**n
    step = max(1, _GATHER_ELEMENTS // dim)
    H = None
    for b in (slice(lo, lo + step) for lo in range(0, coeffs.size, step)):
        idx, phase = _actions(x[b], z[b], p[b], n)
        data, m = (coeffs[b, None] * phase).T.ravel(), idx.shape[0]
        block = scipy.sparse.csr_matrix(
            (data, idx.T.ravel(), np.arange(0, dim * m + 1, m)), (dim, dim)
        )
        H = block if H is None else H + block
    H.sum_duplicates()
    if n <= 6:
        return float(np.linalg.eigvalsh(H.toarray()).min())
    # A seeded start vector makes the value reproducible; ARPACK's own is
    # random. An all-ones vector would not do: it is invariant under every
    # basis permutation, so orthogonal to ground states odd under one.
    v0 = np.random.default_rng(0).standard_normal(dim)
    try:
        vals = scipy.sparse.linalg.eigsh(H, k=1, which="SA", v0=v0, return_eigenvectors=False)
    except scipy.sparse.linalg.ArpackError as exc:
        raise SolveError(f"exact ground energy: ARPACK failed: {exc}") from exc
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
        return asdict(self)


def warm_start_hess_inv(hessian: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Initial inverse-Hessian estimate from the Clifford-point Hessian.

    The quadratic model's curvature can be indefinite; eigenvalues <= eps
    are replaced by identity-scale curvature (1.0) before inversion so the
    estimate stays positive definite, as BFGS requires. The curvature is
    capped at 1e12 times its least value, so that it stays positive
    definite in floating point too: scipy refuses an estimate whose
    Cholesky factorization fails, as one of condition 1e21 does.
    SolveError when the eigensolve fails (expansion.eigh).
    """
    evals, evecs = eigh(hessian)
    safe = np.where(evals > eps, evals, 1.0)
    inv = (evecs / np.minimum(safe, 1e12 * safe.min(initial=np.inf))) @ evecs.T
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
    ValueError when theta* or the Hessian does not match the ansatz, and
    SolveError when a sweep's energy or a gradient entry is not finite.
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

    t0 = time.perf_counter()
    ops, start = _normal_form(ansatz, reference, cap)
    terms = _observable_actions(observable)
    t1 = time.perf_counter()
    trace = OptimizationTrace(init=init, gtol=gtol)
    last = {}

    def cost_and_grad(theta: np.ndarray) -> Tuple[float, np.ndarray]:
        if "theta" not in last or not np.array_equal(theta, last["theta"]):
            last["theta"] = np.array(theta, dtype=float)
            value = _energy_and_gradient(ops, terms, start, last["theta"], ansatz.n_qubits)
            trace.n_evaluations += 1
            if not np.isfinite(np.hstack(value)).all():
                raise SolveError(f"BFGS sweep {trace.n_evaluations}: non-finite energy or gradient")
            last["value"] = value
        return last["value"]

    def record(theta: np.ndarray) -> None:
        cost, grad = cost_and_grad(theta)
        trace.iterations.append(
            {
                "iteration": len(trace.iterations),
                "cost": cost,
                "grad_norm": float(np.abs(grad).max(initial=0.0)),
            }
        )

    # A sweep that overflows is refused in cost_and_grad. A finite but huge
    # cost overflows the line search's dot products, which scipy reports as
    # precision loss. Neither prints a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        record(x0)
        if K == 0:  # theta = [] is the optimum, and scipy's BFGS rejects an empty x0
            trace.final_cost = trace.iterations[0]["cost"]
            trace.converged = True
            trace.message = "no parameters to optimize"
        else:
            import scipy.optimize

            res = scipy.optimize.minimize(
                cost_and_grad, x0, jac=True, method="BFGS", options=options, callback=record
            )
            trace.final_cost = float(res.fun)
            trace.n_iterations = int(res.nit)
            trace.converged = bool(res.success)
            trace.message = str(res.message)
    trace.timings = {"compile_s": t1 - t0, "bfgs_s": time.perf_counter() - t1}
    return trace
