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

The observable O is one operator. _operator sums its terms' phases into
one weight vector d_x per distinct X part x, so that
(O v)[c] = sum_x d_x[c] v[c XOR x], one gather per X part (_apply). It is
built once per call and applied by every reader: energies_batch (and so
energy and the finite-difference oracles), the adjoint sweep's
lambda = O psi, and the Lanczos matvec of exact_ground_energy. An energy
is always read as Re <psi|O psi> (_expectations), so the sweep's energy
and energy() agree.

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
sweep over the K rotations alone, with no gate matrices. The normal form
is built from the stabilizer engine's generators, so it cannot check them.

Rotation convention matches the expansion: R(theta) = exp(i theta P)
= cos(theta) I + i sin(theta) P.

BFGS (_bfgs, with a strong Wolfe line search) and the Lanczos eigensolver
both run in this module, so the package needs only numpy.
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
EXACT_GROUND_CAP = 14  # widest observable exact_ground_energy diagonalizes
_LANCZOS_STEPS = 3000  # Lanczos steps exact_ground_energy takes before it gives up
_KRYLOV_WIDTH = 40     # Lanczos vectors it holds before a thick restart
_FLAT = 1e-8           # model curvature at or below it is flat to warm_start_hess_inv
_EPS = np.finfo(float).eps

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


# Most entries one block of term tables may hold; _operator reads the
# terms a block at a time so memory stays bounded at the cap.
_GATHER_ELEMENTS = 1 << 22


def _operator(observable: Observable, scale: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """(gathers, weights) of O / 2^scale, one row per distinct X part x.

    (O v)[c] is the sum over x of d_x[c] v[c XOR x]: gathers[x, c] = c XOR x,
    and d_x sums c_i phase_i in term order over the terms with that X part,
    read off the terms' tables (_actions) one block of at most
    _GATHER_ELEMENTS entries at a time. The weights are real when every
    d_x is. Scaling by a power of two is exact.
    """
    (x, z, p), n = observable.rows, observable.n_qubits
    coeffs, dim = np.ldexp(observable.coeffs, -scale), 2**n
    flips, group = np.unique(x, axis=0, return_inverse=True)
    masks, weights = np.zeros(len(flips), dtype=np.int64), np.zeros((len(flips), dim), dtype=complex)
    step = max(1, _GATHER_ELEMENTS // dim)
    for b in (slice(lo, lo + step) for lo in range(0, coeffs.size, step)):
        idx, phase = _actions(x[b], z[b], p[b], n)
        masks[group[b]] = idx[:, 0]  # the X part as a basis-index mask
        for g, row in zip(group[b], coeffs[b, None] * phase):
            weights[g] += row
    if not weights.imag.any():  # a real operator runs in real arithmetic
        weights = weights.real.copy()
    return np.arange(dim) ^ masks[:, None], weights


def _apply(operator: Tuple[np.ndarray, np.ndarray], states: np.ndarray) -> np.ndarray:
    """O states for states of shape (B, 2^n) or (2^n,): one gather per X
    part. The gathers write into an array of the result's dtype, so the
    states are complex, or real with real weights."""
    gathers, weights = operator
    out, image = np.zeros((2, *states.shape), dtype=np.result_type(states, weights))
    for gather, d in zip(gathers, weights):
        # every index is in range; "wrap" skips the copy that "raise" makes with out=
        out += np.multiply(d, states.take(gather, axis=-1, out=image, mode="wrap"), out=image)
    return out


def _expectations(states: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Re <states[b]|images[b]> for each row b, the energy when images = O states."""
    return np.einsum("bi,bi->b", states.conj(), images).real


def _energy_and_gradient(
    ops: list, operator: tuple, reference: np.ndarray, theta: np.ndarray, n: int
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
    lam = _apply(operator, psi)
    # the energy is read as energies_batch reads it, so it equals energy()
    value = _expectations(psi, lam)[0]
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
    return _expectations(amps, _apply(_operator(observable), amps))


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


def exact_ground_energy(observable: Observable) -> float:
    """Least eigenvalue of the observable matrix (n <= EXACT_GROUND_CAP), by
    Lanczos with full reorthogonalization (Lanczos, J. Res. Natl. Bur.
    Stand. 45, 255 (1950)).

    O acts through _operator and _apply, one gather per distinct X part;
    when every weight is real the run is in real arithmetic. The
    coefficients are first scaled by a power of two so that max |c| < 1,
    which is exact and keeps every norm finite.

    The run starts from a seeded vector, so the value is reproducible, and
    orthogonalizes each new vector twice against all vectors it holds. When
    it holds _KRYLOV_WIDTH of them, it keeps the Ritz vectors of the lower
    half of the Ritz values and goes on from the residual (thick restart,
    Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 602 (2000)), so the work per
    step stays bounded when the ground state converges slowly. Every fifth
    step it stops once the least Ritz value's residual bound beta |s_m| is
    below rounding, relative to max(1, |theta|), or when the Krylov space
    is the whole space. Raises ResourceCapError above the cap, and
    SolveError after _LANCZOS_STEPS steps without convergence or when the
    value overflows the float range.
    """
    n = observable.n_qubits
    if n > EXACT_GROUND_CAP:
        raise ResourceCapError(f"exact diagonalization refused for n={n} > {EXACT_GROUND_CAP}")
    dim, scale = 2**n, np.frexp(np.abs(observable.coeffs).max(initial=0.0))[1]
    operator = _operator(observable, scale)
    width = min(_KRYLOV_WIDTH, dim)
    basis, T = np.zeros((width, dim), dtype=operator[1].dtype), np.zeros((width, width))
    # A seeded start vector makes the value reproducible. An all-ones vector
    # would not do: it is invariant under every basis permutation, so
    # orthogonal to ground states odd under one.
    v0 = np.random.default_rng(0).standard_normal(dim)
    basis[0], j = v0 / np.linalg.norm(v0), 0
    for k in range(_LANCZOS_STEPS):
        w = _apply(operator, basis[j])
        T[j, j] = np.vdot(basis[j], w).real
        for _ in range(2):
            w -= (w.conj() @ basis[: j + 1].T).conj() @ basis[: j + 1]
        beta = np.linalg.norm(w)
        if beta <= _EPS or k % 5 == 4 or j + 1 == width:
            theta, s = eigh(T[: j + 1, : j + 1])
            if beta * abs(s[-1, 0]) <= _EPS * max(1.0, abs(theta[0])) or j + 1 == dim:
                with np.errstate(over="ignore"):
                    energy = float(np.ldexp(theta[0], scale))
                if not np.isfinite(energy):
                    raise SolveError("exact ground energy overflows the float range")
                return energy
        if j + 1 == width:  # thick restart from the lower half of the Ritz pairs
            j, T[:] = width // 2, 0.0
            basis[:j] = s[:, :j].T @ basis
            T[range(j), range(j)] = theta[:j]
            T[j, :j] = T[:j, j] = beta * s[-1, :j]
        else:
            j += 1
            T[j, j - 1] = T[j - 1, j] = beta
        basis[j] = w / beta
    raise SolveError(f"exact ground energy: Lanczos did not converge in {_LANCZOS_STEPS} steps")


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


def warm_start_hess_inv(hessian: np.ndarray) -> np.ndarray:
    """Initial inverse-Hessian estimate from the Clifford-point Hessian.

    The quadratic model's curvature can be indefinite; eigenvalues <= _FLAT
    are replaced by identity-scale curvature (1.0) before inversion so the
    estimate stays positive definite, as BFGS requires. The curvature is
    capped at 1e12 times its least value, so that the estimate stays
    positive definite in floating point too; an estimate of condition 1e21
    need not be. SolveError when the eigensolve fails (expansion.eigh).
    """
    evals, evecs = eigh(hessian)
    safe = np.where(evals > _FLAT, evals, 1.0)
    inv = (evecs / np.minimum(safe, 1e12 * safe.min(initial=np.inf))) @ evecs.T
    # exact symmetry, which the BFGS update then preserves
    return (inv + inv.T) / 2.0


# SciPy's BFGS messages, verbatim, and the strong Wolfe constants
_CONVERGED = "Optimization terminated successfully."
_MAX_ITERATIONS = "Maximum number of iterations has been exceeded."
_PRECISION_LOSS = "Desired error not necessarily achieved due to precision loss."
_C1, _C2 = 1e-4, 0.9


def _cubic_min(lo: tuple, hi: tuple) -> float:
    """Minimizer of the cubic that matches f and f' at both trial points
    (Nocedal & Wright eq. 3.59), moved into the middle 80% of the interval,
    or the midpoint when it is not finite. A trial point is (alpha, f, g, f')."""
    (a, fa, _, da), (b, fb, _, db) = lo, hi
    d1 = da + db - 3 * (fa - fb) / (a - b)
    d2 = np.sign(b - a) * np.sqrt(d1 * d1 - da * db)
    t = b - (b - a) * (db + d2 - d1) / (db - da + 2 * d2)
    if not np.isfinite(t):
        return (a + b) / 2
    margin = 0.1 * abs(b - a)
    return min(max(t, min(a, b) + margin), max(a, b) - margin)


def _zoom(phi, lo: tuple, hi: tuple, f0: float, d0: float) -> Optional[tuple]:
    """Nocedal & Wright Alg. 3.6: shrink [lo, hi], where lo is the point of
    least f that meets sufficient decrease, until a point meets both strong
    Wolfe conditions; its (alpha, f, g), or None after 10 trials."""
    for _ in range(10):
        if lo[0] == hi[0]:
            break
        new = phi(_cubic_min(lo, hi))
        if new[1] > f0 + _C1 * new[0] * d0 or new[1] >= lo[1]:
            hi = new
        elif abs(new[3]) <= -_C2 * d0:
            return new[:3]
        else:
            if new[3] * (hi[0] - lo[0]) >= 0:
                hi = lo
            lo = new
    return None


def _line_search(
    fg, x: np.ndarray, p: np.ndarray, f: float, g: np.ndarray, f_prev: float
) -> Optional[tuple]:
    """(alpha, f, g) at x + alpha p, where both strong Wolfe conditions hold
    (Nocedal & Wright Alg. 3.5), or None when the search fails. The first
    trial step is SciPy's, min(1, 1.01 * 2 (f - f_prev) / g.p); it doubles
    at most 50 times until a trial brackets the step, which a bounded f
    does once c1 alpha |g.p| exceeds its range."""
    d0 = g @ p
    if not -np.inf < d0 < 0:  # p is no descent direction, or g.p overflowed
        return None

    alpha = min(1.0, 1.01 * 2 * (f - f_prev) / d0)
    if not alpha > 0:  # no progress is left in floating point
        return None

    def phi(alpha: float) -> tuple:
        f_a, g_a = fg(x + alpha * p)
        return alpha, f_a, g_a, g_a @ p

    prev = (0.0, f, g, d0)
    for i in range(50):
        new = phi(alpha)
        if new[1] > f + _C1 * alpha * d0 or (i and new[1] >= prev[1]):
            return _zoom(phi, prev, new, f, d0)
        if abs(new[3]) <= -_C2 * d0:
            return new[:3]
        if new[3] >= 0:
            return _zoom(phi, new, prev, f, d0)
        prev, alpha = new, 2 * alpha
    return None


def _bfgs(fg, x: np.ndarray, hess_inv: Optional[np.ndarray], gtol: float,
          max_iterations: int, record) -> Tuple[float, int, bool, str]:
    """Minimize by BFGS (Nocedal & Wright Alg. 6.1) from x.

    fg(x) returns (f, g); record(f, g) is called at x and at every accepted
    point, with the values the line search computed there. The run stops
    when max |g| <= gtol, after max_iterations steps, or when the line
    search fails. Returns (f, iterations, converged, message).
    """
    f, g = fg(x)
    record(f, g)
    f_prev = f + np.linalg.norm(g) / 2  # so that the first step is about 1 long
    eye = np.eye(x.size)
    H = eye if hess_inv is None else hess_inv
    k = 0
    while np.abs(g).max(initial=0.0) > gtol:
        if k == max_iterations:
            return f, k, False, _MAX_ITERATIONS
        p = -H @ g
        step = _line_search(fg, x, p, f, g, f_prev)
        if step is None:
            return f, k, False, _PRECISION_LOSS
        alpha, f_new, g_new = step
        s, y = alpha * p, g_new - g
        x, f_prev, f, g, k = x + s, f, f_new, g_new, k + 1
        record(f, g)
        ys = y @ s
        rho = 1.0 / ys if ys else 1000.0  # SciPy's guard against y.s = 0
        V = eye - rho * np.outer(s, y)
        H = V @ H @ V.T + rho * np.outer(s, s)
    return f, k, True, _CONVERGED


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
    optimizer's inverse-Hessian estimate from the model Hessian. BFGS is
    _bfgs: a strong Wolfe line search and the inverse-Hessian update, with
    SciPy's first trial step and messages. Gradients are exact,
    from one forward and one backward (adjoint) statevector sweep each over
    the ansatz in Pauli-rotation normal form (_normal_form): K Pauli
    rotations applied to C_total|reference>, which is computed once. Every
    trial point of the line search is one sweep, and the trace records the
    values of the accepted points' sweeps, so it adds none. Its timings
    split compiling the normal form (compile_s) from the BFGS run (bfgs_s).
    Raises DimensionMismatchError when the observable and the ansatz differ
    in width, CircuitFormatError for a malformed reference, ValueError when
    theta* or the Hessian does not match the ansatz, and SolveError when a
    sweep's energy or a gradient entry is not finite.
    """
    observable.check_width(ansatz.n_qubits)
    K = ansatz.n_params
    if init not in ("zero", "theta_star", "theta_star_with_hessian"):
        raise ValueError(f"unknown init mode {init!r}")
    if init != "zero" and expansion is None:
        raise ValueError(f"init={init!r} requires an expansion result")

    hess_inv0 = None
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
        hess_inv0 = warm_start_hess_inv(hessian)

    t0 = time.perf_counter()
    ops, start = _normal_form(ansatz, reference, cap)
    operator = _operator(observable)
    t1 = time.perf_counter()
    trace = OptimizationTrace(init=init, gtol=gtol)

    def cost_and_grad(theta: np.ndarray) -> Tuple[float, np.ndarray]:
        value = _energy_and_gradient(ops, operator, start, theta, ansatz.n_qubits)
        trace.n_evaluations += 1
        if not np.isfinite(np.hstack(value)).all():
            raise SolveError(f"BFGS sweep {trace.n_evaluations}: non-finite energy or gradient")
        return value

    def record(cost: float, grad: np.ndarray) -> None:
        trace.iterations.append(
            {
                "iteration": len(trace.iterations),
                "cost": cost,
                "grad_norm": float(np.abs(grad).max(initial=0.0)),
            }
        )

    # A sweep that overflows is refused in cost_and_grad. A finite but huge
    # cost or gradient overflows the line search's products, which ends the
    # run with the precision-loss message. Neither prints a warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        result = _bfgs(cost_and_grad, x0, hess_inv0, gtol, max_iterations, record)
    trace.final_cost, trace.n_iterations, trace.converged, trace.message = result
    trace.timings = {"compile_s": t1 - t0, "bfgs_s": time.perf_counter() - t1}
    return trace
