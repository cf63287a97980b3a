"""Quadratic model of the cost surface at the Clifford point.

Computes the exact gradient g and Hessian A of <O(theta)> at theta = 0 for
an ansatz of Clifford gates and single-qubit Pauli rotations, from
stabilizer-state expectations. One left-to-right sweep conjugates all K
rotation generators as a block of packed Pauli rows with
tableau.conjugate_rows, the gate update that also evolves the state.
One frame per expansion (_Frame) maps the observable terms and all K
generators into the state's input frame with one
StabilizerTableau.input_frame call, where every expectation reads
[x~ = 0] * i^k~ with no tableau lookup, and forms every O~_i P~_k with
one batched row product. e0 reads the term images, the gradient reads
the products, and the Hessian wraps the kept products and forms each
off-diagonal product P~_e O~_i P~_l once. compute_gradient and
compute_hessian build the same frame, so they give expand's values bit
for bit. The quadratic model is then minimized at its stationary point
theta* = -pinv(A) g, giving the second-order estimate <O>* of the
optimum.

Derivative identities (R_k(t) = exp(i t P_k), P'_k the generator conjugated
through everything applied after it):

    g_k  = -2 Im <psi| O P'_k |psi>
    A_km =  2 Re <psi| P'_k O P'_m |psi> - 2 Re <psi| O P'_m P'_k |psi>
            (k earlier in the circuit than m)
    A_kk =  2 <psi| P'_k O P'_k |psi> - 2 <O(0)>

Both sums of A_km read one operator. Pauli strings commute or anticommute,
and the symplectic parity is bilinear, so O_i P'_m commutes past P'_k with
the sign (-1)^(a_ki ⊕ b_km), where a_ki and b_km are the anticommutation
parities of P'_k with O_i and with P'_m:

    O_i P'_m P'_k = (-1)^(a_ki ⊕ b_km) P'_k O_i P'_m.

On the diagonal, P'_k O_i P'_k = (-1)^a_ki O_i P'_k P'_k = (-1)^a_ki O_i,
because a Hermitian Pauli string squares to the identity, so A_kk needs
only the <O_i>. (The parities are those the destabilizer formalism
tracks; Aaronson & Gottesman, arXiv:quant-ph/0406196.) All expectations
are exact stabilizer evaluations; phases are integer exponents of i, so
the assembled values are exactly real.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .circuit import AnsatzCircuit, ConjugatedGenerators, conjugate_generators
from .errors import SolveError
from .observable import Observable, exact_sum
from .pauli import PHASES, PauliString, _row_popcount, mul_rows, pauli_mul
from .tableau import StabilizerTableau, frame_values


class _ExpectationCache:
    """Counters of a memo cache that no stage reads any more.

    Every expectation is read in the state's input frame, so nothing is
    looked up and misses and hits stay 0. The class stays because the
    benchmark's traced replay (benchmark/traced.py) builds it from the state
    and passes it positionally to compute_gradient and compute_hessian.
    """

    def __init__(self, state: StabilizerTableau):
        self.misses = 0
        self.hits = 0


class _Frame:
    """The N_o terms and all K generators of one expansion, in the state's input frame.

    One input_frame call maps the term rows O_i and the generator rows P'_k
    through U† . U, where U|0...0> = |psi> (StabilizerTableau.input_frame),
    and one mul_rows call forms the (K, N_o) products O~_i P~_k of the
    images. e0, the gradient and the Hessian all read these rows, so each
    image and each such product is formed once per expansion. Every
    expectation of an image is [x~ = 0] * i^k~ (tableau.frame_values).
    """

    def __init__(self, obs: Observable, state0: StabilizerTableau, gens: ConjugatedGenerators):
        obs.check_width(state0.n, "state")
        obs.check_width(gens.n_qubits, "generators")
        self.obs, self.gens, n_o = obs, gens, obs.n_terms
        stacked = map(np.concatenate, zip(obs.rows, (gens.x, gens.z, gens.phase)))
        rows = state0.input_frame(*stacked)
        # (x~, z~, k~) of the terms O~_i, then of the generators P~_k
        self.terms, self.generators = [r[:n_o] for r in rows], [r[n_o:] for r in rows]
        # O~_i P~_k: terms along axis 1, generators along axis 0
        self.products = mul_rows(*[r[None, :n_o] for r in rows], *[r[n_o:, None] for r in rows])

    @property
    def e0(self) -> float:
        """<O> at the Clifford point, from the term images."""
        return self.obs.frame_expectation(self.terms)

    def gradient(self) -> np.ndarray:
        """g_k = -2 fsum_i c_i Im <O~_i P~_k>; SolveError for an entry past the float range."""
        px, _, pp = self.products
        # zero terms leave each fsum unchanged: it returns +0.0 for an exact zero
        terms = (frame_values(px, pp).imag * self.obs.coeffs).tolist()
        g = np.array([-2.0 * exact_sum(row) for row in terms], dtype=float)
        if not np.isfinite(g).all():
            raise SolveError("a gradient entry overflows the float range")
        return g

    def hessian(self, mask: Optional[np.ndarray] = None, e0: Optional[float] = None) -> np.ndarray:
        """A over the kept parameters (all when mask is None); compute_hessian."""
        kept = np.nonzero(mask)[0] if mask is not None else np.arange(self.gens.n_params)
        nk, n = kept.size, self.gens.n_qubits
        A = np.zeros((nk, nk))
        coeffs = self.obs.coeffs.tolist()
        gx, gz, gphase = (r[kept] for r in self.generators)
        px, pz, pp = (r[kept] for r in self.products)
        paulis = [PauliString(n, *row) for row in zip(gx, gz, gphase.tolist())]
        # a[s, i]: kept generator s anticommutes with O_i, exactly when their
        # product is anti-Hermitian, i.e. has an odd phase
        a = (pp & 1).tolist()
        # b[s, t]: kept generator s anticommutes with kept generator t
        b = (_row_popcount((gx[:, None] & gz) ^ (gz[:, None] & gx)) & 1).tolist()
        # <O_i>: the terms carry phase 0, so these are the unphased values
        values = frame_values(self.terms[0], self.terms[2]).tolist()
        e0 = self.e0 if e0 is None else e0
        for s in range(nk):
            diag = exact_sum(
                c * (PHASES[2 * f] * v).real for c, f, v in zip(coeffs, a[s], values)
            )
            A[s, s] = 2.0 * diag - 2.0 * e0

        # Right products O~_i * P~_l, one list per kept generator, wrapped from the product rows.
        right = [[PauliString(n, *row) for row in zip(*rows)] for rows in zip(px, pz, pp.tolist())]
        positions = [self.gens.positions[k] for k in kept]
        for s in range(nk):
            for t in range(s + 1, nk):
                # the earlier-in-circuit generator goes left-adjacent to the state
                e, l = (s, t) if positions[s] <= positions[t] else (t, s)
                pe, flip = paulis[e], b[e][l]
                first, second = [], []
                for c, r, f in zip(coeffs, right[l], a[e]):
                    q = pauli_mul(pe, r)
                    # <q> = [x~ = 0] i^k~, whose real part is 0 unless k~ is even
                    if q.phase % 2 or q.x.any():
                        continue
                    v = c if q.phase == 0 else -c
                    first.append(v)
                    second.append(-v if f ^ flip else v)
                A[s, t] = A[t, s] = 2.0 * exact_sum(first) - 2.0 * exact_sum(second)
        return A


def compute_gradient(
    obs: Observable,
    state0: StabilizerTableau,
    gens: ConjugatedGenerators,
    cache: Optional[_ExpectationCache] = None,
) -> np.ndarray:
    """g_k = -2 Im <psi(0)| O P'_k |psi(0)>, in the state's input frame (_Frame).

    Every <O_i P'_k> is read from the frame's (K, N_o) products as
    [x = 0] * i^k. Each term is exactly 0 or ±c_i and math.fsum rounds
    correctly, so g is the same as summing c_i Im <O_i P'_k> term by term.
    A sum that overflows, or an entry that -2 * sum takes past the float
    range, is a SolveError. `cache` is accepted and not read, as in
    compute_hessian; it stays in the signature because the benchmark's
    traced replay (benchmark/traced.py) passes it positionally.
    """
    return _Frame(obs, state0, gens).gradient()


def apply_dropout(gradient: np.ndarray, threshold: float) -> np.ndarray:
    """Keep mask: |g_k| >= threshold (threshold 0 keeps everything).

    ValueError for a negative or NaN threshold: NaN would drop every
    parameter, as no |g_k| >= NaN.
    """
    if not threshold >= 0:
        raise ValueError("dropout threshold must be >= 0")
    return np.abs(gradient) >= threshold


def compute_hessian(
    obs: Observable,
    state0: StabilizerTableau,
    gens: ConjugatedGenerators,
    mask: Optional[np.ndarray] = None,
    e0: Optional[float] = None,
    jobs: Optional[int] = None,
    cache: Optional[_ExpectationCache] = None,
) -> np.ndarray:
    """Hessian restricted to kept parameters, returned as a dense symmetric
    matrix over the kept index order, in the state's input frame (_Frame).

    Each unordered pair is evaluated once and mirrored. With e earlier in
    the circuit than l, R_li = O~_i P~_l is the frame's product row, and
    q = P~_e R_li is formed once (pauli_mul). The first sum reads it at
    phase k~; the second reads R_li P~_e, which is q with phase
    k~ + 2 (a_ei ⊕ b_el) (module docstring). The diagonal forms no
    product: its terms are c_i Re(i^(2 a_ki) <O_i>). a_ki is the parity of
    the phase of O~_i P~_k, which is anti-Hermitian exactly when the two
    anticommute; b (kept × kept) is one broadcast popcount of the images,
    since conjugation keeps commutation. Every term is c * Re(i^k~ [x~ = 0]),
    summed by math.fsum in term order. A term that is 0 is skipped: fsum
    rounds the exact sum and returns +0.0 for a sum of no terms or of ±0,
    so A is bit-identical to the two-product formula, sign bits included.
    e0 defaults to <O> read from the same frame.

    `jobs` and `cache` are accepted and not read: the pair loop is
    Python-bound, so threads under the GIL only slowed it, and no memo
    cache is looked up. Both stay in the signature, as `--jobs` stays on
    the command line, because the benchmark's traced replay
    (benchmark/traced.py) passes them positionally.
    """
    return _Frame(obs, state0, gens).hessian(mask, e0)


def solve_quadratic(
    e0: float,
    gradient: np.ndarray,
    hessian_kept: np.ndarray,
    mask: np.ndarray,
    rtol: float = 1e-10,
    stable_subspace: bool = False,
):
    """Stationary point of the quadratic model via symmetric eigensolve.

    theta* = -pinv(A) g on the kept set, eigenvalues with
    |lambda| <= rtol * max|lambda| treated as zero. With stable_subspace,
    only strictly positive-curvature directions are inverted (bounded
    descent for minimization). Returns (theta_star over all K parameters,
    model optimum, retained rank). ValueError for a bad rtol (_check_rtol).
    """
    _check_rtol(rtol)
    return _solve(e0, gradient, hessian_kept, mask, rtol, stable_subspace)[:3]


def _check_rtol(rtol: float) -> None:
    """ValueError unless rtol is finite and >= 0: a NaN cutoff would invert
    nothing yet count nothing discarded, and a negative one would invert the
    null space."""
    if not 0 <= rtol < math.inf:
        raise ValueError(f"rtol must be finite and >= 0, got {rtol!r}")


def _solve(e0, gradient, hessian_kept, mask, rtol, stable_subspace):
    """solve_quadratic's (theta_star, optimum, rank) and the model block.

    The model block holds max|g_k| over all K, stationary_point (every
    g_k == 0), negative_curvature (eigenvalues below -cutoff),
    discarded_by_rtol (|lambda| <= cutoff) and condition_number, the ratio
    of the largest to the smallest |lambda| that is inverted. That is None
    when nothing is inverted (or the ratio overflows), as strict JSON holds
    no inf. The callers check rtol (_check_rtol).
    """
    K = mask.size
    kept = np.nonzero(mask)[0]
    theta = np.zeros(K)
    gradient = np.asarray(gradient, dtype=float)
    model = {
        "max_abs_gradient": float(np.abs(gradient).max()) if gradient.size else 0.0,
        "stationary_point": not gradient.any(),
        "negative_curvature": 0,
        "discarded_by_rtol": 0,
        "condition_number": None,
    }
    if kept.size == 0:
        return theta, float(e0), 0, model
    g = gradient[kept]
    A = np.asarray(hessian_kept, dtype=float)
    if not (np.isfinite(A).all() and np.isfinite(g).all()):
        raise SolveError("non-finite gradient/Hessian entries")
    try:
        evals, evecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"eigendecomposition failed: {exc}") from exc
    cutoff = rtol * np.abs(evals).max() if evals.size else 0.0
    keep = np.abs(evals) > cutoff
    if stable_subspace:
        keep &= evals > 0
    rank = int(keep.sum())
    inv = np.zeros_like(evals)
    inv[keep] = 1.0 / evals[keep]
    theta_kept = -evecs @ (inv * (evecs.T @ g))
    optimum = float(e0 + g @ theta_kept + 0.5 * theta_kept @ A @ theta_kept)
    theta[kept] = theta_kept
    model["negative_curvature"] = int((evals < -cutoff).sum())
    model["discarded_by_rtol"] = int((np.abs(evals) <= cutoff).sum())
    if rank:
        retained = np.abs(evals[keep])
        with np.errstate(over="ignore"):
            ratio = float(retained.max() / retained.min())
        model["condition_number"] = ratio if math.isfinite(ratio) else None
    return theta, optimum, rank, model


@dataclass
class ExpansionResult:
    """Everything the quadratic model produces at the Clifford point."""

    n_qubits: int
    e0: float
    gradient: np.ndarray            # length K
    hessian_kept: np.ndarray        # dense symmetric over kept indices
    dropout_mask: np.ndarray        # boolean, True = kept
    dropout_threshold: float
    theta_star: np.ndarray          # length K, zeros at dropped slots
    perturbative_optimum: float
    rank: int
    rtol: float
    stable_subspace: bool = False
    timings: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    model: dict = field(default_factory=dict)   # diagnostics of the eigensolve (_solve)

    @property
    def n_params(self) -> int:
        return self.gradient.size

    def kept_indices(self) -> np.ndarray:
        return np.nonzero(self.dropout_mask)[0]

    def hessian_full(self) -> np.ndarray:
        """K x K Hessian with dropped rows/columns zero."""
        K = self.n_params
        A = np.zeros((K, K))
        kept = self.kept_indices()
        A[np.ix_(kept, kept)] = self.hessian_kept
        return A

    def to_dict(self) -> dict:
        kept = self.kept_indices()
        return {
            "e0": self.e0,
            "gradient": self.gradient.tolist(),
            "hessian": {
                "kept_indices": kept.tolist(),
                "rows": self.hessian_kept.tolist(),
            },
            "dropout": {
                "threshold": self.dropout_threshold,
                "kept": int(kept.size),
                "dropped": int(self.n_params - kept.size),
            },
            "theta_star": self.theta_star.tolist(),
            "perturbative_optimum": self.perturbative_optimum,
            "rank": self.rank,
            "rtol": self.rtol,
            "stable_subspace": self.stable_subspace,
            "timings": dict(self.timings),
            "counters": dict(self.counters),
            "model": dict(self.model),
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExpansionResult":
        """Inverse of to_dict; the width is read from ``counters.n_qubits``.

        A document to_dict could not have written raises KeyError, TypeError
        (a field of the wrong type) or ValueError (a wrong shape, index or
        non-finite number).
        """
        counters = dict(doc["counters"])
        n_qubits, rank = counters["n_qubits"], doc["rank"]
        kept = list(doc["hessian"]["kept_indices"])
        stable_subspace = doc.get("stable_subspace", False)
        if any(type(v) is not int for v in [n_qubits, rank, *kept]):
            raise TypeError("n_qubits, rank and hessian.kept_indices must be integers")
        if not isinstance(stable_subspace, bool):
            raise TypeError("stable_subspace must be true or false")
        gradient = _finite(doc["gradient"], "gradient", 1)
        theta_star = _finite(doc["theta_star"], "theta_star", 1)
        K, nk = gradient.size, len(kept)
        rows = _finite(doc["hessian"]["rows"], "hessian.rows", 2 if nk else 1)
        if n_qubits < 1 or kept != sorted(set(kept)) or not all(0 <= i < K for i in kept):
            raise ValueError("n_qubits or hessian.kept_indices out of range or unsorted")
        if rows.shape[0] != nk or rows.size != nk * nk or theta_star.size != K:
            raise ValueError("hessian.rows or theta_star does not match the parameter count")
        mask = np.zeros(K, dtype=bool)
        mask[kept] = True
        return cls(
            n_qubits=n_qubits,
            e0=float(_finite(doc["e0"], "e0", 0)),
            gradient=gradient,
            hessian_kept=rows.reshape(nk, nk),
            dropout_mask=mask,
            dropout_threshold=float(_finite(doc["dropout"]["threshold"], "threshold", 0)),
            theta_star=theta_star,
            perturbative_optimum=float(_finite(doc["perturbative_optimum"], "optimum", 0)),
            rank=rank,
            rtol=float(_finite(doc["rtol"], "rtol", 0)),
            stable_subspace=stable_subspace,
            timings=dict(doc.get("timings", {})),
            counters=counters,
            warnings=list(doc.get("warnings", [])),
            model=dict(doc.get("model", {})),
        )


def _finite(value, name: str, ndim: int) -> np.ndarray:
    """value as a float array of ndim dimensions; ValueError unless finite numbers."""
    a = np.asarray(value)  # ValueError for ragged nested lists
    if a.ndim != ndim or (a.size and a.dtype.kind not in "iuf"):
        raise ValueError(f"{name} must be a {ndim}-d array of numbers")
    a = a.astype(float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def expand(
    ansatz: AnsatzCircuit,
    observable: Observable,
    reference: str,
    threshold: float = 1e-6,
    rtol: float = 1e-10,
    stable_subspace: bool = False,
) -> ExpansionResult:
    """Full pipeline: state -> generators -> frame (e0, g) -> dropout -> A -> theta*.

    One _Frame serves e0, the gradient and the Hessian. Every expectation is
    read in the input frame and no memo cache is looked up, so the two
    cache counters are always 0; they stay in `counters`
    because the benchmark's traced replay compares the whole dict. Raises
    DimensionMismatchError when the observable and the ansatz differ in
    width, CircuitFormatError for a malformed reference, and ValueError for
    a bad rtol (_check_rtol), each before any stage runs.
    """
    _check_rtol(rtol)
    observable.check_width(ansatz.n_qubits)
    t0 = time.perf_counter()
    state0 = ansatz.clifford_point_state(reference)
    t1 = time.perf_counter()
    gens = conjugate_generators(ansatz)
    t2 = time.perf_counter()
    frame = _Frame(observable, state0, gens)
    e0 = frame.e0
    gradient = frame.gradient()
    t3 = time.perf_counter()
    mask = apply_dropout(gradient, threshold)
    t4 = time.perf_counter()
    hessian = frame.hessian(mask, e0)
    t5 = time.perf_counter()
    theta_star, optimum, rank, model = _solve(
        e0, gradient, hessian, mask, rtol, stable_subspace
    )
    t6 = time.perf_counter()
    warnings = []
    if mask.size and not mask.any():
        warnings.append("all parameters dropped; quadratic model is the constant e0")
    return ExpansionResult(
        n_qubits=ansatz.n_qubits,
        e0=e0,
        gradient=gradient,
        hessian_kept=hessian,
        dropout_mask=mask,
        dropout_threshold=threshold,
        theta_star=theta_star,
        perturbative_optimum=optimum,
        rank=rank,
        rtol=rtol,
        stable_subspace=stable_subspace,
        timings={
            "state_s": t1 - t0,
            "conjugate_s": t2 - t1,
            "gradient_s": t3 - t2,
            "dropout_s": t4 - t3,
            "hessian_s": t5 - t4,
            "solve_s": t6 - t5,
        },
        counters={
            "n_qubits": ansatz.n_qubits,
            "K": int(mask.size),
            "K_kept": int(mask.sum()),
            "N_o": observable.n_terms,
            "pauli_expectations_evaluated": 0,
            "expectation_cache_hits": 0,
        },
        warnings=warnings,
        model=model,
    )
