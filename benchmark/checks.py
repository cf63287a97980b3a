"""Output checks. Each returns a list of failure messages; empty means pass.

The exact checks recompute g_k and A_km from the formulas in the
``cliffgrad.expansion`` module docstring, conjugating each generator with
``conjugate_pauli`` and evaluating ``StabilizerTableau.expectation``
directly. That path bypasses ``CliffordImageMap``, the expectation memo
cache and the Hessian pair loop, so it is independent of the code timed.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from cliffgrad import (
    AnsatzCircuit,
    CliffordGate,
    Observable,
    PauliString,
    RotationGate,
    StabilizerTableau,
    conjugate_pauli,
    energy,
    finite_diff_gradient,
    pauli_mul,
    select_ansatz,
)
from cliffgrad.dense import energies_batch

EXACT_TOL = 1e-12       # direct-formula recomputation
GRAD_SCALED_TOL = 1e-6  # acceptance criterion 1, scaled by 1 + |g|
HESS_FD_TOL = 1e-4      # acceptance criterion 1, central differences
HESS_FD_STEP = 1e-3
GROUND_TOL = 1e-9


def clifford_state(ansatz: AnsatzCircuit, reference: str) -> StabilizerTableau:
    return StabilizerTableau(ansatz.n_qubits, reference).apply_circuit(ansatz.clifford_elements())


def direct_generator(ansatz: AnsatzCircuit, k: int) -> Tuple[PauliString, int]:
    """(P'_k, position of rotation k): its generator conjugated through the gates after it."""
    for pos, e in enumerate(ansatz.elements):
        if isinstance(e, RotationGate) and e.param == k:
            after = [g for g in ansatz.elements[pos + 1:] if isinstance(g, CliffordGate)]
            single = PauliString.single(ansatz.n_qubits, e.axis, e.wire)
            return conjugate_pauli(after, single), pos
    raise KeyError(k)


def _sum(obs: Observable, state: StabilizerTableau, product, part: str) -> float:
    return math.fsum(
        c * getattr(state.expectation(product(p)), part) for c, p in obs.terms
    )


def direct_e0(obs: Observable, state: StabilizerTableau) -> float:
    return _sum(obs, state, lambda p: p, "real")


def direct_gradient(obs: Observable, state: StabilizerTableau, pk: PauliString) -> float:
    """g_k = -2 Im <psi| O P'_k |psi>."""
    return -2.0 * _sum(obs, state, lambda p: pauli_mul(p, pk), "imag")


def direct_hessian(obs, state, gen_a, gen_b, e0: float) -> float:
    """A_km from the two generators (P', position); k earlier in the circuit than m."""
    (pa, pos_a), (pb, pos_b) = gen_a, gen_b
    if pos_a == pos_b:
        return 2.0 * _sum(obs, state, lambda p: pauli_mul(pa, pauli_mul(p, pa)), "real") - 2.0 * e0
    (pe, _), (pl, _) = sorted((gen_a, gen_b), key=lambda g: g[1])
    first = _sum(obs, state, lambda p: pauli_mul(pe, pauli_mul(p, pl)), "real")
    second = _sum(obs, state, lambda p: pauli_mul(pauli_mul(p, pl), pe), "real")
    return 2.0 * first - 2.0 * second


def first_kept_parameter(ansatz, obs, reference, threshold) -> Optional[int]:
    """Index of the first parameter with |g_k| >= threshold, or None."""
    state = clifford_state(ansatz, reference)
    for k in range(ansatz.n_params):
        if abs(direct_gradient(obs, state, direct_generator(ansatz, k)[0])) >= threshold:
            return k
    return None


def _hessian_pairs(rng, kept: np.ndarray, count: int) -> List[Tuple[int, int]]:
    """Seeded slots (a <= b) of the kept Hessian, a few of them diagonal."""
    nk = kept.size
    if nk == 0:
        return []
    pairs = {(a, a) for a in rng.choice(nk, size=min(nk, max(1, count // 4)), replace=False)}
    tries = 0
    while len(pairs) < min(count, nk * (nk + 1) // 2) and tries < 100 * count:
        a, b = sorted(int(v) for v in rng.integers(0, nk, size=2))
        pairs.add((a, b))
        tries += 1
    return sorted((int(a), int(b)) for a, b in pairs)


def check_expand(ansatz, obs, reference, doc, rng, sample: int, dense: bool) -> List[str]:
    """Finite, symmetric, and a seeded sample equal to the direct formulas.

    With ``dense`` also compares the whole gradient with finite differences
    and a sample of Hessian entries with central differences.
    """
    fails = []
    K = ansatz.n_params
    g = np.asarray(doc["gradient"], dtype=float)
    kept = np.asarray(doc["hessian"]["kept_indices"], dtype=int)
    A = np.asarray(doc["hessian"]["rows"], dtype=float).reshape(kept.size, kept.size)
    theta = np.asarray(doc["theta_star"], dtype=float)
    if g.shape != (K,) or theta.shape != (K,):
        return [f"gradient/theta_star length differs from K={K}"]
    if not (np.isfinite(g).all() and np.isfinite(A).all() and np.isfinite(theta).all()):
        fails.append("non-finite gradient, Hessian or theta_star")
    if not np.array_equal(A, A.T):
        fails.append(f"Hessian not symmetric (max |A - A^T| = {np.abs(A - A.T).max():.3g})")
    dropped = np.setdiff1d(np.arange(K), kept)
    if np.any(theta[dropped] != 0.0):
        fails.append("theta_star nonzero at a dropped parameter")

    state = clifford_state(ansatz, reference)
    e0 = direct_e0(obs, state)
    if abs(e0 - doc["e0"]) > EXACT_TOL:
        fails.append(f"e0 {doc['e0']!r} != direct {e0!r}")
    gens = {}

    def gen(k):
        if k not in gens:
            gens[k] = direct_generator(ansatz, k)
        return gens[k]

    for k in sorted(int(v) for v in rng.choice(K, size=min(K, sample), replace=False)):
        want = direct_gradient(obs, state, gen(k)[0])
        if abs(want - g[k]) > EXACT_TOL:
            fails.append(f"g[{k}] = {g[k]!r}, direct formula gives {want!r}")
    pairs = _hessian_pairs(rng, kept, sample)
    for a, b in pairs:
        want = direct_hessian(obs, state, gen(int(kept[a])), gen(int(kept[b])), e0)
        if abs(want - A[a, b]) > EXACT_TOL:
            fails.append(f"A[{kept[a]},{kept[b]}] = {A[a, b]!r}, direct formula gives {want!r}")

    if dense:
        g_fd = finite_diff_gradient(ansatz, obs, reference)
        scaled = float((np.abs(g - g_fd) / (1.0 + np.abs(g))).max()) if K else 0.0
        if scaled > GRAD_SCALED_TOL:
            fails.append(f"gradient vs finite differences: scaled error {scaled:.3g}")
        fd = _central_hessian(ansatz, obs, reference, [(int(kept[a]), int(kept[b])) for a, b in pairs])
        for (a, b), v in zip(pairs, fd):
            if abs(v - A[a, b]) > HESS_FD_TOL:
                fails.append(f"A[{kept[a]},{kept[b]}] = {A[a, b]!r}, central differences give {v!r}")
    return fails


def _central_hessian(ansatz, obs, reference, entries) -> List[float]:
    """Second-order central differences of E at 0 for the given (k, m), one batch."""
    K, h = ansatz.n_params, HESS_FD_STEP
    eye = np.eye(K)
    points = [np.zeros(K)]
    for k, m in entries:
        if k == m:
            points += [h * eye[k], -h * eye[k]]
        else:
            points += [h * (eye[k] + eye[m]), h * (eye[k] - eye[m]),
                       h * (eye[m] - eye[k]), -h * (eye[k] + eye[m])]
    vals = energies_batch(ansatz, np.vstack(points), reference, obs)
    out, i = [], 1
    for k, m in entries:
        if k == m:
            out.append((vals[i] - 2 * vals[0] + vals[i + 1]) / h**2)
            i += 2
        else:
            out.append((vals[i] - vals[i + 1] - vals[i + 2] + vals[i + 3]) / (4 * h**2))
            i += 4
    return out


def check_select(obs, reference, argv_seed, count, n, depth, report, ansatz_text) -> List[str]:
    """The CLI's winner and sums equal ``select_ansatz`` called directly."""
    best, sums = select_ansatz(count, n, depth, obs, reference, argv_seed, "real")
    fails = []
    if [c["seed_sum_abs_gradient"] for c in report["candidates"]] != sums:
        fails.append("candidate gradient sums differ from select_ansatz")
    if report["winner_index"] != best.metadata["candidate_index"]:
        fails.append(f"winner {report['winner_index']} != {best.metadata['candidate_index']}")
    if ansatz_text != best.serialize():
        fails.append("winner ansatz file differs from select_ansatz's winner")
    return fails


def ground_agrees(a: dict, b: dict) -> bool:
    """Both documents have the same exact_ground_energy to GROUND_TOL, or neither has one.

    ARPACK starts each call from a fresh random vector, so repeated calls
    agree to rounding, not bit for bit.
    """
    ga, gb = a.get("exact_ground_energy"), b.get("exact_ground_energy")
    if ga is None or gb is None:
        return ga is None and gb is None
    return abs(ga - gb) <= GROUND_TOL


def check_verify(ansatz, obs, reference, result_doc, verify_doc, ground: float) -> List[str]:
    theta = np.asarray(result_doc["theta_star"], dtype=float)
    value = energy(ansatz, theta, reference, obs)
    fails = []
    if verify_doc["circuit_value"] != value:
        fails.append(f"circuit_value {verify_doc['circuit_value']!r} != energy(theta*) {value!r}")
    reported = verify_doc.get("exact_ground_energy")
    if reported is None or abs(reported - ground) > GROUND_TOL:
        fails.append(f"exact_ground_energy {reported!r} != {ground!r}")
    elif reported > verify_doc["circuit_value"] + GROUND_TOL:
        fails.append("exact ground energy above the circuit value")
    return fails


def check_optimize(doc, ground: float) -> List[str]:
    fails = []
    if not doc["converged"]:
        fails.append(f"BFGS did not converge: {doc['message']}")
    if not math.isfinite(doc["final_cost"]) or doc["final_cost"] < ground - GROUND_TOL:
        fails.append(f"final_cost {doc['final_cost']!r} below the exact ground {ground!r}")
    return fails
