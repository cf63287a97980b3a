"""Real-weighted Pauli-sum observables and their text wire format.

Format (bit-exact): the first non-comment line is ``qubits N``; every other
non-comment line is ``<coefficient> <pauli tokens...>`` with a decimal
float coefficient and whitespace-separated letter+index tokens ("X0 Z3").
An empty token list denotes the identity term. ``#`` starts a comment.
Units are opaque to the engine (Hartree by convention for chemistry inputs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from .errors import DimensionMismatchError, ObservableFormatError, PauliFormatError, SolveError
from .pauli import PauliString, parse_pauli, stack_rows
from .tableau import StabilizerTableau, frame_values


@dataclass
class Observable:
    """O = sum_i c_i P_i with real coefficients and phase-free Pauli terms."""

    n_qubits: int
    terms: List[Tuple[float, PauliString]]

    def __post_init__(self):
        for c, p in self.terms:
            if p.n_qubits != self.n_qubits:
                raise DimensionMismatchError("observable term width mismatch")
            if p.phase != 0:
                raise ObservableFormatError("observable terms must carry phase +1")

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @cached_property
    def rows(self):
        """The terms as packed rows (x, z, phase), as stack_rows gives them; packed once."""
        return stack_rows([p for _, p in self.terms], self.n_qubits)

    @cached_property
    def coeffs(self) -> np.ndarray:
        """The coefficients c_i, in term order."""
        return np.array([c for c, _ in self.terms], dtype=float)

    @classmethod
    def from_strings(cls, n_qubits: int, terms: Dict[str, float]) -> "Observable":
        return cls(n_qubits, [(float(c), parse_pauli(t, n_qubits)) for t, c in terms.items()])

    def serialize(self) -> str:
        lines = [f"qubits {self.n_qubits}"]
        for c, p in self.terms:
            text = p.to_text()
            lines.append(f"{c!r} {text}".rstrip())
        return "\n".join(lines) + "\n"

    def to_matrix(self):
        import numpy as np

        out = None
        for c, p in self.terms:
            m = c * p.to_matrix()
            out = m if out is None else out + m
        return out

    def check_width(self, n_qubits: int, what: str = "ansatz") -> None:
        """DimensionMismatchError unless the observable acts on n_qubits qubits."""
        if n_qubits != self.n_qubits:
            raise DimensionMismatchError(
                f"observable on {self.n_qubits} qubits vs {what} on {n_qubits}"
            )

    def expectation_at_clifford_point(self, state: StabilizerTableau) -> float:
        """sum_i c_i <psi|P_i|psi> on a stabilizer state; exact, real."""
        self.check_width(state.n, "state")
        return self.frame_expectation(state.input_frame(*self.rows))

    def frame_expectation(self, images) -> float:
        """sum_i c_i <O~_i> from the terms' input-frame images, the (x~, z~, k~)
        rows that StabilizerTableau.input_frame returns; exact, real."""
        x, _, k = images
        # Hermitian phase-free terms give real expectations; compensated sum.
        return exact_sum(c * v for (c, _), v in zip(self.terms, frame_values(x, k).real.tolist()))


def exact_sum(values) -> float:
    """math.fsum of `values`; SolveError when the sum overflows the float range.

    fsum raises OverflowError when finite terms add past the largest float,
    so a sum of observable coefficients that does ends in SolveError, as a
    non-finite gradient or Hessian does.
    """
    try:
        return math.fsum(values)
    except OverflowError as exc:
        raise SolveError(f"a sum of observable coefficients overflows ({exc})") from None


def parse_observable(document: str, prune_threshold: float = 0.0) -> Observable:
    """Parse the wire format; duplicate Pauli terms are summed on load.

    A duplicate whose sum leaves the finite range is an ObservableFormatError
    that names its line.

    After merging, terms with |coefficient| < prune_threshold are dropped;
    the default threshold 0 keeps everything.
    """
    if prune_threshold < 0:
        raise ObservableFormatError("prune threshold must be >= 0")
    n_qubits = None
    merged: Dict[tuple, Tuple[float, PauliString]] = {}
    order: List[tuple] = []
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n_qubits is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "qubits":
                raise ObservableFormatError(
                    f"line {lineno}: expected 'qubits N' header, got {line!r}"
                )
            try:
                n_qubits = int(parts[1])
            except ValueError:
                raise ObservableFormatError(f"line {lineno}: bad qubit count {parts[1]!r}")
            if n_qubits < 1:
                raise ObservableFormatError(f"line {lineno}: qubit count must be positive")
            continue
        coef_text, *pauli_text = line.split(None, 1)
        try:
            coef = float(coef_text)
        except ValueError:
            raise ObservableFormatError(f"line {lineno}: bad coefficient {coef_text!r}")
        if not math.isfinite(coef):
            raise ObservableFormatError(f"line {lineno}: coefficient must be finite")
        try:
            pauli = parse_pauli("".join(pauli_text), n_qubits)
        except PauliFormatError as exc:
            raise ObservableFormatError(f"line {lineno}: {exc}") from exc
        key = pauli.key()
        if key in merged:
            total = merged[key][0] + coef
            if not math.isfinite(total):
                raise ObservableFormatError(
                    f"line {lineno}: merged coefficient of duplicate term "
                    f"{pauli.to_text() or 'I'!r} overflows"
                )
            merged[key] = (total, pauli)
        else:
            merged[key] = (coef, pauli)
            order.append(key)
    if n_qubits is None:
        raise ObservableFormatError("empty document: missing 'qubits N' header")
    terms = [merged[k] for k in order if abs(merged[k][0]) >= prune_threshold]
    return Observable(n_qubits, terms)
