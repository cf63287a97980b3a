"""Real-weighted Pauli-sum observables and their text wire format.

Format (bit-exact): the first non-comment line is ``qubits N``; every other
non-comment line is ``<coefficient> <pauli tokens...>`` with a decimal
float coefficient and whitespace-separated letter+index tokens ("X0 Z3").
Lines end only at ``\n``, and only ASCII whitespace (``string.whitespace``:
spaces, tabs, ...) separates tokens, so a non-ASCII space or line separator
stays inside its token and the line is a format error. Coefficients are
ASCII with no underscores, and qubit counts and indices are ASCII digits.
An empty token list denotes the identity term. ``#`` starts a comment.
Units are opaque to the engine (Hartree by convention for chemistry
inputs).

An Observable is stored as packed rows only: the terms' x and z words and
their coefficients. The parser reads each line's tokens into two bit masks
(pauli.read_pauli), merges duplicates on the masks and packs every row at
once, so loading builds no PauliString. The (c, PauliString) list, terms,
is built when something reads it: serialize, to_matrix, the tests and
the benchmark's checks.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Dict, List, Tuple

import numpy as np

from .errors import DimensionMismatchError, ObservableFormatError, PauliFormatError, SolveError
from .pauli import PauliString, ascii_int, pack_masks, parse_pauli, read_pauli, stack_rows
from .pauli import split_tokens
from .tableau import StabilizerTableau, frame_values


@dataclass(eq=False)
class Observable:
    """O = sum_i c_i P_i with real coefficients and phase-free Pauli terms.

    x and z are the terms' packed (N_o, words) uint64 rows and coeffs the
    (N_o,) float c_i, in term order.
    """

    n_qubits: int
    x: np.ndarray
    z: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def from_terms(cls, n_qubits: int, terms) -> "Observable":
        """The observable of (c, PauliString) pairs, each on n_qubits with phase +1.

        DimensionMismatchError for a term on another width (from stack_rows),
        ObservableFormatError for a phased term.
        """
        if any(p.phase for _, p in terms):
            raise ObservableFormatError("observable terms must carry phase +1")
        x, z, _ = stack_rows([p for _, p in terms], n_qubits)
        return cls(n_qubits, x, z, np.array([c for c, _ in terms], dtype=float))

    @classmethod
    def from_strings(cls, n_qubits: int, terms: Dict[str, float]) -> "Observable":
        """One term per entry, in order; duplicates are kept, not merged."""
        masks = [read_pauli(t, n_qubits) for t in terms]
        return cls(n_qubits, *pack_masks(masks, n_qubits), np.array([*terms.values()], float))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Observable):
            return NotImplemented
        mine, theirs = (self.x, self.z, self.coeffs), (other.x, other.z, other.coeffs)
        return self.n_qubits == other.n_qubits and all(map(np.array_equal, mine, theirs))

    @property
    def n_terms(self) -> int:
        return len(self.coeffs)

    @property
    def rows(self):
        """The terms as packed rows (x, z, phase), phase all 0."""
        return self.x, self.z, np.zeros(self.n_terms, dtype=np.int64)

    @cached_property
    def terms(self) -> List[Tuple[float, PauliString]]:
        """The (c_i, P_i) pairs in term order, built when first read."""
        n, coeffs = self.n_qubits, self.coeffs.tolist()
        return [(c, PauliString(n, x, z)) for c, x, z in zip(coeffs, self.x, self.z)]

    def serialize(self) -> str:
        lines = [f"qubits {self.n_qubits}"]
        lines += [f"{c!r} {p.to_text()}".rstrip() for c, p in self.terms]
        return "\n".join(lines) + "\n"

    def to_matrix(self):
        """sum_i c_i P_i as a dense matrix, summed in term order; None with no terms."""
        mats = [c * p.to_matrix() for c, p in self.terms]
        return reduce(np.add, mats) if mats else None

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
        values = frame_values(x, k).real.tolist()
        return exact_sum(c * v for c, v in zip(self.coeffs.tolist(), values))


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

    Terms keep the order in which each Pauli first appears, and a duplicate
    adds its coefficient to the running sum left to right. A duplicate whose
    sum leaves the finite range is an ObservableFormatError that names its
    line.

    After merging, terms with |coefficient| < prune_threshold are dropped;
    the default threshold 0 keeps everything. A negative or NaN threshold
    is an ObservableFormatError, and so is a qubit count too large to pack
    the rows in (one that names the header's line).
    """
    if not prune_threshold >= 0:
        raise ObservableFormatError(f"prune threshold must be >= 0, got {prune_threshold!r}")
    n_qubits = None
    merged: Dict[Tuple[int, int], float] = {}
    for lineno, raw in enumerate(document.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip(string.whitespace)
        if not line:
            continue
        if n_qubits is None:
            parts = split_tokens(line)
            if len(parts) != 2 or parts[0] != "qubits":
                raise ObservableFormatError(
                    f"line {lineno}: expected 'qubits N' header, got {line!r}"
                )
            n_qubits, header = ascii_int(parts[1]), lineno
            if not n_qubits:  # None (not ASCII digits) or 0
                raise ObservableFormatError(f"line {lineno}: qubit count must be a positive int")
            continue
        coef_text, *pauli_text = split_tokens(line, 1)
        try:
            # float() alone would also take '1_0', '٣' and fullwidth '１.5'
            if not coef_text.isascii() or "_" in coef_text:
                raise ValueError
            coef = float(coef_text)
        except ValueError:
            raise ObservableFormatError(f"line {lineno}: bad coefficient {coef_text!r}")
        if not math.isfinite(coef):
            raise ObservableFormatError(f"line {lineno}: coefficient must be finite")
        try:
            key = read_pauli("".join(pauli_text), n_qubits)
        except PauliFormatError as exc:
            raise ObservableFormatError(f"line {lineno}: {exc}") from exc
        if key in merged:
            coef = merged[key] + coef
            if not math.isfinite(coef):
                text = parse_pauli("".join(pauli_text), n_qubits).to_text()
                raise ObservableFormatError(
                    f"line {lineno}: merged coefficient of duplicate term "
                    f"{text or 'I'!r} overflows"
                )
        merged[key] = coef
    if n_qubits is None:
        raise ObservableFormatError("empty document: missing 'qubits N' header")
    kept = {key: c for key, c in merged.items() if abs(c) >= prune_threshold}
    try:  # a row holds ceil(n / 64) words, which a huge count cannot size or allocate
        x, z = pack_masks(kept, n_qubits)
    except (OverflowError, MemoryError, ValueError):
        raise ObservableFormatError(f"line {header}: {n_qubits} qubits do not fit in memory") from None
    return Observable(n_qubits, x, z, np.array([*kept.values()], float))
