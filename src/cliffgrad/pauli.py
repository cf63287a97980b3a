"""Phase-exact Pauli string algebra in a bit-packed symplectic representation.

A Pauli operator on n qubits is stored as two n-bit vectors (packed into
64-bit words) plus a phase exponent k with the operator equal to
i^k * (L_0 ⊗ L_1 ⊗ ... ⊗ L_{n-1}), where the letter on qubit j is decoded
from the bit pair (x_j, z_j): (0,0)=I, (1,0)=X, (0,1)=Z, (1,1)=Y.

Qubit q is bit q % 64 of word q // 64, and the bits above n_qubits in the
top word are 0. _pack and _bits own that layout: every packed word in the
package is built by _pack, and every unpacked bit is read by _bits.

Qubit 0 is the leftmost wire in all textual forms. All phase arithmetic is
integer (mod 4), so products of Pauli strings are exact. pauli_mul
multiplies two PauliStrings; mul_rows multiplies whole batches of packed
rows with the same phase formula.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import DimensionMismatchError, PauliFormatError

_WORD_BITS = 64

_TOKEN_RE = re.compile(r"([IXYZ])(\d+)$")

# Sign of the phase exponent as a complex number, indexed by k mod 4.
PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _n_words(n_qubits: int) -> int:
    return (n_qubits + _WORD_BITS - 1) // _WORD_BITS


def _popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


class PauliString:
    """Immutable phase-tracked n-qubit Pauli operator.

    Attributes:
        n_qubits: number of qubits the operator acts on.
        x: packed X-component bits, uint64 words (read-only).
        z: packed Z-component bits, uint64 words (read-only).
        phase: exponent k in i^k, k in {0,1,2,3}.
    """

    __slots__ = ("n_qubits", "x", "z", "phase", "_n_y", "_hash")

    def __init__(self, n_qubits: int, x: np.ndarray, z: np.ndarray, phase: int = 0):
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        x = np.asarray(x, dtype=np.uint64).copy()
        z = np.asarray(z, dtype=np.uint64).copy()
        if x.shape != (_n_words(n_qubits),) or z.shape != x.shape:
            raise ValueError("bit-vector word count does not match n_qubits")
        # Mask stray bits above n_qubits so equality/hashing are well defined.
        rem = n_qubits % _WORD_BITS
        if rem:
            mask = np.uint64((1 << rem) - 1)
            x[-1] &= mask
            z[-1] &= mask
        self._set(n_qubits, x, z, int(phase) % 4, _popcount(x & z))

    def _set(self, n_qubits: int, x: np.ndarray, z: np.ndarray, phase: int, n_y: int) -> None:
        x.flags.writeable = False
        z.flags.writeable = False
        self.n_qubits = n_qubits
        self.x = x
        self.z = z
        self.phase = phase
        self._n_y = n_y
        self._hash = None

    @classmethod
    def _trusted(cls, n_qubits: int, x: np.ndarray, z: np.ndarray, phase: int, n_y: int):
        """A PauliString of words that are already valid: fresh uint64 arrays
        of the right shape with zero padding bits (the XOR of two operands'
        words), phase in {0, 1, 2, 3} and n_y = popcount(x & z). No copy,
        no mask and no shape check."""
        p = cls.__new__(cls)
        p._set(n_qubits, x, z, phase, n_y)
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        w = _n_words(n_qubits)
        return cls(n_qubits, np.zeros(w, np.uint64), np.zeros(w, np.uint64))

    @classmethod
    def from_bits(cls, x_bits, z_bits, phase: int = 0) -> "PauliString":
        """Build from per-qubit 0/1 sequences (qubit 0 first)."""
        x_bits = np.asarray(x_bits, dtype=np.uint8)
        z_bits = np.asarray(z_bits, dtype=np.uint8)
        if x_bits.shape != z_bits.shape or x_bits.ndim != 1:
            raise ValueError("x_bits and z_bits must be equal-length 1-d sequences")
        words = _n_words(x_bits.size)
        return cls(x_bits.size, _pack(x_bits, words), _pack(z_bits, words), phase)

    @classmethod
    def single(cls, n_qubits: int, letter: str, qubit: int, phase: int = 0) -> "PauliString":
        """A single-site Pauli letter on the given qubit."""
        if not 0 <= qubit < n_qubits:
            raise ValueError(f"qubit {qubit} out of range for {n_qubits} qubits")
        if letter not in ("I", "X", "Y", "Z"):
            raise PauliFormatError(f"unknown Pauli letter {letter!r}")
        x = np.zeros(n_qubits, dtype=np.uint8)
        z = np.zeros(n_qubits, dtype=np.uint8)
        x[qubit] = letter in ("X", "Y")
        z[qubit] = letter in ("Z", "Y")
        return cls.from_bits(x, z, phase)

    # -- bit access ---------------------------------------------------------

    def x_bit(self, qubit: int) -> int:
        w, b = divmod(qubit, _WORD_BITS)
        return int(self.x[w] >> np.uint64(b)) & 1

    def z_bit(self, qubit: int) -> int:
        w, b = divmod(qubit, _WORD_BITS)
        return int(self.z[w] >> np.uint64(b)) & 1

    def letter(self, qubit: int) -> str:
        return "IXZY"[self.x_bit(qubit) + 2 * self.z_bit(qubit)]

    def weight(self) -> int:
        """Number of non-identity sites."""
        return _popcount(self.x | self.z)

    def n_y(self) -> int:
        """Number of Y sites, popcount(x & z), counted once at construction."""
        return self._n_y

    @property
    def is_hermitian(self) -> bool:
        return self.phase % 2 == 0

    @property
    def is_identity(self) -> bool:
        return not (self.x.any() or self.z.any())

    def phase_value(self) -> complex:
        return PHASES[self.phase]

    # -- algebra ------------------------------------------------------------

    def with_phase(self, phase: int) -> "PauliString":
        return PauliString(self.n_qubits, self.x, self.z, phase)

    def unphased(self) -> "PauliString":
        return self if self.phase == 0 else self.with_phase(0)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return pauli_mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self.n_qubits == other.n_qubits
            and self.phase == other.phase
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n_qubits, self.phase, self.x.tobytes(), self.z.tobytes()))
        return self._hash

    def key(self) -> tuple:
        """Hashable key of the unphased bit content (merges duplicate terms)."""
        return (self.x.tobytes(), self.z.tobytes())

    # -- text and matrices --------------------------------------------------

    def to_text(self) -> str:
        """Whitespace-separated letter+index tokens; identity is ''."""
        toks = []
        for q in range(self.n_qubits):
            let = self.letter(q)
            if let != "I":
                toks.append(f"{let}{q}")
        return " ".join(toks)

    def __repr__(self) -> str:
        pre = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.phase]
        body = self.to_text() or "I"
        return f"PauliString({pre}{body}, n={self.n_qubits})"

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix; intended for small-n validation only."""
        if self.n_qubits > 12:
            raise ValueError("to_matrix is a validation helper; n_qubits > 12 refused")
        mats = {
            "I": np.eye(2, dtype=complex),
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        }
        out = np.array([[PHASES[self.phase]]], dtype=complex)
        for q in range(self.n_qubits):
            out = np.kron(out, mats[self.letter(q)])
        return out


def _bits(words: np.ndarray, n: int) -> np.ndarray:
    """(..., n) 0/1 float32 values of packed (..., words) rows.

    float32 holds every integer up to 2^24 exactly, so a matmul of these
    bits is exact while its sums stay below that (tableau.input_frame's
    stay at most 2n).
    """
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=n, bitorder="little").astype(np.float32)


def _pack(bits: np.ndarray, words: int) -> np.ndarray:
    """(..., words) uint64 rows of (..., n) 0/1 values; bits above n are 0."""
    padded = np.zeros(bits.shape[:-1] + (_WORD_BITS * words,), dtype=np.uint8)
    padded[..., : bits.shape[-1]] = bits
    return np.packbits(padded, axis=-1, bitorder="little").view("<u8").astype(np.uint64)


def pauli_mul(a: PauliString, b: PauliString) -> PauliString:
    """Exact operator product a·b with the accumulated i^k phase.

    The x/z words XOR; the phase bookkeeping runs in the X^x Z^z internal
    convention (Y = i·XZ), where reordering Z past X contributes (-1) per
    overlapping site. The operands' Y counts are cached, so a product costs
    two popcounts, and the XOR of two valid word arrays is valid, so the
    result skips __init__'s copy, mask and shape check.
    """
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(
            f"cannot multiply Pauli strings on {a.n_qubits} and {b.n_qubits} qubits"
        )
    x = a.x ^ b.x
    z = a.z ^ b.z
    n_y = _popcount(x & z)
    phase = (a.phase + a._n_y + b.phase + b._n_y + 2 * _popcount(a.z & b.x) - n_y) % 4
    return PauliString._trusted(a.n_qubits, x, z, phase, n_y)


def stack_rows(paulis, n_qubits: int):
    """Packed rows (x, z, phase) of a sequence of PauliStrings on n_qubits.

    x and z are (M, words) uint64 arrays, phase the (M,) int64 exponents.
    """
    if any(p.n_qubits != n_qubits for p in paulis):
        raise DimensionMismatchError(f"rows must all act on {n_qubits} qubits")
    w = _n_words(n_qubits)
    x = np.array([p.x for p in paulis], dtype=np.uint64).reshape(len(paulis), w)
    z = np.array([p.z for p in paulis], dtype=np.uint64).reshape(len(paulis), w)
    phase = np.array([p.phase for p in paulis], dtype=np.int64)
    return x, z, phase


def mul_rows(xa, za, pa, xb, zb, pb):
    """Row-wise exact products a·b of packed Pauli rows, broadcast like numpy.

    Each operand is (x, z, phase): uint64 words on the last axis and int64
    (or int) phase exponents of i on the axes before it. The phase follows
    pauli_mul's formula, which stays the scalar reference. Returns
    (x, z, phase) with phase in {0, 1, 2, 3}.
    """
    x = xa ^ xb
    z = za ^ zb
    k = (
        pa
        + _row_popcount(xa & za)
        + pb
        + _row_popcount(xb & zb)
        + 2 * _row_popcount(za & xb)
        - _row_popcount(x & z)
    )
    return x, z, k % 4


def _row_popcount(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff ab == ba, via the parity of the symplectic product."""
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(
            f"cannot compare Pauli strings on {a.n_qubits} and {b.n_qubits} qubits"
        )
    return (_popcount(a.x & b.z) + _popcount(a.z & b.x)) % 2 == 0


def parse_pauli(text: str, n_qubits: int) -> PauliString:
    """Parse 'X0 Z3'-style tokens into a phase +1 PauliString.

    The empty string parses to the identity. Each qubit index may appear at
    most once; letters are uppercase IXYZ only.
    """
    x = np.zeros(n_qubits, dtype=np.uint8)
    z = np.zeros(n_qubits, dtype=np.uint8)
    seen = set()
    for tok in text.split():
        m = _TOKEN_RE.match(tok)
        if not m:
            raise PauliFormatError(f"bad Pauli token {tok!r}")
        letter, q = m.group(1), int(m.group(2))
        if q >= n_qubits:
            raise PauliFormatError(f"qubit index {q} out of range (n_qubits={n_qubits})")
        if q in seen:
            raise PauliFormatError(f"duplicate qubit index {q} in {text!r}")
        seen.add(q)
        x[q] = letter in ("X", "Y")
        z[q] = letter in ("Z", "Y")
    return PauliString.from_bits(x, z)
