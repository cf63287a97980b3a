"""Phase-exact Pauli string algebra in a bit-packed symplectic representation.

A Pauli operator on n qubits is stored as two n-bit vectors (packed into
64-bit words) plus a phase exponent k with the operator equal to
i^k * (L_0 ⊗ L_1 ⊗ ... ⊗ L_{n-1}), where the letter on qubit j is decoded
from the bit pair (x_j, z_j): (0,0)=I, (1,0)=X, (0,1)=Z, (1,1)=Y.

Qubit q is bit q % 64 of word q // 64, and the bits above n_qubits in the
top word are 0. _pack, pack_masks, _bits and unpack_mask own that layout:
every packed word in the package is built by _pack (from 0/1 arrays) or
pack_masks (from Python-int bit masks, bit q for qubit q), and every packed
row is read back by _bits (as 0/1 values) or unpack_mask (as one bit mask).

Text is read by one token reader, read_pauli, which gives a string's two bit
masks; parse_pauli and the observable parser both use it. Only ASCII
whitespace (string.whitespace) separates tokens (split_tokens), so a
non-ASCII space stays inside its token and makes it a bad one.

Qubit 0 is the leftmost wire in all textual forms. All phase arithmetic is
integer (mod 4), so products of Pauli strings are exact. pauli_mul
multiplies two PauliStrings; mul_rows multiplies whole batches of packed
rows with the same phase formula. anticommute is the one spelling of the
symplectic parity: commutes, the Hessian's parities and the early out of
StabilizerTableau.expectation all read it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, PauliFormatError

_WORD_BITS = 64

# (x, z) bits of each letter
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

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

    __slots__ = ("n_qubits", "x", "z", "phase", "_n_y")

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
        return cls.from_bits([0] * n_qubits, [0] * n_qubits)

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
        """A single-site Pauli letter on the given qubit, read as the text
        f"{letter}{qubit}" by read_pauli, as every rotation's generator is;
        PauliFormatError (a ValueError) for a bad letter or qubit."""
        return parse_pauli(f"{letter}{qubit}", n_qubits).with_phase(phase)

    # -- bit access ---------------------------------------------------------

    def x_bit(self, qubit: int) -> int:
        w, b = divmod(qubit, _WORD_BITS)
        return int(self.x[w] >> np.uint64(b)) & 1

    def z_bit(self, qubit: int) -> int:
        w, b = divmod(qubit, _WORD_BITS)
        return int(self.z[w] >> np.uint64(b)) & 1

    def letter(self, qubit: int) -> str:
        return "IXZY"[self.x_bit(qubit) + 2 * self.z_bit(qubit)]

    def n_y(self) -> int:
        """Number of Y sites, popcount(x & z), counted once at construction."""
        return self._n_y

    @property
    def is_hermitian(self) -> bool:
        return self.phase % 2 == 0

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
        return hash((self.n_qubits, self.phase, self.x.tobytes(), self.z.tobytes()))

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


def pack_masks(masks, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, z), each (M, words) uint64, of M (x, z) pairs of Python-int bit
    masks below 2**n_qubits, as read_pauli gives them."""
    n_bytes = 8 * _n_words(n_qubits)
    data = b"".join(m.to_bytes(n_bytes, "little") for part in zip(*masks) for m in part)
    x, z = np.frombuffer(data, dtype="<u8").reshape(2, -1, n_bytes // 8).astype(np.uint64)
    return x, z


def unpack_mask(words: np.ndarray) -> int:
    """The Python-int bit mask of one packed row, bit q for qubit q; the
    inverse of pack_masks."""
    return int.from_bytes(np.asarray(words, dtype="<u8").tobytes(), "little")


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


def anticommute(xa, za, xb, zb):
    """1 where packed rows a and b anticommute, else 0, broadcast like numpy.

    x and z are uint64 words on the last axis; the result is the int64 parity
    of the symplectic product, popcount((xa & zb) ^ (za & xb)) mod 2, on the
    axes before it. Conjugation keeps it, so images read the originals' value.
    """
    return _row_popcount((xa & zb) ^ (za & xb)) & 1


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff ab == ba (anticommute)."""
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(
            f"cannot compare Pauli strings on {a.n_qubits} and {b.n_qubits} qubits"
        )
    return not anticommute(a.x, a.z, b.x, b.z)


def ascii_int(text: str) -> int | None:
    """The int of a string of ASCII digits, else None.

    int() alone would also take other scripts' digits ('٣') and
    underscores ('1_0').
    """
    return int(text) if text.isascii() and text.isdigit() else None


def split_tokens(text: str, maxsplit: int = -1) -> list:
    """text.split(None, maxsplit) with only ASCII whitespace
    (string.whitespace) as separators.

    str.split() would also split at non-ASCII spaces (U+00A0, U+2003,
    U+3000), at U+2028 and at the ASCII separators U+001C..U+001F; here
    they stay inside their token. bytes.split() splits at exactly
    string.whitespace, and UTF-8 encodes every other character without an
    ASCII byte, so the bytes' tokens are the string's. Printable ASCII
    holds no separator but the space, so str.split() is exact there and
    takes a third of the time.
    """
    if text.isascii() and text.isprintable():
        return text.split(None, maxsplit)
    return [t.decode("utf-8", "surrogatepass")
            for t in text.encode("utf-8", "surrogatepass").split(None, maxsplit)]


def read_pauli(text: str, n_qubits: int) -> tuple[int, int]:
    """(x, z) Python-int bit masks of 'X0 Z3'-style tokens; bit q is qubit q.

    The empty string reads as the identity (0, 0). Each qubit index may
    appear at most once; letters are uppercase IXYZ only, indices ASCII
    digits only and separators ASCII whitespace only (split_tokens).
    PauliFormatError otherwise.
    """
    x = z = seen = 0
    for tok in split_tokens(text):
        bits, q = _LETTER_BITS.get(tok[0]), ascii_int(tok[1:])
        if bits is None or q is None:
            raise PauliFormatError(f"bad Pauli token {tok!r}")
        if q >= n_qubits:
            raise PauliFormatError(f"qubit index {q} out of range (n_qubits={n_qubits})")
        bit = 1 << q
        if seen & bit:
            raise PauliFormatError(f"duplicate qubit index {q} in {text!r}")
        seen |= bit
        x |= bit * bits[0]
        z |= bit * bits[1]
    return x, z


def parse_pauli(text: str, n_qubits: int) -> PauliString:
    """Parse 'X0 Z3'-style tokens (read_pauli's syntax) into a phase +1 PauliString."""
    x, z = pack_masks([read_pauli(text, n_qubits)], n_qubits)
    return PauliString(n_qubits, x[0], z[0])
