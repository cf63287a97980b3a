"""Tableau-based Clifford simulation on bit-packed Pauli rows.

Every Pauli row uses PauliString's layout: x and z bits packed 64 qubits to
a uint64 word, plus a sign bit. conjugate_rows, the one row-batched gate
update, conjugates any number of rows through a Clifford gate; the
destabilizer/stabilizer tableau and the generator sweep in expansion.py
both use it. One sign-exact reconstruction serves every expectation:
input_frame maps a batch of rows Q to U†QU, the frame in which the state
is |0...0>, as a few GF(2) matrix products with no loop over the tableau
rows, and frame_values reads <psi|Q|psi> off the images. expectation
returns 0 when Q anticommutes with a stabilizer, one popcount parity over
the packed words, and otherwise reads the frame of Q. conjugate_pauli is
an independent bit-at-a-time conjugation of one Pauli string, kept as the
reference.

All gates reduce to the primitives {H, S, CNOT}; the 24 single-qubit
Clifford gates are enumerated by a fixed table of H/S words (see
CLIFFORD_1Q_WORDS, also shipped as data/single_qubit_cliffords.txt).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import CircuitFormatError, DimensionMismatchError, WireError
from .pauli import PHASES, PauliString, _n_words, _row_popcount

# ---------------------------------------------------------------------------
# Single-qubit Clifford table
#
# Index -> word over {H, S}, letters applied left to right in time order.
# The table is the breadth-first enumeration of the 24-element group starting
# from the identity, children ordered H before S, first-seen wins. Entry 0 is
# the identity, entry 1 is the Hadamard.
# ---------------------------------------------------------------------------

CLIFFORD_1Q_WORDS = (
    "", "H", "S", "HS", "SH", "SS", "HSH", "HSS", "SHS", "SSH", "SSS",
    "HSHS", "HSSH", "HSSS", "SHSS", "SSHS", "HSHSS", "HSSHS", "SHSSH",
    "SHSSS", "SSHSS", "HSHSSH", "HSHSSS", "HSSHSS",
)

# Inverse index within the same table.
CLIFFORD_1Q_INVERSE = (
    0, 1, 10, 11, 13, 5, 8, 9, 6, 7, 2, 3, 12, 4, 21, 22, 16, 17, 18, 19,
    20, 14, 15, 23,
)

CLIFFORD_1Q_IDENTITY = 0
CLIFFORD_1Q_HADAMARD = 1

_KIND_ARITY = {
    "H": 1, "S": 1, "SDG": 1, "X": 1, "Y": 1, "Z": 1,
    "CNOT": 2, "CZ": 2, "SWAP": 2, "C1": 1,
}


@dataclass(frozen=True)
class CliffordGate:
    """A Clifford gate: a named kind acting on one or two wires.

    kind "C1" selects one of the 24 single-qubit Cliffords by `index`.
    """

    kind: str
    wires: tuple
    index: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _KIND_ARITY:
            raise WireError(f"unknown Clifford gate kind {self.kind!r}")
        wires = tuple(int(w) for w in self.wires)
        object.__setattr__(self, "wires", wires)
        if len(wires) != _KIND_ARITY[self.kind]:
            raise WireError(f"{self.kind} takes {_KIND_ARITY[self.kind]} wire(s), got {wires}")
        if len(set(wires)) != len(wires):
            raise WireError(f"duplicate wires {wires} on {self.kind}")
        if self.kind == "C1":
            if self.index is None or not 0 <= self.index < 24:
                raise WireError(f"C1 index must be in 0..23, got {self.index}")
        elif self.index is not None:
            raise WireError(f"index is only valid for C1 gates, not {self.kind}")

    def inverse(self) -> "CliffordGate":
        if self.kind == "C1":
            return CliffordGate("C1", self.wires, CLIFFORD_1Q_INVERSE[self.index])
        if self.kind == "S":
            return CliffordGate("SDG", self.wires)
        if self.kind == "SDG":
            return CliffordGate("S", self.wires)
        # H, X, Y, Z, CNOT, CZ, SWAP are involutions
        return self

    def primitives(self) -> list:
        """Expand into (name, wires) primitives over {H, S, CNOT}, time order."""
        k, w = self.kind, self.wires
        if k == "H":
            return [("H", w)]
        if k == "S":
            return [("S", w)]
        if k == "SDG":
            return [("S", w)] * 3
        if k == "Z":
            return [("S", w)] * 2
        if k == "X":
            return [("H", w), ("S", w), ("S", w), ("H", w)]
        if k == "Y":
            # Y equals ZX up to global phase, irrelevant under conjugation.
            return CliffordGate("X", w).primitives() + CliffordGate("Z", w).primitives()
        if k == "CNOT":
            return [("CNOT", w)]
        if k == "CZ":
            hb = (w[1],)
            return [("H", hb), ("CNOT", w), ("H", hb)]
        if k == "SWAP":
            a, b = w
            return [("CNOT", (a, b)), ("CNOT", (b, a)), ("CNOT", (a, b))]
        if k == "C1":
            return [(ch, w) for ch in CLIFFORD_1Q_WORDS[self.index]]
        raise AssertionError(k)


def _check_wires(gate: CliffordGate, n_qubits: int) -> None:
    for w in gate.wires:
        if not 0 <= w < n_qubits:
            raise WireError(f"wire {w} out of range for {n_qubits} qubits ({gate.kind})")


def check_reference(reference: str, n_qubits: int) -> None:
    """CircuitFormatError unless `reference` is n_qubits characters of 0/1.

    The one check of a reference bitstring: the stabilizer tableau and the
    dense basis state both call it where the bitstring enters.
    """
    if len(reference) != n_qubits or set(reference) - {"0", "1"}:
        raise CircuitFormatError(
            f"reference bitstring {reference!r} must be {n_qubits} characters of 0/1"
        )


# ---------------------------------------------------------------------------
# Single-Pauli conjugation (Heisenberg picture)
# ---------------------------------------------------------------------------


def _bit(words: np.ndarray, q: int) -> int:
    w, b = divmod(q, 64)
    return int(words[w] >> np.uint64(b)) & 1


def _flip(words: np.ndarray, q: int) -> None:
    w, b = divmod(q, 64)
    words[w] ^= np.uint64(1 << b)


def conjugate_pauli(circuit: Iterable[CliffordGate], p: PauliString) -> PauliString:
    """Return C p C† for the Clifford circuit C (gates in time order).

    Exact sign tracking; cost O(gate primitives), each primitive touching
    only its wires.
    """
    x = p.x.copy()
    z = p.z.copy()
    phase = p.phase
    n = p.n_qubits
    for gate in circuit:
        _check_wires(gate, n)
        for name, wires in gate.primitives():
            if name == "H":
                (q,) = wires
                xb, zb = _bit(x, q), _bit(z, q)
                if xb & zb:
                    phase ^= 2
                if xb != zb:
                    _flip(x, q)
                    _flip(z, q)
            elif name == "S":
                (q,) = wires
                xb, zb = _bit(x, q), _bit(z, q)
                if xb & zb:
                    phase ^= 2
                if xb:
                    _flip(z, q)
            else:  # CNOT
                a, b = wires
                xa, za = _bit(x, a), _bit(z, a)
                xb, zb = _bit(x, b), _bit(z, b)
                if xa & zb & (1 ^ xb ^ za):
                    phase ^= 2
                if xa:
                    _flip(x, b)
                if zb:
                    _flip(z, a)
    return PauliString(n, x, z, phase)


# ---------------------------------------------------------------------------
# Row-batched conjugation
# ---------------------------------------------------------------------------


def conjugate_rows(x: np.ndarray, z: np.ndarray, r: np.ndarray, gate: CliffordGate) -> None:
    """Replace every row P by g P g† in place, for the Clifford gate g.

    Row i is the Hermitian Pauli (-1)^r[i] * (x[i], z[i]) in PauliString's
    packed layout: x and z are (rows, words) uint64 arrays, r the (rows,)
    sign bits. The caller checks the gate's wires against the width.
    """
    for name, wires in gate.primitives():
        if name == "CNOT":
            (wa, ba), (wb, bb) = divmod(wires[0], 64), divmod(wires[1], 64)
            xa, za = (x[:, wa] >> ba) & 1, (z[:, wa] >> ba) & 1
            xb, zb = (x[:, wb] >> bb) & 1, (z[:, wb] >> bb) & 1
            r ^= xa & zb & (xb ^ za ^ 1)
            x[:, wb] ^= xa << bb
            z[:, wa] ^= zb << ba
            continue
        w, b = divmod(wires[0], 64)
        xq, zq = (x[:, w] >> b) & 1, (z[:, w] >> b) & 1
        r ^= xq & zq
        if name == "H":
            swap = (xq ^ zq) << b
            x[:, w] ^= swap
            z[:, w] ^= swap
        else:  # S
            z[:, w] ^= xq << b


# ---------------------------------------------------------------------------
# Stabilizer tableau
# ---------------------------------------------------------------------------


class StabilizerTableau:
    """Destabilizer/stabilizer tableau of a Clifford-evolved basis state.

    Rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers. x and z are
    (2n, words) uint64 arrays in PauliString's packed layout; r holds the
    sign bit of each row ((-1)^r, letter convention with Y at x=z=1).
    """

    def __init__(self, n_qubits: int, bitstring: Optional[str] = None):
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        self.n = n_qubits
        self.x = np.zeros((2 * n_qubits, _n_words(n_qubits)), dtype=np.uint64)
        self.z = np.zeros_like(self.x)
        self.r = np.zeros(2 * n_qubits, dtype=np.uint8)
        for j in range(n_qubits):
            w, b = divmod(j, 64)
            self.x[j, w] = 1 << b              # destabilizer X_j
            self.z[n_qubits + j, w] = 1 << b   # stabilizer Z_j
        if bitstring is not None:
            check_reference(bitstring, n_qubits)
            for j, c in enumerate(bitstring):
                if c == "1":
                    self.r[n_qubits + j] = 1
        self._frame = None

    # -- gate application ---------------------------------------------------

    def apply(self, gate: CliffordGate) -> "StabilizerTableau":
        _check_wires(gate, self.n)
        conjugate_rows(self.x, self.z, self.r, gate)
        self._frame = None
        return self

    def apply_circuit(self, gates: Iterable[CliffordGate]) -> "StabilizerTableau":
        for g in gates:
            self.apply(g)
        return self

    # -- row access ---------------------------------------------------------

    def stabilizer(self, j: int) -> PauliString:
        i = self.n + j
        return PauliString(self.n, self.x[i], self.z[i], 2 * int(self.r[i]))

    def destabilizer(self, j: int) -> PauliString:
        return PauliString(self.n, self.x[j], self.z[j], 2 * int(self.r[j]))

    def stabilizers(self) -> list:
        return [self.stabilizer(j) for j in range(self.n)]

    # -- expectation --------------------------------------------------------

    def expectation(self, q: PauliString) -> complex:
        """Exact <psi|Q|psi> in {0, ±1, ±i} times Q's phase.

        Zero iff the unphased part of Q anticommutes with some stabilizer,
        which one popcount parity over the packed words decides; otherwise
        Q's input-frame image is i^k~ Z^z~ and the value is i^k~.
        """
        if q.n_qubits != self.n:
            raise DimensionMismatchError(
                f"Pauli on {q.n_qubits} qubits vs state on {self.n}"
            )
        n = self.n
        # Stabilizer j anticommutes with Q iff popcount(x_j&qz) + popcount(z_j&qx) is odd.
        if (np.bitwise_count((self.x[n:] & q.z) ^ (self.z[n:] & q.x)).sum(axis=1) & 1).any():
            return 0j
        _, _, k = self.input_frame(q.x[None], q.z[None], np.array([q.phase]))
        # i^k~ is ±i^phase; a product with the sign keeps PHASES' signed zeros
        return PHASES[q.phase] * (1.0 if k[0] == q.phase else -1.0)

    def _frame_tables(self):
        """GF(2) tables of the rows for input_frame, built once per state."""
        if self._frame is None:
            tx, tz = _bits(self.x, self.n), _bits(self.z, self.n)
            t = np.hstack([tx, tz])
            base = 2 * self.r + _row_popcount(self.x & self.z)
            # select[a, i] = T[(i + n) % 2n, (a + n) % 2n]: q @ select is Q's
            # symplectic parity with each row's partner, s
            select = np.roll(t, self.n, axis=(0, 1)).T
            self._frame = t, select, base, np.triu(tz @ tx.T, k=1) % 2
        return self._frame

    def input_frame(self, x: np.ndarray, z: np.ndarray, phase: np.ndarray):
        """Images U†QU of a batch of packed rows Q, where U|0...0> = |psi>.

        U is the Clifford with U X_j U† = destabilizer j (row j) and U Z_j U†
        = stabilizer j (row n + j). Rows are given and returned as mul_rows
        takes them: (M, words) uint64 x and z, (M,) phase exponents of i.
        Then <psi|Q|psi> = [x~ = 0] * i^k~ for any Q (frame_values).

        Rows 0..2n-1 (T_i, bits (x_i, z_i), sign bit r_i) form a symplectic
        basis in which row j anticommutes only with row (j + n) mod 2n. So
        Q = i^phase L(x, z) is, up to a phase, the product of the rows i
        with s_i = 1, where s_i is Q's symplectic parity with row
        (i + n) mod 2n: the parities with every row, rolled by n. Then
        x~ = s[:n] and z~ = s[n:]. The check s·T = (x, z) (mod 2) guards
        the tableau.

        The phase is a quadratic form in s over GF(2). With L the letter
        convention (Y at x = z = 1), T_i = i^(2 r_i + y_i) X^x_i Z^z_i with
        y_i = |x_i ∧ z_i|. Multiplying the selected rows in index order and
        moving every X^x_j left past the Z^z_i of the earlier rows i < j
        costs (-1)^|z_i ∧ x_j| per pair, and X^x Z^z = i^(-|x ∧ z|) L(x, z).
        So the product is i^acc L(x, z) with

            acc = Σ_i s_i (2 r_i + y_i) + 2 sᵀ U s - |x ∧ z|  (mod 4),
            U_ij = |z_i ∧ x_j| mod 2 for i < j, and 0 otherwise.

        Multiplying the rows one at a time (pauli_mul, mul_rows) charges
        2 |z_acc ∧ x_j| with z_acc = ⊕_{i<j} s_i z_i instead; popcount
        parity is linear over GF(2), |(a ⊕ b) ∧ c| = |a ∧ c| + |b ∧ c|
        (mod 2), so that equals Σ_{i<j} s_i U_ij mod 2, and the per-step
        -|x ∧ z| corrections cancel against the next step's +y. The two
        give the same exponent. Since U X^x~ Z^z~ U† is the product of the
        selected rows, destabilizers first, U†QU = i^(phase - acc) X^x~ Z^z~
        = i^k~ L(x~, z~) with k~ = phase - acc - |x~ ∧ z~| (mod 4).
        """
        n = self.n
        t, select, base, upper = self._frame_tables()
        q = np.hstack([_bits(x, n), _bits(z, n)])
        # parities as int: float % 2 is several times slower than the matmul
        s = (q @ select).astype(np.int64) & 1
        if not np.array_equal((s @ t).astype(np.int64) & 1, q):
            raise AssertionError("stabilizer reconstruction mismatch")
        xt, zt = s[:, :n], s[:, n:]
        # form = acc + |x ∧ z| + |x~ ∧ z~|
        form = s @ base + 2 * ((s @ upper) * s).sum(axis=1) + (xt * zt).sum(axis=1)
        k = (phase - form.astype(np.int64) + _row_popcount(x & z)) % 4
        return _pack(xt, x.shape[-1]), _pack(zt, x.shape[-1]), k


def frame_values(x: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """<psi|Q|psi> = [x~ = 0] * i^k~ of input-frame images, as complex."""
    return np.where(x.any(axis=-1), 0j, np.array(PHASES)[phase])


def _bits(words: np.ndarray, n: int) -> np.ndarray:
    """(..., n) 0/1 floats of packed (..., words) rows; exact in matmul."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=n, bitorder="little").astype(np.float64)


def _pack(bits: np.ndarray, words: int) -> np.ndarray:
    padded = np.zeros(bits.shape[:-1] + (64 * words,), dtype=np.uint8)
    padded[..., : bits.shape[-1]] = bits
    return np.packbits(padded, axis=-1, bitorder="little").view("<u8").astype(np.uint64)
