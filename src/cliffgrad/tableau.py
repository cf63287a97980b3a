"""Tableau-based Clifford simulation on bit-packed Pauli rows.

Every Pauli row uses PauliString's layout: x and z bits packed 64 qubits to
a uint64 word, plus a sign bit; pauli._pack and pauli._bits pack and unpack
them. conjugate_rows, the one row-batched gate update, conjugates any
number of rows through a Clifford gate, reading each wire's bit at its word
address; the destabilizer/stabilizer tableau and the Clifford sweep in
circuit.py both use it. Every single-qubit Clifford (H, S, SDG, X, Y, Z and
C1) is one of the 24 entries of the single-qubit table, and conjugate_rows
applies it as one gather: a 24 x 4 table maps a row's (x_q, z_q) to its
image and sign flip. The table index may differ from row to row, which is
how the stacked sweep conjugates many ansätze through one gate position at
once. CNOT, CZ and SWAP are updated through their {H, CNOT} primitives.

One sign-exact reconstruction serves every expectation: input_frame maps a
batch of rows Q to U†QU, the frame in which the state is |0...0>, as a few
GF(2) matrix products with no loop over the tableau rows, and frame_values
reads <psi|Q|psi> off the images. expectation returns 0 when Q
anticommutes with a stabilizer, one popcount parity over the packed words,
and otherwise reads the frame of Q. conjugate_pauli is an independent
conjugation of one Pauli string: it unpacks the bits, updates them one
{H, S, CNOT} primitive at a time and packs the result. The single-qubit
table is derived from it at import, and it stays the reference that
conjugate_rows is tested against.

All gates reduce to the primitives {H, S, CNOT}; the 24 single-qubit
Clifford gates are enumerated by a fixed table of H/S words (see
CLIFFORD_1Q_WORDS, also shipped as data/single_qubit_cliffords.txt).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import CircuitFormatError, DimensionMismatchError, WireError
from .pauli import PHASES, PauliString, _WORD_BITS, _bits, _n_words, _pack, _row_popcount

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


def conjugate_pauli(circuit: Iterable[CliffordGate], p: PauliString) -> PauliString:
    """Return C p C† for the Clifford circuit C (gates in time order).

    Exact sign tracking on unpacked bits, one qubit at a time; cost
    O(gate primitives), each primitive touching only its wires.
    """
    n = p.n_qubits
    x = _bits(p.x, n).astype(int).tolist()
    z = _bits(p.z, n).astype(int).tolist()
    phase = p.phase
    for gate in circuit:
        _check_wires(gate, n)
        for name, wires in gate.primitives():
            if name == "CNOT":
                a, b = wires
                phase ^= 2 * (x[a] & z[b] & (1 ^ x[b] ^ z[a]))
                x[b] ^= x[a]
                z[a] ^= z[b]
                continue
            (q,) = wires
            phase ^= 2 * (x[q] & z[q])
            if name == "H":
                x[q], z[q] = z[q], x[q]
            else:  # S
                z[q] ^= x[q]
    return PauliString.from_bits(x, z, phase)


# ---------------------------------------------------------------------------
# Row-batched conjugation
# ---------------------------------------------------------------------------


def _single_qubit_table():
    """The 24 x 4 update table and the table index of each named single-qubit kind.

    Entry [i, c] holds, for C1 gate i and a row whose bits on the wire are
    c = x | z << 1, the XOR that takes the bits to their image (bit 0 for x,
    bit 1 for z) and the sign flip (bit 2). The images of H and S are read
    off conjugate_pauli on one qubit; every other gate's are composed from
    its H/S primitives (CLIFFORD_1Q_WORDS for C1).
    """
    primitive = {}
    for name in ("H", "S"):
        images = [
            conjugate_pauli([CliffordGate(name, (0,))], PauliString.from_bits([c & 1], [c >> 1]))
            for c in range(4)
        ]
        primitive[name] = [(q.x_bit(0), q.z_bit(0), q.phase // 2) for q in images]

    def images(gate: CliffordGate) -> tuple:
        out = []
        for c in range(4):
            x, z, flip = c & 1, c >> 1, 0
            for name, _ in gate.primitives():
                x, z, f = primitive[name][x | z << 1]
                flip ^= f
            out.append((x, z, flip))
        return tuple(out)

    rows = [images(CliffordGate("C1", (0,), i)) for i in range(24)]
    table = np.array(
        [[(x ^ (c & 1)) | (z ^ (c >> 1)) << 1 | flip << 2 for c, (x, z, flip) in enumerate(row)]
         for row in rows],
        dtype=np.uint64,
    )
    kinds = ("H", "S", "SDG", "X", "Y", "Z")
    return table, {k: rows.index(images(CliffordGate(k, (0,)))) for k in kinds}


_1Q_TABLE, _1Q_KIND_INDEX = _single_qubit_table()


def single_qubit_index(gate: CliffordGate) -> int:
    """The single-qubit gate's entry in the 24-element table (0 is the identity)."""
    return gate.index if gate.kind == "C1" else _1Q_KIND_INDEX[gate.kind]


def conjugate_rows(
    x: np.ndarray, z: np.ndarray, r: np.ndarray, gate: CliffordGate, index=None
) -> None:
    """Replace every row P by g P g† in place, for the Clifford gate g.

    Row i is the Hermitian Pauli (-1)^r[i] * (x[i], z[i]) in PauliString's
    packed layout: x and z are (rows, words) uint64 arrays, r the (rows,)
    sign bits. The caller checks the gate's wires against the width.

    A single-qubit gate is one gather from the single-qubit table. `index`,
    given only for a single-qubit gate, replaces the gate's table entry: a
    scalar, or one entry per row, so that each row goes through its own
    single-qubit Clifford on the gate's wire. CNOT, CZ and SWAP run their
    {H, CNOT} primitives.
    """
    if len(gate.wires) == 1:
        if index is None:
            index = single_qubit_index(gate)
        if not (index.any() if isinstance(index, np.ndarray) else index):
            return  # the identity on every row
        w, b = divmod(gate.wires[0], _WORD_BITS)
        delta = _1Q_TABLE[index, ((x[:, w] >> b) & 1) | ((z[:, w] >> b) & 1) << 1]
        x[:, w] ^= (delta & 1) << b
        z[:, w] ^= ((delta >> 1) & 1) << b
        r ^= delta >> 2
        return
    for name, wires in gate.primitives():
        if name == "H":  # inside CZ
            w, b = divmod(wires[0], _WORD_BITS)
            xq, zq = (x[:, w] >> b) & 1, (z[:, w] >> b) & 1
            r ^= xq & zq
            swap = (xq ^ zq) << b
            x[:, w] ^= swap
            z[:, w] ^= swap
            continue
        (wa, ba), (wb, bb) = divmod(wires[0], _WORD_BITS), divmod(wires[1], _WORD_BITS)
        xa, za = (x[:, wa] >> ba) & 1, (z[:, wa] >> ba) & 1
        xb, zb = (x[:, wb] >> bb) & 1, (z[:, wb] >> bb) & 1
        r ^= xa & zb & (xb ^ za ^ 1)
        x[:, wb] ^= xa << bb
        z[:, wa] ^= zb << ba


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
        eye = _pack(np.eye(n_qubits, dtype=np.uint8), _n_words(n_qubits))
        zero = np.zeros_like(eye)
        self.x = np.vstack([eye, zero])  # destabilizer X_j
        self.z = np.vstack([zero, eye])  # stabilizer Z_j
        self.r = np.zeros(2 * n_qubits, dtype=np.uint8)
        if bitstring is not None:
            check_reference(bitstring, n_qubits)
            self.r[n_qubits:] = [c == "1" for c in bitstring]
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
        # float32 bits (pauli._bits) are exact here: q @ select and s @ t sum
        # at most 2n ones, s @ upper at most n, and s @ base is integer, all
        # far below float32's 2^24
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
