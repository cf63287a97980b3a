"""Tableau-based Clifford simulation on bit-packed Pauli rows.

Every Pauli row uses PauliString's layout: x and z bits packed 64 qubits to
a uint64 word, plus a sign bit; pauli._pack and pauli._bits pack and unpack
them. conjugate_rows, the one row-batched gate update, conjugates any
number of rows through a Clifford gate as one gather from an update table:
the table maps a row's bits on the gate's wires to the XOR that takes them
to their image and the sign flip. The single-qubit table has an entry for
each of the 24 single-qubit Cliffords (H, S, SDG, X, Y, Z and C1 are all
among them); the two-qubit table has one for each of CNOT, CZ and SWAP.
The single-qubit entry may differ from row to row, which is how the stacked
sweep in circuit.py conjugates many dressings of one ansatz through one
gate position at once. The destabilizer/stabilizer tableau applies gates the same way.

One sign-exact reconstruction serves every expectation: input_frame maps a
batch of rows Q to U†QU, the frame in which the state is |0...0>, as a few
GF(2) matrix products with no loop over the tableau rows, and frame_values
reads <psi|Q|psi> off the images. expectation returns 0 when Q
anticommutes with a stabilizer (pauli.anticommute over the packed words),
and otherwise reads frame_values of Q's image.

_conjugate_masks is the one place that spells out how a gate acts: it
walks a Pauli string, held as two Python-int bit masks and a phase,
through one {H, S, CNOT} primitive at a time (CliffordGate.primitives).
Every entry of both update tables is read straight off it at import, one
walk per gate and letter code, and conjugate_pauli, its PauliString
wrapper, stays the reference that conjugate_rows is tested against. The 24
single-qubit Cliffords are enumerated by a fixed table of H/S words
(CLIFFORD_1Q_WORDS, also shipped as data/single_qubit_cliffords.txt), and
a single-qubit gate's primitives are the word of its table entry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import CircuitFormatError, DimensionMismatchError, WireError
from .pauli import PHASES, PauliString, _WORD_BITS, _bits, _n_words, _pack, _row_popcount
from .pauli import anticommute, pack_masks, unpack_mask

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

# Each named kind's entry in its update table. A single-qubit kind's entry
# is its H/S word: SDG = SSS, Z = SS, X = HSSH and Y = HSSHSS (X then Z; Y
# equals ZX up to a global phase, irrelevant under conjugation).
_KIND_INDEX = {"H": 1, "S": 2, "SDG": 10, "X": 12, "Y": 23, "Z": 5, "CNOT": 0, "CZ": 1, "SWAP": 2}


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
        """Expand into (name, wires) primitives over {H, S, CNOT}, time order.

        A single-qubit gate is the H/S word of its table entry (table_index),
        letter by letter; CZ is H CNOT H on the target and SWAP three CNOTs.
        """
        k, w = self.kind, self.wires
        if k == "CNOT":
            return [("CNOT", w)]
        if k == "CZ":
            hb = (w[1],)
            return [("H", hb), ("CNOT", w), ("H", hb)]
        if k == "SWAP":
            a, b = w
            return [("CNOT", (a, b)), ("CNOT", (b, a)), ("CNOT", (a, b))]
        return [(ch, w) for ch in CLIFFORD_1Q_WORDS[table_index(self)]]


def table_index(gate: CliffordGate) -> int:
    """The gate's entry in its update table (single-qubit entry 0 is the identity)."""
    return gate.index if gate.kind == "C1" else _KIND_INDEX[gate.kind]


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


def _conjugate_masks(circuit: Iterable[CliffordGate], n: int, x: int, z: int, phase: int):
    """(x, z, phase) of C P C† for P = i^phase (x, z) on n qubits.

    x and z are Python-int bit masks, bit q for qubit q, and the phase is
    an exponent of i. The walk takes one {H, S, CNOT} primitive at a time
    (CliffordGate.primitives), each touching only its wires, with exact
    sign tracking (Aaronson & Gottesman, arXiv:quant-ph/0406196).
    """
    for gate in circuit:
        _check_wires(gate, n)
        for name, wires in gate.primitives():
            if name == "CNOT":
                a, b = wires
                xa, zb = x >> a & 1, z >> b & 1
                phase ^= 2 * (xa & zb & (1 ^ (x >> b & 1) ^ (z >> a & 1)))
                x, z = x ^ xa << b, z ^ zb << a
                continue
            (q,) = wires
            xq, zq = x >> q & 1, z >> q & 1
            phase ^= 2 * (xq & zq)
            if name == "H":  # swap the bits: XOR both with their difference
                x, z = x ^ (xq ^ zq) << q, z ^ (xq ^ zq) << q
            else:  # S
                z ^= xq << q
    return x, z, phase


def conjugate_pauli(circuit: Iterable[CliffordGate], p: PauliString) -> PauliString:
    """Return C p C† for the Clifford circuit C (gates in time order).

    The PauliString wrapper of _conjugate_masks: exact sign tracking on bit
    masks; cost O(gate primitives), each primitive touching only its wires.
    """
    n = p.n_qubits
    x, z, phase = _conjugate_masks(circuit, n, unpack_mask(p.x), unpack_mask(p.z), p.phase)
    (x,), (z,) = pack_masks([(x, z)], n)
    return PauliString(n, x, z, phase)


# ---------------------------------------------------------------------------
# Row-batched conjugation
# ---------------------------------------------------------------------------


def _code(x: int, z: int, k: int) -> int:
    """A row's code on a gate's k wires from its bit masks x and z there:
    its letters 2x + z in wire order, two bits each, the first wire's highest."""
    return sum((2 * (x >> j & 1) + (z >> j & 1)) << 2 * (k - 1 - j) for j in range(k))


def _update_table(gates) -> np.ndarray:
    """A gather table of conjugate_rows, read straight off _conjugate_masks.

    Entry e holds, at e << 2k | code, the XOR that takes the code to its
    image's and, at bit 2k, the sign flip: one walk of gate e, on wires
    0..k-1 of a k-qubit register, per code.
    """
    k = len(gates[0].wires)
    out = np.zeros(len(gates) << 2 * k, dtype=np.uint64)
    for e, gate in enumerate(gates):
        for x, z in itertools.product(range(1 << k), repeat=2):
            x2, z2, phase = _conjugate_masks([gate], k, x, z, 0)
            code = _code(x, z, k)
            out[e << 2 * k | code] = phase // 2 << 2 * k | _code(x2, z2, k) ^ code
    return out


_1Q_TABLE = _update_table([CliffordGate("C1", (0,), i) for i in range(24)])
_2Q_TABLE = _update_table([CliffordGate(kind, (0, 1)) for kind in ("CNOT", "CZ", "SWAP")])


def _move(words: np.ndarray, src: int, dst: int) -> np.ndarray:
    """Bit src of each word, moved to bit dst; every other bit 0."""
    return (words >> src - dst if src >= dst else words << dst - src) & 1 << dst


def conjugate_rows(
    x: np.ndarray, z: np.ndarray, r: np.ndarray, gate: CliffordGate, index=None
) -> None:
    """Replace every row P by g P g† in place, for the Clifford gate g.

    Row i is the Hermitian Pauli (-1)^r[i] * (x[i], z[i]) in PauliString's
    packed layout: x and z are (rows, words) uint64 arrays, r the (rows,)
    sign bits. The caller checks the gate's wires against the width.

    Every gate is one gather from an update table, indexed by the gate's
    entry (table_index) and the row's bits on the gate's wires: the
    single-qubit table (24 entries) or the two-qubit table (CNOT, CZ,
    SWAP). `index` replaces the gate's entry: a scalar, or one entry per
    row, so that each row goes through its own gate of the same arity on
    the gate's wires.
    """
    k = len(gate.wires)
    index = table_index(gate) if index is None else index
    if k == 1 and not (index.any() if isinstance(index, np.ndarray) else index):
        return  # the identity on every row
    at = [divmod(q, _WORD_BITS) for q in reversed(gate.wires)]  # the last wire's bits lowest
    code = np.uint64(index) << 2 * k
    for j, (w, b) in enumerate(at):
        code = code | _move(x[:, w], b, 2 * j + 1) | _move(z[:, w], b, 2 * j)
    delta = (_1Q_TABLE if k == 1 else _2Q_TABLE).take(code)
    for j, (w, b) in enumerate(at):
        x[:, w] ^= _move(delta, 2 * j + 1, b)
        z[:, w] ^= _move(delta, 2 * j, b)
    r ^= delta >> 2 * k


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
        """Exact <psi|Q|psi> in {0, ±1, ±i}: frame_values of Q's input-frame image.

        It is 0 when Q anticommutes with some stabilizer (pauli.anticommute),
        which returns early: one parity per row is about six times cheaper
        than the image. Otherwise the image is i^k~ Z^z~ and the value i^k~.
        """
        if q.n_qubits != self.n:
            raise DimensionMismatchError(
                f"Pauli on {q.n_qubits} qubits vs state on {self.n}"
            )
        if anticommute(self.x[self.n:], self.z[self.n:], q.x, q.z).any():
            return 0j
        images = self.input_frame(q.x[None], q.z[None], np.array([q.phase]))
        return complex(frame_values(images)[0])

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


def frame_values(images) -> np.ndarray:
    """<psi|Q|psi> = [x~ = 0] * i^k~ of input-frame images (x~, z~, k~), as
    input_frame returns them, as complex: the one read of an image, for
    expectation, e0, g and A alike."""
    x, _, phase = images
    return np.where(x.any(axis=-1), 0j, np.array(PHASES)[phase])
