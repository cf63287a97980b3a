"""Tableau-based Clifford simulation on bit-packed Pauli rows.

Every Pauli row uses PauliString's layout: x and z bits packed 64 qubits to
a uint64 word, plus a sign bit. conjugate_rows, the one row-batched gate
update, conjugates any number of rows through a Clifford gate; the
destabilizer/stabilizer tableau and the generator sweep in expansion.py
both use it. Expectations <psi|Q|psi> are exact: one popcount parity over
the packed words finds the rows Q anticommutes with, and a sign-exact
reconstruction gives the value. input_frame maps a whole batch of rows
Q to U†QU, the frame in which the state is |0...0>, for the batched
gradient. conjugate_pauli is an independent bit-at-a-time conjugation of
one Pauli string, kept as the reference.

All gates reduce to the primitives {H, S, CNOT}; the 24 single-qubit
Clifford gates are enumerated by a fixed table of H/S words (see
CLIFFORD_1Q_WORDS, also shipped as data/single_qubit_cliffords.txt).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import WireError, DimensionMismatchError
from .pauli import PHASES, PauliString, _n_words, _row_popcount, mul_rows, pauli_mul

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
            if len(bitstring) != n_qubits or set(bitstring) - {"0", "1"}:
                raise ValueError(f"bitstring {bitstring!r} invalid for {n_qubits} qubits")
            for j, c in enumerate(bitstring):
                if c == "1":
                    self.r[n_qubits + j] = 1
        self._row_cache = None

    # -- gate application ---------------------------------------------------

    def apply(self, gate: CliffordGate) -> "StabilizerTableau":
        _check_wires(gate, self.n)
        conjugate_rows(self.x, self.z, self.r, gate)
        self._row_cache = None
        return self

    def apply_circuit(self, gates: Iterable[CliffordGate]) -> "StabilizerTableau":
        for g in gates:
            self.apply(g)
        return self

    # -- row access ---------------------------------------------------------

    def _row(self, i: int) -> PauliString:
        if self._row_cache is None:
            self._row_cache = {}
        ps = self._row_cache.get(i)
        if ps is None:
            ps = PauliString(self.n, self.x[i], self.z[i], 2 * int(self.r[i]))
            self._row_cache[i] = ps
        return ps

    def stabilizer(self, j: int) -> PauliString:
        return self._row(self.n + j)

    def destabilizer(self, j: int) -> PauliString:
        return self._row(j)

    def stabilizers(self) -> list:
        return [self.stabilizer(j) for j in range(self.n)]

    # -- expectation --------------------------------------------------------

    def expectation(self, q: PauliString) -> complex:
        """Exact <psi|Q|psi> in {0, ±1, ±i} times Q's phase.

        Zero iff the unphased part of Q anticommutes with some stabilizer;
        otherwise the unphased part is a signed product of generators,
        reconstructed destabilizer-assisted in lowest-index-first order.
        """
        if q.n_qubits != self.n:
            raise DimensionMismatchError(
                f"Pauli on {q.n_qubits} qubits vs state on {self.n}"
            )
        n = self.n
        # Row i anticommutes with Q iff popcount(x_i&qz) + popcount(z_i&qx) is odd.
        anti = np.bitwise_count((self.x & q.z) ^ (self.z & q.x)).sum(axis=1) & 1
        if anti[n:].any():
            return 0j
        acc = PauliString.identity(n)
        for j in np.flatnonzero(anti[:n]):
            acc = pauli_mul(acc, self.stabilizer(int(j)))
        if not (np.array_equal(acc.x, q.x) and np.array_equal(acc.z, q.z)):
            raise AssertionError("stabilizer reconstruction mismatch")
        sign = 1.0 if acc.phase == 0 else -1.0
        return PHASES[q.phase] * sign

    def input_frame(self, x: np.ndarray, z: np.ndarray, phase: np.ndarray):
        """Images U†QU of a batch of packed rows Q, where U|0...0> = |psi>.

        U is the Clifford with U X_j U† = destabilizer j and U Z_j U† =
        stabilizer j. Rows are given and returned as mul_rows takes them:
        (M, words) uint64 x and z, (M,) phase exponents of i. The image of Q
        is i^k~ (x~, z~): x~_j is Q's anticommutation parity with stabilizer
        j, z~_j its parity with destabilizer j, and k~ comes from the
        sign-exact product of the selected rows, destabilizers first, each
        block in index order. Then <psi|Q|psi> = [x~ = 0] * i^k~ for any Q.
        """
        n = self.n
        xt, zt = np.zeros_like(x), np.zeros_like(z)
        acc_x, acc_z = np.zeros_like(x), np.zeros_like(z)
        acc_p = np.zeros(x.shape[0], dtype=np.int64)
        for i in range(2 * n):
            # destabilizer j is selected by stabilizer j, and the other way round
            j = (i + n) % (2 * n)
            sel = (np.bitwise_count((self.x[j] & z) ^ (self.z[j] & x)).sum(axis=1) & 1) == 1
            if not sel.any():
                continue
            w, b = divmod(i % n, 64)
            (xt if i < n else zt)[sel, w] |= np.uint64(1 << b)
            acc_x[sel], acc_z[sel], acc_p[sel] = mul_rows(
                acc_x[sel], acc_z[sel], acc_p[sel], self.x[i], self.z[i], 2 * int(self.r[i])
            )
        if not (np.array_equal(acc_x, x) and np.array_equal(acc_z, z)):
            raise AssertionError("stabilizer reconstruction mismatch")
        # Q = i^phase L(x, z) = i^(phase - acc_p) U X^x~ Z^z~ U†, and X^x~ Z^z~
        # is L(x~, z~) up to a factor i per Y site.
        return xt, zt, (phase - acc_p - _row_popcount(xt & zt)) % 4
