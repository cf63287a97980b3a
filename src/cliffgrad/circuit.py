"""Ansatz circuit representation, generation, selection, and serialization.

An ansatz is an ordered list of Clifford gates and parameterized
single-qubit Pauli rotations R(theta) = exp(i * theta * P). The generator
produces brickwork circuits from two mirrored regions so that the circuit
composes to the identity at theta = 0; a computational-basis reference
state (e.g. a Hartree-Fock occupation bitstring) is injected at the input.
The theta = 0 stabilizer state is the reference's tableau taken through
the Clifford gates (clifford_point_state); one sweep over the same gates
gives the conjugated rotation generators P'_k as packed rows
(ConjugatedGenerators).

The sweep (_clifford_sweep) takes a list of ansätze that share a skeleton:
the same width and, at every position, the same rotation (axis, wire,
param), the same two-qubit gate, or single-qubit Clifford gates on the same
wire. Candidates generated for one width, depth and variant always do.
Their generator rows are stacked into one block and swept gate position by
gate position; at a single-qubit position each ansatz's rows take its own
entry of the single-qubit table (tableau.conjugate_rows). One ansatz is a
stack of one. select_ansatz sweeps its candidates in chunks of at most
SWEEP_ROWS rows and reads every candidate's gradient against one state:
each candidate composes to the identity at theta = 0, so its state is the
reference itself.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import CircuitFormatError, SolveError, WireError
from .pauli import PauliString, _WORD_BITS, _n_words
from .tableau import (
    CLIFFORD_1Q_HADAMARD,
    CLIFFORD_1Q_IDENTITY,
    CliffordGate,
    StabilizerTableau,
    _check_wires,
    conjugate_rows,
    table_index,
)

ANSATZ_SCHEMA_VERSION = 1

ROTATION_AXES = ("X", "Y", "Z")


def _json_int(value, name: str) -> int:
    """value if it is a JSON integer; CircuitFormatError for a bool, float or string."""
    if type(value) is not int:
        raise CircuitFormatError(f"{name} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class RotationGate:
    """Single-qubit Pauli rotation exp(i * theta_k * P) on one wire."""

    axis: str
    wire: int
    param: int

    def __post_init__(self):
        if self.axis not in ROTATION_AXES:
            raise CircuitFormatError(f"rotation axis must be X/Y/Z, got {self.axis!r}")
        if self.param < 0:
            raise CircuitFormatError(f"negative param id {self.param}")


Element = Union[CliffordGate, RotationGate]


@dataclass
class AnsatzCircuit:
    """Ordered Clifford + rotation gate list with contiguous parameter ids."""

    n_qubits: int
    elements: List[Element]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    @property
    def n_params(self) -> int:
        return sum(1 for e in self.elements if isinstance(e, RotationGate))

    def validate(self) -> None:
        if self.n_qubits < 1:
            raise CircuitFormatError(f"n_qubits must be positive, got {self.n_qubits}")
        params = []
        for i, e in enumerate(self.elements):
            if isinstance(e, RotationGate):
                if not 0 <= e.wire < self.n_qubits:
                    raise CircuitFormatError(f"element {i}: rotation wire {e.wire} out of range")
                params.append(e.param)
            elif isinstance(e, CliffordGate):
                for w in e.wires:
                    if not 0 <= w < self.n_qubits:
                        raise CircuitFormatError(f"element {i}: wire {w} out of range")
            else:
                raise CircuitFormatError(f"element {i}: unknown element type {type(e)}")
        if sorted(params) != list(range(len(params))):
            raise CircuitFormatError(
                "param ids must be a contiguous bijection with rotation gates"
            )

    def clifford_elements(self) -> List[CliffordGate]:
        """The theta=0 circuit: rotations are identity and drop out."""
        return [e for e in self.elements if isinstance(e, CliffordGate)]

    def rotation_gates(self) -> List[RotationGate]:
        return [e for e in self.elements if isinstance(e, RotationGate)]

    def clifford_point_state(self, reference: str) -> StabilizerTableau:
        """Tableau of U(0)|reference>."""
        return StabilizerTableau(self.n_qubits, reference).apply_circuit(self.clifford_elements())

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        elements = []
        for e in self.elements:
            if isinstance(e, CliffordGate):
                d = {"type": "clifford", "kind": e.kind, "wires": list(e.wires)}
                if e.index is not None:
                    d["index"] = e.index
            else:
                d = {"type": "rotation", "axis": e.axis, "wire": e.wire, "param": e.param}
            elements.append(d)
        return {
            "version": ANSATZ_SCHEMA_VERSION,
            "n_qubits": self.n_qubits,
            "n_params": self.n_params,
            "elements": elements,
            "metadata": dict(self.metadata),
        }

    def serialize(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "AnsatzCircuit":
        """Inverse of to_dict; CircuitFormatError for any document it could
        not have written (a field of the wrong JSON type included)."""
        if not isinstance(doc, dict):
            raise CircuitFormatError("ansatz document must be a JSON object")
        version = doc.get("version")
        if type(version) is not int or version != ANSATZ_SCHEMA_VERSION:
            raise CircuitFormatError(f"unsupported ansatz schema version {version!r}")
        try:
            n_qubits, raw_elements = _json_int(doc["n_qubits"], "n_qubits"), doc["elements"]
        except KeyError as exc:
            raise CircuitFormatError(f"missing required field: {exc}") from exc
        metadata = doc.get("metadata", {})
        if not isinstance(raw_elements, list) or not isinstance(metadata, dict):
            raise CircuitFormatError("elements must be a list and metadata an object")
        elements: List[Element] = []
        for i, d in enumerate(raw_elements):
            try:
                if d["type"] == "clifford":
                    wires = tuple(_json_int(w, "wire") for w in d["wires"])
                    index = d.get("index")
                    index = None if index is None else _json_int(index, "index")
                    elements.append(CliffordGate(d["kind"], wires, index))
                elif d["type"] == "rotation":
                    wire, param = _json_int(d["wire"], "wire"), _json_int(d["param"], "param")
                    elements.append(RotationGate(d["axis"], wire, param))
                else:
                    raise CircuitFormatError(f"unknown type {d['type']!r}")
            except (KeyError, TypeError, ValueError, WireError) as exc:
                raise CircuitFormatError(f"element {i}: {exc}") from exc
        circ = cls(n_qubits, elements, dict(metadata))
        declared = doc.get("n_params")
        if declared is not None and _json_int(declared, "n_params") != circ.n_params:
            raise CircuitFormatError(
                f"declared n_params {declared} != actual {circ.n_params}"
            )
        return circ

    @classmethod
    def deserialize(cls, text: str) -> "AnsatzCircuit":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CircuitFormatError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(doc)


@dataclass(eq=False)
class ConjugatedGenerators:
    """P'_k for each parameter as packed rows, plus each rotation's position.

    Row k of x, z and phase is P'_k = i^phase[k] * (x[k], z[k]) in
    PauliString's packed layout: (K, words) uint64 words and (K,) int64
    phase exponents, 0 or 2, since every P'_k is Hermitian.
    """

    n_qubits: int
    x: np.ndarray
    z: np.ndarray
    phase: np.ndarray
    positions: List[int]            # element index of the rotation, by param id

    @property
    def n_params(self) -> int:
        return len(self.positions)

    @cached_property
    def paulis(self) -> List[PauliString]:
        """The rows as PauliStrings, indexed by param id; built on first use."""
        return [
            PauliString(self.n_qubits, x, z, k)
            for x, z, k in zip(self.x, self.z, self.phase.tolist())
        ]


# Rows of one stacked block; select_ansatz sweeps its candidates in chunks of
# at most this many rows (and at least one candidate).
SWEEP_ROWS = 1 << 14


def _skeleton_mismatch(column) -> Optional[str]:
    """Why the elements at one position of stacked ansätze cannot share a sweep.

    They must all be the same rotation (axis, wire, param), the same
    two-qubit gate, or single-qubit Clifford gates on the same wire.
    """
    e = column[0]
    if isinstance(e, CliffordGate) and len(e.wires) == 1:
        bad = [c for c in column if not (isinstance(c, CliffordGate) and c.wires == e.wires)]
    else:
        bad = [c for c in column if c != e]
    return f"{bad[0]} against {e}" if bad else None


def _clifford_sweep(ansatze: List[AnsatzCircuit]) -> List[ConjugatedGenerators]:
    """One left-to-right sweep of the Clifford gates over one stacked row block.

    The ansätze share a skeleton: one width and, at every position, the same
    rotation, the same two-qubit gate, or single-qubit Clifford gates on the
    same wire (a generated candidate set of one width, depth and variant);
    ValueError otherwise. Each ansatz owns K consecutive generator rows.
    Row k is seeded with rotation k's generator when the sweep reaches it,
    and every later Clifford gate conjugates the whole block, each ansatz's
    rows through its own single-qubit gate (one table entry per row,
    tableau.conjugate_rows), so it ends as P'_k, the image of the generator
    under the Clifford content after its rotation (rotations at zero are
    identity). Unseeded rows are the identity, which no gate changes, and
    every P'_k comes out Hermitian. Rows never mix, so each ansatz's rows
    equal what a sweep of that ansatz alone gives.

    Returns one ConjugatedGenerators per ansatz, in order.
    """
    first = ansatze[0]
    n, A, K, W = first.n_qubits, len(ansatze), first.n_params, _n_words(first.n_qubits)
    if any(a.n_qubits != n or len(a.elements) != len(first.elements) for a in ansatze):
        raise ValueError("stacked ansätze differ in width or length")
    x, z = np.zeros((2, A, K, W), dtype=np.uint64)
    r = np.zeros((A, K), dtype=np.uint8)
    # the same memory as one (A * K)-row block, which conjugate_rows updates
    rows = x.reshape(A * K, W), z.reshape(A * K, W), r.reshape(A * K)
    positions = [0] * K
    for pos, column in enumerate(zip(*(a.elements for a in ansatze))):
        why = _skeleton_mismatch(column)
        if why:
            raise ValueError(f"stacked ansätze differ at element {pos}: {why}")
        e = column[0]
        if isinstance(e, RotationGate):  # the row is still the identity: set the axis's letter
            w, bit = divmod(e.wire, _WORD_BITS)
            x[:, e.param, w] = (e.axis != "Z") << bit
            z[:, e.param, w] = (e.axis != "X") << bit
            positions[e.param] = pos
            continue
        _check_wires(e, n)
        index = [table_index(c) for c in column]
        conjugate_rows(*rows, e, index[0] if len(set(index)) == 1 else np.repeat(index, K))
    phase = 2 * r.astype(np.int64)
    return [ConjugatedGenerators(n, x[a], z[a], phase[a], list(positions)) for a in range(A)]


# ---------------------------------------------------------------------------
# Hardware-efficient brickwork generator
# ---------------------------------------------------------------------------

# Depth convention: region 1 holds `depth` entangler layers each followed by
# a rotation layer; one extra rotation layer sits at the region boundary;
# region 2 holds the mirrored inverse entangler layers, each followed by a
# fresh rotation layer. Total rotation layers: 2*depth + 1.


def _brickwork_pairs(n_qubits: int, layer: int) -> List[Tuple[int, int]]:
    start = layer % 2
    return [(q, q + 1) for q in range(start, n_qubits - 1, 2)]


def _entangler_layer(rng: np.random.Generator, pairs, dressing_indices) -> List[CliffordGate]:
    gates: List[CliffordGate] = []
    for a, b in pairs:
        i1, i2, i3, i4 = rng.choice(dressing_indices, size=4)
        gates.append(CliffordGate("C1", (a,), int(i1)))
        gates.append(CliffordGate("C1", (b,), int(i2)))
        gates.append(CliffordGate("CZ", (a, b)))
        gates.append(CliffordGate("C1", (a,), int(i3)))
        gates.append(CliffordGate("C1", (b,), int(i4)))
    return gates


def _invert_layer(gates: List[CliffordGate]) -> List[CliffordGate]:
    return [g.inverse() for g in reversed(gates)]


def generate_hwe_ansatz(
    n_qubits: int, depth: int, seed: int, variant: str = "complex"
) -> AnsatzCircuit:
    """Brickwork ansatz of two mirrored regions, identity at theta = 0.

    variant "complex": entangler dressings drawn from all 24 single-qubit
    Cliffords; each rotation layer is (Rx, Ry, Rz) per qubit. variant
    "real": dressings drawn from {identity, Hadamard}; rotation layers are
    Ry only (one third the parameters). Deterministic in `seed`: a single
    PCG64 stream seeded with `seed` is consumed in layer order, blocks left
    to right, four dressing draws per block.
    """
    if n_qubits < 2:
        raise CircuitFormatError(f"need at least 2 qubits, got {n_qubits}")
    if depth < 1:
        raise CircuitFormatError(f"depth must be >= 1, got {depth}")
    if variant not in ("complex", "real"):
        raise CircuitFormatError(f"variant must be 'complex' or 'real', got {variant!r}")
    _check_seed(seed)

    rng = np.random.default_rng(seed)
    if variant == "complex":
        dressing = np.arange(24)
        axes = ("X", "Y", "Z")
    else:
        dressing = np.array([CLIFFORD_1Q_IDENTITY, CLIFFORD_1Q_HADAMARD])
        axes = ("Y",)

    next_param = 0

    def rotation_layer() -> List[RotationGate]:
        nonlocal next_param
        layer = []
        for q in range(n_qubits):
            for ax in axes:
                layer.append(RotationGate(ax, q, next_param))
                next_param += 1
        return layer

    elements: List[Element] = []
    entangler_layers: List[List[CliffordGate]] = []
    for layer in range(depth):
        ent = _entangler_layer(rng, _brickwork_pairs(n_qubits, layer), dressing)
        entangler_layers.append(ent)
        elements.extend(ent)
        elements.extend(rotation_layer())
    elements.extend(rotation_layer())  # boundary layer
    for ent in reversed(entangler_layers):
        elements.extend(_invert_layer(ent))
        elements.extend(rotation_layer())

    return AnsatzCircuit(
        n_qubits,
        elements,
        metadata={"seed": int(seed), "variant": variant, "depth": int(depth)},
    )


def _check_seed(seed: int) -> None:
    if seed < 0:  # numpy seeds only from non-negative integers
        raise CircuitFormatError(f"seed must be >= 0, got {seed}")


def candidate_seed(master_seed: int, candidate: int) -> int:
    """Per-candidate seed derived from the master seed (documented rule)."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(candidate,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def select_ansatz(
    count: int,
    n_qubits: int,
    depth: int,
    observable,
    reference: str,
    seed: int,
    variant: str = "complex",
    timings: Optional[dict] = None,
):
    """Generate `count` seeded candidates and keep the largest sum |g_l|.

    Ties break toward the lowest candidate index. Returns
    (best AnsatzCircuit, list of per-candidate gradient-norm sums). The
    count, seed, observable width and reference are checked before any
    candidate is generated. The candidates share a skeleton, so consecutive
    chunks of at most SWEEP_ROWS generator rows (at least one candidate
    each) are swept as one stacked block, and only one chunk is held at a
    time. Every gradient is read against one tableau of |reference>, the
    state of every generated candidate at theta = 0. A `timings` dict
    receives the seconds spent generating (generate_s), sweeping (sweep_s)
    and in the gradients (gradient_s). A gradient entry or a sum |g_l| past
    the float range is a SolveError.
    """
    from .expansion import compute_gradient

    if count < 1:
        raise CircuitFormatError(f"candidate count must be >= 1, got {count}")
    _check_seed(seed)
    observable.check_width(n_qubits)
    spent = {"generate_s": 0.0, "sweep_s": 0.0, "gradient_s": 0.0}

    def candidate(i: int) -> AnsatzCircuit:
        cand = generate_hwe_ansatz(n_qubits, depth, candidate_seed(seed, i), variant)
        cand.metadata["candidate_index"] = i
        cand.metadata["master_seed"] = int(seed)
        return cand

    # every candidate composes to the identity at theta = 0
    state0 = StabilizerTableau(n_qubits, reference)
    best = None
    best_sum = -1.0
    sums = []
    while len(sums) < count:
        t0 = time.perf_counter()
        cands = [candidate(len(sums))]
        # every candidate has the first one's K rows
        chunk = max(1, SWEEP_ROWS // cands[0].n_params)
        while len(cands) < chunk and len(sums) + len(cands) < count:
            cands.append(candidate(len(sums) + len(cands)))
        t1 = time.perf_counter()
        swept = _clifford_sweep(cands)
        t2 = time.perf_counter()
        for cand, gens in zip(cands, swept):
            with np.errstate(over="ignore"):
                s = float(np.abs(compute_gradient(observable, state0, gens)).sum())
            if not np.isfinite(s):
                raise SolveError(f"sum |g| of candidate {len(sums)} overflows the float range")
            sums.append(s)
            if s > best_sum:
                best, best_sum = cand, s
        t3 = time.perf_counter()
        spent["generate_s"] += t1 - t0
        spent["sweep_s"] += t2 - t1
        spent["gradient_s"] += t3 - t2
    if timings is not None:
        timings.update(spent)
    return best, sums
