"""Ansatz circuit representation, generation, selection, and serialization.

An ansatz is an ordered list of Clifford gates and parameterized
single-qubit Pauli rotations R(theta) = exp(i * theta * P). The generator
produces brickwork circuits from two mirrored regions so that the circuit
composes to the identity at theta = 0; a computational-basis reference
state (e.g. a Hartree-Fock occupation bitstring) is injected at the input.
The theta = 0 stabilizer state is the reference's tableau taken through
the Clifford gates (clifford_point_state); one sweep over the same gates
gives the conjugated rotation generators P'_k as packed rows
(conjugate_generators, ConjugatedGenerators). Both carry every row as
(x, z, phase), packed words plus an exponent of i, as every other row in
the package does. A rotation names its generator as text (RotationGate.pauli,
such as "Y3"), and pauli.read_pauli reads every seed of the sweep from it.

A generated ansatz is a skeleton plus a dressing. The skeleton (_skeleton)
is fixed by the width, depth and variant: the gate positions, the CZ gates
and the rotations, with every single-qubit Clifford the identity C1 entry.
The dressing (_dressing_of) is drawn from the seed: the C1 entry of each
single-qubit Clifford, in element order. conjugate_generators sweeps one
ansatz, or many dressings of one ansatz as one stacked block of rows, each
dressing's rows taking its own entry of the single-qubit table at every
single-qubit gate (tableau.conjugate_rows). select_ansatz sweeps its
candidates' dressings over the skeleton in chunks of at most SWEEP_ROWS
rows, reads every candidate's gradient against one state (each candidate
composes to the identity at theta = 0, so its state is the reference
itself), and builds only the winner as a circuit.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import CircuitFormatError, SolveError, WireError
from .pauli import PauliString, _n_words, pack_masks, read_pauli
from .tableau import (
    CLIFFORD_1Q_HADAMARD,
    CLIFFORD_1Q_IDENTITY,
    CLIFFORD_1Q_INVERSE,
    CliffordGate,
    StabilizerTableau,
    _check_wires,
    conjugate_rows,
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

    @property
    def pauli(self) -> str:
        """The generator P as text, in pauli.read_pauli's syntax: 'X0', 'Z3'."""
        return f"{self.axis}{self.wire}"


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
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
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


def conjugate_generators(ansatz: AnsatzCircuit, dressings=None):
    """P'_k for every rotation, from one left-to-right sweep of the Clifford gates.

    The K generator rows form one packed block of (x, z, phase) rows. Row
    k is seeded with rotation k's generator when the sweep reaches it: the
    generator is read by pauli.read_pauli from its text (RotationGate.pauli),
    all K seeds packed by one pack_masks call. Every later Clifford gate
    conjugates the block (tableau.conjugate_rows), so row k ends as P'_k,
    the image of the generator under the Clifford content after its
    rotation (rotations at zero are identity). Unseeded rows are the
    identity, which no gate changes, and every P'_k comes out Hermitian.

    `dressings`, an (A, G) array of C1 table entries with one column per
    single-qubit Clifford gate of the ansatz in element order, sweeps A
    dressings of the ansatz at once: in dressing a, the g-th single-qubit
    gate is C1 entry dressings[a, g]. The A * K rows form one block, and at
    a single-qubit gate each dressing's K rows take its own table entry.
    Rows never mix, so the list of A ConjugatedGenerators it returns equals
    one sweep per dressed ansatz. ValueError for a matrix of another width
    or with an entry outside 0..23.
    """
    n, K, W = ansatz.n_qubits, ansatz.n_params, _n_words(ansatz.n_qubits)
    if dressings is not None:
        dressings = np.asarray(dressings)
        G = sum(isinstance(e, CliffordGate) and len(e.wires) == 1 for e in ansatz.elements)
        if dressings.ndim != 2 or dressings.shape[1] != G or not np.isin(dressings, range(24)).all():
            raise ValueError(f"dressings must be an (A, {G}) array of C1 entries 0..23")
    A = 1 if dressings is None else len(dressings)
    x, z = np.zeros((2, A, K, W), dtype=np.uint64)
    phase = np.zeros((A, K), dtype=np.int64)
    # the same memory as one (A * K)-row block, which conjugate_rows updates
    rows = x.reshape(A * K, W), z.reshape(A * K, W), phase.reshape(A * K)
    seeds = zip(*pack_masks([read_pauli(e.pauli, n) for e in ansatz.rotation_gates()], n))
    positions, column = [0] * K, 0
    for pos, e in enumerate(ansatz.elements):
        if isinstance(e, RotationGate):  # the row is still the identity: seed the generator
            x[:, e.param], z[:, e.param] = next(seeds)
            positions[e.param] = pos
            continue
        _check_wires(e, n)
        index = None
        if dressings is not None and len(e.wires) == 1:
            index, column = np.repeat(dressings[:, column], K), column + 1
        conjugate_rows(*rows, e, index)
    swept = [ConjugatedGenerators(n, x[a], z[a], phase[a], list(positions)) for a in range(A)]
    return swept[0] if dressings is None else swept


# ---------------------------------------------------------------------------
# Hardware-efficient brickwork generator
# ---------------------------------------------------------------------------


def _brickwork_pairs(n_qubits: int, layer: int) -> List[Tuple[int, int]]:
    start = layer % 2
    return [(q, q + 1) for q in range(start, n_qubits - 1, 2)]


def _skeleton(n_qubits: int, depth: int, variant: str) -> List[Element]:
    """generate_hwe_ansatz's elements with every single-qubit C1 entry 0.

    Region 1 holds `depth` entangler layers, each followed by a rotation
    layer; one extra rotation layer sits at the region boundary; region 2
    holds the entangler layers in reverse, gate by gate, each followed by a
    fresh rotation layer (2 * depth + 1 rotation layers in all). An
    entangler block is C1 C1 CZ C1 C1 on a brickwork pair. Every skeleton
    gate is its own inverse, so region 2 mirrors region 1; the dressing
    (_dressing_of) keeps that true. Rotation layers are (Rx, Ry, Rz) per
    qubit for "complex" and Ry per qubit for "real".
    """
    if n_qubits < 2:
        raise CircuitFormatError(f"need at least 2 qubits, got {n_qubits}")
    if depth < 1:
        raise CircuitFormatError(f"depth must be >= 1, got {depth}")
    if variant not in ("complex", "real"):
        raise CircuitFormatError(f"variant must be 'complex' or 'real', got {variant!r}")
    axes, params = ROTATION_AXES if variant == "complex" else ("Y",), itertools.count()

    def rotation_layer() -> List[RotationGate]:
        return [RotationGate(ax, q, next(params)) for q in range(n_qubits) for ax in axes]

    layers = []
    for layer in range(depth):
        layers.append([])
        for a, b in _brickwork_pairs(n_qubits, layer):
            c1a, c1b = CliffordGate("C1", (a,), 0), CliffordGate("C1", (b,), 0)
            layers[-1] += [c1a, c1b, CliffordGate("CZ", (a, b)), c1a, c1b]
    elements: List[Element] = []
    for ent in layers:
        elements += ent + rotation_layer()
    elements += rotation_layer()  # boundary layer
    for ent in reversed(layers):
        elements += ent[::-1] + rotation_layer()
    return elements


def _dressing_of(n_qubits: int, depth: int, seed: int, variant: str) -> np.ndarray:
    """The C1 entries of generate_hwe_ansatz's single-qubit gates, in element order.

    A single PCG64 stream seeded with `seed` draws four entries per
    entangler block, in layer order and blocks left to right: from all 24
    single-qubit Cliffords ("complex") or from {identity, Hadamard}
    ("real"). The mirrored region's entries follow, the inverses
    (CLIFFORD_1Q_INVERSE) of those in reverse order.
    """
    rng = np.random.default_rng(seed)
    choices = 24 if variant == "complex" else [CLIFFORD_1Q_IDENTITY, CLIFFORD_1Q_HADAMARD]
    blocks = sum(len(_brickwork_pairs(n_qubits, layer)) for layer in range(depth))
    drawn = np.concatenate([rng.choice(choices, size=4) for _ in range(blocks)])
    return np.concatenate([drawn, np.take(CLIFFORD_1Q_INVERSE, drawn[::-1])])


def generate_hwe_ansatz(
    n_qubits: int, depth: int, seed: int, variant: str = "complex"
) -> AnsatzCircuit:
    """Brickwork ansatz of two mirrored regions, identity at theta = 0.

    The skeleton (_skeleton) dressed with _dressing_of(n_qubits, depth,
    seed, variant): its g-th single-qubit gate takes the g-th entry.
    variant "complex": entangler dressings drawn from all 24 single-qubit
    Cliffords; each rotation layer is (Rx, Ry, Rz) per qubit. variant
    "real": dressings drawn from {identity, Hadamard}; rotation layers are
    Ry only (one third the parameters). Deterministic in `seed`.
    """
    skeleton = _skeleton(n_qubits, depth, variant)
    _check_seed(seed)
    dressing = iter(_dressing_of(n_qubits, depth, seed, variant).tolist())
    elements = [
        CliffordGate("C1", e.wires, next(dressing)) if isinstance(e, CliffordGate) and e.kind == "C1"
        else e
        for e in skeleton
    ]
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
    """Screen `count` seeded candidates and keep the largest sum |g_l|.

    Ties break toward the lowest candidate index. Returns
    (best AnsatzCircuit, list of per-candidate gradient-norm sums). The
    count, seed, observable width and reference are checked before any
    candidate is drawn. Candidate i is generate_hwe_ansatz with seed
    candidate_seed(seed, i): one skeleton, dressed by its own draw. Each
    chunk of candidates (at most SWEEP_ROWS generator rows, at least one
    candidate) is one row of dressings per candidate, swept over the
    skeleton as one block (conjugate_generators), and only one chunk is
    held at a time. Every gradient is read from the candidate's K rows
    against one tableau of |reference>, the state of every generated
    candidate at theta = 0. Only the winner is built as a circuit. A
    `timings` dict receives the seconds spent generating (generate_s:
    the skeleton, the dressings and the winner), sweeping (sweep_s) and in
    the gradients (gradient_s). A gradient entry or a sum |g_l| past the
    float range is a SolveError.
    """
    from .expansion import compute_gradient

    if count < 1:
        raise CircuitFormatError(f"candidate count must be >= 1, got {count}")
    _check_seed(seed)
    observable.check_width(n_qubits)
    # every candidate composes to the identity at theta = 0
    state0 = StabilizerTableau(n_qubits, reference)
    t0 = time.perf_counter()
    skeleton = AnsatzCircuit(n_qubits, _skeleton(n_qubits, depth, variant))
    spent = {"generate_s": time.perf_counter() - t0, "sweep_s": 0.0, "gradient_s": 0.0}
    chunk = max(1, SWEEP_ROWS // skeleton.n_params)
    sums = []
    for lo in range(0, count, chunk):
        t0 = time.perf_counter()
        seeds = [candidate_seed(seed, i) for i in range(lo, min(lo + chunk, count))]
        dressings = [_dressing_of(n_qubits, depth, s, variant) for s in seeds]
        t1 = time.perf_counter()
        swept = conjugate_generators(skeleton, dressings)
        t2 = time.perf_counter()
        for gens in swept:
            with np.errstate(over="ignore"):
                s = float(np.abs(compute_gradient(observable, state0, gens)).sum())
            if not np.isfinite(s):
                raise SolveError(f"sum |g| of candidate {len(sums)} overflows the float range")
            sums.append(s)
        t3 = time.perf_counter()
        spent["generate_s"] += t1 - t0
        spent["sweep_s"] += t2 - t1
        spent["gradient_s"] += t3 - t2
    t0 = time.perf_counter()
    winner = sums.index(max(sums))  # the first of equal sums
    best = generate_hwe_ansatz(n_qubits, depth, candidate_seed(seed, winner), variant)
    best.metadata.update(candidate_index=winner, master_seed=int(seed))
    spent["generate_s"] += time.perf_counter() - t0
    if timings is not None:
        timings.update(spent)
    return best, sums
