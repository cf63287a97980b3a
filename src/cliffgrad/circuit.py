"""Ansatz circuit representation, generation, selection, and serialization.

An ansatz is an ordered list of Clifford gates and parameterized
single-qubit Pauli rotations R(theta) = exp(i * theta * P). The generator
produces brickwork circuits from two mirrored regions so that the circuit
composes to the identity at theta = 0; a computational-basis reference
state (e.g. a Hartree-Fock occupation bitstring) is injected at the input.
One sweep over the Clifford gates gives both the theta = 0 stabilizer
state and the conjugated rotation generators P'_k.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import CircuitFormatError, WireError
from .pauli import PauliString, _n_words
from .tableau import (
    CLIFFORD_1Q_HADAMARD,
    CLIFFORD_1Q_IDENTITY,
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
        return _clifford_sweep(self, reference, generators=False)[0]

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


@dataclass
class ConjugatedGenerators:
    """P'_k for each parameter, plus each rotation's position in the circuit."""

    paulis: List[PauliString]       # indexed by param id
    positions: List[int]            # element index of the rotation, by param id

    @property
    def n_params(self) -> int:
        return len(self.paulis)


def _clifford_sweep(
    ansatz: AnsatzCircuit, reference: Optional[str], generators: bool = True
) -> Tuple[Optional[StabilizerTableau], Optional[ConjugatedGenerators]]:
    """One left-to-right sweep of the Clifford gates over one packed row block.

    The block holds the 2n tableau rows of `reference` (none when it is
    None) and, with `generators`, K generator rows. Generator row k is
    seeded with rotation k's generator when the sweep reaches it, and every
    later Clifford gate conjugates the whole block, so it ends as P'_k, the
    image of the generator under the Clifford content after its rotation
    (rotations at zero are identity). Unseeded rows are the identity, which
    no gate changes, and every P'_k comes out Hermitian. Rows never mix, so
    each part equals what a sweep of that part alone gives.

    Returns (tableau of U(0)|reference> or None, ConjugatedGenerators or None).
    """
    n = ansatz.n_qubits
    state = None
    m = 0
    if reference is not None:
        state = StabilizerTableau(n, reference)
        m = 2 * n
    K = ansatz.n_params if generators else 0
    x = np.zeros((m + K, _n_words(n)), dtype=np.uint64)
    z = np.zeros_like(x)
    r = np.zeros(m + K, dtype=np.uint8)
    if state is not None:
        x[:m], z[:m], r[:m] = state.x, state.z, state.r
    positions = [0] * K
    for pos, e in enumerate(ansatz.elements):
        if isinstance(e, CliffordGate):
            _check_wires(e, n)
            conjugate_rows(x, z, r, e)
        elif generators:
            seed = PauliString.single(n, e.axis, e.wire)
            x[m + e.param], z[m + e.param] = seed.x, seed.z
            positions[e.param] = pos
    if state is not None:
        state.x, state.z, state.r = x[:m].copy(), z[:m].copy(), r[:m].copy()
    if not generators:
        return state, None
    paulis = [PauliString(n, x[m + k], z[m + k], 2 * int(r[m + k])) for k in range(K)]
    return state, ConjugatedGenerators(paulis, positions)


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
):
    """Generate `count` seeded candidates and keep the largest sum |g_l|.

    Ties break toward the lowest candidate index. Returns
    (best AnsatzCircuit, list of per-candidate gradient-norm sums). The
    count, seed and observable width are checked before any candidate is
    generated.
    """
    from .expansion import compute_gradient

    if count < 1:
        raise CircuitFormatError(f"candidate count must be >= 1, got {count}")
    _check_seed(seed)
    observable.check_width(n_qubits)
    best = None
    best_sum = -1.0
    sums = []
    for i in range(count):
        cand = generate_hwe_ansatz(n_qubits, depth, candidate_seed(seed, i), variant)
        cand.metadata["candidate_index"] = i
        cand.metadata["master_seed"] = int(seed)
        state0, gens = _clifford_sweep(cand, reference)
        g = compute_gradient(observable, state0, gens)
        s = float(np.abs(g).sum())
        sums.append(s)
        if s > best_sum:
            best, best_sum = cand, s
    return best, sums
