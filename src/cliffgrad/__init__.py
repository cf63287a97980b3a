"""Exact gradient/Hessian of parameterized Clifford+rotation circuits at
theta = 0, quadratic-model minimization, and warm-started verification."""

from .circuit import (
    AnsatzCircuit,
    ConjugatedGenerators,
    RotationGate,
    conjugate_generators,
    generate_hwe_ansatz,
    select_ansatz,
)
from .dense import (
    energy,
    exact_ground_energy,
    finite_diff_gradient,
    finite_diff_hessian,
    optimize_bfgs,
    simulate,
)
from .expansion import (
    ExpansionResult,
    apply_dropout,
    compute_gradient,
    compute_hessian,
    expand,
    solve_quadratic,
)
from .observable import Observable, parse_observable
from .pauli import PauliString, commutes, parse_pauli, pauli_mul
from .tableau import CliffordGate, StabilizerTableau, conjugate_pauli

__version__ = "0.1.0"

__all__ = [
    "AnsatzCircuit",
    "CliffordGate",
    "ConjugatedGenerators",
    "ExpansionResult",
    "Observable",
    "PauliString",
    "RotationGate",
    "StabilizerTableau",
    "apply_dropout",
    "commutes",
    "compute_gradient",
    "compute_hessian",
    "conjugate_generators",
    "conjugate_pauli",
    "energy",
    "exact_ground_energy",
    "expand",
    "finite_diff_gradient",
    "finite_diff_hessian",
    "generate_hwe_ansatz",
    "optimize_bfgs",
    "parse_observable",
    "parse_pauli",
    "pauli_mul",
    "select_ansatz",
    "simulate",
    "solve_quadratic",
]
