"""Exact computations in partial flag incidence algebras of finite posets."""

__version__ = "0.1.0"

from .algebra import (
    AlgebraContext,
    StructureConstants,
    basis_product,
    convolve,
    power_assoc_witness,
    structure_constants,
)
from .derivations import check_derivation, derivation_basis, leibniz_system
from .lattice import (
    QuotientAlgebra,
    commutator_submodule,
    ideal_J,
    mul_submodule,
    primitive_idempotents,
    quotient,
    z_chain,
)
from .linalg import LinearMap, Submodule, kernel, span
from .posets import (
    Poset,
    antichain,
    automorphisms,
    chain,
    enumerate_posets,
    find_isomorphism,
    parse_poset,
)
from .reconstruction import (
    AbstractAlgebra,
    decide_isomorphism,
    enumerate_isomorphisms_exhaustive,
    induced_isomorphism,
    is_algebra_isomorphism,
    reconstruct_poset,
    scramble,
)
from .rings import CapabilityError, Integers, ModularRing, PrimeField, Rationals, ring_from_spec

__all__ = [
    "AlgebraContext",
    "AbstractAlgebra",
    "CapabilityError",
    "Integers",
    "LinearMap",
    "ModularRing",
    "Poset",
    "PrimeField",
    "QuotientAlgebra",
    "Rationals",
    "StructureConstants",
    "Submodule",
    "antichain",
    "automorphisms",
    "basis_product",
    "chain",
    "check_derivation",
    "commutator_submodule",
    "convolve",
    "decide_isomorphism",
    "derivation_basis",
    "enumerate_isomorphisms_exhaustive",
    "enumerate_posets",
    "find_isomorphism",
    "ideal_J",
    "induced_isomorphism",
    "is_algebra_isomorphism",
    "kernel",
    "leibniz_system",
    "mul_submodule",
    "parse_poset",
    "power_assoc_witness",
    "primitive_idempotents",
    "quotient",
    "reconstruct_poset",
    "ring_from_spec",
    "scramble",
    "span",
    "structure_constants",
    "z_chain",
]
