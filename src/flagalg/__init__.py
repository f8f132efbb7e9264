"""Exact computations in partial flag incidence algebras of finite posets.

The public names load lazily (PEP 562): `flagalg.X` imports X's module on
first use, so a job compiles only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": (
        "AlgebraContext",
        "StructureConstants",
        "convolve",
        "power_assoc_witness",
        "structure_constants",
    ),
    "derivations": ("check_derivation", "derivation_basis", "leibniz_system"),
    "lattice": (
        "QuotientAlgebra",
        "ideal_J",
        "mul_submodule",
        "primitive_idempotents",
        "quotient",
        "z_chain",
    ),
    "linalg": ("LinearMap", "Submodule", "kernel", "span"),
    "posets": (
        "Poset",
        "antichain",
        "automorphisms",
        "chain",
        "enumerate_posets",
        "find_isomorphism",
        "parse_poset",
    ),
    "reconstruction": (
        "AbstractAlgebra",
        "induced_isomorphism",
        "is_algebra_isomorphism",
        "reconstruct_poset",
        "scramble",
    ),
    "rings": ("CapabilityError", "Integers", "ModularRing", "PrimeField", "Rationals", "ring_from_spec"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
