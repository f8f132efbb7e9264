"""Q scalars stay exact: ints while integral, Fractions otherwise, and
never floats."""

import ast
import pathlib
from fractions import Fraction

import pytest

from flagalg.algebra import AlgebraContext
from flagalg.lattice import commutator_chain, primitive_idempotents, quotient
from flagalg.linalg import span
from flagalg.posets import Poset
from flagalg.reconstruction import reconstruct_poset, scramble
from flagalg.rings import Rationals

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "flagalg"
Q = Rationals()
DIAMOND = Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_no_true_division_outside_rings():
    # `/` on two ints gives a float; only Rationals.inv divides, on a Fraction
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        if path.name == "rings.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                assert not isinstance(node.op, ast.Div), f"{path.name}:{node.lineno} divides with /"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scrambled_table_and_idempotents_are_int_or_fraction(seed):
    algebra = scramble(AlgebraContext(DIAMOND, 3, Q), seed)
    scalars = [c for entry in algebra.sc.table.values() for _k, c in entry]
    _, elements, cover_lifts = reconstruct_poset(algebra)
    scalars += [c for vec in elements + cover_lifts for c in vec.values()]
    # the quotient coordinates the idempotents are split in
    c1 = commutator_chain(algebra.sc)[0]
    d = algebra.sc.dim
    eye = [{i: Q.one()} for i in range(d)]
    idems = primitive_idempotents(quotient(algebra.sc, span(eye, Q, d), c1).sc)
    scalars += [c for vec in idems for c in vec.values()]
    assert scalars
    assert {type(c) for c in scalars} <= {int, Fraction}


def test_a_float_reaching_q_raises():
    with pytest.raises(TypeError):
        Q.add(Q.one(), 0.5)
    with pytest.raises(TypeError):
        Q.mul(Q.coerce(2), 0.5)
    with pytest.raises(TypeError):
        Q.coerce(0.5)
    with pytest.raises(TypeError):
        Q.inv(0.5)
    assert type(Q.add(Q.inv(Q.coerce(2)), Q.inv(Q.coerce(2)))) is int
