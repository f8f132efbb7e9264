"""Ideal filtration J^n_k, the commutator chain on the third flag algebra,
quotient algebras and primitive idempotent decomposition.
"""

from __future__ import annotations

from . import poly
from .algebra import AlgebraContext, StructureConstants, structure_constants
from .linalg import LinearMap, SparseEchelon, Submodule, span, sub_scaled
from .rings import CapabilityError


class IdealError(Exception):
    pass


class SplittingError(Exception):
    """Primitive idempotent search failed; see message for a diagnostic."""


def ideal_J(ctx: AlgebraContext, k: int) -> Submodule:
    """Span of basis elements whose endpoint interval has length >= k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    p = ctx.poset
    one = ctx.ring.one()
    vecs = [{i: one} for i, t in enumerate(ctx.basis) if p.length(t[0], t[-1]) >= k]
    return span(vecs, ctx.ring, ctx.dim)


def mul_submodule(sc: StructureConstants, u: Submodule, v: Submodule) -> Submodule:
    """Span of pairwise products of basis vectors (equals UV by bilinearity)."""
    prods = [sc.multiply(a, b) for a in u.basis for b in v.basis]
    return span(prods, sc.ring, sc.dim)


def commutator_chain(sc: StructureConstants):
    """(C1, C2, C3) with C1 = [A, A] and C(k+1) = [Ck, Ck], as Submodules.

    Brackets are antisymmetric, so the pairs i < j of each basis suffice.
    """
    ring, d = sc.ring, sc.dim
    basis = [{i: ring.one()} for i in range(d)]
    chain = []
    for _ in range(3):
        brackets = [sc.commutator_vec(u, v) for i, u in enumerate(basis) for v in basis[i + 1 :]]
        chain.append(span(brackets, ring, d))
        basis = chain[-1].basis
    return tuple(chain)


def z_chain(ctx: AlgebraContext):
    """(C1, C2, C3): commutator submodule and its two iterates, n = 3 only."""
    if ctx.n != 3:
        raise ValueError("the commutator chain is only supported for n = 3")
    return commutator_chain(structure_constants(ctx))


class QuotientAlgebra:
    """U/V for an ideal V of a subalgebra U of `algebra`, on a transversal.

    Transversal representatives are the residues of U's canonical basis,
    each reduced modulo V and the earlier residues and normalized to leading
    coefficient 1.  Quotient coordinates are coefficients on these
    representatives, so lifting is a plain linear combination.

    One echelon, V's rows untagged and then the representatives tagged by
    index, decides all three conditions: V lies in U iff it has U's rank, U
    is closed iff products of representatives have no residue, and V is an
    ideal iff products of U's and V's bases have no residue and no coords.
    """

    def __init__(self, algebra: StructureConstants, numerator: Submodule, denominator: Submodule):
        ring = algebra.ring
        if not ring.is_field:
            raise CapabilityError("quotient algebras are implemented over fields")
        self.ring = ring
        # stored rows are tagged by the transversal representative they
        # carry, so reducing a vector of U yields its quotient coordinates
        self._echelon = SparseEchelon(ring)
        for row in denominator.basis:
            self._echelon.add_row(row)
        transversal = []
        for row in numerator.basis:
            residue, _ = self._echelon.reduce(row)
            if residue:
                inv = ring.inv(residue[min(residue)])
                rep = {c: ring.mul(inv, x) for c, x in residue.items()}
                self._echelon.add_row(rep, {len(transversal): ring.one()})
                transversal.append(rep)
        if self._echelon.rank != numerator.rank:
            raise IdealError("denominator is not contained in the numerator")
        self.transversal = tuple(transversal)
        self.dim = len(transversal)
        self.sc = algebra.rebase(self._echelon, self.transversal)
        if self.sc is None:
            raise IdealError("numerator is not closed under the product")
        for a in numerator.basis:
            for b in denominator.basis:
                if any(self._echelon.reduce(algebra.multiply(a, b))):
                    raise IdealError("denominator is not a left ideal of the numerator")
                if any(self._echelon.reduce(algebra.multiply(b, a))):
                    raise IdealError("denominator is not a right ideal of the numerator")

    def reduce(self, vector):
        """Quotient coordinates of an ambient vector in U (else IdealError)."""
        residue, coords = self._echelon.reduce(vector)
        if residue:
            raise IdealError("vector is not in the numerator submodule")
        return coords

    def lift(self, coords):
        """Ambient representative of a quotient coordinate vector."""
        return LinearMap(self.ring, self.transversal).apply(coords)


def quotient(sc: StructureConstants, u: Submodule, v: Submodule) -> QuotientAlgebra:
    return QuotientAlgebra(sc, u, v)


def primitive_idempotents(sc: StructureConstants):
    """Complete orthogonal primitive idempotent decomposition over a field.

    Takes the table of a commutative unital algebra (a quotient's `.sc` for
    a QuotientAlgebra).  Returns coordinate vectors on the table's basis, in
    the order of their dense coordinate tuples.  Splits each idempotent u by
    the eigenvalues of u*b_k, k = 0, ..., d-1: a Lagrange idempotent of a
    squarefree split minimal polynomial is an eigenprojection, so u*b_k
    stays in F*u as u splits further.  After the d basis probes uA = F*u for
    every u, and A = sum uA gives d idempotents that no other probe splits;
    any other algebra raises SplittingError naming a probe's polynomial.
    """
    ring = sc.ring
    if not ring.is_field:
        raise CapabilityError("primitive idempotent decomposition requires a field")
    if not sc.is_commutative():
        raise SplittingError("algebra is not commutative")
    if sc.dim == 0:
        return []
    # a left identity of a commutative algebra is its identity
    identity = sc.identity("left")
    if identity is None:
        raise SplittingError("algebra has no identity; not a product of copies of R")
    d = sc.dim
    idems = [identity]
    for k in range(d):
        if len(idems) == d:
            break
        idems = [u for e in idems for u in _split(sc, e, {k: ring.one()})]
    zero = ring.zero()
    return sorted(idems, key=lambda e: [e.get(i, zero) for i in range(d)])


def _split(sc, unit, t):
    """The Lagrange idempotents of the eigenvalues of unit*t, which sum to
    the idempotent `unit`; [unit] when unit*t is a multiple of it.

    The powers unit*t^0, unit*t^1, ... go into one echelon, row i tagged i,
    until the first dependence, whose tags give the minimal polynomial f of
    t in the component.  For a root lam, q = f / (x - lam) is a combination
    of the kept powers, and q(t) / q(lam) is the Lagrange idempotent of lam;
    q(lam) = f'(lam) is nonzero because the roots are distinct.
    """
    ring = sc.ring
    zero, one = ring.zero(), ring.one()
    ech = SparseEchelon(ring)
    powers = [unit]
    while True:
        residue, coords = ech.reduce(powers[-1])
        if not residue:
            break
        ech.add_row(residue, {i: ring.neg(c) for i, c in coords.items()} | {len(powers) - 1: one})
        powers.append(sc.multiply(powers[-1], t))
    # each accepted power raises the rank, so there are k <= dim of them,
    # and unit*t^k = sum coords[i] unit*t^i
    k = len(powers) - 1
    f = [ring.neg(coords.get(i, zero)) for i in range(k)] + [one]
    if k == 1:
        return [unit]
    roots = poly.roots(f, ring)
    if len(roots) != k:
        terms = [f"x^{k}"] + [f"({ring.format(c)})*x^{i}" for i, c in reversed(list(enumerate(f[:k]))) if c]
        raise SplittingError(
            f"a probe element has minimal polynomial {' + '.join(terms)} with {len(roots)} distinct "
            f"root(s) in {ring.name}, not {k}; the algebra is not a product of copies of {ring.name}"
        )
    idems = []
    total = {}
    for lam in roots:
        q = poly.quo(f, [ring.neg(lam), one], ring)
        qinv = ring.inv(ring.coerce(poly.value(q, lam)))
        u = LinearMap(ring, powers).apply({i: ring.mul(qinv, c) for i, c in enumerate(q)})
        if sc.multiply(u, u) != u:
            raise SplittingError("a Lagrange element does not square to itself")
        idems.append(u)
        sub_scaled(total, ring.neg(one), u, ring)
    if total != unit:
        raise SplittingError("the Lagrange idempotents do not sum to the component identity")
    return idems
