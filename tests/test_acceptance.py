"""Acceptance battery.

One test per criterion; each prints a single PASS line on success (pytest
aborts the print on failure, so the line doubles as the report).  All
comparisons are exact — no tolerances anywhere.
"""

import itertools
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from isomorphism_oracle import enumerate_isomorphisms_exhaustive

from flagalg.algebra import (
    AlgebraContext,
    convolve,
    power_assoc_witness,
    structure_constants,
)
from flagalg.derivations import check_derivation, derivation_basis
from flagalg.lattice import (
    commutator_chain,
    ideal_J,
    primitive_idempotents,
    quotient,
    z_chain,
)
from flagalg.linalg import LinearMap, span
from flagalg.posets import antichain, chain, enumerate_posets, find_isomorphism
from flagalg.reconstruction import (
    AbstractAlgebra,
    induced_isomorphism,
    reconstruct_poset,
    scramble,
)
from flagalg.rings import Integers, PrimeField, Rationals

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)
Z = Integers()


def all_posets_up_to(m):
    for size in range(1, m + 1):
        yield from enumerate_posets(size)


def report(line):
    print(line)


def test_criterion_1_product_matches_convolution_oracle():
    """Closed-form basis products equal the pointwise convolution on every
    basis pair, all posets up to size 4, n in {2, 3}."""
    for p in all_posets_up_to(4):
        for n in (2, 3):
            ctx = AlgebraContext(p, n, Q)
            table = structure_constants(ctx).table
            at = lambda f, s: f.get(ctx.index[s], Q.zero())
            for i, x in enumerate(ctx.basis):
                fx = ctx.basis_element(x)
                for j, y in enumerate(ctx.basis):
                    prod = dict(table.get((i, j), ()))
                    fy = ctx.basis_element(y)
                    for t in ctx.basis:
                        ranges = [
                            p.interval(t[i], t[i + 1]) for i in range(n - 1)
                        ]
                        acc = Q.zero()
                        for mid in itertools.product(*ranges):
                            acc += at(fx, (t[0],) + tuple(mid)) * at(
                                fy, tuple(mid) + (t[-1],)
                            )
                        assert prod.get(ctx.index[t], 0) == acc, (p, n, x, y, t)
    report("ACCEPTANCE 1 product-convolution-oracle: PASS")


def test_criterion_2_non_power_associativity():
    """Witness breaks third-power associativity on every non-antichain up to
    size 5, with the documented exact coefficients on the 2-chain;
    antichains are fully associative."""
    # exact coefficient vectors on the 2-chain
    ctx = AlgebraContext(chain(2), 3, Q)
    f = power_assoc_witness(ctx)
    ff = convolve(ctx, f, f)
    i = ctx.index
    three = Fraction(3)
    assert convolve(ctx, f, ff) == {i[(0, 0, 0)]: 1, i[(0, 0, 1)]: three, i[(0, 1, 1)]: 1}
    assert convolve(ctx, ff, f) == {
        i[(0, 0, 0)]: 1,
        i[(0, 0, 1)]: three,
        i[(0, 1, 1)]: Fraction(2),
    }

    for p in all_posets_up_to(5):
        ctx = AlgebraContext(p, 3, Q)
        mul = lambda u, v: convolve(ctx, u, v)
        w = power_assoc_witness(ctx)
        if p.covers:
            assert w is not None
            assert mul(w, mul(w, w)) != mul(mul(w, w), w), p
        else:
            assert w is None
            for x in ctx.basis:
                ex = ctx.basis_element(x)
                for y in ctx.basis:
                    ey = ctx.basis_element(y)
                    for z in ctx.basis:
                        ez = ctx.basis_element(z)
                        assert mul(mul(ex, ey), ez) == mul(ex, mul(ey, ez))
    report("ACCEPTANCE 2 non-power-associativity: PASS")


def test_criterion_3_commutator_is_J1():
    """[A, A] = J_1 in canonical form, all 87 posets of sizes 1-5, Q and F2."""
    total = 0
    for p in all_posets_up_to(5):
        total += 1
        for ring in (Q, F2):
            ctx = AlgebraContext(p, 3, ring)
            sc = structure_constants(ctx)
            assert commutator_chain(sc)[0] == ideal_J(ctx, 1), (p, ring.name)
    assert total == 87
    report("ACCEPTANCE 3 commutator-equals-J1: PASS")


def test_criterion_4_z_chain():
    """C2 equals the explicit cover-pair span and C3 = J_2, same sweep."""
    for p in all_posets_up_to(5):
        for ring in (Q, F2):
            ctx = AlgebraContext(p, 3, ring)
            c1, c2, c3 = z_chain(ctx)
            gens = list(ideal_J(ctx, 2).basis)
            one = ring.one()
            for (x, y) in p.covers:
                gens.append({ctx.index[(x, x, y)]: one, ctx.index[(x, y, y)]: one})
            assert c2 == span(gens, ring, ctx.dim), (p, ring.name)
            assert c3 == ideal_J(ctx, 2), (p, ring.name)
    report("ACCEPTANCE 4 z-chain-identification: PASS")


def test_criterion_5_quotient_idempotent_counts():
    """Primitive idempotent counts: |P| in A/C1 and |covers| in C2/C3."""
    for p in all_posets_up_to(5):
        ctx = AlgebraContext(p, 3, Q)
        sc = structure_constants(ctx)
        c1, c2, c3 = z_chain(ctx)
        elems = primitive_idempotents(quotient(sc, ideal_J(ctx, 0), c1)[0])
        assert len(elems) == p.size, p
        if c2.rank > c3.rank:
            covs = primitive_idempotents(quotient(sc, c2, c3)[0])
            assert len(covs) == len(p.covers), p
        else:
            assert not p.covers, p
    report("ACCEPTANCE 5 quotient-idempotent-counts: PASS")


def test_criterion_6_reconstruction_round_trip():
    """Scrambled tables reconstruct to an isomorphic poset (3 seeds each);
    unscrambled tables give back the exact cover set."""
    for p in all_posets_up_to(5):
        ctx = AlgebraContext(p, 3, Q)
        rec, _, _ = reconstruct_poset(AbstractAlgebra(structure_constants(ctx)))
        assert rec.covers == p.covers, p
        for seed in (1, 2, 3):
            rec, _, _ = reconstruct_poset(scramble(ctx, seed))
            assert find_isomorphism(rec, p) is not None, (p, seed)
    report("ACCEPTANCE 6 reconstruction-round-trip: PASS")


def test_criterion_7_isomorphism_rigidity_exhaustive():
    """Exhaustive F2 scan: the only algebra automorphisms are the induced
    poset maps (1 for the 2-chain, 2 for the 2-antichain)."""
    ctx = AlgebraContext(chain(2), 3, F2)
    sc = structure_constants(ctx)
    isos = enumerate_isomorphisms_exhaustive(sc, sc)
    assert isos == [induced_isomorphism((0, 1), ctx, ctx)]

    ctx = AlgebraContext(antichain(2), 3, F2)
    sc = structure_constants(ctx)
    isos = enumerate_isomorphisms_exhaustive(sc, sc)
    assert len(isos) == 2
    assert set(isos) == {
        induced_isomorphism((0, 1), ctx, ctx),
        induced_isomorphism((1, 0), ctx, ctx),
    }
    report("ACCEPTANCE 7 isomorphism-rigidity-exhaustive: PASS")


def test_criterion_8_derivation_triviality():
    """Leibniz kernel rank 0 for every third flag algebra up to size 5 over
    Q, F2, F3 and Z; classical contrast rank 2 on I^2 of the 2-chain."""
    for p in all_posets_up_to(5):
        for ring in (Q, F2, F3, Z):
            assert derivation_basis(AlgebraContext(p, 3, ring)) == [], (
                p,
                ring.name,
            )
    ctx = AlgebraContext(chain(2), 2, Q)
    basis = derivation_basis(ctx)
    assert len(basis) == 2
    for t in basis:
        assert check_derivation(ctx, t)
    # the two inner witnesses ad(e_00), ad(e_01), by columns: the matrix
    # rows are [0, 0, 0], [0, 1, 0], [0, 0, 0] and [0, 0, 0], [1, 0, -1], [0, 0, 0]
    one = Q.one()
    ad_e00 = LinearMap(Q, [{}, {1: one}, {}])
    ad_e01 = LinearMap(Q, [{1: one}, {}, {1: -one}])
    for w in (ad_e00, ad_e01):
        assert check_derivation(ctx, w)
    report("ACCEPTANCE 8 derivation-triviality: PASS")


def test_criterion_9_plumbing_determinism():
    """Byte-identical repeated check reports; exit-code matrix honored."""

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "flagalg.cli", *args],
            capture_output=True,
            text=True,
        )

    first = run("check", "--all-up-to", "4", "--ring", "Q", "--seed", "7")
    second = run("check", "--all-up-to", "4", "--ring", "Q", "--seed", "7")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    report_obj = json.loads(first.stdout)
    assert len(report_obj["posets"]) == 1 + 2 + 5 + 16

    # exit-code matrix: 0 = pass, 1 = theorem/reconstruction failure,
    # 2 = input or capability error
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        good = os.path.join(tmp, "p.poset")
        with open(good, "w") as fh:
            fh.write("elements: a b\ncovers:\na b\n")
        bad_table = os.path.join(tmp, "bad.json")
        with open(bad_table, "w") as fh:
            fh.write('{"dim":2,"ring":"Q","table":[]}')
        assert run("check", good).returncode == 0
        assert run("reconstruct", bad_table).returncode == 1
        assert run("check", os.path.join(tmp, "missing")).returncode == 2
        assert run("check", good, "--ring", "bogus").returncode == 2
        assert run("check", good, "--ring", "Zm:6").returncode == 2
    report("ACCEPTANCE 9 plumbing-determinism: PASS")
