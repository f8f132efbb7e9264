"""Leibniz kernel computations: trivial for third flag algebras, nontrivial
for the classical incidence algebra of the 2-chain."""

from fractions import Fraction

import pytest

from flagalg.algebra import AlgebraContext, convolve, structure_constants
from flagalg.derivations import check_derivation, derivation_basis, leibniz_system
from flagalg.linalg import LinearMap, kernel, span, sub_scaled
from flagalg.posets import Poset, antichain, chain, enumerate_posets
from flagalg.rings import Integers, PrimeField, Rationals

from derivation_oracle import check_derivation_all_pairs, leibniz_system_reference

Q = Rationals()


def inner_derivation(ctx, a):
    """ad(a): x -> ax - xa, as a map (column j is the image of basis j)."""
    cols = []
    for t in ctx.basis:
        b = ctx.basis_element(t)
        col = convolve(ctx, a, b)
        sub_scaled(col, ctx.ring.one(), convolve(ctx, b, a), ctx.ring)
        cols.append(col)
    return LinearMap(ctx.ring, cols)


class TestTrivialKernel:
    @pytest.mark.parametrize(
        "ring", [Q, PrimeField(2), PrimeField(3), Integers()], ids=lambda r: r.name
    )
    def test_small_posets(self, ring):
        for m in range(1, 5):
            for p in enumerate_posets(m):
                assert derivation_basis(AlgebraContext(p, 3, ring)) == []

    def test_five_chain(self):
        assert derivation_basis(AlgebraContext(chain(5), 3, Q)) == []


class TestClassicalContrast:
    def test_two_chain_rank_two(self):
        # the n=2 incidence algebra of the 2-chain has a 2-dimensional
        # derivation module, spanned by inner derivations
        ctx = AlgebraContext(chain(2), 2, Q)
        basis = derivation_basis(ctx)
        assert len(basis) == 2
        for t in basis:
            assert check_derivation(ctx, t)
        # explicit witnesses: every derivation here is inner, spanned by
        # ad(e_00) (scales e_01) and ad(e_01) (moves the idempotents to e_01)
        witnesses = [
            inner_derivation(ctx, ctx.basis_element((0, 0))),
            inner_derivation(ctx, ctx.basis_element((0, 1))),
        ]
        for w in witnesses:
            assert check_derivation(ctx, w)
        # entry D[p][q] is unknown p*d + q, as in the Leibniz system
        d = ctx.dim
        flat = lambda t: {p * d + q: x for q, col in enumerate(t.columns) for p, x in col.items()}
        got = span([flat(t) for t in basis], Q, ambient=ctx.dim**2)
        want = span([flat(w) for w in witnesses], Q, ambient=ctx.dim**2)
        assert got == want

    def test_check_derivation_rejects_identity(self):
        ctx = AlgebraContext(chain(2), 2, Q)
        assert not check_derivation(ctx, LinearMap.identity(Q, ctx.dim))


class TestDirectCheck:
    def test_six_chain_kernel_maps_pass_and_raised_entries_fail(self):
        ctx = AlgebraContext(chain(6), 2, Q)
        d = ctx.dim
        basis = derivation_basis(ctx)
        assert len(basis) == 20
        assert all(check_derivation(ctx, t) for t in basis)
        # raise one entry of a kernel map by 1, at 15 spread-out positions
        for k in range(15):
            t = basis[k % len(basis)]
            p, q = (5 * k) % d, (3 * k + 1) % d
            cols = [dict(col) for col in t.columns]
            raised = Q.add(cols[q].get(p, Q.zero()), Q.one())
            cols[q][p] = raised
            if not raised:
                del cols[q][p]
            assert not check_derivation(ctx, LinearMap(Q, cols)), (k, p, q)


class TestDirectCheckAgainstAllPairs:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "ring", [Q, PrimeField(2), Integers(), PrimeField(262139)], ids=lambda r: r.name
    )
    def test_same_verdict_on_kernel_maps_and_single_entry_changes(self, ring, n):
        # check_derivation skips the pairs whose defect has no term; the
        # reference visits all d^2 pairs
        verdicts = set()
        for m in range(1, 5):
            for p in enumerate_posets(m):
                ctx = AlgebraContext(p, n, ring)
                d = ctx.dim
                basis = derivation_basis(ctx)
                for t in basis:
                    assert check_derivation(ctx, t) and check_derivation_all_pairs(ctx, t)
                # add 1 at each entry of one kernel map (the zero map if n = 3)
                base = basis[0] if basis else LinearMap(ring, [{} for _ in range(d)])
                for r in range(d):
                    for q in range(d):
                        cols = [dict(col) for col in base.columns]
                        cols[q][r] = ring.add(cols[q].get(r, ring.zero()), ring.one())
                        if not cols[q][r]:
                            del cols[q][r]
                        t = LinearMap(ring, cols)
                        verdict = check_derivation(ctx, t)
                        assert verdict == check_derivation_all_pairs(ctx, t), (p, n, r, q)
                        verdicts.add(verdict)
        # for n = 2 some changed maps are still derivations; for n = 3 the
        # kernel is 0, so no map with one nonzero entry is
        assert verdicts == ({True, False} if n == 2 else {False})


def row_keys(rows):
    return [tuple(sorted(row.items())) for row in rows]


class TestSystemAgainstReference:
    """leibniz_system builds its rows in one pass over the basis pairs in
    index order; the reference builds them table pairs first, then the
    absent pairs.  The row sets must be equal, with no row built twice."""

    @staticmethod
    def assert_same_rows(ctx):
        keys = row_keys(leibniz_system(ctx))
        assert len(set(keys)) == len(keys), ctx
        assert set(keys) == set(row_keys(leibniz_system_reference(ctx))), ctx

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize(
        "ring",
        [Q, PrimeField(2), PrimeField(3), Integers(), PrimeField(262139)],
        ids=lambda r: r.name,
    )
    def test_same_rows_on_small_posets(self, ring, n):
        for m in range(1, 5):
            for p in enumerate_posets(m):
                self.assert_same_rows(AlgebraContext(p, n, ring))

    @pytest.mark.parametrize("m, n", [(6, 2), (8, 3)])
    def test_same_rows_and_kernel_on_chains(self, m, n):
        # the rows come in another order; the kernel is canonical, so it is
        # the same Submodule
        ctx = AlgebraContext(chain(m), n, Q)
        self.assert_same_rows(ctx)
        d2 = ctx.dim**2
        assert kernel(leibniz_system(ctx), d2, Q) == kernel(leibniz_system_reference(ctx), d2, Q)


class TestSystemShape:
    def test_system_columns(self):
        ctx = AlgebraContext(chain(2), 3, Q)
        rows = leibniz_system(ctx)
        # rows are sparse dicts over the d^2 unknowns D[p][q]
        assert rows
        assert all(0 <= c < ctx.dim**2 for r in rows for c in r)

    def test_kernel_agrees_across_Q_and_Z(self):
        for p in (chain(3), Poset.from_covers(3, [(0, 1), (0, 2)])):
            for n in (2, 3):
                dq = derivation_basis(AlgebraContext(p, n, Q))
                dz = derivation_basis(AlgebraContext(p, n, Integers()))
                assert len(dq) == len(dz)

    def test_antichain_n2_has_no_derivations(self):
        # product of copies of R: all derivations vanish even classically
        assert derivation_basis(AlgebraContext(antichain(3), 2, Q)) == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_kept_rows_have_the_kernel_of_the_full_system(self, n):
        # leibniz_system keeps row (i, j, k) only for k in the supports of
        # b_i b_j, A b_j and b_i A; the full system has every row (i, j, k)
        # of the module docstring's three-term equation (dims up to 35)
        for m in range(1, 5):
            for p in enumerate_posets(m):
                ctx = AlgebraContext(p, n, Q)
                d = ctx.dim
                full = {}

                def add(i, j, k, col, c):
                    row = full.setdefault((i, j, k), {})
                    row[col] = Q.add(row.get(col, Q.zero()), c)

                for (i, j), entry in structure_constants(ctx).table.items():
                    for k, c in entry:
                        for x in range(d):
                            # c_ij^k D[x][k] in row (i, j, x); -c_ij^k D[i][x]
                            # in row (x, j, k); -c_ij^k D[j][x] in row (i, x, k)
                            add(i, j, x, x * d + k, c)
                            add(x, j, k, i * d + x, Q.neg(c))
                            add(i, x, k, j * d + x, Q.neg(c))
                rows = [{col: c for col, c in row.items() if c} for row in full.values()]
                assert kernel(leibniz_system(ctx), d * d, Q) == kernel(rows, d * d, Q), (p, n)
