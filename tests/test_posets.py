"""Poset core: construction, parsing, isomorphism, enumeration.

The enumeration counts are cross-checked against two independent oracles:
a brute-force scan over all reflexive relations (small sizes) and a labeled
insertion count compared through the orbit-counting identity sum(m!/|Aut|).
The canonical key is checked against the minimum over all m! relabellings.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

import pytest
from helpers import dual, relabel

from flagalg.posets import (
    MAX_POSET_SIZE,
    Poset,
    PosetError,
    antichain,
    automorphisms,
    chain,
    enumerate_posets,
    find_isomorphism,
    format_poset,
    parse_poset,
)


def brute_force_poset_keys(m):
    """Canonical keys of every partial order on m labeled points, deduped."""
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    keys = set()
    for bits in range(1 << len(pairs)):
        leq = [[i == j for j in range(m)] for i in range(m)]
        for idx, (i, j) in enumerate(pairs):
            if bits >> idx & 1:
                leq[i][j] = True
        ok = True
        for i in range(m):
            for j in range(m):
                if i != j and leq[i][j] and leq[j][i]:
                    ok = False
                if not ok:
                    break
                for k in range(m):
                    if leq[i][j] and leq[j][k] and not leq[i][k]:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            keys.add(Poset(leq).canonical_key())
    return keys


@lru_cache(maxsize=None)
def key_getters(m):
    """One itemgetter per permutation of range(m), m >= 2, reading the flat
    order matrix at perm[i]*m + perm[j] for bit i*m + j from the most
    significant bit down, so the least tuple read is the least integer."""
    return tuple(
        itemgetter(*(perm[k // m] * m + perm[k % m] for k in reversed(range(m * m))))
        for perm in itertools.permutations(range(m))
    )


def brute_force_canonical_key(p):
    """The canonical key as the minimum over all m! relabelled matrices,
    m >= 2."""
    m = p.size
    flat = tuple(v for row in p.leq for v in row)
    best = min(getter(flat) for getter in key_getters(m))
    return (m, int("".join("1" if v else "0" for v in best), 2))


def relabelled(p, rng):
    perm = list(range(p.size))
    rng.shuffle(perm)
    return relabel(p, perm)


def count_labeled_posets(m):
    """Insertion oracle: extend each labeled poset on {0..k-1} by element k
    with a down-closed lower set D and an up-closed upper set U, d < u for
    all d in D, u in U.  Every labeled poset arises exactly once."""
    posets = [[[True]]]
    for k in range(1, m):
        grown = []
        for leq in posets:
            downsets = []
            upsets = []
            for bits in range(1 << k):
                s = [i for i in range(k) if bits >> i & 1]
                if all(leq[j][i] <= (j in s) for i in s for j in range(k)):
                    downsets.append(s)
                if all(leq[i][j] <= (j in s) for i in s for j in range(k)):
                    upsets.append(s)
            for d in downsets:
                for u in upsets:
                    if set(d) & set(u):
                        continue
                    if not all(leq[x][y] for x in d for y in u):
                        continue
                    new = [row + [x in d] for x, row in enumerate(leq)]
                    new.append([x in u for x in range(k)] + [True])
                    grown.append(new)
        posets = grown
    return len(posets)


class TestConstruction:
    def test_chain_covers(self):
        p = chain(4)
        assert p.covers == ((0, 1), (1, 2), (2, 3))

    def test_antichain_has_no_covers(self):
        assert antichain(5).covers == ()

    def test_rejects_missing_reflexivity(self):
        with pytest.raises(PosetError):
            Poset([[False, False], [False, True]])

    def test_rejects_intransitive(self):
        leq = [[True, True, False], [False, True, True], [False, False, True]]
        with pytest.raises(PosetError):
            Poset(leq)

    def test_from_covers_closure(self):
        p = Poset.from_covers(3, [(0, 1), (1, 2)])
        assert p.leq[0][2]

    def test_from_covers_cycle(self):
        with pytest.raises(PosetError, match="cycle"):
            Poset.from_covers(3, [(0, 1), (1, 2), (2, 0)])

    def test_interval_and_length(self):
        p = chain(4)
        assert sorted(p.interval(1, 3)) == [1, 2, 3]
        assert p.length(0, 3) == 3
        assert p.length(2, 2) == 0

    def test_interval_requires_comparable(self):
        from flagalg.posets import InvalidIntervalError

        p = antichain(2)
        with pytest.raises(InvalidIntervalError):
            p.interval(0, 1)

    def test_dual_is_involution(self):
        v = Poset.from_covers(3, [(0, 1), (0, 2)])
        assert dual(dual(v)).leq == v.leq
        assert dual(v).covers == ((1, 0), (2, 0))


class TestMultichains:
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (4, 3)])
    def test_chain_multichain_count(self, m, n):
        # weakly increasing n-tuples from a total order: C(m+n-1, n)
        import math

        got = len(chain(m).multichains(n))
        assert got == math.comb(m + n - 1, n)

    def test_matches_product_filter(self):
        p = Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        for n in (2, 3):
            brute = [
                t
                for t in itertools.product(range(4), repeat=n)
                if all(p.leq[t[i]][t[i + 1]] for i in range(n - 1))
            ]
            assert p.multichains(n) == sorted(brute)

    def test_antichain_multichains_are_constant(self):
        assert antichain(3).multichains(3) == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]

    def test_count_matches_the_list(self):
        posets = [antichain(0)] + [p for m in range(1, 6) for p in enumerate_posets(m)]
        for p in posets:
            for n in range(1, 5):
                assert p.count_multichains(n) == len(p.multichains(n))
        with pytest.raises(ValueError, match="n must be >= 1"):
            chain(2).count_multichains(0)


class TestParse:
    def test_roundtrip(self):
        p = Poset.from_covers(3, [(0, 1), (0, 2)], names=("a", "b", "c"))
        q = parse_poset(format_poset(p))
        assert q.leq == p.leq
        assert q.names == p.names

    def test_parse_basic(self):
        p = parse_poset("elements: x y z\ncovers:\nx y\ny z\n")
        assert p.names == ("x", "y", "z")
        assert p.leq[0][2]

    def test_parse_errors(self):
        with pytest.raises(PosetError):
            parse_poset("covers:\n")
        with pytest.raises(PosetError):
            parse_poset("elements: a a\ncovers:\n")
        with pytest.raises(PosetError):
            parse_poset("elements: a b\ncovers:\na c\n")
        with pytest.raises(PosetError):
            parse_poset("elements: a b\ncovers:\na a\n")
        with pytest.raises(PosetError):
            parse_poset("elements: a b\ncovers:\na b\na b\n")

    def test_size_cap(self):
        def antichain_file(m):
            return "elements: " + " ".join(f"a{i}" for i in range(m)) + "\ncovers:\n"

        assert parse_poset(antichain_file(MAX_POSET_SIZE)).size == MAX_POSET_SIZE
        with pytest.raises(PosetError, match=f"names {MAX_POSET_SIZE + 1} elements; at most {MAX_POSET_SIZE}"):
            parse_poset(antichain_file(MAX_POSET_SIZE + 1))


class TestIsomorphism:
    def test_chain_automorphisms_trivial(self):
        assert automorphisms(chain(4)) == [list(range(4))]

    def test_antichain_automorphisms_symmetric(self):
        assert len(automorphisms(antichain(4))) == 24

    def test_relabel_is_isomorphic(self):
        p = Poset.from_covers(4, [(0, 1), (0, 2), (1, 3)])
        q = relabel(p, (2, 0, 3, 1))
        phi = find_isomorphism(p, q)
        assert phi is not None
        for x in range(4):
            for y in range(4):
                assert p.leq[x][y] == q.leq[phi[x]][phi[y]]

    def test_v_and_wedge_not_isomorphic(self):
        v = Poset.from_covers(3, [(0, 1), (0, 2)])
        assert find_isomorphism(v, dual(v)) is None

    def test_canonical_key_is_iso_invariant(self):
        p = Poset.from_covers(4, [(0, 2), (1, 2), (2, 3)])
        for perm in itertools.permutations(range(4)):
            assert relabel(p, perm).canonical_key() == p.canonical_key()

    def test_canonical_key_is_least_relabelled_matrix(self):
        # the key is the least integer with bit i*m + j = leq[perm[i]][perm[j]]
        # over all m! perms, on every class of size <= 5 under 3 relabellings
        rng = random.Random(11)
        for m in range(1, 6):
            for p in enumerate_posets(m):
                for _ in range(3):
                    perm = list(range(m))
                    rng.shuffle(perm)
                    q = relabel(p, perm)
                    best = min(
                        sum(
                            1 << (i * m + j)
                            for i in range(m)
                            for j in range(m)
                            if q.leq[s[i]][s[j]]
                        )
                        for s in itertools.permutations(range(m))
                    )
                    assert q.canonical_key() == (m, best)

    def test_canonical_key_matches_the_brute_force_on_size_6(self):
        rng = random.Random(6)
        for p in enumerate_posets(6):
            q = relabelled(p, rng)
            assert q.canonical_key() == brute_force_canonical_key(q)

    def test_canonical_key_matches_the_brute_force_on_random_size_7(self):
        # each pair i < j related with probability 1/3, closed, relabelled
        rng = random.Random(7)
        for _ in range(20):
            pairs = [(i, j) for i in range(7) for j in range(i + 1, 7) if rng.random() < 1 / 3]
            q = relabelled(Poset.from_covers(7, pairs), rng)
            assert q.canonical_key() == brute_force_canonical_key(q)

    @pytest.mark.parametrize(
        "poset,key",
        [
            (chain(10), sum(1 << (i * 10 + j) for i in range(10) for j in range(i, 10))),
            (antichain(10), sum(1 << (i * 11) for i in range(10))),
        ],
        ids=["chain", "antichain"],
    )
    def test_canonical_key_of_size_10_without_permutations(self, poset, key):
        # 10! = 3,628,800 relabellings: a search over permutations would not
        # finish in a test's time
        rng = random.Random(10)
        for _ in range(3):
            assert relabelled(poset, rng).canonical_key() == (10, key)


class TestEnumeration:
    def test_counts(self):
        assert [len(enumerate_posets(m)) for m in range(1, 7)] == [1, 2, 5, 16, 63, 318]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_brute_force_oracle(self, m):
        reps = enumerate_posets(m)
        keys = {p.canonical_key() for p in reps}
        assert len(keys) == len(reps)
        assert keys == brute_force_poset_keys(m)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_labeled_count_identity(self, m):
        # Burnside-style completeness check: sum of orbit sizes m!/|Aut(P)|
        # over one representative per class must hit the labeled total.
        import math

        total = sum(
            Fraction(math.factorial(m), len(automorphisms(p)))
            for p in enumerate_posets(m)
        )
        assert total == count_labeled_posets(m)

    def test_size5_pairwise_non_isomorphic(self):
        reps = enumerate_posets(5)
        for a, b in itertools.combinations(reps, 2):
            assert find_isomorphism(a, b) is None

    @pytest.mark.parametrize(
        "m,digest",
        [
            (5, "5c08c6fefcc462f57ac07c6297f6bc340dddbe7a1b1eb3c998722d88ccf73ad4"),
            (6, "7062349b0a7c4420f710ad35c5ba96c814673a53e3b151acece94165f18b48e7"),
        ],
    )
    def test_representatives_are_pinned(self, m, digest):
        # the representatives, their names and their order reach the
        # `enumerate-posets` and `check --all-up-to` reports
        text = json.dumps([format_poset(p) for p in enumerate_posets(m)])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_size_limit(self):
        with pytest.raises(ValueError):
            enumerate_posets(7)
        with pytest.raises(ValueError):
            enumerate_posets(0)
