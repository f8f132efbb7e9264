"""Coefficient ring layer: axioms, parsing, primality."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from flagalg.rings import (
    CapabilityError,
    Integers,
    ModularRing,
    PrimeField,
    Rationals,
    MAX_MODULUS,
    is_prime,
    ring_from_spec,
)

# F_2 is the smallest modulus: neg is the identity there, and zero and one
# are the inherited Ring defaults
RINGS = [Rationals(), Integers(), PrimeField(2), PrimeField(5), ModularRing(6), ModularRing(8)]


def elements_of(ring):
    if isinstance(ring, (PrimeField, ModularRing)):
        return st.integers(0, ring.modulus - 1)
    if isinstance(ring, Integers):
        return st.integers(-50, 50)
    return st.fractions(min_value=-30, max_value=30, max_denominator=12)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
class TestAxioms:
    def test_axioms(self, ring):
        @given(elements_of(ring), elements_of(ring), elements_of(ring))
        def inner(a, b, c):
            a, b, c = ring.coerce(a), ring.coerce(b), ring.coerce(c)
            assert ring.add(a, b) == ring.add(b, a)
            assert ring.mul(a, b) == ring.mul(b, a)
            assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
            assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
            assert ring.mul(a, ring.add(b, c)) == ring.add(
                ring.mul(a, b), ring.mul(a, c)
            )
            assert ring.add(a, ring.neg(a)) == ring.zero()
            assert ring.mul(a, ring.one()) == a
            assert ring.sub(a, b) == ring.add(a, ring.neg(b))

        inner()

    def test_format_parse_roundtrip(self, ring):
        @given(elements_of(ring))
        def inner(a):
            a = ring.coerce(a)
            assert ring.parse(ring.format(a)) == a

        inner()


def test_rational_parse_refuses_exponent_notation():
    # Fraction("1e800000") builds 10**800000, a 2.66-million-bit integer,
    # from 8 characters
    q = Rationals()
    for s in ("1e800000", "1E5", "2.5e-3"):
        with pytest.raises(ValueError, match="exponent"):
            q.parse(s)
    assert q.parse("3") == 3
    assert q.parse("-1/3") == Fraction(-1, 3)
    assert q.parse("1.5") == Fraction(3, 2)
    for a in (Fraction(10**30, 7), 10**40, Fraction(-1, 10**25)):
        assert "e" not in q.format(a).lower() and q.parse(q.format(a)) == a


def test_rational_inverse():
    q = Rationals()
    assert q.inv(Fraction(3, 4)) == Fraction(4, 3)
    with pytest.raises(ZeroDivisionError):
        q.inv(Fraction(0))


def test_prime_field_inverse():
    f = PrimeField(7)
    for a in range(1, 7):
        assert f.mul(a, f.inv(a)) == 1


def test_integers_refuse_division():
    z = Integers()
    with pytest.raises((CapabilityError, ZeroDivisionError, ValueError)):
        z.inv(2)


def test_modular_ring_units():
    r = ModularRing(6)
    assert r.mul(5, r.inv(5)) == 1
    with pytest.raises((CapabilityError, ZeroDivisionError, ValueError)):
        r.inv(2)  # zero divisor


def test_ring_from_spec():
    assert ring_from_spec("Q").name == "Q"
    assert ring_from_spec("Z").name == "Z"
    assert ring_from_spec("Fp:7").modulus == 7
    assert ring_from_spec("Zm:9").modulus == 9
    for bad in ("Fp:4", "Fp:x", "Zm:0", "R", "", "Q:2"):
        with pytest.raises((CapabilityError, ValueError)):
            ring_from_spec(bad)


def test_primality_helpers():
    primes = [p for p in range(2, 60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_primality_matches_trial_division():
    def by_trial_division(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(is_prime(n) == by_trial_division(n) for n in range(-2, 5000))


def test_primality_of_large_moduli():
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37: each is caught
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    for n in (MAX_MODULUS, 2**89 - 1):
        with pytest.raises(ValueError, match=f"proven only below {MAX_MODULUS}"):
            is_prime(n)
        with pytest.raises(ValueError, match=f"proven only below {MAX_MODULUS}"):
            ring_from_spec(f"Zm:{n}")
