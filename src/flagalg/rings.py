"""Exact coefficient rings: the rationals, prime fields, the integers and Z/m.

All scalar arithmetic in the package goes through these ring objects.  Values
are plain Python objects kept in a canonical form: a Q scalar is an int when
it is integral and a Fraction otherwise, every other ring uses ints, and
modular values live in [0, m).  No floating point anywhere.
"""

from __future__ import annotations


class CapabilityError(Exception):
    """The requested computation is not supported over the chosen ring."""


# Miller-Rabin on the first 13 primes as bases is proven correct below
# this bound (Sorenson and Webster, Math. Comp. 86, 2017); larger moduli
# are refused rather than answered without proof
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for n >= MAX_MODULUS."""
    if n >= MAX_MODULUS:
        raise ValueError(f"modulus {n} is too large: primality is proven only below {MAX_MODULUS}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Ring:
    """Base interface for an exact commutative unital ring.

    zero, one, neg and format serve every ring whose scalars are plain ints
    or Fractions; a ring overrides them only where its scalars differ.
    """

    name: str
    is_field: bool
    # span/kernel/quotient machinery is only available over fields and Z
    supports_submodules: bool

    # 0 and 1 are canonical in every ring here, since Z/m needs m >= 2
    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        return -a

    def inv(self, a):
        raise NotImplementedError

    def coerce(self, k: int):
        """Image of the integer k in the ring."""
        raise NotImplementedError

    def format(self, a) -> str:
        return str(a)

    def parse(self, s: str):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Ring) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"Ring({self.name})"


class Rationals(Ring):
    """Q, with integral scalars kept as ints: most scalars of a run are
    integers, and int arithmetic skips Fraction's objects and gcds.  Only
    building a Q ring imports `fractions`."""

    name = "Q"
    is_field = True
    supports_submodules = True

    def __init__(self):
        from fractions import Fraction

        self.fraction = Fraction

    def _exact(self, x):
        """x as an int when integral, else a Fraction; a float raises."""
        if type(x) is int:
            return x
        if type(x) is not self.fraction:
            raise TypeError(f"inexact scalar {x!r} reached Q")
        return x.numerator if x.denominator == 1 else x

    def add(self, a, b):
        return self._exact(a + b)

    def sub(self, a, b):
        return self._exact(a - b)

    def mul(self, a, b):
        return self._exact(a * b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exact(self.fraction(1) / a)

    def coerce(self, k):
        return self._exact(k)

    def parse(self, s):
        # Fraction("1e800000") would build 10**800000 from 8 characters
        if "e" in s or "E" in s:
            raise ValueError(f"exponent notation is not accepted: {s!r}")
        try:
            return self._exact(self.fraction(s))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {s!r}") from None


class Integers(Ring):
    name = "Z"
    is_field = False
    supports_submodules = True

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a in (1, -1):
            return a
        raise CapabilityError(f"{a} is not invertible in Z")

    def coerce(self, k):
        return int(k)

    def parse(self, s):
        return int(s)


class ModularRing(Ring):
    """Z/m for a general modulus m >= 2."""

    is_field = False
    supports_submodules = False

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.modulus = m
        self.name = f"Zm:{m}"

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def inv(self, a):
        try:
            return pow(a, -1, self.modulus)
        except ValueError:
            raise CapabilityError(f"{a} is not invertible mod {self.modulus}")

    def coerce(self, k):
        return k % self.modulus

    def format(self, a):
        return f"{a % self.modulus} mod {self.modulus}"

    def parse(self, s):
        value, stated, modulus = s.partition("mod")
        if stated and int(modulus) != self.modulus:
            raise ValueError(f"{s!r} states modulus {modulus.strip()}, not {self.modulus}")
        return int(value) % self.modulus


class PrimeField(ModularRing):
    """F_p, the field with p elements."""

    is_field = True
    supports_submodules = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        super().__init__(p)
        self.name = f"Fp:{p}"


def ring_from_spec(spec: str) -> Ring:
    """Parse a CLI ring name: Q | Fp:<p> | Z | Zm:<m>."""
    spec = spec.strip()
    if spec == "Q":
        return Rationals()
    if spec == "Z":
        return Integers()
    if spec.startswith("Fp:"):
        return PrimeField(int(spec[3:]))
    if spec.startswith("Zm:"):
        return ModularRing(int(spec[3:]))
    raise ValueError(f"unknown ring spec {spec!r}; expected Q, Fp:<p>, Z or Zm:<m>")
