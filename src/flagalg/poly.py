"""Dense polynomials over a field, and their roots in the field.

A polynomial is a list of coefficients, low to high, with no trailing zero,
so [] is 0.  Coefficients are scalars of a flagalg field: Q or F_p.  Sums
and products run on Python's own operators and `ring.coerce` brings each
result back to canonical form (both fields coerce an int, and Q also a
Fraction).

Roots over F_p come from equal-degree splitting: gcd(f, x^p - x) is the
product of f's distinct linear factors, and gcd(h, (x + a)^((p-1)/2) - 1)
for a = 0, 1, 2, ... splits it (deterministic Cantor-Zassenhaus) down to
quadratics, solved with one square root (Tonelli-Shanks).  Roots over Q
come from p-adic lifting (Loos, SIAM J. Comput. 12(2), 1983): the roots
mod a prime p are Newton-lifted past twice the Cauchy bound, and every
candidate is verified by exact evaluation.
"""

from __future__ import annotations

from math import lcm

from .rings import PrimeField, is_prime


def _canon(u, ring):
    u = [ring.coerce(c) for c in u]
    while u and not u[-1]:
        u.pop()
    return u


def value(u, x):
    """u(x) by Horner, exactly, with Python's operators."""
    v = 0
    for c in reversed(u):
        v = v * x + c
    return v


def derivative(u, ring):
    return _canon([i * c for i, c in enumerate(u)][1:], ring)


def sub(u, v, ring):
    out = list(u) + [0] * (len(v) - len(u))
    for i, c in enumerate(v):
        out[i] -= c
    return _canon(out, ring)


def mul(u, v, ring):
    if not u or not v:
        return []
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return _canon(out, ring)


def monic(u, ring):
    inv = ring.inv(u[-1])
    return [ring.mul(inv, c) for c in u]


def divmod_monic(u, f, ring):
    """(quotient, remainder) of u by the monic f."""
    k = len(f) - 1
    r = list(u)
    q = [0] * max(len(u) - k, 0)
    for i in range(len(r) - 1, k - 1, -1):
        c = ring.coerce(r[i])
        if c:
            q[i - k] = c
            for j in range(k):
                r[i - k + j] -= c * f[j]
    return _canon(q, ring), _canon(r[:k], ring)


def rem(u, f, ring):
    return divmod_monic(u, f, ring)[1]


def quo(u, f, ring):
    """u / f for a monic f that divides u."""
    return divmod_monic(u, f, ring)[0]


def powmod(u, e, f, ring):
    """u^e mod the monic f, by repeated squaring."""
    result, base = rem([1], f, ring), rem(u, f, ring)
    while e:
        if e & 1:
            result = rem(mul(result, base, ring), f, ring)
        e >>= 1
        if e:
            base = rem(mul(base, base, ring), f, ring)
    return result


def gcd(u, v, ring):
    """Monic greatest common divisor ([] when both are 0)."""
    while v:
        v = monic(v, ring)
        u, v = v, rem(u, v, ring)
    return monic(u, ring) if u else []


def roots(f, ring):
    """The distinct roots of the monic f in the field, ascending."""
    if isinstance(ring, PrimeField):
        return _roots_mod_p(f, ring)
    return _roots_over_q(f, ring)


def _roots_mod_p(f, field):
    p = field.modulus
    if p <= 2 * len(f) - 1:
        # p <= 2 deg + 1, which covers F_2 and F_3: p evaluations are cheap
        return [a for a in range(p) if not field.coerce(value(f, a))]
    x = [0, 1]
    out = []
    _split_linear(gcd(f, sub(powmod(x, p, f, field), x, field), field), field, 0, out)
    return sorted(out)


def _split_linear(g, field, start, out):
    """Append the roots of g, a monic product of distinct linear factors.

    For odd p, any two roots r != s have (r + a) and (s + a) of different
    quadratic character for about half of all a, so the loop ends early.
    A shift that gives all of g's roots one character cannot split a factor
    of g, so the factors of a split try only the shifts after it.
    """
    p = field.modulus
    if len(g) == 2:
        out.append(field.neg(g[0]))
    elif len(g) == 3:
        b, root, half = g[1], _sqrt(g[1] * g[1] - 4 * g[0], p), (p + 1) // 2  # (-b +- root) / 2
        out += [(root - b) * half % p, (-root - b) * half % p]
    if len(g) <= 3:
        return
    for a in range(start, p):
        h = gcd(g, sub(powmod([a, 1], (p - 1) // 2, g, field), [1], field), field)
        if 1 < len(h) < len(g):
            _split_linear(h, field, a + 1, out)
            _split_linear(quo(g, h, field), field, a + 1, out)
            return


def _sqrt(n, p):
    """A square root of the square n mod the odd prime p: n^((p+1)/4) when
    p = 3 mod 4 (t = 1 at once), else Tonelli-Shanks with the least
    non-residue z, where p - 1 = q 2^s for odd q."""
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    r, t = pow(n, (q + 1) // 2, p), pow(n, q, p)
    if t != 1:
        c = pow(next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1), q, p)
    while t != 1:
        i = next(i for i in range(1, s) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _roots_over_q(f, ring):
    """The distinct rational roots of the monic f over Q, ascending.

    With s the squarefree part of f and D the lcm of its denominators, the
    rational roots of s are y/D for the integer roots y of the monic
    integer polynomial G(y) = D^k s(y/D).  For the first prime p that does
    not divide D and leaves G squarefree, every integer root of G is a
    simple root mod p, and lifts to the one root mod p^(2^i) above it.
    """
    from fractions import Fraction

    s = quo(f, gcd(f, derivative(f, ring), ring), ring)
    k = len(s) - 1
    if k < 1:
        return []
    d = lcm(*(Fraction(c).denominator for c in s))
    g = [int(c * d ** (k - i)) for i, c in enumerate(s)]
    p = 2
    while True:
        if is_prime(p) and d % p:
            field = PrimeField(p)
            gp = _canon(g, field)
            if len(gcd(gp, derivative(gp, field), field)) == 1:
                break
        p += 1
    # integer roots are below the Cauchy bound in absolute value
    bound = 2 * (1 + max(abs(c) for c in g[:-1]))
    dg = derivative(g, ring)
    out = []
    for r in _roots_mod_p(gp, field):
        m = p
        while m <= bound:
            m *= m
            r = (r - value(g, r) * pow(value(dg, r), -1, m)) % m
        y = r - m if 2 * r > m else r
        if not value(g, y):
            out.append(ring.coerce(Fraction(y, d)))
    return sorted(out)
