"""Divisor arithmetic and dimension formulas for weight-k form spaces on Gamma0(N)."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, isqrt
from operator import add


def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"divisors: need n >= 1, got {n}")
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return tuple(small + large[::-1])


def _factorise(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as ((p, e), ...), ascending p, by trial division
    (uncached; ``prime_factors`` is its cache)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


prime_factors = lru_cache(maxsize=None)(_factorise)


def sigma_factored(k: int, m: int) -> int:
    """Sum of k-th powers of positive divisors, 0 for m outside the
    naturals, from the factorization of m: the product over p^e || m of
    (p^(k(e+1)) - 1) / (p^k - 1), or of e + 1 at k = 0.  Uncached, and
    independent of the sieve of ``sigma_table``."""
    if k < 0:
        raise ValueError(f"sigma_k: need k >= 0, got {k}")
    if m <= 0:
        return 0
    out = 1
    for p, e in _factorise(m):
        out *= (p ** (k * (e + 1)) - 1) // (p ** k - 1) if k else e + 1
    return out


sigma_k = lru_cache(maxsize=None)(sigma_factored)


def sigma_factored_table(k: int, limit: int) -> list[int]:
    """sigma_k(m) for m = 0..limit (0 at m = 0) from a smallest-prime-factor
    table: with p = spf(m) and q = m / p, sigma_k(m) = (1 + p^k) sigma_k(q),
    less p^k sigma_k(q / p) when p | q.  Factorization, like
    ``sigma_factored``, and independent of the sieve of ``sigma_table``."""
    if k < 0 or limit < 0:
        raise ValueError(f"sigma_k: need k, limit >= 0, got {k}, {limit}")
    spf = list(range(limit + 1))
    for p in range(isqrt(limit), 1, -1):  # the smallest factor writes last
        spf[p * p::p] = [p] * ((limit - p * p) // p + 1)
    out = [0, 1][:limit + 1]
    for m in range(2, limit + 1):
        p = spf[m]
        q, pk = m // p, p ** k
        out.append((1 + pk) * out[q] - (pk * out[q // p] if q % p == 0 else 0))
    return out


@lru_cache(maxsize=2)
def sigma_table(k: int, limit: int) -> tuple[int, ...]:
    """sigma_k(m) for m = 0..limit (0 at m = 0), by a hyperbola sieve: each
    m = d*e with d <= e gets d^k, and e^k if e > d, for d <= sqrt(limit).
    The last two tables stay, shared by their callers as immutable tuples."""
    table = [0] * (limit + 1)
    powers = list(map(pow, range(limit + 1), repeat(k)))
    for d in range(1, isqrt(limit) + 1):
        table[d * d::d] = map(add, table[d * d::d], repeat(powers[d]))
        table[d * d + d::d] = map(add, table[d * d + d::d],
                                  powers[d + 1:limit // d + 1])
    return tuple(table)


def residue_class(a: int, b: int, n: int, lo: int, hi: int) -> range:
    """The l in lo..hi with b | n - a l, for a, b >= 1: one residue class
    modulo b / gcd(a, b), found by a modular inverse; none unless gcd(a, b)
    divides n."""
    g = gcd(a, b)
    if n % g:
        return range(0)
    step = b // g
    return range(lo + (n // g * pow(a // g, -1, step) - lo) % step, hi + 1,
                 step)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"euler_phi: need n >= 1, got {n}")
    out = n
    for p, _ in prime_factors(n):
        out = out // p * (p - 1)
    return out


def _nu2(n: int) -> int:
    """Count of elliptic points of order 2 on Gamma0(n)."""
    if n % 4 == 0:
        return 0
    out = 1
    for p, _ in prime_factors(n):
        if p == 2:
            continue  # (-1|2) = 0, factor 1
        out *= 2 if p % 4 == 1 else 0
    return out


def _nu3(n: int) -> int:
    """Count of elliptic points of order 3 on Gamma0(n)."""
    if n % 9 == 0:
        return 0
    out = 1
    for p, _ in prime_factors(n):
        if p == 3:
            continue  # (-3|3) = 0, factor 1
        out *= 2 if p % 3 == 1 else 0
    return out


def _nu_inf(n: int) -> int:
    """Cusp count of Gamma0(n)."""
    return sum(euler_phi(gcd(d, n // d)) for d in divisors(n))


def _index(n: int) -> int:
    """Index of Gamma0(n) in the full modular group."""
    out = n
    for p, _ in prime_factors(n):
        out = out // p * (p + 1)
    return out


def genus(n: int) -> int:
    """Genus of the modular curve attached to Gamma0(n)."""
    g = (Fraction(1) + Fraction(_index(n), 12) - Fraction(_nu2(n), 4)
         - Fraction(_nu3(n), 3) - Fraction(_nu_inf(n), 2))
    if g.denominator != 1:
        raise ArithmeticError(f"non-integral genus {g} at level {n}")
    return int(g)


def dim_spaces(level: int, weight: int) -> tuple[int, int, int]:
    """(dim M_k, dim E_k, dim S_k) for Gamma0(level), trivial character.

    Only even weights k >= 4 are supported; there the Eisenstein part has
    dimension equal to the cusp count and the cusp-form dimension follows
    the standard index / elliptic-point / cusp-count formula.
    """
    if level < 1:
        raise ValueError(f"level must be positive, got {level}")
    if weight % 2 or weight < 4:
        raise ValueError(f"need even weight >= 4, got {weight}")
    g = genus(level)
    nu_inf = _nu_inf(level)
    dim_s = ((weight - 1) * (g - 1) + (weight // 2 - 1) * nu_inf
             + (weight // 4) * _nu2(level) + (weight // 3) * _nu3(level))
    if dim_s < 0:
        raise ArithmeticError(f"negative cusp dimension at ({level}, {weight})")
    dim_e = nu_inf
    return dim_e + dim_s, dim_e, dim_s
