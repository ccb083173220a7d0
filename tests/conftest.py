"""Shared oracles for the test suite.

The oracles here deliberately avoid the library's fast paths: the eta
oracle multiplies out the literal product factor by factor with Fraction
arithmetic, the sparse-series kernels and the series product run one
coefficient at a time, the divisor-sum oracles enumerate divisors
directly, the four-square oracle visits the lattice points of the sphere,
and the linear-algebra oracles are Gauss elimination over
Fraction and the Leibniz determinant.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import isqrt

import pytest

from convsum import eta
from convsum.qseries import QSeries


def mul_lists(a, b, precision):
    """Product of two coefficient lists, truncated at the precision."""
    out = [Fraction(0)] * (precision + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj and i + j <= precision:
                    out[i + j] += ai * bj
    return out


def literal_euler_product(delta, precision):
    """prod over n of (1 - q^{delta n}) multiplied out literally."""
    factor = [Fraction(0)] * (precision + 1)
    factor[0] = Fraction(1)
    for n in range(1, precision // delta + 1):
        binom = [Fraction(0)] * (precision + 1)
        binom[0] = Fraction(1)
        binom[delta * n] = Fraction(-1)
        factor = mul_lists(factor, binom, precision)
    return factor


def literal_euler_quotient(exponents, precision):
    """prod of literal Euler products F(q^delta)^r, as a Fraction list."""

    def invert(a):
        out = [Fraction(0)] * (precision + 1)
        out[0] = 1 / a[0]
        for n in range(1, precision + 1):
            acc = sum(a[k] * out[n - k] for k in range(1, n + 1))
            out[n] = -acc / a[0]
        return out

    result = [Fraction(0)] * (precision + 1)
    result[0] = Fraction(1)
    for delta, r in sorted(exponents.items()):
        if r == 0:
            continue
        factor = literal_euler_product(delta, precision)
        if r < 0:
            factor = invert(factor)
        for _ in range(abs(r)):
            result = mul_lists(result, factor, precision)
    return result


def literal_eta_expansion(level, exponents, precision):
    """q^e * prod of literal Euler products, as a Fraction list."""
    result = literal_euler_quotient(exponents, precision)
    shift = sum(d * r for d, r in exponents.items()) // 24
    shifted = [Fraction(0)] * (precision + 1)
    for i in range(precision + 1 - shift):
        shifted[i + shift] = result[i]
    return shifted


def naive_mul_sparse(dense, terms, limit):
    """dense * sum(c q^e for (e, c) in terms), one coefficient at a time."""
    out = [0] * (limit + 1)
    for e, c in terms:
        for i in range(limit + 1 - e):
            out[i + e] += c * dense[i]
    return out


def naive_div_sparse(dense, terms, limit):
    """dense / sum(c q^e for (e, c) in terms) by the coefficient recurrence;
    the terms must start with (0, 1)."""
    out = [0] * (limit + 1)
    for i in range(limit + 1):
        acc = dense[i]
        for e, c in terms:
            if e == 0:
                continue
            if e > i:
                break
            acc -= c * out[i - e]
        out[i] = acc
    return out


def naive_eta_expansion(eq, precision):
    """Integer expansion of an eta quotient with the per-coefficient kernels,
    one pentagonal step per unit of exponent, in divisor order."""
    dense = [1] + [0] * precision
    for d, r in eq.exponents:
        terms = eta._EULER.terms(d, precision)
        step = naive_mul_sparse if r > 0 else naive_div_sparse
        for _ in range(abs(r)):
            dense = step(dense, terms, precision)
    shift = sum(d * r for d, r in eq.exponents) // 24
    return ([0] * shift + dense)[:precision + 1]


def naive_series_mul(s, t):
    """Cauchy product of two series straight from the definition."""
    p = min(s.precision, t.precision)
    return QSeries(p, [sum(s.coeffs[i] * t.coeffs[n - i] for i in range(n + 1))
                       for n in range(p + 1)])


def sigma_by_full_scan(k, n):
    """Divisor power sum by scanning every candidate up to n."""
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def sigma1_sieve(limit):
    """sigma(n) for n = 0..limit by explicit divisor accumulation."""
    acc = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            acc[m] += d
    return acc


def literal_r4(n):
    """Four-square count by enumerating x1, x2, x3 with |x_i| <= sqrt(n)
    and testing whether the remainder is a square x4^2."""
    count = 0
    s1 = isqrt(n)
    for x1 in range(-s1, s1 + 1):
        r1 = n - x1 * x1
        s2 = isqrt(r1)
        for x2 in range(-s2, s2 + 1):
            r2 = r1 - x2 * x2
            s3 = isqrt(r2)
            for x3 in range(-s3, s3 + 1):
                r3 = r2 - x3 * x3
                x4 = isqrt(r3)
                if x4 * x4 == r3:
                    count += 1 if x4 == 0 else 2
    return count


def fraction_solve(columns, target):
    """Gauss elimination over Fraction of sum x_j columns[j] = target.

    Rows n = 0, 1, ... are taken greedily, each reduced against the
    normalised pivot rows in order, until full rank; back substitution then
    runs from the highest pivot column down.  Returns ("solved", rows,
    solution), ("singular", rows), or ("inconsistent", n, v, rows) when the
    constraint at q^n reduces to 0 = v.
    """
    m = len(columns)
    pivots, used = [], []
    for n in range(len(target)):
        if len(pivots) == m:
            break
        r = [Fraction(c[n]) for c in columns]
        rhs = Fraction(target[n])
        for col, prow, prhs in pivots:
            f = r[col]
            if f:
                r = [a - f * b for a, b in zip(r, prow)]
                rhs -= f * prhs
        col = next((i for i, a in enumerate(r) if a), None)
        if col is None:
            if rhs:
                return ("inconsistent", n, rhs, tuple(used))
            continue
        pivots.append((col, [a / r[col] for a in r], rhs / r[col]))
        used.append(n)
    if len(pivots) < m:
        return ("singular", tuple(used))
    solution = [Fraction(0)] * m
    for col, r, rhs in sorted(pivots, key=lambda t: -t[0]):
        solution[col] = rhs - sum(r[j] * solution[j] for j in range(col + 1, m))
    return ("solved", tuple(used), solution)


def literal_determinant(mat):
    """Leibniz sum over every permutation, signed by its inversion count."""
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j]
                           for i in range(n) for j in range(i + 1, n))
        for i, j in enumerate(perm):
            term *= mat[i][j]
        total += term
    return total


def partition_numbers(limit):
    """p(n) for n = 0..limit by the coin-change recurrence."""
    p = [0] * (limit + 1)
    p[0] = 1
    for part in range(1, limit + 1):
        for n in range(part, limit + 1):
            p[n] += p[n - part]
    return p


@pytest.fixture
def fresh_expansions(monkeypatch):
    """An empty expansion cache for one test, so every expansion runs at the
    precision requested instead of being cut from an earlier, longer one."""
    monkeypatch.setattr(eta, "_EXPANSION_CACHE", {})


@pytest.fixture(scope="session")
def sigma_table():
    return sigma1_sieve(1200)
