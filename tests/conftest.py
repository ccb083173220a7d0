"""Shared oracles for the test suite.

The oracles here deliberately avoid the library's fast paths: the eta
oracle multiplies out the literal product factor by factor with Fraction
arithmetic, the sparse-series kernels and the series product run one
coefficient at a time, and the divisor-sum oracles enumerate divisors
directly.
"""

from __future__ import annotations

from fractions import Fraction

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
