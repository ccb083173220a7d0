"""Convolution sums of the divisor function: brute force and closed forms.

The convolution sum of a pair (alpha, beta) at n adds sigma(l) * sigma(m)
over all non-negative l, m with alpha*l + beta*m = n; terms with a zero
part vanish because sigma(0) = 0.  ``w_oracle`` evaluates this directly,
``w_series_oracle`` tabulates it for every n with one series product per
residue class, and
``w_closed_table`` evaluates the exact closed forms for the four pairs with
alpha * beta in {44, 52} in integers for every n up to a bound, straight
from the expansion of the squared Eisenstein combination of the pair,
rewritten through frozen exact relations over eta quotients that all
expand without a division; ``w_closed`` reads one entry of that table.
Closed-form output is always checked for integrality and non-negativity
before being returned.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mod, mul

from . import eta, tables
from .arith import (divisors, residue_class, sigma_factored_table, sigma_k,
                    sigma_table)
from .qseries import combine_packed, dense_product


class IntegralityError(ArithmeticError):
    """A closed form produced a non-integral or negative value."""


def w_oracle(alpha: int, beta: int, n: int) -> int:
    """Brute-force convolution sum at n >= 0 (0 for n < alpha + beta)."""
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be positive")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return sum(sigma_k(1, l) * sigma_k(1, (n - alpha * l) // beta)
               for l in residue_class(alpha, beta, n, 1, (n - beta) // alpha))


def w_series_oracle(alpha: int, beta: int, max_n: int) -> list[int]:
    """Convolution sums for n = 0..max_n as one series product per residue
    class, with sigma by factorization (``arith.sigma_factored_table``).

    Only the n = g n' with g = gcd(alpha, beta) have solutions: those of
    a l + b j = n' for the reduced pair a <= b, up to m = max_n // g.  Split
    l = b i + r by its class r mod b; then n' = a r + b (a i + j), so the
    sums at n' = a r + b t, t < k = m // b + 1, are the first k coefficients
    of the series sum sigma(b i + r) y^(a i) in y = q^b times
    sum_(j < k) sigma(j) y^j: one product at precision k - 1 per class.
    Below k = 2 every sum is 0 (t = 0 pairs sigma(r) with sigma(0)).
    """
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be positive")
    if max_n < 0:
        raise ValueError(f"need n >= 0, got {max_n}")
    g = gcd(alpha, beta)
    a, b = sorted((alpha // g, beta // g))
    m = max_n // g
    k = m // b + 1
    out = [0] * (max_n + 1)
    if k == 1:
        return out
    sig = sigma_factored_table(1, m // a)
    other, packs = sig[:k], {}
    for r in range(min(b, m // a + 1)):  # a r <= m
        own, band = sig[r::b], [0] * k
        band[:a * len(own):a] = own
        ns = range(g * a * r, max_n + 1, g * b)
        product = dense_product(band, other, k, packs)
        out[ns.start::ns.step] = product[:len(ns)]
    return out


def w_closed(pair: tuple[int, int], n: int) -> int:
    """Closed-form convolution sum at n >= 0: entry n of ``w_closed_table``."""
    return w_closed_table(pair, n)[n]


def _numerators(s3_coeffs, cusp_weights) -> tuple:
    """(den, s, Y): the weights as integer numerators over the lcm den of
    their denominators."""
    den = lcm(*(c.denominator for c in (*s3_coeffs, *cusp_weights)))
    return den, *([c.numerator * (den // c.denominator) for c in part]
                  for part in (s3_coeffs, cusp_weights))


def _division_free(level: int, s3_coeffs, cusp_weights) -> tuple:
    """(den, s, Y, rows): an expansion over ``eta.basis_rows`` rewritten
    over ``eta.evaluation_rows``, as integer numerators over the lcm den of
    the rewritten weights' denominators.  The weight y of each row that a
    relation of ``tables.DIVISION_FREE_ROWS`` replaces moves onto the
    relation's terms: 240 y x_t / d onto the sigma_3 coefficient of t,
    y x_j / d onto the cusp weight of row j."""
    rows = eta.evaluation_rows(level)
    relations = tables.DIVISION_FREE_ROWS.get(level, {})
    # numerators over den * big, big the lcm of the relations' denominators
    den, s3, y = _numerators(s3_coeffs, cusp_weights)
    big = lcm(*(d for _, _, d, _ in relations.values()))
    moved = {i: y[i - 1] * (big // d) for i, (_, _, d, _) in relations.items()}
    s3, y = [v * big for v in s3], [v * big for v in y]
    for i in relations:
        y[i - 1] = 0
    for i, (_, _, _, nums) in relations.items():
        if len(nums) != len(s3) + len(y):
            raise eta.BasisError(
                f"DIVISION_FREE_ROWS[{level}][{i}]: {len(nums)} relation "
                f"terms for an expansion of {len(s3) + len(y)}")
        for t, x in enumerate(nums[:len(s3)]):
            s3[t] += 240 * x * moved[i]
        for j, x in enumerate(nums[len(s3):]):
            y[j] += x * moved[i]
    g = gcd(den * big, *s3, *y)
    return den * big // g, [v // g for v in s3], [v // g for v in y], rows


def w_closed_table(pair: tuple[int, int], max_n: int,
                   expansion=None) -> list[int]:
    """Closed-form values for n = 0..max_n (index 0 is 0 by convention).

    The closed form is ``eisenstein.rhs_identity`` solved for W,

        1152 a b W(n) = 240 a^2 sigma_3(n/a) + 240 b^2 sigma_3(n/b)
                        + 48 a (b - 6n) sigma(n/a) + 48 b (a - 6n) sigma(n/b)
                        - sum_d s_d sigma_3(n/d) - sum_j Y_j c_j(n),

    where s_d (over the ascending divisors d of a b) and Y_j are the
    expansion of the square of the pair over the basis with cusp rows c_j.
    ``expansion`` is (s, Y, rows), and must hold one s_d per divisor and
    one Y_j per row.  It defaults to ``tables.EXPANSION_COEFFS``, which is
    over ``eta.basis_rows``, rewritten through the frozen relations of
    ``tables.DIVISION_FREE_ROWS`` over ``eta.evaluation_rows``, none of
    which expands with a division.  Every term is scaled by the lcm of the
    expansion's denominators, so the sum runs in integers from sigma_3 /
    sigma sieves and the cusp expansions, which are read packed from the
    expansion cache and added in one ``qseries.combine_packed`` call; each
    scaled value must then be a non-negative multiple of 1152 a b times
    that lcm.
    """
    if max_n < 0:
        raise ValueError(f"need n >= 0, got {max_n}")
    a, b = pair
    if expansion is None:
        if (a, b) not in tables.EXPANSION_COEFFS:
            raise ValueError(f"closed form unavailable for {(a, b)}")
        den, s3_nums, cusp_nums, rows = _division_free(
            a * b, *tables.EXPANSION_COEFFS[(a, b)])
    else:
        s3_coeffs, cusp_weights, rows = expansion
        den, s3_nums, cusp_nums = _numerators(s3_coeffs, cusp_weights)
    ds = divisors(a * b)
    if (len(s3_nums), len(cusp_nums)) != (len(ds), len(rows)):
        raise ArithmeticError(
            f"closed form for {(a, b)}: {len(s3_nums)} sigma_3 coefficients "
            f"for {len(ds)} divisors, {len(cusp_nums)} cusp weights for "
            f"{len(rows)} rows")
    acc = [0] * (max_n + 1)
    s3 = sigma_table(3, max_n)
    own = {a: 240 * a * a, b: 240 * b * b}
    for d, s in zip(ds, s3_nums):
        c = own.get(d, 0) * den - s
        acc[d::d] = map(add, acc[d::d], map(mul, s3[1:], repeat(c)))
    s1 = sigma_table(1, max_n)
    for d, other in ((a, b), (b, a)):
        # 48 d (other - 6 n) sigma(n / d) at n = d m
        c0, c1 = 48 * d * other * den, -288 * d * d * den
        acc[d::d] = map(add, acc[d::d], [(c0 + c1 * m) * s1[m]
                                         for m in range(1, max_n // d + 1)])
    acc = combine_packed(acc, [(-y, *eta.expand_packed(row, max_n))
                               for y, row in zip(cusp_nums, rows)])
    scale = 1152 * a * b * den
    if any(map(mod, acc, repeat(scale))) or min(acc) < 0:
        n = next(n for n, v in enumerate(acc) if v % scale or v < 0)
        raise IntegralityError(
            f"closed form for {(a, b)} evaluates to {Fraction(acc[n], scale)} "
            f"at n = {n}")
    return [v // scale for v in acc]
