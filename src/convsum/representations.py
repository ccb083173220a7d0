"""Representation counts by sums of four squares and by the octonary forms.

``r4`` counts integer solutions of a sum of four squares; the closed form
is 8 sigma(n) - 32 sigma(n/4) (with value 1 at n = 0), and the enumeration
oracle counts lattice points of the disc x^2 + y^2 <= n and convolves the
two-square counts.  The octonary count for the form
a*(four squares) + b*(four squares) follows from the factorization of its
generating function: the count is a convolution of two r4 values, which the
closed form re-expresses through divisor sums and convolution sums.  Each
function checks its own arguments and raises ``ValueError``.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from operator import mul
from typing import Callable

from . import convolution, tables
from .arith import residue_class, sigma_k

WProvider = Callable[[int, int, int], int]


def r4_jacobi(n: int) -> int:
    """Four-square count via the divisor-sum identity."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n == 0:
        return 1
    return 8 * sigma_k(1, n) - 32 * (sigma_k(1, n // 4) if n % 4 == 0 else 0)


@lru_cache(maxsize=None)
def _r4_count(n: int) -> int:
    """r4(n) as the sum of r2(j) r2(n - j), with r2 tallied from every
    lattice point (x, y) with x^2 + y^2 <= n: each point with x, y >= 0
    stands for its 1, 2 or 4 sign variants."""
    r2 = [0] * (n + 1)
    for x in range(isqrt(n) + 1):
        xx, signs = x * x, 2 if x else 1
        r2[xx] += signs
        for y in range(1, isqrt(n - xx) + 1):
            r2[xx + y * y] += 2 * signs
    return sum(map(mul, r2, reversed(r2)))


def r4_enumerate(n: int) -> int:
    """Lattice count: the points of the disc x^2 + y^2 <= n give r2, whose
    self-convolution at n is r4(n)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _r4_count(n)


def rep_count_enumerate(a: int, b: int, n: int) -> int:
    """Octonary count as sum of r4(l) * r4(m) over a*l + b*m = n.

    Exact for any positive (a, b); an eight-variable count without
    eight-dimensional enumeration.
    """
    if a < 1 or b < 1:
        raise ValueError("form coefficients must be positive")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return sum(_r4_count(l) * _r4_count((n - a * l) // b)
               for l in residue_class(a, b, n, 0, n // a))


def default_w_provider(b: int, max_n: int) -> WProvider:
    """Convolution-sum source for the closed octonary count with pair (1, b).

    The (1, b) sums come from the series oracle; the (4, b) and (1, 4b)
    sums from the exact closed forms.
    """
    series = {(1, b): convolution.w_series_oracle(1, b, max_n)}
    for pair in ((4, b), (1, 4 * b)):
        series[pair] = convolution.w_closed_table(pair, max_n)

    def w(alpha: int, beta: int, n: int) -> int:
        return series[(alpha, beta)][n]

    return w


def rep_count_closed(a: int, b: int, n: int, w: WProvider | None = None) -> int:
    """Closed-form octonary count for (a, b) in ``tables.closed_form_pairs``.

    The terms r4(n) r4(0) and r4(0) r4(n/b) come from ``r4_jacobi``; the
    rest are convolution sums.  Values at n/4 and n/b follow the divisor-sum
    convention: they vanish unless 4 | n and b | n.
    """
    if (a, b) not in tables.closed_form_pairs():
        raise ValueError(f"closed form unavailable for ({a}, {b}); "
                         f"supported: {tables.closed_form_pairs()}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n == 0:
        return 1
    if w is None:
        w = default_w_provider(b, n)
    w_quarter = w(1, b, n // 4) if n % 4 == 0 else 0
    value = (r4_jacobi(n) + (r4_jacobi(n // b) if n % b == 0 else 0)
             + 64 * w(1, b, n) + 1024 * w_quarter
             - 256 * (w(4, b, n) + w(1, 4 * b, n)))
    if value < 0:
        raise ArithmeticError(
            f"negative representation count {value} at {(a, b, n)}")
    return value
