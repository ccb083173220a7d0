"""Weight-2 and weight-4 Eisenstein q-series and the squared-combination identity.

``series_L`` is the normalized weight-2 series ``1 - 24 sum sigma(n) q^n``
and ``series_M`` the weight-4 series ``1 + 240 sum sigma_3(n) q^n``.  For
coprime alpha < beta the square of ``alpha L(q^alpha) - beta L(q^beta)`` is
a weight-4 form on Gamma0(alpha*beta), and expanding the square termwise
expresses its coefficients through divisor sums and the convolution sum of
the pair; ``rhs_identity`` builds that expansion from supplied convolution
values so the two sides can be compared coefficient by coefficient.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from operator import add, mul
from typing import Callable, NamedTuple

from .arith import sigma_factored_table, sigma_table
from .qseries import QSeries


class EisensteinPair(NamedTuple("EisensteinPair",
                                [("alpha", int), ("beta", int)])):
    """Coprime dilation factors alpha < beta."""

    __slots__ = ()

    def __new__(cls, alpha: int, beta: int):
        if alpha < 1 or beta < 1:
            raise ValueError("alpha and beta must be positive")
        if gcd(alpha, beta) != 1:
            raise ValueError(
                f"alpha and beta must be coprime, got ({alpha}, {beta})")
        if alpha >= beta:
            raise ValueError(f"need alpha < beta, got ({alpha}, {beta})")
        return super().__new__(cls, alpha, beta)

    @property
    def level(self) -> int:
        return self.alpha * self.beta


def series_L(precision: int) -> QSeries:
    """1 - 24 sum sigma(n) q^n."""
    return QSeries(precision, [1] + [-24 * s for s in
                                     sigma_table(1, precision)[1:]])


def series_M(precision: int) -> QSeries:
    """1 + 240 sum sigma_3(n) q^n."""
    return QSeries(precision, [1] + [240 * s for s in
                                     sigma_table(3, precision)[1:]])


def lhs_square(pair: EisensteinPair, precision: int) -> QSeries:
    """(alpha L(q^alpha) - beta L(q^beta))^2, exactly."""
    l = series_L(precision).coeffs
    coeffs = [0] * (precision + 1)
    for t, c in ((pair.alpha, pair.alpha), (pair.beta, -pair.beta)):
        coeffs[::t] = map(add, coeffs[::t], map(mul, l, repeat(c)))
    combo = QSeries(precision, coeffs)
    return combo * combo


def rhs_identity(pair: EisensteinPair, w_values: Callable[[int], int],
                 precision: int) -> QSeries:
    """The termwise expansion of the square through convolution sums.

    ``w_values(n)`` must return the exact convolution sum of the pair at n.
    Its divisor sums come from one factorization table per order.
    """
    a, b = pair.alpha, pair.beta
    coeffs = [(a - b) ** 2] + [-1152 * a * b * w_values(n)
                               for n in range(1, precision + 1)]
    s1, s3 = (sigma_factored_table(k, max(precision, 0) // a) for k in (1, 3))
    for d, other in ((a, b), (b, a)):
        # 240 d^2 sigma_3(n / d) + 48 d (other - 6 n) sigma(n / d) at n = d m
        coeffs[d::d] = map(add, coeffs[d::d], [
            240 * d * d * s3[m] + 48 * d * (other - 6 * d * m) * s1[m]
            for m in range(1, precision // d + 1)])
    return QSeries(precision, coeffs)
