"""Truncated formal power series with exact integer coefficients.

A :class:`QSeries` holds the coefficients of ``sum c(n) q^n`` for
``0 <= n <= precision``.  Every series the library builds is integral (eta
quotients, the Eisenstein series L and M, products and dilations of them),
so coefficients are Python ints; rationals appear only inside the linear
solve of :mod:`convsum.spaces`.  An operation never reports a coefficient
beyond the smaller operand precision, so every coefficient returned is the
true one.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, index, mul
from typing import Iterable


class QSeries:
    """Immutable truncated power series with int coefficients."""

    __slots__ = ("precision", "coeffs")

    def __init__(self, precision: int, coeffs: Iterable[int] = ()):
        if precision < 1:
            raise ValueError(f"precision must be >= 1, got {precision}")
        # operator.index rejects Fraction and float coefficients outright
        cs = list(map(index, coeffs))
        if len(cs) > precision + 1:
            raise ValueError(
                f"{len(cs)} coefficients exceed precision {precision}")
        cs.extend([0] * (precision + 1 - len(cs)))
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -- basic protocol ----------------------------------------------------

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.precision:
            raise IndexError(f"coefficient index {n} outside [0, {self.precision}]")
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.precision == other.precision and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.precision, self.coeffs))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.precision > 5 else ""
        return f"QSeries(P={self.precision}, [{head}{tail}])"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: QSeries) -> QSeries:
        p = min(self.precision, other.precision)
        return QSeries(p, [a + b for a, b in
                           zip(self.coeffs[:p + 1], other.coeffs[:p + 1])])

    def __sub__(self, other: QSeries) -> QSeries:
        p = min(self.precision, other.precision)
        return QSeries(p, [a - b for a, b in
                           zip(self.coeffs[:p + 1], other.coeffs[:p + 1])])

    def scale(self, c: int) -> QSeries:
        return QSeries(self.precision, [c * x for x in self.coeffs])

    def __mul__(self, other: QSeries) -> QSeries:
        p = min(self.precision, other.precision)
        a, b = self.coeffs[:p + 1], other.coeffs[:p + 1]
        # iterate over the sparser operand in the outer loop
        if sum(1 for x in a if x) > sum(1 for x in b if x):
            a, b = b, a
        out = [0] * (p + 1)
        for i, ai in enumerate(a):
            if ai:
                out[i:] = map(add, out[i:], map(mul, b, repeat(ai)))
        return QSeries(p, out)

    def dilate(self, t: int) -> QSeries:
        """Substitute q -> q^t, keeping the precision."""
        if t < 1:
            raise ValueError(f"dilation factor must be >= 1, got {t}")
        out = [0] * (self.precision + 1)
        out[::t] = self.coeffs[:self.precision // t + 1]
        return QSeries(self.precision, out)
