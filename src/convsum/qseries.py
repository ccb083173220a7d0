"""Truncated formal power series with exact integer coefficients.

A :class:`QSeries` holds the coefficients of ``sum c(n) q^n`` for
``0 <= n <= precision``.  Every series the library builds is integral (eta
quotients, the Eisenstein series L and M, products and dilations of them),
so coefficients are Python ints; rationals appear only inside the linear
solve of :mod:`convsum.spaces`.  An operation never reports a coefficient
beyond the smaller operand precision, so every coefficient returned is the
true one.

Products run on Kronecker-packed ints: n coefficients c_k become the one int
sum c_k 2^(8wk) with w-byte slots.  Modulo 2^(8wn) this maps series
truncated below q^n to integers as a ring homomorphism, so the packed
product is the product packed, exact by construction once an a-priori bound
puts every coefficient of the result below 2^(8w-1).  Packing and unpacking
add 2^(8w-1) to every slot, which makes every digit non-negative, and read
or write all slots in one bytes pass.
"""

from __future__ import annotations

import struct
import sys
from operator import index
from typing import Iterable


def slot_width(bound: int) -> int:
    """Bytes per slot for signed values of absolute value at most bound;
    at least 8, so that 8-byte slots unpack with one memoryview cast."""
    return max(8, (bound.bit_length() + 8) // 8)


def _offsets(n: int, w: int) -> int:
    """2^(8w-1) in each of n slots of w bytes."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, sys.byteorder)


def pack(coeffs, w: int) -> int:
    """The ints coeffs as one int with w-byte slots."""
    if w == 8:
        data = struct.pack(f"={len(coeffs)}q", *coeffs)
    else:
        data = b"".join(c.to_bytes(w, sys.byteorder, signed=True)
                        for c in coeffs)
    off = _offsets(len(coeffs), w)
    return (int.from_bytes(data, sys.byteorder) ^ off) - off


def unpack(x: int, n: int, w: int) -> list[int]:
    """The first n slots of x, or of any int congruent to it modulo
    2^(8wn)."""
    off = _offsets(n, w)
    data = (((x + off) & ((1 << 8 * w * n) - 1)) ^ off).to_bytes(
        n * w, sys.byteorder)
    if w == 8:
        return memoryview(data).cast("q").tolist()
    return [int.from_bytes(data[i:i + w], sys.byteorder, signed=True)
            for i in range(0, n * w, w)]


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
        """One big-int product of the packed operands.  A slot of the full
        product sums at most p + 1 coefficient products, which bounds the
        slot width; the bound with maxima at least 1 covers the operands."""
        p = min(self.precision, other.precision)
        a, b = self.coeffs[:p + 1], other.coeffs[:p + 1]
        w = slot_width((p + 1) * max(1, *map(abs, a)) * max(1, *map(abs, b)))
        x = pack(a, w)
        y = x if b is a else pack(b, w)  # a square takes the squaring path
        return QSeries(p, unpack(x * y, p + 1, w))

    def dilate(self, t: int) -> QSeries:
        """Substitute q -> q^t, keeping the precision."""
        if t < 1:
            raise ValueError(f"dilation factor must be >= 1, got {t}")
        out = [0] * (self.precision + 1)
        out[::t] = self.coeffs[:self.precision // t + 1]
        return QSeries(self.precision, out)
