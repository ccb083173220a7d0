"""Truncated formal power series with exact integer coefficients, and the
integer-series kernels.

A :class:`QSeries` holds the coefficients of ``sum c(n) q^n`` for
``0 <= n <= precision``.  Every series the library builds is integral (eta
quotients, the Eisenstein series L and M, products and dilations of them),
so coefficients are Python ints; rationals appear only inside the linear
solve of :mod:`convsum.spaces`.  An operation never reports a coefficient
beyond the smaller operand precision, so every coefficient returned is the
true one.  This module is the only one that packs, multiplies or divides
integer series; :mod:`convsum.eta` plans its expansions and calls
:func:`sparse_product` and :func:`div_sparse`.

Products run on Kronecker-packed ints (D. Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", JSC 2009): n
coefficients c_k become the one int sum c_k 2^(Bk) with B = 8w bits per
w-byte slot.  Modulo 2^(Bn) this maps series truncated below q^n to
integers as a ring homomorphism, so the packed product is the product
packed, and only the result must fit its slots: exact by construction once
an a-priori bound puts every coefficient of the result below 2^(B-1).  A
dense product is bounded by (P+1) max|a| max|b|; a product of sparse series,
each step run as sum c (X << e B), by the product of the steps' absolute
coefficient sums.  Packing and unpacking add 2^(B-1) to every slot, which
makes every digit non-negative, and read or write all slots in one bytes
pass.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from itertools import repeat
from math import isqrt, prod
from operator import add, index, mul, sub


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


def mul_packed(x: int, terms, n: int, w: int) -> int:
    """x times the sparse series of (exponent, coefficient) terms, modulo
    2^(8wn), i.e. on n slots of w bytes: one shift-add per term."""
    bits = 8 * w
    acc = 0
    for e, c in terms:
        y = x << e * bits
        if c == 1:
            acc += y
        elif c == -1:
            acc -= y
        else:
            acc += c * y
    return acc & ((1 << bits * n) - 1)


def sparse_product(factors, limit: int) -> list[int]:
    """The product of the sparse series in factors, each a list of
    (exponent, coefficient) terms, below q^(limit + 1): every step on one
    packed int, with the slot width from the product of the factors'
    absolute coefficient sums, and one unpacking."""
    w = slot_width(prod(sum(abs(c) for _, c in t) for t in factors))
    x = 1
    for terms in factors:
        x = mul_packed(x, terms, limit + 1, w)
    return unpack(x, limit + 1, w)


def div_sparse(dense: list[int], terms, limit: int) -> list[int]:
    """dense divided by the sparse series of (exponent, coefficient) terms,
    whose constant term must be (0, 1).

    The quotient is filled in blocks of length max(smallest exponent,
    isqrt(limit + 1)).  A lag at least the block length reads only entries
    of earlier blocks, which are final, so it updates the whole block with
    one slice operation; only the shorter lags run element by element.
    """
    lags = [(e, c) for e, c in terms if 0 < e <= limit]
    out = dense[:limit + 1]
    if not lags:
        return out
    block = max(lags[0][0], isqrt(limit + 1))
    short = [(e, c) for e, c in lags if e < block]
    long = [(e, c) for e, c in lags if e >= block]
    for lo in range(0, limit + 1, block):
        hi = min(lo + block, limit + 1)
        for e, c in long:
            if e >= hi:
                break
            start = max(lo, e)
            lag = out[start - e:hi - e]
            out[start:hi] = map(add if c < 0 else sub, out[start:hi],
                                lag if c in (1, -1)
                                else map(mul, lag, repeat(abs(c))))
        if short:
            for i in range(lo, hi):
                acc = out[i]
                for e, c in short:
                    if e > i:
                        break
                    acc -= c * out[i - e]
                out[i] = acc
    return out


@dataclass(frozen=True, slots=True)
class QSeries:
    """Immutable truncated power series with int coefficients; coeffs may
    be any iterable of ints up to precision + 1 long, and is stored as a
    tuple padded with zeros."""

    precision: int
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        if self.precision < 1:
            raise ValueError(f"precision must be >= 1, got {self.precision}")
        # operator.index rejects Fraction and float coefficients outright
        cs = list(map(index, self.coeffs))
        if len(cs) > self.precision + 1:
            raise ValueError(
                f"{len(cs)} coefficients exceed precision {self.precision}")
        cs.extend([0] * (self.precision + 1 - len(cs)))
        object.__setattr__(self, "coeffs", tuple(cs))

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.precision:
            raise IndexError(f"coefficient index {n} outside [0, {self.precision}]")
        return self.coeffs[n]

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.precision > 5 else ""
        return f"QSeries(P={self.precision}, [{head}{tail}])"

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
