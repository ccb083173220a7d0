"""Truncated formal power series with exact integer coefficients, and the
integer-series kernels.

A :class:`QSeries` holds the coefficients of ``sum c(n) q^n`` for
``0 <= n <= precision``.  Every series the library builds is integral (eta
quotients, the Eisenstein series L and M, products and dilations of them),
so coefficients are Python ints; rationals appear only inside the linear
solve of :mod:`convsum.spaces`.  An operation never reports a coefficient
beyond the smaller operand precision, so every coefficient returned is the
true one.  This module is the only one that packs, multiplies, divides or
combines integer series, and so the one that lays out a packed row;
:mod:`convsum.eta` plans its expansions, makes each with one call of
:func:`sparse_product`, which divides with :func:`div_sparse` too, and
reads it with :func:`unpack`; :mod:`convsum.convolution` adds every term
of a closed form, sigma tables too, in one :func:`combine_packed` call.

Products run on Kronecker-packed ints (D. Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", JSC 2009): n
coefficients c_k become the one int sum c_k 2^(Bk) with B = 8w bits per
w-byte slot.  Sums, multiples and products of such ints are exact on the
slots while every coefficient of the result stays below 2^(B-1) in size,
which an a-priori bound proves before each step runs, on the narrowest
slots that allow it.  A dense product is bounded by min(nonzero a,
nonzero b) max|a| max|b|, and its first n slots are read.  A sparse
product keeps its slots in reversed order, slot j holding the
coefficient of q^(limit-j), so a term c q^e is the exact shifted sum
c (x >> Be) plus c when the slots the shift drops are negative: the
shift cuts each term to the slots it feeds.  Each factor is bounded by
the smaller of the product of the absolute coefficient sums multiplied
in so far and Cauchy-Schwarz over a running bound on its sum of
squares.  A sparse product stays packed from its first factor to its
slot bytes, the record (data, w), which carries no bound.  Rows pass as
slot bytes, made by :func:`pack` and read by :func:`unpack`; only the
kernels that multiply or add join them into ints.  Slots change width,
order or place by one strided byte copy per byte column, w per
coefficient instead of the about 36 of a list.  :func:`combine_packed`
adds sum m_j c_j over such rows, each placed at q^e, q^(e+g), ..., on the
slots that sum |m_j| top_j needs, top_j the :func:`slot_bound` of the
slots of c_j it reads (a power of two within 2x of their largest, read
from the bytes); every slot is biased to be unsigned, and the sum is
unpacked once.
"""

from __future__ import annotations

import struct
from math import isqrt
from operator import index

_SIGN = bytes(128) + b"\xff" * 128  # a slot's top byte -> its sign byte
_BITS = bytes(b.bit_length() for b in range(256))  # a byte -> its bit length


def slot_width(bound: int) -> int:
    """Bytes per slot for signed values of absolute value at most bound."""
    return (bound.bit_length() + 8) // 8


def _offset(n: int, w: int) -> int:
    """The int whose n w-byte slots each hold 2^(8w-1): XOR with it flips
    a slot between signed and biased to be unsigned."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _slots(x: int, n: int, w: int) -> bytes:
    """The first n w-byte slots of x as signed little-endian bytes."""
    off = _offset(n, w)
    return (((x + off) & ((1 << 8 * w * n) - 1)) ^ off).to_bytes(
        n * w, "little")


def _joined(data, n: int, w: int) -> int:
    """The int whose n w-byte slots hold the signed bytes data."""
    off = _offset(n, w)
    return (int.from_bytes(data, "little") ^ off) - off


def _copy(data, n: int, w: int, v: int, size: int | None = None,
          start: int = 0, step: int = 1) -> bytearray:
    """size (default n) zero v-byte slots, onto whose slots start,
    start + step, ... the first n signed w-byte slots of data are written,
    cut or sign-extended to v bytes: one strided byte copy per column."""
    out = bytearray((n if size is None else size) * v)
    sign = data[w - 1:n * w:w].translate(_SIGN)
    for i in range(v):
        out[start * v + i::step * v] = data[i:n * w:w] if i < w else sign
    return out


def pack(coeffs, w: int) -> bytes:
    """coeffs on signed w-byte slots; OverflowError if one does not fit."""
    n = len(coeffs)
    try:
        if w > 8:
            return b"".join(c.to_bytes(w, "little", signed=True)
                            for c in coeffs)
        wide = struct.pack(f"<{n}q", *coeffs)
    except (OverflowError, struct.error) as exc:
        raise OverflowError(f"a coefficient exceeds {w} bytes") from exc
    data = _copy(wide, n, 8, w)
    if _copy(data, n, w, 8) != wide:
        raise OverflowError(f"a coefficient exceeds {w} bytes")
    return bytes(data)


def unpack(data, n: int, w: int) -> list[int]:
    """The first n signed w-byte slots of data."""
    if w > 8:
        return [int.from_bytes(data[i:i + w], "little", signed=True)
                for i in range(0, n * w, w)]
    return list(struct.unpack(f"<{n}q", _copy(data, n, w, 8)))


def dense_product(a, b, n: int, packs=None) -> list[int]:
    """The first n coefficients of a b, one big-int product of the packed
    int sequences; packs, a dict, keeps b packed by slot width.  A slot of
    the product sums at most min(nonzero a, nonzero b) nonzero products;
    the bound with each factor at least 1 covers the operands too."""
    nonzero = max(1, min(len(a) - a.count(0), len(b) - b.count(0)))
    w = slot_width(nonzero * max(1, *map(abs, a)) * max(1, *map(abs, b)))
    x, packs = _joined(pack(a, w), len(a), w), {} if packs is None else packs
    if w not in packs:  # b is a: a square, the squaring path
        packs[w] = x if b is a else _joined(pack(b, w), len(b), w)
    return unpack(_slots(x * packs[w], n, w), n, w)


def slot_bound(data, w: int) -> int:
    """A power of two in [max|c|, 2 max|c|] over the signed w-byte slots c
    of data (1 if every c is 0 or -1): XOR with its sign byte makes each c
    c or -c - 1, whose largest has the bit length of the largest byte in
    the highest byte column where that is nonzero, found by membership in
    the column's bytes mapped to their bit lengths."""
    sign = data[w - 1::w].translate(_SIGN)
    for i in reversed(range(w)):
        if (column := data[i::w]) != sign:
            xor = (int.from_bytes(column, "little")
                   ^ int.from_bytes(sign, "little"))
            bits = xor.to_bytes(len(sign), "little").translate(_BITS)
            return 1 << 8 * i + next(b for b in range(8, 0, -1) if b in bits)
    return 1


def combine_packed(n: int, terms) -> list[int]:
    """The first n coefficients of sum m c over the terms (m, data, w, e,
    g): c has the signed w-byte slots of data, placed at q^e, q^(e+g), ...
    below q^n; only the slots placed there are read.  The sum runs on the
    v-byte slots that sum |m| slot_bound(read slots) needs.  Each term is
    copied onto zero v-byte slots and biased by XOR, so that every slot
    reads as c + 2^(8v-1), as an empty one does; sum m times the bias is
    subtracted once, at the end."""
    reads = [len(range(e, n, g)) for *_, e, g in terms]
    v = slot_width(sum(abs(m) * slot_bound(data[:k * w], w)
                       for (m, data, w, _, _), k in zip(terms, reads)))
    acc, off = 0, _offset(n, v)
    for (m, data, w, e, g), k in zip(terms, reads):
        wide = _copy(data, k, w, v, n, e, g)
        acc += m * (int.from_bytes(wide, "little") ^ off)
    acc -= sum(m for m, *_ in terms) * off
    return unpack(_slots(acc, n, v), n, v)


def mul_packed(x: int, terms, n: int, w: int) -> int:
    """x times the sparse series of ascending (exponent, coefficient)
    terms, both on n w-byte slots in reversed order: slot j holds the
    coefficient of q^(n-1-j), so q^e x is x >> 8we, which drops the slots
    past q^(n-1); a term past q^(n-1) adds nothing.  The shift floors, so
    a term is 1 too low exactly when the slots it drops are negative,
    which, with every slot of x below 2^(8w-1) in size, is when bit
    8we - 1 of x is set; those terms' coefficients are added once.  The
    terms are added from the highest exponent, the shortest int, down."""
    bits, raw = 8 * w, x.to_bytes(n * w, "little", signed=True)
    acc = sum(c for e, c in terms if 0 < e < n and raw[e * w - 1] > 127)
    for e, c in reversed(terms):
        if e >= n:
            continue
        if c == 1:
            acc += x >> bits * e
        elif c == -1:
            acc -= x >> bits * e
        else:
            acc += c * (x >> bits * e)
    return acc


def sparse_product(factors, denominators,
                   limit: int) -> tuple[bytes, int]:
    """(data, w): the sparse series in factors multiplied, then divided by
    each in denominators, all lists of ascending (exponent, coefficient)
    terms up to q^limit, as limit + 1 signed w-byte slots.  The longest
    factor is written into its slots in reversed order, the others
    multiplied in by mul_packed on the narrowest slots for the running
    bound, re-slotted wider, in bytes, when the bound grows; the slots are
    read once, back in ascending order.  A quotient is divided by
    div_sparse and re-packed on the slots of its exact max.

    Two integer bounds run over the product x so far: top >= max|x| and
    sq >= ||x||_2^2.  A factor t makes top the smaller of top ||t||_1 and
    isqrt(sq ||t||_2^2) (Cauchy-Schwarz on each coefficient), then sq the
    smaller of sq ||t||_1^2 (Young's inequality) and n top^2."""
    n = limit + 1
    first, *rest = sorted(factors, key=len, reverse=True) or [[(0, 1)]]
    top = max(abs(c) for _, c in first)
    sq = sum(c * c for _, c in first)
    w = slot_width(top)
    data = bytearray(n * w)
    try:
        for e, c in first:
            if e > limit:
                break
            j = (limit - e) * w
            data[j:j + w] = c.to_bytes(w, "little", signed=True)
    except OverflowError as exc:
        raise OverflowError(f"a coefficient exceeds {w} bytes") from exc
    x = _joined(data, n, w)
    for terms in rest:
        l1 = sum(abs(c) for _, c in terms)
        top = min(top * l1, isqrt(sq * sum(c * c for _, c in terms)))
        sq = min(sq * l1 * l1, n * top * top)
        if (wider := slot_width(top)) > w:
            x = _joined(_copy(_slots(x, n, w), n, w, wider), n, wider)
            w = wider
        x = mul_packed(x, terms, n, w)
    data = bytes(_copy(_slots(x, n, w), n, w, w, n, n - 1, -1))
    if denominators:
        dense = unpack(data, n, w)
        for terms in denominators:
            dense = div_sparse(dense, terms, limit)
        w = slot_width(max(map(abs, dense)))
        data = pack(dense, w)
    return data, w


def div_sparse(dense: list[int], terms, limit: int) -> list[int]:
    """dense divided by the sparse series of (exponent, coefficient) terms,
    whose constant term must be (0, 1), up to q^limit: by the coefficient
    recurrence out[i] = dense[i] - sum c out[i - e] over the lags e > 0,
    which the terms list in ascending order."""
    lags = [(e, c) for e, c in terms if 0 < e <= limit]
    out = dense[:limit + 1]
    for i in range(limit + 1):
        acc = out[i]
        for e, c in lags:
            if e > i:
                break
            acc -= c * out[i - e]
        out[i] = acc
    return out


class QSeries:
    """Immutable truncated power series with int coefficients; coeffs may
    be any iterable of ints up to precision + 1 long, and is stored as a
    tuple padded with zeros."""

    __slots__ = ("precision", "coeffs")

    def __init__(self, precision: int, coeffs=()):
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

    def __setattr__(self, name, value=None):
        raise AttributeError(f"QSeries is immutable; cannot set or delete {name}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        # coeffs holds precision + 1 entries, so it decides the precision too
        return (self.coeffs == other.coeffs if isinstance(other, QSeries)
                else NotImplemented)

    def __hash__(self):
        return hash((self.precision, self.coeffs))

    def __repr__(self):
        return f"QSeries(precision={self.precision!r}, coeffs={self.coeffs!r})"

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return type(self), (self.precision, self.coeffs)

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.precision:
            raise IndexError(f"coefficient index {n} outside [0, {self.precision}]")
        return self.coeffs[n]

    def __mul__(self, other: QSeries) -> QSeries:
        p = min(self.precision, other.precision)
        return QSeries(p, dense_product(self.coeffs[:p + 1],
                                        other.coeffs[:p + 1], p + 1))

    def dilate(self, t: int) -> QSeries:
        """Substitute q -> q^t, keeping the precision."""
        if t < 1:
            raise ValueError(f"dilation factor must be >= 1, got {t}")
        out = [0] * (self.precision + 1)
        out[::t] = self.coeffs[:self.precision // t + 1]
        return QSeries(self.precision, out)
