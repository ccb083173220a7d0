"""Eta-quotient q-expansions and the Newman-Ligozat membership test.

An eta quotient at level N is a finite product over the divisors of N of
integer powers of the eta function evaluated at multiples of the argument.
After substituting the nome it expands as ``q^e`` times a product of Euler
functions ``F(q^delta) = prod (1 - q^{delta n})``, where 24e is the
exponent-weighted divisor sum.  Negative powers divide by F, which is well
defined because F has constant term 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt
from operator import add, mul, sub

from . import tables
from .arith import divisors, prime_factors
from .qseries import QSeries


@dataclass(frozen=True)
class EtaQuotient:
    """Exponent map delta -> r_delta over the divisors of a level."""

    level: int
    exponents: tuple[tuple[int, int], ...]  # (divisor, exponent), ascending

    @classmethod
    def of(cls, level, exponents) -> EtaQuotient:
        """Build from a mapping {delta: r} or a row over ascending divisors."""
        if not isinstance(exponents, dict):
            divs = divisors(level)
            if len(exponents) != len(divs):
                raise ValueError(f"row of {len(exponents)} exponents for the "
                                 f"{len(divs)} divisors of level {level}")
            exponents = dict(zip(divs, exponents))
        items = tuple(sorted((d, r) for d, r in exponents.items() if r != 0))
        return cls(level, items)

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be positive")
        for d, _ in self.exponents:
            if d < 1 or self.level % d:
                raise ValueError(f"{d} does not divide level {self.level}")

    def exponent(self, delta: int) -> int:
        for d, r in self.exponents:
            if d == delta:
                return r
        return 0

    def as_row(self) -> tuple[int, ...]:
        return tuple(self.exponent(d) for d in divisors(self.level))

    @property
    def weight(self) -> Fraction:
        return Fraction(sum(r for _, r in self.exponents), 2)

    @property
    def leading_exponent(self) -> Fraction:
        return Fraction(sum(d * r for d, r in self.exponents), 24)


@dataclass(frozen=True)
class LigozatReport:
    """Outcome of the membership conditions for one eta quotient.

    cond_i / cond_ii are the divisor-weighted congruences mod 24, cond_iii
    asks the exponent product to be a rational square, cond_iv that the
    weight is an even integer, cond_v / cond_v_prime are the non-strict and
    strict positivity of the order at every cusp.
    """

    quotient: EtaQuotient
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    cond_iv: bool
    cond_v: bool
    cond_v_prime: bool
    weight: Fraction
    leading_exponent: Fraction
    cusp_orders: tuple[tuple[int, Fraction], ...]

    @property
    def in_modular_space(self) -> bool:
        return (self.cond_i and self.cond_ii and self.cond_iii
                and self.cond_iv and self.cond_v)

    @property
    def in_cusp_space(self) -> bool:
        return self.in_modular_space and self.cond_v_prime


def check_ligozat(eq: EtaQuotient) -> LigozatReport:
    """Evaluate all membership conditions exactly."""
    n = eq.level
    cond_i = sum(d * r for d, r in eq.exponents) % 24 == 0
    cond_ii = sum((n // d) * r for d, r in eq.exponents) % 24 == 0
    prime_parity: dict[int, int] = {}
    for d, r in eq.exponents:
        for p, e in prime_factors(d):
            prime_parity[p] = prime_parity.get(p, 0) + e * r
    cond_iii = all(e % 2 == 0 for e in prime_parity.values())
    w = eq.weight
    cond_iv = w.denominator == 1 and int(w) % 2 == 0
    orders = tuple(
        (c, sum((Fraction(gcd(d, c) ** 2, d) * r for d, r in eq.exponents),
                Fraction(0)))
        for c in divisors(n))
    cond_v = all(v >= 0 for _, v in orders)
    cond_v_prime = all(v > 0 for _, v in orders)
    return LigozatReport(eq, cond_i, cond_ii, cond_iii, cond_iv, cond_v,
                         cond_v_prime, w, eq.leading_exponent, orders)


# ---------------------------------------------------------------------------
# expansion machinery
#
# F(q^delta) has O(sqrt(P/delta)) nonzero terms with coefficients +-1 by the
# pentagonal-number expansion, and Jacobi's identity gives the cube
# F(q^delta)^3 = sum (-1)^k (2k+1) q^(delta k(k+1)/2) just as sparsely, so a
# dense integer series is multiplied or divided by either with one slice
# update per term instead of a convolution.  The literal product and the
# per-element kernels are kept in the test suite as independent oracles.

def _pentagonal_terms(delta: int, limit: int) -> list[tuple[int, int]]:
    """Nonzero terms (exponent, sign) of F(q^delta) up to the limit."""
    terms = [(0, 1)]
    k = 1
    while True:
        e1 = delta * k * (3 * k - 1) // 2
        e2 = delta * k * (3 * k + 1) // 2
        if e1 > limit and e2 > limit:
            break
        sign = -1 if k % 2 else 1
        if e1 <= limit:
            terms.append((e1, sign))
        if e2 <= limit:
            terms.append((e2, sign))
        k += 1
    terms.sort()
    return terms


def _jacobi_cube_terms(delta: int, limit: int) -> list[tuple[int, int]]:
    """Nonzero terms (exponent, coefficient) of F(q^delta)^3 up to the
    limit, by Jacobi's identity."""
    terms = []
    k = 0
    while delta * k * (k + 1) // 2 <= limit:
        terms.append((delta * k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
        k += 1
    return terms


def _add_scaled(acc, src, c: int):
    """acc + c * src elementwise, stopping at the shorter operand."""
    if c == 1:
        return map(add, acc, src)
    if c == -1:
        return map(sub, acc, src)
    return map(add, acc, map(mul, src, repeat(c)))


def _mul_sparse(dense: list[int], terms, limit: int) -> list[int]:
    """dense times the sparse series of (exponent, coefficient) terms."""
    size = min(len(dense), limit + 1)
    while size and not dense[size - 1]:  # trailing zeros add nothing
        size -= 1
    out = [0] * (limit + 1)
    for e, c in terms:
        if e <= limit:
            out[e:e + size] = _add_scaled(out[e:e + size], dense, c)
    return out


def _div_sparse(dense: list[int], terms, limit: int) -> list[int]:
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
            out[start:hi] = _add_scaled(out[start:hi], out[start - e:hi - e],
                                        -c)
        if short:
            for i in range(lo, hi):
                acc = out[i]
                for e, c in short:
                    if e > i:
                        break
                    acc -= c * out[i - e]
                out[i] = acc
    return out


# best-precision integer expansion per quotient; truncated views are served
# from it, so repeated requests at mixed precisions expand only once
_EXPANSION_CACHE: dict[EtaQuotient, tuple[int, list[int]]] = {}


def _expand_ints(eq: EtaQuotient, precision: int) -> list[int]:
    cached = _EXPANSION_CACHE.get(eq)
    if cached is not None and cached[0] >= precision:
        return cached[1][:precision + 1]
    e24 = sum(d * r for d, r in eq.exponents)
    if e24 % 24:
        raise ValueError(
            f"exponent-weighted divisor sum {e24} is not divisible by 24; "
            "the expansion is not a power series in q")
    e = e24 // 24
    if e < 0:
        raise ValueError(f"negative leading exponent {e}")
    # positive powers first: a division applied early grows partition-like
    # intermediates (432 bits at precision 5000), while this order keeps
    # them within 32 bits.  |r| = 3a + b runs as a Jacobi cube steps and b
    # pentagonal steps.
    dense = [1] + [0] * precision
    for d, r in sorted(eq.exponents, key=lambda dr: dr[1] < 0):
        step = _mul_sparse if r > 0 else _div_sparse
        cubes, singles = divmod(abs(r), 3)
        for terms, count in ((_jacobi_cube_terms(d, precision), cubes),
                             (_pentagonal_terms(d, precision), singles)):
            for _ in range(count):
                dense = step(dense, terms, precision)
    if e:
        dense = ([0] * e + dense)[:precision + 1]
    _EXPANSION_CACHE[eq] = (precision, dense)
    return dense[:]


def expand(eq: EtaQuotient, precision: int) -> QSeries:
    """q-expansion of the quotient, exact integer coefficients.

    Requires an integral, non-negative leading exponent; the first nonzero
    coefficient is then 1 at that exponent.
    """
    return QSeries(precision, _expand_ints(eq, precision))


def table_rows(level: int) -> tuple[EtaQuotient, ...]:
    """The embedded cusp-basis exponent rows, in table order."""
    if level not in tables.CUSP_EXPONENTS:
        raise ValueError(f"no table for level {level}; have 44 and 52")
    return tuple(EtaQuotient.of(level, row)
                 for row in tables.CUSP_EXPONENTS[level])


def basis_rows(level: int) -> tuple[EtaQuotient, ...]:
    """The cusp rows the closed forms are expanded over: the printed table,
    except that at level 52 the dependent row is swapped for a strict one,
    without which the rows and the Eisenstein series do not span the space."""
    rows = table_rows(level)
    if level == 52:
        i = tables.REPAIRED_ROW_INDEX_52 - 1
        rows = (rows[:i] + (EtaQuotient.of(52, tables.REPAIRED_ROW_52),)
                + rows[i + 1:])
    return rows
