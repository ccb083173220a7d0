"""Eta-quotient q-expansions and the Newman-Ligozat membership test.

An eta quotient at level N is a finite product over the divisors of N of
integer powers of the eta function evaluated at multiples of the argument.
After substituting the nome it expands as ``q^e`` times a product of Euler
functions ``F(q^delta) = prod (1 - q^{delta n})``, where 24e is the
exponent-weighted divisor sum.  Negative powers divide by F, which is well
defined because F has constant term 1.  The closed forms divide by none:
they are evaluated over ``evaluation_rows``, where a division-free quotient
stands in for each basis row that would divide.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, sqrt
from operator import sub
from typing import Callable, NamedTuple

from . import tables
from .arith import divisors, prime_factors
from .qseries import QSeries, sparse_product, unpack


class BasisError(ArithmeticError):
    """Basis data failed a structural check: shape or independence."""


class EtaQuotient(NamedTuple("EtaQuotient", [
        ("level", int), ("exponents", tuple[tuple[int, int], ...])])):
    """Exponent map delta -> r_delta as (delta, r_delta), delta ascending."""

    __slots__ = ()

    @classmethod
    def of(cls, level, row) -> EtaQuotient:
        """Build from a row of exponents over the ascending divisors."""
        divs = divisors(level)
        if len(row) != len(divs):
            raise ValueError(f"row of {len(row)} exponents for the "
                             f"{len(divs)} divisors of level {level}")
        return cls(level, tuple((d, r) for d, r in zip(divs, row) if r))

    def __new__(cls, level: int, exponents: tuple[tuple[int, int], ...]):
        if level < 1:
            raise ValueError("level must be positive")
        for d, _ in exponents:
            if d < 1 or level % d:
                raise ValueError(f"{d} does not divide level {level}")
        return super().__new__(cls, level, exponents)

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


class LigozatReport(NamedTuple):
    """Outcome of the membership conditions for one eta quotient.

    cond_i / cond_ii are the divisor-weighted congruences mod 24, cond_iii
    asks the exponent product to be a rational square, cond_iv that the
    weight is an even integer, cond_v / cond_v_prime are the non-strict and
    strict positivity of the order at every cusp.
    """

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


@lru_cache(maxsize=64)
def check_ligozat(eq: EtaQuotient) -> LigozatReport:
    """Evaluate all membership conditions exactly; cached, as the closed
    path checks its division-free rows on every call."""
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
        (c, Fraction(sum(gcd(d, c) ** 2 * (n // d) * r
                         for d, r in eq.exponents), n))
        for c in divisors(n))
    cond_v = all(v >= 0 for _, v in orders)
    cond_v_prime = all(v > 0 for _, v in orders)
    return LigozatReport(cond_i, cond_ii, cond_iii, cond_iv, cond_v,
                         cond_v_prime, w, eq.leading_exponent, orders)


# ---------------------------------------------------------------------------
# expansion machinery
#
# Every expansion is q^e times a product of Euler functions F(q^d); when
# all the d share a factor g, the product is a series in q^g and is
# expanded to P/g and dilated.  The divisors fall into chains d, 2d, 4d, ...
# with one odd d each, and on a chain some quotients of Euler functions are
# sparse theta series (R. J. Lemke Oliver, "Eta-quotients and theta
# functions", Adv. Math. 241 (2013)), with O(sqrt(P/d)) terms below q^P:
#
#   phi(-q) = F^2 / F(q^2)                 psi(q)  = F(q^2)^2 / F
#   phi(q)  = F(q^2)^5 / (F^2 F(q^4)^2)    psi(-q) = F F(q^4) / F(q^2)
#   F^5 / F(q^2)^2 = sum (6n+1) q^(n(3n+1)/2)
#   F(q^2)^5 / F^2 = sum (-1)^n (3n+1) q^(n(3n+2))
#
# and so are F (Euler's pentagonal numbers) and F^3 (Jacobi).  A product is
# planned here and computed by the kernels of convsum.qseries:
#
# 1. Plan.  On each chain, up to three theta series cancel the negative
#    exponents, and cubes and single F cover the non-negative rest; of the
#    plans, the one with the fewest divisions left, then the fewest terms.
#    Each quotient is planned once per process.
# 2. Multiply the steps, their term lists built once per process, and divide
#    by any single F the plan left, in one qseries.sparse_product call.
# 3. Cache the slot bytes it returns as they are, read with qseries.unpack
#    where they are placed, at q^e, q^(e+g), ...
#
# The literal product and the per-coefficient kernels are kept in the test
# suite as independent oracles.

def _sign(n: int) -> int:
    return -1 if n & 1 else 1


class _Factor(NamedTuple):
    """A sparse series on a chain F(q^d), F(q^2d), F(q^4d), ...

    ``vector`` holds the exponents it puts on the chain from F(q^d) on; the
    series is the sum of coeff(n) q^(d (a n^2 + b n) / 2) over n >= 0, or
    over all integers n if it is two-sided.
    """

    vector: tuple[int, ...]
    a: int
    b: int
    coeff: Callable[[int], int]
    two_sided: bool

    def terms(self, d: int, limit: int) -> list[tuple[int, int]]:
        """Nonzero terms (exponent, coefficient) up to the limit, ascending."""
        out = []
        for n, step in ((0, 1), (-1, -1))[:1 + self.two_sided]:
            while (e := d * (self.a * n * n + self.b * n) // 2) <= limit:
                out.append((e, self.coeff(n)))
                n += step
        return sorted(out)

    def cost(self, d: int) -> float:
        """Terms below q^P, in units of sqrt(P)."""
        return (1 + self.two_sided) * sqrt(2 / (self.a * d))


_EULER = _Factor((1,), 3, -1, _sign, True)
_CUBE = _Factor((3,), 1, 1, lambda n: _sign(n) * (2 * n + 1), False)
_THETAS = (
    _Factor((2, -1), 2, 0, lambda n: 2 * _sign(n) if n else 1, False),
    _Factor((-1, 2), 1, 1, lambda n: 1, False),
    _Factor((-2, 5, -2), 2, 0, lambda n: 2 if n else 1, False),
    _Factor((1, -1, 1), 1, 1, lambda n: _sign(n * (n + 1) // 2), False),
    _Factor((5, -2), 3, 1, lambda n: 6 * n + 1, True),
    _Factor((-2, 5), 6, 4, lambda n: _sign(n) * (3 * n + 1), True),
)


def _plan_chain(chain, exps):
    """Multiplication steps (factor, d) and the d of each single F(q^d) to
    divide by, for the product of F(q^d)^r over one chain: theta series for
    the negative exponents, then cubes and single F(q^d) for what is left."""
    steps, rest = _thetas(chain, exps) if min(exps) < 0 else ([], exps)
    for d, r in zip(chain, rest):
        if r > 0:
            steps += [(_CUBE, d)] * (r // 3) + [(_EULER, d)] * (r % 3)
    return steps, [d for d, r in zip(chain, rest) for _ in range(-r)]


def _thetas(chain, exps):
    """The theta steps (factor, d) of the cheapest plan for a chain with a
    negative exponent, and the exponents they leave."""
    single = [_EULER.cost(d) for d in chain]
    cube = [_CUBE.cost(d) for d in chain]
    placed = []  # (factor, d, vector, its negative positions, cost)
    for f in _THETAS:
        for i in range(len(chain) - len(f.vector) + 1):
            v = (0,) * i + f.vector + (0,) * (len(chain) - i - len(f.vector))
            neg = tuple(k for k, x in enumerate(v) if x < 0)
            placed.append((f, chain[i], v, neg, f.cost(chain[i])))

    def node(used, rest):
        """(key, rest): the key is (divisions, their cost, multiplication
        cost) of the theta series used and the exponents they leave."""
        divs, div_cost, theta_cost, rest_cost = 0, 0, 0, 0
        for j in used:
            theta_cost += placed[j][4]
        for r, c1, c3 in zip(rest, single, cube):
            if r < 0:
                divs -= r
                div_cost += -r * c1
            elif r > 0:
                rest_cost += r // 3 * c3 + r % 3 * c1
        return (divs, div_cost, theta_cost + rest_cost), rest

    # breadth first over multisets of up to three theta series, each of
    # which cancels a negative exponent; no deeper once some plan divides
    # nowhere
    nodes = {(): node((), tuple(exps))}
    frontier = nodes
    for _ in range(3):
        if any(key[0] == 0 for key, _ in nodes.values()):
            break
        grown = {}
        for used, (_, rest) in frontier.items():
            for j, (_, _, v, neg, _) in enumerate(placed):
                new = tuple(sorted(used + (j,)))
                if (new not in nodes and new not in grown
                        and any(rest[k] < 0 for k in neg)):
                    grown[new] = node(new, tuple(map(sub, rest, v)))
        nodes.update(grown)
        frontier = grown
    used, (_, rest) = min(nodes.items(), key=lambda item: item[1][0])
    return [(placed[j][0], placed[j][1]) for j in used], rest


@lru_cache(maxsize=64)
def _plan(eq: EtaQuotient):
    """(g, steps, divisors): the Euler product of the quotient is a series
    in q^g, the gcd of its divisors; as a series in x = q^g it is the
    product of the multiplication steps (factor, d), divided by the single
    F(x^d) of each divisor d listed.  Cached: each quotient is planned once
    per process."""
    g = gcd(*(d for d, _ in eq.exponents)) or 1
    chains: dict[int, list[int]] = {}
    for d in divisors(eq.level // g):
        chains.setdefault(d // (d & -d), []).append(d)
    steps, divs = [], []
    for chain in chains.values():
        s, dv = _plan_chain(chain, [eq.exponent(g * d) for d in chain])
        steps += s
        divs += dv
    return g, tuple(steps), tuple(divs)


# step (factor, d) -> (limit, terms) to the longest limit yet; <= 64 keys
_TERMS: dict[tuple[_Factor, int], tuple[int, list[tuple[int, int]]]] = {}


def _terms(factor: _Factor, d: int, limit: int) -> list[tuple[int, int]]:
    """factor.terms(d, limit), cut from the longest list built for it."""
    built, terms = _TERMS.get((factor, d), (-1, None))
    if built < limit:
        if len(_TERMS) >= 64:
            _TERMS.clear()
        _TERMS[factor, d] = limit, (terms := factor.terms(d, limit))
    return [t for t in terms if t[0] <= limit]


# best-precision expansion per quotient as (precision, data, w, top, e, g),
# the precision first, where the benchmark tracer reads it; truncated views
# are served from it, so mixed precisions expand only once
_EXPANSION_CACHE: dict[EtaQuotient, tuple] = {}


def expand_packed(eq: EtaQuotient, precision: int) -> tuple:
    """(data, w, top, e, g): the cached expansion, to the precision or
    beyond, as the record (data, w, top) of qseries.sparse_product for its
    coefficients at q^e, q^(e+g), ..."""
    cached = _EXPANSION_CACHE.get(eq)
    if cached is None or cached[0] < precision:
        e24 = sum(d * r for d, r in eq.exponents)
        if e24 % 24:
            raise ValueError(
                f"exponent-weighted divisor sum {e24} is not divisible by "
                "24; the expansion is not a power series in q")
        e = e24 // 24
        if e < 0:
            raise ValueError(f"negative leading exponent {e}")
        data, w, top, g = b"", 1, 1, 1  # no coefficient below q^e
        if precision >= e:
            # the planned quotient, a series in x = q^g, below x^(limit + 1)
            g, steps, divs = _plan(eq)
            limit = (precision - e) // g
            data, w, top = sparse_product(
                [_terms(*s, limit) for s in steps],
                [_terms(_EULER, d, limit) for d in divs], limit)
        cached = _EXPANSION_CACHE[eq] = (precision, data, w, top, e, g)
    return cached[1:]


def expand(eq: EtaQuotient, precision: int) -> QSeries:
    """q-expansion of the quotient, exact integer coefficients.

    Requires an integral, non-negative leading exponent; the first nonzero
    coefficient is then 1 at that exponent.
    """
    data, w, _, e, g = expand_packed(eq, precision)
    out = [0] * (precision + 1)
    out[e::g] = unpack(data, len(range(e, precision + 1, g)), w)
    return QSeries(precision, out)


def _embedded(name: str, level: int, row) -> EtaQuotient:
    """A row of the embedded tables; malformed, it fails the basis check."""
    try:
        return EtaQuotient.of(level, row)
    except ValueError as exc:
        raise BasisError(f"{name}: {exc}") from None


def cusp_table(level: int) -> tuple[tuple[int, ...], ...]:
    """The embedded cusp-basis exponent rows of the level, unchecked."""
    if level not in tables.CUSP_EXPONENTS:
        raise ValueError(f"no table for level {level}; have "
                         + " and ".join(map(str, tables.levels())))
    return tables.CUSP_EXPONENTS[level]


def table_row(level: int, i: int) -> EtaQuotient:
    """Row i, counted from 1, of the embedded cusp-basis table."""
    return _embedded(f"CUSP_EXPONENTS[{level}] row {i}", level,
                     cusp_table(level)[i - 1])


def table_rows(level: int) -> tuple[EtaQuotient, ...]:
    """The embedded cusp-basis exponent rows, in table order."""
    return tuple(table_row(level, i)
                 for i in range(1, len(cusp_table(level)) + 1))


def basis_rows(level: int) -> tuple[EtaQuotient, ...]:
    """The cusp rows the closed forms are expanded over: the printed table
    with the level's ``tables.REPAIRED_ROWS`` swapped in to span the space."""
    rows = list(table_rows(level))
    for i, row in tables.REPAIRED_ROWS.get(level, {}).items():
        rows[i - 1] = _embedded(f"REPAIRED_ROWS[{level}][{i}]", level, row)
    return tuple(rows)


def evaluation_rows(level: int) -> tuple[EtaQuotient, ...]:
    """The cusp rows the closed forms are evaluated over: ``basis_rows``
    with the level's ``tables.DIVISION_FREE_ROWS`` swapped in.  A swap
    whose replaced row is no longer that basis row, or whose quotient is
    not a weight-4 form of the level or plans a division, is a BasisError."""
    rows = list(basis_rows(level))
    for i, (old, new, _, _) in tables.DIVISION_FREE_ROWS.get(
            level, {}).items():
        name = f"DIVISION_FREE_ROWS[{level}][{i}]"
        now = rows[i - 1].as_row() if 0 < i <= len(rows) else None
        if now != tuple(old):
            raise BasisError(f"{name}: basis row {i} is {now}, not {old}")
        row = _embedded(name, level, new)
        rep = check_ligozat(row)
        if not rep.in_modular_space or rep.weight != 4:
            raise BasisError(f"{name}: {new} is not a weight-4 form of "
                             f"level {level}")
        if _plan(row)[2]:
            raise BasisError(f"{name}: {new} expands with a division")
        rows[i - 1] = row
    return tuple(rows)


def rows_label(level: int, rows: tuple[EtaQuotient, ...]) -> str:
    """Reports call the table rows "printed" and any others "repaired"."""
    return "printed" if rows == table_rows(level) else "repaired"
