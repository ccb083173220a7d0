"""Convolution sums of the divisor function: brute force and closed forms.

The convolution sum of a pair (alpha, beta) at n adds sigma(l) * sigma(m)
over all non-negative l, m with alpha*l + beta*m = n; terms with a zero
part vanish because sigma(0) = 0.  ``w_oracle`` evaluates this directly,
``w_series_oracle`` tabulates the same double sum for every n at once, and
``w_closed_table`` evaluates the exact closed forms for the four pairs with
alpha * beta in {44, 52} in integers for every n up to a bound;
``w_closed`` reads one entry of that table.  Closed-form output is always
checked for integrality and non-negativity before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, mod, mul

from . import eta, tables
from .arith import divisors, sigma_k, sigma_table
from .eisenstein import EisensteinPair
from .spaces import CoefficientSolution

EVALUATED_PAIRS = ((1, 44), (4, 11), (1, 52), (4, 13))


class IntegralityError(ArithmeticError):
    """A closed form produced a non-integral or negative value."""


def w_oracle(alpha: int, beta: int, n: int) -> int:
    """Brute-force convolution sum; total in n (0 for n < alpha + beta)."""
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be positive")
    total = 0
    l = 1
    while alpha * l <= n - beta:
        rest = n - alpha * l
        if rest % beta == 0:
            total += sigma_k(1, l) * sigma_k(1, rest // beta)
        l += 1
    return total


def w_series_oracle(alpha: int, beta: int, precision: int) -> list[int]:
    """Convolution sums for n = 0..precision as the literal double sum of
    sigma(l) * sigma(m) over alpha*l + beta*m = n, one slice of l per m."""
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be positive")
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    sig = [sigma_k(1, l) for l in range(precision // alpha + 1)]
    out = [0] * (precision + 1)
    for m in range(1, (precision - alpha) // beta + 1):
        start = alpha + beta * m
        out[start::alpha] = map(add, out[start::alpha],
                                map(mul, sig[1:], repeat(sigma_k(1, m))))
    return out


@dataclass(frozen=True)
class ConvolutionFormula:
    """Exact closed form: sigma_3 weights per divisor, linear sigma terms
    (delta, c0, c1) meaning (c0 + c1*n) * sigma(n/delta), and weights on the
    cusp expansions listed in ``cusp_rows``."""

    pair: EisensteinPair
    sigma3_terms: tuple[tuple[int, Fraction], ...]
    sigma1_terms: tuple[tuple[int, Fraction, Fraction], ...]
    cusp_terms: tuple[Fraction, ...]
    cusp_rows: tuple[eta.EtaQuotient, ...]

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """Every rational weight of the formula."""
        return (tuple(c for _, c in self.sigma3_terms)
                + tuple(c for _, c0, c1 in self.sigma1_terms for c in (c0, c1))
                + self.cusp_terms)


def _formula(pair: tuple[int, int], sigma3_coeffs, cusp_weights,
             cusp_rows: tuple[eta.EtaQuotient, ...]) -> ConvolutionFormula:
    """Rearrange the expansion of the squared Eisenstein combination of a
    pair, given by its sigma_3 coefficients 240 * X_delta over the ascending
    divisors of the level and its cusp weights Y_j, into the closed form for
    the convolution sum of the pair."""
    a, b = pair
    denom = 1152 * a * b
    # solving eisenstein.rhs_identity for W: its sigma_3 terms
    # 240 a^2 sigma_3(n/a) + 240 b^2 sigma_3(n/b) less the expansion's,
    # over 1152 a b
    own = {a: 240 * a * a, b: 240 * b * b}
    s3 = tuple((d, (own.get(d, 0) - c) / denom)
               for d, c in zip(divisors(a * b), sigma3_coeffs))
    lin = ((a, Fraction(1, 24), Fraction(-1, 4 * b)),
           (b, Fraction(1, 24), Fraction(-1, 4 * a)))
    return ConvolutionFormula(
        pair=EisensteinPair(a, b),
        sigma3_terms=s3,
        sigma1_terms=lin,
        cusp_terms=tuple(-y / denom for y in cusp_weights),
        cusp_rows=cusp_rows,
    )


def closed_form(pair: tuple[int, int]) -> ConvolutionFormula:
    """The canonical exact closed form for one of the four covered pairs,
    over the printed rows at level 44 and the repaired rows at level 52."""
    pair = tuple(pair)
    if pair not in tables.EXPANSION_COEFFS:
        raise ValueError(f"closed form unavailable for {pair}")
    level = pair[0] * pair[1]
    rows = eta.repaired_table_rows() if level == 52 else eta.table_rows(level)
    return _formula(pair, *tables.EXPANSION_COEFFS[pair], rows)


def reported_closed_form(pair: tuple[int, int]) -> ConvolutionFormula:
    """The closed form of the previously reported expansion, over the
    printed rows; retained for comparison (the level-52 variants do not
    evaluate correctly)."""
    pair = tuple(pair)
    return _formula(pair, *tables.REPORTED_EXPANSION_COEFFS[pair],
                    eta.table_rows(pair[0] * pair[1]))


def formula_from_solution(solution: CoefficientSolution) -> ConvolutionFormula:
    """The closed form for the convolution sum of a solved pair."""
    s3 = solution.sigma3_presentation()
    return _formula((solution.pair.alpha, solution.pair.beta),
                    [s3[d] for d in sorted(s3)], solution.cusp_weights,
                    solution.cusp_rows)


def w_closed(pair: tuple[int, int], n: int) -> int:
    """Closed-form convolution sum at n >= 0: entry n of ``w_closed_table``."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return w_closed_table(pair, n)[n]


def w_closed_table(pair: tuple[int, int], max_n: int,
                   formula: ConvolutionFormula | None = None) -> list[int]:
    """Closed-form values for n = 0..max_n (index 0 is 0 by convention).

    The formula is scaled once by the common denominator of its weights, so
    every term is an integer: the sigma_3 and sigma tables spread over the
    multiples of each divisor, plus the cusp expansions.  Each scaled value
    must then be a non-negative multiple of the denominator.
    """
    if max_n < 1:
        closed_form(pair)  # still validate the pair
        return [0][:max_n + 1]
    if formula is None:
        formula = closed_form(pair)
    den = lcm(*(c.denominator for c in formula.weights))
    acc = [0] * (max_n + 1)
    s3 = sigma_table(3, max_n)
    for d, c in formula.sigma3_terms:
        acc[d::d] = map(add, acc[d::d], map(mul, s3[1:], repeat(int(c * den))))
    s1 = sigma_table(1, max_n)
    for d, c0, c1 in formula.sigma1_terms:
        # (c0 + c1 n) sigma(n / d) at n = d m
        a0, a1 = int(c0 * den), int(c1 * den) * d
        acc[d::d] = map(add, acc[d::d], [(a0 + a1 * m) * s1[m]
                                         for m in range(1, max_n // d + 1)])
    for c, row in zip(formula.cusp_terms, formula.cusp_rows):
        acc = list(map(add, acc, map(mul, eta.expand(row, max_n).coeffs,
                                      repeat(int(c * den)))))
    acc[0] = 0
    if any(map(mod, acc, repeat(den))) or min(acc) < 0:
        n = next(n for n, v in enumerate(acc) if v % den or v < 0)
        raise IntegralityError(
            f"closed form for {pair} evaluates to {Fraction(acc[n], den)} "
            f"at n = {n}")
    return [v // den for v in acc]
