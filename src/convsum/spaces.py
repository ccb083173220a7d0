"""Bases of the weight-4 form spaces and exact coefficient derivation.

The space at level N splits into an Eisenstein part, spanned by the dilated
weight-4 series M(q^t) for t | N, and the cusp part, spanned here by eta
quotients.  One fraction-free row reduction over Python ints (Bareiss 1968)
serves both exact computations: ``verify_independence`` reads the cusp
determinant from its last pivot, and ``derive_coefficients`` expresses the
squared Eisenstein combination of a pair over the basis with it, scanning
coefficient constraints greedily from n = 0 upward until the system reaches
full rank and re-verifying the solution in integers against every
available coefficient.  The same residual check, with no solve, is how
``verify lemma32`` checks the relations of ``tables.DIVISION_FREE_ROWS``
past the Sturm bound.  Rationals appear only in the returned weights.

For level 52 the embedded table rows together with the Eisenstein series
satisfy a linear relation and the squared combination lies outside their
span, so the derivation over the printed rows (``eta.table_rows``) raises
:class:`InconsistentSystemError`; the default rows, ``eta.basis_rows``,
swap one dependent row for an independent admissible quotient, after which
the solution exists and is unique.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import islice, repeat
from operator import add, mul
from typing import NamedTuple

from . import eta
from .arith import dim_spaces, divisors, sigma_factored_table
from .eisenstein import EisensteinPair, lhs_square, series_M
from .eta import BasisError
from .qseries import QSeries


class DerivationError(ArithmeticError):
    """Coefficient derivation could not produce a verified solution."""


class SingularSystemError(DerivationError):
    """The coefficient system never reached full rank."""


class InconsistentSystemError(DerivationError):
    """A coefficient constraint is incompatible with the basis span."""


class SpaceBasis(NamedTuple):
    """Eisenstein and cusp q-expansions for one level, at one precision."""

    level: int
    divisors: tuple[int, ...]
    eisenstein_part: tuple[QSeries, ...]
    cusp_part: tuple[QSeries, ...]
    cusp_rows: tuple[eta.EtaQuotient, ...]
    precision: int

    @property
    def dimension(self) -> int:
        return len(self.eisenstein_part) + len(self.cusp_part)


def build_basis(level: int, precision: int,
                cusp_rows: tuple[eta.EtaQuotient, ...] | None = None) -> SpaceBasis:
    """Assemble the basis expansions; rows default to ``eta.basis_rows``."""
    if cusp_rows is None:
        cusp_rows = eta.basis_rows(level)
    dim_m, dim_e, dim_s = dim_spaces(level, 4)
    if len(cusp_rows) != dim_s:
        raise BasisError(
            f"{len(cusp_rows)} cusp rows for dim S = {dim_s} at level {level}")
    if precision < dim_m:
        raise ValueError(
            f"precision {precision} below space dimension {dim_m}")
    divs = divisors(level)
    m = series_M(precision)
    eis = tuple(m.dilate(t) for t in divs)
    cusp = tuple(eta.expand(row, precision) for row in cusp_rows)
    for i, s in enumerate(cusp):
        if s[0] != 0:
            raise BasisError(f"cusp expansion {i + 1} has a constant term")
    return SpaceBasis(level, divs, eis, cusp, tuple(cusp_rows), precision)


# ---------------------------------------------------------------------------
# fraction-free elimination and the independence check

def _row_reduce(rows: Iterable[Sequence[int]]) -> Iterator[tuple]:
    """Greedy fraction-free row reduction over Python ints (Bareiss 1968).

    Each row is reduced against the pivot rows in the order they were found:
    with p the pivot entry of a pivot row and d that of the one before it (1
    for the first), the step r <- (p r - r[col] prow) / d divides exactly.
    A reduced row is the row Gauss elimination leaves, times the last pivot,
    which is the leading minor of the pivot rows.  A row left nonzero becomes
    a pivot at its first nonzero entry; yields (row index, column, row) for
    each pivot as it is found, so the caller can stop at any rank.
    """
    pivots: list[tuple[int, Sequence[int]]] = []
    for i, row in enumerate(rows):
        d = 1
        for col, prow in pivots:
            p, f = prow[col], row[col]
            row = [(p * a - f * b) // d for a, b in zip(row, prow)]
            d = p
        col = next((j for j, a in enumerate(row) if a), None)
        if col is not None:
            pivots.append((col, row))
            yield i, col, row


def verify_independence(basis: SpaceBasis) -> int:
    """Exact determinant of the leading cusp minor, after the Eisenstein check.

    The determinant of [c_j(n)] for n = 1..dim S must be nonzero.  Each
    built Eisenstein column M(q^u) must hold 1 at q^0 and 240 sigma_3(n/u)
    at every q^n up to the precision, with sigma_3 from one table by
    factorization, not from the sieve that built it; the system matrix
    [sigma_3(t/u)] over the ascending divisors is then unit lower
    triangular.  Either failure raises BasisError.
    """
    dim_s = len(basis.cusp_part)
    if basis.precision < dim_s:
        raise ValueError("precision below cusp dimension")
    pivots = list(_row_reduce(s.coeffs[1:dim_s + 1] for s in basis.cusp_part))
    if len(pivots) < dim_s:
        raise BasisError(
            f"leading {dim_s}x{dim_s} cusp minor is singular at level {basis.level}")
    # the last pivot is the minor with its columns permuted to pivot order
    cols = [col for _, col, _ in pivots]
    odd = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:]) % 2
    det = (-1) ** odd * (pivots[-1][2][cols[-1]] if pivots else 1)
    s3 = sigma_factored_table(3, basis.precision)
    for u, column in zip(basis.divisors, basis.eisenstein_part):
        expected = [0] * (basis.precision + 1)
        expected[::u] = [1] + [240 * s for s in s3[1:basis.precision // u + 1]]
        if column.coeffs != tuple(expected):
            raise BasisError(
                "Eisenstein system matrix is not unit lower triangular")
    return det


# ---------------------------------------------------------------------------
# coefficient derivation

class CoefficientSolution(NamedTuple):
    """Exact expansion weights of a squared Eisenstein combination;
    ``solution[:2]`` has the shape of a ``tables.EXPANSION_COEFFS`` entry."""

    sigma3: tuple[Fraction, ...]         # 240 X_delta over ascending delta
    cusp_weights: tuple[Fraction, ...]   # Y_j in basis order
    solving_indices: tuple[int, ...]


def _solve(columns: Sequence[Sequence[int]], target: Sequence[int],
           where: str) -> tuple[tuple[int, ...], list[int], int]:
    """Solve sum x_j columns[j] = target over greedy rows n = 0, 1, ...;
    returns the solving rows, the numerators of x and their denominator."""
    m = len(columns)
    rows = ([c[n] for c in columns] + [target[n]] for n in range(len(target)))
    pivots: list[tuple[int, Sequence[int]]] = []
    used: list[int] = []
    den = 1
    for n, col, r in islice(_row_reduce(rows), m):
        if col == m:
            raise InconsistentSystemError(
                f"{where}: the coefficient constraint at q^{n} reduces to "
                f"0 = {Fraction(r[m], den)} over rows {tuple(used)}; the "
                "squared combination is not in the span of this basis")
        pivots.append((col, r))
        used.append(n)
        den = r[col]
    if len(pivots) < m:
        raise SingularSystemError(
            f"rank {len(pivots)} of {m} after scanning n <= {len(target) - 1} "
            f"(rows used: {tuple(used)})")
    # a pivot row is zero at earlier pivots' columns: solve from the last up
    x = [0] * m
    for col, r in reversed(pivots):
        x[col] = (den * r[m] - sum(map(mul, r, x))) // r[col]
    return tuple(used), x, den


def _check_residual(columns: Sequence[Sequence[int]], x: Sequence[int],
                    den: int, target: Sequence[int], item: str) -> None:
    """The reconstruction from the numerators is a sum of integer columns
    and must equal den * target coefficient by coefficient."""
    acc = [0] * len(target)
    for xj, column in zip(x, columns):
        acc = list(map(add, acc, map(mul, column, repeat(xj))))
    bad = next((n for n, (v, t) in enumerate(zip(acc, target))
                if v != den * t), None)
    if bad is not None:
        raise DerivationError(
            f"reconstruction residual at q^{bad} for {item}")


def derive_coefficients(pair: EisensteinPair,
                        basis: SpaceBasis) -> CoefficientSolution:
    """Solve for the unique expansion of lhs_square over the basis.

    The columns of the system are the basis series and row n holds their
    q^n coefficients; at n = 0 every Eisenstein series contributes 1 and
    every cusp expansion 0, which pins sum X_delta to (alpha - beta)^2.
    Rows are taken greedily at n = 0, 1, 2, ... until full rank and reduced
    fraction-free; the integer numerators over the common denominator are
    then checked against every coefficient up to the basis precision, not
    only the solving rows, and only the returned weights are Fractions.
    """
    if pair.level != basis.level:
        raise ValueError(
            f"pair level {pair.level} does not match basis level {basis.level}")
    precision = basis.precision
    if precision < 2 * basis.dimension:
        raise ValueError(
            f"precision {precision} leaves no residual headroom; "
            f"need at least {2 * basis.dimension}")

    n_eis = len(basis.eisenstein_part)
    columns = [s.coeffs for s in basis.eisenstein_part + basis.cusp_part]
    lhs = lhs_square(pair, precision).coeffs
    used, x, den = _solve(columns, lhs, f"pair ({pair.alpha},{pair.beta}) "
                                        f"at level {basis.level}")

    _check_residual(columns, x, den, lhs,
                    f"pair ({pair.alpha},{pair.beta})")
    solution = [Fraction(xj, den) for xj in x]
    return CoefficientSolution(
        sigma3=tuple(240 * x for x in solution[:n_eis]),
        cusp_weights=tuple(solution[n_eis:]),
        solving_indices=used,
    )
