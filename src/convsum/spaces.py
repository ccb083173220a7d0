"""Bases of the weight-4 form spaces and exact coefficient derivation.

The space at level N splits into an Eisenstein part, spanned by the dilated
weight-4 series M(q^t) for t | N, and the cusp part, spanned here by eta
quotients.  ``derive_coefficients`` expresses the squared Eisenstein
combination of a pair over such a basis by exact Gaussian elimination over
``Fraction``: rows of the linear system are coefficient constraints,
scanned greedily from n = 0 upward until the system reaches full rank, and
the solution is then re-verified in integers against every available
coefficient.

For level 52 the embedded table rows together with the Eisenstein series
satisfy a linear relation and the squared combination lies outside their
span, so the derivation over the printed rows (``eta.table_rows``) raises
:class:`InconsistentSystemError`; the default rows, ``eta.basis_rows``,
swap one dependent row for an independent admissible quotient, after which
the solution exists and is unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, mul

from . import eta
from .arith import dim_spaces, divisors, sigma_k_frac
from .eisenstein import EisensteinPair, lhs_square, series_M
from .qseries import QSeries


class BasisError(Exception):
    """Basis data failed a structural check (zero determinant etc.)."""


class DerivationError(Exception):
    """Coefficient derivation could not produce a verified solution."""


class SingularSystemError(DerivationError):
    """The coefficient system never reached full rank."""


class InconsistentSystemError(DerivationError):
    """A coefficient constraint is incompatible with the basis span."""


@dataclass(frozen=True)
class SpaceBasis:
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
# independence certificates

def _det_bareiss(mat: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    m = [row[:] for row in mat]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class IndependenceCertificate:
    level: int
    cusp_determinant: int
    eisenstein_unit_triangular: bool


def verify_independence(basis: SpaceBasis) -> IndependenceCertificate:
    """Exact determinant of the leading cusp minor plus the Eisenstein check.

    The cusp certificate is the determinant of [c_j(n)] for n = 1..dim S,
    which must be nonzero.  The Eisenstein system matrix [sigma_3(t/u)] over
    the divisors in ascending order must be lower triangular with unit
    diagonal, which pins its determinant to 1.
    """
    dim_s = len(basis.cusp_part)
    if basis.precision < dim_s:
        raise ValueError("precision below cusp dimension")
    mat = [list(s.coeffs[1:dim_s + 1]) for s in basis.cusp_part]
    det = _det_bareiss(mat)
    if det == 0:
        raise BasisError(
            f"leading {dim_s}x{dim_s} cusp minor is singular at level {basis.level}")
    triangular = True
    divs = basis.divisors
    for i, t in enumerate(divs):
        for j, u in enumerate(divs):
            entry = sigma_k_frac(3, t, u)
            if j > i and entry != 0:
                triangular = False
            if j == i and entry != 1:
                triangular = False
    if not triangular:
        raise BasisError("Eisenstein system matrix is not unit lower triangular")
    return IndependenceCertificate(basis.level, det, triangular)


# ---------------------------------------------------------------------------
# coefficient derivation

@dataclass(frozen=True)
class CoefficientSolution:
    """Exact expansion weights of a squared Eisenstein combination."""

    pair: EisensteinPair
    eisenstein_weights: dict[int, Fraction]   # X_delta per divisor
    cusp_weights: tuple[Fraction, ...]        # Y_j in basis order
    solving_indices: tuple[int, ...]

    def sigma3_presentation(self) -> dict[int, Fraction]:
        """The sigma_3 coefficients 240 * X_delta, as usually displayed."""
        return {d: 240 * x for d, x in self.eisenstein_weights.items()}


def derive_coefficients(pair: EisensteinPair,
                        basis: SpaceBasis) -> CoefficientSolution:
    """Solve for the unique expansion of lhs_square over the basis.

    The columns of the system are the basis series and row n holds their
    q^n coefficients; at n = 0 every Eisenstein series contributes 1 and
    every cusp expansion 0, which pins sum X_delta to (alpha - beta)^2.
    Rows are taken greedily at n = 0, 1, 2, ... until full rank and
    eliminated over Fraction; afterwards the reconstruction is checked in
    integers against every coefficient up to the basis precision, not only
    the solving rows.
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
    m = basis.dimension
    columns = [s.coeffs for s in basis.eisenstein_part + basis.cusp_part]
    lhs = lhs_square(pair, precision).coeffs

    def row(n: int) -> tuple[list[Fraction], Fraction]:
        # Fraction entries keep the elimination exact, where int / int
        # would silently give a float
        return [Fraction(c[n]) for c in columns], Fraction(lhs[n])

    pivots: list[tuple[int, list[Fraction], Fraction]] = []
    used: list[int] = []
    n = 0
    while len(pivots) < m and n <= precision:
        r, rhs = row(n)
        for col, prow, prhs in pivots:
            f = r[col]
            if f:
                r = [a - f * b for a, b in zip(r, prow)]
                rhs = rhs - f * prhs
        col = next((i for i, a in enumerate(r) if a), None)
        if col is None:
            if rhs:
                raise InconsistentSystemError(
                    f"pair ({pair.alpha},{pair.beta}) at level {basis.level}: "
                    f"the coefficient constraint at q^{n} reduces to 0 = {rhs} "
                    f"over rows {tuple(used)}; the squared combination is not "
                    "in the span of this basis")
        else:
            inv = r[col]
            pivots.append((col, [a / inv for a in r], rhs / inv))
            used.append(n)
        n += 1
    if len(pivots) < m:
        raise SingularSystemError(
            f"rank {len(pivots)} of {m} after scanning n <= {precision} "
            f"(rows used: {tuple(used)})")

    solution = [Fraction(0)] * m
    for col, r, rhs in sorted(pivots, key=lambda t: -t[0]):
        solution[col] = rhs - sum(r[j] * solution[j] for j in range(col + 1, m))

    # scaled by the common denominator, the reconstruction is a sum of
    # integer columns and must equal den * lhs coefficient by coefficient
    den = lcm(*(x.denominator for x in solution))
    acc = [0] * (precision + 1)
    for x, column in zip(solution, columns):
        acc = list(map(add, acc, map(mul, column, repeat(int(x * den)))))
    bad = next((n for n, (v, t) in enumerate(zip(acc, lhs)) if v != den * t),
               None)
    if bad is not None:
        raise DerivationError(
            f"reconstruction residual at q^{bad} for pair "
            f"({pair.alpha},{pair.beta})")

    return CoefficientSolution(
        pair=pair,
        eisenstein_weights=dict(zip(basis.divisors, solution[:n_eis])),
        cusp_weights=tuple(solution[n_eis:]),
        solving_indices=tuple(used),
    )
