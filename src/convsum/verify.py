"""The verification suites, one pure function per ``convsum verify`` command.

Each suite checks results of the paper against an independent oracle or
pinned data and returns a :class:`Check` whose ``lines`` are the report the
command prints; the acceptance tests share these checks.  A bad argument
raises ``ValueError`` before any work starts, and a failed result check
``ArithmeticError``: one item's line where a suite compares several.
"""

from __future__ import annotations

from typing import NamedTuple

from . import convolution, eta, representations, spaces, tables
from .arith import dim_spaces, sigma_k, sigma_k_frac
from .eisenstein import EisensteinPair, lhs_square, rhs_identity

# derive_coefficients checks its residual up to twice the space dimension
LEMMA32_MIN_PRECISION = 2 * max(dim_spaces(level, 4)[0]
                                 for level in tables.CUSP_EXPONENTS)


class Check(NamedTuple):
    """Outcome of one suite: its name, verdict and report lines."""

    name: str
    ok: bool
    lines: tuple[str, ...]


def _require_positive(option: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{option} must be positive, got {value}")


def _check(name: str, results: list[tuple[bool, str]],
           verdicts: tuple[str, str] = ("ok", "FAILED")) -> Check:
    """One report line per comparison; the suite passes when all of them do."""
    ok = all(passed for passed, _ in results)
    lines = [line for _, line in results]
    lines.append(f"{name}: {verdicts[0] if ok else verdicts[1]}")
    return Check(name, ok, tuple(lines))


def ligozat(levels: tuple[int, ...] = tuple(tables.CUSP_EXPONENTS)) -> Check:
    """Every table row satisfies conditions (i)-(v) at weight 4; the strict
    order condition fails on the known non-cuspidal rows and only there."""
    results = []
    for level in levels:
        nonstrict = tables.NONSTRICT_ROWS[level]
        for i, row in enumerate(eta.table_rows(level), 1):
            rep = eta.check_ligozat(row)
            row_ok = (rep.in_modular_space and rep.weight == 4
                      and rep.cond_v_prime == (i not in nonstrict))
            note = "cusp" if rep.cond_v_prime else "order 0 at some cusp"
            results.append((row_ok, (
                f"level {level} row {i:2d} {row.as_row()}: "
                f"weight {rep.weight}, leading q^{rep.leading_exponent}, "
                f"{note} [{'ok' if row_ok else 'UNEXPECTED'}]")))
    return _check("ligozat", results,
                  ("all rows match the expected condition profile",
                   "deviation from the expected profile"))


def basis() -> Check:
    """Independence certificates for both levels."""
    results = []
    for level in tables.CUSP_EXPONENTS:
        try:
            space = spaces.build_basis(level, 48, eta.table_rows(level))
            det = spaces.verify_independence(space)
        except ArithmeticError as exc:
            results.append((False, f"level {level}: {exc}"))
            continue
        expected = tables.CUSP_DETERMINANTS[level]
        # reached only when the Eisenstein check passed
        results.append((det == expected, (
            f"level {level}: cusp minor determinant {det} (expected "
            f"{expected}), Eisenstein matrix unit lower triangular: True")))
    return _check("basis", results)


def dims() -> Check:
    """Dimension formula against the pinned values, and M = E + S."""
    results = []
    for level, expected in ((1, (1, 1, 0)), (44, (21, 6, 15)),
                            (52, (24, 6, 18))):
        got = dim_spaces(level, 4)
        results.append((got == expected,
                        f"level {level}: dims {got} (expected {expected})"))
    for level in range(1, 61):
        m, e, s = dim_spaces(level, 4)
        if m != e + s:
            results.append((False, f"level {level}: M != E + S"))
    return _check("dims", results)


def identity(max_n: int, pairs=convolution.EVALUATED_PAIRS) -> Check:
    """Squared combination against its convolution-sum expansion, per pair."""
    _require_positive("max-n", max_n)
    results = []
    for pair in [EisensteinPair(a, b) for a, b in pairs]:
        w = convolution.w_series_oracle(pair.alpha, pair.beta, max_n)
        exact = lhs_square(pair, max_n) == rhs_identity(
            pair, lambda n: w[n], max_n)
        results.append((exact, f"identity ({pair.alpha},{pair.beta}): " + (
            f"exact for all n <= {max_n}" if exact
            else f"MISMATCH within n <= {max_n}")))
    return _check("identity", results)


def lemma32(precision: int) -> Check:
    """Re-derive all four expansions; they must reproduce the canonical
    coefficients exactly.  Each line names how the reported list diverges."""
    if precision < LEMMA32_MIN_PRECISION:
        raise ValueError(f"lemma32 precision must be at least "
                         f"{LEMMA32_MIN_PRECISION}, got {precision}")
    results = []
    for (a, b), (exp_s3, exp_y) in sorted(tables.EXPANSION_COEFFS.items()):
        pair = EisensteinPair(a, b)
        space = spaces.build_basis(pair.level, precision)
        label = eta.rows_label(pair.level, space.cusp_rows)
        solution = spaces.derive_coefficients(pair, space)
        got_s3 = tuple(solution.sigma3_presentation()[d]
                       for d in space.divisors)
        match = got_s3 == exp_s3 and solution.cusp_weights == exp_y
        kind, where = tables.REPORTED_DIVERGENCES[(a, b)]
        if kind == "inconsistent":
            note = "reported list inconsistent with the printed rows"
        else:
            note = f"reported list diverges at one {kind} entry ({where})"
        results.append((match, f"pair ({a},{b}) over {label} rows: "
                               f"canonical match: {match}; {note}"))
    return _check("lemma32", results)


def closed_forms(max_n: int) -> Check:
    """Closed forms against brute force, exact integer equality; a closed
    table that fails its own check is reported by its error."""
    _require_positive("max-n", max_n)
    results = []
    for pair in convolution.EVALUATED_PAIRS:
        try:
            closed = convolution.w_closed_table(pair, max_n)
        except ArithmeticError as exc:
            results.append((False, str(exc)))
            continue
        oracle = convolution.w_series_oracle(*pair, max_n)
        first = next((n for n in range(max_n + 1) if closed[n] != oracle[n]),
                     None)
        results.append((first is None, f"closed form {pair}: " + (
            f"equals brute force for n <= {max_n}" if first is None
            else f"diverges at n = {first}")))
    return _check("closed-forms", results)


def _substitution_holds(b: int, n: int) -> bool:
    """Rescaling one summation variable by 4 turns the double sums over
    l + b m = n into the convolution sums of (4, b) and (1, 4b)."""
    ls = range(n % b or b, n, b)  # the l in 1..n-1 with b | n - l
    lhs4 = sum(sigma_k_frac(1, l, 4) * sigma_k(1, (n - l) // b) for l in ls)
    lhs1 = sum(sigma_k(1, l) * sigma_k_frac(1, (n - l) // b, 4) for l in ls)
    return (lhs4 == convolution.w_oracle(4, b, n)
            and lhs1 == convolution.w_oracle(1, 4 * b, n))


def reps(max_n: int, substitution_max_n: int) -> Check:
    """Octonary counts against enumeration, and the substitution identities
    behind their closed forms; a closed table or count that fails its own
    check is reported by its error."""
    _require_positive("max-n", max_n)
    _require_positive("substitution-max-n", substitution_max_n)
    results = []
    for a, b in representations.CLOSED_FORM_PAIRS:
        try:
            w = representations.default_w_provider(b, max_n)
            bad = next((n for n in range(max_n + 1)
                        if representations.rep_count_closed(a, b, n, w)
                        != representations.rep_count_enumerate(a, b, n)), None)
        except ArithmeticError as exc:
            results.append((False, str(exc)))
            continue
        results.append((bad is None, f"octonary counts ({a},{b}): " + (
            f"closed equals enumeration for n <= {max_n}" if bad is None
            else f"mismatch at n = {bad}")))
    for _, b in representations.CLOSED_FORM_PAIRS:
        bad = next((n for n in range(1, substitution_max_n + 1)
                    if not _substitution_holds(b, n)), None)
        results.append((bad is None, f"substitution identities for b = {b}: "
                        + (f"exact for n <= {substitution_max_n}"
                           if bad is None else f"fail at n = {bad}")))
    return _check("reps", results)
