"""The verification suites, one pure function per ``convsum verify`` command.

Each suite takes its command's options as keywords, reads the levels and
pairs of ``tables`` when it runs, and checks results of the paper against an
independent oracle or pinned data.  It returns a :class:`Check` whose
``lines`` are the report the command prints; the acceptance tests share
these checks.  A bad argument raises ``ValueError`` before any work starts.
A suite is a list of comparisons, and :func:`_check` runs every one: a
failed result check, an ``ArithmeticError``, is the failing line of its
comparison, so a suite names every failing item and raises none.  A
suite imports the modules only it uses when it runs, so that a launch of
one suite does not load (or compile) the others' modules.
"""

from __future__ import annotations

from typing import NamedTuple

from . import convolution, eta, tables
from .arith import _index, _nu2, _nu_inf, dim_spaces, sigma_factored_table


class Check(NamedTuple):
    """Outcome of one suite: its name, verdict and report lines."""

    name: str
    ok: bool
    lines: tuple[str, ...]


def _require_positive(option: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{option} must be positive, got {value}")


def _check(name: str, comparisons: list[tuple],
           verdicts: tuple[str, str] = ("ok", "FAILED")) -> Check:
    """Run every comparison ``(label, compare, *args)``: ``compare(*args)``
    gives (passed, line), a line of None printing nothing, and an
    ``ArithmeticError`` it raises is a failing line with its message.  Every
    other failed check names the pair or level it was raised for, but a
    ``BasisError`` names only the rows, which many items share, so its line
    starts with the label of the item that built them.  The suite passes
    when every comparison does."""
    ok, lines = True, []
    for label, compare, *args in comparisons:
        try:
            passed, line = compare(*args)
        except ArithmeticError as exc:
            passed = False
            line = (f"{label}: {exc}" if isinstance(exc, eta.BasisError)
                    and label else str(exc))
        ok = ok and passed
        if line is not None:
            lines.append(line)
    lines.append(f"{name}: {verdicts[0] if ok else verdicts[1]}")
    return Check(name, ok, tuple(lines))


def ligozat(level: int | str = "all") -> Check:
    """Each table row of the level, or of all, meets (i)-(v) at weight 4;
    the strict order condition fails just on the known non-cuspidal rows.
    A level without a ``NONSTRICT_ROWS`` pin fails on every row."""
    def compare(level, i):
        row = eta.table_row(level, i)
        rep = eta.check_ligozat(row)
        nonstrict = tables.NONSTRICT_ROWS.get(level)
        row_ok = (nonstrict is not None and rep.in_modular_space
                  and rep.weight == 4
                  and rep.cond_v_prime == (i not in nonstrict))
        note = "cusp" if rep.cond_v_prime else "order 0 at some cusp"
        verdict = ("no NONSTRICT_ROWS pin" if nonstrict is None
                   else "ok" if row_ok else "UNEXPECTED")
        return row_ok, (
            f"level {level} row {i:2d} {row.as_row()}: weight {rep.weight}, "
            f"leading q^{rep.leading_exponent}, {note} [{verdict}]")
    # the item is the row, which a malformed row's BasisError names
    return _check("ligozat", [
        (None, compare, lv, i) for lv in tables.levels(level)
        for i in range(1, len(eta.cusp_table(lv)) + 1)],
        ("all rows match the expected condition profile",
         "deviation from the expected profile"))


def basis() -> Check:
    """Independence certificates for both levels."""
    from . import spaces

    def compare(level):
        space = spaces.build_basis(level, 48, eta.table_rows(level))
        det = spaces.verify_independence(space)
        expected = tables.CUSP_DETERMINANTS.get(level)
        # reached only when the Eisenstein check passed
        return det == expected, (
            f"level {level}: cusp minor determinant {det} (expected "
            f"{expected}), Eisenstein matrix unit lower triangular: True")
    return _check("basis", [(f"level {lv}", compare, lv)
                            for lv in tables.levels()])


def dims() -> Check:
    """Dimension formula against the pinned values, and dim M against the
    genus-free mu/4 + nu_2/4 + nu_inf/2 at every level up to 60."""
    def pinned(level):
        got, expected = dim_spaces(level, 4), tables.DIMENSIONS.get(level)
        return got == expected, (f"level {level}: dims {got} "
                                 f"(expected {expected})")

    def genus_free(level):
        m = dim_spaces(level, 4)[0]
        formula4 = _index(level) + _nu2(level) + 2 * _nu_inf(level)  # x 4
        return 4 * m == formula4, None if 4 * m == formula4 else (
            f"level {level}: dim M {m} != mu/4 + nu_2/4 + nu_inf/2 "
            f"= {formula4}/4")
    return _check("dims", [
        *((f"level {lv}", pinned, lv)
          for lv in dict.fromkeys((*tables.DIMENSIONS, *tables.levels()))),
        *((f"level {lv}", genus_free, lv) for lv in range(1, 61))])


def identity(max_n: int, alpha: int | None = None,
             beta: int | None = None) -> Check:
    """Squared combination against its convolution-sum expansion, per pair."""
    if (alpha is None) != (beta is None):
        raise ValueError("--alpha and --beta must be given together")
    _require_positive("max-n", max_n)
    from . import eisenstein
    pairs = tables.EXPANSION_COEFFS if alpha is None else ((alpha, beta),)

    def compare(pair):
        w = convolution.w_series_oracle(pair.alpha, pair.beta, max_n)
        exact = eisenstein.lhs_square(pair, max_n) == eisenstein.rhs_identity(
            pair, lambda n: w[n], max_n)
        return exact, f"identity ({pair.alpha},{pair.beta}): " + (
            f"exact for all n <= {max_n}" if exact
            else f"MISMATCH within n <= {max_n}")
    return _check("identity", [(f"identity ({a},{b})", compare,
                                eisenstein.EisensteinPair(a, b))
                               for a, b in pairs])


def lemma32(solve_precision: int) -> Check:
    """Re-derive all four expansions; they must reproduce the canonical
    coefficients exactly.  Each line names how the reported list diverges.
    Then check each relation of ``tables.DIVISION_FREE_ROWS`` at every
    coefficient of the basis, which prints nothing when it holds: the floor
    is past the Sturm bound mu/3 of weight 4 at every level, so a relation
    of weight-4 forms that holds there holds exactly."""
    # derive_coefficients checks its residual up to twice the space dimension
    floor = 2 * max(m for m, _, _ in tables.DIMENSIONS.values())
    if solve_precision < floor:
        raise ValueError(f"lemma32 precision must be at least {floor}, "
                         f"got {solve_precision}")
    from . import eisenstein, spaces

    bases = {}  # the pairs and the relations of a level share its basis

    def basis_of(level):
        if level not in bases:
            bases[level] = spaces.build_basis(level, solve_precision)
        return bases[level]

    def compare(a, b, exp_s3, exp_y):
        pair = eisenstein.EisensteinPair(a, b)
        space = basis_of(pair.level)
        label = eta.rows_label(pair.level, space.cusp_rows)
        solution = spaces.derive_coefficients(pair, space)
        match = solution[:2] == (exp_s3, exp_y)
        kind, where = tables.REPORTED_DIVERGENCES[(a, b)]
        if kind == "inconsistent":
            note = "reported list inconsistent with the printed rows"
        else:
            note = f"reported list diverges at one {kind} entry ({where})"
        return match, (f"pair ({a},{b}) over {label} rows: "
                       f"canonical match: {match}; {note}")

    def relations(level, swaps):
        space = basis_of(level)
        columns = [s.coeffs for s in space.eisenstein_part] + [
            eta.expand(row, solve_precision).coeffs
            for row in eta.evaluation_rows(level)]
        for i, (_, _, den, nums) in swaps.items():
            spaces._check_residual(columns, nums, den,
                                   space.cusp_part[i - 1].coeffs,
                                   f"level {level} row {i}")
        return True, None
    return _check("lemma32", [
        *((f"pair ({a},{b})", compare, a, b, *expected)
          for (a, b), expected in sorted(tables.EXPANSION_COEFFS.items())),
        *((f"level {level}", relations, level, swaps)
          for level, swaps in tables.DIVISION_FREE_ROWS.items())])


def closed_forms(max_n: int) -> Check:
    """Closed forms against brute force, exact integer equality."""
    _require_positive("max-n", max_n)

    def compare(pair):
        closed = convolution.w_closed_table(pair, max_n)
        oracle = convolution.w_series_oracle(*pair, max_n)
        first = next((n for n in range(max_n + 1) if closed[n] != oracle[n]),
                     None)
        return first is None, f"closed form {pair}: " + (
            f"equals brute force for n <= {max_n}" if first is None
            else f"diverges at n = {first}")
    return _check("closed-forms", [
        (f"closed form {pair}", compare, pair)
        for pair in tables.EXPANSION_COEFFS])


def _substitution_holds(b: int, n: int, s1: list, s1_4: list) -> bool:
    """Rescaling one summation variable by 4 turns the double sums over
    l + b m = n into the convolution sums of (4, b) and (1, 4b).  Up to n,
    s1 holds sigma(m) by factorization and s1_4 sigma(m/4), 0 unless 4 | m."""
    ls = range(n % b or b, n, b)  # the l in 1..n-1 with b | n - l
    lhs4 = sum(s1_4[l] * s1[(n - l) // b] for l in ls)
    lhs1 = sum(s1[l] * s1_4[(n - l) // b] for l in ls)
    return (lhs4 == convolution.w_oracle(4, b, n)
            and lhs1 == convolution.w_oracle(1, 4 * b, n))


def reps(max_n: int, substitution_max_n: int) -> Check:
    """Octonary counts against enumeration, and the substitution identities
    behind their closed forms."""
    _require_positive("max-n", max_n)
    _require_positive("substitution-max-n", substitution_max_n)
    from . import representations
    s1 = sigma_factored_table(1, substitution_max_n)
    s1_4 = [0 if m % 4 else s1[m // 4] for m in range(len(s1))]

    def counts(a, b):
        w = representations.default_w_provider(b, max_n)
        bad = next((n for n in range(max_n + 1)
                    if representations.rep_count_closed(a, b, n, w)
                    != representations.rep_count_enumerate(a, b, n)), None)
        return bad is None, f"octonary counts ({a},{b}): " + (
            f"closed equals enumeration for n <= {max_n}" if bad is None
            else f"mismatch at n = {bad}")

    def substitution(b):
        bad = next((n for n in range(1, substitution_max_n + 1)
                    if not _substitution_holds(b, n, s1, s1_4)), None)
        return bad is None, f"substitution identities for b = {b}: " + (
            f"exact for n <= {substitution_max_n}" if bad is None
            else f"fail at n = {bad}")
    pairs = tables.closed_form_pairs()
    return _check("reps", [
        *((f"octonary counts ({a},{b})", counts, a, b) for a, b in pairs),
        *((f"substitution identities for b = {b}", substitution, b)
          for _, b in pairs)])
