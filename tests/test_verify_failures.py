"""Every verification suite fails loudly on a planted fault.

Each fault is planted with ``monkeypatch`` in what one suite compares: a
closed-form value, a cached eta expansion, an enumerated count, the cusp
minor, the Eisenstein matrix or a built Eisenstein column of the
independence check, a canonical weight, the expected condition profile,
the dimension formula, a tabled level without its pinned dimensions, cusp
minor or non-strict rows, the right-hand side of the identity or a value
of the direct convolution oracle.  The suite must then report ``ok is False``, name the
fault in one line and end with its failure verdict; through the command
line, ``verify`` must exit 1 with that line on stdout, and ``verify all``
must still print every later suite's report.  A fault that makes a result
fail its own check (an ``ArithmeticError``: a basis of the wrong shape, an
inconsistent derivation) is a failing line of the suite's report too, and a
failure of ``derive`` on stderr, never a traceback.
"""

import pytest

from convsum import (convolution, eisenstein, eta, representations, spaces,
                     tables, verify)
from convsum.qseries import QSeries, slot_bound
from conftest import LEVEL20_ROWS, run_cli


def closed_value_off_by_one(monkeypatch):
    real = convolution.w_closed_table

    def faulty(pair, max_n, *args, **kwargs):
        table = real(pair, max_n, *args, **kwargs)
        if pair == (4, 11):
            table[17] += 1
        return table

    monkeypatch.setattr(convolution, "w_closed_table", faulty)
    return "closed form (4, 11): diverges at n = 17"


def cached_expansion_off_by_one(monkeypatch):
    """Coefficient 17 of the first level-44 row, cached to n = 60, is stored
    one too high, so every closed form over the row fails the integrality
    check at n = 17: W(17), which is 0 for both level-44 pairs, reads
    -104177/3864960 for (1, 44) and -3293/351360 for (4, 11), the weights
    of the row once the closed forms are rewritten over the division-free
    rows.  The (4, 11) table is the one that ``closed-forms``, ``reps`` and
    ``eval-w`` all evaluate."""
    monkeypatch.setattr(eta, "_EXPANSION_CACHE", {})
    row = eta.evaluation_rows(44)[0]
    data, w, _, e, g = eta.expand_packed(row, 60)
    assert (17 - e) % g == 0
    at = (17 - e) // g * w
    c = int.from_bytes(data[at:at + w], "little", signed=True) + 1
    data = data[:at] + c.to_bytes(w, "little", signed=True) + data[at + w:]
    eta._EXPANSION_CACHE[row] = (60, data, w, slot_bound(data, w), e, g)
    return "closed form for (4, 11) evaluates to -3293/351360 at n = 17"


def enumeration_off_by_eight(monkeypatch):
    real = representations.rep_count_enumerate
    monkeypatch.setattr(
        representations, "rep_count_enumerate",
        lambda a, b, n: real(a, b, n) + (8 if (b, n) == (13, 9) else 0))
    return "octonary counts (1,13): mismatch at n = 9"


def singular_certificate(monkeypatch):
    real = spaces.verify_independence

    def faulty(space):
        if space.level == 44:
            raise spaces.BasisError("cusp minor is singular")
        return real(space)

    monkeypatch.setattr(spaces, "verify_independence", faulty)
    return "level 44: cusp minor is singular"


def eisenstein_matrix_off_the_triangle(monkeypatch):
    """sigma_3(2) one too high in the table the Eisenstein check reads."""
    real = spaces.sigma_factored_table

    def off_by_one(k, limit):
        table = real(k, limit)
        table[2] += 1
        return table

    monkeypatch.setattr(spaces, "sigma_factored_table", off_by_one)
    return "level 44: Eisenstein system matrix is not unit lower triangular"


def eisenstein_column_coefficient_changed(monkeypatch):
    """Coefficient q^12 of the built level-44 column M(q^4) one too high:
    12 divides no level, so no entry of [sigma_3(t/u)] moves, but the check
    reads every built coefficient."""
    real = spaces.build_basis

    def faulty(level, precision, cusp_rows=None):
        space = real(level, precision, cusp_rows)
        if level == 44:
            eis = list(space.eisenstein_part)
            coeffs = list(eis[2].coeffs)
            coeffs[12] += 1
            eis[2] = QSeries(precision, coeffs)
            space = space._replace(eisenstein_part=tuple(eis))
        return space

    monkeypatch.setattr(spaces, "build_basis", faulty)
    return "level 44: Eisenstein system matrix is not unit lower triangular"


def canonical_weight_changed(monkeypatch):
    s3, y = tables.EXPANSION_COEFFS[(4, 11)]
    monkeypatch.setitem(tables.EXPANSION_COEFFS, (4, 11),
                        (s3, y[:6] + (y[6] + 1,) + y[7:]))
    return ("pair (4,11) over printed rows: canonical match: False; "
            "reported list diverges at one cusp entry (7)")


def nonstrict_row_missing(monkeypatch):
    monkeypatch.setitem(tables.NONSTRICT_ROWS, 52, {7: (2, 4)})
    row = tables.CUSP_EXPONENTS[52][13]
    return (f"level 52 row 14 {row}: weight 4, leading q^14, "
            "order 0 at some cusp [UNEXPECTED]")


def dimension_wrong_at_44(monkeypatch):
    real = verify.dim_spaces
    monkeypatch.setattr(
        verify, "dim_spaces",
        lambda level, k: (20, 5, 15) if level == 44 else real(level, k))
    return "level 44: dims (20, 5, 15) (expected (21, 6, 15))"


def dimensions_shifted_together_at_30(monkeypatch):
    """dim M and dim S one too high at the unpinned level 30: M = E + S
    still holds, the genus-free formula for dim M does not."""
    real = verify.dim_spaces

    def faulty(level, k):
        m, e, s = real(level, k)
        return (m + 1, e, s + 1) if level == 30 else (m, e, s)

    monkeypatch.setattr(verify, "dim_spaces", faulty)
    return "level 30: dim M 23 != mu/4 + nu_2/4 + nu_inf/2 = 88/4"


def level20_without_dims_pin(monkeypatch):
    """Level 20's rows tabled without its pinned dimensions."""
    monkeypatch.setitem(tables.CUSP_EXPONENTS, 20, LEVEL20_ROWS)
    return "level 20: dims (12, 6, 6) (expected None)"


def level20_without_determinant_pin(monkeypatch):
    """Level 20's rows tabled without its pinned cusp minor."""
    monkeypatch.setattr(eta, "_EXPANSION_CACHE", {})
    monkeypatch.setitem(tables.CUSP_EXPONENTS, 20, LEVEL20_ROWS)
    return ("level 20: cusp minor determinant 2000 (expected None), "
            "Eisenstein matrix unit lower triangular: True")


def level20_without_nonstrict_pin(monkeypatch):
    """Level 20's rows tabled without its non-strict rows: every row of the
    level fails, naming the level, the row and the missing pin."""
    monkeypatch.setitem(tables.CUSP_EXPONENTS, 20, LEVEL20_ROWS)
    return ("level 20 row  1 (3, 3, 0, 1, 1, 0): weight 4, leading q^1, "
            "cusp [no NONSTRICT_ROWS pin]")


def rhs_off_at_one_n(monkeypatch):
    real = eisenstein.rhs_identity

    def faulty(pair, w_values, precision):
        rhs = real(pair, w_values, precision)
        if (pair.alpha, pair.beta) == (1, 52):
            coeffs = list(rhs.coeffs)
            coeffs[31] += 1
            return QSeries(precision, coeffs)
        return rhs

    monkeypatch.setattr(eisenstein, "rhs_identity", faulty)
    return "identity (1,52): MISMATCH within n <= 60"


def oracle_off_by_one(monkeypatch):
    real = convolution.w_oracle
    monkeypatch.setattr(
        convolution, "w_oracle",
        lambda a, b, n: real(a, b, n) + ((a, b, n) == (4, 11, 59)))
    # 59 = 4 * 1 + 11 * 5 = 4 * 12 + 11 * 1
    return "substitution identities for b = 11: fail at n = 59"


def level52_row_cut_short(monkeypatch):
    """Row 7 of the embedded level-52 table cut to five exponents: a
    malformed table fails the structural check of the basis it builds."""
    rows = tables.CUSP_EXPONENTS[52]
    monkeypatch.setitem(tables.CUSP_EXPONENTS, 52,
                        rows[:6] + (rows[6][:5],) + rows[7:])
    return ("CUSP_EXPONENTS[52] row 7: row of 5 exponents for the 6 "
            "divisors of level 52")


def level52_row_cut_short_under_a_pair(monkeypatch):
    """The row cut short, in a suite over pairs: the line of each pair over
    the level names the pair before the row."""
    return "closed form (4, 13): " + level52_row_cut_short(monkeypatch)


def _relation_numerator_raised(monkeypatch):
    """The last numerator of the level-44 row-7 relation one too high: the
    relation now puts 1/878400 too much weight on row 15."""
    old, new, den, nums = tables.DIVISION_FREE_ROWS[44][7]
    monkeypatch.setitem(tables.DIVISION_FREE_ROWS[44], 7,
                        (old, new, den, nums[:-1] + (nums[-1] + 1,)))


def relation_numerator_off_by_one(monkeypatch):
    """Every closed form over the relation fails its integrality check at
    the leading exponent 15 of row 15."""
    _relation_numerator_raised(monkeypatch)
    return "closed form for (4, 11) evaluates to 33378673/33379200 at n = 15"


def relation_numerator_off_by_one_rederived(monkeypatch):
    """``lemma32`` sees the raised numerator in the relation's residual, at
    the same q^15."""
    _relation_numerator_raised(monkeypatch)
    return "reconstruction residual at q^15 for level 44 row 7"


def _relation_gone_stale(monkeypatch):
    """The level-52 relation names printed row 13 as the row it replaces,
    as if it had been derived for another basis."""
    _, *rest = tables.DIVISION_FREE_ROWS[52][14]
    monkeypatch.setitem(tables.DIVISION_FREE_ROWS[52], 14,
                        (tables.CUSP_EXPONENTS[52][12], *rest))
    return ("DIVISION_FREE_ROWS[52][14]: basis row 14 is (0, 1, -1, 0, 3, 5), "
            "not (2, 1, -1, -2, 3, 5)")


def relation_gone_stale(monkeypatch):
    return "closed form (1, 52): " + _relation_gone_stale(monkeypatch)


def relation_gone_stale_rederived(monkeypatch):
    return "level 52: " + _relation_gone_stale(monkeypatch)


FAULTS = [
    (closed_value_off_by_one, lambda: verify.closed_forms(60),
     "closed-forms: FAILED"),
    (cached_expansion_off_by_one, lambda: verify.closed_forms(60),
     "closed-forms: FAILED"),
    (cached_expansion_off_by_one, lambda: verify.reps(40, 100),
     "reps: FAILED"),
    (enumeration_off_by_eight, lambda: verify.reps(20, 20), "reps: FAILED"),
    (singular_certificate, verify.basis, "basis: FAILED"),
    (eisenstein_matrix_off_the_triangle, verify.basis, "basis: FAILED"),
    (eisenstein_column_coefficient_changed, verify.basis, "basis: FAILED"),
    (canonical_weight_changed, lambda: verify.lemma32(60), "lemma32: FAILED"),
    (nonstrict_row_missing, verify.ligozat,
     "ligozat: deviation from the expected profile"),
    (dimension_wrong_at_44, verify.dims, "dims: FAILED"),
    (dimensions_shifted_together_at_30, verify.dims, "dims: FAILED"),
    (level20_without_dims_pin, verify.dims, "dims: FAILED"),
    (level20_without_determinant_pin, verify.basis, "basis: FAILED"),
    (level20_without_nonstrict_pin, verify.ligozat,
     "ligozat: deviation from the expected profile"),
    (rhs_off_at_one_n, lambda: verify.identity(60), "identity: FAILED"),
    (oracle_off_by_one, lambda: verify.reps(20, 100), "reps: FAILED"),
    (level52_row_cut_short_under_a_pair, lambda: verify.closed_forms(60),
     "closed-forms: FAILED"),
    (relation_numerator_off_by_one, lambda: verify.closed_forms(60),
     "closed-forms: FAILED"),
    (relation_numerator_off_by_one_rederived, lambda: verify.lemma32(60),
     "lemma32: FAILED"),
    (relation_gone_stale, lambda: verify.closed_forms(60),
     "closed-forms: FAILED"),
    (relation_gone_stale_rederived, lambda: verify.lemma32(60),
     "lemma32: FAILED"),
]


# a plant's name, then the suite's for a plant that is run a second time
FAULT_IDS = [plant.__name__ if all(p is not plant for p, _, _ in FAULTS[:i])
             else f"{plant.__name__}-{verdict.split(':')[0]}"
             for i, (plant, _, verdict) in enumerate(FAULTS)]


@pytest.mark.parametrize("plant, run, verdict", FAULTS, ids=FAULT_IDS)
def test_planted_fault_fails_the_suite(monkeypatch, plant, run, verdict):
    line = plant(monkeypatch)
    check = run()
    assert check.ok is False
    assert line in check.lines
    assert check.lines[-1] == verdict


@pytest.mark.parametrize("args", [
    ("verify", "closed-forms", "--max-n", "60"),
    ("verify", "all", "--fast"),
])
def test_verify_exits_1_on_a_planted_fault(monkeypatch, args):
    """A failing suite exits 1 with its report; ``verify all`` still runs
    the suites after it and ends with its own verdict."""
    line = closed_value_off_by_one(monkeypatch)
    result = run_cli(*args)
    assert result.exit_code == 1
    lines = result.stdout.splitlines()
    assert line in lines
    failed = lines.index("closed-forms: FAILED")
    if args[1] == "all":
        # the (1,11) octonary count reads the faulty W(4,11) table as well
        assert lines[failed + 1:] == [
            "== reps ==",
            "octonary counts (1,11): mismatch at n = 17",
            "octonary counts (1,13): closed equals enumeration for n <= 40",
            "substitution identities for b = 11: exact for n <= 100",
            "substitution identities for b = 13: exact for n <= 100",
            "reps: FAILED",
            "all: FAILED"]
    else:
        assert failed == len(lines) - 1


@pytest.mark.parametrize("plant, suite, verdict", [
    (level20_without_dims_pin, "dims", "dims: FAILED"),
    (level20_without_determinant_pin, "basis", "basis: FAILED"),
    (level20_without_nonstrict_pin, "ligozat",
     "ligozat: deviation from the expected profile"),
], ids=["dims", "basis", "ligozat"])
def test_unpinned_level_exits_1(monkeypatch, plant, suite, verdict):
    """A level tabled without one of its pins fails the suite that reads
    the pin through the command line: its line, then the verdict, on
    stdout, exit 1, and no traceback."""
    line = plant(monkeypatch)
    result = run_cli("verify", suite)
    assert result.exit_code == 1
    lines = result.stdout.splitlines()
    assert line in lines and lines[-1] == verdict
    assert result.stderr == ""


def test_verify_exits_1_on_a_cached_expansion_fault(monkeypatch):
    """A fault stored in the expansion cache reaches every closed form over
    the row; the pairs of the other level still pass."""
    line = cached_expansion_off_by_one(monkeypatch)
    result = run_cli("verify", "closed-forms", "--max-n", "60")
    assert result.exit_code == 1
    assert result.stdout.splitlines() == [
        "closed form for (1, 44) evaluates to -104177/3864960 at n = 17",
        line,
        "closed form (1, 52): equals brute force for n <= 60",
        "closed form (4, 13): equals brute force for n <= 60",
        "closed-forms: FAILED"]


def test_verify_reps_exits_1_on_a_cached_expansion_fault(monkeypatch):
    """``verify reps`` reports a closed table that fails its integrality
    check as one line and goes on.  (``verify all --fast`` would expand the
    rows to 200 first and overwrite the planted fault.)"""
    line = cached_expansion_off_by_one(monkeypatch)
    result = run_cli("verify", "reps", "--max-n", "40")
    assert result.exit_code == 1
    assert line in result.stdout.splitlines()
    assert result.stdout.splitlines()[-1] == "reps: FAILED"
    assert "Traceback" not in result.stderr


def test_integrality_error_exits_1(monkeypatch):
    """A closed value that fails its integrality check outside a suite is a
    failure: exit 1 with its message on stderr and nothing on stdout."""
    line = cached_expansion_off_by_one(monkeypatch)
    result = run_cli("eval-w", "--alpha", "4", "--beta", "11", "--n", "17")
    assert result.exit_code == 1
    assert line in result.stderr and result.stdout == ""
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("plant, suite", [
    (relation_numerator_off_by_one, "closed-forms"),
    (relation_numerator_off_by_one_rederived, "lemma32"),
    (relation_gone_stale, "closed-forms"),
    (relation_gone_stale_rederived, "lemma32"),
], ids=["closed-forms", "lemma32", "closed-forms-stale", "lemma32-stale"])
def test_verify_exits_1_on_a_division_free_relation_fault(monkeypatch, plant,
                                                          suite):
    """A frozen relation that is wrong or names a row the basis no longer
    holds fails both the suite that evaluates it and the one that
    checks it, on one line naming the pair or the level; ``lemma32``
    prints its pair lines as before."""
    line = plant(monkeypatch)
    result = run_cli("verify", suite, "--max-n" if suite == "closed-forms"
                     else "--precision", "60")
    assert result.exit_code == 1 and result.stderr == ""
    lines = result.stdout.splitlines()
    assert line in lines and lines[-1] == f"{suite}: FAILED"
    if suite == "lemma32":
        assert len(lines) == 6
        assert all("canonical match: True" in x for x in lines[:4])


def test_verify_all_exits_1_on_a_substitution_fault(monkeypatch):
    """A fault in the direct oracle reaches only the substitution
    identities of ``reps``."""
    line = oracle_off_by_one(monkeypatch)
    result = run_cli("verify", "all", "--fast")
    assert result.exit_code == 1
    lines = result.stdout.splitlines()
    assert lines[-4:] == [line, "substitution identities for b = 13: "
                          "exact for n <= 100", "reps: FAILED", "all: FAILED"]
    assert [x for x in lines if x.endswith("FAILED")] == lines[-2:]


def test_verify_all_reports_every_failing_suite(monkeypatch):
    """A fault in each of two suites: ``verify all`` names both."""
    closed = closed_value_off_by_one(monkeypatch)
    counts = enumeration_off_by_eight(monkeypatch)
    result = run_cli("verify", "all", "--fast")
    assert result.exit_code == 1
    lines = result.stdout.splitlines()
    assert {closed, "closed-forms: FAILED", counts, "reps: FAILED"} <= set(lines)
    assert lines[-1] == "all: FAILED"


def repaired_row_set_back(monkeypatch):
    """The repaired level-52 row set back to printed row 7: the rows and the
    Eisenstein series no longer span the squared combinations."""
    monkeypatch.setitem(tables.REPAIRED_ROWS, 52,
                        {7: tables.CUSP_EXPONENTS[52][7 - 1]})
    return ("pair (1,52) at level 52: the coefficient constraint at q^22 "
            "reduces to 0 = -17791488/41 over rows (0, 1, 2, ")


def level44_row_missing(monkeypatch):
    """The level-44 table one row short of dim S."""
    monkeypatch.setitem(tables.CUSP_EXPONENTS, 44,
                        tables.CUSP_EXPONENTS[44][:-1])
    return "14 cusp rows for dim S = 15 at level 44"


def dimension_formula_raises_at_44(monkeypatch):
    real = verify.dim_spaces

    def faulty(level, k):
        if level == 44:
            raise ArithmeticError("non-integral genus 9/2 at level 44")
        return real(level, k)

    monkeypatch.setattr(verify, "dim_spaces", faulty)
    return "non-integral genus 9/2 at level 44"


FAILED_RESULT_CHECKS = [
    (repaired_row_set_back, ("verify", "lemma32"), "", "lemma32: FAILED"),
    (level44_row_missing, ("verify", "basis"), "level 44: ", "basis: FAILED"),
    (dimension_formula_raises_at_44, ("verify", "dims"), "", "dims: FAILED"),
    (level52_row_cut_short, ("verify", "ligozat"), "",
     "ligozat: deviation from the expected profile"),
]


@pytest.mark.parametrize("plant, args, prefix, verdict", FAILED_RESULT_CHECKS,
                         ids=[p.__name__ for p, *_ in FAILED_RESULT_CHECKS])
def test_failed_result_check_fails_the_suite(monkeypatch, plant, args, prefix,
                                             verdict):
    """A result that fails its own check is a failing line of the suite's
    report, then its verdict: exit 1, no traceback."""
    line = prefix + plant(monkeypatch)
    result = run_cli(*args)
    assert result.exit_code == 1
    lines = result.stdout.splitlines()
    assert any(x.startswith(line) for x in lines), lines
    assert lines[-1] == verdict
    assert result.stderr == ""


@pytest.mark.parametrize("plant", [p for p, *_ in FAILED_RESULT_CHECKS],
                         ids=lambda p: p.__name__)
def test_verify_all_survives_a_failed_result_check(monkeypatch, plant):
    """``verify all`` runs every suite after a result fails its own check
    and ends with its own verdict."""
    line = plant(monkeypatch)
    result = run_cli("verify", "all", "--fast")
    assert result.exit_code == 1
    lines = result.stdout.splitlines()
    assert any(line in x for x in lines), lines
    headers = [x for x in lines if x.startswith("== ")]
    assert headers == [f"== {name} ==" for name in (
        "ligozat", "basis", "dims", "identity", "lemma32", "closed-forms",
        "reps")]
    assert lines[-1] == "all: FAILED"
    assert result.stderr == ""


@pytest.mark.parametrize("plant, pair", [
    (repaired_row_set_back, ("1", "52")),
    (level44_row_missing, ("1", "44")),
    (level52_row_cut_short, ("1", "52")),
], ids=["repaired_row_set_back", "level44_row_missing",
        "level52_row_cut_short"])
def test_derive_exits_1_on_a_failed_result_check(monkeypatch, plant, pair):
    """A derivation or basis that fails its own check exits 1 through the
    one boundary: the message on stderr, nothing on stdout."""
    line = plant(monkeypatch)
    result = run_cli("derive", "--alpha", pair[0], "--beta", pair[1])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith(f"convsum derive: error: {line}")
    assert "Traceback" not in result.stderr


def test_malformed_row_is_one_failing_line(monkeypatch):
    """A malformed embedded row is a failed result check where the rows are
    built, a ``BasisError`` (still ``spaces.BasisError``) naming the table,
    the level and the row: ``ligozat`` reports it on that row's line and
    the other rows as before, and every suite over the level fails."""
    intact = verify.ligozat().lines
    line = level52_row_cut_short(monkeypatch)
    assert spaces.BasisError is eta.BasisError
    for build in (eta.table_rows, eta.basis_rows):
        with pytest.raises(spaces.BasisError, match=r"^CUSP_EXPONENTS\[52\] "
                           r"row 7: row of 5 exponents"):
            build(52)
    with pytest.raises(ValueError, match="6 divisors of level 52"):
        eta.EtaQuotient.of(52, tables.CUSP_EXPONENTS[52][6])
    check = verify.ligozat()
    assert check.ok is False
    row7 = next(i for i, x in enumerate(intact) if x.startswith(
        "level 52 row  7 "))
    assert check.lines == (intact[:row7] + (line,) + intact[row7 + 1:-1]
                           + ("ligozat: deviation from the expected profile",))
    result = run_cli("verify", "all", "--fast")
    assert result.exit_code == 1 and result.stderr == ""
    lines = result.stdout.splitlines()
    verdicts = [x for x in lines if x.startswith(tuple(
        f"{name}: " for name in ("ligozat", "basis", "dims", "identity",
                                 "lemma32", "closed-forms", "reps", "all")))]
    assert verdicts == [
        "ligozat: deviation from the expected profile", "basis: FAILED",
        "dims: ok", "identity: ok", "lemma32: FAILED", "closed-forms: FAILED",
        "reps: FAILED", "all: FAILED"]
    assert "level 52: " + line in lines


def test_malformed_row_names_every_item_over_it(monkeypatch):
    """A suite over pairs or levels puts the item before the row's message,
    once per item that built the rows; the other lines are unchanged."""
    reason = level52_row_cut_short(monkeypatch)
    assert verify.closed_forms(60).lines == (
        "closed form (1, 44): equals brute force for n <= 60",
        "closed form (4, 11): equals brute force for n <= 60",
        f"closed form (1, 52): {reason}", f"closed form (4, 13): {reason}",
        "closed-forms: FAILED")
    lemma = verify.lemma32(60).lines
    assert lemma[1:4:2] == (f"pair (1,52): {reason}",
                            f"pair (4,13): {reason}")
    assert lemma[4:] == (f"level 52: {reason}", "lemma32: FAILED")
    assert verify.reps(20, 20).lines[:2] == (
        "octonary counts (1,11): closed equals enumeration for n <= 20",
        f"octonary counts (1,13): {reason}")
    assert verify.basis().lines[1:] == (f"level 52: {reason}",
                                        "basis: FAILED")


def test_repaired_row_malformed_is_a_failed_result_check(monkeypatch):
    """The repaired level-52 row is checked where ``basis_rows`` builds it;
    the printed rows still build."""
    monkeypatch.setitem(tables.REPAIRED_ROWS, 52, {7: (-2, 5, 1, 2, -1)})
    assert len(eta.table_rows(52)) == 18
    with pytest.raises(spaces.BasisError, match=(
            r"^REPAIRED_ROWS\[52\]\[7\]: row of 5 exponents for the 6 "
            "divisors of level 52$")):
        eta.basis_rows(52)


def test_lemma32_reports_every_pair_after_a_failed_derivation(monkeypatch):
    """With the repaired row set back, both level-52 derivations fail their
    own check, and so does the level-52 division-free relation over the
    printed rows; ``lemma32`` still compares every pair, in table order,
    then the relation, and returns its report instead of raising."""
    line = repaired_row_set_back(monkeypatch)
    check = verify.lemma32(120)
    assert check.ok is False
    assert [x.split()[1] for x in check.lines[:-2]] == [
        f"({a},{b})" for a, b in sorted(tables.EXPANSION_COEFFS)]
    assert check.lines[0] == (
        "pair (1,44) over printed rows: canonical match: True; reported list "
        "diverges at one sigma3 entry (2)")
    assert check.lines[1].startswith(line)
    assert check.lines[2] == (
        "pair (4,11) over printed rows: canonical match: True; reported list "
        "diverges at one cusp entry (7)")
    assert check.lines[3].startswith(
        "pair (4,13) at level 52: the coefficient constraint at q^22 "
        "reduces to 0 = -916992/41 over rows (0, 1, 2, ")
    assert check.lines[4] == (
        "reconstruction residual at q^8 for level 52 row 14")
    assert check.lines[5] == "lemma32: FAILED"
    result = run_cli("verify", "lemma32")
    assert result.exit_code == 1
    assert tuple(result.stdout.splitlines()) == check.lines
    assert result.stderr == ""


def _raise_probe(*args, **kwargs):
    raise ArithmeticError("probe")


PROBES = [
    (eta, "check_ligozat", verify.ligozat,
     "ligozat: deviation from the expected profile"),
    (verify, "dim_spaces", verify.dims, "dims: FAILED"),
    (eisenstein, "lhs_square", lambda: verify.identity(30),
     "identity: FAILED"),
    (spaces, "derive_coefficients", lambda: verify.lemma32(60),
     "lemma32: FAILED"),
    (convolution, "w_series_oracle", lambda: verify.closed_forms(30),
     "closed-forms: FAILED"),
    (convolution, "w_oracle", lambda: verify.reps(10, 20), "reps: FAILED"),
]


@pytest.mark.parametrize("module, name, run, verdict", PROBES,
                         ids=[name for _, name, _, _ in PROBES])
def test_no_suite_raises_a_failed_result_check(monkeypatch, module, name, run,
                                               verdict):
    """A library call that fails its own check is a failing line of the
    suite that made it, which then ends with its failure verdict."""
    monkeypatch.setattr(module, name, _raise_probe)
    check = run()
    assert check.ok is False
    assert any("probe" in x for x in check.lines[:-1])
    assert check.lines[-1] == verdict


def test_closed_table_checks_its_shape(monkeypatch):
    """A cusp table one row short is a shape error of every closed form
    over it, a failed result check (not a usage error), before any term is
    dropped."""
    level44_row_missing(monkeypatch)
    with pytest.raises(ArithmeticError, match=(
            r"^closed form for \(1, 44\): 6 sigma_3 coefficients for 6 "
            r"divisors, 15 cusp weights for 14 rows$")):
        convolution.w_closed_table((1, 44), 0)
    result = run_cli("verify", "closed-forms", "--max-n", "60")
    assert result.exit_code == 1
    assert result.stdout.splitlines() == [
        "closed form for (1, 44): 6 sigma_3 coefficients for 6 divisors, "
        "15 cusp weights for 14 rows",
        "closed form for (4, 11): 6 sigma_3 coefficients for 6 divisors, "
        "15 cusp weights for 14 rows",
        "closed form (1, 52): equals brute force for n <= 60",
        "closed form (4, 13): equals brute force for n <= 60",
        "closed-forms: FAILED"]
