from dataclasses import replace
from fractions import Fraction

import pytest

from convsum import tables
from convsum.convolution import (EVALUATED_PAIRS, IntegralityError,
                                 closed_form, formula_from_solution,
                                 reported_closed_form, w_closed,
                                 w_closed_table, w_oracle, w_series_oracle)
from convsum.eisenstein import EisensteinPair
from convsum.spaces import build_basis, derive_coefficients, repaired_basis


def test_w_oracle_examples():
    assert w_oracle(1, 44, 44) == 0
    assert w_oracle(1, 44, 45) == 1
    assert w_oracle(4, 11, 19) == 3
    assert w_oracle(1, 1, 5) == 38
    assert w_oracle(1, 11, 0) == 0
    with pytest.raises(ValueError):
        w_oracle(0, 3, 5)


def test_w_series_oracle_matches_direct():
    for alpha, beta in ((1, 44), (4, 11), (1, 11), (1, 13)):
        table = w_series_oracle(alpha, beta, 200)
        for n in range(201):
            assert table[n] == w_oracle(alpha, beta, n)
    assert w_series_oracle(1, 11, 12)[12] == 1
    assert w_series_oracle(1, 13, 15)[15] == 3


def test_closed_form_examples():
    assert w_closed((1, 44), 45) == 1
    assert w_closed((4, 11), 15) == 1
    assert w_closed((1, 52), 52) == 0
    assert w_closed((4, 13), 100) == w_oracle(4, 13, 100)
    assert w_closed((1, 44), 0) == 0
    with pytest.raises(ValueError):
        w_closed((1, 44), -1)
    with pytest.raises(ValueError):
        closed_form((3, 7))


@pytest.mark.parametrize("pair", EVALUATED_PAIRS)
def test_closed_equals_oracle(pair):
    limit = 300
    assert w_closed_table(pair, limit) == w_series_oracle(*pair, limit)


@pytest.mark.parametrize("pair", EVALUATED_PAIRS)
def test_formula_rederivation_matches_frozen_data(pair):
    """Double entry: the frozen closed forms against a fresh derivation."""
    level = pair[0] * pair[1]
    basis = repaired_basis(120) if level == 52 else build_basis(level, 120)
    derived = formula_from_solution(
        derive_coefficients(EisensteinPair(*pair), basis))
    frozen = closed_form(pair)
    assert derived.sigma3_terms == frozen.sigma3_terms
    assert derived.sigma1_terms == frozen.sigma1_terms
    assert derived.cusp_terms == frozen.cusp_terms
    assert derived.cusp_rows == frozen.cusp_rows


def test_linear_terms_structure():
    for (a, b) in EVALUATED_PAIRS:
        lin = closed_form((a, b)).sigma1_terms
        assert lin == ((a, Fraction(1, 24), Fraction(-1, 4 * b)),
                       (b, Fraction(1, 24), Fraction(-1, 4 * a)))


def test_integrality_enforced():
    formula = closed_form((1, 44))
    broken = replace(
        formula,
        cusp_terms=(formula.cusp_terms[0] + Fraction(1, 7),)
        + formula.cusp_terms[1:])
    with pytest.raises(IntegralityError, match="evaluates to"):
        w_closed_table((1, 44), 30, broken)
    # an integral shift of a cusp weight keeps every value integral but
    # drives W(1,44)(1) = 0 down to -1 through the first row's leading q
    negative = replace(
        formula,
        cusp_terms=(formula.cusp_terms[0] - 1,) + formula.cusp_terms[1:])
    with pytest.raises(IntegralityError, match="-1 at n = 1"):
        w_closed_table((1, 44), 30, negative)


@pytest.mark.parametrize("pair", EVALUATED_PAIRS)
def test_closed_form_below_leading_exponents(pair, fresh_expansions):
    """Single values and tables at n smaller than some cusp row's leading
    exponent."""
    for n in range(1, 14):
        assert w_closed(pair, n) == w_oracle(*pair, n)
        assert w_closed_table(pair, n) == [w_oracle(*pair, m)
                                           for m in range(n + 1)]


def test_reported_level44_forms_fail_at_pinned_entries():
    """The retained reported forms each diverge from the exact one at a
    single coefficient, and evaluating them there produces non-integers."""
    for pair, first_bad in (((1, 44), 2), ((4, 11), 7)):
        exact = closed_form(pair)
        reported = reported_closed_form(pair)
        s3_diff = [d for (d, a), (_, b) in
                   zip(exact.sigma3_terms, reported.sigma3_terms) if a != b]
        cusp_diff = [j + 1 for j, (a, b) in
                     enumerate(zip(exact.cusp_terms, reported.cusp_terms))
                     if a != b]
        kind, where = tables.REPORTED_DIVERGENCES[pair]
        assert (s3_diff, cusp_diff) == (
            ([where], []) if kind == "sigma3" else ([], [where]))
        with pytest.raises(IntegralityError, match=f"at n = {first_bad}$"):
            w_closed_table(pair, 30, reported)
        assert w_closed(pair, first_bad) == w_oracle(*pair, first_bad)


def test_reported_level52_forms_are_invalid():
    """The reported level-52 closed forms match brute force below n = 22
    and fail there."""
    for pair in ((1, 52), (4, 13)):
        reported = reported_closed_form(pair)
        assert w_closed_table(pair, 21, reported) == w_series_oracle(*pair, 21)
        with pytest.raises(IntegralityError, match="at n = 22$"):
            w_closed_table(pair, 22, reported)


def test_reported_level52_expansions_violate_constant_term():
    """A valid expansion's sigma3 coefficients must sum to 240 (alpha-beta)^2;
    the reported lists do not, so no choice of cusp rows can rescue them."""
    for pair, (got, required) in tables.REPORTED_CONSTANT_VIOLATIONS.items():
        reported_s3 = tables.REPORTED_EXPANSION_COEFFS[pair][0]
        assert sum(reported_s3) / 240 == got
        assert got != required
        exact_s3 = tables.EXPANSION_COEFFS[pair][0]
        assert sum(exact_s3) / 240 == required
