from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convsum import convolution, qseries, tables
from convsum.arith import sigma_k
from convsum.convolution import (IntegralityError, _division_free, w_closed,
                                 w_closed_table, w_oracle, w_series_oracle)
from convsum.eisenstein import EisensteinPair
from convsum.eta import basis_rows, evaluation_rows, expand, table_rows
from convsum.representations import rep_count_closed
from convsum.spaces import build_basis, derive_coefficients
from conftest import (REPORTED_CONSTANT_VIOLATIONS, REPORTED_EXPANSION_COEFFS,
                      literal_w_table)


def test_w_oracle_examples():
    assert w_oracle(1, 44, 44) == 0
    assert w_oracle(1, 44, 45) == 1
    assert w_oracle(4, 11, 19) == 3
    assert w_oracle(1, 1, 5) == 38
    assert w_oracle(1, 11, 0) == 0
    with pytest.raises(ValueError):
        w_oracle(0, 3, 5)
    with pytest.raises(ValueError, match="need n >= 0"):
        w_oracle(1, 44, -1)


def test_w_series_oracle_matches_direct():
    for alpha, beta in ((1, 44), (4, 11), (1, 11), (1, 13)):
        table = w_series_oracle(alpha, beta, 200)
        for n in range(201):
            assert table[n] == w_oracle(alpha, beta, n)
    assert w_series_oracle(1, 11, 12)[12] == 1
    assert w_series_oracle(1, 13, 15)[15] == 3
    assert w_series_oracle(1, 44, 0) == [0]
    with pytest.raises(ValueError, match="need n >= 0"):
        w_series_oracle(1, 44, -1)


@pytest.mark.parametrize("pair", (*tables.EXPANSION_COEFFS, (1, 11), (1, 13)))
def test_w_series_oracle_matches_literal_double_sum(pair):
    """The four evaluated pairs and the pairs the octonary counts read."""
    assert w_series_oracle(*pair, 2000) == literal_w_table(*pair, 2000)


@pytest.mark.parametrize("pair", list(tables.EXPANSION_COEFFS))
def test_w_series_oracle_matches_literal_double_sum_at_5000(pair):
    """The four evaluated pairs over the range of the benchmark's run."""
    assert w_series_oracle(*pair, 5000) == literal_w_table(*pair, 5000)


def test_w_series_oracle_leaves_the_sigma_cache_alone():
    """The oracle maps the uncached sigma: a table to 5000 adds no entry to
    the cache of ``sigma_k``."""
    sigma_k.cache_clear()
    w_series_oracle(1, 44, 5000)
    assert sigma_k.cache_info().currsize == 0


def test_w_series_oracle_is_independent_of_the_sieve(no_sigma_sieve):
    """The oracle takes sigma by factorization: with every binding of the
    sieve made to raise, it still equals the literal double sum."""
    assert w_series_oracle(1, 44, 2000) == literal_w_table(1, 44, 2000)


def test_w_series_oracle_multiplies_only_the_slots_it_reads(monkeypatch):
    """(1, 44) at 5000 reads k = 114 sums of each of its 44 classes, so
    every product runs on k slots, through ``qseries.dense_product``; the
    shared operand sigma[:k] is packed once per slot width, not per
    class."""
    real, sizes, shared = convolution.dense_product, [], []
    real_pack, packed = qseries.pack, []

    def recording(a, b, n, packs):
        sizes.append((len(a), len(b), n))
        shared.append(packs)
        return real(a, b, n, packs)

    def counting(coeffs, w):
        packed.append(w)
        return real_pack(coeffs, w)

    monkeypatch.setattr(convolution, "dense_product", recording)
    monkeypatch.setattr(qseries, "pack", counting)
    assert w_series_oracle(1, 44, 5000) == literal_w_table(1, 44, 5000)
    assert sizes == [(114, 114, 114)] * 44
    packs = shared[0]
    assert all(p is packs for p in shared) and packs
    assert len(packed) == 44 + len(packs)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 300))
@example(3, 2, 300)
@example(2, 4, 300)
@example(7, 7, 300)
@example(6, 4, 299)
@example(13, 4, 300)
@example(3, 50, 40)
@example(7, 11, 17)
@example(1, 13, 259)
@example(2, 26, 519)
def test_w_series_oracle_matches_literal_double_sum_for_any_pair(
        alpha, beta, max_n):
    """The table and every single value of the direct oracle, which visits
    only the solutions of alpha l + beta m = n.  The examples of the banded
    product: alpha > beta, with a common factor and without, and alpha =
    beta (one band); b > max_n (bands of one slot) and max_n < alpha + beta
    (every sum 0); max_n = -1 mod b, where the last band of sigma(l) fills
    all k of its slots, also after dividing an odd max_n by a common
    factor."""
    literal = literal_w_table(alpha, beta, max_n)
    assert w_series_oracle(alpha, beta, max_n) == literal
    assert [w_oracle(alpha, beta, n) for n in range(max_n + 1)] == literal


def test_closed_form_examples():
    assert w_closed((1, 44), 45) == 1
    assert w_closed((4, 11), 15) == 1
    assert w_closed((1, 52), 52) == 0
    assert w_closed((4, 13), 100) == w_oracle(4, 13, 100)
    assert w_closed((1, 44), 0) == 0
    assert w_closed_table((1, 52), 0) == [0]
    with pytest.raises(ValueError):
        w_closed((1, 44), -1)
    with pytest.raises(ValueError, match="need n >= 0"):
        w_closed_table((1, 44), -1)
    with pytest.raises(ValueError, match="unavailable"):
        w_closed_table((3, 7), 10)


@pytest.mark.parametrize("pair", list(tables.EXPANSION_COEFFS))
def test_closed_equals_oracle(pair):
    limit = 300
    assert w_closed_table(pair, limit) == w_series_oracle(*pair, limit)


@pytest.mark.parametrize("pair", list(tables.EXPANSION_COEFFS))
def test_formula_rederivation_matches_frozen_data(pair):
    """Double entry: a fresh solve reproduces the frozen expansion, and
    evaluated as a closed form it equals brute force."""
    basis = build_basis(pair[0] * pair[1], 120)
    solution = derive_coefficients(EisensteinPair(*pair), basis)
    assert solution[:2] == tables.EXPANSION_COEFFS[pair]
    expansion = (*solution[:2], basis.cusp_rows)
    assert w_closed_table(pair, 300, expansion) == w_series_oracle(*pair, 300)


@pytest.mark.parametrize("pair", list(tables.EXPANSION_COEFFS))
def test_division_free_tables_equal_the_basis_row_tables(pair):
    """The closed form rewritten over the division-free rows is the closed
    form over the basis rows, entry for entry."""
    expansion = (*tables.EXPANSION_COEFFS[pair], basis_rows(pair[0] * pair[1]))
    assert w_closed_table(pair, 3000) == w_closed_table(pair, 3000, expansion)


def test_rewritten_weights_have_smaller_denominators():
    """The rewrite takes the lcm of the weights' denominators from 5795 to
    305 at level 44 and from 11645 to 85 at level 52, so the closed sums
    run on narrower slots."""
    for pair, (s3, y) in tables.EXPANSION_COEFFS.items():
        level = pair[0] * pair[1]
        before = lcm(*(c.denominator for c in (*s3, *y)))
        den, s3_new, y_new, rows = _division_free(level, s3, y)
        after = lcm(*(Fraction(v, den).denominator for v in (*s3_new, *y_new)))
        assert (before, den, after) == {44: (5795, 305, 305),
                                        52: (11645, 85, 85)}[level]
        assert Fraction(sum(s3_new), den) == sum(s3)
        assert rows == evaluation_rows(level)


def test_closed_path_never_divides(monkeypatch, fresh_expansions):
    """Counter: the default closed tables, a closed point value and the
    closed octonary counts expand every row without ``div_sparse``, which
    the basis rows of the solves still call once for each of three rows."""
    calls = []
    real = qseries.div_sparse
    monkeypatch.setattr(qseries, "div_sparse",
                        lambda *args: calls.append(1) or real(*args))
    for pair in tables.EXPANSION_COEFFS:
        w_closed_table(pair, 500)
    w_closed((4, 13), 700)
    rep_count_closed(1, 11, 900)
    assert calls == []
    for level in tables.levels():
        for row in basis_rows(level):
            expand(row, 500)
    assert len(calls) == 3


def test_integrality_enforced():
    s3, y = tables.EXPANSION_COEFFS[(1, 44)]
    rows = basis_rows(44)
    broken = (s3, (y[0] + Fraction(1, 7),) + y[1:], rows)
    with pytest.raises(IntegralityError, match="evaluates to"):
        w_closed_table((1, 44), 30, broken)
    # raising the first cusp weight by 1152 * 44 keeps every value integral
    # but drives W(1,44)(1) = 0 down to -1 through the first row's leading q
    negative = (s3, (y[0] + 1152 * 44,) + y[1:], rows)
    with pytest.raises(IntegralityError, match="-1 at n = 1"):
        w_closed_table((1, 44), 30, negative)


@pytest.mark.parametrize("pair", list(tables.EXPANSION_COEFFS))
def test_closed_form_below_leading_exponents(pair, fresh_expansions):
    """Single values and tables at n smaller than some cusp row's leading
    exponent."""
    for n in range(1, 14):
        assert w_closed(pair, n) == w_oracle(*pair, n)
        assert w_closed_table(pair, n) == [w_oracle(*pair, m)
                                           for m in range(n + 1)]


def test_reported_level44_forms_fail_at_pinned_entries():
    """The reported level-44 expansions, each one entry off the exact one
    (``test_tables_data``), evaluate to non-integers there."""
    for pair, first_bad in (((1, 44), 2), ((4, 11), 7)):
        reported = (*REPORTED_EXPANSION_COEFFS[pair], table_rows(44))
        with pytest.raises(IntegralityError, match=f"at n = {first_bad}$"):
            w_closed_table(pair, 30, reported)
        assert w_closed(pair, first_bad) == w_oracle(*pair, first_bad)


def test_reported_level52_forms_are_invalid():
    """The reported level-52 closed forms match brute force below n = 22
    and fail there."""
    for pair in ((1, 52), (4, 13)):
        reported = (*REPORTED_EXPANSION_COEFFS[pair], table_rows(52))
        assert w_closed_table(pair, 21, reported) == w_series_oracle(*pair, 21)
        with pytest.raises(IntegralityError, match="at n = 22$"):
            w_closed_table(pair, 22, reported)


def test_reported_level52_expansions_violate_constant_term():
    """A valid expansion's sigma3 coefficients must sum to 240 (alpha-beta)^2;
    the reported lists do not, so no choice of cusp rows can rescue them."""
    for pair, (got, required) in REPORTED_CONSTANT_VIOLATIONS.items():
        reported_s3 = REPORTED_EXPANSION_COEFFS[pair][0]
        assert sum(reported_s3) / 240 == got
        assert got != required
        exact_s3 = tables.EXPANSION_COEFFS[pair][0]
        assert sum(exact_s3) / 240 == required


def test_closed_sums_keep_their_slot_widths(fresh_expansions, monkeypatch):
    """Work-count pin: at P = 5000 the four closed-form sums run on 7-byte
    slots, as they do over the exact largest coefficient of each row: the
    bounds read from the slot bytes, within 2x of it, widen no sum."""
    widths, real = [], qseries.unpack

    def recorded(x, n, w):
        widths.append(w)
        return real(x, n, w)

    monkeypatch.setattr(qseries, "unpack", recorded)
    for pair in tables.EXPANSION_COEFFS:
        w_closed_table(pair, 5000)
    assert widths == [7, 7, 7, 7]
