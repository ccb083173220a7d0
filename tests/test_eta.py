import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convsum import eta, tables, verify
from convsum.eta import (EtaQuotient, _div_sparse, _expand_ints,
                         _jacobi_cube_terms, _mul_sparse, _pentagonal_terms,
                         basis_rows, check_ligozat, expand, table_rows)
from convsum.qseries import QSeries
from conftest import (literal_eta_expansion, literal_euler_product,
                      mul_lists, naive_div_sparse, naive_eta_expansion,
                      naive_mul_sparse, partition_numbers)


def dense(terms, limit):
    """Coefficient list of a sparse (exponent, coefficient) series."""
    out = [0] * (limit + 1)
    for e, c in terms:
        out[e] = c
    return out


def order(s):
    """Index of the first nonzero coefficient of a nonzero series."""
    return next(n for n, c in enumerate(s.coeffs) if c)


def test_euler_product_examples():
    assert _pentagonal_terms(1, 12) == [(0, 1), (1, -1), (2, -1), (5, 1),
                                        (7, 1), (12, -1)]
    assert _pentagonal_terms(2, 5) == [(0, 1), (2, -1), (4, -1)]
    for delta in (1, 3, 44):
        assert _pentagonal_terms(delta, 30)[0] == (0, 1)


def test_euler_product_matches_literal_product():
    precision = 200
    for delta in range(1, 53):
        literal = literal_euler_product(delta, precision)
        assert dense(_pentagonal_terms(delta, precision), precision) == literal


def test_jacobi_cube():
    limit = 120
    assert dense(_jacobi_cube_terms(1, limit), limit) == dense(
        [(k * (k + 1) // 2, (-1) ** k * (2 * k + 1))
         for k in range(0, 20) if k * (k + 1) // 2 <= limit], limit)
    for delta in (1, 2, 7, 44):
        literal = literal_euler_product(delta, limit)
        cube = mul_lists(mul_lists(literal, literal, limit), literal, limit)
        assert dense(_jacobi_cube_terms(delta, limit), limit) == cube


def test_division_gives_geometric_series():
    assert _div_sparse([1] + [0] * 6, [(0, 1), (1, -1)], 6) == [1] * 7


def test_division_gives_partition_numbers():
    limit = 40
    assert _div_sparse([1] + [0] * limit, _pentagonal_terms(1, limit),
                       limit) == partition_numbers(limit)


TERM_LISTS = {"pentagonal": _pentagonal_terms, "jacobi": _jacobi_cube_terms}


@st.composite
def kernel_case(draw):
    limit = draw(st.integers(1, 400))
    dense = draw(st.lists(st.integers(-2 ** 40, 2 ** 40),
                          min_size=limit + 1, max_size=limit + 1))
    delta = draw(st.integers(1, 60))
    terms = TERM_LISTS[draw(st.sampled_from(sorted(TERM_LISTS)))](delta, limit)
    return dense, terms, limit


@settings(max_examples=80, deadline=None)
@given(kernel_case())
def test_sparse_kernels_match_naive(case):
    """Slice kernels against the per-coefficient oracles, across block
    sizes and on both sides of the short/long-lag split."""
    dense, terms, limit = case
    assert _mul_sparse(dense, terms, limit) == naive_mul_sparse(
        dense, terms, limit)
    assert _div_sparse(dense, terms, limit) == naive_div_sparse(
        dense, terms, limit)


@settings(max_examples=40, deadline=None)
@given(kernel_case())
def test_sparse_division_inverts_multiplication(case):
    dense, terms, limit = case
    assert _div_sparse(_mul_sparse(dense, terms, limit), terms,
                       limit) == dense


def test_expand_ints_against_naive_order(fresh_expansions):
    """Positive-first order with Jacobi cubes against one pentagonal step
    per unit of exponent in divisor order, on every table row and the
    repaired row."""
    precision = 400
    rows = set(table_rows(44) + table_rows(52) + basis_rows(52))
    assert len(rows) == 34
    for row in rows:
        assert _expand_ints(row, precision) == naive_eta_expansion(
            row, precision)


def test_expand_below_leading_exponent(fresh_expansions):
    """A precision below the leading exponent gives precision + 1 zeros,
    and the cache never holds more coefficients than its precision."""
    row = basis_rows(52)[tables.REPAIRED_ROW_INDEX_52 - 1]
    for precision in (1, 3, 6):
        assert expand(row, precision).coeffs == (0,) * (precision + 1)
        cached_precision, cached = eta._EXPANSION_CACHE[row]
        assert (cached_precision, len(cached)) == (precision, precision + 1)
    assert expand(row, 7)[7] == 1
    assert expand(row, 3).coeffs == (0,) * 4


def test_quotient_construction():
    eq = EtaQuotient.of(44, (6, -2, 0, 6, -2, 0))
    assert eq.exponent(1) == 6 and eq.exponent(4) == 0
    assert eq.as_row() == (6, -2, 0, 6, -2, 0)
    assert eq.weight == 4
    assert eq.leading_exponent == 1
    with pytest.raises(ValueError):
        EtaQuotient.of(44, {3: 1})
    for row in ((4, 0, 0, 4, 0), (4, 0, 0, 4, 0, 0, 99)):
        with pytest.raises(ValueError, match="6 divisors of level 44"):
            EtaQuotient.of(44, row)


def test_expand_trivial_and_errors():
    assert expand(EtaQuotient.of(6, {}), 8) == QSeries(8, [1])
    with pytest.raises(ValueError, match="not divisible by 24"):
        expand(EtaQuotient.of(1, {1: 1}), 8)
    with pytest.raises(ValueError, match="negative leading exponent"):
        expand(EtaQuotient.of(1, {1: -24}), 8)


def test_expand_against_literal_oracle():
    precision = 50
    for level in (44, 52):
        for row in table_rows(level):
            literal = literal_eta_expansion(
                level, dict(row.exponents), precision)
            assert list(expand(row, precision).coeffs) == literal


def test_expand_weight4_level11_square():
    # fourth powers at arguments z and 11z: leading exponent 2, then -4, 2, ...
    eq = EtaQuotient.of(44, (4, 0, 0, 4, 0, 0))
    s = expand(eq, 10)
    assert list(s.coeffs[:7]) == [0, 0, 1, -4, 2, 8, -5]


def test_leading_coefficients_are_one():
    for level in (44, 52):
        for row in table_rows(level):
            e = int(row.leading_exponent)
            s = expand(row, 40)
            assert order(s) == e
            assert s[e] == 1


def test_expansions_are_integral():
    for row in basis_rows(44) + basis_rows(52):
        assert all(type(c) is int for c in expand(row, 60).coeffs)


def test_expansion_cache_consistency():
    eq = EtaQuotient.of(52, (1, 5, 0, 3, -1, 0))
    high = expand(eq, 80)
    low = expand(eq, 25)
    assert low.coeffs == high.coeffs[:26]


def test_table_rows_pinned():
    rows44 = table_rows(44)
    rows52 = table_rows(52)
    assert len(rows44) == 15 and len(rows52) == 18
    assert rows52[0].as_row() == (1, 5, 0, 3, -1, 0)
    assert rows44[6].as_row() == (0, -3, 5, 0, 5, 1)
    with pytest.raises(ValueError):
        table_rows(26)


def test_ligozat_all_rows_modular_weight_four():
    assert verify.ligozat().ok  # conditions (i)-(v) at weight 4
    assert all(check_ligozat(row).leading_exponent >= 1
               for row in table_rows(44) + table_rows(52))


def test_ligozat_strictness_profile():
    """The strict cusp condition fails on exactly the known rows.

    Those rows have order exactly zero at the recorded cusps, so they are
    holomorphic modular forms but not cusp forms; everything else is
    strictly cuspidal.
    """
    assert verify.ligozat().ok
    for level in (44, 52):
        for i, zero_cusps in tables.NONSTRICT_ROWS[level].items():
            rep = check_ligozat(table_rows(level)[i - 1])
            assert tuple(c for c, v in rep.cusp_orders if v == 0) == zero_cusps


def test_ligozat_examples():
    rep = check_ligozat(EtaQuotient.of(1, {1: 1}))
    assert not rep.cond_i
    row9 = table_rows(52)[8]
    assert check_ligozat(row9).weight == 4
    row1 = check_ligozat(table_rows(44)[0])
    assert row1.in_cusp_space and row1.weight == 4


def test_dilation_observations():
    """Rows that are dilations: coefficients shift exponents by a factor 2."""
    precision = 200
    rows44 = [expand(r, precision) for r in table_rows(44)]
    rows52 = [expand(r, precision) for r in table_rows(52)]
    for i in (2, 3, 4, 5):
        assert rows44[2 * i - 1] == rows44[i - 1].dilate(2)
    for j in (4, 5, 6, 7):
        assert rows52[2 * j - 1] == rows52[j - 1].dilate(2)
    assert rows52[15] == rows52[14].dilate(2)
    assert rows52[17] == rows52[16].dilate(2)


def test_repaired_rows():
    assert basis_rows(44) == table_rows(44)
    repaired = basis_rows(52)
    printed = table_rows(52)
    changed = [i for i, (a, b) in enumerate(zip(repaired, printed), 1) if a != b]
    assert changed == [tables.REPAIRED_ROW_INDEX_52]
    replacement = repaired[tables.REPAIRED_ROW_INDEX_52 - 1]
    assert replacement.as_row() == tables.REPAIRED_ROW_52
    rep = check_ligozat(replacement)
    assert rep.in_cusp_space and rep.weight == 4
    assert replacement.leading_exponent == 7
