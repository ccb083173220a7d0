"""Structural checks on the frozen data tables."""

from fractions import Fraction

from convsum import tables
from convsum.eta import basis_rows
from conftest import REPORTED_CONSTANT_VIOLATIONS, REPORTED_EXPANSION_COEFFS


def test_row_counts():
    assert len(tables.CUSP_EXPONENTS[44]) == 15
    assert len(tables.CUSP_EXPONENTS[52]) == 18
    assert all(len(r) == 6 for rows in tables.CUSP_EXPONENTS.values()
               for r in rows)


def test_all_rows_have_weight_four():
    for rows in tables.CUSP_EXPONENTS.values():
        for row in rows:
            assert sum(row) == 8


def test_leading_exponent_pattern():
    divisors = {44: (1, 2, 4, 11, 22, 44), 52: (1, 2, 4, 13, 26, 52)}
    # rows 1..13 (level 44) and 1..14 (level 52) start at q^i; the trailing
    # rows revisit earlier leading exponents
    expected = {44: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 2, 15],
                52: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 2, 4, 6, 12]}
    for level, rows in tables.CUSP_EXPONENTS.items():
        leads = [sum(d * r for d, r in zip(divisors[level], row)) // 24
                 for row in rows]
        assert leads == expected[level]


def test_dilation_structure_of_tables():
    """Exponent rows of the dilated elements are column shifts of their
    sources (divisor d maps to 2d)."""
    def dilated(row):
        return (0, row[0], row[1], 0, row[3], row[4])

    t44 = tables.CUSP_EXPONENTS[44]
    for i in (2, 3, 4, 5):
        assert t44[2 * i - 1] == dilated(t44[i - 1])
    t52 = tables.CUSP_EXPONENTS[52]
    for j in (4, 5, 6, 7):
        assert t52[2 * j - 1] == dilated(t52[j - 1])
    assert t52[15] == dilated(t52[14])
    assert t52[17] == dilated(t52[16])


def test_coefficient_list_shapes():
    assert tables.EXPANSION_COEFFS.keys() == REPORTED_EXPANSION_COEFFS.keys()
    for coeffs in (tables.EXPANSION_COEFFS, REPORTED_EXPANSION_COEFFS):
        for pair, (s3, y) in coeffs.items():
            assert len(s3) == 6
            assert len(y) == len(basis_rows(pair[0] * pair[1]))
            assert all(isinstance(c, Fraction) for c in s3 + y)


def test_expansion_constant_terms():
    for (a, b), (s3, _) in tables.EXPANSION_COEFFS.items():
        assert sum(s3) == 240 * (a - b) ** 2


def test_reported_divergences_match_data():
    for pair, (kind, where) in tables.REPORTED_DIVERGENCES.items():
        exact_s3, exact_y = tables.EXPANSION_COEFFS[pair]
        reported_s3, reported_y = REPORTED_EXPANSION_COEFFS[pair]
        if kind == "inconsistent":
            assert pair in REPORTED_CONSTANT_VIOLATIONS
            continue
        divisors = (1, 2, 4, 11, 22, 44)
        s3_diff = [divisors[i] for i in range(6)
                   if exact_s3[i] != reported_s3[i]]
        y_diff = [j + 1 for j in range(len(exact_y))
                  if exact_y[j] != reported_y[j]]
        if kind == "sigma3":
            assert (s3_diff, y_diff) == ([where], [])
        else:
            assert (s3_diff, y_diff) == ([], [where])

