"""Frozen exact data for the levels 44 and 52.  ``levels`` and
``closed_form_pairs`` list its levels and pairs when they are called.
Three kinds of data live here:

* the eta-quotient exponent tables that define the cusp expansions
  (``CUSP_EXPONENTS``), together with structural facts about them that the
  test suite pins (rows whose order at some cusp is exactly zero, leading
  minors, the admissible replacement rows that make a level's set span the
  full space, the dimensions of the spaces);

* canonical expansion coefficients (``EXPANSION_COEFFS``): the unique
  exact solutions derived by this library and cross-verified against
  brute-force convolution sums, frozen as regression values, which
  ``convolution.w_closed_table`` evaluates as the closed forms after
  rewriting them through the exact relations of ``DIVISION_FREE_ROWS``
  (integer numerators over one denominator each, checked past the Sturm
  bound by ``convsum verify lemma32``), so that no row of the evaluation
  divides;

* where previously reported variants of the same coefficient lists
  disagree with the exact derivation (``REPORTED_DIVERGENCES``), which
  ``convsum verify lemma32`` prints.  The reported lists themselves, the
  level-52 dependency among the printed rows and the constant-term
  violations of the reported level-52 lists are test data and live in the
  test suite.
"""

from __future__ import annotations

from fractions import Fraction

# ---------------------------------------------------------------------------
# eta-quotient exponent tables
#
# One row per cusp basis element; columns follow the ascending divisors of
# the level (44: 1,2,4,11,22,44 / 52: 1,2,4,13,26,52).  Row i of each table
# has leading exponent i except for the trailing rows, whose leading
# exponents repeat earlier values.

CUSP_EXPONENTS = {
    44: (
        (6, -2, 0, 6, -2, 0),
        (4, 0, 0, 4, 0, 0),
        (2, 2, 0, 2, 2, 0),
        (0, 4, 0, 0, 4, 0),
        (-2, 6, 0, -2, 6, 0),
        (0, 2, 2, 0, 2, 2),
        (0, -3, 5, 0, 5, 1),
        (0, 0, 4, 0, 0, 4),
        (3, 0, 1, -1, 0, 5),
        (0, -2, 6, 0, -2, 6),
        (1, -3, 4, -3, 5, 4),
        (2, 0, 0, 2, -4, 8),
        (0, 2, 0, 0, -2, 8),
        (-3, 9, 0, 1, 1, 0),
        (0, 0, 2, 0, -4, 10),
    ),
    52: (
        (1, 5, 0, 3, -1, 0),
        (3, 3, 0, 1, 1, 0),
        (1, 3, 0, 3, 1, 0),
        (3, 1, 0, 1, 3, 0),
        (1, 1, 0, 3, 3, 0),
        (3, -1, 0, 1, 5, 0),
        (1, -1, 0, 3, 5, 0),
        (0, 3, 1, 0, 1, 3),
        (2, 1, 1, -2, 3, 3),
        (0, 1, 1, 0, 3, 3),
        (2, -1, 1, -2, 5, 3),
        (0, 3, -1, 0, 1, 5),
        (2, 1, -1, -2, 3, 5),
        (0, 1, -1, 0, 3, 5),
        (-1, 5, 0, 5, -1, 0),
        (0, -1, 5, 0, 5, -1),
        (7, -3, 0, -3, 7, 0),
        (0, 7, -3, 0, -3, 7),
    ),
}


def levels(choice: int | str = "all") -> tuple[int, ...]:
    """The levels of a ``--level`` choice; "all" is every level tabled now."""
    return tuple(CUSP_EXPONENTS) if choice == "all" else (int(choice),)


def closed_form_pairs() -> tuple[tuple[int, int], ...]:
    """Each (1, b) whose (4, b) and (1, 4b) have expansions, in their order."""
    return tuple((1, b) for a, b in EXPANSION_COEFFS
                 if a == 4 and (1, 4 * b) in EXPANSION_COEFFS)


# Rows (1-based) whose order at some cusp is exactly zero: they are modular
# but not cuspidal, i.e. they satisfy the holomorphy inequalities only
# non-strictly.  Mapping: row index -> cusp denominators with zero order.
NONSTRICT_ROWS = {
    44: {7: (1, 2), 11: (2,)},
    52: {7: (2, 4), 14: (4,)},
}

# Determinants of the leading minors [c_j(n)], n = 1..dim S; dims (M, E, S).
CUSP_DETERMINANTS = {44: -396, 52: -1966080}
DIMENSIONS = {1: (1, 1, 0), 44: (21, 6, 15), 52: (24, 6, 18)}

# Replacement rows of ``eta.basis_rows``, by level and 1-based row.  The 24
# level-52 columns (6 dilated weight-4 Eisenstein series plus the 18 rows
# above) satisfy one exact linear relation, so they span only a
# 23-dimensional subspace and the squared-Eisenstein combinations for the
# pairs (1,52) and (4,13) lie outside it.  Swapping row 7 for the admissible
# quotient below (strictly cuspidal, same leading exponent 7) restores full
# rank and makes the expansion unique.
REPAIRED_ROWS = {52: {7: (-2, 5, 1, 2, -1, 3)}}

# Division-free swaps of ``eta.evaluation_rows``, by level and 1-based row.
# The rows of ``eta.basis_rows`` keyed here have order 0 at a cusp, and no
# plan of theta series expands them without a division by F(q^4).  Each
# entry is (the row it replaces, a strictly cuspidal quotient that expands
# without one, d, numerators x): the replaced row equals
#   sum_t x_t / d M(q^t) over the ascending divisors t of the level
#   + sum_j x_j / d (row j of the basis rows with every swap of the level),
# an identity of weight-4 forms checked far past the Sturm bound.  The
# closed forms are evaluated over the swapped rows; ``verify lemma32``
# checks every relation past the Sturm bound, at every coefficient of its
# basis.
DIVISION_FREE_ROWS = {
    44: {
        7: ((0, -3, 5, 0, 5, 1), (0, 4, -2, 0, 0, 6), 878400, (
            11, -99, 88, -11, 99, -88,
            -17524, -120760, -411044, -615616, -554976, 381560, -193004,
            346880, -46848, -529536, 14884, -171776, -1678720, 15616,
            -1194624)),
        11: ((1, -3, 4, -3, 5, 4), (0, 0, 6, 0, 4, -2), 38649600, (
            121, -2057, 1936, -121, 2057, -1936,
            -1212684, -6610440, -12615324, -12576576, 7824864, -30238200,
            -13342164, -35136960, 128832, 12570624, 1183644, 7343424,
            19968960, -433344, -60808704)),
    },
    52: {
        14: ((0, 1, -1, 0, 3, 5), (0, -1, 3, 0, 5, 1), 428400, (
            0, 1, -16, 0, -1, 16,
            0, 600, 2640, 4560, 14160, 4980, 5760, -42240, 0, -194880,
            23040, -86400, -5760, 32880, -840, -960, 60, -960)),
    },
}


# ---------------------------------------------------------------------------
# canonical expansion coefficients
#
# For each pair (alpha, beta): the unique exact expansion of
# (alpha L(q^alpha) - beta L(q^beta))^2 over the level basis, stored as
#   (sigma3 coefficients 240*X_delta, ascending delta | level,
#    cusp coefficients Y_j in table order).
# The rows are ``eta.basis_rows``: the printed rows at level 44, the
# repaired row set at level 52.

def _fr(values):
    return tuple(Fraction(v) for v in values)


EXPANSION_COEFFS = {
    (1, 44): (
        _fr(("124464/61", "-80422848/5795", "68986368/5795", "-174240/61",
             "62064288/5795", "2525690112/5795")),
        _fr(("1440/61", "-82927872/5795", "-887345568/5795", "-1676429568/5795",
             "-2804007168/5795", "3753380736/5795", "-13356288/19",
             "4226609664/5795", "-633600/19", "-527332608/1159", "7679232/19",
             "-15231744/95", "-131079168/95", "317952/19", "-12595968/95")),
    ),
    (4, 11): (
        _fr(("-110880/61", "80121888/5795", "-48338688/5795", "1817904/61",
             "-98480448/5795", "-27320832/5795")),
        _fr(("110880/61", "174857472/5795", "1169427168/5795", "2114189568/5795",
             "3025513728/5795", "-3511080576/5795", "13356288/19",
             "-3641762304/5795", "633600/19", "663913728/1159", "-7679232/19",
             "15231744/95", "131079168/95", "-317952/19", "12595968/95")),
    ),
    (1, 52): (
        _fr(("19776/85", "-10048272/11645", "1827072/137", "-105456/85",
             "-33550608/11645", "84344832/137")),
        _fr(("188304/85", "10371636/11645", "170994144/11645", "-159115632/11645",
             "74642256/11645", "-7306416/137", "-8895744/137", "36511488/137",
             "7488", "12797006352/11645", "-31821504/137", "3053841024/11645",
             "11289408/137", "205627968/137", "93318876/11645",
             "563123184/11645", "-26128128/11645", "-569088/137")),
    ),
    (4, 13): (
        _fr(("-624/85", "-288912/11645", "516096/137", "3342144/85",
             "-43309968/11645", "-2725632/137")),
        _fr(("624/85", "-10785204/11645", "-41378016/11645", "-57531792/11645",
             "-153339984/11645", "-610128/137", "-458496/137", "2204928/137",
             "-7488", "527050992/11645", "-5595456/137", "121789824/11645",
             "-1935168/137", "681408/137", "11928996/11645", "4252944/11645",
             "-9155328/11645", "-186624/137")),
    ),
}

# ---------------------------------------------------------------------------
# Where the previously reported coefficient lists (kept verbatim in the
# test suite) depart from the exact values.  For level 44 the divergence is
# a single entry per pair; evaluating the reported closed form there yields
# non-integers at small n (first failures: n=2 and n=7).  The reported
# level-52 lists cannot be reconciled with the exponent table at all: the
# sigma3 coefficients of a valid expansion must sum to 240*(alpha - beta)^2,
# which the reported lists violate.
REPORTED_DIVERGENCES = {
    (1, 44): ("sigma3", 2),
    (4, 11): ("cusp", 7),
    (1, 52): ("inconsistent", None),
    (4, 13): ("inconsistent", None),
}
