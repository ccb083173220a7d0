"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Criteria 1 and 4 are strict expected failures.  The embedded exponent
tables provably cannot satisfy them: four rows have order exactly zero at
some cusp (so the strict cusp condition fails for them), and the reported
coefficient lists contain two typos at level 44 while the level-52 lists
are inconsistent as a whole (their sigma3 parts violate the forced
constant-term sum, so no derivation over any row set can reproduce them).
The attainable parts of both criteria are locked in by the companion
tests that follow each xfail.
"""

import time
from fractions import Fraction

import pytest

from convsum import tables, verify
from convsum.arith import dim_spaces
from convsum.convolution import w_closed_table, w_oracle
from convsum.eisenstein import EisensteinPair
from convsum.eta import check_ligozat, expand, table_rows
from convsum.representations import r4_enumerate, r4_jacobi
from convsum.spaces import DerivationError, build_basis, derive_coefficients
from conftest import REPORTED_EXPANSION_COEFFS


def report(num, ok, detail):
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {detail}")
    return ok


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "rows 7/11 (level 44) and 7/14 (level 52) have cusp order exactly 0, "
    "so the strict condition (v') cannot hold for them"))
def test_criterion_1_ligozat_suite():
    start = time.perf_counter()
    failures = []
    for level in (44, 52):
        for i, row in enumerate(table_rows(level), 1):
            rep = check_ligozat(row)
            if not (rep.in_modular_space and rep.cond_v_prime
                    and rep.weight == 4):
                failures.append((level, i))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    report(1, ok, f"all rows satisfy (i)-(v') at weight 4 in {elapsed:.2f}s; "
                  f"strict-condition failures: {failures}")
    assert not failures
    assert elapsed < 1.0


def test_criterion_1_attainable_part():
    """Every row is weight 4 and satisfies (i)-(v); the strict condition
    fails on exactly the four known rows."""
    start = time.perf_counter()
    ok = verify.ligozat().ok
    elapsed = time.perf_counter() - start
    assert report(1, ok and elapsed < 1.0,
                  f"(companion) all 33 rows modular at weight 4; the four "
                  f"known rows and only those fail (v'); {elapsed:.2f}s")


def test_criterion_2_basis_independence():
    assert tables.CUSP_DETERMINANTS == {44: -396, 52: -1966080}
    assert report(2, verify.basis().ok,
                  "cusp minors -396 (15x15) and -1966080 (18x18) nonzero; "
                  "Eisenstein matrices unit lower triangular")


def test_criterion_3_dilation_observations():
    limit = 500
    a = [expand(r, limit) for r in table_rows(44)]
    b = [expand(r, limit) for r in table_rows(52)]
    ok = True
    for n in range(limit + 1):
        for i in (2, 3, 4, 5):
            ok = ok and a[2 * i - 1][n] == (a[i - 1][n // 2] if n % 2 == 0 else 0)
        for j in (4, 5, 6, 7):
            ok = ok and b[2 * j - 1][n] == (b[j - 1][n // 2] if n % 2 == 0 else 0)
        ok = ok and b[15][n] == (b[14][n // 2] if n % 2 == 0 else 0)
        ok = ok and b[17][n] == (b[16][n // 2] if n % 2 == 0 else 0)
        if not ok:
            break
    assert report(3, ok, f"dilated rows satisfy c_2i(n) = c_i(n/2) for all "
                         f"n <= {limit}, exact")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "reported lists diverge from the exact solution: one entry each for "
    "(1,44) and (4,11), and the level-52 lists violate the constant-term "
    "constraint, so they are not reproducible over any row set"))
def test_criterion_4_coefficient_rederivation():
    start = time.perf_counter()
    failures = []
    solutions = {}
    for pair in tables.EXPANSION_COEFFS:
        level = pair[0] * pair[1]
        basis = build_basis(level, 300, table_rows(level))
        try:
            solutions[pair] = derive_coefficients(EisensteinPair(*pair), basis)
        except DerivationError as exc:
            failures.append((pair, f"derivation failed: {exc}"))
            continue
        expected_s3, expected_y = REPORTED_EXPANSION_COEFFS[pair]
        if solutions[pair].sigma3 != expected_s3:
            failures.append((pair, "sigma3 coefficients differ"))
        if solutions[pair].cusp_weights != expected_y:
            failures.append((pair, "cusp coefficients differ"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    report(4, ok, f"reported-list reproduction in {elapsed:.1f}s; "
                  f"failures: {failures}")
    assert not failures
    assert elapsed < 30.0


def test_criterion_4_attainable_part():
    """The derivation is unique and exact: level 44 over the embedded rows,
    level 52 over the repaired rows, both matching the frozen canonical
    values, with three of the five spot values reproduced (the other two
    sit inside the inconsistent level-52 reported lists)."""
    start = time.perf_counter()
    ok = verify.lemma32(300).ok
    assert tables.EXPANSION_COEFFS[(1, 44)][0][0] == Fraction(124464, 61)
    assert tables.EXPANSION_COEFFS[(4, 11)][1][0] == Fraction(110880, 61)
    assert tables.EXPANSION_COEFFS[(4, 13)][1][8] == Fraction(-7488)
    with pytest.raises(DerivationError):
        derive_coefficients(EisensteinPair(1, 52),
                            build_basis(52, 300, table_rows(52)))
    elapsed = time.perf_counter() - start
    assert report(4, ok and elapsed < 30.0,
                  f"(companion) canonical reproduction for all four pairs at "
                  f"precision 300 in {elapsed:.1f}s; 3 of 5 spot values hold, "
                  "level-52 reported lists proven non-derivable")


def test_criterion_5_squared_combination_identity():
    assert report(5, verify.identity(300).ok,
                  "squared Eisenstein combination equals its convolution "
                  "expansion for all four pairs, n <= 300")


def test_criterion_6_closed_forms():
    limit = 1000
    start = time.perf_counter()
    ok = verify.closed_forms(limit).ok
    for pair in tables.EXPANSION_COEFFS:
        closed = w_closed_table(pair, limit)  # integrality enforced inside
        ok = ok and all(closed[n] == w_oracle(*pair, n)
                        for n in range(1, limit + 1))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert report(6, ok, f"closed forms equal brute force for 1 <= n <= "
                         f"{limit} with integral values throughout, "
                         f"{elapsed:.1f}s")


def test_criterion_7_four_square_identity():
    ok = all(r4_jacobi(n) == r4_enumerate(n) for n in range(0, 201))
    assert report(7, ok, "four-square counts: divisor form equals lattice "
                         "enumeration for 0 <= n <= 200")


def test_criterion_8_octonary_counts():
    assert report(8, verify.reps(100, 300).ok,
                  "octonary closed forms equal enumeration for n <= 100; "
                  "substitution identities exact for n <= 300")


def test_criterion_9_dimensions():
    assert report(9, verify.dims().ok,
                  f"dimension formula gives {dim_spaces(44, 4)} at level 44 "
                  f"and {dim_spaces(52, 4)} at level 52")
