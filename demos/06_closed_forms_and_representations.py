#!/usr/bin/env python3
"""Closed-form convolution sums and octonary representation counts.

The closed forms combine sigma_3 terms, linear sigma terms, and cusp
coefficients; despite all the rational weights, every value they produce
is an integer equal to the brute-force sum.  The representation counts
for the octonary forms a*(4 squares) + b*(4 squares) then follow, checked
against direct lattice enumeration.
"""

from convsum import (basis_rows, r4_enumerate, r4_jacobi, rep_count_closed,
                     rep_count_enumerate, tables, w_closed_table,
                     w_series_oracle)

LIMIT = 400

for pair in tables.EXPANSION_COEFFS:
    closed = w_closed_table(pair, LIMIT)
    oracle = w_series_oracle(*pair, LIMIT)
    assert closed == oracle
    cusp_terms = len(basis_rows(pair[0] * pair[1]))
    print(f"pair {pair}: closed form with {cusp_terms} cusp "
          f"terms equals brute force for n <= {LIMIT}; "
          f"e.g. W({pair[0]},{pair[1]})(100) = {closed[100]}")
print()

print("four-square counts, divisor formula vs lattice enumeration:")
for n in (0, 1, 4, 12, 50, 100):
    jac, enum = r4_jacobi(n), r4_enumerate(n)
    assert jac == enum
    print(f"  r4({n:3d}) = {jac}")
print()

pairs = tables.closed_form_pairs()
print("octonary counts for (a,b) = "
      + " and ".join(f"({a},{b})" for a, b in pairs) + ":")
for a, b in pairs:
    row = []
    for n in range(0, 14):
        closed = rep_count_closed(a, b, n)
        assert closed == rep_count_enumerate(a, b, n)
        row.append(closed)
    print(f"  N({a},{b})(0..13) = {row}")
print()
print("all counts are convolutions of two four-square counts, so they are")
print("divisible by 8 for n >= 1 and equal the closed forms exactly.")
