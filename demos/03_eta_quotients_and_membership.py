#!/usr/bin/env python3
"""Eta quotients: expansions, the membership conditions, and a data finding.

Each table row is an exponent vector over the divisors of its level.  The
membership test checks two congruences mod 24, a rational-square condition,
the weight, and the sign of the order at every cusp.  Running it over the
embedded tables shows that four rows have order exactly zero at some cusp:
they are holomorphic modular forms but *not* cusp forms, which is the root
of the level-52 issue explored in demo 05.
"""

from convsum import check_ligozat, expand, table_rows

print("level-44 rows and their expansions (first 8 coefficients):")
for i, row in enumerate(table_rows(44)[:4], 1):
    series = expand(row, 12)
    print(f"  row {i}: {row.as_row()} ->",
          list(series.coeffs[:9]), "...")
print()

print("the second row is the fourth-power quotient at arguments z and 11z;")
print("its expansion starts at q^2 (leading exponent = divisor-weighted "
      "exponent sum / 24):")
row2 = table_rows(44)[1]
print(f"  exponents {row2.as_row()}, leading exponent {row2.leading_exponent}")
print()

print("membership report per row (i, ii: congruences mod 24; iii: square;")
print("iv: even weight; v/v': cusp orders >= 0 / > 0):")
for level in (44, 52):
    for i, row in enumerate(table_rows(level), 1):
        rep = check_ligozat(row)
        flags = "".join("y" if c else "n" for c in
                        (rep.cond_i, rep.cond_ii, rep.cond_iii, rep.cond_iv,
                         rep.cond_v, rep.cond_v_prime))
        marker = ""
        if not rep.cond_v_prime:
            zero_at = [c for c, v in rep.cusp_orders if v == 0]
            marker = f"   <-- order 0 at cusp denominator(s) {zero_at}"
        print(f"  level {level} row {i:2d}: conditions {flags}, "
              f"weight {rep.weight}{marker}")
print()
print("29 of the 33 rows are strictly cuspidal; rows 7/11 (level 44) and")
print("7/14 (level 52) sit on the boundary, so any claim that all rows are")
print("cusp forms is off by exactly these four.")
