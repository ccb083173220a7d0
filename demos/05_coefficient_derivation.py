#!/usr/bin/env python3
"""Deriving the expansion coefficients by exact linear algebra.

The squared combination lies in the weight-4 space, so it can be written
over the basis of dilated Eisenstein series plus cusp expansions.  The
solver matches coefficients greedily until full rank and then re-verifies
against every coefficient.  Level 44 works as advertised.  Level 52 does
not: the embedded rows span one dimension too few and the derivation
raises; swapping one dependent row for an independent admissible quotient
restores a unique, brute-force-verified solution.
"""

from convsum import (EisensteinPair, InconsistentSystemError, build_basis,
                     derive_coefficients, table_rows, verify_independence)

P = 120

basis44 = build_basis(44, P)
print("level 44: leading 15x15 cusp minor determinant",
      verify_independence(basis44))

solution = derive_coefficients(EisensteinPair(1, 44), basis44)
print("pair (1,44) solved at rows", solution.solving_indices)
print("sigma_3 coefficients (240 * X_delta):")
for d, c in zip(basis44.divisors, solution.sigma3):
    print(f"  n/{d:2d}: {c}")
print("first three cusp weights:", solution.cusp_weights[:3])
print()

basis52 = build_basis(52, P, table_rows(52))  # the rows as printed
print(f"level 52: leading 18x18 cusp minor determinant "
      f"{verify_independence(basis52)} (nonzero, the rows alone are "
      "independent)")
try:
    derive_coefficients(EisensteinPair(1, 52), basis52)
except InconsistentSystemError as exc:
    print("but together with the Eisenstein series they are not:")
    print(f"  {exc}")
print()

repaired = build_basis(52, P)  # the default rows carry the repair
changed = [i + 1 for i, (a, b) in
           enumerate(zip(repaired.cusp_rows, basis52.cusp_rows)) if a != b]
print(f"repaired row set (row {changed[0]} swapped for "
      f"{repaired.cusp_rows[changed[0] - 1].as_row()}):")
for alpha, beta in ((1, 52), (4, 13)):
    sol = derive_coefficients(EisensteinPair(alpha, beta), repaired)
    print(f"  pair ({alpha},{beta}): unique solution, e.g. cusp weight 9 "
          f"= {sol.cusp_weights[8]}, sigma_3(n/52) coefficient "
          f"= {sol.sigma3[-1]}")
print()
print("demo 06 feeds these into closed forms and checks them against")
print("brute force (the acceptance suite pushes the check to n = 1000).")
