#!/usr/bin/env python3
"""The exact power-series engine: integer coefficients, no rounding ever.

Every series in the pipeline is integral, so a QSeries holds Python ints of
any size.  Shows the ring operations, dilation q -> q^t, and an eta-quotient
expansion (Ramanujan's tau function falls out of eta^24).
"""

from fractions import Fraction

from convsum import EtaQuotient, QSeries, expand, sigma_k, w_oracle

P = 24

a = QSeries(P, [1, -1])
b = QSeries(P, [1, 1])
print("(1 - q)(1 + q) =", (a * b).coeffs[:4], "...")
assert a * b == QSeries(P, [1, 0, -1])

print()
print("squaring sum sigma(n) q^n gives the convolution sums W(1,1)(n):")
sig = QSeries(P, [0] + [sigma_k(1, n) for n in range(1, P + 1)])
square = sig * sig
print(" ", list(square.coeffs[:12]), "...")
assert all(square[n] == w_oracle(1, 1, n) for n in range(P + 1))

print()
print("dilation substitutes q -> q^t and is a ring homomorphism:")
c = QSeries(P, [1, 2, 3])
d = QSeries(P, [0, 1, -5])
assert (c * d).dilate(3) == c.dilate(3) * d.dilate(3)
print("  c(q^3) =", c.dilate(3).coeffs[:8], "...")
print("  (c*d)(q^3) == c(q^3) * d(q^3)  ok")

print()
print("eta(z)^24 = q prod (1 - q^n)^24 expands to Ramanujan's tau(n):")
delta = expand(EtaQuotient.of(1, (24,)), P)
tau = delta.coeffs
print(" ", list(tau[:11]), "...")
assert tau[1:7] == (1, -24, 252, -1472, 4830, -6048)
assert tau[6] == tau[2] * tau[3]  # multiplicative at coprime arguments
print("  tau(6) = tau(2) tau(3):", tau[6] == tau[2] * tau[3])
print("  eta(2z)^24 is its dilation:",
      expand(EtaQuotient.of(2, (0, 24)), P) == delta.dilate(2))

print()
print("coefficients must be integers; a rational one is refused:")
try:
    QSeries(2, [1, Fraction(1, 2)])
except TypeError as exc:
    print("  TypeError:", exc)
