"""Exact evaluation of divisor-function convolution sums.

The library reconstructs, from first principles and in exact integer and
rational arithmetic, the closed forms for the convolution sums of the pairs
(1,44), (4,11), (1,52), (4,13) and the representation counts of the
octonary forms with coefficient pairs (1,11) and (1,13).  Every closed
form is checked against an independent brute-force oracle.
"""

from .arith import dim_spaces, divisors, euler_phi, genus, sigma_k, sigma_k_frac
from .convolution import (EVALUATED_PAIRS, IntegralityError, w_closed,
                          w_closed_table, w_oracle, w_series_oracle)
from .eisenstein import EisensteinPair, lhs_square, rhs_identity, series_L, series_M
from .eta import (EtaQuotient, LigozatReport, basis_rows, check_ligozat, expand,
                  table_rows)
from .qseries import QSeries
from .representations import (CLOSED_FORM_PAIRS, default_w_provider,
                              r4_enumerate, r4_jacobi, rep_count_closed,
                              rep_count_enumerate)
from .spaces import (BasisError, CoefficientSolution, DerivationError,
                     InconsistentSystemError, IndependenceCertificate,
                     SingularSystemError, SpaceBasis, build_basis,
                     derive_coefficients, verify_independence)

__version__ = "0.1.0"

__all__ = [
    "BasisError", "CLOSED_FORM_PAIRS", "CoefficientSolution",
    "DerivationError", "EVALUATED_PAIRS", "EisensteinPair", "EtaQuotient",
    "InconsistentSystemError", "IndependenceCertificate", "IntegralityError",
    "LigozatReport", "QSeries", "SingularSystemError",
    "SpaceBasis", "basis_rows", "build_basis", "check_ligozat",
    "default_w_provider", "derive_coefficients", "dim_spaces", "divisors",
    "euler_phi", "expand", "genus", "lhs_square", "r4_enumerate",
    "r4_jacobi", "rep_count_closed", "rep_count_enumerate", "rhs_identity",
    "series_L", "series_M", "sigma_k", "sigma_k_frac", "table_rows",
    "verify_independence", "w_closed", "w_closed_table", "w_oracle",
    "w_series_oracle",
]
