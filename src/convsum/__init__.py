"""Exact evaluation of divisor-function convolution sums.

The library reconstructs, from first principles and in exact integer and
rational arithmetic, the closed forms for the convolution sums of the pairs
(1,44), (4,11), (1,52), (4,13) and the representation counts of the
octonary forms with coefficient pairs (1,11) and (1,13).  Every closed
form is checked against an independent brute-force oracle.  Exports load
on first use: ``import convsum`` alone loads no submodule.
"""

from importlib import import_module

_HOME = {name: module for module, names in {
    "arith": ("dim_spaces", "divisors", "euler_phi", "genus", "sigma_k"),
    "convolution": ("IntegralityError", "w_closed", "w_closed_table",
                    "w_oracle", "w_series_oracle"),
    "eisenstein": ("EisensteinPair", "lhs_square", "rhs_identity", "series_L",
                   "series_M"),
    "eta": ("BasisError", "EtaQuotient", "LigozatReport", "basis_rows",
            "check_ligozat", "expand", "table_rows"),
    "qseries": ("QSeries",),
    "representations": ("default_w_provider", "r4_enumerate", "r4_jacobi",
                        "rep_count_closed", "rep_count_enumerate"),
    "spaces": ("CoefficientSolution", "DerivationError",
               "InconsistentSystemError", "SingularSystemError",
               "SpaceBasis", "build_basis", "derive_coefficients",
               "verify_independence"),
}.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
