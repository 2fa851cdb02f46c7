"""Exact ladder-operator verification of an operator-valued Hopf bundle.

Operators act on the Fock basis as finite sums of weighted shifts, so
every identity is checked coefficient-by-coefficient without truncation
error; states on which a coefficient is singular (Dirac strings) are
excluded from the scan and reported.
"""

from .operators import FockOperator, op_equal
from .opmatrix import OpMatrix, check_unitary, matrix_equal
from .report import CheckResult, VerificationReport
from .symbols import DiagonalSymbol, sigma_tol

__version__ = "1.0.0"

__all__ = [
    "CheckResult",
    "DiagonalSymbol",
    "FockOperator",
    "OpMatrix",
    "VerificationReport",
    "check_unitary",
    "matrix_equal",
    "op_equal",
    "sigma_tol",
    "__version__",
]
