"""Exhaustive numerical verification of the mixed character sum
identities P(j,k) = V(j)V(k) over F_q with q == 1 (mod 4), together with
the Gauss/Jacobi/hypergeometric machinery and Mellin-transform closed
forms the identities rest on.
"""

from .gf import (
    FieldParams,
    FieldTable,
    FieldError,
    NotPrime,
    TooLarge,
    WrongResidue,
    ZeroArgument,
    build_field,
)
from .chars import MultChar
from .sums import DEFAULT_TOL, BadArgument, gauss, hasse_davenport_residual, jacobi
from .mixed import (
    MixedSumContext,
    ParameterOutOfRange,
    make_context,
    mixed_table,
    state_vector,
)
from .harness import CheckReport, ConfigError, SuiteConfig, emit_report, run
from . import mellin

__all__ = [
    "FieldParams", "FieldTable", "FieldError", "NotPrime", "TooLarge",
    "WrongResidue", "ZeroArgument", "build_field",
    "MultChar",
    "DEFAULT_TOL", "BadArgument", "gauss", "hasse_davenport_residual", "jacobi",
    "MixedSumContext", "ParameterOutOfRange", "make_context", "mixed_table",
    "state_vector",
    "CheckReport", "ConfigError", "SuiteConfig", "emit_report", "run",
    "mellin",
]
