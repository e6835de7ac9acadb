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
from .chars import (
    MultChar,
    NotFourthPower,
    all_chars,
    delta_char,
    delta_kron,
    eval_add,
    fourth_root,
    is_fourth_power,
    octic_char,
    quadratic_char,
    quartic_char,
    special_chars,
    trivial_char,
)
from .sums import (
    DEFAULT_TOL,
    BadArgument,
    agree,
    gauss,
    hasse_davenport_residual,
    hyp2f1,
    jacobi,
    quad_transform_residual,
)
from .mixed import (
    MixedSumContext,
    ParameterOutOfRange,
    make_context,
    mixed_sum,
    mixed_table,
    state_value,
    state_vector,
)
from .harness import CheckReport, ConfigError, SuiteConfig, emit_report, run
from . import mellin

__all__ = [
    "FieldParams", "FieldTable", "FieldError", "NotPrime", "TooLarge",
    "WrongResidue", "ZeroArgument", "build_field",
    "MultChar", "NotFourthPower", "all_chars", "delta_char", "delta_kron",
    "eval_add", "fourth_root", "is_fourth_power", "octic_char",
    "quadratic_char", "quartic_char", "special_chars", "trivial_char",
    "DEFAULT_TOL", "BadArgument", "agree", "gauss",
    "hasse_davenport_residual", "hyp2f1", "jacobi", "quad_transform_residual",
    "MixedSumContext", "ParameterOutOfRange", "make_context", "mixed_sum", "mixed_table",
    "state_value", "state_vector",
    "CheckReport", "ConfigError", "SuiteConfig", "emit_report", "run",
    "mellin",
]
