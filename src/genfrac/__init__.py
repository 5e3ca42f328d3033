"""Generalized fractional integral evaluation and inequality verification.

Public surface: operator parameterization and evaluation, classical
reductions, the closed-form monomial oracle, constrained test-function
generation, and the theorem check suite.
"""

from .errors import (
    BoundsError,
    ConvergenceError,
    DomainError,
    FunctionSpecError,
    ParameterError,
)
from .functions import (
    PairKind,
    PositivePair,
    TestFunction,
    generate_box_pair,
    generate_ratio_pair,
    parse_function_spec,
)
from .inequalities import (
    CheckConfig,
    InequalityCheck,
    SuiteConfig,
    SuiteReport,
    TheoremId,
    run_suite,
)
from .operator_core import (
    ClassicalKind,
    OperatorParams,
    Side,
    evaluate,
    evaluate_classical,
    reduce_to_classical,
    validate,
)
from .quadrature import (
    IntegralResult,
    QuadratureConfig,
    closed_form_monomial,
    integrate_kernel,
)
from .special_functions import beta_fn, gamma_fn, log_beta, log_gamma

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BoundsError",
    "ConvergenceError",
    "DomainError",
    "FunctionSpecError",
    "ParameterError",
    "PairKind",
    "PositivePair",
    "TestFunction",
    "generate_box_pair",
    "generate_ratio_pair",
    "parse_function_spec",
    "CheckConfig",
    "InequalityCheck",
    "SuiteConfig",
    "SuiteReport",
    "TheoremId",
    "run_suite",
    "ClassicalKind",
    "OperatorParams",
    "Side",
    "evaluate",
    "evaluate_classical",
    "reduce_to_classical",
    "validate",
    "IntegralResult",
    "QuadratureConfig",
    "closed_form_monomial",
    "integrate_kernel",
    "beta_fn",
    "gamma_fn",
    "log_beta",
    "log_gamma",
]
