"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class ParameterError(DomainError):
    """An operator parameter set violates a validity condition; the message
    names the violated condition."""


class BoundsError(ValueError):
    """Invalid bounds supplied to a pair generator."""


class FunctionSpecError(ValueError):
    """Unparseable function spec string; the message names the bad token."""


class ConvergenceError(RuntimeError):
    """Quadrature did not converge within budget.

    Carries the best estimate produced so far in ``result`` so callers can
    decide whether to treat the value as usable.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result
