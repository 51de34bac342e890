"""Exception hierarchy shared across the package, and the integer-argument
guard every layer uses."""

import operator

__all__ = [
    "InvalidInputError",
    "UnsupportedInputError",
    "PrecisionError",
    "QuadratureError",
]


class InvalidInputError(ValueError):
    """A precondition on user-supplied input was violated."""


class UnsupportedInputError(InvalidInputError):
    """Input is well formed but outside the supported regime
    (e.g. complex exponents passed to a real-exponent-only routine)."""


class PrecisionError(ArithmeticError):
    """The working precision is insufficient to decide the question asked."""


class QuadratureError(ArithmeticError):
    """Adaptive quadrature hit its subdivision cap before reaching tolerance.

    Carries the best available partial result and the error actually achieved.
    """

    def __init__(self, message, partial=None, achieved_tol=None):
        super().__init__(message)
        self.partial = partial
        self.achieved_tol = achieved_tol


def _count(value, name: str) -> int:
    """``value`` as an int; a float or other non-integer raises."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None
