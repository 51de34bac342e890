"""Exponential sums with separated exponents: constructions, norms, and bounds.

The package builds the sin^2-timing (Uhrig) family of exponential sums with a
high-order zero at t = 0, verifies the algebraic identities behind it at
extended precision, measures sup and L1 norms on intervals, compares them
against closed-form envelopes, and evaluates pulse-sequence filter functions
and dephasing decay integrals.
"""

from . import bounds, chebyshev, dephasing, errors, expsum, sequences
from .bounds import *
from .chebyshev import *
from .dephasing import *
from .errors import *
from .expsum import *
from .sequences import *

__version__ = "0.1.0"

__all__ = [
    *bounds.__all__,
    *chebyshev.__all__,
    *dephasing.__all__,
    *errors.__all__,
    *expsum.__all__,
    *sequences.__all__,
]
