"""Chebyshev polynomials of the second kind and their zero sets.

U_m is evaluated by the three-term recurrence.  ``cheb_nodes(n)`` returns the
zeros of U_{2n+1} as a plain tuple of 2n+1 floats in decreasing order, with
alpha_k at index k-1.  The tuple carries the antisymmetry
alpha_{2n+2-k} = -alpha_k exactly by construction: its right half is the
mirrored negation of its left half, and its middle entry is literally 0.0.

The endpoint identity implemented here states, for an even polynomial q of
degree at most 2n (n even),

    q(1) = q(0) + 2 * sum_{k=1..n} (-1)^(k+1) q(alpha_k),

where alpha_k = cos(k*pi/(2n+2)).  ``endpoint_identity_residual`` returns the
absolute defect of this identity for a given coefficient vector.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InvalidInputError, _count

__all__ = ["cheb_u", "cheb_nodes", "endpoint_identity_residual"]


def cheb_u(degree: int, x: float) -> float:
    """Evaluate U_degree(x) via U_0 = 1, U_1 = 2x, U_{m+1} = 2x*U_m - U_{m-1}."""
    if _count(degree, "degree") < 0:
        raise InvalidInputError(f"degree must be nonnegative, got {degree}")
    x = float(x)
    if not math.isfinite(x):
        raise InvalidInputError(f"x must be finite, got {x}")
    if degree == 0:
        return 1.0
    prev, cur = 1.0, 2.0 * x
    for _ in range(degree - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def cheb_nodes(n: int) -> tuple[float, ...]:
    """The 2n+1 zeros of U_{2n+1} for even n >= 0, alpha_k at index k-1.

    The left half is computed by cosine evaluation; the right half mirrors it
    with a sign flip so the antisymmetry holds bitwise.
    """
    if _count(n, "n") < 0 or n % 2 != 0:
        raise InvalidInputError(f"n must be an even nonnegative integer, got {n}")
    half = [math.cos(k * math.pi / (2 * n + 2)) for k in range(1, n + 1)]
    return tuple(half) + (0.0,) + tuple(-a for a in reversed(half))


def _even_part(coeffs: Sequence[float]) -> list[float]:
    """Validate that only even-degree coefficients are present and return them.

    ``coeffs`` is ascending: coeffs[i] multiplies x^i.  Trailing zeros are
    ignored for the degree check.
    """
    coeffs = [float(c) for c in coeffs]
    degree = 0
    for i, c in enumerate(coeffs):
        if c != 0.0:
            degree = i
    for i in range(1, degree + 1, 2):
        if coeffs[i] != 0.0:
            raise InvalidInputError(
                f"polynomial has an odd-degree term (coefficient {coeffs[i]} at x^{i})"
            )
    return coeffs[0 : degree + 1 : 2]


def _eval_even(even_coeffs: Sequence[float], x: float) -> float:
    # Horner in the variable x^2: enforces evenness, halves roundoff steps.
    u = x * x
    acc = 0.0
    for c in reversed(even_coeffs):
        acc = acc * u + c
    return acc


def endpoint_identity_residual(coeffs: Sequence[float], n: int) -> float:
    """Absolute defect of the alternating-node endpoint identity.

    ``coeffs`` are ascending coefficients of an even polynomial q with
    degree(q) <= 2n; odd-degree terms and degrees above 2n are rejected.
    Returns |q(1) - q(0) - 2*sum_{k=1..n} (-1)^(k+1) q(alpha_k)|, which is
    zero up to roundoff for every admissible q.
    """
    alpha = cheb_nodes(n)[:n]  # alpha_1 > ... > alpha_n > 0; rejects odd n
    even = _even_part(coeffs)
    degree = 2 * (len(even) - 1)
    if degree > 2 * n:
        raise InvalidInputError(f"degree {degree} exceeds the admissible 2n = {2 * n}")
    terms = [(-1.0) ** (k + 1) * _eval_even(even, alpha[k - 1]) for k in range(1, n + 1)]
    alternating = 2.0 * math.fsum(terms)
    return abs(_eval_even(even, 1.0) - _eval_even(even, 0.0) - alternating)
