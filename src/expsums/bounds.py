"""Analytic envelopes for the constructed sums and empirical decay-rate fits.

Two closed-form envelopes bound the maximum of the constructions near t = 0:

* Taylor form: a sum vanishing to order n+1 with derivative bound 2n+1 obeys
  |g(t)| <= (2n+1) * (e*|t|/(n+1))^(n+1); in the variable b = 3/(n+1) and at
  radius 1/b this reads (6/b) * (e/3)^(3/b).
* Stirling form: sharpening the factorial with Stirling's bound gives, for
  the unit-gap rescaling at radius a,
  exp(-1/(e^2*a)) * (2/e + e*a) * sqrt((e^2 + 1/a)/(2*pi)).

Both decay like exp(-const/a) as the interval shrinks; ``scaling_fit``
extracts that constant from measured (a, value) series by least squares on
-log(value) against 1/a, and ``lower_bound_probe`` reports the analogous
empirical constant for L1 masses on intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError, PrecisionError
from .expsum import ExpSum, Interval, l1_norm, sup_norm
from .sequences import EXACT_TOL, gap_check, scaled_sum, scaled_sum_order, unit_gap_sum

__all__ = [
    "ScanResult",
    "EnvelopeCheck",
    "ProbeResult",
    "taylor_envelope_b",
    "stirling_envelope",
    "unit_gap_order_for_radius",
    "check_taylor_envelope",
    "check_stirling_envelope",
    "scaling_fit",
    "lower_bound_probe",
]

#: Upper end of the Stirling envelope's domain, 1/(2*e^2).
STIRLING_DOMAIN_MAX = 0.5 * math.exp(-2.0)


def taylor_envelope_b(b: float) -> float:
    """The Taylor envelope in the form (6/b) * (e/3)^(3/b), b in (0, 3]."""
    if not 0 < b <= 3:
        raise InvalidInputError(f"b must lie in (0, 3], got {b}")
    log_val = math.log(6.0 / b) + (3.0 / b) * (1.0 - math.log(3.0))
    return math.exp(log_val)


def stirling_envelope(a: float) -> float:
    """exp(-1/(e^2*a)) * (2/e + e*a) * sqrt((e^2 + 1/a)/(2*pi)) on (0, 1/(2e^2)]."""
    if not 0 < a <= STIRLING_DOMAIN_MAX:
        raise InvalidInputError(
            f"a must lie in (0, {STIRLING_DOMAIN_MAX!r}], got {a}"
        )
    e = math.e
    return (
        math.exp(-1.0 / (e * e * a))
        * (2.0 / e + e * a)
        * math.sqrt((e * e + 1.0 / a) / (2.0 * math.pi))
    )


def unit_gap_order_for_radius(a: float) -> int:
    """Even order n for radius a: n with a = e^-2/n when that holds exactly,
    otherwise the smallest even n with e^-2/n < a.  An a so small that e^-2/a
    overflows is invalid; :func:`~expsums.sequences.unit_gap_sum` takes
    orders up to 2^27 only (a above about 1e-9)."""
    if not 0 < a < STIRLING_DOMAIN_MAX:
        raise InvalidInputError(
            f"a must lie in (0, {STIRLING_DOMAIN_MAX!r}), got {a}"
        )
    x = math.exp(-2.0) / a
    if x == math.inf:
        raise InvalidInputError(f"a = {a!r} is too small: the order e^-2/a overflows")
    r = round(x)
    if abs(x - r) < 1e-9 and r >= 2 and r % 2 == 0:
        return int(r)
    n = math.floor(x) + 1
    if n % 2 != 0:
        n += 1
    return max(n, 2)


@dataclass(frozen=True)
class EnvelopeCheck:
    """A measured maximum against its analytic envelope on [-a, a]."""

    a: float
    order: int
    achieved_max: float
    envelope: float
    passes: bool


def check_taylor_envelope(a: float) -> EnvelopeCheck:
    """Compare the scaled construction's maximum on [-a, a] with the Taylor envelope.

    Uses b = 9a, so the interval [-a, a] is exactly [-b/9, b/9].
    """
    if not 0 < a <= 1.0 / 3.0:
        raise InvalidInputError(f"a must lie in (0, 1/3], got {a}")
    b = 9.0 * a
    return _check(a, scaled_sum(b), scaled_sum_order(b), taylor_envelope_b(b))


def check_stirling_envelope(a: float) -> EnvelopeCheck:
    """Compare the unit-gap construction's maximum on [-a, a] with the Stirling envelope."""
    n = unit_gap_order_for_radius(a)
    return _check(a, unit_gap_sum(n), n, stirling_envelope(a))


def _check(a: float, g: ExpSum, order: int, envelope: float) -> EnvelopeCheck:
    """The construction g's maximum on [-a, a], z* <= N, against the envelope."""
    value = sup_norm(g, Interval(y=-a, a=2 * a)).value
    return EnvelopeCheck(a=a, order=order, achieved_max=value, envelope=envelope,
                         passes=value <= envelope)


@dataclass(frozen=True)
class ScanResult:
    """A (parameter, value) series with its exp(-c/a) model fit.

    The linear model is -log(value) = fit_slope * (1/a) + fit_intercept, so
    fit_slope estimates the decay constant c and fit_intercept is -log of the
    prefactor.
    """

    points: tuple[tuple[float, float], ...]
    fit_slope: float
    fit_intercept: float
    r_squared: float


def scaling_fit(points: Sequence[tuple[float, float]]) -> ScanResult:
    """Least-squares fit of -log(value) against 1/a over an (a, value) series."""
    pts = tuple((float(a), float(v)) for a, v in points)
    if len(pts) < 3:
        raise InvalidInputError(f"need at least 3 points, got {len(pts)}")
    for a, v in pts:
        if not (math.isfinite(a) and a > 0):
            raise InvalidInputError(f"parameters must be positive and finite, got a={a}")
        if not (math.isfinite(v) and v > 0):
            raise InvalidInputError(f"values must be positive and finite, got {v} at a={a}")
    a_vals = [a for a, _ in pts]
    if len(set(a_vals)) != len(a_vals):
        raise InvalidInputError("parameters a must be distinct")
    x = np.array([1.0 / a for a, _ in pts])
    y = np.array([-math.log(v) for _, v in pts])
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ np.array([slope, intercept])
    ss_res = float(np.dot(residuals, residuals))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScanResult(
        points=pts,
        fit_slope=float(slope),
        fit_intercept=float(intercept),
        r_squared=r_squared,
    )


class ProbeResult(NamedTuple):
    """L1 mass of a sum on an interval and the decay constant it would imply."""

    l1: float
    implied_c: float


def lower_bound_probe(g: ExpSum, interval: Interval, delta: float) -> ProbeResult:
    """Measure the L1 mass with :func:`~expsums.expsum.l1_norm` and report
    implied_c = -a*delta*log(l1).

    For a sum that records its construction (``scaled_sum``, ``uhrig_sum``,
    ``unit_gap_sum``) the mass is that of the exact construction, in closed
    form, within l1_norm's abs_tol and, on the head |s*t/2| <= n + 1 where
    the interval of ``l1-scan`` lies, within about 2^-40 relative: so
    implied_c is right to about 2^-40*a*delta, however small the mass.  For
    any other sum it is the quadrature of the stored numbers, within abs_tol
    only.  The sum must satisfy the structural class conditions (|a_0| = 1,
    Re(lambda_0) = 0, Re(lambda_j) >= j*delta) and a*delta must lie in
    (0, pi].  implied_c is an empirical witness: meaningful as a family
    statistic, not a certificate.
    """
    if delta <= 0:
        raise InvalidInputError(f"delta must be positive, got {delta}")
    product = interval.length * delta
    if not 0 < product <= math.pi:
        raise InvalidInputError(
            f"a*delta must lie in (0, pi], got {product}"
        )
    if abs(abs(g.coefficients[0]) - 1.0) > EXACT_TOL:
        raise InvalidInputError(f"|a_0| = {abs(g.coefficients[0])!r} != 1")
    if abs(g.exponents[0].real) > EXACT_TOL:
        raise InvalidInputError(f"Re(lambda_0) = {g.exponents[0].real!r} != 0")
    if not gap_check([x.real for x in g.exponents], delta).growth_ok:
        raise InvalidInputError(f"exponents violate Re(lambda_j) >= j*{delta!r}")
    value = l1_norm(g, interval)
    if value <= 0.0:
        raise PrecisionError(
            f"l1_norm returned nonpositive L1 mass {value}; evaluation broke down"
        )
    return ProbeResult(l1=value, implied_c=-product * math.log(value))
