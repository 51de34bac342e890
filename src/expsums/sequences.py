"""Construction of the timing sets and exponential sums under study.

Everything here derives from the fractions d_k = sin^2(k*pi/(2n+2)),
k = 1..n, the relative pulse timings of Uhrig decoupling.  For even n these
fractions satisfy the alternating power-sum identity

    sum_{k=1..n} (-1)^k d_k^m = 1/2,   m = 1..n,

which is what gives the associated exponential sum

    g_n(t) = 1 - e^{it} + 2*sum_{k=1..n} (-1)^k e^{i*d_k*t}

a zero of order n+1 at t = 0.  Two rescalings are provided: ``scaled_sum``
stretches the exponents to 9/b^2 * d_k so that consecutive gaps are at least
1, and ``unit_gap_sum`` normalizes by the first fraction (exponents d_k/d_1)
to the same effect.

The builders take the fractions and coefficients from
:mod:`expsums.construction` and record (n, scale), so ``vanishing_order`` and
``sup_norm`` answer for the exact construction, not the rounded fractions.
:class:`PulseSequence` lives here, so ``dephasing`` imports this module and
never the other way round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import mpmath
from mpmath import mp

from .construction import _built_as, _coefficients, _sin2, _uhrig_moments
from .errors import InvalidInputError, _count
from .expsum import ExpSum

__all__ = [
    "PulseSequence",
    "GapReport",
    "alternating_power_sum",
    "uhrig_sum",
    "scaled_sum",
    "scaled_sum_order",
    "rescaled_timings",
    "unit_gap_sum",
    "uhrig_pulse_times",
    "gap_check",
]

# Tolerance absorbing serialization roundoff in exact-value checks (gap and
# growth comparisons here, |a_0| = 1 and Re(lambda_0) = 0 in the L1 probe).
EXACT_TOL = 1e-12


def _require_even_positive(n: int) -> None:
    if _count(n, "n") < 2 or n % 2 != 0:
        raise InvalidInputError(f"n must be an even integer >= 2, got {n}")


@dataclass(frozen=True)
class PulseSequence:
    """Strictly increasing time grid with t_0 = 0 and t_{n+1} = T exactly."""

    times: tuple[float, ...]
    # (n, T) for the sin^2 timings of uhrig_pulse_times: see ExpSum._uhrig
    _uhrig: Optional[tuple[int, float]] = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        times = tuple([float(t) for t in self.times])  # a list: see ExpSum
        object.__setattr__(self, "times", times)
        if len(times) < 2:
            raise InvalidInputError("a pulse sequence needs at least the two endpoints")
        if times[0] != 0.0:
            raise InvalidInputError(f"first time must be exactly 0, got {times[0]!r}")
        if not all(map(math.isfinite, times)):
            raise InvalidInputError("times must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InvalidInputError("times must be strictly increasing")

    @classmethod
    def from_pulses(cls, pulses: Sequence[float], total_time: float) -> "PulseSequence":
        """Build from the n interior pulse times and the total duration."""
        return cls(times=(0.0, *map(float, pulses), float(total_time)))

    @property
    def n_pulses(self) -> int:
        return len(self.times) - 2

    @property
    def total_time(self) -> float:
        return self.times[-1]

    @cached_property
    def min_separation(self) -> float:
        """Smallest consecutive difference, endpoints included."""
        return min(b - a for a, b in zip(self.times, self.times[1:]))


def alternating_power_sum(n: int, m: int, dps: int = 50) -> mpmath.mpf:
    """sum_{k=1..n} (-1)^k d_k^m, correctly rounded to ``dps`` significant digits.

    The interior coefficients of :func:`uhrig_sum` are 2*(-1)^k and its end
    coefficients 1 and -1, so for m >= 1 the sum is (mu_m + 1)/2, mu_m being
    the sum's m-th moment, an exact dyadic rational in closed form (see
    ``construction._uhrig_moments``); for m = 0 it is 0.  It equals 1/2 exactly
    for m = 1..n, n being even.
    """
    _require_even_positive(n)
    if _count(m, "power") < 0:
        raise InvalidInputError(f"power must be nonnegative, got {m}")
    if dps < 1:
        raise InvalidInputError(f"dps must be >= 1, got {dps}")
    if m == 0:
        return mpmath.mpf(0)
    mu, _ = _uhrig_moments(n, m)  # over 4^m
    with mp.workdps(dps):
        return mpmath.ldexp(mpmath.mpf(mu + 4**m), -2 * m - 1)


def uhrig_sum(n: int) -> ExpSum:
    """The sum with exponents (0, d_1, ..., d_n, 1) and coefficients
    (1, -2, +2, ..., -1); vanishes to order n+1 at t = 0 for even n."""
    _require_even_positive(n)
    d = _sin2(n)  # first: it rejects an order too large for any list
    g = ExpSum(coefficients=_coefficients(n), exponents=(0.0, *d, 1.0))
    return _built_as(g, n, 1.0)


def scaled_sum_order(b: float) -> int:
    """The even order n used by :func:`scaled_sum` for the given b.

    n = 3/b - 1 when that is an even integer; otherwise the largest even n
    with b < 3/(n+1).  A b so small that 3/b overflows is invalid.
    """
    if not 0 < b <= 3:
        raise InvalidInputError(f"b must lie in (0, 3], got {b}")
    x = 3.0 / b - 1.0
    if x == math.inf:
        raise InvalidInputError(f"b = {b!r} is too small: the order 3/b - 1 overflows")
    r = round(x)
    if abs(x - r) < 1e-9 and r >= 0 and r % 2 == 0:
        return int(r)
    n = math.floor(x)
    if n % 2 != 0:
        n -= 1
    return max(n, 0)


def scaled_sum(b: float) -> ExpSum:
    """The order-n sum with exponents stretched by 9/b^2.

    The stretched exponents (0, 9*d_1/b^2, ..., 9/b^2) have consecutive gaps
    >= 1 for every b in (0, 3].  An order above 2^27 (b below about 2.2e-8)
    is rejected before any list is built; up to that cap 9/b^2 is finite.
    """
    n = scaled_sum_order(b)
    d = _sin2(n)  # first: past its order cap b*b may underflow to 0
    scale = 9.0 / (b * b)
    exps = tuple(scale * x for x in (0.0, *d, 1.0))
    return _built_as(ExpSum(coefficients=_coefficients(n), exponents=exps), n, scale)


def rescaled_timings(n: int) -> tuple[float, ...]:
    """d_k/d_1 for k = 1..n: starts at exactly 1, consecutive gaps >= 1."""
    _require_even_positive(n)
    d = _sin2(n)
    return tuple(x / d[0] for x in d)


def unit_gap_sum(n: int) -> ExpSum:
    """Same coefficients as :func:`uhrig_sum`, exponents (0, d_1/d_1, ...,
    d_n/d_1, 1/d_1); the first-fraction normalization makes every gap >= 1.
    An order above 2^27 is rejected before any list is built."""
    _require_even_positive(n)
    d = _sin2(n)
    exps = (0.0, *(x / d[0] for x in d), 1.0 / d[0])
    return _built_as(ExpSum(coefficients=_coefficients(n), exponents=exps), n, 1.0 / d[0])


def uhrig_pulse_times(n: int, total_time: float) -> PulseSequence:
    """Pulse times t_j = T*sin^2(j*pi/(2n+2)), j = 1..n, inside [0, T].

    The boundary entries are pinned to 0 and T exactly.  Any n >= 1 is
    accepted; evenness matters only for the algebraic identities, not for the
    physical sequence.
    """
    if _count(n, "n") < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    if not total_time > 0:
        raise InvalidInputError(f"total time must be positive, got {total_time}")
    seq = PulseSequence.from_pulses([total_time * d for d in _sin2(n)], total_time)
    return _built_as(seq, n, seq.total_time)


@dataclass(frozen=True)
class GapReport:
    """Minimum consecutive exponent gap and whether the growth conditions hold.

    ``satisfied`` requires both the consecutive-gap condition
    (min_gap >= delta) and the linear growth x_j >= j*delta, each up to a
    1e-12 slack.  ``min_gap_index`` is the position of the smaller endpoint of
    the minimal gap (-1 for a single-element list, where min_gap is +inf).
    """

    min_gap: float
    min_gap_index: int
    satisfied: bool
    delta: float
    growth_ok: bool


def gap_check(exponents: Sequence[float], delta: float) -> GapReport:
    """Check gaps and linear growth of an ascending real exponent list."""
    xs = [float(x) for x in exponents]
    if not xs:
        raise InvalidInputError("exponent list must be nonempty")
    if delta <= 0:
        raise InvalidInputError(f"delta must be positive, got {delta}")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise InvalidInputError("exponents must be sorted strictly ascending")
    if len(xs) == 1:
        min_gap, min_idx = math.inf, -1
    else:
        gaps = [b - a for a, b in zip(xs, xs[1:])]
        min_idx = min(range(len(gaps)), key=gaps.__getitem__)
        min_gap = gaps[min_idx]
    gaps_ok = min_gap >= delta - EXACT_TOL
    growth_ok = all(x >= j * delta - EXACT_TOL for j, x in enumerate(xs))
    return GapReport(
        min_gap=min_gap,
        min_gap_index=min_idx,
        satisfied=gaps_ok and growth_ok,
        delta=delta,
        growth_ok=growth_ok,
    )
