"""Finite exponential sums g(t) = sum_j a_j * exp(i*lambda_j*t) and their analysis.

The central object is :class:`ExpSum`, an immutable list of complex
coefficients and exponents with strictly increasing real parts.  On top of it
this module provides evaluation (double precision with compensated summation,
or arbitrary precision via mpmath), termwise differentiation, the uniform
derivative bound sum_j |a_j|*|lambda_j|^m, vanishing-order detection at a
point (in integer arithmetic, exact at t = 0), sup-norms over an interval by
a grid scan refined with Newton steps, and adaptive L1 norms.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple, Optional

import mpmath
import numpy as np
from mpmath import mp

from .errors import InvalidInputError, PrecisionError, UnsupportedInputError, _count
from .quadrature import adaptive_gauss_legendre

__all__ = [
    "ExpSum",
    "Interval",
    "SupNormResult",
    "evaluate",
    "derivative",
    "derivative_sup_bound",
    "derivative_magnitudes",
    "vanishing_order",
    "sup_norm",
    "l1_norm",
    "to_json",
    "from_json",
    "write_scan_csv",
]


@dataclass(frozen=True)
class ExpSum:
    """Coefficients a_0..a_n and exponents lambda_0..lambda_n of the sum.

    Exponents may be complex but must have strictly increasing real parts;
    the first real part may be 0.
    """

    coefficients: tuple[complex, ...]
    exponents: tuple[complex, ...]

    def __post_init__(self):
        # lists: tuple(iterator) resizes, and fills CPython's free lists (~5 MB)
        coeffs = tuple([complex(c) for c in self.coefficients])
        exps = tuple([complex(x) for x in self.exponents])
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "exponents", exps)
        if len(coeffs) != len(exps):
            raise InvalidInputError(
                f"{len(coeffs)} coefficients but {len(exps)} exponents"
            )
        if not coeffs:
            raise InvalidInputError("an exponential sum needs at least one term")
        for z in coeffs + exps:
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise InvalidInputError("coefficients and exponents must be finite")
        re = [x.real for x in exps]
        if any(b <= a for a, b in zip(re, re[1:])):
            raise InvalidInputError("exponent real parts must be strictly increasing")

    def __len__(self) -> int:
        return len(self.coefficients)

    def __call__(self, t: float) -> complex:
        return evaluate(self, t)

    @property
    def has_real_exponents(self) -> bool:
        return all(x.imag == 0.0 for x in self.exponents)


def _real_exponents(g: ExpSum) -> np.ndarray:
    if not g.has_real_exponents:
        raise UnsupportedInputError(
            "operation requires real exponents; sum has nonzero imaginary parts"
        )
    return np.array([x.real for x in g.exponents])


@dataclass(frozen=True)
class Interval:
    """Interval [y, y+a] given by left endpoint ``y`` and positive length ``a``."""

    y: float
    a: float

    def __post_init__(self):
        if not (math.isfinite(self.y) and math.isfinite(self.a)):
            raise InvalidInputError("interval endpoints must be finite")
        if self.a <= 0:
            raise InvalidInputError(f"interval length must be positive, got {self.a}")
        if not math.isfinite(self.y + self.a):
            raise InvalidInputError(
                f"interval right end {self.y!r} + {self.a!r} overflows"
            )

    @classmethod
    def from_endpoints(cls, lo: float, hi: float) -> "Interval":
        return cls(y=lo, a=hi - lo)

    @property
    def left(self) -> float:
        return self.y

    @property
    def right(self) -> float:
        return self.y + self.a

    @property
    def length(self) -> float:
        return self.a


def evaluate(g: ExpSum, t: float, dps: Optional[int] = None):
    """Evaluate g(t).

    With ``dps`` unset, terms are evaluated in double precision and combined
    with exactly rounded (fsum) summation of real and imaginary parts.  With
    ``dps`` set, everything is computed with mpmath at that many significant
    digits and an ``mpmath.mpc`` is returned.
    """
    if not math.isfinite(t):
        raise InvalidInputError(f"t must be finite, got {t}")
    if dps is None:
        terms = [a * cmath.exp(1j * lam * t) for a, lam in zip(g.coefficients, g.exponents)]
        return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
    with mp.workdps(dps):
        tt = mpmath.mpf(t)
        return mpmath.fsum(
            (mpmath.mpc(a) * mpmath.exp(1j * mpmath.mpc(lam) * tt)
             for a, lam in zip(g.coefficients, g.exponents)),
            absolute=False,
        )


def _values_on_grid(g: ExpSum, ts: np.ndarray) -> np.ndarray:
    """Vectorized g(ts) for real exponents; fixed term order for determinism."""
    lam = _real_exponents(g)
    acc = np.zeros(np.shape(ts), dtype=complex)
    for a, x in zip(g.coefficients, lam):
        acc = acc + a * np.exp(1j * x * np.asarray(ts, dtype=float))
    return acc


def derivative(g: ExpSum, m: int) -> ExpSum:
    """m-th derivative: coefficients become a_j*(i*lambda_j)^m, exponents unchanged."""
    if m < 0:
        raise InvalidInputError(f"derivative order must be nonnegative, got {m}")
    if m == 0:
        return g
    coeffs = tuple(a * (1j * lam) ** m for a, lam in zip(g.coefficients, g.exponents))
    return ExpSum(coefficients=coeffs, exponents=g.exponents)


def derivative_sup_bound(g: ExpSum, m: int) -> float:
    """Uniform bound sum_j |a_j|*|lambda_j|^m on |g^(m)| over the real line."""
    if m < 0:
        raise InvalidInputError(f"derivative order must be nonnegative, got {m}")
    lam = _real_exponents(g)
    return math.fsum(abs(a) * abs(x) ** m for a, x in zip(g.coefficients, lam))


def _default_dps(g: ExpSum) -> int:
    # Away from t0 = 0, derivatives near a high-order zero cancel terms of size
    # up to the sup bound; 30 + 2n digits keeps the 1e-12 relative test meaningful.
    return 30 + 2 * max(len(g) - 2, 0)


def _on_one_scale(xs) -> tuple[list[int], int]:
    """Integers m_i and one e >= 0 with x_i = m_i / 2**e exactly (every
    double is a dyadic rational)."""
    ratios = [float(x).as_integer_ratio() for x in xs]
    e = max(d for _, d in ratios).bit_length() - 1
    return [(m << e) // d for m, d in ratios], e


def _magnitude(x: int, y: int, e: int) -> float:
    """|x + i*y| / 2**e correctly rounded, or inf past the double range: a
    root of 55+ bits with a sticky bit for inexactness cannot create a tie."""
    if y:
        square = x * x + y * y
        s = max(0, 56 - square.bit_length() // 2)
        root = math.isqrt(square << 2 * s)
        x, e = 2 * root + (root * root != square << 2 * s), e + s + 1
    try:
        return abs(x) / (1 << e)
    except OverflowError:
        return math.inf


def _magnitudes_up_to(g: ExpSum, t0: float, max_order: int, dps: Optional[int]):
    """Yield (|g^(m)(t0)|, sup bound) for m = 0..max_order; a caller can stop
    at any order.

    On one dyadic scale the exponents are integers, lambda_j = L_j/2**q.  Each
    order multiplies the parts of b_j = a_j*exp(i*lambda_j*t0) by L_j and |a_j|
    by |L_j|, exactly (i^m drops out of the magnitudes), and each number is
    one correctly rounded quotient.  At t0 = 0 the b_j are the coefficients,
    so the pairs are exact and ``dps`` plays no part.  Elsewhere mpmath rounds
    the b_j once to within 10^-dps * |a_j|, dps being max(dps, 30 + 2n), so
    each value is within 10^-dps * sum_j |a_j|*|lambda_j|^m (a ladder rounded
    at every step allows m + len(g) times that), before its own rounding.
    """
    _real_exponents(g)
    if not math.isfinite(t0):
        raise InvalidInputError(f"t0 must be finite, got {t0}")
    lams, q = _on_one_scale(lam.real for lam in g.exponents)
    bounds, r = _on_one_scale(abs(a) for a in g.coefficients)
    if t0 == 0:
        parts, p = _on_one_scale(x for a in g.coefficients for x in (a.real, a.imag))
    else:
        bits = math.ceil(max(dps or 0, _default_dps(g)) * math.log2(10)) + 8
        low = min((math.frexp(abs(a))[1] for a in g.coefficients if a), default=0)
        p = max(0, bits + 1 - low)  # 2^-p <= 2^-bits * |a_j| if a_j != 0
        with mp.workprec(bits + 8):  # >= 106 bits: lambda_j*t0 is exact
            starts = [mpmath.mpc(a) * mpmath.expj(mpmath.mpf(lam.real) * t0)
                      for a, lam in zip(g.coefficients, g.exponents)]
            parts = [int(mpmath.ldexp(x, p)) for b in starts for x in (b.real, b.imag)]
    xs, ys, sizes = parts[::2], parts[1::2], [abs(L) for L in lams]
    for m in range(max_order + 1):
        if m > 0:
            xs = [x * L for x, L in zip(xs, lams)]
            ys = [y * L for y, L in zip(ys, lams)]
            bounds = [b * L for b, L in zip(bounds, sizes)]
        yield _magnitude(sum(xs), sum(ys), p + q * m), _magnitude(sum(bounds), 0, r + q * m)


def derivative_magnitudes(
    g: ExpSum, t0: float, max_order: int, dps: Optional[int] = None
) -> list[tuple[float, float]]:
    """Pairs (|g^(m)(t0)|, sup bound sum_j |a_j|*|lambda_j|^m), m = 0..max_order.

    Exact at t0 = 0, where ``dps`` has no effect; elsewhere ``dps`` digits (at
    least 30 + 2n) bound the error, see :func:`_magnitudes_up_to`.
    """
    if max_order < 0:
        raise InvalidInputError(f"max_order must be nonnegative, got {max_order}")
    return list(_magnitudes_up_to(g, t0, max_order, dps))


def vanishing_order(
    g: ExpSum,
    t0: float = 0.0,
    rel_tol: float = 1e-12,
    dps: Optional[int] = None,
    m_max: Optional[int] = None,
) -> Optional[int]:
    """Smallest m with |g^(m)(t0)| > rel_tol * sum_j |a_j|*|lambda_j|^m.

    The relative normalization makes the answer invariant under exponent
    scaling; the magnitudes are those of :func:`derivative_magnitudes`, exact
    at t0 = 0.  Returns ``None`` if no order below ``m_max`` (default
    2*len(g) + 8) exceeds the threshold.  Raises :class:`PrecisionError` if a
    zero sup bound coexists with a nonzero computed value, which can only be
    a precision artifact.
    """
    if m_max is None:
        m_max = 2 * len(g) + 8
    return _first_order(_magnitudes_up_to(g, t0, m_max, dps), rel_tol)


def _first_order(pairs: Iterable[tuple[float, float]], rel_tol: float) -> Optional[int]:
    """The first m whose (|g^(m)|, bound) pair has |g^(m)| > rel_tol * bound,
    or ``None``; ``rel_tol`` must lie in (0, 1e-3).  Checks ``rel_tol``
    before drawing a pair and draws none past the answer."""
    if not 0 < rel_tol < 1e-3:
        raise InvalidInputError(f"rel_tol must lie in (0, 1e-3), got {rel_tol}")
    for m, (value, bound) in enumerate(pairs):
        if bound == 0.0:
            if value > 0.0:
                raise PrecisionError(
                    f"zero derivative bound with nonzero value {value} at order {m}"
                )
            continue
        if value > rel_tol * bound:
            return m
    return None


class SupNormResult(NamedTuple):
    """Certified-from-below sup of |g|: the true sup exceeds ``value`` by at
    most ``slack`` (grid spacing times the first-derivative bound)."""

    value: float
    argmax: float
    slack: float


def _golden_max(f, lo: float, hi: float, tol: float) -> Optional[float]:
    """A local maximum of |g| inside (lo, hi), or ``None`` if there is none.

    ``f(t)`` returns ``(g, g', g'')`` at t.  The search is a safeguarded Newton
    iteration, in the manner of Numerical Recipes' ``rtsafe``, on
    phi = Re(conj(g)*g'), half the derivative of |g|^2, whose derivative is
    |g'|^2 + Re(conj(g)*g'').  It first checks phi at both ends: unless phi
    falls from + to -, the bracket has no interior maximum and its best point
    is an end, which the caller's grid has already sampled.  Otherwise it
    stops once a Newton step is shorter than ``tol`` or the bracket is.  A
    Newton step is taken when it lands inside the shrinking bracket and the
    bracket is narrow enough that bisection alone could still reach ``tol``
    in the steps left; else the bracket is bisected.  So f is called at most
    4 + ceil(log2((hi - lo)/tol)) times, even where phi is all roundoff.

    The name dates from the golden-section search this replaced; benchmark
    tracing hooks the function by that name.
    """
    if _slope(f(lo))[0] <= 0 or _slope(f(hi))[0] >= 0:
        return None
    a, b = lo, hi  # phi(a) > 0 > phi(b)
    steps = math.ceil(math.log2((hi - lo) / tol)) + 2
    t = 0.5 * (a + b)
    for k in range(1, steps + 1):
        phi, dphi = _slope(f(t))
        if phi > 0:
            a = t
        elif phi < 0:
            b = t
        else:  # a zero slope is the maximum; a NaN one ends the search too
            return t
        if b - a <= tol:
            break
        newton = t - phi / dphi if dphi != 0 else math.nan
        if a <= newton <= b:
            if abs(newton - t) < tol:
                return newton
            if b - a <= tol * 2.0 ** (steps - k - 1):
                t = newton
                continue
        t = 0.5 * (a + b)
    return 0.5 * (a + b)


def _slope(derivatives) -> tuple[float, float]:
    """phi = Re(conj(g)*g') and its derivative from (g, g', g'')."""
    g0, g1, g2 = derivatives
    return (g0.conjugate() * g1).real, abs(g1) ** 2 + (g0.conjugate() * g2).real


def default_grid_points(g: ExpSum, interval: Interval) -> int:
    """Grid density matched to the oscillation rate max|Re lambda| * length."""
    rate = max(abs(x.real) for x in g.exponents) * interval.length
    return int(max(1024, 32 * (1 + math.ceil(rate))))


def sup_norm(g: ExpSum, interval: Interval, grid_points: Optional[int] = None) -> SupNormResult:
    """Maximum of |g| over the interval by grid scan plus Newton refinement.

    Scans a uniform grid, then refines around the three best local maxima by
    a safeguarded Newton search on the derivative of |g|^2 (see
    :func:`_golden_max`); a refined point counts with its exactly rounded
    value |evaluate(g, t)|.  The returned value is a lower bound on the true
    sup; ``slack`` bounds the possible shortfall via the Lipschitz constant
    of g.
    """
    if grid_points is None:
        grid_points = default_grid_points(g, interval)
    grid_points = _count(grid_points, "grid_points")
    if grid_points < 16:
        raise InvalidInputError(f"grid_points must be >= 16, got {grid_points}")
    ts = np.linspace(interval.left, interval.right, grid_points)
    vals = np.abs(_values_on_grid(g, ts))

    coefficients = np.array(g.coefficients)
    rotations = 1j * _real_exponents(g)

    def f(t: float) -> tuple[complex, complex, complex]:
        terms = coefficients * np.exp(rotations * t)
        first = terms * rotations
        return complex(terms.sum()), complex(first.sum()), complex((first * rotations).sum())

    # local maxima (plateau-tolerant), ranked by value
    interior = (vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])
    candidates = [i + 1 for i in np.flatnonzero(interior)]
    candidates += [0, grid_points - 1]
    candidates.sort(key=lambda i: vals[i], reverse=True)

    h = (interval.right - interval.left) / (grid_points - 1)
    tol = max(h * 1e-10, abs(interval.right) * 1e-15, 1e-300)
    best_value = float(vals.max())
    best_arg = float(ts[int(np.argmax(vals))])
    for i in candidates[:3]:
        lo = ts[max(i - 1, 0)]
        hi = ts[min(i + 1, grid_points - 1)]
        if hi <= lo:
            continue
        arg = _golden_max(f, float(lo), float(hi), tol)
        if arg is None:
            continue
        value = abs(evaluate(g, arg))
        if value > best_value:
            best_value, best_arg = value, arg
    slack = h * derivative_sup_bound(g, 1)
    return SupNormResult(value=best_value, argmax=best_arg, slack=slack)


def l1_norm(g: ExpSum, interval: Interval, abs_tol: float = 1e-10) -> float:
    """Integral of |g| over the interval by adaptive Gauss-Legendre quadrature.

    Bisection handles the derivative kinks of |g| at zero crossings.  Raises
    :class:`~expsums.errors.QuadratureError` (with partial result and achieved
    tolerance attached) if the subdivision cap is reached.
    """
    if not abs_tol > 0:
        raise InvalidInputError(f"abs_tol must be positive, got {abs_tol}")
    _real_exponents(g)

    def f(ts: np.ndarray) -> np.ndarray:
        return np.abs(_values_on_grid(g, ts))

    value, _err = adaptive_gauss_legendre(f, interval.left, interval.right, abs_tol)
    return value


# ---------------------------------------------------------------------------
# serialization

def _f17(x: float) -> str:
    return format(float(x), ".17g")


def to_json(g: ExpSum) -> str:
    """Render the sum as JSON with 17-significant-digit numbers.

    Only real exponents are serializable (the schema has a single exponent
    array).
    """
    lam = _real_exponents(g)
    fields = [
        ("exponents", [_f17(x) for x in lam]),
        ("coefficients_re", [_f17(c.real) for c in g.coefficients]),
        ("coefficients_im", [_f17(c.imag) for c in g.coefficients]),
    ]
    body = ", ".join(
        '"{}": [{}]'.format(name, ", ".join(vals)) for name, vals in fields
    )
    return "{" + body + "}"


def from_json(text: str) -> ExpSum:
    """Parse the JSON schema produced by :func:`to_json`."""
    try:
        obj = json.loads(text)
        exps = [float(x) for x in obj["exponents"]]
        re = [float(x) for x in obj["coefficients_re"]]
        im = [float(x) for x in obj["coefficients_im"]]
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"malformed exponential-sum JSON: {exc}") from exc
    if not len(exps) == len(re) == len(im):
        raise InvalidInputError("exponent and coefficient arrays differ in length")
    return ExpSum(
        coefficients=tuple(complex(a, b) for a, b in zip(re, im)),
        exponents=tuple(complex(x) for x in exps),
    )


def write_scan_csv(g: ExpSum, interval: Interval, points: int, fh: IO[str]) -> None:
    """Write ``t,re,im,abs`` rows for g sampled on a uniform grid."""
    points = _count(points, "points")
    if points < 2:
        raise InvalidInputError(f"need at least 2 points, got {points}")
    ts = np.linspace(interval.left, interval.right, points)
    vals = _values_on_grid(g, ts)
    fh.write("t,re,im,abs\n")
    for t, v in zip(ts, vals):
        fh.write(f"{_f17(t)},{_f17(v.real)},{_f17(v.imag)},{_f17(abs(v))}\n")
