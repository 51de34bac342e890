"""Finite exponential sums g(t) = sum_j a_j * exp(i*lambda_j*t) and their analysis.

The central object is :class:`ExpSum`, an immutable list of complex
coefficients and exponents with strictly increasing real parts.  On top of it
this module provides evaluation (double precision with compensated summation,
or arbitrary precision via mpmath), termwise differentiation, the uniform
derivative bound sum_j |a_j|*|lambda_j|^m, vanishing-order detection at a
point (in integer arithmetic, exact at t = 0), sup-norms over an interval by
a grid scan refined with Newton steps, and adaptive L1 norms.
The sums built in :mod:`expsums.sequences` record their order and scale, so
their vanishing order at t = 0, sup near it and L1 norm come from the exact
construction (:mod:`expsums.construction`), not the rounded exponents.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import IO, NamedTuple, Optional

import mpmath
import numpy as np
from mpmath import mp

from .construction import (_certified_integral, _certified_sum, _coefficients, _rounded,
                           _uhrig_moments)
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
    # (n, scale) for the order-n Uhrig sum with exponents times ``scale``, set
    # by its builders alone (see construction._built_as): no derived sum, JSON
    # round trip or dataclasses.replace carries it
    _uhrig: Optional[tuple[int, float]] = field(
        default=None, init=False, compare=False, repr=False)

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


_BLOCK = 64  # grid points per block of _values_on_grid


def _values_on_grid(g: ExpSum, ts: np.ndarray) -> np.ndarray:
    """g(ts) for real exponents on a uniform grid ``ts`` from ``np.linspace``
    with at least two points.  The grid is cut into blocks of 64 points,
    evaluated by :func:`_values_on_panels` with the block starts as centres,
    the spacing h as half-width and 0..63 as nodes: one exp per (block, term).
    Each value is within c*eps*sum_j |a_j|*(1 + |lambda_j|*(|start| + 64*h))
    of g at its grid point, ``start`` being its block's first point."""
    h = (ts[-1] - ts[0]) / (len(ts) - 1)
    starts = ts[::_BLOCK]
    values = _values_on_panels(1j * _real_exponents(g), np.array(g.coefficients)[:, None],
                               starts, np.full(len(starts), h), np.arange(float(_BLOCK)))
    return values.ravel()[:len(ts)]


def _values_on_panels(ilam, coefficients, mid, halfwidth, nodes) -> np.ndarray:
    """g(mid_i + halfwidth_i*nodes_k) as a (panel, node) array, ``ilam`` being
    i*lambda and ``coefficients`` a column: e^{i*lambda*(m + w*x)} factors into
    one (term, node) table per half-width w and one exp per (panel, term).
    Each value is within c*eps*sum_j |a_j|*(1 + |lambda_j|*(|m| + w)) of g at
    m + w*x; c < 1 on random sums, about J + 4 for J terms at worst.  Its last
    bits depend on how many panels share the call (BLAS summation order)."""
    widths = set(halfwidth.tolist())
    if len(widths) == 1:
        offsets = coefficients * np.exp(ilam[:, None] * (widths.pop() * nodes))
        return np.exp(mid[:, None] * ilam) @ offsets
    out = np.empty((len(mid), len(nodes)), dtype=complex)
    for w in widths:
        rows = halfwidth == w
        out[rows] = _values_on_panels(ilam, coefficients, mid[rows], halfwidth[rows], nodes)
    return out


def derivative(g: ExpSum, m: int) -> ExpSum:
    """m-th derivative: coefficients become a_j*(i*lambda_j)^m, exponents unchanged."""
    if _count(m, "derivative order") < 0:
        raise InvalidInputError(f"derivative order must be nonnegative, got {m}")
    if m == 0:
        return g
    coeffs = tuple(a * (1j * lam) ** m for a, lam in zip(g.coefficients, g.exponents))
    return ExpSum(coefficients=coeffs, exponents=g.exponents)


def derivative_sup_bound(g: ExpSum, m: int) -> float:
    """Uniform bound sum_j |a_j|*|lambda_j|^m on |g^(m)| over the real line:
    an fsum, or where a power |lambda_j|^m overflows the exact ladder's bound
    (inf past the double range)."""
    if _count(m, "derivative order") < 0:
        raise InvalidInputError(f"derivative order must be nonnegative, got {m}")
    lam = _real_exponents(g).tolist()  # Python floats: ** raises OverflowError
    try:
        return math.fsum(abs(a) * abs(x) ** m for a, x in zip(g.coefficients, lam))
    except OverflowError:
        *_, (_, bound) = _magnitudes_up_to(g, 0.0, m, None)
        return bound


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
    if _count(max_order, "max_order") < 0:
        raise InvalidInputError(f"max_order must be nonnegative, got {max_order}")
    return list(_magnitudes_up_to(g, t0, max_order, dps))


def vanishing_order(
    g: ExpSum,
    t0: float = 0.0,
    rel_tol: float = 1e-12,
    dps: Optional[int] = None,
    m_max: Optional[int] = None,
) -> Optional[int]:
    """Smallest m at which g^(m)(t0) is nonzero, or ``None`` if there is none
    up to ``m_max`` (default 2*len(g) + 8).

    A sum that records its construction (``uhrig_sum``, ``scaled_sum``,
    ``unit_gap_sum``, ``filter_expsum`` of ``uhrig_pulse_times``) is judged
    at t0 = 0 as that exact construction: the first m with mu_m != 0 in the
    exact integers of :func:`_uhrig_moments`, which is n + 1.  No threshold
    enters, so ``rel_tol`` (still validated) and ``dps`` play no part; past
    n = 20 the rounding of the stored exponents alone outweighs the true
    |g^(n+1)(0)|.  :func:`derivative` and a JSON round trip drop the record.

    Any other sum, and any t0 != 0, is judged on its stored numbers: the
    smallest m with |g^(m)(t0)| > rel_tol * sum_j |a_j|*|lambda_j|^m, a test
    invariant under exponent scaling, on the magnitudes of
    :func:`derivative_magnitudes` (exact at t0 = 0).  Raises
    :class:`PrecisionError` if a zero sup bound coexists with a nonzero
    computed value, which can only be a precision artifact.  ``rel_tol``
    must lie in (0, 1e-3).
    """
    if not 0 < rel_tol < 1e-3:
        raise InvalidInputError(f"rel_tol must lie in (0, 1e-3), got {rel_tol}")
    if m_max is None:
        m_max = 2 * len(g) + 8
    if _count(m_max, "m_max") < 0:
        raise InvalidInputError(f"m_max must be nonnegative, got {m_max}")
    if g._uhrig is not None and t0 == 0:
        n = g._uhrig[0]
        return next((m for m in range(m_max + 1) if _uhrig_moments(n, m)[0]), None)
    for m, (value, bound) in enumerate(_magnitudes_up_to(g, t0, m_max, dps)):
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
    """Sup of |g| found by :func:`sup_norm`.  From a scan, ``value`` is |g| at
    ``argmax`` up to rounding (roundoff below the floor) and ``slack`` covers
    the grid spacing.  For a marked sum near its zero, ``value`` is within an
    ulp of |g(argmax)|, and the construction's sup at most ``slack`` above."""

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
    """Maximum of |g| over the interval: in one certified evaluation for a
    marked sum near its zero, else by grid scan plus Newton refinement.

    A sum that records its construction (n, s) is judged as that construction
    where z* = s*t*/2 <= N = n + 1, t* = max(|left|, |right|): |g(t)| =
    4N*|F_N(s*t/2)|, F_N = J_N + (-1)^N*J_{3N} + ...; J_N grows on [0, N]
    (DLMF 10.21), and so does R(z) = sum_{l >= 1} (z/2)^((2l+1)N)/((2l+1)N)!,
    which bounds the rest (DLMF 10.14.4).  So the sup lies in [|g(t*)|,
    |g(t*)| + 8N*R(z*)]: ``value`` is |g(t*)| rounded once, ``argmax`` the end
    with |t| = t*, ``slack`` a bound above 8N*R(z*), within 36/35 of it and
    never 0; ``grid_points`` has no effect, a value below the double range
    raises PrecisionError, and the result describes the construction, as in
    :func:`vanishing_order`.

    Any other sum, and a marked one with z* > N, is scanned on a uniform grid
    in factored 64-point blocks (:func:`_values_on_grid`), then refined around
    the three best local maxima by a safeguarded Newton search on the
    derivative of |g|^2 (see :func:`_golden_max`), a refined point counting
    with |evaluate(g, t)|: ``value`` is |g| at argmax up to rounding, and
    ``slack`` covers only the grid spacing.  Below the rounding floor, about
    eps*sum_j |a_j|, the value is roundoff and not a lower bound.
    """
    if grid_points is not None:
        grid_points = _count(grid_points, "grid_points")
        if grid_points < 16:
            raise InvalidInputError(f"grid_points must be >= 16, got {grid_points}")
    if g._uhrig is not None:
        n, scale = g._uhrig
        reach = max(abs(interval.left), abs(interval.right))
        (u, p), (v, q) = float(scale).as_integer_ratio(), reach.as_integer_ratio()
        x, e = u * v, (p * q).bit_length() - 1  # s*t* = x/2^e
        if x <= 2 * n + 2 << e:
            S, _, P = _certified_sum(n, x, e, "|g|")
            value = _rounded(S, P, "|g|")  # raises below the double range
            k = 3 * (n + 1)  # 8N*R(z*) <= 8N*(36/35)*(z*/2)^k/k!: terms fall by 36x
            bound = 96 * k * x**k / (35 * math.factorial(k) << k * (e + 2))
            argmax = interval.right if abs(interval.right) == reach else interval.left
            return SupNormResult(value, argmax, math.nextafter(bound, math.inf))
    if grid_points is None:
        grid_points = default_grid_points(g, interval)
    coefficients, lam = np.array(g.coefficients), _real_exponents(g)
    # |g| and |g''| stay within these sums, |g'|^2 within their product
    # (Cauchy-Schwarz); the search forms |g'|^2 and |g*g''|, and the factor 4
    # leaves room for their roundings
    weights = [abs(a) for a in g.coefficients]
    size = sum(weights)
    curvature = sum(w * x * x for w, x in zip(weights, lam.tolist()))
    if not math.isfinite(4 * size * (1 + curvature)):
        raise PrecisionError(f"|g|, |g'|^2 and |g*g''| overflow their double bounds: "
                             f"sum |a_j| = {size:.3g}, sum |a_j|*lambda_j^2 = {curvature:.3g}")
    ts = np.linspace(interval.left, interval.right, grid_points)
    vals = np.abs(_values_on_grid(g, ts))
    rotations = 1j * lam

    def f(t: float) -> tuple[complex, complex, complex]:
        terms = coefficients * np.exp(rotations * t)
        first = terms * rotations
        return complex(terms.sum()), complex(first.sum()), complex((first * rotations).sum())

    # the three best of the local maxima (plateau-tolerant) and the two ends;
    # equal values keep that order
    interior = (vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])
    candidates = np.concatenate((np.flatnonzero(interior) + 1, (0, grid_points - 1)))
    candidates = candidates[np.argsort(-vals[candidates], kind="stable")[:3]].tolist()

    h = (interval.right - interval.left) / (grid_points - 1)
    tol = max(h * 1e-10, abs(interval.right) * 1e-15, 1e-300)
    best_value = float(vals.max())
    best_arg = float(ts[int(np.argmax(vals))])
    for i in candidates:
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
    # h * derivative_sup_bound(g, 1), bit for bit; the check above keeps the
    # fsum in range
    slack = h * math.fsum([w * abs(x) for w, x in zip(weights, lam.tolist())])
    return SupNormResult(value=best_value, argmax=best_arg, slack=slack)


def l1_norm(g: ExpSum, interval: Interval, abs_tol: float = 1e-10) -> float:
    """Integral of |g| over the interval.

    A sum that records its construction (n, s) is judged as that
    construction, in closed form (see :func:`_marked_l1`): the result
    describes the exact sin^2 sum, as in :func:`sup_norm` and
    :func:`vanishing_order`, not its stored doubles.  Its error is within
    abs_tol by an a-priori bound, and where the interval lies within
    |s*t/2| <= N = n + 1 within about 2^-40 relative, however small the
    value.  Where that bound exceeds abs_tol, the value lies below the double
    range, or the zero scan would pass 2^20 (cell, term) pairs, it raises
    :class:`PrecisionError`.

    Any other sum is integrated, as stored, by adaptive Gauss-Kronrod
    quadrature (the nested G15/K31 pair of :mod:`expsums.quadrature`):
    quartering failing panels handles the derivative kinks of |g| at zero
    crossings, and each level is evaluated in factored form, one exp per
    (panel, term) and not per (node, term), within the bound of
    :func:`_values_on_panels`.  Its error is the estimate |K31 - G15|, so a
    kink that both rules miss goes unseen.  It raises
    :class:`~expsums.errors.QuadratureError` (with partial result and
    achieved tolerance attached) if the subdivision cap is reached.
    """
    if not abs_tol > 0:
        raise InvalidInputError(f"abs_tol must be positive, got {abs_tol}")
    if g._uhrig is not None:
        return _marked_l1(*g._uhrig, interval, abs_tol)
    ilam, coefficients = 1j * _real_exponents(g), np.array(g.coefficients)[:, None]

    def f(ts) -> np.ndarray:
        return np.abs(_values_on_panels(ilam, coefficients, *ts.panels)).ravel()

    value, _err = adaptive_gauss_legendre(f, interval.left, interval.right, abs_tol)
    return value


_U = 2.0**-53  # unit roundoff of a double
_CELL = 0.25  # width in z of the cells of the zero scan
_MAX_PAIRS = 2**20  # (cell, term) pairs of the zero scan


class _DirectForm(NamedTuple):
    """Phi(z) = sum_j a_j*trig(z*u_j), j = 0..N/2, N = n + 1: (-1)^floor(N/2)
    *4N*F_N in the direct form of construction._direct_sum, trig = sin for odd
    N and cos for even N.  u_j = cos(j*pi/N) is rounded once (u_{N/2} = 0 for
    even N), a_j is the coefficient, twice but for a middle term, so
    sum_j |a_j| = 2N and a*u is exact.  For the terms with u_j != 0, ``hi``
    holds u_j to 26 bits, ``lo`` is cos(j*pi/N) - hi rounded once, and ``w``
    the weight a_j/u_j (2*a_j/u_j for odd N) of :func:`_antiderivative`."""

    N: int
    u: np.ndarray
    a: np.ndarray
    au: np.ndarray
    hi: np.ndarray
    lo: np.ndarray
    w: np.ndarray
    w_abs: np.ndarray


def _split(x):
    """Veltkamp's split of doubles x into hi + lo, exactly, hi of at most 26
    significant bits and lo of at most 27."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


@functools.lru_cache(maxsize=64)
def _direct_form(n: int) -> _DirectForm:
    N, k = n + 1, (n + 2) // 2  # k terms with u_j != 0
    with mp.workprec(120):
        exact = [mpmath.cospi(mpmath.mpf(j) / N) for j in range(N // 2 + 1)]
        u = np.array([float(c) for c in exact])
        hi = _split(u[:k])[0]
        lo = np.array([float(c - h) for c, h in zip(exact, hi.tolist())])
    c = _coefficients(n)
    a = np.array([(1 if 2 * j == N else 2) * c[j] for j in range(N // 2 + 1)])
    w = (1 + N % 2) * a[:k] / u[:k]
    return _DirectForm(N, u, a, a * u, hi, lo, w, np.abs(w))


def _phi(z: np.ndarray, form: _DirectForm) -> tuple[np.ndarray, np.ndarray]:
    """Phi and Phi' at the points z."""
    phase = np.multiply.outer(z, form.u)
    cos, sin = np.cos(phase), np.sin(phase)
    if form.N % 2:
        return sin @ form.a, cos @ form.au
    return cos @ form.a, -(sin @ form.au)


def _antiderivative(z: np.ndarray, form: _DirectForm) -> tuple[np.ndarray, np.ndarray]:
    """A(z), the integral of Phi from 0, at the points 0 <= z <= z_max, and
    a bound on the rounding error of each value.

    Its terms are w_j*sin^2(x*u_j), x = z/2, for odd N, and w_j*sin(x*u_j),
    x = z, and z where u = 0 for even N.  The phase x*cos(j*pi/N) is
    x_hi*hi, exact for the 26-bit halves of x (:func:`_split`), plus
    r = x_lo*hi + x*lo, |r| <= 2^-25*x; p = that sum rounded and e its exact
    error (Fast2Sum) leave |p + e - x*cos(j*pi/N)| <= 2^-73*x.  So
    sin(p) + e*cos(p), with sin and cos within an ulp and |e| <= u_r*x, is
    the sine within 3 units u_r of its size plus u_r*x*(2^-20 + u_r*(x + 6)).
    A term is then within 9*u_r of itself (w_j within 2*u_r, sin^2 within
    7*u_r) plus 4N*|a_j| times that (|u_j| >= 1/N), and the matrix product
    of K terms adds K*u_r*sum_j |term_j|.  Only that tiny part grows with z.
    """
    N, odd = form.N, form.N % 2
    x = 0.5 * z if odd else z
    x_hi, x_lo = _split(x)
    big = np.multiply.outer(x_hi, form.hi)
    r = np.multiply.outer(x_lo, form.hi) + np.multiply.outer(x, form.lo)
    p = big + r
    sine = np.sin(p) + (r - (p - big)) * np.cos(p)
    if odd:
        sine *= sine
    value, size = sine @ form.w, (sine if odd else np.abs(sine)) @ form.w_abs
    if not odd:
        value, size = value + form.a[-1] * z, size + 2 * z
    x_max = float(x.max(initial=0.0))
    tiny = 8 * N * N * x_max * (2.0**-20 + _U * (x_max + 6))
    return value, _U * ((len(form.w) + 10) * size + tiny)


def _zeros(form: _DirectForm, p0: float, p1: float, budget: float):
    """The zeros of Phi on (p0, p1), as a list in increasing order, and a
    bound on what splitting the integral of |Phi| at them misses: at most
    ``budget`` for zeros that may hide in pairs, and budget/8 for where the
    zeros land.

    Each term of Phi, Phi' and Phi'' is at most |a_j|, so |Phi'|, |Phi''| <=
    2N.  Phi and Phi' are taken on cells of width h = 1/4, within eps, their
    rounding bound.  A cell is settled where from both ends |Phi| - eps
    stays above (|Phi'| + eps)*h/2 + N*h^2/4, what half the cell can take off
    (no zero), or where |Phi'| stays above N*h + eps with one sign (one zero
    if the ends differ in sign, else none).  The rest are bisected until the
    zero pairs they could hide, each enclosing a lobe of |Phi| <= N*w^3/6 for
    a width w <= h (2N*h^3/4 is counted), fit in the budget; those keep a
    zero where their ends differ in sign.  The zeros are then polished by
    safeguarded Newton steps, all at once: a split t at distance delta from
    its zero misses at most 2N*delta^2, as |Phi| <= 2N*delta between them.
    In a monotone cell delta <= r/slope, r = |Phi(t)| + eps; in another,
    delta <= rho = 2r/sigma, sigma = |Phi'(t)| - eps, where 8N*r <= sigma^2
    (|Phi'| >= sigma/2 on [t - rho, t + rho], so one zero lies there) and
    that window lies in the cell, else delta <= the cell's width.
    """
    N, m = form.N, len(form.u)
    eps = 2 * N * _U * (2.1 * p1 + m + 4)
    cells = max(1, math.ceil((p1 - p0) / _CELL))
    if cells * m > _MAX_PAIRS:
        raise PrecisionError(f"the zeros of F_N up to z = {p1:.3g} take more than "
                             "2^20 (cell, term) pairs to find")
    step = (p1 - p0) / cells
    x = np.arange(cells + 1.0) * step + p0
    x[-1] = p1
    h = step + 2 * math.ulp(p1)  # the widest cell
    v, d = _phi(x, form)
    found, missed, real = [], 0.0, None  # cells (x[i], x[i + 1]) where real
    for level in itertools.count():
        size = np.abs(d)
        clear = np.abs(v) - size * (h / 2) > eps * (1 + h / 2) + N * h * h / 4
        steep, rising, up = size > N * h + eps, d > 0, v > 0
        monotone = steep[:-1] & steep[1:] & ~(rising[:-1] ^ rising[1:])
        unsettled, change = ~(clear[:-1] & clear[1:] | monotone), up[:-1] ^ up[1:]
        if real is not None:
            unsettled &= real
            change &= real
        lobes = np.count_nonzero(unsettled) * N * h**3 / 2
        last = lobes <= budget or level == 64
        take = np.nonzero(change if last else change & ~unsettled)[0]
        # y[1:][k] rather than y[k + 1], and ^ rather than !=: loops that the
        # quadrature runs too, so fewer pages of numpy's code are mapped in
        least = np.minimum(size[take], size[1:][take])
        slope = np.where(monotone[take], least - (N * h + eps), 0.0)
        found.append((x[take], x[1:][take], v[take], v[1:][take], slope))
        if last:
            missed += lobes
            break
        # bisect: each unsettled cell becomes (l, mid), (mid, r), and (r, next l) is not a cell
        i = np.nonzero(unsettled)[0]
        mid = 0.5 * (x[i] + x[1:][i])
        vm, dm = _phi(mid, form)
        x, v, d = (np.stack((y[i], ym, y[1:][i]), axis=1).ravel()
                   for y, ym in ((x, mid), (v, vm), (d, dm)))
        real = np.ones(len(x) - 1, dtype=bool)
        real[2::3] = False
        h = h / 2 + math.ulp(p1)
    lo, hi, vlo, vhi, slope = found[0] if len(found) == 1 else map(np.concatenate, zip(*found))
    if not len(lo):
        return [], missed
    up, monotone, cell_lo, cell_hi = vlo > 0, bool(np.all(slope > 0)), lo, hi
    t = lo - vlo * ((hi - lo) / (vhi - vlo))  # regula falsi: inside [lo, hi]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(64):
            vt, dt = _phi(t, form)
            residual = np.abs(vt) + eps
            delta = residual / slope
            if not monotone:
                sigma = np.abs(dt) - eps
                rho = 2 * residual / sigma
                local = (sigma > 0) & (8 * N * residual <= sigma * sigma)
                local &= (t - rho >= cell_lo) & (t + rho <= cell_hi)
                delta = np.where(slope > 0, delta, np.where(local, rho, cell_hi - cell_lo))
            miss = 2 * N * float(delta @ delta)
            if miss <= budget / 8:
                break
            below = ~((vt > 0) ^ up)
            lo, hi = np.where(below, t, lo), np.where(below, hi, t)
            newton = t - vt / dt
            t = np.where((newton - lo) * (newton - hi) <= 0, newton, 0.5 * (lo + hi))
    return sorted(t.tolist()), missed + miss


def _marked_l1(n: int, scale: float, interval: Interval, abs_tol: float) -> float:
    """The integral of |g| over the interval for the order-n construction at
    scale s, in closed form.

    |g(t)| = |Phi(s*t/2)| (:class:`_DirectForm`) is even, so the interval
    folds onto z = s*t/2 >= 0, one or two pieces [z_a, z_b], and the integral
    is (2/s) times that of |Phi| over them.  On the head, z <= N, F_N has the
    sign of J_N, positive (see :func:`sup_norm`), so a piece there is one
    difference of the antiderivative A (:func:`_antiderivative`).  Beyond N
    it is the sum of |A(z_{i+1}) - A(z_i)| between the zeros of Phi
    (:func:`_zeros`, which spends abs_tol/2 on zeros hidden in pairs).  Where
    the head's rounding bound is not below 2^-40 of the result, the head is
    :func:`construction._certified_integral` at the exact ends instead,
    rounded once; a head alone whose leading term 8N*y^(N+1)/(N+1)!, y = z/2,
    already fails that goes there at once.  The rest of the bound (the
    roundings of A, the zeros, the ends s*t/2 and the sum) must stay within
    abs_tol, and the value above the double range, else PrecisionError.
    """
    form, scale = _direct_form(n), float(scale)
    N, lo, hi = form.N, interval.left, interval.right
    ends = [(lo, hi)] if lo >= 0 else [(-hi, -lo)] if hi <= 0 else [(0.0, -lo), (0.0, hi)]
    pieces = [(scale * p / 2, scale * q / 2) for p, q in ends]
    z_max, two_over_s = max(q for _, q in pieces), 2 / scale
    if not math.isfinite(z_max * two_over_s):
        raise PrecisionError(f"s*t/2 = {z_max:.3g} and 2/s = {two_over_s:.3g} overflow a double")
    head = [(p, min(q, N)) for p, q in pieces if p < N]
    tail = [(max(p, N), q) for p, q in pieces if q > N]
    roots, missed = [], 0.0
    if tail:
        roots, missed = _zeros(form, min(p for p, _ in tail), z_max, abs_tol / (2 * two_over_s))
    value = head_error = tail_error = tail_value = 0.0
    # a head alone whose mass, about 8N*y^(N+1)/(N+1)! with y = z_max/2, lies
    # below 2^40 times a part of the rounding bound of A at z_max (the size
    # 4*sin^2(y) or 2*z_max of one term, times K + 10) skips the doubles
    certify = head and not tail and z_max > 0
    if certify:
        log_mass = (math.log2(8 * N) + (N + 1) * math.log2(z_max / 2)
                    - math.lgamma(N + 2) / math.log(2))
        size = 4 * math.sin(z_max / 2) ** 2 if N % 2 else 2 * z_max
        certify = log_mass < 40 + math.log2(_U * (len(form.w) + 10) * size)
    if not certify:
        # each head piece is a pair of points, each tail piece its ends and the zeros between
        runs = [[p, *(z for z in roots if p < z < q), q] for p, q in tail]
        A, error = _antiderivative(np.array([z for run in head + runs for z in run]), form)
        sign = -1.0 if N // 2 % 2 else 1.0  # of Phi on the head
        # Python floats, not numpy scalars
        at, off = A[:2 * len(head)].tolist(), error[:2 * len(head)].tolist()
        for i in range(0, len(at), 2):
            value += sign * (at[i + 1] - at[i])
            head_error += off[i] + off[i + 1]
        i, parts = 2 * len(head), []
        for run in runs:
            j = i + len(run)
            parts.extend(np.abs(A[i + 1:j] - A[i:j - 1]).tolist())
            tail_error += float((error[i + 1:j] + error[i:j - 1]).sum())
            i = j
        tail_value = math.fsum(parts)
        certify = head and head_error >= 2.0**-40 * (value + tail_value)
    if certify:
        whole, e = _on_one_scale([p for pair in ends for p in pair])
        top, bottom = scale.as_integer_ratio()
        e += bottom.bit_length() - 1  # s*t/2 = top*whole/2^(e+1)
        weights = {}
        for x, y in zip(whole[::2], whole[1::2]):
            if x * top < N << e + 1:
                for z, w in ((x * top, -1), (min(y * top, N << e + 1), 1)):
                    weights[z] = weights.get(z, 0) + w
        points = [(z, w) for z, w in weights.items() if z and w]  # none on a head of length 0
        value = head_error = 0.0
        if points:
            S, _, P = _certified_integral(n, points, e, "the L1 norm",
                                          math.ceil(math.log2(two_over_s)))
            value = _rounded(2 * bottom * S, P, "the L1 norm", top)
    else:
        value *= two_over_s
    value += two_over_s * tail_value
    if value < 2.0**-1022:
        raise PrecisionError(f"the L1 norm = {value:.3g} lies below the double range")
    bound = (two_over_s * (missed + tail_error + head_error + 4 * N * _U * z_max * len(pieces))
             + 4 * _U * value)
    if not bound <= abs_tol:
        raise PrecisionError(f"the closed-form L1 norm is certain only to {bound:.3g}, "
                             f"above abs_tol = {abs_tol:.3g}")
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
