"""Filter functions of pulse sequences and the dephasing decay integral.

A sequence of n instantaneous spin-flip pulses inside [0, T] is described by
the full time grid 0 = t_0 < t_1 < ... < t_n < t_{n+1} = T.  Its frequency
fingerprint is

    f(omega) = sum_{j=0..n} (-1)^j * (exp(i*t_j*omega) - exp(i*t_{j+1}*omega)),

and the residual dephasing under an environment with spectral density
Lambda(omega) is chi = integral_0^inf Lambda(omega)*|f(omega)|^2 domega.

Collecting terms, f is itself an exponential sum in omega with exponents t_j
and coefficients c = (1, -2, +2, ..., -(-1)^n), with a zero of order n + 1 at
omega = 0 for the sin^2 timings; :func:`filter_expsum` builds that form so the
generic machinery (vanishing order, etc.) applies, and :func:`filter_function`
sums its terms.  ``evaluate(filter_expsum(seq), omega)`` checks it
independently.  The sequence type and the sin^2 timings come from
:mod:`expsums.sequences`, the coefficients from :mod:`expsums.construction`.

The same form makes chi exact and finite (the filter-function formalism of
Cywinski, Lutchyn, Nave and Das Sarma, PRB 77, 174509, 2008): with
|f|^2 = sum_jk c_j c_k cos((t_j - t_k)*omega),

    chi = sum_jk c_j c_k K(t_j - t_k),   K(D) = integral Lambda(omega)*cos(D*omega),

and K is elementary for every density kind here.  :func:`decay_factor` sums it
in double precision next to an a-priori rounding bound, proportional to the
unit roundoff u = 2^-53.  When the bound exceeds the tolerance it redoes the
same sum in the x87 80-bit extended type, u = 2^-64, with the same bound:
only where ``np.longdouble`` is that format (``nmant == 63``), the one whose
sinl and cosl were checked against mpmath.  When that bound exceeds the
tolerance too, or the platform has no such type, it redoes the sum exactly in
integers on the stored times: the lags are integers on a common dyadic
scale, the ohmic kernel is rational, and the flat and tabulated kernels need
cos and sin of t_j*w only for each stored time t_j and breakpoint w, which
mpmath computes once to a fixed-point precision chosen from an explicit
error bound.

:func:`uhrig_filter_magnitude` answers for the exact sin^2 construction
instead of its stored times, through the Bessel form |f| = 4N*|F_N(omega*T/2)|
with F_N = sum_l (-1)^(l*N)*J_{(2l+1)N}, N = n + 1, which
:mod:`expsums.construction` certifies to one unit in the last place.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import mpmath
import numpy as np
from mpmath import mp

from .construction import _MAX_ORDER, _built_as, _certified_sum, _coefficients, _rounded
from .errors import InvalidInputError, PrecisionError, _count
from .expsum import ExpSum, _f17, _on_one_scale, vanishing_order
from .sequences import PulseSequence

__all__ = [
    "SpectralDensity",
    "filter_function",
    "filter_expsum",
    "decay_factor",
    "vanishing_order_filter",
    "uhrig_filter_magnitude",
    "load_pulse_sequence",
    "load_spectral_density",
    "sequence_to_json",
]

FLAT = "hard-cutoff-flat"
OHMIC = "ohmic-exponential"
TABULATED = "tabulated"


def filter_function(seq: PulseSequence, omega):
    """f(omega) = sum_j c_j*exp(i*t_j*omega), the terms of :func:`filter_expsum`:
    a complex for a scalar omega, a complex array for an array of them.

    One cos and one sin per time, added term by term over the omega array, so
    an array result equals the scalar calls element by element.  Each value
    is within about eps*sum|c_j|*(1 + |omega|*T) of f at the stored times.
    """
    w = np.asarray(omega, dtype=float)
    nonfinite = w[~np.isfinite(w)]
    if nonfinite.size:
        raise InvalidInputError(f"omega must be finite, got {nonfinite[0]}")
    re, im = np.zeros(w.shape), np.zeros(w.shape)
    for c, t in zip(_coefficients(seq.n_pulses), seq.times):
        phase = t * w
        re += c * np.cos(phase)
        im += c * np.sin(phase)
    total = re + 1j * im
    return complex(total) if np.isscalar(omega) else total


def filter_expsum(seq: PulseSequence) -> ExpSum:
    """The filter function as an exponential sum in omega: exponents t_j and
    the coefficients (1, -2, +2, ..., -(-1)^n).  It keeps the provenance of a
    :func:`~expsums.sequences.uhrig_pulse_times` sequence."""
    g = ExpSum(coefficients=_coefficients(seq.n_pulses), exponents=seq.times)
    return g if seq._uhrig is None else _built_as(g, *seq._uhrig)


def vanishing_order_filter(seq: PulseSequence, rel_tol: float = 1e-12) -> Optional[int]:
    """Order of the first nonvanishing Taylor coefficient of f at omega = 0.

    Reported as the raw derivative order of the exponential-sum form: a
    sequence whose filter starts at omega^(m+1) suppresses the leading m
    orders of the decay integrand.  For a sequence from
    :func:`~expsums.sequences.uhrig_pulse_times` it is the order of the
    exact construction, n + 1 (see :func:`~expsums.expsum.vanishing_order`).
    """
    return vanishing_order(filter_expsum(seq), 0.0, rel_tol=rel_tol)


def uhrig_filter_magnitude(n: int, total_time: float, omega: float, dps: int = 50) -> float:
    """|f(omega)| of the exact n-pulse sin^2 sequence of duration T, not of
    its stored double times, which cannot resolve its (omega*T)^(n+1) size:
    4N*|F_N(omega*T/2)|, N = n + 1 (see :mod:`expsums.construction`), from
    |omega*T| exact as the product of two doubles, certified to 2^-55
    relative and rounded once, so within one ulp.  ``dps`` is validated but
    plays no part.  A magnitude below the smallest normal double (found at
    once where the DLMF 10.14.4 bound on |f| lies that low) or omega = 0
    raises :class:`PrecisionError`.
    """
    if _count(n, "n") < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    if n > _MAX_ORDER:
        raise InvalidInputError(f"order n > 2^27 = {_MAX_ORDER} is not supported")
    if dps < 1:
        raise InvalidInputError(f"dps must be >= 1, got {dps}")
    if not 0 < total_time < math.inf:
        raise InvalidInputError(f"total time must be finite and positive, got {total_time}")
    if not math.isfinite(omega):
        raise InvalidInputError(f"omega must be finite, got {omega}")
    (w, a), (t, b) = float(omega).as_integer_ratio(), float(total_time).as_integer_ratio()
    x, e = abs(w * t), (a * b).bit_length() - 1  # |omega*T| = x / 2^e exactly
    if not x:
        raise PrecisionError("|f| = 0 at omega = 0 lies below the double range")
    value, _, P = _certified_sum(n, x, e, "|f|")
    return _rounded(value, P, "|f|")


@dataclass(frozen=True)
class SpectralDensity:
    """Nonnegative environment weight Lambda(omega) for omega >= 0.

    Kinds: ``hard-cutoff-flat`` (amplitude on [0, cutoff], zero above),
    ``ohmic-exponential`` (amplitude * omega * exp(-omega/cutoff)), and
    ``tabulated`` (linear interpolation on a strictly increasing grid, zero
    outside it).
    """

    kind: str
    amplitude: float = 1.0
    cutoff: Optional[float] = None
    table: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self):
        if self.kind not in (FLAT, OHMIC, TABULATED):
            raise InvalidInputError(f"unknown spectral density kind {self.kind!r}")
        try:  # an int beyond the double range would pass the checks below
            object.__setattr__(self, "amplitude", float(self.amplitude))
            object.__setattr__(self, "cutoff", None if self.cutoff is None else float(self.cutoff))
            if self.table is not None:
                pairs = tuple((float(w), float(v)) for w, v in self.table)
                object.__setattr__(self, "table", pairs)
        except (OverflowError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed amplitude, cutoff or table: {exc}") from None
        if not 0 <= self.amplitude < math.inf:
            raise InvalidInputError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if self.kind in (FLAT, OHMIC):
            if self.cutoff is None or not 0 < self.cutoff < math.inf:
                raise InvalidInputError(f"{self.kind} needs a finite positive cutoff")
        if self.kind == TABULATED:
            if not self.table:
                raise InvalidInputError("tabulated density needs a nonempty table")
            if not all(math.isfinite(w) and math.isfinite(v) for w, v in self.table):
                raise InvalidInputError("table entries must be finite")
            ws = [w for w, _ in self.table]
            if any(b <= a for a, b in zip(ws, ws[1:])):
                raise InvalidInputError("table frequencies must be strictly increasing")
            if ws[0] < 0:
                raise InvalidInputError("table frequencies must be nonnegative")
            if any(v < 0 for _, v in self.table):
                raise InvalidInputError("table values must be nonnegative")

    def __call__(self, omega):
        """Evaluate Lambda; accepts scalars or numpy arrays."""
        w = np.asarray(omega, dtype=float)
        if self.kind == FLAT:
            out = np.where((w >= 0) & (w <= self.cutoff), self.amplitude, 0.0)
        elif self.kind == OHMIC:
            out = np.where(w >= 0, self.amplitude * w * np.exp(-w / self.cutoff), 0.0)
        else:
            ws = np.array([p[0] for p in self.table])
            vs = np.array([p[1] for p in self.table])
            out = self.amplitude * np.interp(w, ws, vs, left=0.0, right=0.0)
        return float(out) if np.isscalar(omega) else out


# unit roundoff of double precision
_U = 2.0 ** -53
# np.longdouble where it is the x87 80-bit format (64-bit significand), else
# None.  Its sinl and cosl were checked against 160-bit mpmath on x86-64
# (glibc 2.36, numpy 2.4): within 1.94 units of roundoff on 20,000 random
# arguments per range up to |x| = 3,000 (and below 2 on spot checks up to
# 1e15), and within 1.0 next to k*pi/2 for k < 2,000.  Other extended
# formats are not used.
_EXTENDED = np.longdouble if np.finfo(np.longdouble).nmant == 63 else None


def _parts(x: np.ndarray) -> list:
    """Doubles with the same exact sum as the float array x: its entries, or
    for a wider type each entry's nearest double and the remainder, which is
    exact barring underflow."""
    hi = x.astype(float)
    return hi.tolist() if x.dtype == hi.dtype else [*hi.tolist(), *(x - hi).tolist()]


def _kernel(density: SpectralDensity, lags: np.ndarray):
    """Cosine kernel K(D) = integral over omega >= 0 of Lambda(omega)*cos(D*omega)
    per unit amplitude, at D = 0 and at the positive ``lags``, in the float
    type of ``lags`` (double, or the extended type of ``_EXTENDED``): every
    derived quantity, from the cutoff to the table's slopes, is computed in it.

    Returns ``(K(0), K(lags), e0, errors)``: next to the values, a-priori
    bounds, to first order in the unit roundoff u of that type and barring
    underflow, on the rounding errors of K(0) and of each K(lag), counting the
    rounding of the lags themselves.
    """
    dtype = lags.dtype.type
    # the relative error of one sin call is taken as 2u: glibc's sin is within
    # 1 ulp, and np.sin of float64 matched math.sin bit for bit on 250,000
    # arguments up to 1e5 (x86-64, numpy 2.4); for sinl see _EXTENDED
    u = np.finfo(dtype).epsneg
    sin_err = 2 * u
    if density.kind == FLAT:
        wc = dtype(density.cutoff)
        values = np.sin(lags * wc) / lags
        # the lag and the product move the argument by 2u*|D*wc|; the sine,
        # the lag and the division add (sin_err + 2u)*|K|
        return wc, values, 0.0, 2 * u * wc + (sin_err + 2 * u) * np.abs(values)
    if density.kind == OHMIC:
        wc = dtype(density.cutoff)
        s = 1 / (wc * wc)
        if not np.isfinite(s):
            # a cutoff so small that 1/wc^2 overflows: K = wc^2*(1 - q)/(1 + q)^2
            # with q = (D*wc)^2, so |K| <= wc^2 and the roundings of q, of the
            # factors and of their product stay within 10u*wc^2
            q = (lags * wc) * (lags * wc)
            values = wc * wc * (1 - q) / ((1 + q) * (1 + q))
            return wc * wc, values, u * wc * wc, np.full_like(values, 10 * u * wc * wc)
        square = lags * lags
        base = square + s
        values = -(square - s) / (base * base)
        # square and s carry 3u and 2u, so the numerator is off by 3u*base;
        # the squared base carries 9u and the division u
        return wc * wc, values, u * wc * wc, u * (3 / base + 11 * np.abs(values))
    # Integrating by parts leaves the edge values and, per breakpoint w_k, the
    # slope change times the integral of sin(D*omega)/D from w_k on, which is
    # 2*sin^2(D*w_k/2)/D^2 up to a constant that cancels over the table.
    ws = np.array([w for w, _ in density.table], dtype)
    vs = np.array([v for _, v in density.table], dtype)
    steps = ws[1:] - ws[:-1]
    slopes = np.zeros(len(ws) + 1, dtype)
    slopes[1:-1] = (vs[1:] - vs[:-1]) / steps
    jumps = slopes[1:] - slopes[:-1]
    # the trapezoids, summed to within about u: a wider type adds the rest
    # beyond the double nearest their sum
    parts = _parts(0.5 * (vs[:-1] + vs[1:]) * steps)
    k0 = math.fsum(parts)
    if dtype is not np.float64 and math.isfinite(k0):
        k0 = dtype(k0) + math.fsum([*parts, -k0])
    halves = np.sin(np.multiply.outer(lags, ws / 2))
    edges = np.sin(np.multiply.outer(lags, ws[[0, -1]]))
    squares = halves * halves
    values = (edges[:, 1] * vs[-1] - edges[:, 0] * vs[0]) / lags \
        + 2 * squares.dot(jumps) / (lags * lags)
    # slopes carry 3 roundings each, so a jump is known to 3u times the
    # slopes it joins; every other rounding scales with the jump itself
    sizes = np.abs(jumps)
    joined = np.abs(slopes[:-1]) + np.abs(slopes[1:])
    edge = (vs[-1] * np.abs(edges[:, 1]) + vs[0] * np.abs(edges[:, 0])) / lags
    errors = 2 * u * (vs[-1] * ws[-1] + vs[0] * ws[0]) \
        + 4 * u * np.abs(halves).dot(sizes * ws) / lags \
        + (sin_err + 5 * u) * edge \
        + 2 * squares.dot((2 * sin_err + (len(ws) + 9) * u) * sizes + 3 * u * joined) \
        / (lags * lags)
    return k0, values, 5 * u * k0, errors


@functools.lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The pairs j < k of the n + 2 times as index arrays, their weights
    2*c_j*c_k (exact: |c_j c_k| are powers of two) and the diagonal weight
    sum_j c_j^2.  Cached per n; the index sets cost more than a small sum."""
    coeffs = np.array(_coefficients(n))
    j, k = np.triu_indices(len(coeffs), 1)
    weights = 2 * coeffs[j] * coeffs[k]
    for shared in (j, k, weights):
        shared.flags.writeable = False
    return j, k, weights, float(coeffs @ coeffs)


def _kernel_sum(seq: PulseSequence, density: SpectralDensity, dtype) -> tuple[float, float]:
    """amplitude * sum_jk c_j c_k K(t_j - t_k) from the :func:`_kernel` values in
    ``dtype``, as the diagonal plus twice the upper triangle, and an a-priori
    bound on its error.  The terms are split by :func:`_parts` and added by
    one ``math.fsum``, so the sum of the ``dtype`` terms is rounded to a double
    once; that rounding and the amplitude's add 2u*|value| with the double u.
    An overflow anywhere leaves a bound that is not finite."""
    j, k, weights, diag = _pairs(seq.n_pulses)
    times = np.array(seq.times, dtype)
    with np.errstate(all="ignore"):
        k0, values, e0, errors = _kernel(density, times[k] - times[j])
        terms = _parts(np.append(weights * values, diag * k0))
        error = diag * (e0 + np.finfo(dtype).epsneg * k0) + np.abs(weights) @ errors
    try:
        value = density.amplitude * math.fsum(terms)
    except (OverflowError, ValueError):  # a sum beyond the range, or infinities of both signs
        value = math.inf
    return value, density.amplitude * float(error) + 2 * _U * abs(value)


def decay_factor(seq: PulseSequence, density: SpectralDensity, abs_tol: float = 1e-10) -> float:
    """chi = integral of Lambda(omega)*|f(omega)|^2 over omega >= 0.

    With |f|^2 = sum_jk c_j c_k cos((t_j - t_k)*omega) this is the finite sum
    amplitude * sum_jk c_j c_k K(t_j - t_k) of :func:`_kernel` values, taken
    with exactly rounded summation next to an a-priori bound B on its rounding
    error, at the unit roundoff u of the type it is computed in.  There are
    three rungs, each taken only when the bound of the one before exceeds
    ``abs_tol``:

    1. the sum in double precision (u = 2^-53);
    2. the same sum in the x87 80-bit extended type (u = 2^-64), on platforms
       whose ``np.longdouble`` is that format (``nmant == 63``), the one whose
       sinl and cosl were checked; elsewhere this rung is absent;
    3. the sum in exact integer arithmetic on the stored times, from a cos/sin
       table of (n+2) entries per breakpoint at a fixed-point precision whose
       error bound (see :func:`_exact_kernel_sum`) is at most abs_tol/2.

    A double bound that overflows raises :class:`PrecisionError` before any
    other rung.  The result is within ``abs_tol`` of chi for the stored
    times, apart from its own rounding to a double and barring underflow.  A
    negative result is clamped to 0 (the true chi is nonnegative, so this can
    only shrink the error).  In the deeply suppressed regime the stored times,
    not the summation, limit how close that is to chi of the exact
    construction.
    """
    if not abs_tol > 0:
        raise InvalidInputError(f"abs_tol must be positive, got {abs_tol}")
    if density.amplitude == 0.0:
        return 0.0
    value, bound = _kernel_sum(seq, density, np.float64)
    if not math.isfinite(bound):
        raise PrecisionError(f"chi overflows double precision (bound {bound})")
    if bound > abs_tol and _EXTENDED is not None:
        value, bound = _kernel_sum(seq, density, _EXTENDED)
    if bound > abs_tol:
        value = _exact_kernel_sum(seq, density, abs_tol)
    return max(value, 0.0)


def _bits(x: float, tol: float) -> int:
    """A b >= 0 with x / 2**b <= tol/4 even if x >= 0 was computed low by a
    factor of up to 2, read off the binary exponents of x and tol."""
    if not math.isfinite(x):
        raise PrecisionError(f"the precision chi needs overflows a double ({x})")
    return max(0, math.frexp(x)[1] - math.frexp(tol)[1] + 4)


def _exact_kernel_sum(seq: PulseSequence, density: SpectralDensity, abs_tol: float) -> float:
    """amplitude * sum_jk c_j c_k K(t_j - t_k) on the stored times, to abs_tol/2.

    Every stored time, cutoff and table entry is a dyadic rational, so on the
    scale 2**q of the finest time each lag D = L / 2**q has an integer L.  The
    ohmic kernel (s - D^2)/(s + D^2)^2 is then a ratio of integers.  Flat
    densities are the table ((0, 1), (cutoff, 1)), and for a table with
    breakpoints w_k, values v_k and slope changes jump_k,

        K(D) = (v_last*sin(D*w_last) - v_0*sin(D*w_0))/D - sum_k jump_k*cos(D*w_k)/D^2

    (the jumps sum to 0, so this is the sin^2 form of :func:`_kernel`).  Its
    sines and cosines come by angle addition from cos and sin of t_j*w_k,
    computed once per time and breakpoint by mpmath and truncated to P-bit
    fixed point: each entry is within 2^(1-P), so each sin(D*w_k) or
    cos(D*w_k) within 6*2^-P.  Each pair's weighted term is one floor
    division at the scale 2**-Q, the terms add exactly as integers, and the
    total times the amplitude is rounded to a double once.  Hence the error,
    before that rounding, is at most

        amplitude * (6*2^-P * sum_{j<k} |w_jk|*(G/D_jk + H/D_jk^2) + (pairs + 1)*2^-Q)

    with w_jk = 2*c_j*c_k, G = |v_0| + |v_last| (without v_0 when w_0 = 0,
    where its sine vanishes) and H = sum_k |jump_k|; ohmic densities have no
    first term.  P and Q are chosen to make each part at most abs_tol/4.
    """
    amplitude = density.amplitude
    coeffs = [int(c) for c in _coefficients(seq.n_pulses)]
    diag = sum(c * c for c in coeffs)
    times, q = _on_one_scale(seq.times)
    pairs = [(j, k, 2 * coeffs[j] * coeffs[k]) for k in range(len(times)) for j in range(k)]
    Q = _bits(amplitude * (len(pairs) + 1), abs_tol)
    if density.kind == OHMIC:
        # with cutoff W/2^e, K(D) = W^2*4^q*(R - L^2*W^2)/(R + L^2*W^2)^2, R = 4^(e+q)
        (W,), e = _on_one_scale([density.cutoff])
        W2, R = W * W, 1 << 2 * (e + q)
        total = (diag * W2 << Q) >> 2 * e
        for j, k, w in pairs:
            scaled = (times[k] - times[j]) ** 2 * W2
            total += (w * W2 * (R - scaled) << 2 * q + Q) // (R + scaled) ** 2
    else:
        table = density.table if density.kind == TABULATED else (
            (0.0, 1.0), (density.cutoff, 1.0))
        ws, a = _on_one_scale(w for w, _ in table)
        vs, b = _on_one_scale(v for _, v in table)
        steps = [w1 - w0 for w0, w1 in zip(ws, ws[1:])]
        # K(0) = k0 / 2^(a+b+1); the slopes and the (w, c) terms below carry
        # a factor M = lcm(steps)*2^b, which makes them integers
        k0 = sum((v0 + v1) * h for v0, v1, h in zip(vs, vs[1:], steps))
        lcm = math.lcm(*steps)
        M = lcm << b
        slopes = [0, *((v1 - v0) * (lcm // h) << a for v0, v1, h in zip(vs, vs[1:], steps)), 0]
        # M*K(D) = sum c*sin(D*w)/D + sum c*cos(D*w)/D^2 over these terms,
        # with w on the scale 2^-a; the sine vanishes at omega = 0
        sines = [(w, c) for w, c in ((ws[-1], vs[-1] * lcm), (ws[0], -vs[0] * lcm)) if w and c]
        cosines = [(w, s0 - s1) for w, s0, s1 in zip(ws, slopes, slopes[1:]) if s0 != s1]
        G = sum(abs(c) for _, c in sines) / M
        H = sum(abs(c) for _, c in cosines) / M
        lags = np.array([seq.times[k] - seq.times[j] for j, k, _ in pairs])
        weights = np.abs([w for *_, w in pairs])
        amplified = float(weights @ (G / lags + H / (lags * lags)))
        P = max(53, _bits(6 * amplitude * amplified, abs_tol))  # never coarser than a double
        Q = max(Q, 2 * P - q)  # keeps the shift of the pair terms nonnegative

        def fixed_cos_sin(x):
            """cos and sin of x truncated to integers on the scale 2^-P; at
            P + 10 bits mpmath's last-place error is negligible next to that."""
            if not x:
                return 1 << P, 0
            return tuple(int(mpmath.ldexp(v, P)) for v in mpmath.cos_sin(x))

        with mp.workdps(math.ceil((P + 10) * math.log10(2))):
            trig = {w: [fixed_cos_sin(mpmath.ldexp(t * w, -q - a)) for t in times]
                    for w in {w for w, _ in sines + cosines}}
        # per time t_j, the (cos, sin) of t_j*w over the terms, and weighted
        # vectors whose dot products with those of t_k are M*2^(2P) times
        # sum c*sin(D*w) and sum c*cos(D*w), by angle addition
        index = range(len(times))
        plain_s = [[x for w, _ in sines for x in trig[w][j]] for j in index]
        plain_c = [[x for w, _ in cosines for x in trig[w][j]] for j in index]
        weighted_s = [[x for w, c in sines for x in (-c * trig[w][j][1], c * trig[w][j][0])]
                      for j in index]
        weighted_c = [[x for w, c in cosines for x in (c * trig[w][j][0], c * trig[w][j][1])]
                      for j in index]
        total = (diag * k0 << Q) >> a + b + 1
        shift = q + Q - 2 * P
        for j, k, w in pairs:
            L = times[k] - times[j]
            num = sum(map(operator.mul, weighted_s[j], plain_s[k])) * L \
                + (sum(map(operator.mul, weighted_c[j], plain_c[k])) << q)
            total += (w * num << shift) // (M * L * L)
    numerator, denominator = float(amplitude).as_integer_ratio()
    return total * numerator / (denominator << Q)


# ---------------------------------------------------------------------------
# file formats

def sequence_to_json(seq: PulseSequence) -> str:
    times = ", ".join(_f17(t) for t in seq.times)
    return '{"times": [%s], "T": %s}' % (times, _f17(seq.total_time))


def _load_json(source: Union[str, Path, dict]) -> dict:
    if isinstance(source, dict):
        return source
    try:
        text = Path(source).read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {source}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed JSON in {source}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidInputError(f"expected a JSON object in {source}")
    return obj


def load_pulse_sequence(source: Union[str, Path, dict]) -> PulseSequence:
    """Load ``{"times": [...], "T": ...}``; times include both endpoints."""
    obj = _load_json(source)
    try:
        times = tuple(float(t) for t in obj["times"])
        total = float(obj["T"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed pulse-sequence JSON: {exc}") from exc
    seq = PulseSequence(times=times)
    if seq.total_time != total:
        raise InvalidInputError(
            f"last time {seq.total_time!r} does not equal declared T {total!r}"
        )
    return seq


def load_spectral_density(source: Union[str, Path, dict]) -> SpectralDensity:
    """Load ``{"kind": ..., "amplitude": ..., "cutoff": ..., "table": ...}``."""
    obj = _load_json(source)
    if "kind" not in obj:
        raise InvalidInputError("malformed spectral-density JSON: missing 'kind'")
    return SpectralDensity(kind=obj["kind"], amplitude=obj.get("amplitude", 1.0),
                           cutoff=obj.get("cutoff"), table=obj.get("table"))
