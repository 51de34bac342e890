"""Filter functions of pulse sequences and the dephasing decay integral.

A sequence of n instantaneous spin-flip pulses inside [0, T] is described by
the full time grid 0 = t_0 < t_1 < ... < t_n < t_{n+1} = T.  Its frequency
fingerprint is

    f(omega) = sum_{j=0..n} (-1)^j * (exp(i*t_j*omega) - exp(i*t_{j+1}*omega)),

and the residual dephasing under an environment with spectral density
Lambda(omega) is chi = integral_0^inf Lambda(omega)*|f(omega)|^2 domega.

Collecting terms, f is itself an exponential sum in omega with exponents t_j
and coefficients (1, -2, +2, ..., -(-1)^n); :func:`filter_expsum` builds that
form so the generic machinery (vanishing order, etc.) applies.  The telescoped
summation in :func:`filter_function` is kept independent so the two routes
can be checked against each other.  The sequence type, the sin^2 timings and
the coefficients come from :mod:`expsums.sequences`.

The same form makes chi exact and finite (the filter-function formalism of
Cywinski, Lutchyn, Nave and Das Sarma, PRB 77, 174509, 2008): with
|f|^2 = sum_jk c_j c_k cos((t_j - t_k)*omega),

    chi = sum_jk c_j c_k K(t_j - t_k),   K(D) = integral Lambda(omega)*cos(D*omega),

and K is elementary for every density kind here.  :func:`decay_factor` sums it
in double precision next to an a-priori rounding bound.  When the bound
exceeds the tolerance it redoes the sum exactly in integers on the stored
times: the lags are integers on a common dyadic scale, the ohmic kernel is
rational, and the flat and tabulated kernels need cos and sin of t_j*w only
for each stored time t_j and breakpoint w, which mpmath computes once to a
fixed-point precision chosen from an explicit error bound.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import mpmath
import numpy as np
from mpmath import mp

from .errors import InvalidInputError, PrecisionError, _count
from .expsum import ExpSum, _f17, _on_one_scale, vanishing_order
from .sequences import PulseSequence, _coefficients, _sin2

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
    """The alternating telescoped sum of exp(i*t_j*omega) differences: a
    complex for a scalar omega, a complex array for an array of them."""
    w = np.asarray(omega, dtype=float)
    nonfinite = w[~np.isfinite(w)]
    if nonfinite.size:
        raise InvalidInputError(f"omega must be finite, got {nonfinite[0]}")
    t = seq.times
    re, im = np.zeros(w.shape), np.zeros(w.shape)
    for j in range(len(t) - 1):
        sign = (-1) ** j
        re = re + sign * (np.cos(t[j] * w) - np.cos(t[j + 1] * w))
        im = im + sign * (np.sin(t[j] * w) - np.sin(t[j + 1] * w))
    total = re + 1j * im
    return complex(total) if np.isscalar(omega) else total


def filter_expsum(seq: PulseSequence) -> ExpSum:
    """The filter function as an exponential sum in omega: exponents t_j and
    the coefficients (1, -2, +2, ..., -(-1)^n)."""
    return ExpSum(coefficients=_coefficients(seq.n_pulses), exponents=seq.times)


def vanishing_order_filter(
    seq: PulseSequence, rel_tol: float = 1e-12, dps: Optional[int] = None
) -> Optional[int]:
    """Order of the first nonvanishing Taylor coefficient of f at omega = 0.

    Reported as the raw derivative order of the exponential-sum form: a
    sequence whose filter starts at omega^(m+1) suppresses the leading m
    orders of the decay integrand.
    """
    return vanishing_order(filter_expsum(seq), 0.0, rel_tol=rel_tol, dps=dps)


def uhrig_filter_magnitude(n: int, total_time: float, omega: float, dps: int = 50) -> float:
    """|f(omega)| for sin^2 timings, with the timings recomputed at ``dps`` digits.

    Near omega = 0 the filter of an n-pulse sin^2 sequence is of size
    omega^(n+1), far below what double-precision stored times can resolve
    (their rounding alone perturbs the sum at relative 1e-16 of the term
    size).  Recomputing the timings at working precision keeps the tiny true
    value, so log-log slope measurements stay clean.
    """
    if _count(n, "n") < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    if not 0 < total_time < math.inf:
        raise InvalidInputError(f"total time must be finite and positive, got {total_time}")
    if not math.isfinite(omega):
        raise InvalidInputError(f"omega must be finite, got {omega}")
    d = _sin2(n, dps)
    with mp.workdps(dps):
        T = mpmath.mpf(total_time)
        w = mpmath.mpf(omega)
        times = [mpmath.mpf(0), *(T * x for x in d), T]
        value = mpmath.fsum(
            (c * mpmath.exp(1j * t * w) for c, t in zip(_coefficients(n), times)),
            absolute=False,
        )
        return float(abs(value))


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
        except (OverflowError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"amplitude and cutoff must be doubles: {exc}") from None
        if not 0 <= self.amplitude < math.inf:
            raise InvalidInputError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if self.kind in (FLAT, OHMIC):
            if self.cutoff is None or not 0 < self.cutoff < math.inf:
                raise InvalidInputError(f"{self.kind} needs a finite positive cutoff")
        if self.kind == TABULATED:
            if not self.table:
                raise InvalidInputError("tabulated density needs a nonempty table")
            table = tuple((float(w), float(v)) for w, v in self.table)
            object.__setattr__(self, "table", table)
            if not all(math.isfinite(w) and math.isfinite(v) for w, v in table):
                raise InvalidInputError("table entries must be finite")
            ws = [w for w, _ in table]
            if any(b <= a for a, b in zip(ws, ws[1:])):
                raise InvalidInputError("table frequencies must be strictly increasing")
            if ws[0] < 0:
                raise InvalidInputError("table frequencies must be nonnegative")
            if any(v < 0 for _, v in table):
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
            out = np.where((w < ws[0]) | (w > ws[-1]), 0.0, out)
        return float(out) if np.isscalar(omega) else out


# unit roundoff of double precision, and the relative error of one sin call:
# glibc's sin is within 1 ulp, and np.sin of float64 matched math.sin bit for
# bit on 250,000 arguments up to 1e5 (x86-64, numpy 2.4)
_U = 2.0 ** -53
_SIN_ERR = 2 * _U


def _kernel(density: SpectralDensity, lags: np.ndarray):
    """Cosine kernel K(D) = integral over omega >= 0 of Lambda(omega)*cos(D*omega)
    per unit amplitude, at D = 0 and at the positive ``lags``, in double
    precision.

    Returns ``(K(0), K(lags), bounds)``.  ``bounds()`` gives a-priori bounds,
    to first order in the unit roundoff u and barring underflow, on the
    rounding errors of K(0) and of each K(lag), counting the rounding of the
    lags themselves.
    """
    if density.kind == FLAT:
        wc = float(density.cutoff)
        values = np.sin(lags * wc) / lags
        # the lag and the product move the argument by 2u*|D*wc|; the sine,
        # the lag and the division add (_SIN_ERR + 2u)*|K|
        return wc, values, lambda: (0.0, 2 * _U * wc + (_SIN_ERR + 2 * _U) * np.abs(values))
    if density.kind == OHMIC:
        wc = float(density.cutoff)
        s = 1 / (wc * wc)
        square = lags * lags
        base = square + s
        values = -(square - s) / (base * base)
        # square and s carry 3u and 2u, so the numerator is off by 3u*base;
        # the squared base carries 9u and the division u
        return wc * wc, values, lambda: (_U * wc * wc, _U * (3 / base + 11 * np.abs(values)))
    # Integrating by parts leaves the edge values and, per breakpoint w_k, the
    # slope change times the integral of sin(D*omega)/D from w_k on, which is
    # 2*sin^2(D*w_k/2)/D^2 up to a constant that cancels over the table.
    ws = [w for w, _ in density.table]
    vs = [v for _, v in density.table]
    segments = list(zip(ws, ws[1:], vs, vs[1:]))
    slopes = [0, *((v1 - v0) / (w1 - w0) for w0, w1, v0, v1 in segments), 0]
    jumps = np.array([b - a for a, b in zip(slopes, slopes[1:])])
    k0 = math.fsum(0.5 * (v0 + v1) * (w1 - w0) for w0, w1, v0, v1 in segments)
    halves = np.sin(np.multiply.outer(lags, np.array([w / 2 for w in ws])))
    edges = np.sin(np.multiply.outer(lags, np.array([ws[0], ws[-1]])))
    squares = halves * halves
    values = (edges[:, 1] * vs[-1] - edges[:, 0] * vs[0]) / lags \
        + 2 * squares.dot(jumps) / (lags * lags)

    def bounds():
        # slopes carry 3 roundings each, so a jump is known to 3u times the
        # slopes it joins; every other rounding scales with the jump itself
        sizes = np.abs(jumps)
        joined = np.array([abs(a) + abs(b) for a, b in zip(slopes, slopes[1:])])
        edge = (vs[-1] * np.abs(edges[:, 1]) + vs[0] * np.abs(edges[:, 0])) / lags
        errors = 2 * _U * (vs[-1] * ws[-1] + vs[0] * ws[0]) \
            + 4 * _U * np.abs(halves).dot(sizes * np.array(ws)) / lags \
            + (_SIN_ERR + 5 * _U) * edge \
            + 2 * squares.dot((2 * _SIN_ERR + (len(ws) + 9) * _U) * sizes + 3 * _U * joined) \
            / (lags * lags)
        return 5 * _U * k0, errors

    return k0, values, bounds


def decay_factor(seq: PulseSequence, density: SpectralDensity, abs_tol: float = 1e-10) -> float:
    """chi = integral of Lambda(omega)*|f(omega)|^2 over omega >= 0.

    With |f|^2 = sum_jk c_j c_k cos((t_j - t_k)*omega) this is the finite sum
    amplitude * sum_jk c_j c_k K(t_j - t_k) of :func:`_kernel` values, taken as
    the diagonal plus twice the upper triangle with exactly rounded summation.
    Next to it goes an a-priori bound B on its rounding error.  If B exceeds
    ``abs_tol`` the same sum is recomputed in exact integer arithmetic on the
    stored times, from a cos/sin table of (n+2) entries per breakpoint at a
    fixed-point precision whose error bound (see :func:`_exact_kernel_sum`)
    is at most abs_tol/2.

    The result is within ``abs_tol`` of chi for the stored times, apart from
    its own rounding to a double.  A negative result is clamped to 0 (the true
    chi is nonnegative, so this can only shrink the error).  In the deeply
    suppressed regime the stored times, not the summation, limit how close
    that is to chi of the exact construction.
    """
    if not abs_tol > 0:
        raise InvalidInputError(f"abs_tol must be positive, got {abs_tol}")
    if density.amplitude == 0.0:
        return 0.0
    coeffs = np.array(_coefficients(seq.n_pulses))
    j, k = np.triu_indices(len(coeffs), 1)
    # |c_j c_k| are powers of two, so the weights are exact
    weights = 2 * coeffs[j] * coeffs[k]
    diag = float(coeffs @ coeffs)
    times = np.array(seq.times)
    k0, values, bounds = _kernel(density, times[k] - times[j])
    value = density.amplitude * math.fsum([diag * k0, *(weights * values).tolist()])
    e0, errors = bounds()
    bound = density.amplitude * (diag * (e0 + _U * k0) + float(np.abs(weights) @ errors)) \
        + 2 * _U * abs(value)
    if not math.isfinite(bound):
        raise PrecisionError(f"chi overflows double precision (bound {bound})")
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
    try:
        kind = obj["kind"]
        amplitude = float(obj.get("amplitude", 1.0))
        cutoff = obj.get("cutoff")
        table = obj.get("table")
    except (TypeError, ValueError, KeyError) as exc:
        raise InvalidInputError(f"malformed spectral-density JSON: {exc}") from exc
    return SpectralDensity(
        kind=kind,
        amplitude=amplitude,
        cutoff=None if cutoff is None else float(cutoff),
        table=None if table is None else tuple((float(w), float(v)) for w, v in table),
    )
