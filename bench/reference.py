"""Reference values the benchmark checks every output against.

Everything here is computed independently of the code under test, outside the
timed loop and outside set-up time:

* sup norms by a high-precision scan (mpmath, 40 + 2n digits) of the exact
  construction, i.e. the sin^2 fractions recomputed at working precision
  instead of the double-rounded exponents the library stores;
* L1 norms by the dense uniform-grid oracle of acceptance criterion 7,
  Richardson-extrapolated and refined until two grids agree;
* dephasing integrals chi by the cosine-kernel closed form
  sum_jk c_j c_k K(t_j - t_k), evaluated in mpmath;
* filter magnitudes |f(omega)| by direct mpmath summation.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from mpmath import mp

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def construction_dps(n: int) -> int:
    return 40 + 2 * n


def sin2_fractions(n: int) -> list:
    """d_k = sin^2(k*pi/(2n+2)), k = 1..n, at the current mpmath precision."""
    return [mpmath.sin(k * mpmath.pi / (2 * n + 2)) ** 2 for k in range(1, n + 1)]


def filter_coefficients(n: int) -> list[int]:
    """(1, -2, +2, ..., -(-1)^n): coefficients of the n-pulse filter sum and,
    for even n, of the Uhrig sum."""
    return [1] + [2 * (-1) ** j for j in range(1, n + 1)] + [-((-1) ** n)]


def uhrig_exponents(n: int) -> list:
    return [mpmath.mpf(0)] + sin2_fractions(n) + [mpmath.mpf(1)]


def scaled_exponents(n: int, b: float) -> list:
    scale = 9 / mpmath.mpf(b) ** 2
    return [scale * x for x in uhrig_exponents(n)]


def unit_gap_exponents(n: int) -> list:
    d = sin2_fractions(n)
    return [mpmath.mpf(0)] + [x / d[0] for x in d] + [1 / d[0]]


def sup_abs(coeffs, exponents, lo: float, hi: float, dps: int) -> float:
    """max |sum_j c_j exp(i*lam_j*t)| over [lo, hi] at ``dps`` digits.

    Uniform scan (rotations advanced by exact multiplication), then
    golden-section refinement around the three largest samples.
    """
    with mp.workdps(dps):
        lam = [mpmath.mpf(x) for x in exponents]
        c = [mpmath.mpf(x) for x in coeffs]
        lo_, hi_ = mpmath.mpf(lo), mpmath.mpf(hi)
        rate = float(max(abs(x) for x in lam) * (hi_ - lo_))
        points = int(max(64, 16 * (1 + math.ceil(rate))))
        h = (hi_ - lo_) / (points - 1)
        step = [mpmath.expj(x * h) for x in lam]
        terms = [a * mpmath.expj(x * lo_) for a, x in zip(c, lam)]
        samples = []
        for _ in range(points):
            samples.append(abs(mpmath.fsum(terms)))
            terms = [u * r for u, r in zip(terms, step)]

        def f(t):
            return abs(mpmath.fsum(a * mpmath.expj(x * t) for a, x in zip(c, lam)))

        best = max(samples)
        ranked = sorted(range(points), key=samples.__getitem__, reverse=True)
        for i in ranked[:3]:
            a = lo_ + max(i - 1, 0) * h
            b = lo_ + min(i + 1, points - 1) * h
            x1, x2 = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
            f1, f2 = f(x1), f(x2)
            for _ in range(48):
                if f1 > f2:
                    b, x2, f2 = x2, x1, f1
                    x1 = b - GOLDEN * (b - a)
                    f1 = f(x1)
                else:
                    a, x1, f1 = x1, x2, f2
                    x2 = a + GOLDEN * (b - a)
                    f2 = f(x2)
            best = max(best, f1, f2)
        return float(best)


def sup_taylor(n: int, a: float) -> float:
    """Sup on [-a, a] of the exact scaled construction of order n, b = 9a."""
    dps = construction_dps(n)
    with mp.workdps(dps):
        lam = scaled_exponents(n, 9.0 * a)
    # real coefficients: |g(-t)| = |g(t)|, so [0, a] suffices
    return sup_abs(filter_coefficients(n), lam, 0.0, a, dps)


def sup_stirling(n: int, a: float) -> float:
    """Sup of the exact unit-gap construction of order n on [-a, a]."""
    dps = construction_dps(n)
    with mp.workdps(dps):
        lam = unit_gap_exponents(n)
    return sup_abs(filter_coefficients(n), lam, 0.0, a, dps)


def sup_uhrig(n: int, lo: float, hi: float) -> float:
    dps = construction_dps(n)
    with mp.workdps(dps):
        lam = uhrig_exponents(n)
    return sup_abs(filter_coefficients(n), lam, lo, hi, dps)


def taylor_envelope_b(b: float) -> float:
    with mp.workdps(30):
        b = mpmath.mpf(b)
        return float((6 / b) * (mpmath.e / 3) ** (3 / b))


def stirling_envelope(a: float) -> float:
    with mp.workdps(30):
        a, e = mpmath.mpf(a), mpmath.e
        return float(
            mpmath.exp(-1 / (e * e * a)) * (2 / e + e * a)
            * mpmath.sqrt((e * e + 1 / a) / (2 * mpmath.pi))
        )


def uhrig_derivative(n: int, m: int) -> float:
    """|g^(m)(0)| = |sum_j c_j d_j^m| for the exact order-n Uhrig sum."""
    with mp.workdps(construction_dps(n)):
        return float(abs(mpmath.fsum(c * x ** m for c, x in
                                     zip(filter_coefficients(n), uhrig_exponents(n)))))


def _abs_sum(a, lam, ts):
    acc = np.zeros(ts.shape, dtype=complex)
    for c, x in zip(a, lam):
        acc += c * np.exp(1j * x * ts)
    return np.abs(acc)


def _graded_edges(p: float, q: float, width: float, levels: int = 40) -> np.ndarray:
    """Panel edges on [p, q]: geometric grading (ratio 2) into both ends, no
    panel wider than ``width``."""
    half = [0.0] + [0.5 ** k for k in range(levels + 1, 0, -1)]
    shares = half + [1.0 - s for s in reversed(half[:-1])]
    edges = [p + (q - p) * s for s in shares]
    out = [p]
    for a, b in zip(edges[:-1], edges[1:]):
        out.extend(np.linspace(a, b, max(1, math.ceil((b - a) / width)) + 1)[1:])
    return np.array(out)


def l1_oracle(coeffs, exponents, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Integral of |g| over [lo, hi], split at the zeros of g.

    |g| has a kink wherever g vanishes on the real line, and a uniform-grid
    rule converges only as h^2 across a kink: the 1,000,001-point trapezoid of
    acceptance criterion 7 cannot resolve 1e-10 on long intervals.  So the
    local minima of |g| that stand above roundoff are located on a grid of 64
    points per radian of the fastest term and refined by golden section.
    Between them 20-point Gauss-Legendre panels, graded geometrically into
    every break and at most 1/4 radian wide, converge fast.  The panel width
    is halved until two results agree to ``tol``.
    """
    a = np.array(coeffs, dtype=complex)
    lam = np.array(exponents, dtype=float)
    fastest = max(float(np.max(np.abs(lam))), 1e-3)
    ts = np.linspace(lo, hi, int(64 * (1 + fastest * (hi - lo))) + 1)
    m = _abs_sum(a, lam, ts)
    floor = 1e3 * np.finfo(float).eps * float(np.sum(np.abs(a)))
    inner = np.flatnonzero((m[1:-1] <= m[:-2]) & (m[1:-1] <= m[2:]) & (m[1:-1] > floor)) + 1
    left, right = ts[inner - 1], ts[inner + 1]
    for _ in range(80):
        c = right - GOLDEN * (right - left)
        d = left + GOLDEN * (right - left)
        lower = _abs_sum(a, lam, c) < _abs_sum(a, lam, d)
        right = np.where(lower, d, right)
        left = np.where(lower, left, c)
    breaks = np.unique(np.concatenate([[lo], 0.5 * (left + right), [hi]]))
    nodes, weights = np.polynomial.legendre.leggauss(20)
    width = 0.25 / fastest
    previous = None
    for _ in range(6):
        edges = [_graded_edges(p, q, width) for p, q in zip(breaks[:-1], breaks[1:])]
        starts = np.concatenate([e[:-1] for e in edges])
        ends = np.concatenate([e[1:] for e in edges])
        half = 0.5 * (ends - starts)
        points = (0.5 * (starts + ends))[:, None] + half[:, None] * nodes[None, :]
        values = _abs_sum(a, lam, points.ravel()).reshape(points.shape)
        value = float(np.sum(half * (values @ weights)))
        if previous is not None and abs(value - previous) <= tol:
            return value
        previous = value
        width /= 2
    raise RuntimeError(f"L1 oracle unresolved on [{lo}, {hi}]")


def chi_closed_form(times, kind: str, amplitude: float, cutoff=None, table=None,
                    dps: int = 60) -> float:
    """chi = amplitude * sum_jk c_j c_k K(t_j - t_k) with the cosine kernel
    K(D) = integral Lambda(w)/amplitude * cos(D*w) dw of the density."""
    n = len(times) - 2
    c = filter_coefficients(n)
    with mp.workdps(dps):
        t = [mpmath.mpf(x) for x in times]
        if kind == "hard-cutoff-flat":
            wc = mpmath.mpf(cutoff)

            def kernel(d):
                return wc if d == 0 else mpmath.sin(d * wc) / d
        elif kind == "ohmic-exponential":
            s = 1 / mpmath.mpf(cutoff) ** 2

            def kernel(d):
                return (s - d * d) / (s + d * d) ** 2
        else:
            segments = []
            for (w0, v0), (w1, v1) in zip(table, table[1:]):
                w0, v0, w1, v1 = map(mpmath.mpf, (w0, v0, w1, v1))
                q = (v1 - v0) / (w1 - w0)
                segments.append((w0, w1, v0 - q * w0, q))

            def kernel(d):
                total = mpmath.mpf(0)
                for w0, w1, p, q in segments:
                    if d == 0:
                        total += p * (w1 - w0) + q * (w1 ** 2 - w0 ** 2) / 2
                    else:
                        def prim(w):
                            return (p + q * w) * mpmath.sin(d * w) / d + q * mpmath.cos(d * w) / d ** 2
                        total += prim(w1) - prim(w0)
                return total

        value = mpmath.fsum(
            c[j] * c[k] * kernel(t[j] - t[k])
            for j in range(n + 2) for k in range(n + 2)
        )
        return float(amplitude * value)


def sin2_times(n: int, total_time: float, dps: int = 60) -> list:
    """Exact-construction pulse grid (0, T*d_1, ..., T*d_n, T) as mpf values."""
    with mp.workdps(dps):
        return [mpmath.mpf(total_time) * x for x in uhrig_exponents(n)]


def filter_magnitudes(n: int, total_time: float, omegas, dps: int = 40) -> list[float]:
    """|f(omega)| of the exact n-pulse sin^2 sequence on a frequency grid."""
    c = filter_coefficients(n)
    out = []
    with mp.workdps(dps):
        times = sin2_times(n, total_time, dps)
        for w in omegas:
            w = mpmath.mpf(w)
            out.append(float(abs(mpmath.fsum(a * mpmath.expj(t * w) for a, t in zip(c, times)))))
    return out
