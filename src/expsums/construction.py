"""The sin^2 construction, exactly, below every module but ``errors``: the
order-n sum at scale s, N = n + 1, has exponents s*(0, d_1, ..., d_n, 1),
d_k = sin^2(k*pi/(2N)), coefficients (1, -2, +2, ..., -(-1)^n), integer
moments (``_uhrig_moments``) and the form 4N*e^(i*s*t/2)*(-i)^N*F_N(s*t/2),
F_N = sum_{l >= 0} (-1)^(l*N)*J_{(2l+1)N} real (Jacobi-Anger, DLMF 10.12.1).
"""

import itertools
import math

import mpmath
from mpmath import mp

from .errors import InvalidInputError, PrecisionError

# Largest order n whose double fractions d_k are distinct and below 1: at
# n = 2^27 the last three are 1 - 1.3e-15, 1 - 4.4e-16 and 1 - 2.2e-16, and
# at n = 2^28 the last rounds to 1.  A list of that many floats takes 4 GB.
_MAX_ORDER = 2**27


def _sin2(n: int) -> list:
    """The fractions sin^2(k*pi/(2n+2)), k = 1..n, as Python floats computed
    directly as sin^2 (no cancellation).  An order above 2^27 is rejected
    before any list is built."""
    if n > _MAX_ORDER:
        raise InvalidInputError(f"order n > 2^27 = {_MAX_ORDER}: the sin^2 fractions "
                                "would not be distinct doubles")
    return [math.sin(k * math.pi / (2 * n + 2)) ** 2 for k in range(1, n + 1)]


def _coefficients(n: int) -> tuple[float, ...]:
    """(1, -2, +2, ..., -(-1)^n) for the exponents 0, d_1..d_n, 1: adjacent
    differences of an alternating sum share each interior term."""
    return (1.0, *(2.0 * (-1.0) ** k for k in range(1, n + 1)), -((-1.0) ** n))


def _built_as(x, n: int, scale: float):
    """``x``, an ExpSum or PulseSequence, marked as the order-n sin^2
    construction with exponents or times scaled by ``scale``."""
    object.__setattr__(x, "_uhrig", (n, scale))
    return x


def _uhrig_moments(n: int, m: int) -> tuple[int, int]:
    """4^m*mu_m and 4^m*S_m as exact integers, mu_m = sum_j a_j*lambda_j^m and
    S_m = sum_j |a_j|*lambda_j^m, for the order-n Uhrig sum: exponents 0,
    d_1..d_n, 1 with d_k = sin^2(k*pi/(2N)), N = n + 1, and coefficients
    1, -2, +2, ..., -(-1)^n (Uhrig, PRL 98, 100504, 2007).

    Expanding d_k^m = sin^(2m) into cosines of multiples of k*pi/N turns the
    sums over k into geometric sums over a period, which vanish except at
    multiples of N; with C(2m, m - j) = C(2m, m + j) this leaves, i = 0..2m,

        4^m*mu_m = (-1)^N * 2N * sum of C(2m, i) over i = m + N (mod 2N),
        4^m*S_m  =          2N * sum of C(2m, i) over i = m     (mod 2N).

    So mu_m = 0 for m = 0..n and mu_{n+1} = (-1)^N * N / 4^n: the zero of
    order n + 1 at t = 0.  No rounding enters, however small mu_m is.
    """
    period = 2 * (n + 1)
    mu = sum(math.comb(2 * m, i) for i in range((m + n + 1) % period, 2 * m + 1, period))
    s = sum(math.comb(2 * m, i) for i in range(m % period, 2 * m + 1, period))
    return (-1) ** (n + 1) * period * mu, period * s


def _rounded(value: int, P: int, name: str) -> float:
    """|value|/2^P rounded once to a double, which must be a normal one."""
    magnitude = abs(value) / (1 << P) if P >= 0 else float(abs(value) << -P)
    if magnitude < 2.0**-1022:
        raise PrecisionError(f"|{name}| = {magnitude:.3g} lies below the double range")
    return magnitude


# guard bits of the first pass of both routes of _certified_sum
_GUARD = 72


def _certified_sum(n: int, x: int, e: int) -> tuple[int, int, int]:
    """(S, B, P): the signed 4N*F_N(z), z = x/2^(e+1), N = n + 1 >= 1, as an
    integer S on the scale 2^-P with |S| >= 2^55*B, B an integer bound on its
    error.

    The Bessel series, whose terms grow like e^z before they cancel, runs up
    to x/2^e = 4N + 8 unless it would cancel over about 192 bits; the direct
    sum, whose terms cancel to (2z)^N near z = 0, runs elsewhere.  Short of
    2^55*B the guard grows by the bits |S| lacks, or doubles where |S| <= B,
    until B alone puts |4N*F_N| below 2^-1022, which raises PrecisionError.
    """
    N = n + 1
    # log2 of y = x/2^(e+2) and of y^N/N!; the series' terms reach at most
    # y^N/N!*e^(y^2/(N + 1)), and |F_N| is about y^N/N!, or below 1 past 1
    log_y = math.log2(x) - e - 2
    log_lead = N * log_y - math.lgamma(N + 1) / math.log(2)
    route = _direct_sum
    if x <= 4 * N + 8 << e and max(log_lead, 0) + 4**log_y / (N + 1) * math.log2(math.e) <= 192:
        route = _bessel_series
    guard = _GUARD
    while True:
        value, bound, P = route(n, x, e, guard)
        if abs(value) >= bound << 55:
            return value, bound, P
        size = (bound << 56).bit_length() - P  # |f| < (|S| + B)/2^P < 2^size
        if size <= -1022:
            raise PrecisionError(f"|f| < 2^{size} lies below the double range")
        shortfall = (bound << 55).bit_length() - abs(value).bit_length() + 1  # bits |S| lacks
        guard += shortfall if abs(value) > bound else guard  # doubled while S is noise


def _bessel_series(n: int, x: int, e: int, guard: int) -> tuple[int, int, int]:
    """(S, B, P): the signed 4N*F_N(2y) of :func:`_certified_sum` at
    y = x/2^E, E = e + 2, as an integer S on the scale 2^-P, P placing y^N/N!
    ``guard`` bits above the unit, and an integer bound B on its error.

    J_k(2y), k = (2l+1)N, sums the terms (-1)^m*y^(2m+k)/(m!(m+k)!): the
    first is one floor division of exact integers, each next the floor of
    the last times y^2/(m(m+k)), so a term r is below its value by less than
    d units, d <- ceil(d*y^2/(m(m+k))) + 1 from 1.  It ends once r <= 1 and
    the next ratio is at most 1/2, the alternating tail then being at most
    r + d.  The orders end once k + 1 > 2y and the next leading term r is
    below the bound: |J_k(2y)| <= y^k/k! (DLMF 10.14.4), and each further
    order is at most 1/4 of the one before, so they add at most 2r + 2.
    """
    N, E, square = n + 1, e + 2, x * x
    P = guard - math.floor(N * (math.log2(x) - E) - math.lgamma(N + 1) / math.log(2))
    total = bound = 0
    for k in itertools.count(N, 2 * N):
        r = (x**k << max(P - E * k, 0)) // (math.factorial(k) << max(E * k - P, 0))
        if k + 1 << E - 1 > x and r < bound:
            bound += 2 * r + 2
            break
        m, d, part = 0, 1, 0
        while True:
            part += -r if m & 1 else r
            bound += d
            if r <= 1 and 2 * square <= (m + 1) * (m + 1 + k) << 2 * E:
                bound += r + d
                break
            m += 1
            r = r * square // (m * (m + k)) >> 2 * E
            d = -(-d * square // (m * (m + k) << 2 * E)) + 1
        total += -part if (k // N) & 2 and N & 1 else part  # (-1)^(l*N)
    return 4 * N * total, 4 * N * bound, P


def _direct_sum(n: int, x: int, e: int, guard: int) -> tuple[int, int, int]:
    """(S, B, P): the signed 4N*F_N of :func:`_certified_sum`, omega*T = x/2^e,
    as an integer S on the scale 2^-P, and an integer bound B on its error.

    Up to a phase f = sum_j c_j*e^(-i*z*cos(j*pi/N)), z = x/2^(e+1).  The
    terms j and N - j pair up, so 4N*F_N = (-1)^floor(N/2)*sum_j c_j*
    trig(z*cos(j*pi/N)), the sign being that of (-i)^N, with trig = cos for
    even N and sin for odd N, where those two terms are equal: the sum takes
    j <= N/2, with weight 2 but for a middle term.  At P bits, u = 2^-P, and
    with mpmath's cospi, cos and sin within one unit in the last place, z and
    the product each add u*z and j/N and cospi (pi + 2)*u*z to a phase, and
    the trig function 2u to a term, which is then truncated to an integer
    (one unit).  With sum_j |c_j| = 2N the error is at most 2N*(9z + 3)*u <=
    10N*(1 + omega*T)*u, that is B units, and P is ``guard`` bits above B.
    """
    N = n + 1
    bound = -(-10 * N * ((1 << e) + x) >> e)
    P = guard + bound.bit_length()
    trig = mpmath.cos if N % 2 == 0 else mpmath.sin
    with mp.workprec(P):
        z = mpmath.ldexp(x, -e - 1)
        value = sum((1 if 2 * j == N else 2) * int(c)
                    * int(mpmath.ldexp(trig(z * mpmath.cospi(mpmath.mpf(j) / N)), P))
                    for j, c in zip(range(N // 2 + 1), _coefficients(n)))
    return -value if N // 2 % 2 else value, bound, P
