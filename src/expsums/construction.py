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


def _rounded(value: int, P: int, name: str, divisor: int = 1) -> float:
    """|value|/(divisor*2^P) rounded once to a double, which must be a normal
    one; ``name`` is the quantity, as in "|f|"."""
    if P < 0:
        value, P = value << -P, 0
    magnitude = abs(value) / (divisor << P)
    if magnitude < 2.0**-1022:
        raise PrecisionError(f"{name} = {magnitude:.3g} lies below the double range")
    return magnitude


# guard bits of the first pass of both routes of _certified_sum
_GUARD = 72


def _stop_below_double_range(log_size: float, name: str) -> None:
    """Raise PrecisionError where log_size, log2 of a bound on the quantity
    ``name``, lies more than 4 bits below the smallest normal double: before
    any big integer is made."""
    if log_size < -1022 - 4:
        raise PrecisionError(f"{name} < 10^{math.ceil(log_size * math.log10(2))} "
                             "lies below the double range")


def _certified_sum(n: int, x: int, e: int, name: str = "|f|") -> tuple[int, int, int]:
    """(S, B, P): the signed 4N*F_N(z), z = x/2^(e+1), N = n + 1 >= 1, as an
    integer S on the scale 2^-P with |S| >= 2^55*B, B an integer bound on its
    error.

    Where y = z/2 <= (N + 1)/2 and |4N*F_N| <= 4N*(4/3)*y^N/N! (DLMF 10.14.4)
    lies below the double range, it raises PrecisionError at once.  The Bessel
    series, whose terms grow like e^z before they cancel, runs up to x/2^e =
    4N + 8 unless it would cancel over about 192 bits; the direct sum, whose
    terms cancel to (2z)^N near z = 0, runs elsewhere.  Both go through
    :func:`_certified`.
    """
    N = n + 1
    # log2 of y = x/2^(e+2) and of y^N/N!, once for the stop and the route
    log_y = math.log2(x) - (e + 2)
    log_lead = N * log_y - math.lgamma(N + 1) / math.log(2)
    if log_y <= math.log2((N + 1) / 2):
        _stop_below_double_range(math.log2(16 * N / 3) + log_lead, name)
    # the series' terms reach at most y^N/N!*e^(y^2/(N + 1)), and |F_N| is
    # about y^N/N!, or below 1 past 1
    route = _direct_sum
    if x <= 4 * N + 8 << e and max(log_lead, 0) + 4**log_y / (N + 1) * math.log2(math.e) <= 192:
        route = _bessel_series
    return _certified(route, (n, x, e), name)


def _certified_integral(n: int, points, e: int, name: str, log_scale: int = 0):
    """(S, B, P) as in :func:`_certified_sum` for sum_i w_i*4N*A_N(z_i) over
    the pairs (x_i, w_i) of integers in ``points``, 0 < x_i <= N*2^(e+1) and
    z_i = x_i/2^(e+1), A_N(z) being the integral of F_N from 0 to z: the mass
    of |4N*F_N| between such points, F_N being positive on (0, N].  The
    quantity ``name`` is 2^log_scale times it.  Where the bound
    sum_i |w_i|*4N*(4/3)*2y^(N+1)/(N+1)!, y = z/2 at the largest z, lies
    below the double range it raises at once; else :func:`_bessel_integral`
    sums it under :func:`_certified`.
    """
    log_y = math.log2(max(x for x, _ in points)) - (e + 2)
    log_mass = (n + 2) * log_y + 1 - math.lgamma(n + 3) / math.log(2)  # of 2y^(N+1)/(N+1)!
    weight = sum(abs(w) for _, w in points)
    _stop_below_double_range(math.log2(16 * (n + 1) / 3 * weight) + log_mass + log_scale, name)
    return _certified(_bessel_integral, (n, points, e, -math.floor(log_mass)), name, log_scale)


def _certified(route, args, name: str, log_scale: int = 0) -> tuple[int, int, int]:
    """route(*args, guard) -> (S, B, P) until |S| >= 2^55*B: short of that
    the guard grows by the bits |S| lacks, or doubles where |S| <= B, until B
    alone puts 2^log_scale*|S|/2^P below 2^-1022, which raises
    PrecisionError."""
    guard = _GUARD
    while True:
        value, bound, P = route(*args, guard)
        if abs(value) >= bound << 55:
            return value, bound, P
        size = (bound << 56).bit_length() - P + log_scale  # the quantity < 2^size
        if size <= -1022:
            raise PrecisionError(f"{name} < 2^{size} lies below the double range")
        shortfall = (bound << 55).bit_length() - abs(value).bit_length() + 1  # bits |S| lacks
        guard += shortfall if abs(value) > bound else guard  # doubled while S is noise


def _bessel_integral(n: int, points, e: int, base: int, guard: int) -> tuple[int, int, int]:
    """(S, B, P): the sum_i w_i*4N*A_N(z_i) of :func:`_certified_integral` as
    an integer S on the scale 2^-P, P = base + guard placing the mass
    2y^(N+1)/(N+1)! at the largest z = 2y ``guard`` bits above the unit, and
    an integer bound B on its error (see :func:`_bessel_terms`)."""
    P, total, bound = base + guard, 0, 0
    for x, w in points:
        value, error = _bessel_terms(n, x, e + 2, P, integral=True)
        total, bound = total + w * value, bound + abs(w) * error
    return 4 * (n + 1) * total, 4 * (n + 1) * bound, P


def _bessel_series(n: int, x: int, e: int, guard: int) -> tuple[int, int, int]:
    """(S, B, P): the signed 4N*F_N(2y) of :func:`_certified_sum` at
    y = x/2^E, E = e + 2, as an integer S on the scale 2^-P, P placing y^N/N!
    ``guard`` bits above the unit, and an integer bound B on its error (see
    :func:`_bessel_terms`)."""
    P = guard - math.floor((n + 1) * (math.log2(x) - e - 2) - math.lgamma(n + 2) / math.log(2))
    total, bound = _bessel_terms(n, x, e + 2, P)
    return 4 * (n + 1) * total, 4 * (n + 1) * bound, P


def _bessel_terms(n: int, x: int, E: int, P: int, integral: bool = False) -> tuple[int, int]:
    """F_N(2y), y = x/2^E, or with ``integral`` A_N(2y), the integral of F_N
    from 0, as an integer on the scale 2^-P and an integer bound on its error.

    J_k(2y), k = (2l+1)N, sums the terms (-1)^m*y^(2m+k)/(m!(m+k)!): the
    first is one floor division of exact integers, each next the floor of
    the last times y^2/(m(m+k)), so a term r is below its value by less than
    d units, d <- ceil(d*y^2/(m(m+k))) + 1 from 1.  Its integral takes each
    term times 2y/(2m+k+1) (DLMF 10.22.6), floored: d times that plus one
    unit.  It ends once r <= 1 and the next ratio is at most 1/2, the
    alternating tail then being at most a term plus its error.  The orders
    end once k + 1 > 2y and the next leading term r is below the bound:
    |J_k(2y)| <= y^k/k! (DLMF 10.14.4), which bounds the integral too, and
    each further order is at most 1/4 of the one before, so they add at most
    2r + 2.
    """
    N, square = n + 1, x * x
    total = bound = 0
    for k in itertools.count(N, 2 * N):
        r = (x**k << max(P - E * k, 0)) // (math.factorial(k) << max(E * k - P, 0))
        if k + 1 << E - 1 > x and r < bound:
            bound += 2 * r + 2
            break
        m, d, part = 0, 1, 0
        while True:
            q, dq = r, d
            if integral:
                width = 2 * m + k + 1 << E
                q, dq = 2 * x * r // width, -(-2 * x * d // width) + 1
            part += -q if m & 1 else q
            bound += dq
            if r <= 1 and 2 * square <= (m + 1) * (m + 1 + k) << 2 * E:
                bound += q + dq
                break
            m += 1
            r = r * square // (m * (m + k)) >> 2 * E
            d = -(-d * square // (m * (m + k) << 2 * E)) + 1
        total += -part if (k // N) & 2 and N & 1 else part  # (-1)^(l*N)
    return total, bound


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
