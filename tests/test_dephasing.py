import json
import math
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from expsums import (
    InvalidInputError,
    PrecisionError,
    PulseSequence,
    SpectralDensity,
    decay_factor,
    evaluate,
    filter_expsum,
    filter_function,
    load_pulse_sequence,
    load_spectral_density,
    sequence_to_json,
    uhrig_filter_magnitude,
    uhrig_pulse_times,
    vanishing_order_filter,
)
from expsums import construction, dephasing
from expsums.construction import _uhrig_moments
from expsums.quadrature import adaptive_gauss_legendre

ECHO = PulseSequence(times=(0.0, 0.5, 1.0))
FREE = PulseSequence(times=(0.0, 1.0))


def uniform_sequence(n, T=1.0):
    return PulseSequence.from_pulses([j * T / (n + 1) for j in range(1, n + 1)], T)


# ---------------------------------------------------------------------------
# sequences

def test_sequence_validation():
    with pytest.raises(InvalidInputError):
        PulseSequence(times=(0.5, 1.0))
    with pytest.raises(InvalidInputError):
        PulseSequence(times=(0.0,))
    with pytest.raises(InvalidInputError):
        PulseSequence(times=(0.0, 0.5, 0.5, 1.0))
    with pytest.raises(InvalidInputError):
        PulseSequence(times=(0.0, 0.7, 0.3, 1.0))


def test_sequence_rejects_nan_time():
    with pytest.raises(InvalidInputError):
        PulseSequence(times=(0.0, math.nan, 1.0))


def test_sequence_accessors():
    seq = uhrig_pulse_times(2, 1.0)
    assert seq.n_pulses == 2
    assert seq.total_time == 1.0
    assert seq.min_separation == pytest.approx(0.25, abs=1e-15)


def test_from_pulses():
    seq = PulseSequence.from_pulses([0.25, 0.75], 1.0)
    assert seq.times == (0.0, 0.25, 0.75, 1.0)


def test_min_separation_includes_boundaries():
    assert PulseSequence(times=(0.0, 0.9, 1.0)).min_separation == pytest.approx(0.1)
    assert uhrig_pulse_times(1, 2.0).min_separation == pytest.approx(1.0)


def test_min_separation_edge_gaps_smallest_for_uhrig():
    # sin^2 symmetry makes the first and last gaps equal and minimal; roundoff
    # decides which one the scan lands on
    for n in range(1, 41):
        seq = uhrig_pulse_times(n, 1.0)
        gaps = [b - a for a, b in zip(seq.times, seq.times[1:])]
        assert min(range(len(gaps)), key=gaps.__getitem__) in (0, len(gaps) - 1)
        assert seq.min_separation == pytest.approx(
            math.sin(math.pi / (2 * n + 2)) ** 2, rel=1e-14
        )


# ---------------------------------------------------------------------------
# filter function

def test_filter_vanishes_at_zero_frequency():
    for seq in [FREE, ECHO, uhrig_pulse_times(4, 2.0), uniform_sequence(3)]:
        assert filter_function(seq, 0.0) == 0


def test_filter_no_pulses_closed_form():
    for w in np.linspace(-8.0, 8.0, 33):
        value = filter_function(FREE, w)
        assert value == pytest.approx(1 - np.exp(1j * w), abs=1e-14)
        assert abs(value) == pytest.approx(2 * abs(math.sin(w / 2)), abs=1e-14)


def test_filter_matches_expsum_route():
    rng = np.random.default_rng(11)
    sequences = [FREE, ECHO, uhrig_pulse_times(3, 1.0), uhrig_pulse_times(6, 0.7)]
    pulses = np.sort(rng.uniform(0.05, 0.95, size=5))
    sequences.append(PulseSequence.from_pulses(pulses, 1.0))
    for seq in sequences:
        g = filter_expsum(seq)
        for w in np.linspace(-20.0, 20.0, 41):
            direct = filter_function(seq, w)
            via_sum = evaluate(g, w)
            assert abs(direct - via_sum) <= 1e-13 * max(1.0, abs(direct))


def test_filter_within_rounding_bound_of_evaluate():
    # the terms of filter_expsum, against evaluate's fsum of the same terms;
    # over n <= 32 and |omega| <= 1e4 the worst case measured is 0.05 of the bound
    eps = np.finfo(float).eps
    rng = np.random.default_rng(5)
    sequences = [FREE, ECHO, uhrig_pulse_times(8, 1.0), uhrig_pulse_times(20, 2.5)]
    sequences.append(PulseSequence.from_pulses(np.sort(rng.uniform(0.0, 1.7, 7)), 1.7))
    ws = np.concatenate([rng.uniform(-1e4, 1e4, 40), rng.uniform(-20.0, 20.0, 20), [1e4, -1e4]])
    for seq in sequences:
        g = filter_expsum(seq)
        scale = sum(abs(c) for c in g.coefficients)
        for w, value in zip(ws, filter_function(seq, ws)):
            bound = eps * scale * (1 + abs(w) * seq.total_time)
            assert abs(value - evaluate(g, w)) <= bound


def test_filter_expsum_coefficient_pattern():
    g = filter_expsum(uhrig_pulse_times(4, 1.0))
    assert g.coefficients == (1, -2, 2, -2, 2, -1)
    g = filter_expsum(uhrig_pulse_times(3, 1.0))
    assert g.coefficients == (1, -2, 2, -2, 1)
    assert filter_expsum(FREE).coefficients == (1, -1)


def test_filter_triangle_bound():
    for n in [0, 2, 5]:
        seq = uhrig_pulse_times(n, 1.0) if n else FREE
        bound = 2 * (seq.n_pulses + 1)
        ws = np.linspace(-100.0, 100.0, 501)
        assert all(abs(filter_function(seq, w)) <= bound + 1e-12 for w in ws)


def test_filter_time_scaling_covariance():
    base = uhrig_pulse_times(3, 1.0)
    s = 2.5
    stretched = PulseSequence(times=tuple(s * t for t in base.times))
    for w in np.linspace(0.1, 30.0, 25):
        assert abs(filter_function(stretched, w / s)) == pytest.approx(
            abs(filter_function(base, w)), abs=1e-13
        )


def test_filter_rejects_nonfinite_frequency():
    with pytest.raises(InvalidInputError):
        filter_function(FREE, math.inf)


def test_filter_array_matches_scalar_calls():
    rng = np.random.default_rng(3)
    sequences = [FREE, ECHO, uhrig_pulse_times(9, 2.0), uhrig_pulse_times(16, 1.0),
                 uhrig_pulse_times(32, 0.7)]
    sequences.append(PulseSequence.from_pulses(np.sort(rng.uniform(0.0, 3.0, 6)), 3.0))
    ws = rng.uniform(-500.0, 500.0, 300)
    for seq in sequences:
        values = filter_function(seq, ws)
        assert values.shape == ws.shape
        assert isinstance(filter_function(seq, 1.5), complex)
        assert values.tolist() == [filter_function(seq, w) for w in ws]
        grid = filter_function(seq, ws.reshape(12, 25))
        assert grid.shape == (12, 25)
        assert grid.ravel().tolist() == values.tolist()
    with pytest.raises(InvalidInputError):
        filter_function(FREE, np.array([0.0, math.nan]))


# ---------------------------------------------------------------------------
# vanishing order of the filter

def test_filter_order_uhrig():
    for n in [1, 2, 3, 4]:
        assert vanishing_order_filter(uhrig_pulse_times(n, 1.0)) == n + 1


def test_filter_order_no_pulses():
    assert vanishing_order_filter(FREE) == 1


def test_filter_order_uniform_spacing_is_lower():
    # evenly spaced pulses stop cancelling beyond first order
    assert vanishing_order_filter(uniform_sequence(2)) == 1
    assert vanishing_order_filter(uhrig_pulse_times(2, 1.0)) == 3


def test_uhrig_filter_magnitude_agrees_at_moderate_frequency():
    for n, T in [(2, 1.0), (3, 0.5)]:
        seq = uhrig_pulse_times(n, T)
        for w in [0.7, 3.0, 11.0]:
            direct = abs(filter_function(seq, w))
            precise = uhrig_filter_magnitude(n, T, w)
            assert direct == pytest.approx(precise, rel=1e-12, abs=1e-13)


def test_uhrig_filter_magnitude_resolves_tiny_values():
    # at omega*T = 1e-3 the n=4 filter is ~1e-19, far below double noise
    value = uhrig_filter_magnitude(4, 1.0, 1e-3)
    assert 0.0 < value < 1e-17
    ratio = uhrig_filter_magnitude(4, 1.0, 2e-3) / value
    assert ratio == pytest.approx(2.0 ** 5, rel=1e-3)


def sin2_filter_magnitude(n, total_time, omega, digits=120):
    """|f(omega)| summed in mpmath over the exact sin^2 timings, to about
    ``digits`` significant digits.  Its 2(n + 1) terms of size at most 2 leave
    an error of about 2(n + 1)*(1 + |omega|*T)*10^-d at d working digits, so
    d grows by the digits the result falls short of that error times
    10^digits, until it falls short of none.  It does not use the moments of
    _uhrig_moments."""
    x = abs(omega * total_time)
    d = digits + 10
    while True:
        with mpmath.workdps(d):
            T, w = mpmath.mpf(total_time), mpmath.mpf(omega)
            s = [mpmath.sin(k * mpmath.pi / (2 * n + 2)) ** 2 for k in range(1, n + 1)]
            times = [mpmath.mpf(0), *(T * y for y in s), T]
            coeffs = [1, *(2 * (-1) ** k for k in range(1, n + 1)), -((-1) ** n)]
            value = abs(mpmath.fsum(c * mpmath.expj(t * w) for c, t in zip(coeffs, times)))
            shortfall = digits - d - mpmath.log10(value / (2 * (n + 1) * (1 + x))) if value else d
        if shortfall <= 0:
            return value
        d += math.ceil(shortfall) + 10


def within_one_ulp(value, oracle):
    return abs(value - oracle) <= math.ulp(value)


@pytest.mark.parametrize("n", [12, 16, 20])
def test_uhrig_filter_magnitude_resolves_below_the_loop_roundoff(n):
    # at omega*T = 1e-3 these sit below the 50-digit loop's error bound
    # (2n+2)*(1+|omega|*T)*10^-50; the moment series resolves them
    oracle = sin2_filter_magnitude(n, 1.0, 1e-3, digits=200)
    value = uhrig_filter_magnitude(n, 1.0, 1e-3, dps=50)
    assert abs(value - oracle) <= 1e-13 * oracle


def test_uhrig_filter_magnitude_baseline_case():
    value = uhrig_filter_magnitude(16, 1.0, 0.01)
    assert within_one_ulp(value, 1.1128083972369599e-57)


# omega*T from 1e-8 up to the series' limit of 8
SERIES_SPAN = [1e-8, 3e-6, 1e-3, 0.02, 0.3, 1.0, 2.5, 5.0, 7.9, 8.0]


@pytest.mark.parametrize("n", range(1, 41))
def test_uhrig_filter_magnitude_series_matches_sin2_oracle(n):
    for i, x in enumerate(SERIES_SPAN):
        T = (0.7, 1.0, 1.9)[(n + i) % 3]
        omega = (-1) ** i * x / T
        oracle = sin2_filter_magnitude(n, T, omega)
        if oracle < sys.float_info.min:
            with pytest.raises(PrecisionError, match="below the double range"):
                uhrig_filter_magnitude(n, T, omega)
        else:
            value = uhrig_filter_magnitude(n, T, omega)
            assert within_one_ulp(value, oracle), (n, T, omega, value, oracle)


def crossover(n):
    """omega*T up to which uhrig_filter_magnitude takes the Bessel series."""
    return 4 * (n + 1) + 8


def route_magnitude(route, n, omega_t):
    """|f| from uhrig_filter_magnitude at T = 1 with ``route`` taken on both
    sides of the crossover, under the function's own guard rule."""
    with pytest.MonkeyPatch.context() as patch:
        for name in ["_bessel_series", "_direct_sum"]:
            patch.setattr(construction, name, route)
        return uhrig_filter_magnitude(n, 1.0, omega_t)


@pytest.mark.parametrize("route", ["_bessel_series", "_direct_sum"])
def test_uhrig_filter_magnitude_routes_stay_within_their_bounds(route):
    # with 4 guard bits the rounding errors are a visible share of the bound
    for n in [1, 2, 5, 8, 13]:
        for omega_t in [0.3, 5.0, 4 * math.pi, 30.0]:
            x, e = omega_t.as_integer_ratio()
            value, bound, P = getattr(construction, route)(n, x, e.bit_length() - 1, 4)
            oracle = mpmath.ldexp(sin2_filter_magnitude(n, 1.0, omega_t), P)
            assert abs(abs(value) - oracle) <= bound, (n, omega_t)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 13, 20])
def test_uhrig_filter_magnitude_routes_agree_across_the_limit(n):
    # both routes on either side of the crossover 4(n + 1) + 8
    limit = crossover(n)
    for x in [limit - 0.5, limit - 0.001, limit, limit + 0.001, limit + 1.0]:
        series = route_magnitude(construction._bessel_series, n, x)
        direct = route_magnitude(construction._direct_sum, n, x)
        assert series == pytest.approx(direct, rel=1e-14, abs=0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 13])
def test_routes_give_the_same_signed_bessel_sum(n):
    # both give 4N*F_N itself, sign included: 2*sin(z) for n = 0, and
    # 4N*J_N(z) to first order near z = 0
    for omega_t in [0.3, 5.0, 30.0]:
        x, e = omega_t.as_integer_ratio()
        signs = {math.copysign(1, route(n, x, e.bit_length() - 1, 72)[0])
                 for route in (construction._bessel_series, construction._direct_sum)}
        assert len(signs) == 1, (n, omega_t)
    x, e = (0.3).as_integer_ratio()
    assert construction._direct_sum(n, x, e.bit_length() - 1, 400)[0] > 0
    value, _, P = construction._direct_sum(0, 5, 0, 72)  # z = 5/2
    assert float(mpmath.ldexp(value, -P)) == pytest.approx(2 * math.sin(2.5), rel=1e-15)


def test_uhrig_filter_magnitude_takes_the_loop_above_the_limit(monkeypatch):
    routes = []
    for name in ["_bessel_series", "_direct_sum"]:
        route = getattr(construction, name)
        monkeypatch.setattr(construction, name,
                            lambda *args, route=route, name=name: routes.append(name) or route(*args))
    T = 0.7
    # the route follows the exact product of the two doubles, not its rounding
    limit = crossover(3)
    below = max(w for w in [limit / T, math.nextafter(limit / T, 0.0)]
                if Fraction(w) * Fraction(T) <= limit)
    above = math.nextafter(below, math.inf)
    # 0.75 * 32 is the crossover itself, exactly
    cases = [(0.75, limit / 0.75), (T, below), (T, -below), (T, above), (T, -(limit + 0.5) / T)]
    for total_time, omega in cases:
        uhrig_filter_magnitude(3, total_time, omega)
    assert routes == ["_bessel_series"] * 3 + ["_direct_sum"] * 2


def recorded_guards(monkeypatch, name):
    """The guards of the calls to the route ``name``, as they are made."""
    guards = []
    route = getattr(construction, name)
    monkeypatch.setattr(construction, name, lambda *args: guards.append(args[-1]) or route(*args))
    return guards


def test_uhrig_filter_magnitude_series_adds_guard_bits_through_cancellation(monkeypatch):
    # n = 1: f = (1 - e^{ix/2})^2 vanishes at x = 4*pi, so at the double
    # nearest it the series cancels about 100 bits below its leading term
    x = 4 * math.pi
    oracle = sin2_filter_magnitude(1, 1.0, x)
    assert oracle < 1e-29
    assert x < crossover(1)
    guards = recorded_guards(monkeypatch, "_bessel_series")
    assert within_one_ulp(uhrig_filter_magnitude(1, 1.0, x), oracle)
    assert 1 < len(guards) <= 3 and guards[0] == construction._GUARD


# omega*T from above the old limit of 8 to 1000, across every crossover
# 4(n + 1) + 8 of the orders below
WIDE_SPAN = [12.0, 4 * math.pi, 15.9, 16.0, 16.5, 30.0, 100.0, 333.0, 1000.0]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20, 40])
def test_uhrig_filter_magnitude_direct_sum_matches_sin2_oracle(n):
    for i, x in enumerate(WIDE_SPAN):
        T = (0.7, 1.0, 1.9)[(n + i) % 3]
        omega = (-1) ** i * x / T
        value = uhrig_filter_magnitude(n, T, omega)
        assert within_one_ulp(value, sin2_filter_magnitude(n, T, omega)), (n, T, omega, value)


@pytest.mark.parametrize("n, omega_t", [(4, 1e-3), (1, 4 * math.pi), (4, 100.0), (1, 8 * math.pi)])
def test_uhrig_filter_magnitude_ignores_dps(n, omega_t):
    # the Bessel series, then the direct sum, each once near a zero of f
    values = {uhrig_filter_magnitude(n, 1.0, omega_t, dps=dps) for dps in [1, 7, 50, 500]}
    assert len(values) == 1


def test_uhrig_filter_magnitude_direct_sum_adds_guard_bits_at_a_zero(monkeypatch):
    # n = 1: |f| = 4*sin^2(omega*T/4), so the zero above the crossover 16 is
    # 8*pi, a double zero: at the double nearest it |f| is about 2e-30
    root = mpmath.findroot(lambda x: mpmath.sin(x / 4), 25)
    x = float(root)
    assert x == 8 * math.pi > crossover(1)
    oracle = sin2_filter_magnitude(1, 1.0, x)
    assert oracle < 1e-29
    guards = recorded_guards(monkeypatch, "_direct_sum")
    assert within_one_ulp(uhrig_filter_magnitude(1, 1.0, x), oracle)
    assert 1 < len(guards) <= 3 and guards[0] == construction._GUARD


@pytest.mark.parametrize("omega_t, magnitude", [(1300.0, 6.050551033701285e-102),
                                                (1400.0, 3.854683312105644e-78)])
def test_uhrig_filter_magnitude_resolves_large_order_cancellation(omega_t, magnitude):
    # at n = 1000 the Bessel series stays below its bound up to 288 guard bits
    # here; the oracle's sum cancels log10(2002/|f|) < 110 digits
    oracle = sin2_filter_magnitude(1000, 1.0, omega_t, digits=170)
    value = uhrig_filter_magnitude(1000, 1.0, omega_t)
    assert value == magnitude and within_one_ulp(value, oracle)


def test_uhrig_filter_magnitude_stops_below_the_double_range_without_signal(monkeypatch):
    # a sum that stays 0 within B = 1 unit of 2^-guard doubles its guard until
    # that bound alone puts |f| below 2^-1022, and no longer
    guards = []
    for name in ["_bessel_series", "_direct_sum"]:
        monkeypatch.setattr(construction, name, lambda n, x, e, guard: guards.append(guard) or (0, 1, guard))
    with pytest.raises(PrecisionError, match="below the double range"):
        uhrig_filter_magnitude(3, 1.0, 5.0)
    assert guards[0] == construction._GUARD and all(b >= 2 * a for a, b in zip(guards, guards[1:]))
    assert 57 - guards[-1] <= -1022 < 57 - guards[-2]


@pytest.mark.parametrize("n", [100_000, 2**27])
def test_uhrig_filter_magnitude_large_order_below_double_range_is_immediate(n):
    # |f| <= 4N*(4/3)*y^N/N! (DLMF 10.14.4) decides this before any big integer
    start = time.perf_counter()
    with pytest.raises(PrecisionError, match=r"below the double range"):
        uhrig_filter_magnitude(n, 1.0, 1e-3)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("omega", [0.0, -0.0])
def test_uhrig_filter_magnitude_at_zero_raises(omega):
    with pytest.raises(PrecisionError):
        uhrig_filter_magnitude(4, 1.0, omega)


# true values 1.0e-400 and 3.3e-330, resolved at these dps but below the
# smallest normal double
@pytest.mark.parametrize("n,omega,dps", [(40, 1e-8, 500), (30, 1e-9, 400)])
def test_uhrig_filter_magnitude_below_double_range_raises(n, omega, dps):
    with pytest.raises(PrecisionError, match="below the double range"):
        uhrig_filter_magnitude(n, 1.0, omega, dps=dps)


def test_uhrig_filter_magnitude_matches_moment_series():
    # f(omega) = sum_{m > n} mu_m*(i*omega*T)^m/m! with the exact moments
    n, T, w = 20, 1.0, 1e-3
    with mpmath.workdps(200):
        x = mpmath.mpf(w) * T
        oracle = abs(mpmath.fsum(
            mpmath.mpf(_uhrig_moments(n, m)[0]) / 4**m * (1j * x) ** m / mpmath.factorial(m)
            for m in range(n + 1, n + 60)
        ))
    value = uhrig_filter_magnitude(n, T, w, dps=120)
    assert abs(value - oracle) <= 1e-12 * oracle


def test_uhrig_filter_magnitude_validation():
    with pytest.raises(InvalidInputError):
        uhrig_filter_magnitude(0, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        uhrig_filter_magnitude(2, 0.0, 1.0)


@pytest.mark.parametrize(
    "total_time, omega", [(1.0, math.inf), (1.0, math.nan), (math.inf, 1.0)]
)
def test_uhrig_filter_magnitude_rejects_nonfinite(total_time, omega):
    with pytest.raises(InvalidInputError):
        uhrig_filter_magnitude(4, total_time, omega)


def test_uhrig_filter_magnitude_rejects_nonpositive_digits():
    with pytest.raises(InvalidInputError):
        uhrig_filter_magnitude(4, 1.0, 1.0, dps=0)


@pytest.mark.parametrize("omega", [1e-3, 100.0])
def test_uhrig_filter_magnitude_rejects_nonpositive_digits_on_both_routes(omega):
    for dps in [0, -5]:
        with pytest.raises(InvalidInputError, match="dps"):
            uhrig_filter_magnitude(4, 1.0, omega, dps=dps)


# ---------------------------------------------------------------------------
# spectral densities

def test_density_validation():
    with pytest.raises(InvalidInputError):
        SpectralDensity(kind="pink")
    with pytest.raises(InvalidInputError):
        SpectralDensity(kind="hard-cutoff-flat", amplitude=-1.0, cutoff=1.0)
    with pytest.raises(InvalidInputError):
        SpectralDensity(kind="hard-cutoff-flat", amplitude=1.0)
    with pytest.raises(InvalidInputError):
        SpectralDensity(kind="ohmic-exponential", amplitude=1.0, cutoff=0.0)
    with pytest.raises(InvalidInputError):
        SpectralDensity(kind="tabulated", table=())
    with pytest.raises(InvalidInputError):
        SpectralDensity(kind="tabulated", table=((0.0, 1.0), (0.0, 2.0)))
    with pytest.raises(InvalidInputError):
        SpectralDensity(kind="tabulated", table=((0.0, 1.0), (1.0, -2.0)))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="hard-cutoff-flat", cutoff=math.nan),
        dict(kind="ohmic-exponential", cutoff=math.inf),
        dict(kind="hard-cutoff-flat", amplitude=math.nan, cutoff=1.0),
        dict(kind="tabulated", table=((0.0, 1.0), (math.nan, 2.0))),
        dict(kind="tabulated", table=((0.0, math.nan), (1.0, 2.0))),
        dict(kind="hard-cutoff-flat", cutoff=10**400),
        dict(kind="hard-cutoff-flat", amplitude=10**400, cutoff=1.0),
    ],
    ids=["nan-cutoff", "inf-cutoff", "nan-amplitude", "nan-table-frequency", "nan-table-value",
         "huge-int-cutoff", "huge-int-amplitude"],
)
def test_density_rejects_nonfinite(kwargs):
    with pytest.raises(InvalidInputError):
        SpectralDensity(**kwargs)


def test_flat_density_values():
    dens = SpectralDensity(kind="hard-cutoff-flat", amplitude=2.0, cutoff=1.5)
    assert dens(0.0) == 2.0
    assert dens(1.5) == 2.0
    assert dens(1.6) == 0.0


def test_ohmic_density_values():
    dens = SpectralDensity(kind="ohmic-exponential", amplitude=3.0, cutoff=2.0)
    w = 0.7
    assert dens(w) == pytest.approx(3.0 * w * math.exp(-w / 2.0), rel=1e-15)


def test_tabulated_density_interpolation():
    dens = SpectralDensity(
        kind="tabulated", table=((0.0, 0.0), (1.0, 2.0), (2.0, 0.0))
    )
    assert dens(0.5) == pytest.approx(1.0)
    assert dens(1.5) == pytest.approx(1.0)
    assert dens(2.5) == 0.0


def test_density_vectorized_call():
    dens = SpectralDensity(kind="hard-cutoff-flat", amplitude=1.0, cutoff=1.0)
    out = dens(np.array([0.5, 2.0]))
    assert out.tolist() == [1.0, 0.0]


# ---------------------------------------------------------------------------
# decay factor

def test_decay_zero_density():
    dens = SpectralDensity(kind="hard-cutoff-flat", amplitude=0.0, cutoff=1.0)
    assert decay_factor(FREE, dens) == 0.0


@pytest.mark.parametrize("cutoff,T", [(1.0, 1.0), (2.0, 0.5), (0.3, 4.0)])
def test_decay_no_pulses_closed_form(cutoff, T):
    # integral of 4*sin^2(T*w/2) over [0, cutoff]
    seq = PulseSequence(times=(0.0, T))
    dens = SpectralDensity(kind="hard-cutoff-flat", amplitude=1.0, cutoff=cutoff)
    closed = 2.0 * cutoff - (2.0 / T) * math.sin(cutoff * T)
    assert decay_factor(seq, dens, abs_tol=1e-12) == pytest.approx(closed, abs=1e-10)


def test_decay_more_pulses_suppress_low_frequency_noise():
    dens = SpectralDensity(kind="hard-cutoff-flat", amplitude=1.0, cutoff=1.0)
    chi2 = decay_factor(uhrig_pulse_times(2, 1.0), dens)
    chi4 = decay_factor(uhrig_pulse_times(4, 1.0), dens)
    assert 0.0 < chi4 < chi2


def test_decay_linear_in_amplitude():
    seq = uhrig_pulse_times(2, 1.0)
    one = SpectralDensity(kind="hard-cutoff-flat", amplitude=1.0, cutoff=2.0)
    five = SpectralDensity(kind="hard-cutoff-flat", amplitude=5.0, cutoff=2.0)
    assert decay_factor(seq, five) == pytest.approx(5 * decay_factor(seq, one), rel=1e-9)


def test_decay_ohmic_tail_truncation():
    seq = uhrig_pulse_times(2, 1.0)
    dens = SpectralDensity(kind="ohmic-exponential", amplitude=1.0, cutoff=1.0)
    loose = decay_factor(seq, dens, abs_tol=1e-8)
    tight = decay_factor(seq, dens, abs_tol=1e-12)
    assert loose == pytest.approx(tight, abs=2e-8)
    assert tight > 0.0


def test_decay_tabulated_matches_flat():
    seq = uhrig_pulse_times(2, 1.0)
    flat = SpectralDensity(kind="hard-cutoff-flat", amplitude=1.0, cutoff=1.0)
    table = SpectralDensity(kind="tabulated", table=((0.0, 1.0), (1.0, 1.0)))
    assert decay_factor(seq, table) == pytest.approx(decay_factor(seq, flat), abs=1e-10)


def test_decay_validation():
    dens = SpectralDensity(kind="hard-cutoff-flat", amplitude=1.0, cutoff=1.0)
    with pytest.raises(InvalidInputError):
        decay_factor(FREE, dens, abs_tol=0.0)
    with pytest.raises(InvalidInputError):
        decay_factor(FREE, dens, abs_tol=math.nan)


def test_decay_ohmic_cutoff_whose_inverse_square_overflows():
    # the least cutoff whose 1/wc^2 is finite, and the double below it
    edge = math.sqrt(1 / np.finfo(float).max)
    while math.isfinite(1 / (edge * edge)):
        edge = math.nextafter(edge, 0.0)
    below, edge = edge, math.nextafter(edge, 1.0)
    assert math.isfinite(1 / (edge * edge))
    seq = uhrig_pulse_times(4, 1.0)
    lags = np.array([0.25, 1.0])
    for cutoff in (1e-200, below, edge):
        dens = SpectralDensity(kind="ohmic-exponential", cutoff=cutoff)
        # chi is about amplitude * wc^4 * sum_jk c_j c_k (t_j - t_k)^2: 0 in doubles
        assert 0.0 <= decay_factor(seq, dens) <= 1e-300
        with np.errstate(all="ignore"):  # as in _kernel_sum
            k0, values, _, errors = dephasing._kernel(dens, lags)
        assert k0 == cutoff * cutoff and np.all(np.abs(values) <= k0 + errors)
    # at the edge the rational kernel in s = 1/wc^2 is kept, bit for bit
    s = 1 / (edge * edge)
    with np.errstate(over="ignore"):
        old = -(lags * lags - s) / ((lags * lags + s) * (lags * lags + s))
    assert np.array_equal(values, old)


def test_decay_overflow_is_a_precision_error():
    dens = SpectralDensity(kind="ohmic-exponential", amplitude=1.0, cutoff=1e200)
    with pytest.raises(PrecisionError):
        decay_factor(ECHO, dens)


# a trapezoid overflows; kernel terms overflow to infinities of both signs,
# which math.fsum refuses
@pytest.mark.parametrize("density", [
    SpectralDensity(kind="tabulated", table=((0.0, 1.0), (1e200, 1e200))),
    SpectralDensity(kind="tabulated", table=((0.0, 0.0), (1.0, 1e308), (2.0, 0.0))),
], ids=["table-huge-area", "table-huge-peak"])
def test_decay_overflow_inside_the_sum_is_a_precision_error(density):
    for seq in (ECHO, uhrig_pulse_times(8, 1.0)):
        with pytest.raises(PrecisionError):
            decay_factor(seq, density)


# Lambda(omega) = 1 / (1 + omega) and omega * exp(-omega/10) sampled on a few
# points, plus a table that steps up from 0 at its first point
TABLES = {
    "decaying": tuple((w, 1.0 / (1.0 + w)) for w in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)),
    "ohmic-like": tuple((w, w * math.exp(-w / 10.0)) for w in (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0)),
    "left-step": ((0.5, 2.0), (1.5, 1.0), (3.0, 0.0)),
}
ORACLE_DENSITIES = {
    "flat": SpectralDensity(kind="hard-cutoff-flat", amplitude=1.3, cutoff=7.5),
    "ohmic": SpectralDensity(kind="ohmic-exponential", amplitude=0.7, cutoff=2.0),
    **{name: SpectralDensity(kind="tabulated", amplitude=0.9, table=t) for name, t in TABLES.items()},
}


def quadrature_chi(seq, density):
    """chi by adaptive quadrature of Lambda*|f|^2, piecewise between kinks."""
    coeffs = np.array([c.real for c in filter_expsum(seq).coefficients])
    times = np.array(seq.times)

    def integrand(ws):
        return density(ws) * np.abs(np.exp(1j * np.outer(ws, times)) @ coeffs) ** 2

    if density.kind == "tabulated":
        ws = [w for w, _ in density.table]
        pieces = list(zip(ws, ws[1:]))
    elif density.kind == "ohmic-exponential":
        # the tail beyond 40 cutoffs weighs below 1e-15
        pieces = [(k * density.cutoff, (k + 1) * density.cutoff) for k in range(40)]
    else:
        pieces = [(0.0, density.cutoff)]
    return math.fsum(adaptive_gauss_legendre(integrand, lo, hi, 1e-12)[0] for lo, hi in pieces)


@pytest.mark.parametrize("name", sorted(ORACLE_DENSITIES))
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_decay_matches_quadrature_oracle(name, n):
    seq = PulseSequence(times=(0.0, 1.3)) if n == 0 else uhrig_pulse_times(n, 1.3)
    density = ORACLE_DENSITIES[name]
    oracle = quadrature_chi(seq, density)
    assert decay_factor(seq, density, abs_tol=1e-12) == pytest.approx(oracle, abs=1e-10)


def test_decay_one_point_table_is_zero():
    density = SpectralDensity(kind="tabulated", table=((1.0, 3.0),))
    for seq in [FREE, ECHO, uhrig_pulse_times(8, 1.0)]:
        assert decay_factor(seq, density) == 0.0


def kernel_sum_mp(seq, density, dps=60):
    """amplitude * sum_jk c_j c_k K(t_j - t_k) at ``dps`` digits on the stored
    times; tabulated kernels integrate (p + q*omega)*cos(D*omega) per segment."""
    coeffs = [c.real for c in filter_expsum(seq).coefficients]
    with mpmath.mp.workdps(dps):
        times = [mpmath.mpf(t) for t in seq.times]
        if density.kind == "hard-cutoff-flat":
            wc = mpmath.mpf(density.cutoff)

            def kernel(d):
                return wc if d == 0 else mpmath.sin(d * wc) / d
        elif density.kind == "ohmic-exponential":
            s = 1 / mpmath.mpf(density.cutoff) ** 2

            def kernel(d):
                return (s - d * d) / (s + d * d) ** 2
        else:
            table = [tuple(map(mpmath.mpf, p)) for p in density.table]

            def kernel(d):
                total = mpmath.mpf(0)
                for (w0, v0), (w1, v1) in zip(table, table[1:]):
                    q = (v1 - v0) / (w1 - w0)
                    p = v0 - q * w0
                    if d == 0:
                        total += p * (w1 - w0) + q * (w1 ** 2 - w0 ** 2) / 2
                        continue

                    def primitive(w):
                        return (p + q * w) * mpmath.sin(d * w) / d + q * mpmath.cos(d * w) / d ** 2
                    total += primitive(w1) - primitive(w0)
                return total

        value = mpmath.fsum(
            cj * ck * kernel(tj - tk)
            for cj, tj in zip(coeffs, times)
            for ck, tk in zip(coeffs, times)
        )
        return float(density.amplitude * value)


def scaled_table(name, total_time):
    """TABLES[name] stretched to a sequence of length ``total_time``: chi then
    scales by 1/total_time, the pulse times keep their shape."""
    return tuple((w / total_time, v) for w, v in TABLES[name])


def with_close_pair(n, gap):
    """The sin^2 sequence of n pulses plus one more pulse ``gap`` after its
    middle pulse."""
    pulses = list(uhrig_pulse_times(n, 1.0).times[1:-1])
    return PulseSequence.from_pulses(sorted(pulses + [pulses[n // 2] + gap]), 1.0)


# chi cases that quadrature missed (n=8, cutoff 10.0879), took a second or
# more (n=4, cutoff 50) or ground to its subdivision cap (n=32), and sums
# whose double-precision bound exceeds abs_tol, so they take the integer rung:
# 32-pulse tables, ohmic 32 at cutoff 20 (bound 2e-10), an amplitude that is
# not a power of two, total times whose pulse times sit on dyadic scales far
# from 1, and two pulses 1e-9 apart, where the 1/D^2 of tabulated kernels
# drives up the precision of the cos/sin table
@pytest.mark.parametrize(
    "seq,density,abs_tol",
    [
        (uhrig_pulse_times(8, 1.0), SpectralDensity(kind="ohmic-exponential", cutoff=10.0879), 1e-10),
        (uhrig_pulse_times(4, 1.0), SpectralDensity(kind="ohmic-exponential", cutoff=50.0), 1e-10),
        (uhrig_pulse_times(32, 1.0), SpectralDensity(kind="ohmic-exponential", cutoff=50.0), 1e-10),
        (uhrig_pulse_times(32, 1.0), SpectralDensity(kind="hard-cutoff-flat", cutoff=1000.0), 1e-10),
        (uhrig_pulse_times(32, 1.0), SpectralDensity(kind="hard-cutoff-flat", cutoff=300.0), 1e-13),
        (uhrig_pulse_times(32, 1.0), SpectralDensity(kind="tabulated", table=TABLES["decaying"]), 1e-10),
        (uhrig_pulse_times(32, 1.0), SpectralDensity(kind="tabulated", table=TABLES["ohmic-like"]), 1e-10),
        (uhrig_pulse_times(32, 1.0), SpectralDensity(kind="ohmic-exponential", cutoff=20.0), 1e-10),
        (uhrig_pulse_times(32, 1.0), SpectralDensity(kind="tabulated", table=TABLES["left-step"]), 1e-13),
        (uhrig_pulse_times(32, 1.0),
         SpectralDensity(kind="tabulated", amplitude=0.7, table=TABLES["ohmic-like"]), 1e-10),
        (uhrig_pulse_times(32, 1e-3),
         SpectralDensity(kind="tabulated", table=scaled_table("ohmic-like", 1e-3)), 1e-10),
        (uhrig_pulse_times(32, 1e3),
         SpectralDensity(kind="tabulated", table=scaled_table("ohmic-like", 1e3)), 1e-13),
        (with_close_pair(8, 1e-9), SpectralDensity(kind="tabulated", table=TABLES["decaying"]), 1e-13),
    ],
    ids=["ohmic-8-10.0879", "ohmic-4-50", "ohmic-32-50", "flat-32-1000", "flat-32-300-tight",
         "decaying-table-32", "ohmic-like-table-32", "ohmic-32-20", "left-step-table-32-tight",
         "ohmic-like-table-32-amplitude-0.7", "ohmic-like-table-32-T-1e-3",
         "ohmic-like-table-32-T-1e3-tight", "decaying-table-close-pair-tight"],
)
def test_decay_matches_kernel_sum(seq, density, abs_tol):
    start = time.perf_counter()
    value = decay_factor(seq, density, abs_tol=abs_tol)
    assert time.perf_counter() - start < 0.5
    exact = kernel_sum_mp(seq, density)
    assert abs(value - exact) <= min(1e-10, abs_tol + math.ulp(exact))


def test_decay_escalates_to_mpmath(monkeypatch):
    # the double-precision bound for 32 pulses under a flat cutoff of 300 is
    # about 1e-10, so a 1e-13 tolerance needs the mpmath recomputation
    seq = uhrig_pulse_times(32, 1.0)
    density = SpectralDensity(kind="hard-cutoff-flat", amplitude=1.0, cutoff=300.0)
    workdps = mpmath.mp.workdps
    digits = []
    monkeypatch.setattr(mpmath.mp, "workdps", lambda dps: digits.append(dps) or workdps(dps))
    value = decay_factor(seq, density, abs_tol=1e-13)
    monkeypatch.undo()
    assert len(digits) == 1 and digits[0] > 20
    exact = kernel_sum_mp(seq, density)
    assert abs(value - exact) <= 1e-13 + math.ulp(exact)


@pytest.mark.parametrize(
    "density,abs_tol,limit",
    [
        (SpectralDensity(kind="tabulated", table=TABLES["ohmic-like"]), 1e-14, 34 * 7),
        (SpectralDensity(kind="hard-cutoff-flat", cutoff=300.0), 1e-13, 34),
        (SpectralDensity(kind="ohmic-exponential", cutoff=20.0), 1e-12, 0),
    ],
    ids=["tabulated-7-breakpoints", "flat", "ohmic"],
)
def test_decay_rung_trig_calls(monkeypatch, density, abs_tol, limit):
    # the integer rung takes cos and sin of t_j*w once per stored time and
    # breakpoint (n + 2 times, 7 breakpoints here, the cutoff for flat
    # densities), and none at all for the rational ohmic kernel; the
    # tolerances lie below the extended-precision bounds (1.5e-13, 8e-12 and
    # 4.7e-12), so the integer rung runs wherever the extended one exists
    seq = uhrig_pulse_times(32, 1.0)
    calls = []
    for name in ("sin", "cos", "cos_sin"):
        original = getattr(mpmath, name)
        monkeypatch.setattr(mpmath, name, lambda *args, f=original: calls.append(f) or f(*args))
    rung = dephasing._exact_kernel_sum
    monkeypatch.setattr(dephasing, "_exact_kernel_sum", lambda *args: calls.append(rung) or rung(*args))
    decay_factor(seq, density, abs_tol=abs_tol)
    assert calls.count(rung) == 1
    assert len(calls) - 1 <= limit


def test_decay_random_inputs_meet_tolerance():
    rng = np.random.default_rng(7)
    for size in [None] * 12 + [32, 32, 40]:
        n = size or int(rng.integers(1, 13))
        total = float(rng.uniform(0.5, 2.0))
        seq = PulseSequence.from_pulses(np.sort(rng.uniform(0.0, total, n)), total)
        ws = np.cumsum(rng.uniform(0.2, 5.0, 5)) - float(rng.uniform(0.0, 0.2))
        for density in [
            SpectralDensity(kind="hard-cutoff-flat", amplitude=1.0, cutoff=float(rng.uniform(1, 300))),
            SpectralDensity(kind="ohmic-exponential", amplitude=1.0, cutoff=float(rng.uniform(0.1, 50))),
            SpectralDensity(kind="tabulated", amplitude=1.0,
                            table=tuple(zip(ws, rng.uniform(0.0, 3.0, 5)))),
        ]:
            exact = kernel_sum_mp(seq, density)
            for abs_tol in (1e-10, 1e-12, 1e-13):
                value = decay_factor(seq, density, abs_tol=abs_tol)
                assert abs(value - exact) <= abs_tol + math.ulp(exact)


# 32-pulse sums whose double-precision bound exceeds abs_tol (the decaying
# table's bound is 1.5e-11, so it takes 1e-12), with the integer rung's
# values: float.hex of decay_factor on double then integer arithmetic
RUNG_CASES = {
    "ohmic-like-table": (SpectralDensity(kind="tabulated", table=TABLES["ohmic-like"]), 1e-10,
                         "0x1.3443042b9b800p-22"),
    "decaying-table": (SpectralDensity(kind="tabulated", table=TABLES["decaying"]), 1e-12, "0x0.0p+0"),
    "flat-1000": (SpectralDensity(kind="hard-cutoff-flat", cutoff=1000.0), 1e-10,
                  "0x1.ed865865a5500p+16"),
    "ohmic-20": (SpectralDensity(kind="ohmic-exponential", cutoff=20.0), 1e-10, "0x1.424de54f0cfaap+14"),
    "ohmic-50": (SpectralDensity(kind="ohmic-exponential", cutoff=50.0), 1e-10, "0x1.21279c3225cb6p+18"),
}


def record_rungs(monkeypatch):
    """Patch the rungs of decay_factor to log the float types of the kernel
    sums and the integer-rung calls."""
    calls = []
    kernel_sum, exact = dephasing._kernel_sum, dephasing._exact_kernel_sum
    monkeypatch.setattr(dephasing, "_kernel_sum",
                        lambda seq, density, dtype: calls.append(dtype) or kernel_sum(seq, density, dtype))
    monkeypatch.setattr(dephasing, "_exact_kernel_sum",
                        lambda *args: calls.append("integer") or exact(*args))
    return calls


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63, reason="no x87 extended precision")
@pytest.mark.parametrize("name", sorted(RUNG_CASES))
def test_decay_extended_rung_replaces_integer_rung(monkeypatch, name):
    density, abs_tol, _ = RUNG_CASES[name]
    seq = uhrig_pulse_times(32, 1.0)
    calls = record_rungs(monkeypatch)
    value = decay_factor(seq, density, abs_tol=abs_tol)
    assert calls == [np.float64, np.longdouble]
    exact = kernel_sum_mp(seq, density)
    assert abs(value - exact) <= abs_tol + math.ulp(exact)


@pytest.mark.parametrize("name", sorted(RUNG_CASES))
def test_decay_without_extended_type_takes_integer_rung(monkeypatch, name):
    # as on a platform whose long double is not the x87 format
    density, abs_tol, expected = RUNG_CASES[name]
    monkeypatch.setattr(dephasing, "_EXTENDED", None)
    calls = record_rungs(monkeypatch)
    value = decay_factor(uhrig_pulse_times(32, 1.0), density, abs_tol=abs_tol)
    assert calls == [np.float64, "integer"]
    assert value.hex() == expected


@pytest.mark.parametrize("dtype", [np.float64, pytest.param(np.longdouble, marks=pytest.mark.skipif(
    dephasing._EXTENDED is None, reason="no x87 extended precision"))])
def test_kernel_sum_within_its_bound(dtype):
    # the a-priori bound of each float rung against the 30-digit sum, on
    # random sequences of up to 40 pulses and densities of every kind
    rng = np.random.default_rng(11)
    for case in range(30):
        n = int(rng.integers(1, 41))
        total = float(rng.uniform(0.5, 2.0))
        seq = uhrig_pulse_times(n, total) if case % 2 else \
            PulseSequence.from_pulses(np.sort(rng.uniform(0.0, total, n)), total)
        amplitude = float(rng.uniform(0.1, 3.0))
        if case % 3 == 0:
            density = SpectralDensity(kind="hard-cutoff-flat", amplitude=amplitude,
                                      cutoff=float(rng.uniform(1.0, 1000.0)))
        elif case % 3 == 1:
            density = SpectralDensity(kind="ohmic-exponential", amplitude=amplitude,
                                      cutoff=float(rng.uniform(0.1, 60.0)))
        else:
            m = int(rng.integers(2, 9))
            ws = np.cumsum(rng.uniform(0.2, 8.0, m)) - float(rng.uniform(0.0, 0.2))
            density = SpectralDensity(kind="tabulated", amplitude=amplitude,
                                      table=tuple(zip(ws, rng.uniform(0.0, 3.0, m))))
        value, bound = dephasing._kernel_sum(seq, density, dtype)
        exact = kernel_sum_mp(seq, density, dps=30)
        assert abs(value - exact) <= bound + math.ulp(exact)


def long_double_to_mpf(x):
    """The exact value of a long double: its nearest double plus the rest."""
    hi = float(x)
    return mpmath.mpf(hi) + mpmath.mpf(float(x - np.longdouble(hi)))


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63, reason="no x87 extended precision")
def test_long_double_sin_cos_within_two_units_of_roundoff():
    # _kernel takes each sin of a long double as within 2u = 2^-63 relative;
    # random arguments up to 1e3, with all 64 bits set, and the long doubles
    # nearest k*pi/2, where one of sin and cos nearly vanishes
    rng = np.random.default_rng(3)
    scale = 1 + np.longdouble(2.0 ** -60) * rng.uniform(-1.0, 1.0, 1000).astype(np.longdouble)
    args = [*(rng.uniform(0.0, 1e3, 1000).astype(np.longdouble) * scale)]
    with mpmath.mp.workprec(160):
        for k in range(1, 1001):
            target = k * mpmath.pi / 2
            hi = float(target)
            args.append(np.longdouble(hi) + np.longdouble(float(target - hi)))
        xs = np.array(args, dtype=np.longdouble)
        worst = 0.0
        for ours, exact in ((np.sin, mpmath.sin), (np.cos, mpmath.cos)):
            for x, y in zip(xs, ours(xs)):
                truth = exact(long_double_to_mpf(x))
                worst = max(worst, float(abs(long_double_to_mpf(y) - truth) / abs(truth)))
    assert worst <= 2 * float(np.finfo(np.longdouble).epsneg)


# the true values are far below 1e-10; the double-precision sums of the last
# two cancel to about -1e-15
@pytest.mark.parametrize(
    "kind,n,cutoff",
    [
        ("ohmic-exponential", 32, 0.1),
        ("hard-cutoff-flat", 8, 1.0),
        ("ohmic-exponential", 16, 0.3),
    ],
)
def test_decay_suppressed_regime_within_tolerance(kind, n, cutoff):
    seq = uhrig_pulse_times(n, 1.0)
    density = SpectralDensity(kind=kind, amplitude=1.0, cutoff=cutoff)
    assert 0.0 <= decay_factor(seq, density) <= 1e-10


# ---------------------------------------------------------------------------
# file formats

def test_sequence_json_round_trip(tmp_path):
    seq = uhrig_pulse_times(3, 2.0)
    path = tmp_path / "seq.json"
    path.write_text(sequence_to_json(seq))
    assert load_pulse_sequence(path) == seq


def test_sequence_json_mismatched_total(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text('{"times": [0.0, 0.5, 1.0], "T": 2.0}')
    with pytest.raises(InvalidInputError):
        load_pulse_sequence(path)


def test_sequence_json_malformed(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text("{nope")
    with pytest.raises(InvalidInputError):
        load_pulse_sequence(path)
    with pytest.raises(InvalidInputError):
        load_pulse_sequence(tmp_path / "missing.json")
    path.write_text('{"T": 1.0}')
    with pytest.raises(InvalidInputError):
        load_pulse_sequence(path)


def test_density_json_round_trip(tmp_path):
    path = tmp_path / "dens.json"
    path.write_text(
        json.dumps({"kind": "ohmic-exponential", "amplitude": 2.0, "cutoff": 1.5})
    )
    dens = load_spectral_density(path)
    assert dens.kind == "ohmic-exponential"
    assert dens.amplitude == 2.0 and dens.cutoff == 1.5


def test_density_json_tabulated():
    dens = load_spectral_density(
        {"kind": "tabulated", "table": [[0.0, 1.0], [2.0, 3.0]]}
    )
    assert dens.table == ((0.0, 1.0), (2.0, 3.0))


def test_density_json_rejects_nan(tmp_path):
    path = tmp_path / "dens.json"
    path.write_text('{"kind": "ohmic-exponential", "amplitude": 1.0, "cutoff": NaN}')
    with pytest.raises(InvalidInputError):
        load_spectral_density(path)


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "tabulated", "table": [["a", 1]]},
        {"kind": "tabulated", "table": [1, 2]},
        {"kind": "tabulated", "table": 5},
        {"kind": "tabulated", "table": [[1, 2, 3]]},
        {"kind": "hard-cutoff-flat", "cutoff": "x"},
        {"kind": "ohmic-exponential", "cutoff": [1]},
    ],
    ids=["text-entry", "flat-table", "number-table", "triple", "text-cutoff", "list-cutoff"],
)
def test_malformed_density_is_invalid_input(doc):
    with pytest.raises(InvalidInputError):
        load_spectral_density(doc)
    with pytest.raises(InvalidInputError):
        SpectralDensity(**doc)


def test_density_json_invalid():
    with pytest.raises(InvalidInputError):
        load_spectral_density({"kind": "nope"})
    with pytest.raises(InvalidInputError):
        load_spectral_density({"amplitude": 1.0})


@pytest.mark.parametrize("n", range(1, 41))
def test_filter_order_uhrig_up_to_40(n):
    for total_time in (1.0, 0.37, 3):
        seq = uhrig_pulse_times(n, total_time)
        assert filter_expsum(seq)._uhrig == (n, float(total_time))
        assert vanishing_order_filter(seq) == n + 1


def test_loaded_sequence_has_no_provenance(tmp_path):
    seq = uhrig_pulse_times(6, 2.0)
    path = tmp_path / "seq.json"
    path.write_text(sequence_to_json(seq))
    loaded = load_pulse_sequence(str(path))
    assert loaded == seq and loaded._uhrig is None
    assert filter_expsum(loaded)._uhrig is None
