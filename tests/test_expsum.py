import io
import json
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from expsums import (
    ExpSum,
    Interval,
    InvalidInputError,
    PrecisionError,
    QuadratureError,
    UnsupportedInputError,
    derivative,
    derivative_magnitudes,
    derivative_sup_bound,
    evaluate,
    from_json,
    l1_norm,
    lower_bound_probe,
    scaled_sum,
    sup_norm,
    to_json,
    uhrig_sum,
    unit_gap_sum,
    vanishing_order,
    write_scan_csv,
)
from expsums import expsum, quadrature
from expsums.expsum import _golden_max, _values_on_grid, _values_on_panels, default_grid_points

ONE = ExpSum(coefficients=(1.0,), exponents=(0.0,))
TWO_TERM = ExpSum(coefficients=(1.0, -1.0), exponents=(0.0, 1.0))


def grid_eval(g, ts):
    # independent dense evaluation used as an oracle below
    return sum(a * np.exp(1j * lam * np.asarray(ts)) for a, lam in
               zip(g.coefficients, g.exponents))


# ---------------------------------------------------------------------------
# construction

def test_expsum_validation():
    with pytest.raises(InvalidInputError):
        ExpSum(coefficients=(1.0,), exponents=(0.0, 1.0))
    with pytest.raises(InvalidInputError):
        ExpSum(coefficients=(), exponents=())
    with pytest.raises(InvalidInputError):
        ExpSum(coefficients=(1.0, 1.0), exponents=(1.0, 1.0))
    with pytest.raises(InvalidInputError):
        ExpSum(coefficients=(1.0, 1.0), exponents=(2.0, 1.0))
    with pytest.raises(InvalidInputError):
        ExpSum(coefficients=(math.nan,), exponents=(0.0,))


def test_interval():
    i = Interval(y=-0.5, a=1.0)
    assert i.left == -0.5 and i.right == 0.5 and i.length == 1.0
    assert Interval.from_endpoints(1.0, 3.0) == Interval(y=1.0, a=2.0)
    with pytest.raises(InvalidInputError):
        Interval(y=0.0, a=0.0)
    with pytest.raises(InvalidInputError):
        Interval(y=0.0, a=-1.0)


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_constant():
    for t in [-3.0, 0.0, 1.7]:
        assert evaluate(ONE, t) == 1.0


def test_evaluate_two_term_at_pi():
    assert evaluate(TWO_TERM, math.pi) == pytest.approx(2.0, abs=1e-15)


def test_evaluate_uhrig_at_zero():
    assert evaluate(uhrig_sum(2), 0.0) == 0


def test_evaluate_matches_mpmath_path():
    g = uhrig_sum(4)
    for t in [-2.0, 0.3, 11.5]:
        fast = evaluate(g, t)
        slow = evaluate(g, t, dps=40)
        assert fast.real == pytest.approx(float(slow.real), abs=1e-14)
        assert fast.imag == pytest.approx(float(slow.imag), abs=1e-14)


def test_evaluate_complex_exponent():
    # exponent i gives exp(i*(i)*t) = exp(-t)
    g = ExpSum(coefficients=(1.0,), exponents=(1j,))
    assert evaluate(g, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-15)
    precise = evaluate(g, 2.0, dps=30)
    assert float(precise.real) == pytest.approx(math.exp(-2.0), abs=1e-15)


def test_evaluate_callable_shorthand():
    assert uhrig_sum(2)(0.0) == evaluate(uhrig_sum(2), 0.0)


def test_evaluate_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        evaluate(ONE, math.inf)


# ---------------------------------------------------------------------------
# derivatives

def test_derivative_order_zero_is_identity():
    g = uhrig_sum(2)
    assert derivative(g, 0) is g


def test_derivative_two_term():
    d = derivative(TWO_TERM, 1)
    assert d.coefficients == (0.0, -1j)
    assert d.exponents == TWO_TERM.exponents


def test_derivative_composition():
    g = uhrig_sum(4)
    lhs = derivative(derivative(g, 2), 3)
    rhs = derivative(g, 5)
    for a, b in zip(lhs.coefficients, rhs.coefficients):
        assert a == pytest.approx(b, rel=1e-14)


def test_derivative_rejects_negative():
    with pytest.raises(InvalidInputError):
        derivative(ONE, -1)


def test_derivative_sup_bound_values():
    assert derivative_sup_bound(ONE, 1) == 0.0
    assert derivative_sup_bound(TWO_TERM, 3) == 1.0
    assert derivative_sup_bound(TWO_TERM, 0) == 2.0


def test_derivative_sup_bound_uhrig_count():
    # fractions below 1 keep the bound under the term count 2n+1 for m >= 1
    for n in [2, 6, 10]:
        g = uhrig_sum(n)
        for m in [1, 2, 5]:
            assert derivative_sup_bound(g, m) <= 2 * n + 1


def test_derivative_sup_bound_is_a_bound():
    g = uhrig_sum(4)
    for m in [0, 1, 3]:
        bound = derivative_sup_bound(g, m)
        d = derivative(g, m)
        ts = np.linspace(-7.0, 7.0, 2001)
        assert np.abs(grid_eval(d, ts)).max() <= bound + 1e-12


def test_derivative_sup_bound_rejects_complex_exponents():
    g = ExpSum(coefficients=(1.0,), exponents=(1j,))
    with pytest.raises(UnsupportedInputError):
        derivative_sup_bound(g, 1)


def test_derivative_sup_bound_past_double_range_is_inf_without_warning():
    # 1e4**90 overflows a double; the suite turns any warning into an error
    g = ExpSum(coefficients=(1.0, -1.0), exponents=(0.0, 1e4))
    assert derivative_sup_bound(g, 90) == math.inf
    assert derivative_sup_bound(g, 77) == 1e308
    # a zero coefficient drops its term, however large its power
    assert derivative_sup_bound(ExpSum((1.0, 0.0), (5e3, 1e4)), 80) == float(5000**80)


def test_derivative_sup_bound_rejects_non_integer_order():
    with pytest.raises(InvalidInputError):
        derivative_sup_bound(TWO_TERM, 1.5)


@pytest.mark.parametrize("call", [
    lambda: derivative(TWO_TERM, 0.5),
    lambda: derivative_magnitudes(TWO_TERM, 0.0, 2.0),
    lambda: vanishing_order(TWO_TERM, m_max=7.0),
    lambda: vanishing_order(TWO_TERM, m_max=-3),
    lambda: vanishing_order(uhrig_sum(4), m_max=-3),
], ids=["derivative-0.5", "magnitudes-2.0", "m_max-7.0", "m_max--3", "uhrig-m_max--3"])
def test_orders_must_be_nonnegative_integers(call):
    with pytest.raises(InvalidInputError):
        call()


# ---------------------------------------------------------------------------
# vanishing order

def test_vanishing_order_two_term():
    assert vanishing_order(TWO_TERM, 0.0) == 1


def test_vanishing_order_squared_two_term():
    g = ExpSum(coefficients=(1.0, -2.0, 1.0), exponents=(0.0, 1.0, 2.0))
    assert vanishing_order(g, 0.0) == 2


def test_vanishing_order_uhrig_family():
    for n in [2, 4, 6]:
        assert vanishing_order(uhrig_sum(n), 0.0, rel_tol=1e-12) == n + 1


@pytest.mark.parametrize("n", [22, 24, 30, 40])
def test_vanishing_order_large_n_is_right_or_raises(n):
    try:
        order = vanishing_order(uhrig_sum(n))
    except PrecisionError:
        return
    assert order == n + 1


def test_vanishing_order_constant():
    assert vanishing_order(ONE, 0.0) == 0


def test_vanishing_order_scale_invariance():
    # exponent scaling must not change the order at t = 0
    for n in [2, 4]:
        orders = {
            vanishing_order(uhrig_sum(n)),
            vanishing_order(unit_gap_sum(n)),
            vanishing_order(scaled_sum(3.0 / (n + 1))),
        }
        assert orders == {n + 1}


def test_vanishing_order_away_from_zero():
    # 1 - e^{it} has no zero at t = 1
    assert vanishing_order(TWO_TERM, 1.0) == 0


def test_vanishing_order_cap_sentinel():
    zero = ExpSum(coefficients=(0.0,), exponents=(0.0,))
    assert vanishing_order(zero, 0.0) is None


def test_vanishing_order_rel_tol_domain():
    for bad in [0.0, -1e-5, 1e-2, 1.0]:
        with pytest.raises(InvalidInputError):
            vanishing_order(TWO_TERM, 0.0, rel_tol=bad)


def test_derivative_magnitudes_report():
    pairs = derivative_magnitudes(uhrig_sum(2), 0.0, 4)
    assert len(pairs) == 5
    for m in range(3):
        value, bound = pairs[m]
        assert value <= 1e-12 * bound
    value, bound = pairs[3]
    assert value > 1e-6 * bound


# ---------------------------------------------------------------------------
# the derivative ladder

COMPLEX_SUM = ExpSum(coefficients=(0.3 - 0.7j, -1.1 + 0.2j, 0.55 + 0.45j, 0.2j),
                     exponents=(-1.25, 0.1, 0.7, 2.0))
LADDER_SUMS = [
    *(pytest.param(uhrig_sum(n), id=f"uhrig{n}") for n in range(2, 41, 2)),
    *(pytest.param(unit_gap_sum(n), id=f"unit_gap{n}") for n in (4, 10, 20)),
    *(pytest.param(scaled_sum(b), id=f"scaled{b}") for b in (1.0, 0.3, 0.1)),
    pytest.param(COMPLEX_SUM, id="complex"),
]


def mp_ladder(g, t0, max_order, dps):
    """(|g^(m)(t0)|, sup bound) for m = 0..max_order from mpmath products
    rounded at ``dps`` digits per step: the reference for the integer ladder."""
    with mpmath.mp.workdps(dps):
        t = mpmath.mpf(t0)
        factors = [mpmath.mpc(a) * mpmath.exp(1j * mpmath.mpf(lam.real) * t)
                   for a, lam in zip(g.coefficients, g.exponents)]
        bounds = [mpmath.mpf(abs(a)) for a in g.coefficients]
        pairs = []
        for m in range(max_order + 1):
            if m > 0:
                factors = [f * 1j * mpmath.mpf(lam.real) for f, lam in zip(factors, g.exponents)]
                bounds = [b * abs(lam.real) for b, lam in zip(bounds, g.exponents)]
            pairs.append((float(abs(mpmath.fsum(factors))), float(mpmath.fsum(bounds))))
    return pairs


def exact_at_zero(g, max_order):
    """(Re, Im) of sum_j a_j*lambda_j^m and sum_j |a_j|*|lambda_j|^m, as
    fractions, for m = 0..max_order; |a_j| is the double abs(a_j)."""
    lams = [Fraction(lam.real) for lam in g.exponents]
    xs = [Fraction(a.real) for a in g.coefficients]
    ys = [Fraction(a.imag) for a in g.coefficients]
    bounds = [Fraction(abs(a)) for a in g.coefficients]
    for m in range(max_order + 1):
        if m > 0:
            xs = [x * lam for x, lam in zip(xs, lams)]
            ys = [y * lam for y, lam in zip(ys, lams)]
            bounds = [b * abs(lam) for b, lam in zip(bounds, lams)]
        yield sum(xs), sum(ys), sum(bounds)


@pytest.mark.parametrize("g", LADDER_SUMS)
def test_ladder_at_zero_is_exact(g):
    cap = 2 * len(g) + 8
    pairs = derivative_magnitudes(g, 0.0, cap)
    assert len(pairs) == cap + 1
    for (value, bound), (x, y, exact_bound) in zip(pairs, exact_at_zero(g, cap)):
        assert bound == float(exact_bound)  # Fraction -> float rounds correctly
        if not y:
            assert value == float(abs(x))
            continue
        with mpmath.mp.workprec(400):
            modulus = float(mpmath.hypot(mpmath.mpf(x.numerator) / x.denominator,
                                         mpmath.mpf(y.numerator) / y.denominator))
        assert abs(value - modulus) <= math.ulp(modulus)


@pytest.mark.parametrize("g", [uhrig_sum(10), unit_gap_sum(20), COMPLEX_SUM])
def test_ladder_at_zero_ignores_dps(g):
    pairs = derivative_magnitudes(g, 0.0, 30)
    assert derivative_magnitudes(g, 0.0, 30, dps=20) == pairs
    assert derivative_magnitudes(g, 0.0, 30, dps=200) == pairs


def test_ladder_at_zero_needs_no_mpmath(monkeypatch):
    class Forbidden:
        def __getattr__(self, name):
            raise AssertionError(f"mpmath.{name} used at t0 = 0")

    monkeypatch.setattr(expsum, "mpmath", Forbidden())
    monkeypatch.setattr(expsum, "mp", Forbidden())
    assert vanishing_order(uhrig_sum(20)) == 21


# 2^-60 * e^(it) * (1 - e^(iht))^4 for h = 2^-30: at any t its derivatives
# cancel to about h^4 = 1e-36 of their bounds, so there the stated bound, not
# the ulp, decides the comparison below; the tiny coefficients test the scale
FOURTH_DIFFERENCE = ExpSum(coefficients=tuple(c * 2.0**-60 for c in (1, -4, 6, -4, 1)),
                           exponents=tuple(1 + j * 2.0**-30 for j in range(5)))


@pytest.mark.parametrize("t0", [1.0, 0.37, -2.5, 40.0])
@pytest.mark.parametrize("g, dps", [(uhrig_sum(10), None), (unit_gap_sum(10), 60),
                                    (COMPLEX_SUM, None), (FOURTH_DIFFERENCE, None)],
                         ids=["uhrig10", "unit_gap10", "complex", "fourth_difference"])
def test_ladder_away_from_zero_meets_its_bound(g, dps, t0):
    # the stated bound for the effective precision, against a ladder at twice it
    dps_eff = max(dps or 0, expsum._default_dps(g))
    cap = 2 * len(g) + 8
    pairs = derivative_magnitudes(g, t0, cap, dps=dps)
    reference = mp_ladder(g, t0, cap, 2 * dps_eff)
    for m, ((value, bound), (want, want_bound)) in enumerate(zip(pairs, reference)):
        assert bound == want_bound
        assert abs(value - want) <= (m + len(g)) * 10.0 ** -dps_eff * bound + math.ulp(want)


def test_magnitude_rounds_correctly():
    assert expsum._magnitude(3, 4, 1) == 2.5
    # sqrt(R^2 + 1) lies just above the midpoint R between the doubles
    # 2^55 + 8*M and 2^55 + 8*(M + 1): only a sticky bit rounds it up
    M = 2**52
    R = (2 * M + 1) * 4
    assert expsum._magnitude(R, 1, 0) == float((M + 1) * 8)


@pytest.mark.parametrize("t0", [math.nan, math.inf])
def test_ladder_rejects_nonfinite_t0(t0):
    with pytest.raises(InvalidInputError):
        vanishing_order(TWO_TERM, t0)


@pytest.mark.parametrize("t0", [0.0, 1.0])
def test_ladder_overflows_to_inf(t0):
    g = ExpSum(coefficients=(1, -1), exponents=(0, 1e4))
    assert derivative_magnitudes(g, t0, 90)[90] == (math.inf, math.inf)


# ---------------------------------------------------------------------------
# sup norm

def test_sup_norm_constant():
    r = sup_norm(ONE, Interval(y=-2.0, a=4.0))
    assert r.value == pytest.approx(1.0, abs=1e-15)


def test_sup_norm_two_term_closed_form():
    # |1 - e^{i*lam*t}| = 2*|sin(lam*t/2)| peaks at the endpoints when lam*a <= pi
    for lam, a in [(1.0, 1.0), (0.5, 2.0), (2.0, 1.5)]:
        g = ExpSum(coefficients=(1.0, -1.0), exponents=(0.0, lam))
        r = sup_norm(g, Interval(y=-a, a=2 * a))
        assert r.value == pytest.approx(2 * math.sin(lam * a / 2), rel=1e-10)
        assert abs(abs(r.argmax) - a) <= 1e-8


def test_sup_norm_vanishes_with_exponent():
    # with the growth condition dropped the maximum can be made arbitrarily small
    a = 1.0
    values = []
    for lam in [1.0, 0.1, 0.01, 0.001]:
        g = ExpSum(coefficients=(1.0, -1.0), exponents=(0.0, lam))
        values.append(sup_norm(g, Interval(y=-a, a=2 * a)).value)
    assert all(x > y for x, y in zip(values, values[1:]))
    assert values[-1] < 1e-2


def test_sup_norm_scaling_covariance():
    for b in [1.0, 0.6]:
        scale = 9.0 / b**2
        inner = sup_norm(uhrig_sum(round(3 / b) - 1), Interval(y=-1 / b, a=2 / b))
        outer = sup_norm(scaled_sum(b), Interval(y=-b / 9, a=2 * b / 9))
        tol = inner.slack + outer.slack + 1e-12
        assert abs(inner.value - outer.value) <= tol
        assert abs(abs(inner.argmax) / scale - abs(outer.argmax)) <= 1e-6


def test_sup_norm_certificate_contains_truth():
    g = ExpSum(coefficients=(1.0, -1.0), exponents=(0.0, 1.0))
    r = sup_norm(g, Interval(y=-1.0, a=2.0), grid_points=64)
    truth = 2 * math.sin(0.5)
    assert r.value <= truth + 1e-12 <= r.value + r.slack + 1e-12


def test_sup_norm_grid_floor():
    with pytest.raises(InvalidInputError):
        sup_norm(ONE, Interval(y=0.0, a=1.0), grid_points=8)


def test_sup_norm_rejects_non_integer_grid_points():
    for points in (16.5, 32.0, "64"):
        with pytest.raises(InvalidInputError):
            sup_norm(ONE, Interval(y=0.0, a=1.0), grid_points=points)
    assert sup_norm(ONE, Interval(y=0.0, a=1.0), grid_points=np.int64(32)).value == 1.0


@pytest.mark.parametrize("g, points", [(ExpSum((1e308, -1e308), (0.0, 3.0)), None),
                                       (ExpSum((1e200, -1e200), (0.0, 1e60)), 64)])
def test_sup_norm_raises_before_the_scan_past_the_double_range(g, points):
    # sum |a_j| and then sum |a_j|*lambda_j^2 overflow; the suite turns the
    # scan's overflow warnings into errors, so none may be reached
    with pytest.raises(PrecisionError, match="overflow"):
        sup_norm(g, Interval(y=0.0, a=1.0), grid_points=points)


def test_sup_norm_rejects_interval_with_overflowing_right_end():
    # l1_norm: test_l1_rejects_nan_tolerance_and_overflowing_interval
    with pytest.raises(InvalidInputError):
        sup_norm(uhrig_sum(4), Interval(y=1e308, a=1e308))
    assert Interval(y=1e308, a=1e307).right == 1.1e308


# ---------------------------------------------------------------------------
# sup-norm refinement against the golden-section search it replaced

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, lo, hi, tol):
    """The golden-section search on |g| that sup_norm used before Newton."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    t = 0.5 * (a + b)
    return f(t), t


def golden_sup_norm(g, interval):
    """sup_norm as it was with golden-section refinement: (value, argmax)."""
    grid_points = default_grid_points(g, interval)
    ts = np.linspace(interval.left, interval.right, grid_points)
    vals = np.abs(_values_on_grid(g, ts))
    interior = (vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])
    candidates = [i + 1 for i in np.flatnonzero(interior)] + [0, grid_points - 1]
    candidates.sort(key=lambda i: vals[i], reverse=True)
    h = (interval.right - interval.left) / (grid_points - 1)
    tol = max(h * 1e-10, abs(interval.right) * 1e-15, 1e-300)
    best_value, best_arg = float(vals.max()), float(ts[int(np.argmax(vals))])
    for i in candidates[:3]:
        lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, grid_points - 1)]
        value, arg = golden_max(lambda t: abs(evaluate(g, t)), float(lo), float(hi), tol)
        if value > best_value:
            best_value, best_arg = value, arg
    return best_value, best_arg


def termwise(g):
    """(g, g', g'') at t, each exactly rounded: an objective for _golden_max."""
    sums = [derivative(g, m) for m in range(3)]
    return lambda t: tuple(evaluate(s, t) for s in sums)


def stored(g):
    """The stored numbers of g without its record of the construction: a sum
    that sup_norm scans wherever it is."""
    return ExpSum(g.coefficients, g.exponents)


def refinement_cases():
    for n in range(2, 42, 2):
        for y in (-60.0, -37.0, -14.0, 9.0, 32.0, 55.0):
            yield f"uhrig({n}) on [{y}, {y + 5}]", stored(uhrig_sum(n)), Interval(y=y, a=5.0)
    for n in range(2, 18, 2):
        b = 3.0 / (n + 1) * (1.0 - 0.01 * n)
        yield f"Taylor n={n}", stored(scaled_sum(b)), Interval(y=-b / 9, a=2 * b / 9)
    # n <= 8 resolves the sup; n = 10..16 sits in the double-precision noise
    for n in range(4, 18, 2):
        a = math.exp(-2.0) / n * (1.0 + 0.01 * n)
        yield f"Stirling n={n}", stored(unit_gap_sum(n)), Interval(y=-a, a=2 * a)


@pytest.mark.parametrize("name, g, interval", list(refinement_cases()))
def test_sup_norm_matches_golden_section(name, g, interval):
    r = sup_norm(g, interval)
    oracle, _ = golden_sup_norm(g, interval)
    # Both values are exactly rounded sums of rounded terms; each term's phase
    # lambda_j*t is rounded too, which costs eps*|a_j|*|lambda_j*t| far from 0.
    reach = max(abs(interval.left), abs(interval.right))
    floor = math.fsum(abs(a) * max(1.0, abs(lam) * reach)
                      for a, lam in zip(g.coefficients, g.exponents))
    assert abs(r.value - oracle) <= 4 * sys.float_info.epsilon * floor, name
    assert interval.left <= r.argmax <= interval.right
    ts = np.linspace(interval.left, interval.right, default_grid_points(g, interval))
    assert r.value >= np.abs(_values_on_grid(g, ts)).max()


def counted_searches(monkeypatch):
    """Route sup_norm's searches through a wrapper; returns the list that
    collects (calls, lo, hi, tol, result) for each search."""
    searched = []

    def counting_search(f, lo, hi, tol):
        calls = []
        arg = _golden_max(lambda t: calls.append(t) or f(t), lo, hi, tol)
        searched.append((len(calls), lo, hi, tol, arg))
        return arg

    monkeypatch.setattr(expsum, "_golden_max", counting_search)
    return searched


def call_cap(h, tol):
    # two end checks, then at most bisection's count plus two Newton steps
    return 2 + math.ceil(math.log2(2 * h / tol)) + 2


@pytest.mark.parametrize("g, interval", [
    (uhrig_sum(10), Interval(y=30.0, a=8.0)),
    (uhrig_sum(40), Interval(y=-60.0, a=10.0)),
    (scaled_sum(0.3), Interval(y=-0.3 / 9, a=0.6 / 9)),
    # pure noise: the true sup is 9.9e-24, the computed values are roundoff
    (unit_gap_sum(16), Interval(y=-math.exp(-2.0) / 16, a=2 * math.exp(-2.0) / 16)),
])
def test_refinement_calls_per_bracket(monkeypatch, g, interval):
    searched = counted_searches(monkeypatch)
    sup_norm(stored(g), interval)
    h = interval.length / (default_grid_points(g, interval) - 1)
    assert searched
    for calls, lo, hi, tol, arg in searched:
        assert calls <= call_cap(h, tol)
        assert arg is None or lo <= arg <= hi


def test_refinement_calls_in_the_noise():
    # every bracket of the pure-noise scan, searched on its own: the signs of
    # the slope are roundoff, so many brackets pass the end check by chance
    g = unit_gap_sum(16)
    a = math.exp(-2.0) / 16
    ts = np.linspace(-a, a, 1024)
    h = ts[1] - ts[0]
    tol = h * 1e-10
    f = termwise(g)
    found = 0
    for lo, hi in zip(ts[:-2:4], ts[2::4]):
        calls = []
        arg = _golden_max(lambda t: calls.append(t) or f(t), float(lo), float(hi), tol)
        assert len(calls) <= call_cap(h, tol)
        if arg is not None:
            found += 1
            assert lo <= arg <= hi
    assert found > 0


def test_refinement_converges_in_a_few_newton_steps(monkeypatch):
    # far from the zero at t = 0 every interior maximum is resolved
    searched = counted_searches(monkeypatch)
    for n in (2, 10, 24, 40):
        for y in (-60.0, -33.0, 31.0, 47.0):
            sup_norm(uhrig_sum(n), Interval(y=y, a=8.0))
    interior = [calls for calls, *_, arg in searched if arg is not None]
    assert interior and max(interior) <= 6


# ---------------------------------------------------------------------------
# the sup of a marked sum near its zero, in one certified evaluation

def construction_at(g, t, dps=100):
    """|g(t)| for the exact construction that g records: its coefficients on
    the sin^2 exponents times the recorded scale, summed in mpmath at ``dps``
    digits."""
    n, scale = g._uhrig
    with mpmath.workdps(dps):
        d = [mpmath.sin(k * mpmath.pi / (2 * n + 2)) ** 2 for k in range(1, n + 1)]
        st = mpmath.mpf(scale) * mpmath.mpf(t)
        return abs(mpmath.fsum(int(c.real) * mpmath.expj(st * x)
                               for c, x in zip(g.coefficients, [0, *d, 1])))


def envelope_sums():
    """The Taylor and Stirling families at the radius of each order."""
    for n in range(0, 42, 2):
        b = 3.0 / (n + 1)
        yield "Taylor", n, scaled_sum(b), b / 9
    for n in range(4, 42, 2):
        yield "Stirling", n, unit_gap_sum(n), math.exp(-2.0) / n


@pytest.mark.parametrize("family, n, g, a", list(envelope_sums()))
def test_envelope_sup_is_the_construction_at_the_far_end(family, n, g, a):
    assert g._uhrig[0] == n
    r = sup_norm(g, Interval(y=-a, a=2 * a))
    assert r.argmax == a
    assert abs(r.value - construction_at(g, a)) <= math.ulp(r.value)


@pytest.mark.parametrize("g, lo, hi", [
    (scaled_sum(3.0), -1 / 3, 1 / 3),               # order 0: |g| = 2|sin(t/2)|
    (scaled_sum(3.0 / 7), -3.0 / 63, 3.0 / 63),     # Taylor n = 6
    (unit_gap_sum(10), -math.exp(-2.0) / 10, math.exp(-2.0) / 10),
    (uhrig_sum(2), -6.0, 1.0),                      # the far end is the left one
    (uhrig_sum(10), 0.0, 22.0),                     # z* = N exactly
    (uhrig_sum(24), 30.0, 40.0),                    # away from 0
    (uhrig_sum(40), -35.0, 12.0),
])
def test_marked_sup_brackets_a_fine_scan_of_the_construction(g, lo, hi):
    # value is |g(t*)| within one ulp, and the sup of the construction lies
    # between |g(t*)| and |g(t*)| + slack
    r = sup_norm(g, Interval.from_endpoints(lo, hi))
    assert r.argmax == (lo if abs(lo) > abs(hi) else hi)
    scan = max(construction_at(g, lo + (hi - lo) * k / 200) for k in range(201))
    assert r.value - math.ulp(r.value) <= scan <= r.value + r.slack + math.ulp(r.value)


@pytest.mark.parametrize("g, a", [(scaled_sum(3.0), 1 / 3), (uhrig_sum(10), 22.0),
                                  (unit_gap_sum(16), math.exp(-2.0) / 16),
                                  (unit_gap_sum(160), math.exp(-2.0) / 160)])
def test_marked_sup_slack_is_the_tail_bound_rounded_up(g, a):
    # 8N*R(z*), R(z) = sum_{l >= 1} (z/2)^((2l+1)N)/((2l+1)N)!, lies below
    # the slack, which is at most 36/35 of it and never 0
    n, scale = g._uhrig
    N = n + 1
    with mpmath.workdps(60):
        z = mpmath.mpf(scale) * mpmath.mpf(a) / 2
        tail = 8 * N * mpmath.nsum(lambda l: (z / 2) ** ((2 * l + 1) * N)
                                   / mpmath.factorial((2 * l + 1) * N), [1, mpmath.inf])
    slack = sup_norm(g, Interval(y=-a, a=2 * a)).slack
    assert 0 < slack and tail <= slack
    assert slack <= tail * 36 / 35 * (1 + 2**-50) or slack == 5e-324


@pytest.mark.parametrize("g, interval", [(uhrig_sum(10), Interval(y=0.0, a=22.5)),
                                         (uhrig_sum(4), Interval(y=-20.0, a=3.0)),
                                         (ExpSum((1.0, -1.0), (0.0, 1.0)), Interval(y=-1.0, a=2.0))])
def test_sup_norm_scans_where_the_construction_is_past_its_bracket(g, interval):
    # z* > N, or no record: the stored numbers are scanned as before
    assert sup_norm(g, interval) == sup_norm(stored(g), interval)


def test_marked_sup_validates_grid_points_and_ignores_them():
    g, interval = unit_gap_sum(16), Interval(y=-0.01, a=0.02)
    with pytest.raises(InvalidInputError):
        sup_norm(g, interval, grid_points=8)
    assert sup_norm(g, interval, grid_points=64) == sup_norm(g, interval)


def test_golden_max_finds_interior_maximum():
    # |1 - e^{it}| = 2|sin(t/2)| peaks at pi
    arg = _golden_max(termwise(TWO_TERM), 3.0, 3.3, 1e-12)
    assert arg == pytest.approx(math.pi, abs=1e-12)


def test_golden_max_bisects_when_newton_is_slow():
    # phi = -(t - r)^3 as the slope: Newton gains only a factor 2/3 a step,
    # from one side, so the step budget must hand over to bisection in time
    r, tol = 0.3, 1e-12

    def f(t):
        phi, dphi = -(t - r) ** 3, -3 * (t - r) ** 2
        return 1.0 + 0j, complex(phi), complex(dphi - phi * phi)

    calls = []
    arg = _golden_max(lambda t: calls.append(t) or f(t), 0.0, 1.0, tol)
    assert abs(arg - r) <= tol
    assert len(calls) <= 4 + math.ceil(math.log2(1.0 / tol))


def test_golden_max_none_on_monotone_bracket():
    calls = []
    f = termwise(TWO_TERM)
    counted = lambda t: calls.append(t) or f(t)
    assert _golden_max(counted, 0.5, 2.0, 1e-12) is None  # increasing
    assert _golden_max(counted, 3.5, 5.0, 1e-12) is None  # decreasing
    assert len(calls) <= 4


def test_abs_symmetry_for_real_data():
    # real coefficients and exponents give |g(-t)| = |g(t)|
    g = uhrig_sum(4)
    for t in np.linspace(0.0, 3.0, 50):
        assert abs(evaluate(g, -t)) == pytest.approx(abs(evaluate(g, t)), abs=1e-13)


# ---------------------------------------------------------------------------
# L1 norm

def test_l1_constant():
    assert l1_norm(ONE, Interval(y=2.0, a=0.7)) == pytest.approx(0.7, rel=1e-12)


def test_l1_unimodular_term():
    g = ExpSum(coefficients=(1.0,), exponents=(3.0,))
    assert l1_norm(g, Interval(y=-1.0, a=2.0)) == pytest.approx(2.0, rel=1e-12)


def test_l1_matches_trapezoid_oracle():
    g = uhrig_sum(2)
    interval = Interval(y=-0.5, a=1.0)
    ts = np.linspace(interval.left, interval.right, 1_000_001)
    oracle = np.trapezoid(np.abs(grid_eval(g, ts)), ts)
    assert l1_norm(g, interval, abs_tol=1e-10) == pytest.approx(oracle, abs=1e-8)


def test_l1_below_length_times_sup():
    for g in [uhrig_sum(2), scaled_sum(1.0), TWO_TERM]:
        interval = Interval(y=-0.4, a=0.8)
        s = sup_norm(g, interval)
        assert l1_norm(g, interval) <= interval.length * (s.value + s.slack) + 1e-12


def test_l1_validation():
    with pytest.raises(InvalidInputError):
        l1_norm(ONE, Interval(y=0.0, a=1.0), abs_tol=0.0)
    with pytest.raises(UnsupportedInputError):
        l1_norm(ExpSum(coefficients=(1.0,), exponents=(1j,)), Interval(y=0.0, a=1.0))


def test_l1_rejects_nan_tolerance_and_overflowing_interval():
    with pytest.raises(InvalidInputError):
        l1_norm(uhrig_sum(4), Interval(y=0.0, a=1.0), abs_tol=float("nan"))
    # finite y and a whose right end overflows to inf
    with pytest.raises(InvalidInputError):
        l1_norm(ONE, Interval(y=1e308, a=1e308))


# ---------------------------------------------------------------------------
# factored panel evaluation behind l1_norm

def test_values_on_panels_within_stated_bound():
    # one call with several half-widths, as a level of a non-dyadic interval
    rng = np.random.default_rng(7)
    eps = np.finfo(float).eps
    x = quadrature._rules()[0]
    halfwidth = np.array([0.5, 2.0**-7, 1 / 3, 0.5, 1 / 3, 0.01])
    for size in (1, 13, 29, 41):
        lam = np.sort(rng.uniform(-100.0, 100.0, size))
        a = rng.normal(size=size) + 1j * rng.normal(size=size)
        mid = rng.uniform(-100.0, 100.0, len(halfwidth))
        got = _values_on_panels(1j * lam, a[:, None], mid, halfwidth, x)
        g = ExpSum(coefficients=tuple(a), exponents=tuple(lam))
        for i, (m, w) in enumerate(zip(mid, halfwidth)):
            # c = 4 where random sums reach about 0.35
            bound = 4 * eps * np.sum(np.abs(a) * (1 + np.abs(lam) * (abs(m) + w)))
            for k in range(0, len(x), 5):
                t = m + w * x[k]
                assert abs(got[i, k] - complex(evaluate(g, t, dps=60))) <= bound


def grid_bounds(g, ts):
    """4*eps*sum_j |a_j|*(1 + |lambda_j|*(|start| + 64*h)) at each grid point,
    ``start`` being the first point of its 64-point block."""
    a, lam = np.abs(g.coefficients), np.abs(np.array(g.exponents).real)
    h = (ts[-1] - ts[0]) / (len(ts) - 1)
    starts = np.abs(ts[::64]).repeat(64)[:len(ts)]
    return 4 * np.finfo(float).eps * (1 + np.multiply.outer(starts + 64 * h, lam)) @ a


@pytest.mark.parametrize("size", [1, 13, 41])
def test_values_on_grid_within_stated_bound(size):
    rng = np.random.default_rng(size)
    lam = np.sort(rng.uniform(-100.0, 100.0, size))
    a = rng.normal(size=size) + 1j * rng.normal(size=size)
    g = ExpSum(coefficients=tuple(a), exponents=tuple(lam))
    # partial and exact final blocks, on intervals far from 0
    for n in (16, 63, 64, 65, 1000, 3873):
        lo = rng.choice([-1.0, 1.0]) * rng.uniform(20.0, 90.0)
        ts = np.linspace(lo, lo + rng.uniform(0.5, 10.0), n)
        got = _values_on_grid(g, ts)
        assert got.shape == (n,)
        bound = grid_bounds(g, ts)
        for k in range(0, n, 5):
            assert abs(got[k] - complex(evaluate(g, ts[k], dps=60))) <= bound[k], (n, k)
    interval, buf = Interval.from_endpoints(ts[0], ts[-1]), io.StringIO()
    write_scan_csv(g, interval, n, buf)
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in buf.getvalue().splitlines()[1:]])
    ts = np.linspace(interval.left, interval.right, n)
    assert np.array_equal(rows[:, 0], ts)
    bound = grid_bounds(g, ts)
    for k in range(0, n, 5):
        want = complex(evaluate(g, rows[k, 0], dps=60))
        assert abs(complex(rows[k, 1], rows[k, 2]) - want) <= bound[k], k


def test_sup_norm_scans_in_64_point_blocks(monkeypatch):
    calls = []
    values_on_panels = expsum._values_on_panels

    def spy(ilam, coefficients, mid, halfwidth, nodes):
        calls.append((len(mid), len(nodes)))
        return values_on_panels(ilam, coefficients, mid, halfwidth, nodes)

    monkeypatch.setattr(expsum, "_values_on_panels", spy)
    sup_norm(stored(uhrig_sum(20)), Interval(y=3.0, a=5.0), grid_points=1024)
    assert calls == [(16, 64)]


def antisymmetric_l1(g, lo, hi):
    """Integral of |g| over [lo, hi] for exponents symmetric about their
    midpoint c and antisymmetric coefficients, as in every uhrig, unit_gap
    and scaled sum: there g(t) = 2i*e^{ict}*s(t) with s(t) = sum_j a_j
    sin((lambda_j - c)t) over the first half, so |g| = 2|s|, integrated in
    closed form between the sign changes of s."""
    a = np.array(g.coefficients).real
    lam = np.array(g.exponents).real
    half = len(g) // 2
    assert len(g) == 2 * half and np.array_equal(a[:half], -a[::-1][:half])
    np.testing.assert_allclose(lam[:half] + lam[::-1][:half], lam[0] + lam[-1], rtol=1e-14)
    mu, a = lam[:half] - 0.5 * (lam[0] + lam[-1]), 2.0 * a[:half]
    s = lambda t: np.sin(np.multiply.outer(t, mu)) @ a
    antiderivative = lambda t: -(np.cos(np.multiply.outer(t, mu)) / mu) @ a
    ts = np.linspace(lo, hi, int(64 * (1 + np.abs(mu).max() * (hi - lo))) + 1)
    v = s(ts)
    i = np.flatnonzero(np.signbit(v[:-1]) != np.signbit(v[1:]))
    left, right = ts[i], ts[i + 1]
    for _ in range(60):
        mid = 0.5 * (left + right)
        same = np.signbit(s(mid)) == np.signbit(s(left))
        left, right = np.where(same, mid, left), np.where(same, right, mid)
    breaks = np.concatenate([[lo], 0.5 * (left + right), [hi]])
    return float(np.sum(np.abs(np.diff(antiderivative(breaks)))))


@pytest.mark.parametrize("g, lo, hi", [
    (unit_gap_sum(12), 1 / 3, 3.2333),
    (scaled_sum(0.6), -1 / 3, 2.9),
    (unit_gap_sum(8), -2.7, 1.9),
    (uhrig_sum(20), 0.7, 41.3),
    (uhrig_sum(20), 0.0, 80.0),
    (scaled_sum(0.6), -3.0, 3.0),
])
def test_l1_non_dyadic_interval_matches_oracle(monkeypatch, g, lo, hi):
    widths = []
    values_on_panels = expsum._values_on_panels

    def spy(ilam, coefficients, mid, halfwidth, nodes):
        widths.append(len(set(halfwidth.tolist())))
        return values_on_panels(ilam, coefficients, mid, halfwidth, nodes)

    monkeypatch.setattr(expsum, "_values_on_panels", spy)
    value = l1_norm(g, Interval.from_endpoints(lo, hi))
    assert value == pytest.approx(antisymmetric_l1(g, lo, hi), abs=1e-9)
    if lo == 1 / 3:
        assert max(widths) == 5  # levels with five distinct half-widths


@pytest.mark.xfail(strict=True, reason="a zero of g at t = +-1.116208 lies 2.7e-6 inside "
                   "the depth-10 panels ending at +-1.1162109375, beyond their last node, "
                   "so K31 and G15 agree on the smooth branch and miss the kink of |g|")
def test_l1_kink_beyond_the_last_node():
    # the oracle is antisymmetric_l1's closed form, which scipy's quad over
    # 20,000 pieces matches; l1_norm returns 15.046762928348627, off by 2.66e-9
    value = l1_norm(unit_gap_sum(12), Interval.from_endpoints(-1.5, 1.5))
    assert value == pytest.approx(15.04676293101318, abs=1e-10)


L1_CASES = [(uhrig_sum(20), Interval(y=0.0, a=80.0)),
            (unit_gap_sum(12), Interval.from_endpoints(1 / 3, 3.2333)),
            (scaled_sum(0.6), Interval.from_endpoints(-1 / 3, 2.9))]


@pytest.mark.parametrize("slice_panels", [1, 7])
def test_l1_slicing_moves_at_most_last_bits(monkeypatch, slice_panels):
    default = [l1_norm(g, interval) for g, interval in L1_CASES]
    monkeypatch.setattr(quadrature, "_SLICE_POINTS", len(quadrature._rules()[0]) * slice_panels)
    for (g, interval), value in zip(L1_CASES, default):
        assert abs(l1_norm(g, interval) - value) <= 1e-13


def test_l1_repeats_its_bits():
    first = [l1_norm(g, interval).hex() for g, interval in L1_CASES]
    assert [l1_norm(g, interval).hex() for g, interval in L1_CASES[::-1]] == first[::-1]


# ---------------------------------------------------------------------------
# class membership (checked where it is enforced: lower_bound_probe)

UNIT = Interval(y=0.0, a=1.0)


def test_membership_scaled_sum():
    result = lower_bound_probe(scaled_sum(1.0), UNIT, delta=1.0)
    assert result.l1 > 0.0


def test_membership_growth_violation():
    g = ExpSum(coefficients=(1.0, -1.0), exponents=(0.0, 0.5))
    with pytest.raises(InvalidInputError, match="lambda"):
        lower_bound_probe(g, UNIT, delta=1.0)


def test_membership_unit_leading_coefficient():
    g = ExpSum(coefficients=(2.0, 1.0), exponents=(0.0, 1.0))
    with pytest.raises(InvalidInputError, match="a_0"):
        lower_bound_probe(g, UNIT, delta=1.0)


# ---------------------------------------------------------------------------
# serialization

def test_json_schema_and_round_trip():
    g = ExpSum(coefficients=(1.0, -2.0 + 0.5j), exponents=(0.0, 1.25))
    doc = json.loads(to_json(g))
    assert doc["coefficients_im"] == [0.0, 0.5]
    assert from_json(to_json(g)) == g


def test_json_rejects_complex_exponents():
    g = ExpSum(coefficients=(1.0,), exponents=(1j,))
    with pytest.raises(UnsupportedInputError):
        to_json(g)


def test_from_json_malformed():
    with pytest.raises(InvalidInputError):
        from_json("{")
    with pytest.raises(InvalidInputError):
        from_json('{"exponents": [0]}')
    with pytest.raises(InvalidInputError):
        from_json('{"exponents": [0], "coefficients_re": [1, 2], "coefficients_im": [0]}')


def test_scan_csv():
    buf = io.StringIO()
    write_scan_csv(TWO_TERM, Interval(y=0.0, a=1.0), 5, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,re,im,abs"
    assert len(lines) == 6
    t, re, im, mag = map(float, lines[-1].split(","))
    assert t == 1.0
    value = evaluate(TWO_TERM, 1.0)
    assert re == pytest.approx(value.real, abs=1e-16)
    assert mag == pytest.approx(abs(value), abs=1e-16)
    for points in (2.5, 1):
        with pytest.raises(InvalidInputError):
            write_scan_csv(TWO_TERM, Interval(y=0.0, a=1.0), points, io.StringIO())


@pytest.mark.parametrize("n", [2, 10, 20])
def test_float_only_copy_takes_the_ladder(monkeypatch, n):
    # a JSON round trip drops the provenance of uhrig_sum; its stored
    # exponents still resolve the order up to n = 20, in integers alone
    copy = from_json(to_json(uhrig_sum(n)))
    assert copy._uhrig is None and copy == uhrig_sum(n)
    calls = []
    monkeypatch.setattr(expsum, "_uhrig_moments", lambda *a: calls.append(a))
    assert vanishing_order(copy) == n + 1 and not calls


def test_sup_norm_slack_is_the_derivative_bound_times_the_spacing():
    rng = np.random.default_rng(11)
    sums = [stored(uhrig_sum(8)), stored(unit_gap_sum(12)), stored(scaled_sum(0.3)), TWO_TERM]
    for _ in range(20):
        size = int(rng.integers(1, 9))
        sums.append(ExpSum(
            coefficients=tuple(complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-5, 5)
                               for _ in range(size)),
            exponents=tuple(np.sort(rng.uniform(-30, 30, size)))))
    for g in sums:
        interval = Interval(y=-0.3, a=0.7)
        points = default_grid_points(g, interval)
        h = (interval.right - interval.left) / (points - 1)
        assert sup_norm(g, interval).slack == h * derivative_sup_bound(g, 1)
