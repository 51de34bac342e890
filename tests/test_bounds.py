import math

import mpmath
import numpy as np
import pytest

from expsums import (
    ExpSum,
    Interval,
    InvalidInputError,
    check_stirling_envelope,
    check_taylor_envelope,
    lower_bound_probe,
    scaled_sum,
    scaling_fit,
    stirling_envelope,
    sup_norm,
    taylor_envelope_b,
    uhrig_sum,
    unit_gap_order_for_radius,
    unit_gap_sum,
)
from expsums import expsum
from expsums.bounds import STIRLING_DOMAIN_MAX
from expsums.errors import PrecisionError

E = math.e


def taylor_bound(n, t):
    """(2n+1)*(e|t|/(n+1))^(n+1), the Taylor bound for a sum vanishing to
    order n+1 with derivative bound 2n+1."""
    return (2 * n + 1) * (E * abs(t) / (n + 1)) ** (n + 1)


def test_taylor_envelope_b_boundary():
    assert taylor_envelope_b(3.0) == pytest.approx(2 * E / 3, rel=1e-14)


def test_taylor_envelope_b_consistency():
    # at b = 3/(n+1) the b-form dominates the t-form at radius 1/b
    for n in [2, 8]:
        b = 3.0 / (n + 1)
        assert taylor_bound(n, 1.0 / b) <= taylor_envelope_b(b) + 1e-12


def test_taylor_envelope_b_validation():
    for b in [0.0, -0.1, 3.5]:
        with pytest.raises(InvalidInputError):
            taylor_envelope_b(b)


def test_envelope_bounds_measured_sup():
    value = sup_norm(uhrig_sum(4), Interval(y=-0.1, a=0.2)).value
    assert value <= taylor_bound(4, 0.1)


def test_stirling_envelope_frozen_value():
    # direct evaluation at the top of the domain, frozen as a regression pin
    assert stirling_envelope(STIRLING_DOMAIN_MAX) == pytest.approx(
        0.23378774287647894, rel=1e-12
    )


def test_stirling_envelope_monotone():
    grid = np.linspace(STIRLING_DOMAIN_MAX / 101, STIRLING_DOMAIN_MAX, 100)
    vals = [stirling_envelope(a) for a in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_stirling_envelope_vanishes_at_zero():
    assert stirling_envelope(1e-4) < 1e-100


def test_stirling_envelope_domain():
    for a in [0.0, -1.0, STIRLING_DOMAIN_MAX * 1.0001]:
        with pytest.raises(InvalidInputError):
            stirling_envelope(a)


def test_unit_gap_order_selection():
    assert unit_gap_order_for_radius(math.exp(-2) / 10) == 10
    assert unit_gap_order_for_radius(math.exp(-2) / 2 * (1 - 1e-6)) == 4
    assert unit_gap_order_for_radius(math.exp(-2) / 3) == 4
    with pytest.raises(InvalidInputError):
        unit_gap_order_for_radius(STIRLING_DOMAIN_MAX)
    with pytest.raises(InvalidInputError):
        unit_gap_order_for_radius(0.0)


def test_check_taylor_envelope_passes():
    for a in [1.0 / 9.0, 1.0 / 3.0]:
        result = check_taylor_envelope(a)
        assert result.passes
        assert result.achieved_max < result.envelope


def test_check_taylor_envelope_monotone_family():
    values = [check_taylor_envelope(a).achieved_max for a in
              [1 / 9, 1 / 18, 1 / 36, 1 / 72]]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_check_taylor_envelope_domain():
    with pytest.raises(InvalidInputError):
        check_taylor_envelope(0.34)
    with pytest.raises(InvalidInputError):
        check_taylor_envelope(0.0)


def test_check_stirling_envelope_near_domain_top():
    result = check_stirling_envelope(math.exp(-2) / 2 * (1 - 1e-6))
    assert result.passes and result.order == 4


def test_check_stirling_envelope_conforming():
    result = check_stirling_envelope(math.exp(-2) / 10)
    assert result.passes and result.order == 10


def test_envelope_checks_are_one_evaluation_each(monkeypatch):
    # z* <= N across both domains, so no check scans a grid; orders up to
    # about 100, whose maxima are normal doubles
    def no_scan(*args):
        raise AssertionError("grid scan")

    monkeypatch.setattr(expsum, "_values_on_grid", no_scan)
    for a in np.geomspace(1.0 / 300.0, 1.0 / 3.0, 40):
        assert check_taylor_envelope(float(a)).passes
    for a in np.geomspace(math.exp(-2.0) / 100, STIRLING_DOMAIN_MAX * (1 - 1e-9), 40):
        assert check_stirling_envelope(float(a)).passes


# c(n) = -a*ln max|g| over [-a, a] for unit_gap_sum(n) at a = e^-2/n
DECAY_CONSTANTS = {8: 0.45505, 16: 0.44801, 40: 0.44499, 80: 0.44455, 160: 0.44459}


@pytest.mark.parametrize("n", sorted(DECAY_CONSTANTS))
def test_decay_constant_of_the_construction(n):
    a = math.exp(-2.0) / n
    c = -a * math.log(sup_norm(unit_gap_sum(n), Interval(y=-a, a=2 * a)).value)
    with mpmath.workdps(2 * n + 80):
        # the sin^2 sum at t = a, where |g| is largest on [-a, a]
        d = [mpmath.sin(k * mpmath.pi / (2 * n + 2)) ** 2 for k in range(1, n + 1)]
        coeffs = [1, *(2 * (-1) ** k for k in range(1, n + 1)), -1]
        t = mpmath.mpf(a) / d[0]
        value = abs(mpmath.fsum(c * mpmath.expj(t * x) for c, x in zip(coeffs, [0, *d, 1])))
        want = float(-a * mpmath.log(value))
    assert c == pytest.approx(want, rel=1e-8)
    assert round(c, 5) == DECAY_CONSTANTS[n]


def test_decay_constant_beyond_the_double_range_raises():
    a = math.exp(-2.0) / 320  # max|g| is about 1e-457
    with pytest.raises(PrecisionError, match="below the double range"):
        sup_norm(unit_gap_sum(320), Interval(y=-a, a=2 * a))


def limit_decay_constant(alpha):
    """C(alpha) = alpha*(beta - tanh(beta)) with sech(beta) = 2*alpha/pi^2,
    the large-n limit of c(n) at a = alpha/n (Debye, DLMF 10.19.6)."""
    beta = mpmath.asech(2 * alpha / mpmath.pi**2)
    return alpha * (beta - mpmath.tanh(beta))


def test_decay_constant_limits_stated_in_the_readme():
    assert float(limit_decay_constant(mpmath.exp(-2))) == pytest.approx(0.4452054, abs=5e-8)
    best = mpmath.findroot(lambda x: mpmath.diff(limit_decay_constant, x), 1.4)
    assert float(best) == pytest.approx(1.42330, abs=5e-6)
    assert float(limit_decay_constant(best)) == pytest.approx(1.36281, abs=5e-6)


def test_scaling_fit_exact_recovery():
    points = [(a, math.exp(-5.0 / a)) for a in (0.1, 0.05, 0.02)]
    fit = scaling_fit(points)
    assert fit.fit_slope == pytest.approx(5.0, abs=1e-9)
    assert fit.fit_intercept == pytest.approx(0.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_scaling_fit_with_prefactor():
    points = [(a, 3.0 * math.exp(-2.0 / a)) for a in (0.2, 0.11, 0.07, 0.05)]
    fit = scaling_fit(points)
    assert fit.fit_slope == pytest.approx(2.0, abs=1e-9)
    assert fit.fit_intercept == pytest.approx(-math.log(3.0), abs=1e-9)


def test_scaling_fit_validation():
    with pytest.raises(InvalidInputError):
        scaling_fit([(0.1, 1.0), (0.2, 1.0)])
    with pytest.raises(InvalidInputError):
        scaling_fit([(0.1, 1.0), (0.2, 0.0), (0.3, 1.0)])
    with pytest.raises(InvalidInputError):
        scaling_fit([(0.1, 1.0), (0.1, 2.0), (0.3, 1.0)])
    with pytest.raises(InvalidInputError):
        scaling_fit([(-0.1, 1.0), (0.2, 1.0), (0.3, 1.0)])


def test_scaling_fit_rejects_non_finite_points():
    good = [(0.1, 1e-3), (0.05, 1e-6)]
    for bad in [(0.2, math.nan), (0.2, math.inf), (math.nan, 0.5), (math.inf, 0.5)]:
        with pytest.raises(InvalidInputError):
            scaling_fit(good + [bad])


def test_lower_bound_probe_constant():
    g = ExpSum(coefficients=(1.0,), exponents=(0.0,))
    result = lower_bound_probe(g, Interval(y=0.0, a=1.0), delta=1.0)
    assert result.l1 == pytest.approx(1.0, rel=1e-12)
    assert result.implied_c == pytest.approx(0.0, abs=1e-10)


def test_lower_bound_probe_scaled_sum():
    result = lower_bound_probe(scaled_sum(1.0), Interval(y=-0.5, a=1.0), delta=1.0)
    assert result.l1 > 0.0
    assert math.isfinite(result.implied_c)


def test_lower_bound_probe_domain():
    g = ExpSum(coefficients=(1.0,), exponents=(0.0,))
    with pytest.raises(InvalidInputError):
        lower_bound_probe(g, Interval(y=0.0, a=4.0), delta=1.0)  # a*delta > pi
    with pytest.raises(InvalidInputError):
        lower_bound_probe(g, Interval(y=0.0, a=1.0), delta=-1.0)


def test_lower_bound_probe_class_violation():
    for g in [
        ExpSum(coefficients=(1.0, -1.0), exponents=(0.0, 0.5)),  # Re(lambda_1) < delta
        ExpSum(coefficients=(2.0, 1.0), exponents=(0.0, 1.0)),  # |a_0| != 1
        ExpSum(coefficients=(1.0, -1.0), exponents=(0.5, 2.0)),  # Re(lambda_0) != 0
    ]:
        with pytest.raises(InvalidInputError):
            lower_bound_probe(g, Interval(y=0.0, a=1.0), delta=1.0)
