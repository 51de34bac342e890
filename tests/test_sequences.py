import dataclasses
import json
import math

import mpmath
import pytest

from expsums import (
    ExpSum,
    InvalidInputError,
    cheb_nodes,
    cheb_u,
    alternating_power_sum,
    derivative,
    evaluate,
    filter_expsum,
    from_json,
    gap_check,
    rescaled_timings,
    scaled_sum,
    scaled_sum_order,
    to_json,
    uhrig_filter_magnitude,
    uhrig_pulse_times,
    uhrig_sum,
    unit_gap_sum,
    vanishing_order,
)
from expsums.expsum import _uhrig_moments


def fractions(n):
    """d_1..d_n: the interior exponents of the Uhrig sum."""
    return tuple(x.real for x in uhrig_sum(n).exponents[1:-1])


def test_fractions_n2():
    d = fractions(2)
    assert d == pytest.approx((0.25, 0.75), abs=1e-15)


def test_fractions_n4_formula():
    d = fractions(4)
    expected = tuple(math.sin(k * math.pi / 10) ** 2 for k in range(1, 5))
    assert d == pytest.approx(expected, abs=1e-16)


def test_fractions_increasing_in_unit_interval():
    for n in [2, 10, 40]:
        d = fractions(n)
        assert 0.0 < d[0] and d[-1] < 1.0
        assert all(b > a for a, b in zip(d, d[1:]))


def test_fractions_complementary_symmetry():
    # sin^2 is symmetric about pi/4: d_k + d_{n+1-k} = 1
    for n in [2, 6, 20]:
        d = fractions(n)
        for k in range(n):
            assert d[k] + d[n - 1 - k] == pytest.approx(1.0, abs=1e-14)


def test_fractions_match_node_complements():
    for n in [2, 8, 16]:
        d = fractions(n)
        alpha = cheb_nodes(n)[:n]
        for k in range(n):
            assert d[k] == pytest.approx(1.0 - alpha[k] ** 2, abs=1e-14)


def test_fractions_validation():
    for n in [0, -2, 3]:
        for build in (fractions, rescaled_timings, unit_gap_sum):
            with pytest.raises(InvalidInputError):
                build(n)


def test_alternating_power_sum_small_cases():
    assert alternating_power_sum(2, 1) == pytest.approx(0.5, abs=1e-15)
    assert alternating_power_sum(2, 0) == pytest.approx(0.0, abs=1e-15)


def test_alternating_power_sum_half_up_to_n():
    for n in [2, 8, 20]:
        for m in range(1, n + 1):
            residual = abs(alternating_power_sum(n, m) - mpmath.mpf(1) / 2)
            assert residual < 1e-30


def test_alternating_power_sum_rejects_nonpositive_digits():
    with pytest.raises(InvalidInputError):
        alternating_power_sum(4, 2, dps=0)


def test_alternating_power_sum_breaks_above_n():
    # the identity is exhausted at m = n
    assert abs(alternating_power_sum(2, 3) - mpmath.mpf(1) / 2) > 1e-3


def test_uhrig_sum_structure():
    g = uhrig_sum(2)
    assert g.coefficients == (1, -2, 2, -1)
    assert [x.real for x in g.exponents] == pytest.approx([0, 0.25, 0.75, 1], abs=1e-15)
    assert evaluate(g, 0.0) == 0


def test_uhrig_sum_coefficients_sum_to_zero():
    for n in [2, 6, 10]:
        assert sum(uhrig_sum(n).coefficients) == 0


def test_scaled_sum_b1():
    G = scaled_sum(1.0)
    assert [x.real for x in G.exponents] == pytest.approx(
        [0, 9 / 4, 27 / 4, 9], abs=1e-13
    )
    assert G.coefficients == (1, -2, 2, -1)
    assert G.exponents[1].real - G.exponents[0].real >= 1.0


def test_scaled_sum_order_selection():
    assert scaled_sum_order(1.0) == 2
    assert scaled_sum_order(3.0) == 0
    assert scaled_sum_order(0.6) == 4
    # non-conforming b: largest even n with b < 3/(n+1)
    assert scaled_sum_order(0.999) == 2
    assert scaled_sum_order(2.9) == 0
    assert scaled_sum_order(0.125) == 22


def test_scaled_sum_b3_is_two_terms():
    G = scaled_sum(3.0)
    assert G.coefficients == (1, -1)
    assert [x.real for x in G.exponents] == pytest.approx([0.0, 1.0], abs=1e-15)


def test_scaled_sum_domain():
    for b in [0.0, -1.0, 3.0001]:
        with pytest.raises(InvalidInputError):
            scaled_sum(b)


def test_scaled_gaps_at_least_one_on_grid():
    for i in range(1, 201):
        b = 3.0 * i / 200
        report = gap_check([x.real for x in scaled_sum(b).exponents], 1.0)
        assert report.satisfied, f"gap failure at b={b}"


def test_rescaled_timings_basics():
    lam = rescaled_timings(2)
    assert lam[0] == 1.0
    assert lam == pytest.approx((1.0, 3.0), abs=1e-14)


def test_rescaled_timings_gaps():
    for n in range(2, 42, 2):
        lam = rescaled_timings(n)
        assert lam[0] == 1.0
        assert all(b - a >= 1.0 - 1e-12 for a, b in zip(lam, lam[1:]))


def test_unit_gap_sum_structure():
    g = unit_gap_sum(2)
    assert g.coefficients == (1, -2, 2, -1)
    assert [x.real for x in g.exponents] == pytest.approx([0, 1, 3, 4], abs=1e-13)
    assert abs(evaluate(g, 0.0)) == 0.0


def test_unit_gap_last_step_is_one():
    # 1 - d_n equals d_1, so the top two exponents differ by exactly 1
    for n in range(2, 42, 2):
        g = unit_gap_sum(n)
        last = g.exponents[-1].real - g.exponents[-2].real
        assert last == pytest.approx(1.0, abs=1e-9)


def test_scaled_and_unit_gap_share_coefficients():
    for n, b in [(2, 1.0), (4, 0.6)]:
        assert scaled_sum(b).coefficients == unit_gap_sum(n).coefficients


def test_uhrig_pulse_times_basics():
    seq = uhrig_pulse_times(1, 1.0)
    assert seq.times == pytest.approx((0.0, 0.5, 1.0), abs=1e-15)
    seq = uhrig_pulse_times(2, 1.0)
    assert seq.times == pytest.approx((0.0, 0.25, 0.75, 1.0), abs=1e-15)


def test_uhrig_pulse_times_endpoint_exact():
    for n, T in [(3, 2.5), (7, 0.125), (40, 1e-3)]:
        seq = uhrig_pulse_times(n, T)
        assert seq.times[-1] == T
        assert seq.min_separation > 0


def test_one_construction_bitwise():
    # the sums, the pulse times, the rescaled timings and the nodes share one
    # sin^2 (cos) construction, equal bit for bit to the direct formulas
    for n in range(2, 401, 2):
        d = tuple(math.sin(k * math.pi / (2 * n + 2)) ** 2 for k in range(1, n + 1))
        g = uhrig_sum(n)
        seq = uhrig_pulse_times(n, 1.0)
        assert fractions(n) == seq.times[1:-1] == d
        assert filter_expsum(seq) == g
        rescaled = tuple(x / d[0] for x in d)
        assert rescaled_timings(n) == rescaled
        assert unit_gap_sum(n).exponents == (0.0, *rescaled, 1.0 / d[0])
        assert unit_gap_sum(n).coefficients == g.coefficients
        half = tuple(math.cos(k * math.pi / (2 * n + 2)) for k in range(1, n + 1))
        assert cheb_nodes(n) == half + (0.0,) + tuple(-a for a in reversed(half))


def test_uhrig_pulse_times_validation():
    with pytest.raises(InvalidInputError):
        uhrig_pulse_times(0, 1.0)
    with pytest.raises(InvalidInputError):
        uhrig_pulse_times(2, 0.0)
    with pytest.raises(InvalidInputError):
        uhrig_pulse_times(2, -1.0)


def test_gap_check_pass_and_fail():
    ok = gap_check([0.0, 9 / 4, 27 / 4, 9.0], 1.0)
    assert ok.satisfied and ok.min_gap == pytest.approx(9 / 4)
    assert ok.min_gap_index == 0
    bad = gap_check([0.0, 0.5, 1.0], 1.0)
    assert not bad.satisfied
    assert bad.min_gap == pytest.approx(0.5)


def test_gap_check_rescaled_families():
    for n in range(2, 42, 2):
        report = gap_check((0.0,) + rescaled_timings(n), 1.0)
        assert report.satisfied


def test_gap_check_growth_condition():
    # gaps fine but absolute growth broken by a negative start
    report = gap_check([-1.0, 0.5, 2.0], 1.0)
    assert not report.growth_ok and not report.satisfied


def test_gap_check_single_element():
    report = gap_check([0.0], 1.0)
    assert report.min_gap == math.inf and report.min_gap_index == -1
    assert report.satisfied


def test_gap_check_validation():
    with pytest.raises(InvalidInputError):
        gap_check([], 1.0)
    with pytest.raises(InvalidInputError):
        gap_check([0.0, 0.5, 0.4], 1.0)
    with pytest.raises(InvalidInputError):
        gap_check([0.0, 1.0], 0.0)


def test_json_round_trip():
    g = scaled_sum(1.0)
    text = to_json(g)
    doc = json.loads(text)
    assert set(doc) == {"exponents", "coefficients_re", "coefficients_im"}
    back = from_json(text)
    assert back.coefficients == g.coefficients
    assert back.exponents == g.exponents


def test_json_renders_17_significant_digits():
    g = uhrig_sum(2)
    doc = json.loads(to_json(g))
    # 0.25 has a short repr; d_1 rounds through 17 digits unchanged
    assert doc["exponents"][1] == fractions(2)[0]


@pytest.mark.parametrize(
    "function,args",
    [
        (uhrig_sum, (2.0,)),
        (rescaled_timings, (4.0,)),
        (unit_gap_sum, (2.0,)),
        (uhrig_pulse_times, (2.5, 1.0)),
        (uhrig_filter_magnitude, (2.5, 1.0, 1.0)),
        (cheb_nodes, (2.0,)),
        (cheb_u, (2.5, 0.3)),
        (alternating_power_sum, (4, 2.5)),
    ],
    ids=lambda value: getattr(value, "__name__", repr(value)),
)
def test_order_arguments_must_be_integers(function, args):
    # integral floats too: range() and the power sum need a true int
    with pytest.raises(InvalidInputError, match="must be an integer"):
        function(*args)


# ---------------------------------------------------------------------------
# exact moments of the sin^2 family, and the provenance that selects them

def exact_construction(n):
    """Coefficients and 120-digit exponents 0, sin^2(k*pi/(2n+2)), 1."""
    with mpmath.workdps(120):
        d = [mpmath.sin(k * mpmath.pi / (2 * n + 2)) ** 2 for k in range(1, n + 1)]
    return [1, *(2 * (-1) ** k for k in range(1, n + 1)), -((-1) ** n)], [0, *d, 1]


@pytest.mark.parametrize("n", range(25))
def test_uhrig_moments_match_mpmath(n):
    coefficients, exponents = exact_construction(n)
    with mpmath.workdps(120):
        for m in range(3 * n + 4):
            mu, s = _uhrig_moments(n, m)
            powers = [x ** m for x in exponents]
            want_mu = mpmath.fsum(c * p for c, p in zip(coefficients, powers))
            want_s = mpmath.fsum(abs(c) * p for c, p in zip(coefficients, powers))
            assert abs(mpmath.ldexp(mu, -2 * m) - want_mu) <= mpmath.mpf(10) ** -110 * want_s
            assert abs(mpmath.ldexp(s, -2 * m) - want_s) <= mpmath.mpf(10) ** -110 * want_s
            assert (mu != 0) == (m >= n + 1)


@pytest.mark.parametrize("b", [1.5, 2.0, 3.0])
def test_scaled_sum_of_order_zero(b):
    # b in (1, 3]: exponents (0, 9/b^2), the n = 0 case of the closed form
    g = scaled_sum(b)
    assert len(g) == 2 and g._uhrig == (0, 9.0 / (b * b))
    assert vanishing_order(g) == 1


def test_first_nonzero_moment():
    for n in range(0, 60):
        assert _uhrig_moments(n, n + 1)[0] == (-1) ** (n + 1) * 4 * (n + 1)


@pytest.mark.parametrize("n", [2, 4, 10])
def test_alternating_power_sum_is_exact(n):
    coefficients, exponents = exact_construction(n)
    for m in range(3 * n + 4):
        with mpmath.workdps(120):
            want = mpmath.fsum(c * x ** m for c, x in zip(coefficients[1:-1], exponents[1:-1])) / 2
        assert abs(alternating_power_sum(n, m, dps=110) - want) < mpmath.mpf(10) ** -105
    assert alternating_power_sum(n, 0) == 0


def test_alternating_power_sum_rounds_to_dps():
    # (mu_40 + 1)/2 for n = 4 has 62 significant bits; 5 digits keep 20
    exact = mpmath.mpf(_uhrig_moments(4, 40)[0] + 4**40)
    with mpmath.workdps(5):
        assert alternating_power_sum(4, 40, dps=5) == mpmath.ldexp(+exact, -81)
    assert alternating_power_sum(4, 40, dps=5) != alternating_power_sum(4, 40, dps=30)


def built_sums(n):
    return uhrig_sum(n), scaled_sum(3.0 / (n + 1)), unit_gap_sum(n)


@pytest.mark.parametrize("n", [*range(2, 41, 2), 400])
def test_vanishing_order_of_the_builders(n):
    for g in built_sums(n):
        assert g._uhrig[0] == n
        assert vanishing_order(g) == n + 1


def test_builders_record_their_scale():
    g, scaled, unit_gap = built_sums(4)
    assert g._uhrig == (4, 1.0)
    assert scaled._uhrig == (4, 9.0 / 0.6**2) and scaled.exponents[-1] == scaled._uhrig[1]
    assert unit_gap._uhrig == (4, unit_gap.exponents[-1].real)
    assert uhrig_pulse_times(3, 2)._uhrig == (3, 2.0)


def test_provenance_is_not_part_of_the_value():
    g = uhrig_sum(4)
    plain = ExpSum(coefficients=g.coefficients, exponents=g.exponents)
    assert plain._uhrig is None
    with pytest.raises(TypeError):
        ExpSum(coefficients=g.coefficients, exponents=g.exponents, _uhrig=(4, 1.0))
    assert g == plain and hash(g) == hash(plain) and repr(g) == repr(plain)
    assert "_uhrig" not in repr(uhrig_pulse_times(4, 1.0))
    assert from_json(to_json(g))._uhrig is None
    assert derivative(g, 1)._uhrig is None
    assert derivative(g, 0)._uhrig == g._uhrig  # the sum itself
    assert dataclasses.replace(g, coefficients=(1.0,) * len(g))._uhrig is None
    assert vanishing_order(dataclasses.replace(g, coefficients=(1.0,) * len(g))) == 0


def test_vanishing_order_provenance_route_checks_rel_tol():
    with pytest.raises(InvalidInputError):
        vanishing_order(uhrig_sum(4), rel_tol=0.5)
    assert vanishing_order(uhrig_sum(4), m_max=4) is None
    assert vanishing_order(uhrig_sum(4), m_max=5) == 5
