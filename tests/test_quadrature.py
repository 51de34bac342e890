import math

import numpy as np
import pytest

from expsums import QuadratureError, scaled_sum, uhrig_sum, unit_gap_sum
from expsums import quadrature
from expsums.expsum import _real_exponents
from expsums.quadrature import adaptive_gauss_legendre


def test_polynomial():
    value, err = adaptive_gauss_legendre(lambda x: x**4, 0.0, 1.0, 1e-12)
    assert value == pytest.approx(0.2, abs=1e-14)
    assert err <= 1e-12


def test_oscillatory():
    value, _ = adaptive_gauss_legendre(np.sin, 0.0, 20.0, 1e-11)
    assert value == pytest.approx(1.0 - math.cos(20.0), abs=1e-11)


def test_kinked_absolute_value():
    # |sin| over [0, 2*pi] has two derivative kinks; bisection resolves them
    value, _ = adaptive_gauss_legendre(lambda x: np.abs(np.sin(x)), 0.0, 2 * math.pi, 1e-11)
    assert value == pytest.approx(4.0, abs=1e-10)


def test_steep_but_integrable():
    value, _ = adaptive_gauss_legendre(lambda x: 1.0 / np.sqrt(x + 1e-6), 0.0, 1.0, 1e-9)
    exact = 2.0 * (math.sqrt(1.0 + 1e-6) - math.sqrt(1e-6))
    assert value == pytest.approx(exact, abs=1e-8)


def test_subdivision_cap_raises_with_partial():
    with pytest.raises(QuadratureError) as info:
        adaptive_gauss_legendre(
            lambda x: 1.0 / np.sqrt(np.abs(x)), 0.0, 1.0, 1e-13, max_depth=8
        )
    exc = info.value
    assert exc.partial == pytest.approx(2.0, abs=1e-2)
    assert exc.achieved_tol > 1e-13


def test_invalid_inputs():
    with pytest.raises(QuadratureError):
        adaptive_gauss_legendre(np.sin, 0.0, 1.0, 0.0)
    with pytest.raises(QuadratureError):
        adaptive_gauss_legendre(np.sin, 1.0, 1.0, 1e-9)


def test_determinism():
    f = lambda x: np.abs(np.sin(7.0 * x))
    first = adaptive_gauss_legendre(f, 0.0, 3.0, 1e-10)
    second = adaptive_gauss_legendre(f, 0.0, 3.0, 1e-10)
    assert first == second


# ---------------------------------------------------------------------------
# breadth-first evaluation against the depth-first recursion it replaced

def recursive_gauss_legendre(f, lo, hi, abs_tol, max_depth=20, widths=None):
    """The depth-first recursion: one 15- and one 31-point call per panel.

    ``widths``, if given, collects the number of panels at each depth.
    """
    x15, w15 = np.polynomial.legendre.leggauss(15)
    x31, w31 = np.polynomial.legendre.leggauss(31)
    total_len = hi - lo

    def recurse(a, b, depth):
        if widths is not None:
            widths[depth] = widths.get(depth, 0) + 1
        mid = 0.5 * (a + b)
        halfwidth = 0.5 * (b - a)
        v_lo = halfwidth * float(np.dot(w15, f(mid + halfwidth * x15)))
        value = halfwidth * float(np.dot(w31, f(mid + halfwidth * x31)))
        err = abs(value - v_lo)
        if err <= abs_tol * (b - a) / total_len or depth >= max_depth:
            return value, err
        mid = 0.5 * (a + b)
        lv, le = recurse(a, mid, depth + 1)
        rv, re = recurse(mid, b, depth + 1)
        return lv + rv, le + re

    value, err = recurse(lo, hi, 0)
    if err > abs_tol:
        raise QuadratureError("cap", partial=value, achieved_tol=err)
    return value, err


def outcome(quad, f, lo, hi, abs_tol, **kw):
    try:
        return quad(f, lo, hi, abs_tol, **kw)
    except QuadratureError as exc:
        return ("cap", exc.partial, exc.achieved_tol)


def abs_sum(g):
    """|g| at arbitrary points (here Gauss nodes), one exp per (point, term):
    the same pointwise integrand for both quadratures."""
    lam = _real_exponents(g)

    def f(ts):
        acc = np.zeros(np.shape(ts), dtype=complex)
        for a, x in zip(g.coefficients, lam):
            acc = acc + a * np.exp(1j * x * np.asarray(ts, dtype=float))
        return np.abs(acc)

    return f


BITWISE_CASES = [
    ("quartic", lambda x: x**4, 0.0, 1.0, 1e-12),
    ("exp", np.exp, -2.0, 3.0, 1e-12),
    ("sin", np.sin, 0.0, 20.0, 1e-11),
    ("damped cos", lambda x: np.cos(40.0 * x) * np.exp(-x), 0.0, 30.0, 1e-12),
    ("|sin|", lambda x: np.abs(np.sin(x)), 0.0, 2 * math.pi, 1e-11),
    ("|sin| long", lambda x: np.abs(np.sin(x)), 0.0, 200.0, 1e-10),
    ("steep", lambda x: 1.0 / np.sqrt(x + 1e-6), 0.0, 1.0, 1e-9),
]
BITWISE_CASES += [
    (f"|uhrig_sum({n})| on [{lo}, {hi}]", abs_sum(uhrig_sum(n)), lo, hi, 1e-10)
    for n in (2, 6, 12, 20) for lo, hi in ((-1.0, 1.0), (0.0, 20.0), (0.0, 80.0))
]
BITWISE_CASES += [
    ("|uhrig_sum(20)| on [0, 53]", abs_sum(uhrig_sum(20)), 0.0, 53.0, 1e-10),
    ("|uhrig_sum(20)| on [0, 100], cap", abs_sum(uhrig_sum(20)), 0.0, 100.0, 1e-10),
    ("|scaled_sum(0.5)|", abs_sum(scaled_sum(0.5)), -3.0, 3.0, 1e-10),
    ("|unit_gap_sum(12)|", abs_sum(unit_gap_sum(12)), -1.5, 1.5, 1e-10),
]


@pytest.mark.parametrize(
    "f, lo, hi, abs_tol", [case[1:] for case in BITWISE_CASES],
    ids=[case[0] for case in BITWISE_CASES],
)
def test_bitwise_equal_to_recursion(f, lo, hi, abs_tol):
    got = outcome(adaptive_gauss_legendre, f, lo, hi, abs_tol)
    assert got == outcome(recursive_gauss_legendre, f, lo, hi, abs_tol)


def test_cap_case_partial_equal_to_recursion():
    f = lambda x: 1.0 / np.sqrt(np.abs(x))
    got = outcome(adaptive_gauss_legendre, f, 0.0, 1.0, 1e-13, max_depth=8)
    assert got[0] == "cap"
    assert got == outcome(recursive_gauss_legendre, f, 0.0, 1.0, 1e-13, max_depth=8)


def counted(f):
    sizes = []

    def wrapped(ts):
        assert ts.ndim == 1
        sizes.append(len(ts))
        return f(ts)

    return wrapped, sizes


@pytest.mark.parametrize("slice_panels", [None, 1, 7])
def test_one_integrand_call_per_level(monkeypatch, slice_panels):
    if slice_panels is not None:
        monkeypatch.setattr(quadrature, "_SLICE_POINTS", 46 * slice_panels)
    per_slice = quadrature._SLICE_POINTS // 46
    g = uhrig_sum(20)
    widths = {}
    expected = recursive_gauss_legendre(abs_sum(g), 0.0, 80.0, 1e-10, widths=widths)
    f, sizes = counted(abs_sum(g))
    assert adaptive_gauss_legendre(f, 0.0, 80.0, 1e-10) == expected
    # the same panels: 46 points each, no more and no fewer
    assert sum(sizes) == 46 * sum(widths.values())
    assert max(sizes) <= quadrature._SLICE_POINTS
    extra = sum(-(-w // per_slice) - 1 for w in widths.values())
    assert len(sizes) == len(widths) + extra
    assert len(sizes) <= 20 + 1 + extra
    if slice_panels is None:
        assert extra == 0


def test_nodes_carry_their_panels():
    levels = []

    def f(ts):
        mid, halfwidth, x = ts.panels
        assert np.array_equal(ts, (mid[:, None] + halfwidth[:, None] * x).ravel())
        assert np.sin(ts).panels is None and not hasattr(np.asarray(ts), "panels")
        levels.append(len(mid))
        return np.abs(np.sin(ts))

    value, _ = adaptive_gauss_legendre(f, 0.0, 20.0, 1e-11)
    assert value == adaptive_gauss_legendre(lambda x: np.abs(np.sin(x)), 0.0, 20.0, 1e-11)[0]
    assert len(levels) > 1 and levels[0] == 1


def test_nan_integrand_raises_at_once():
    f, sizes = counted(lambda x: np.full_like(x, np.nan))
    with pytest.raises(QuadratureError, match="not finite"):
        adaptive_gauss_legendre(f, 0.0, 1.0, 1e-10)
    assert len(sizes) == 1


def test_integrand_infinite_at_one_node_raises_at_once():
    node = 0.5 + 0.5 * np.polynomial.legendre.leggauss(31)[0][7]
    f, sizes = counted(lambda x: np.where(x == node, np.inf, 1.0))
    with pytest.raises(QuadratureError, match="not finite"):
        adaptive_gauss_legendre(f, 0.0, 1.0, 1e-10)
    assert len(sizes) == 1


@pytest.mark.parametrize(
    "lo, hi, abs_tol",
    [(0.0, 1.0, math.nan), (0.0, math.inf, 1e-9), (-math.inf, 0.0, 1e-9),
     (math.nan, 1.0, 1e-9)],
)
def test_rejects_nonfinite_limits_and_tolerance(lo, hi, abs_tol):
    f, sizes = counted(np.sin)
    with pytest.raises(QuadratureError):
        adaptive_gauss_legendre(f, lo, hi, abs_tol, max_depth=10)
    assert sizes == []
