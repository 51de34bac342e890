import math
from fractions import Fraction

import mpmath
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
# the nested rule, derived independently of the module's literals

def kronrod31(dps=60):
    """K31 from scratch: the nonnegative nodes and their K31 weights, then the
    nonnegative Gauss nodes and their G15 weights, as mpf at ``dps`` digits.

    The Gauss nodes are the zeros of P_15; the Kronrod nodes those of the
    Stieltjes polynomial E_16 = x^16 + ..., whose exact rational coefficients
    make int P_15(x) x^j E_16(x) dx vanish for j < 16.  The weights solve the
    moment equations sum_i w_i x_i^(2k) = 2/(2k + 1) on the even monomials.
    """
    p_prev, p = [Fraction(1)], [Fraction(0), Fraction(1)]
    for k in range(1, 15):  # (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}
        nxt = [Fraction(0)] + [(2 * k + 1) * c for c in p]
        for i, c in enumerate(p_prev):
            nxt[i] -= k * c
        p_prev, p = p, [c / (k + 1) for c in nxt]
    moment = lambda m: Fraction(2, m + 1) if m % 2 == 0 else Fraction(0)
    legendre_moment = lambda m: sum(c * moment(i + m) for i, c in enumerate(p))
    # rows j = 0..15 of the system for c_0..c_15, exact Gauss-Jordan
    rows = [[legendre_moment(i + j) for i in range(16)] + [-legendre_moment(16 + j)]
            for j in range(16)]
    for col in range(16):
        pivot = next(r for r in range(col, 16) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(16):
            if r != col and rows[r][col] != 0:
                rows[r] = [v - rows[r][col] * w for v, w in zip(rows[r], rows[col])]
    stieltjes = [row[-1] for row in rows] + [Fraction(1)]
    assert all(c == 0 for c in stieltjes[1::2])

    with mpmath.workdps(dps):
        def positive_roots(even_coefficients):
            coefficients = [mpmath.mpf(c.numerator) / c.denominator
                            for c in even_coefficients[::-1]]
            ys = mpmath.polyroots(coefficients, maxsteps=200, extraprec=4 * dps)
            return [mpmath.sqrt(y) for y in ys]

        def weights(xs):
            vandermonde = mpmath.matrix([[x ** (2 * k) for x in xs] for k in range(len(xs))])
            w = mpmath.lu_solve(vandermonde, [mpmath.mpf(2) / (2 * k + 1) for k in range(len(xs))])
            return [w[i] if x == 0 else w[i] / 2 for i, x in enumerate(xs)]

        gauss = sorted([mpmath.mpf(0)] + positive_roots(p[1::2]))
        nodes = sorted(gauss + positive_roots(stieltjes[0::2]))
        return nodes, weights(nodes), gauss, weights(gauss)


def test_rule_literals_match_the_derivation():
    nodes, w_kronrod, gauss, w_gauss = kronrod31()
    assert len(nodes) == 16 and gauss == nodes[0::2]  # interlaced, 0 a Gauss node
    for literals, derived in ((quadrature._X, nodes), (quadrature._W_KRONROD, w_kronrod),
                              (quadrature._W_GAUSS, w_gauss)):
        assert len(literals) == len(derived)
        for literal, exact in zip(literals, derived):
            assert abs(literal - float(exact)) <= 2 * np.spacing(float(exact))


def test_rule_is_exact_to_degree_46():
    nodes, w_kronrod, _ = quadrature._rules()
    for k in range(47):
        exact = 2 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(float(np.dot(w_kronrod, nodes**k)) - exact) <= 1e-14


def test_rule_nests_g15():
    nodes, w_kronrod, w_gauss = quadrature._rules()
    assert len(nodes) == len(w_kronrod) == 31 and len(w_gauss) == 15
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(w_kronrod, w_kronrod[::-1]) and np.array_equal(w_gauss, w_gauss[::-1])
    x15, w15 = np.polynomial.legendre.leggauss(15)
    assert np.abs(nodes[1::2] - x15).max() <= 2e-16
    # leggauss's weights are off by up to 5.3e-16 here (38 ulp of 0.107,
    # numpy 2.4); the literals are the correctly rounded ones, checked above
    assert np.abs(w_gauss - w15).max() <= 1e-15


# ---------------------------------------------------------------------------
# breadth-first evaluation against the depth-first recursion it replaced

def recursive_gauss_legendre(f, lo, hi, abs_tol, max_depth=20, widths=None):
    """The depth-first recursion: one K31 call per panel, G15 on its
    odd-indexed values, and a failing panel quartered.

    ``widths``, if given, collects the number of panels at each depth.
    """
    x, w_kronrod, w_gauss = quadrature._rules()
    total_len = hi - lo

    def recurse(a, b, depth):
        if widths is not None:
            widths[depth] = widths.get(depth, 0) + 1
        mid = 0.5 * (a + b)
        halfwidth = 0.5 * (b - a)
        values = f(mid + halfwidth * x)
        value = halfwidth * float(np.dot(w_kronrod, values))
        err = abs(value - halfwidth * float(np.dot(w_gauss, values[1::2])))
        if err <= abs_tol * (b - a) / total_len or depth >= max_depth:
            return value, err
        steps = min(2, max_depth - depth)
        m = 0.5 * (a + b)
        edges = [a, m, b] if steps == 1 else [a, 0.5 * (a + m), m, 0.5 * (m + b), b]
        parts = [recurse(l, r, depth + steps) for l, r in zip(edges, edges[1:])]
        while len(parts) > 1:
            parts = [(l[0] + r[0], l[1] + r[1]) for l, r in zip(parts[0::2], parts[1::2])]
        return parts[0]

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
    points = len(quadrature._rules()[0])
    if slice_panels is not None:
        monkeypatch.setattr(quadrature, "_SLICE_POINTS", points * slice_panels)
    per_slice = quadrature._SLICE_POINTS // points
    g = uhrig_sum(20)
    widths = {}
    expected = recursive_gauss_legendre(abs_sum(g), 0.0, 80.0, 1e-10, widths=widths)
    f, sizes = counted(abs_sum(g))
    assert adaptive_gauss_legendre(f, 0.0, 80.0, 1e-10) == expected
    # the same panels: 31 points each, no more and no fewer
    assert points == 31
    assert sum(sizes) == points * sum(widths.values())
    assert max(sizes) <= quadrature._SLICE_POINTS
    extra = sum(-(-w // per_slice) - 1 for w in widths.values())
    assert len(sizes) == len(widths) + extra
    # quartering: a level every second depth, 0, 2, ..., 20
    assert len(sizes) <= 20 // 2 + 1 + extra
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
    # node 7 is a G15 node (K31 and G15 both infinite), node 8 a K31 node only
    for k in (7, 8):
        node = 0.5 + 0.5 * quadrature._rules()[0][k]
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
