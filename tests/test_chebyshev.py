import math

import numpy as np
import pytest

from expsums import InvalidInputError, cheb_nodes, cheb_u, endpoint_identity_residual


def u_closed_form(m, theta):
    # independent oracle: U_m(cos(theta)) = sin((m+1)*theta)/sin(theta)
    return math.sin((m + 1) * theta) / math.sin(theta)


def test_cheb_u_base_cases():
    assert cheb_u(0, 0.7) == 1.0
    assert cheb_u(1, 0.3) == 0.6
    assert cheb_u(3, 0.5) == pytest.approx(-1.0, abs=1e-15)


def test_cheb_u_against_closed_form():
    rng = np.random.default_rng(7)
    for m in [1, 2, 5, 13, 30]:
        for theta in rng.uniform(0.05, math.pi - 0.05, size=20):
            assert cheb_u(m, math.cos(theta)) == pytest.approx(
                u_closed_form(m, theta), rel=1e-10, abs=1e-10
            )


def test_cheb_u_at_one_is_degree_plus_one():
    for m in range(101):
        assert cheb_u(m, 1.0) == m + 1


def test_cheb_u_invalid():
    with pytest.raises(InvalidInputError):
        cheb_u(-1, 0.5)
    with pytest.raises(InvalidInputError):
        cheb_u(2, math.nan)
    with pytest.raises(InvalidInputError):
        cheb_u(2, math.inf)


def test_nodes_n2_exact_values():
    nodes = cheb_nodes(2)
    expected = (math.sqrt(3) / 2, 0.5, 0.0, -0.5, -math.sqrt(3) / 2)
    assert nodes == pytest.approx(expected, abs=1e-15)


def test_nodes_antisymmetry_is_bitwise():
    for n in [0, 2, 4, 10, 40]:
        nodes = cheb_nodes(n)
        assert len(nodes) == 2 * n + 1
        assert nodes[n] == 0.0
        for k in range(1, n + 1):
            assert nodes[2 * n + 1 - k] == -nodes[k - 1]


def test_nodes_strictly_decreasing():
    for n in [2, 8, 26]:
        nodes = cheb_nodes(n)
        assert all(a > b for a, b in zip(nodes, nodes[1:]))


def test_nodes_are_zeros_of_u():
    for n in [2, 8, 40]:
        for x in cheb_nodes(n):
            assert abs(cheb_u(2 * n + 1, x)) <= 1e-10 * (2 * n + 2)


def test_nodes_reject_odd_n():
    with pytest.raises(InvalidInputError):
        cheb_nodes(3)
    with pytest.raises(InvalidInputError):
        cheb_nodes(-2)


def test_endpoint_identity_constant():
    # alternating sum of n ones cancels for even n
    for n in [0, 2, 6, 12]:
        assert endpoint_identity_residual([1.0], n) == 0.0


def test_endpoint_identity_x_squared_n2():
    # q(1)-q(0) = 1 and 2*(alpha_1^2 - alpha_2^2) = 2*(3/4 - 1/4) = 1
    assert endpoint_identity_residual([0.0, 0.0, 1.0], 2) <= 1e-15


@pytest.mark.parametrize("n", [2, 4, 8])
def test_endpoint_identity_one_minus_x_squared_powers(n):
    # q(x) = (1 - x^2)^m expands with binomial signs; residual vanishes
    for m in range(1, n + 1):
        coeffs = [0.0] * (2 * m + 1)
        for i in range(m + 1):
            coeffs[2 * i] = math.comb(m, i) * (-1.0) ** i
        scale = 1.0 + sum(abs(c) for c in coeffs)
        assert endpoint_identity_residual(coeffs, n) <= 1e-10 * scale


def test_endpoint_identity_random_even_polynomials():
    rng = np.random.default_rng(20260810)
    for n in range(2, 22, 2):
        for _ in range(100):
            degree = rng.integers(0, n + 1)  # even-part degree, full degree 2*degree
            coeffs = [0.0] * (2 * degree + 1)
            for i in range(degree + 1):
                coeffs[2 * i] = rng.uniform(-1.0, 1.0)
            scale = 1.0 + sum(abs(c) for c in coeffs)
            assert endpoint_identity_residual(coeffs, n) <= 1e-10 * scale


def test_endpoint_identity_random_polynomials_n40():
    rng = np.random.default_rng(5)
    n = 40
    for _ in range(25):
        degree = rng.integers(0, n + 1)
        coeffs = [0.0] * (2 * degree + 1)
        for i in range(degree + 1):
            coeffs[2 * i] = rng.uniform(-1.0, 1.0)
        scale = 1.0 + sum(abs(c) for c in coeffs)
        assert endpoint_identity_residual(coeffs, n) <= 1e-10 * scale


def test_endpoint_identity_rejects_odd_terms():
    with pytest.raises(InvalidInputError):
        endpoint_identity_residual([0.0, 1.0], 2)
    with pytest.raises(InvalidInputError):
        endpoint_identity_residual([1.0, 0.0, 2.0, 1e-30], 2)


def test_endpoint_identity_rejects_high_degree():
    with pytest.raises(InvalidInputError):
        endpoint_identity_residual([0.0] * 6 + [1.0], 2)  # degree 6 > 2n = 4


def test_endpoint_identity_ignores_trailing_zeros():
    # degree decided by the last nonzero coefficient
    assert endpoint_identity_residual([1.0, 0.0, 0.0, 0.0, 0.0], 2) == 0.0
