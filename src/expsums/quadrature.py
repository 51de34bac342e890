"""Adaptive composite Gauss-Legendre quadrature with an embedded error estimate.

Each subinterval is integrated with 15- and 31-point Gauss-Legendre rules; the
difference between the two serves as the local error estimate.  Subintervals
failing their share of the tolerance are bisected (never order-escalated:
bisection also copes with integrands that are merely continuous, such as the
absolute value of an oscillating function at its zero crossings).

Subdivision is capped at depth ``max_depth``, i.e. at most 2**max_depth leaf
subintervals.  The panel tree is built one depth level at a time: the integrand
is called once per level on the 46 nodes of all its panels (in slices of at
most ``_SLICE_POINTS`` points, so memory stays flat however wide a level
grows); the node array carries ``panels = (mid, halfwidth, x)`` for an
integrand that evaluates mid_i + halfwidth_i*x_k in factored form.  The result
is then summed bottom-up along the tree, a split panel taking left child +
right child, which is the summation order of a depth-first left-to-right
recursion: the value and error estimate are deterministic and, for given
integrand values, do not depend on the slicing.  A blockwise integrand (a
matrix product, say) may round a node differently in a slice of another size.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import QuadratureError

__all__ = ["adaptive_gauss_legendre"]

_N_LO = 15  # nodes of the low-order rule, which come first


@functools.cache
def _rules() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 15 then the 31 Gauss-Legendre nodes, and each rule's weights.

    Built on first use: importing numpy's polynomial module and running the
    eigensolver behind ``leggauss`` take about 1.7 MB of resident memory
    (numpy 2, x86-64), which a process that never integrates need not pay.
    """
    (x_lo, w_lo), (x_hi, w_hi) = (np.polynomial.legendre.leggauss(k) for k in (_N_LO, 31))
    return np.concatenate([x_lo, x_hi]), w_lo, w_hi


# Largest number of integrand points passed to one call of ``f``.
_SLICE_POINTS = 65_536


class _Nodes(np.ndarray):
    """Flat panel nodes with ``panels = (mid, halfwidth, x)``; arrays computed
    from them, and ``np.asarray``, drop it."""

    panels = None


def _panels(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the panels [a_i, b_i]; return (high-order values, error estimates)."""
    nodes, w_lo, w_hi = _rules()
    mid = 0.5 * (a + b)
    halfwidth = 0.5 * (b - a)
    ts = (mid[:, None] + halfwidth[:, None] * nodes).ravel().view(_Nodes)
    ts.panels = (mid, halfwidth, nodes)
    rows = np.asarray(f(ts)).reshape(len(a), len(nodes))
    # np.vecdot takes the 1-D dot of np.dot row by row, so each panel sums in
    # the same order as a lone np.dot(w, f(nodes)); a matrix-vector product
    # (rows @ w) sums in another order and changes the last bits
    v_lo = halfwidth * np.vecdot(w_lo, rows[:, :_N_LO])
    v_hi = halfwidth * np.vecdot(w_hi, rows[:, _N_LO:])
    return v_hi, np.abs(v_hi - v_lo)


def adaptive_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    abs_tol: float,
    max_depth: int = 20,
) -> tuple[float, float]:
    """Integrate ``f`` (vectorized, real-valued) over [lo, hi] to ``abs_tol``.

    ``f`` receives a 1-D array of nodes and returns the integrand there.
    Returns ``(value, error_estimate)`` with error_estimate <= abs_tol on
    success.  Raises :class:`QuadratureError` (carrying the partial value and
    the achieved error) if some subinterval still fails its local tolerance
    share at the subdivision cap, and at once if a panel's value or error
    estimate is not finite.
    """
    if not abs_tol > 0:
        raise QuadratureError(f"abs_tol must be positive, got {abs_tol}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise QuadratureError(f"integration limits must be finite, got [{lo}, {hi}]")
    if not hi > lo:
        raise QuadratureError(f"empty integration interval [{lo}, {hi}]")
    total_len = hi - lo
    per_slice = _SLICE_POINTS // len(_rules()[0])

    # levels[d] = (values, error estimates, split mask) of the panels at depth d
    levels = []
    a = np.array([lo], dtype=float)
    b = np.array([hi], dtype=float)
    while len(a):
        value = np.empty(len(a))
        err = np.empty(len(a))
        for s in range(0, len(a), per_slice):
            part = slice(s, s + per_slice)
            value[part], err[part] = _panels(f, a[part], b[part])
            bad = ~np.isfinite(err[part])
            if bad.any():
                i = s + int(np.argmax(bad))
                raise QuadratureError(f"integrand is not finite on [{a[i]!r}, {b[i]!r}]")
        split = (err > abs_tol * (b - a) / total_len) & (len(levels) < max_depth)
        levels.append((value, err, split))
        a, b = a[split], b[split]
        mid = 0.5 * (a + b)
        a, b = np.column_stack([a, mid]).ravel(), np.column_stack([mid, b]).ravel()

    # sum bottom-up: a split panel is worth its left child + its right child
    value, err, _ = levels.pop()
    while levels:
        parent_value, parent_err, split = levels.pop()
        parent_value[split] = value[0::2] + value[1::2]
        parent_err[split] = err[0::2] + err[1::2]
        value, err = parent_value, parent_err
    value, err = float(value[0]), float(err[0])
    # leaves at the depth cap may miss their proportional share (e.g. stuck at
    # the roundoff floor next to a kink); only the summed estimate matters
    if err > abs_tol:
        raise QuadratureError(
            f"subdivision cap 2**{max_depth} reached with error estimate {err:.3e} "
            f"(requested {abs_tol:.3e})",
            partial=value,
            achieved_tol=err,
        )
    return value, err
