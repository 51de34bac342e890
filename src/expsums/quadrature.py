"""Adaptive composite Gauss-Kronrod quadrature: the nested pair G15/K31.

Each subinterval is integrated with the 31-point Kronrod rule K31, whose
odd-indexed nodes are the 15 Gauss-Legendre nodes; the 15-point Gauss rule G15
on those same integrand values gives the error estimate |K31 - G15| (QUADPACK's
``qk31`` pair, without its rescaling of the estimate).  Subintervals failing
their share of the tolerance are quartered (never order-escalated: subdivision
also copes with integrands that are merely continuous, such as the absolute
value of an oscillating function at its zero crossings).

Subdivision is capped at depth ``max_depth`` bisections, i.e. at most
2**max_depth leaf subintervals; a failing panel is replaced by its four
quarters, made by two exact midpoint steps (two halves, one step, when a
single bisection is left to the cap), and the halves are never evaluated.
The panel tree is built one level at a time: the integrand is called once per
level on the 31 nodes of all its panels (in slices of at most
``_SLICE_POINTS`` points, so memory stays flat however wide a level grows);
the node array carries ``panels = (mid, halfwidth, x)`` for an integrand that
evaluates mid_i + halfwidth_i*x_k in factored form.  The result is then summed
bottom-up along the tree, a split panel taking (q0 + q1) + (q2 + q3) over its
quarters, which is the summation order of a depth-first left-to-right
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

# The nonnegative K31 nodes in increasing order, their K31 weights, and the
# G15 weights of the nodes among them that are Gauss nodes (0 and every other
# one): the Gauss nodes are the zeros of P_15, the others those of the
# Stieltjes polynomial E_16; computed at 60 digits and rounded once.
_X = (
    0.0, 0.1011420669187175, 0.20119409399743451, 0.29918000715316884,
    0.3941513470775634, 0.4850818636402397, 0.5709721726085388, 0.650996741297417,
    0.7244177313601701, 0.790418501442466, 0.8482065834104272, 0.8972645323440819,
    0.937273392400706, 0.9677390756791391, 0.9879925180204854, 0.9980022986933971,
)
_W_KRONROD = (
    0.10133000701479154, 0.10076984552387559, 0.09917359872179196, 0.09664272698362368,
    0.09312659817082532, 0.08856444305621176, 0.08308050282313302, 0.07684968075772038,
    0.06985412131872826, 0.06200956780067064, 0.05348152469092809, 0.04458975132476488,
    0.03534636079137585, 0.02546084732671532, 0.015007947329316122, 0.005377479872923349,
)
_W_GAUSS = (
    0.2025782419255613, 0.19843148532711158, 0.1861610000155622, 0.16626920581699392,
    0.13957067792615432, 0.10715922046717194, 0.07036604748810812, 0.03075324199611727,
)


@functools.cache
def _rules() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 31 K31 nodes in increasing order, their K31 weights, and the G15
    weights of ``nodes[1::2]``."""
    mirrored = lambda half, sign=1.0: np.concatenate([sign * np.array(half[:0:-1]), half])
    return mirrored(_X, -1.0), mirrored(_W_KRONROD), mirrored(_W_GAUSS)


# Largest number of integrand points passed to one call of ``f``.
_SLICE_POINTS = 65_536


class _Nodes(np.ndarray):
    """Flat panel nodes with ``panels = (mid, halfwidth, x)``; arrays computed
    from them, and ``np.asarray``, drop it."""

    panels = None


def _panels(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the panels [a_i, b_i]; return (K31 values, |K31 - G15|)."""
    nodes, w_kronrod, w_gauss = _rules()
    mid = 0.5 * (a + b)
    halfwidth = 0.5 * (b - a)
    ts = (mid[:, None] + halfwidth[:, None] * nodes).ravel().view(_Nodes)
    ts.panels = (mid, halfwidth, nodes)
    rows = np.asarray(f(ts)).reshape(len(a), len(nodes))
    # np.vecdot takes the 1-D dot of np.dot row by row, so each panel sums in
    # the same order as a lone np.dot(w, f(nodes)); a matrix-vector product
    # (rows @ w) sums in another order and changes the last bits; an infinite
    # value at a Gauss node makes the estimate inf - inf, which the caller
    # reports as not finite
    value = halfwidth * np.vecdot(w_kronrod, rows)
    with np.errstate(invalid="ignore"):
        return value, np.abs(value - halfwidth * np.vecdot(w_gauss, rows[:, 1::2]))


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

    # levels holds (values, error estimates, split mask) of each level's panels
    levels = []
    a = np.array([lo], dtype=float)
    b = np.array([hi], dtype=float)
    depth = 0
    while True:
        value = np.empty(len(a))
        err = np.empty(len(a))
        for s in range(0, len(a), per_slice):
            part = slice(s, s + per_slice)
            value[part], err[part] = _panels(f, a[part], b[part])
            bad = ~np.isfinite(err[part])
            if bad.any():
                i = s + int(np.argmax(bad))
                raise QuadratureError(f"integrand is not finite on [{a[i]!r}, {b[i]!r}]")
        split = (err > abs_tol * (b - a) / total_len) & (depth < max_depth)
        levels.append((value, err, split))
        if not split.any():
            break
        a, b = a[split], b[split]
        steps = min(2, max_depth - depth)
        depth += steps
        m = 0.5 * (a + b)
        edges = [a, m, b] if steps == 1 else [a, 0.5 * (a + m), m, 0.5 * (m + b), b]
        edges = np.stack(edges, axis=1)
        a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()

    # sum bottom-up: a split panel is worth (q0 + q1) + (q2 + q3) over its
    # quarters, or q0 + q1 over its halves, summed pairwise
    value, err, _ = levels.pop()
    while levels:
        parent_value, parent_err, split = levels.pop()
        while len(value) > np.count_nonzero(split):
            value, err = value[0::2] + value[1::2], err[0::2] + err[1::2]
        parent_value[split] = value
        parent_err[split] = err
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
