"""Reference evaluations that only the tests use.

Raw recurrences for the Hermite and associated Laguerre polynomials, the
log factorial ratio of the closed-form weight, and a one-panel
Gauss-Kronrod evaluation.  Tests cross-check the production paths in
``magdecay`` against them at small order; the package never calls them.
"""

import math

import numpy as np

from magdecay import quadrature
from magdecay.landau import MAX_HERMITE_ORDER
from magdecay.specfun import MAX_OVERLAP_INDEX


def hermite(n: int, rho):
    """Physicists' Hermite polynomial H_n(rho) by upward recurrence.

    The raw values overflow for large ``n`` and ``|rho|``, hence the order
    cap.
    """
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    if n > MAX_HERMITE_ORDER:
        raise ValueError(f"order {n} above cap {MAX_HERMITE_ORDER}")
    rho = np.asarray(rho, dtype=float)
    h_prev = np.ones_like(rho)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h_cur = 2.0 * rho
    for k in range(1, n):
        h_prev, h_cur = h_cur, 2.0 * rho * h_cur - 2.0 * k * h_prev
    return h_cur if h_cur.ndim else float(h_cur)


def laguerre_assoc(k: int, d: int, x):
    """Associated Laguerre polynomial L_k^d(x) by upward recurrence in k.

    See ``specfun.overlap_weight`` for the bounded evaluation the package
    uses.
    """
    if k < 0 or d < 0:
        raise ValueError(f"indices must be nonnegative, got k={k}, d={d}")
    if k > MAX_OVERLAP_INDEX or d > MAX_OVERLAP_INDEX:
        raise ValueError(f"indices (k={k}, d={d}) above cap {MAX_OVERLAP_INDEX}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("argument must be nonnegative")
    l_prev = np.ones_like(x)
    if k == 0:
        return l_prev if l_prev.ndim else float(l_prev)
    l_cur = 1.0 + d - x
    for j in range(1, k):
        l_prev, l_cur = l_cur, ((2.0 * j + 1.0 + d - x) * l_cur - (j + d) * l_prev) / (j + 1.0)
    return l_cur if l_cur.ndim else float(l_cur)


def log_factorial_ratio(n: int, m: int) -> float:
    """ln(min(n,m)! / max(n,m)!), exactly 0.0 for n == m."""
    if n < 0 or m < 0:
        raise ValueError(f"indices must be nonnegative, got n={n}, m={m}")
    if n == m:
        return 0.0
    lo, hi = min(n, m), max(n, m)
    return math.lgamma(lo + 1) - math.lgamma(hi + 1)


def gauss_kronrod_panel(f, a: float, b: float) -> tuple[float, float]:
    """One (value, error) Gauss-Kronrod evaluation of ``f`` on [a, b].

    It runs the panel rule of ``quadrature.integrate`` on a one-panel table.
    """
    panel = np.zeros((6, 1))
    panel[quadrature._LO], panel[quadrature._HI] = a, b
    quadrature._panel_rule(lambda x, panels: f(x), panel)
    value, error, mass = panel[quadrature._VALUE : quadrature._OWNER, 0].tolist()
    return value, max(error, quadrature._ROUNDOFF * mass)
