"""Reference evaluations that only the tests use.

Raw recurrences for the Hermite and associated Laguerre polynomials, the
log factorial ratio of the closed-form weight, the overlap weight by the
normalized one-point recurrence, a one-panel Gauss-Kronrod evaluation, the
field-scaled transverse wavefunction and the classical centripetal
acceleration.  Tests cross-check the production paths in
``magdecay`` against them; the package never calls them.  The stated
error bound of a completeness row, which the row's tests derive their
tolerances from, lives here too, and so does ``row_weight``, the
package's own weight at one level as a one-row call of
``specfun.overlap_weight_rows``, for the tests that take w one level at
a time, ``count_shared_work``, which counts the work of the level sum
on the shared mesh, and ``hex_digest``, which pins a long run of floats
to their exact bits.
"""

import hashlib
import math

import numpy as np

from magdecay import landau, mesh, quadrature, specfun
from magdecay.specfun import MAX_OVERLAP_INDEX

# the highest order hermite and transverse_wavefunction accept
MAX_HERMITE_ORDER = 200

EPS = float(np.finfo(float).eps)
# relative error a step of specfun._overlap_row adds to a weight w = D^2,
# in units of EPS: a forward or backward step rounds n - m + x, its product
# with D_n, sqrt(n + 1) and its product with sqrt(x) (whose own rounding
# the whole row shares), the product with D_{n-1}, the difference and the
# quotient, 7.5 half-ulps of D, so 7.5 EPS of w; a seed factor rounds
# x / k, its square root and the product, 3.5 EPS of w
ROW_STEP_ROUNDINGS = 8.0
# Miller's algorithm started where w < 1e-40 leaves an absolute error of
# about twice that in every weight
ROW_MILLER_ERROR = 2e-40


def hex_digest(values) -> str:
    """SHA-256 of the exact hex strings of ``values``, in order."""
    return hashlib.sha256(" ".join(float(v).hex() for v in values).encode()).hexdigest()


def row_steps(m: int, x: float) -> int:
    """Recurrence steps behind ``specfun._overlap_row(m, x)``: m seed
    factors, the forward run and the backward run from Miller's start."""
    return m + specfun._row_levels(m, x)[1] + 1


def row_bounds(m: int, x: float, row) -> np.ndarray:
    """First-order bounds on the error of each weight of ``specfun._overlap_row(m, x)``.

    Every step adds at most ROW_STEP_ROUNDINGS * EPS relative error to the
    iterates, and the S steps of the row add up, so a weight is off by at
    most 8 S EPS of itself.  Inside the oscillation band D_n can sit near
    a node, where the error is relative to its neighbours instead, so the
    bound is 8 S EPS (w_{n-1} + w_n + w_{n+1}), plus Miller's error.
    """
    w = np.asarray(row, dtype=float)
    around = w.copy()
    around[1:] += w[:-1]
    around[:-1] += w[1:]
    return ROW_STEP_ROUNDINGS * row_steps(m, x) * EPS * around + ROW_MILLER_ERROR


def past_row(f, m: int, x: float, last: int) -> float:
    """A bound on the sum of f(n) w(n, m, x) over the levels n > last past a row.

    Past the upper turning point w falls with n, from at most 1, and each
    stride of ``specfun._STRIDE`` levels takes it down by at least
    ``specfun._decay_stride`` at the stride's first level: the bound of
    ``specfun._row_levels``.  A weight is at most the bound at the start of
    its stride.  ``f`` takes an array of levels and must be nonnegative.
    """
    root_sum = math.sqrt(m) + math.sqrt(x)
    n, bound, total = int(root_sum * root_sum) + 1, 1.0, 0.0
    while bound > 1e-300:
        levels = np.arange(n, n + specfun._STRIDE, dtype=float)
        total += bound * float(np.sum(f(levels[levels > last])))
        bound *= specfun._decay_stride(n, m, x, (math.sqrt, min, max))
        n += specfun._STRIDE
    return total


def row_weight(n: int, m: int, x):
    """w(n, m, x) at one level n: a float for a scalar ``x``, else an array of its shape."""
    w = specfun.overlap_weight_rows([n], m, np.reshape(x, (1, -1)))
    return float(w[0, 0]) if np.ndim(x) == 0 else w.reshape(np.shape(x))


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

    See ``specfun.overlap_weight_rows`` for the bounded evaluation the
    package uses.
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


def scalar_overlap(n: int, m: int, x: float) -> float:
    """w(n, m, x) by the normalized recurrence, one point at a time.

    Propagates phi_k^d = sqrt(k!/(k+d)!) x^(d/2) e^(-x/2) L_k^d(x) through

        phi_{j+1} = ((2j+1+d-x) phi_j - sqrt(j(j+d)) phi_{j-1})
                    / sqrt((j+1)(j+1+d)),

    dividing by the square roots at every step, where the package runs
    the monic recurrence and renormalizes in blocks.
    """
    k, d = min(n, m), abs(n - m)
    xa = np.array([x], dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_phi0 = 0.5 * (d * np.log(xa) - xa) - 0.5 * math.lgamma(d + 1)
        phi_prev = np.where(xa > 0.0, np.exp(log_phi0), 1.0 if d == 0 else 0.0)
    if k == 0:
        phi = phi_prev
    else:
        phi_cur = (d + 1.0 - xa) * phi_prev / math.sqrt(d + 1.0)
        for j in range(1, k):
            phi_prev, phi_cur = phi_cur, (
                (2.0 * j + 1.0 + d - xa) * phi_cur - math.sqrt(j * (j + d)) * phi_prev
            ) / math.sqrt((j + 1.0) * (j + 1.0 + d))
        phi = phi_cur
    return float(np.minimum(phi * phi, 1.0)[0])


def gauss_kronrod_panel(f, a: float, b: float) -> tuple[float, float]:
    """One (value, error) Gauss(30)/Kronrod(61) evaluation of ``f`` on [a, b].

    It runs the panel rule of ``quadrature.integrate`` on a one-panel table,
    so ``f`` sees the 61 Kronrod points of the panel.
    """
    panel = np.zeros((6, 1))
    panel[quadrature._LO], panel[quadrature._HI] = a, b
    quadrature._panel_rule(lambda x, _: f(x), panel)
    value, error, mass = panel[quadrature._VALUE : quadrature._OWNER, 0].tolist()
    return value, max(error, quadrature._ROUNDOFF * mass)


def transverse_wavefunction(n: int, field: float, rho):
    """Normalized transverse mode I_n(rho), unit-normalized in x.

    Equals (sqrt(field) / (sqrt(pi) 2^n n!))^(1/2) exp(-rho^2/2) H_n(rho),
    that is field^(1/4) times the dimensionless mode of
    ``landau.oscillator_modes``.  With rho = sqrt(field) x + shift the
    square integrates to one over x.
    """
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    if n > MAX_HERMITE_ORDER:
        raise ValueError(f"order {n} above cap {MAX_HERMITE_ORDER}")
    if field <= 0.0:
        raise ValueError(f"field must be positive, got {field}")
    rho = np.asarray(rho, dtype=float)
    value = field**0.25 * landau.oscillator_modes(n, rho.ravel()).reshape(rho.shape)
    return float(value) if rho.ndim == 0 else value


def classical_acceleration(p_perp: float, field: float, gamma: float, mass: float) -> float:
    """Classical centripetal acceleration |e|B p_perp / (gamma^2 mass^2) in MeV."""
    if min(p_perp, field, gamma) <= 0.0:
        raise ValueError("p_perp, field and gamma must be positive")
    if mass <= 0.0:
        raise ValueError(f"mass must be positive, got {mass}")
    return field * p_perp / (gamma * gamma * mass * mass)


def count_shared_work(monkeypatch):
    """Count the work of every later level sum on the shared mesh: rounds
    (row passes), nodes evaluated, weights yielded (node-levels) and the
    panels of the last mesh, whose every panel the last pass evaluates."""
    counted = {"rounds": 0, "nodes": 0, "node_levels": 0, "panels": 0}
    overlap_rows = mesh.overlap_rows

    def counting(m, x, top):
        counted["rounds"] += 1
        counted["nodes"] += x.size
        counted["panels"] = x.size // quadrature._NODES.size
        for n0, slab, first in overlap_rows(m, x, top):
            # row k of the slab holds level n0 + k at the nodes whose top is
            # at least that level
            levels = np.arange(n0, n0 + slab.shape[0])
            counted["node_levels"] += int(np.searchsorted(-top, -levels, side="right").sum())
            yield n0, slab, first

    monkeypatch.setattr(mesh, "overlap_rows", counting)
    return counted
