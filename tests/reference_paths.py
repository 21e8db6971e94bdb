"""Reference evaluations that only the tests use.

Raw recurrences for the Hermite and associated Laguerre polynomials, the
log factorial ratio of the closed-form weight, the overlap weight by the
normalized one-point recurrence, a one-panel Gauss-Kronrod evaluation, the
field-scaled transverse wavefunction and the classical centripetal
acceleration.  Tests cross-check the production paths in
``magdecay`` against them; the package never calls them.
"""

import math

import numpy as np

from magdecay import landau, quadrature
from magdecay.specfun import MAX_OVERLAP_INDEX

# the highest order hermite and transverse_wavefunction accept
MAX_HERMITE_ORDER = 200


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
    quadrature._panel_rule(lambda x, panels: f(x), panel)
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
