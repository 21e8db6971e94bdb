"""Decay-rate engine for a charged scalar bound in a magnetic field.

The total width is an exact finite sum over the Landau levels open to the
charged daughter,

    Gamma = G^2 / (16 pi omega) * sum_n 2 * int_0^{kz_cut(n)} dk_z
            w(n, m, X(k_z)) / omega_n(k_z),

with X(k_z) = ((omega - omega_n)^2 - k_z^2) / (2 field) the squared
transverse momentum of the neutral daughter over twice the field, and
w the bounded overlap weight from :mod:`magdecay.specfun`.  The integrand
is even in k_z, hence the folded half-interval.

The figure of merit is the dimensionless ratio gamma * Gamma / Gamma'_0
against the boosted field-free rate; it equals one exactly if acceleration
does not affect the decay clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .landau import DecayChannel, MagnetizedState, kz_cutoffs
from .specfun import overlap_weight_rows

__all__ = [
    "LevelRate",
    "RateResult",
    "RateConvergenceError",
    "decay_rate",
    "free_rate_at_rest",
    "free_rate_boosted",
    "lll_ratio_exact",
    "lll_ratio_factored",
]


# absolute floor of every level integral's tolerance, in units of rel_tol
# times the a-priori scale of the level sum: a level hundreds of orders
# below the width, its weights near the subnormal range, cannot meet a
# tolerance relative to its own value, and need not
_LEVEL_ABS_FLOOR = 1e-20


@dataclass(frozen=True)
class LevelRate:
    """One daughter level's share of the width, with its quadrature error."""

    n: int
    rate: float
    quad_error: float


@dataclass(frozen=True)
class RateResult:
    """Total width, its per-level breakdown, and the inertial comparison."""

    gamma_total: float
    level_contributions: tuple[LevelRate, ...]
    ratio: float
    gamma_free_boosted: float
    n_max_used: int
    lorentz_gamma: float
    quad_error: float = 0.0


class RateConvergenceError(RuntimeError):
    """Per-level quadrature failed to converge; carries the partial result."""

    def __init__(self, n: int, cause: quadrature.QuadraturePanelError):
        super().__init__(f"level {n}: {cause}")
        self.n = n
        self.partial_value = cause.value
        self.error_estimate = cause.error_estimate


def _integrand_arrays(
    channel: DecayChannel, state: MagnetizedState, n: np.ndarray, k_z: np.ndarray
) -> np.ndarray:
    """w(n_i, m, X(k_z_ij)) / omega_n_i(k_z_ij) for a row k_z_i of points per level n_i."""
    omega = state.energy(channel.m_parent)
    level = channel.m_charged**2 + (2 * n + 1) * state.field
    omega_n = np.sqrt(level[:, None] + k_z * k_z)
    x = ((omega - omega_n) ** 2 - k_z * k_z) / (2.0 * state.field)
    # x is the neutral daughter's squared transverse momentum over 2*field;
    # roundoff at the kinematic edge may leave it barely negative
    if np.fmin.reduce(x, axis=None) < -1e-9 * max(1.0, omega * omega / state.field):
        raise ValueError("longitudinal momentum outside the kinematic window")
    return overlap_weight_rows(n, state.level, np.maximum(x, 0.0)) / omega_n


def decay_rate(channel: DecayChannel, state: MagnetizedState, rel_tol: float = 1e-9) -> RateResult:
    """Total width of the magnetized parent and its ratio to the boosted free rate.

    Every open daughter level n is one interval [0, kz_cut(n)] of a single
    multi-interval quadrature, so each refinement round evaluates the
    pending panels of all levels together; each level still gets its own
    tolerance, panel budget and compensated sum.  A level's tolerance is
    ``rel_tol`` times its value, but never below ``_LEVEL_ABS_FLOOR *
    rel_tol`` times the a-priori scale of the sum (the boosted free width
    over the prefactor).  The reduction is the compensated sum in
    ascending ``n``.  When a level exhausts its panel budget,
    :class:`RateConvergenceError` names the lowest such level.
    A closed channel (no open level) has width and ratio zero.
    """
    omega = state.energy(channel.m_parent)
    lorentz_gamma = omega / channel.m_parent
    free_rest = free_rate_at_rest(channel)
    boosted = free_rate_boosted(channel, lorentz_gamma)

    cuts = kz_cutoffs(channel, state)
    prefactor = channel.coupling**2 / (16.0 * math.pi * omega) * 2.0
    # the boosted free width over the prefactor is the a-priori scale of
    # the sum of the level integrals
    abs_tol = _LEVEL_ABS_FLOOR * rel_tol * boosted / prefactor
    try:
        values, errors = quadrature.integrate(
            lambda k_z, n: _integrand_arrays(channel, state, n, k_z),
            np.zeros(cuts.size),
            cuts,
            rel_tol,
            abs_tol,
        )
    except quadrature.QuadraturePanelError as exc:
        raise RateConvergenceError(exc.interval, exc) from exc

    contributions = tuple(
        LevelRate(n, prefactor * v, prefactor * e) for n, (v, e) in enumerate(zip(values, errors))
    )
    gamma_total = math.fsum(c.rate for c in contributions)
    quad_error = math.fsum(c.quad_error for c in contributions)
    ratio = lorentz_gamma * gamma_total / free_rest
    return RateResult(
        gamma_total=gamma_total,
        level_contributions=contributions,
        ratio=ratio,
        gamma_free_boosted=boosted,
        n_max_used=cuts.size - 1,
        lorentz_gamma=lorentz_gamma,
        quad_error=quad_error,
    )


def free_rate_at_rest(channel: DecayChannel) -> float:
    """Field-free width in the parent rest frame [MeV]."""
    ratio_sq = (channel.m_charged / channel.m_parent) ** 2
    return channel.coupling**2 / (16.0 * math.pi * channel.m_parent) * (1.0 - ratio_sq)


def free_rate_boosted(channel: DecayChannel, lorentz_gamma: float) -> float:
    """Field-free width seen in the lab, i.e. the rest width over gamma."""
    if not math.isfinite(lorentz_gamma):
        raise ValueError(f"lorentz_gamma must be finite, got {lorentz_gamma}")
    if lorentz_gamma < 1.0:
        raise ValueError(f"lorentz_gamma must be >= 1, got {lorentz_gamma}")
    return free_rate_at_rest(channel) / lorentz_gamma


def _lll_validate(channel: DecayChannel, field: float) -> None:
    if channel.m_charged != 0.0:
        raise ValueError("lowest-level closed forms require a massless charged daughter")
    if not math.isfinite(field):
        raise ValueError(f"field must be finite, got {field}")
    if field <= channel.m_parent**2 / 2.0:
        raise ValueError(
            f"field {field} MeV^2 leaves more than the lowest daughter level open "
            f"(needs field > {channel.m_parent ** 2 / 2.0} MeV^2)"
        )


def lll_ratio_exact(
    channel: DecayChannel, field: float, rel_tol: float = 1e-9
) -> float:
    """Rate ratio with parent and daughter pinned to the lowest Landau level.

    Exact reduction of the general level sum at m = n = 0:

        ratio = 2 exp(-(1 + M^2/(2 field))) / sqrt(field)
                * int_0^{x_max} exp(sqrt(1 + M^2/field) sqrt(1 + x^2/field))
                  / sqrt(1 + x^2/field) dx,

    x_max = M^2 / (2 sqrt(M^2 + field)).
    """
    _lll_validate(channel, field)
    m_sq = channel.m_parent**2
    root_a = math.sqrt(1.0 + m_sq / field)
    x_max = m_sq / (2.0 * math.sqrt(m_sq + field))
    prefactor = 2.0 * math.exp(-(1.0 + m_sq / (2.0 * field))) / math.sqrt(field)

    def integrand(x: np.ndarray) -> np.ndarray:
        root_b = np.sqrt(1.0 + x * x / field)
        return np.exp(root_a * root_b) / root_b

    value, _ = quadrature.integrate(integrand, 0.0, x_max, rel_tol)
    return prefactor * value


def lll_ratio_factored(
    channel: DecayChannel, field: float, rel_tol: float = 1e-9
) -> float:
    """Lowest-level ratio with the exponential split into separate factors.

    Same structure as :func:`lll_ratio_exact` but with
    exp(-sqrt(1 + M^2/field)) pulled out of the integral and only
    exp(sqrt(1 + x^2/field)) kept inside.  The split is *not* an identity:
    this variant approaches the exact reduction times 1/e as the field
    grows, and differs more below the critical field.  Kept for comparison
    scans; not used in any derived quantity.
    """
    _lll_validate(channel, field)
    m_sq = channel.m_parent**2
    root_a = math.sqrt(1.0 + m_sq / field)
    x_max = m_sq / (2.0 * math.sqrt(m_sq + field))
    prefactor = (
        2.0 * math.exp(-(1.0 + m_sq / (2.0 * field))) * math.exp(-root_a) / math.sqrt(field)
    )

    def integrand(x: np.ndarray) -> np.ndarray:
        root_b = np.sqrt(1.0 + x * x / field)
        return np.exp(root_b) / root_b

    value, _ = quadrature.integrate(integrand, 0.0, x_max, rel_tol)
    return prefactor * value
