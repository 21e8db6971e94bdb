"""Decay-rate engine for a charged scalar bound in a magnetic field.

The total width is an exact finite sum over the Landau levels open to the
charged daughter.  With x the neutral daughter's squared transverse
momentum over twice the field,

    Gamma = G^2 / (8 pi omega) * sum_n int_0^{X_n} w(n, m, x)
            / sqrt((X_n - x)(Y_n - x)) dx,

X_n and Y_n from :func:`magdecay.landau.level_edges` and w the bounded
overlap weight of :mod:`magdecay.specfun`.  In the longitudinal momentum
k_z of the charged daughter, k_z^2 = field^2 (X_n - x)(Y_n - x) / omega^2,
this is the folded integral of w / omega_n over |k_z| <= K_n.

Two schemes evaluate the level integrals, and the size of the problem
picks one (:func:`_shares_mesh`).

* **Shared mesh in x**, for many levels at a large m, m (levels) from
  20,000 (from m = 41 at p_perp^2 = 1e3, past the crossover of every
  figure curve): all levels share one adaptively refined mesh, and one
  row of the recurrence across levels gives every level's weight at a
  node (:mod:`magdecay.mesh`).
* **Per-level quadrature in k_z**, for few levels or a small m: each level
  is one interval [0, K_n] of a multi-interval adaptive quadrature, with
  the weights from the level kernel
  :func:`magdecay.specfun.overlap_weight_rows`, whose cost per point is
  min(n, m) steps.

The figure of merit is the dimensionless ratio gamma * Gamma / Gamma'_0
against the boosted field-free rate; it equals one exactly if acceleration
does not affect the decay clock.  Its lowest-level closed forms
(:func:`lll_ratio_exact`, :func:`lll_ratio_factored`) take no tolerance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .landau import DecayChannel, MagnetizedState, kz_cutoffs, level_edges
from .quadrature import RateConvergenceError
from .specfun import MAX_OVERLAP_ARGUMENT, overlap_weight_rows

__all__ = [
    "LevelRate",
    "RateResult",
    "RateConvergenceError",
    "decay_rate",
    "free_rate_at_rest",
    "lll_ratio_exact",
    "lll_ratio_factored",
]


# absolute floor of every level integral's tolerance, in units of rel_tol
# times the a-priori scale of the level sum: a level hundreds of orders
# below the width, its weights near the subnormal range, cannot meet a
# tolerance relative to its own value, and need not
_LEVEL_ABS_FLOOR = 1e-20
# m times the number of levels from which the level sum runs on the shared
# mesh (see _shares_mesh)
_SHARED_MESH_WORK = 20_000


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
    n_max_used: int
    lorentz_gamma: float
    quad_error: float


def decay_rate(channel: DecayChannel, state: MagnetizedState, rel_tol: float = 1e-9) -> RateResult:
    """Total width of the magnetized parent and its ratio to the boosted free rate.

    Every open level n is one integral, with its own tolerance: ``rel_tol``
    times its value, but never below ``_LEVEL_ABS_FLOOR * rel_tol`` times
    the a-priori scale of the sum (the boosted free width over the
    prefactor), nor below the roundoff of its value.  Two schemes give the
    same integrals, and the size of the problem picks one: with m (levels)
    at least ``_SHARED_MESH_WORK`` (20,000, where the mesh is the faster on
    every figure curve), or an X_0 past the level kernel's argument cap,
    all levels share one mesh in x (:mod:`magdecay.mesh`);
    below, each level is one interval [0, kz_cut(n)] of a
    single multi-interval quadrature in k_z, with its own panels.  The
    reduction is the compensated sum in ascending ``n``, and the total error
    is the prefactor times the compensated sum of the level errors.  When a
    level misses its tolerance within the panel budget,
    :class:`RateConvergenceError` names the lowest such level.  A closed
    channel (no open level) has width and ratio zero; an open one whose
    prefactor G^2/(8 pi omega) or width falls below the normal float range
    raises :class:`ValueError`, since its digits are lost.
    """
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    omega = state.energy(channel.m_parent)
    lorentz_gamma = omega / channel.m_parent
    free_rest = free_rate_at_rest(channel)

    root_x, root_y = level_edges(channel, state)
    prefactor = channel.coupling**2 / (16.0 * math.pi * omega) * 2.0
    if root_x.size and prefactor < sys.float_info.min:
        raise ValueError(
            f"width prefactor G^2/(8 pi omega) = {prefactor:.6g} MeV is below the "
            "normal float range; the width would lose its digits"
        )
    # the boosted free width, the rest width over gamma, over the prefactor
    # is the a-priori scale of the sum of the level integrals
    abs_tol = _LEVEL_ABS_FLOOR * rel_tol * (free_rest / lorentz_gamma) / prefactor
    if not root_x.size:
        values, errors = [], []
    elif _shares_mesh(state.level, root_x):
        # imported here, so that only the level sums that take the shared
        # mesh compile it
        from . import mesh

        values, errors = mesh.level_integrals(state.level, root_x, root_y, rel_tol, abs_tol)
    else:
        values, errors = _kz_level_integrals(channel, state, rel_tol, abs_tol)

    contributions = tuple(
        LevelRate(n, prefactor * v, prefactor * e) for n, (v, e) in enumerate(zip(values, errors))
    )
    gamma_total = math.fsum(c.rate for c in contributions)
    if root_x.size and gamma_total < sys.float_info.min:
        raise ValueError(
            f"width Gamma = {gamma_total:.6g} MeV is below the normal float range; "
            "its digits and its ratio are lost"
        )
    # scaled after the sum, so that a subnormal total keeps its digits
    quad_error = prefactor * math.fsum(errors)
    ratio = lorentz_gamma * gamma_total / free_rest
    return RateResult(
        gamma_total=gamma_total,
        level_contributions=contributions,
        ratio=ratio,
        n_max_used=root_x.size - 1,
        lorentz_gamma=lorentz_gamma,
        quad_error=quad_error,
    )


def _shares_mesh(m: int, root_x) -> bool:
    """Whether the level sum runs on the shared mesh in x.

    The per-level k_z quadrature costs about m recurrence steps a point and
    the shared mesh about one row step a level at each node, besides a
    fixed cost per level and round.  Timed on one core along the figure
    curves by ``scripts/mesh_crossover.py`` (one run at a5f1eb0 on a
    2-core Intel Xeon host), the shared mesh over the k_z quadrature takes
    0.98 (m = 24), 0.85 (29), 0.78 (32), 0.65 (36), 0.63 (41), 0.48 (49)
    and 0.36 (60) of the time at p_perp^2 = 1e3; 1.05 (40), 0.84 (50),
    0.66 (60), 0.56 (70) and 0.50 (80) at 5e3; 2.47 (30), 0.92 (60), 0.81
    (66), 0.70 (70) and 0.62 (80) at 1e4, where the mesh converges in one
    round at every point; 1.89 (65) and 1.32 (80) at 3e4; 1.56 (100) and
    0.92 (120) at 5e4.  In m (levels) the crossover lies near 7,200 at
    1e3, between 5,200 and 8,200 at 5e3, between 2,000 and 7,700 at 1e4
    and between 12,300 and 17,640 at 5e4, and past the end of the 3e4
    curve (8,800): the product does not order it across curves, so the
    threshold sits above every crossover, where no figure point takes
    longer on the mesh.  It sends the points from m = 41 at 1e3 and from
    m = 79 at 5e3 to it.  At dcf9b43 a lower threshold did not pay on the
    seed-7 sample of the figure points that the benchmark's ``figures``
    workload runs: with whole passes alternated in one process
    (one BLAS thread, CPU time at the benchmark's reference pace, three
    processes of 12 rounds), 10,000 took 1.6-3.8% longer in the median
    than 20,000 and was faster in 2-5 of 12 rounds, and 8,000 took
    5.1-8.8% longer and was faster in 0-3.  A process that runs level sums
    on the mesh holds about 2 MiB more at its peak: the mesh's import, and
    Miller's store (about 1 MiB at (1e3, 71)).  The level kernel of the
    k_z quadrature also refuses arguments past ``MAX_OVERLAP_ARGUMENT``,
    which X_0 bounds.
    """
    return m * root_x.size >= _SHARED_MESH_WORK or root_x[0] * root_x[0] > MAX_OVERLAP_ARGUMENT


def _kz_level_integrals(channel: DecayChannel, state: MagnetizedState, rel_tol: float, abs_tol: float):
    """Every level's integral over its own k_z interval: one multi-interval
    quadrature, whose rounds evaluate the pending panels of all levels
    together, each level with its own tolerance, panel budget and
    compensated sum."""
    cuts = kz_cutoffs(channel, state)
    return quadrature.integrate(
        lambda k_z, n: _integrand_arrays(channel, state, n, k_z),
        np.zeros(cuts.size),
        cuts,
        rel_tol,
        abs_tol,
    )


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


def free_rate_at_rest(channel: DecayChannel) -> float:
    """Field-free width in the parent rest frame [MeV]."""
    ratio_sq = (channel.m_charged / channel.m_parent) ** 2
    return channel.coupling**2 / (16.0 * math.pi * channel.m_parent) * (1.0 - ratio_sq)


def lll_ratio_exact(channel: DecayChannel, field: float) -> float:
    """Rate ratio with parent and daughter pinned to the lowest Landau level.

    Exact reduction of the general level sum at m = n = 0:

        ratio = 2 exp(-(1 + M^2/(2 field))) / sqrt(field)
                * int_0^{x_max} exp(sqrt(1 + M^2/field) sqrt(1 + x^2/field))
                  / sqrt(1 + x^2/field) dx,

    x_max = M^2 / (2 sqrt(M^2 + field)), on a fixed Gauss rule.
    """
    return _lll_ratio(channel, field, factored=False)


def lll_ratio_factored(channel: DecayChannel, field: float) -> float:
    """Lowest-level ratio with the exponential split into separate factors.

    Same structure as :func:`lll_ratio_exact` but with
    exp(-sqrt(1 + M^2/field)) pulled out of the integral and only
    exp(sqrt(1 + x^2/field)) kept inside.  The split is *not* an identity:
    this variant approaches the exact reduction times 1/e as the field
    grows, and differs more below the critical field.  Kept for comparison
    scans; not used in any derived quantity.
    """
    return _lll_ratio(channel, field, factored=True)


def _lll_ratio(channel: DecayChannel, field: float, factored: bool) -> float:
    """Both lowest-level forms: the integral of exp(c b)/b, b = sqrt(1 + x^2/field),
    with c = sqrt(1 + M^2/field) in the exact form and c = 1, its exp(-c)
    moved into the prefactor, in the factored one.  At field > M^2/2, b is
    in [1, sqrt(4/3)]: on this analytic, nearly constant integrand the
    30-point Gauss rule of :mod:`magdecay.quadrature` errs far below roundoff.
    """
    if channel.m_charged != 0.0:
        raise ValueError("lowest-level closed forms require a massless charged daughter")
    if not math.isfinite(field):
        raise ValueError(f"field must be finite, got {field}")
    m_sq = channel.m_parent**2
    if field <= m_sq / 2.0:
        raise ValueError(
            f"field {field} MeV^2 leaves more than the lowest daughter level open "
            f"(needs field > {m_sq / 2.0} MeV^2)"
        )
    root_a = math.sqrt(1.0 + m_sq / field)
    half = m_sq / (4.0 * math.sqrt(m_sq + field))  # x_max / 2
    prefactor = 2.0 * math.exp(-(1.0 + m_sq / (2.0 * field)))
    if factored:
        prefactor *= math.exp(-root_a)
    prefactor /= math.sqrt(field)
    c = 1.0 if factored else root_a
    x = half + half * quadrature._NODES[1::2]
    root_b = np.sqrt(1.0 + x * x / field)
    # compensated, so that the sum of the 30 terms adds no bias of its own
    return prefactor * half * math.fsum(quadrature._WEIGHTS_G[1::2] * (np.exp(c * root_b) / root_b))
