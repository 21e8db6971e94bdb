"""Kinematics of charged scalars in a constant magnetic field.

Landau energies, the kinematic edges that make the decay sum finite, the
discrete field/level/radius/energy relations, and the unit-normalized
oscillator modes used by the brute-force overlap check.

Conventions: natural units (MeV), ``field`` is the product |e|B in MeV^2,
and only that product ever enters a formula, so the charge sign never
appears.  The parent's longitudinal momentum is fixed to zero; the rate
formulas implemented downstream are valid only for that choice.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .specfun import MAX_OVERLAP_INDEX

__all__ = [
    "DecayChannel",
    "MagnetizedState",
    "level_edges",
    "field_for_radial_energy",
    "radial_energy_for_radius",
    "oscillator_modes",
]


@dataclass(frozen=True)
class DecayChannel:
    """Two-body scalar decay parent -> charged + massless neutral.

    The level sum and its cutoffs are derived for a massless neutral
    daughter only.  ``coupling`` is the dimensionful interaction strength
    in MeV; rate *ratios* do not depend on it.
    """

    m_parent: float
    m_charged: float = 0.0
    coupling: float = 1.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.m_parent, self.m_charged, self.coupling))):
            raise ValueError(
                f"masses and coupling must be finite, got m_parent={self.m_parent}, "
                f"m_charged={self.m_charged}, coupling={self.coupling}"
            )
        if self.m_parent <= 0.0 or self.m_charged < 0.0:
            raise ValueError("masses must be nonnegative and the parent massive")
        if self.m_parent * self.m_parent < sys.float_info.min:
            # the cutoffs and energies square the parent mass
            raise ValueError(
                f"parent mass {self.m_parent} MeV squares below the normal float range"
            )
        if self.m_parent <= self.m_charged:
            # the neutral daughter adds nothing to the threshold
            raise ValueError(
                f"decay closed: parent {self.m_parent} MeV <= daughters "
                f"{self.m_charged} + 0.0 MeV"
            )
        if self.coupling <= 0.0:
            raise ValueError(f"coupling must be positive, got {self.coupling}")
        # the energies, cutoffs and widths square both (and the lighter
        # charged daughter's mass)
        for name, value in (("parent mass", self.m_parent), ("coupling", self.coupling)):
            if math.isinf(value * value):
                raise OverflowError(f"{name} {value:g} MeV squares past the float range")


@dataclass(frozen=True)
class MagnetizedState:
    """Parent particle in Landau level ``level`` of field ``field`` [MeV^2].

    Its longitudinal momentum is zero; the level sum downstream is derived
    for that case only.
    """

    field: float
    level: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.field):
            raise ValueError(f"field must be finite, got {self.field}")
        if self.field <= 0.0:
            raise ValueError(f"field must be positive, got {self.field}")
        if self.level < 0:
            raise ValueError(f"level must be nonnegative, got {self.level}")

    def energy(self, mass: float) -> float:
        """Landau energy sqrt(mass^2 + (2 level + 1) field) of a particle of
        ``mass`` in this state, at zero longitudinal momentum."""
        if not math.isfinite(mass):
            raise ValueError(f"field and mass must be finite, got field={self.field}, mass={mass}")
        if mass < 0.0:
            raise ValueError(f"mass must be nonnegative, got {mass}")
        return math.sqrt(mass * mass + (2 * self.level + 1) * self.field)


def _open_levels(channel: DecayChannel, state: MagnetizedState):
    """The parent energy omega, the open daughter levels n = 0..n_max and
    omega^2 - a_n = M^2 - m_charged^2 + 2 (m - n) field of each, with
    a_n = m_charged^2 + (2n + 1) field.

    Level n is open while that difference is positive, so n_max is the
    floor of the bound m + s, s = (M^2 - m_charged^2) / (2 field); the
    difference is formed without subtracting the field from omega^2, so it
    keeps its digits at any field.  When s lies within 1e-9 (relative) of
    an integer j >= 1, level m + j has zero phase space and is dropped
    deterministically (it would contribute zero either way); a bound below
    one keeps level m open however small it is.  No open level gives empty
    arrays.  An n_max above the overlap index cap ``MAX_OVERLAP_INDEX``,
    a bound past the float range, or a field past half the largest float,
    whose double every level sum forms, raises :class:`ValueError` before
    any array is allocated.
    """
    omega = state.energy(channel.m_parent)
    gap = channel.m_parent**2 - channel.m_charged**2
    if math.isinf(2.0 * state.field):
        raise ValueError(
            f"field {state.field:.6g} MeV^2 is past half the float range: "
            "2 field, which the level sum forms, overflows"
        )
    excess = gap / (2.0 * state.field)
    if not excess > 0.0:
        return omega, np.empty(0, dtype=np.int64), np.empty(0)
    if not math.isfinite(excess):
        # the bound overflows: at a subnormal field, or just above the
        # normal range for a heavy parent
        weak = " is below the normal float range and" if state.field < sys.float_info.min else ""
        raise ValueError(
            f"field {state.field:.6g} MeV^2{weak} opens more than {sys.float_info.max:.3g} "
            f"daughter levels, above the overlap index cap {MAX_OVERLAP_INDEX}"
        )
    steps = math.floor(excess)
    nearest = round(excess)
    if nearest >= 1 and abs(excess - nearest) <= 1e-9 * nearest:
        steps = nearest - 1
    n_max = state.level + steps
    if n_max > MAX_OVERLAP_INDEX:
        # to 15 digits: exact below 1e15, not 300 digits at the weakest fields
        raise ValueError(
            f"{n_max + 1:.15g} daughter levels open (n_max = {n_max:.15g}), "
            f"above the overlap index cap {MAX_OVERLAP_INDEX}"
        )
    n = np.arange(n_max + 1)
    return omega, n, gap + 2 * (state.level - n) * state.field


def level_edges(
    channel: DecayChannel, state: MagnetizedState
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The square roots of X_n and Y_n [1], and the largest |k_z| K_n [MeV], of
    each level n = 0..n_max open to the charged daughter.

    Level n's share of the width is an integral over the neutral
    daughter's squared transverse momentum over twice the field,
    x in [0, X_n], of w(n, m, x) / sqrt((X_n - x)(Y_n - x)), with

        X_n = (omega - sqrt(a_n))^2 / (2 field),
        Y_n = (omega + sqrt(a_n))^2 / (2 field),   a_n = m_charged^2 + (2n + 1) field.

    omega - sqrt(a_n) is taken as (omega^2 - a_n) / (omega + sqrt(a_n)),
    with the open levels and that difference from :func:`_open_levels`, so
    that X_n keeps its digits.  In the charged daughter's longitudinal
    momentum the same level is the integral over |k_z| <= K_n, with
    K_n = (omega^2 - a_n) / (2 omega) = field sqrt(X_n Y_n) / omega.  The
    roots are returned because X_n itself falls below the float range at
    strong fields (about 1e-405 at 1e206 MeV^2), where sqrt(X_n) does not.
    Empty arrays mean no level is open.
    """
    omega, n, head = _open_levels(channel, state)
    head = np.maximum(head, 0.0)
    outer = omega + np.sqrt(channel.m_charged**2 + (2 * n + 1) * state.field)
    root_field = math.sqrt(2.0 * state.field)
    return head / outer / root_field, outer / root_field, head / (2.0 * omega)


def field_for_radial_energy(p_perp_sq: float, level: int) -> float:
    """|e|B = p_perp^2 / (2 level + 1): the discrete fields compatible with fixed p_perp."""
    if not math.isfinite(p_perp_sq):
        raise ValueError(f"p_perp_sq must be finite, got {p_perp_sq}")
    if p_perp_sq <= 0.0:
        raise ValueError(f"p_perp_sq must be positive, got {p_perp_sq}")
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    return p_perp_sq / (2 * level + 1)


def radial_energy_for_radius(radius: float, level: int) -> float:
    """p_perp = (2 level + 1) / radius at fixed orbit radius [1/MeV]."""
    if not math.isfinite(radius):
        raise ValueError(f"radius must be finite, got {radius}")
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    return (2 * level + 1) / radius


def oscillator_modes(order, rho: np.ndarray) -> np.ndarray:
    """Unit-normalized oscillator modes psi_{order_i}(rho_i) of a 1-D array ``rho``.

    ``order`` is one nonnegative int or an integer array shaped like
    ``rho``.  Every row runs through the bounded recurrence

        psi_0 = pi^(-1/4) exp(-rho^2/2),
        psi_{k+1} = sqrt(2/(k+1)) rho psi_k - sqrt(k/(k+1)) psi_{k-1},

    up to the largest order, and keeps its value at its own order, so no
    intermediate ever overflows and each row gets the bits it would get
    alone.
    """
    top = int(np.max(order))
    psi_prev = math.pi**-0.25 * np.exp(-rho * rho / 2.0)
    value = psi_prev.copy()
    if top > 0:
        psi_cur = math.sqrt(2.0) * rho * psi_prev
        for k in range(1, top):
            np.copyto(value, psi_cur, where=order == k)
            psi_prev, psi_cur = psi_cur, (
                math.sqrt(2.0 / (k + 1.0)) * rho * psi_cur
                - math.sqrt(k / (k + 1.0)) * psi_prev
            )
        np.copyto(value, psi_cur, where=order == top)
    return value
