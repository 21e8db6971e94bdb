"""Kinematics of charged scalars in a constant magnetic field.

Landau energies, the kinematic cutoffs that make the decay sum finite, the
discrete field/level/radius/energy relations, and the normalized transverse
wavefunctions used by the brute-force overlap check.

Conventions: natural units (MeV), ``field`` is the product |e|B in MeV^2,
and only that product ever enters a formula, so the charge sign never
appears.  The parent's longitudinal momentum is fixed to zero; the rate
formulas implemented downstream are valid only for that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_HERMITE_ORDER",
    "DecayChannel",
    "MagnetizedState",
    "landau_energy",
    "kz_cutoffs",
    "field_for_radial_energy",
    "radial_energy_for_radius",
    "transverse_wavefunction",
    "oscillator_modes",
]

# the highest order transverse_wavefunction accepts
MAX_HERMITE_ORDER = 200


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
        if self.m_parent <= 0.0 or self.m_charged < 0.0:
            raise ValueError("masses must be nonnegative and the parent massive")
        if self.m_parent <= self.m_charged:
            # the neutral daughter adds nothing to the threshold
            raise ValueError(
                f"decay closed: parent {self.m_parent} MeV <= daughters "
                f"{self.m_charged} + 0.0 MeV"
            )
        if self.coupling <= 0.0:
            raise ValueError(f"coupling must be positive, got {self.coupling}")


@dataclass(frozen=True)
class MagnetizedState:
    """Parent particle in Landau level ``level`` of field ``field`` [MeV^2].

    Its longitudinal momentum is zero; the level sum downstream is derived
    for that case only.
    """

    field: float
    level: int

    def __post_init__(self) -> None:
        if self.field <= 0.0:
            raise ValueError(f"field must be positive, got {self.field}")
        if self.level < 0:
            raise ValueError(f"level must be nonnegative, got {self.level}")

    def energy(self, mass: float) -> float:
        """Landau energy of a particle of ``mass`` in this state."""
        return landau_energy(mass, self.level, self.field)


def landau_energy(mass: float, level: int, field: float) -> float:
    """sqrt(mass^2 + (2 level + 1) field), at zero longitudinal momentum."""
    if field <= 0.0:
        raise ValueError(f"field must be positive, got {field}")
    if mass < 0.0:
        raise ValueError(f"mass must be nonnegative, got {mass}")
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    return math.sqrt(mass * mass + (2 * level + 1) * field)


def kz_cutoffs(channel: DecayChannel, state: MagnetizedState) -> np.ndarray:
    """Largest |k_z| [MeV] open to the charged daughter in each level 0..n_max.

    n_max is the floor of (omega^2 - field - m_charged^2) / (2 field) with
    omega the parent energy; an empty array means no level is open.  A bound
    within 1e-9 of an integer is nudged down by 1e-12 before flooring so a
    level with exactly zero phase space is excluded deterministically (it
    would contribute zero either way).
    """
    omega = state.energy(channel.m_parent)
    arg = (omega * omega - state.field - channel.m_charged**2) / (2.0 * state.field)
    if abs(arg - round(arg)) < 1e-9:
        arg -= 1e-12
    if arg < 0.0:
        return np.empty(0)
    n = np.arange(math.floor(arg) + 1)
    cut = (omega * omega - channel.m_charged**2 - (2 * n + 1) * state.field) / (2.0 * omega)
    return np.maximum(cut, 0.0)


def field_for_radial_energy(p_perp_sq: float, level: int) -> float:
    """|e|B = p_perp^2 / (2 level + 1): the discrete fields compatible with fixed p_perp."""
    if p_perp_sq <= 0.0:
        raise ValueError(f"p_perp_sq must be positive, got {p_perp_sq}")
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    return p_perp_sq / (2 * level + 1)


def radial_energy_for_radius(radius: float, level: int) -> float:
    """p_perp = (2 level + 1) / radius at fixed orbit radius [1/MeV]."""
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    return (2 * level + 1) / radius


def transverse_wavefunction(n: int, field: float, rho):
    """Normalized transverse mode I_n(rho), unit-normalized in x.

    Equals (sqrt(field) / (sqrt(pi) 2^n n!))^(1/2) exp(-rho^2/2) H_n(rho),
    that is field^(1/4) times the dimensionless mode of
    :func:`oscillator_modes`.  With rho = sqrt(field) x + shift the square
    integrates to one over x.
    """
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    if n > MAX_HERMITE_ORDER:
        raise ValueError(f"order {n} above cap {MAX_HERMITE_ORDER}")
    if field <= 0.0:
        raise ValueError(f"field must be positive, got {field}")
    rho = np.asarray(rho, dtype=float)
    value = field**0.25 * oscillator_modes(n, rho.ravel()).reshape(rho.shape)
    return float(value) if rho.ndim == 0 else value


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
