"""Natural-unit (MeV) to SI conversions and classical orbit kinematics.

Everything upstream of this module works in natural units (hbar = c = 1,
energies in MeV, lengths in 1/MeV, fields as |e|B in MeV^2).  The
conversions here are the only place SI units appear.
"""

from __future__ import annotations

import math

__all__ = [
    "HBAR_C_MEV_FM",
    "HBAR_MEV_S",
    "C_M_PER_S",
    "ELECTRON_MASS_MEV",
    "ELECTRON_CRITICAL_FIELD_GAUSS",
    "radius_si",
    "acceleration_si",
    "de_broglie_si",
    "field_to_gauss",
]

# CODATA 2018 anchors for the natural-unit -> SI boundary
HBAR_C_MEV_FM = 197.3269804
HBAR_MEV_S = 6.582119569e-22
C_M_PER_S = 2.99792458e8
ELECTRON_MASS_MEV = 0.51099895
# the field at which |e|B equals the squared electron mass; it anchors the
# MeV^2 -> Gauss conversion
ELECTRON_CRITICAL_FIELD_GAUSS = 4.414e13

_FM_TO_M = 1e-15


def radius_si(p_perp: float, m_level: int) -> float:
    """Orbit radius (2m+1)/p_perp in meters for radial momentum ``p_perp`` [MeV]."""
    if not math.isfinite(p_perp):
        raise ValueError(f"p_perp must be finite, got {p_perp}")
    if p_perp <= 0.0:
        raise ValueError(f"p_perp must be positive, got {p_perp}")
    if m_level < 0:
        raise ValueError(f"m_level must be nonnegative, got {m_level}")
    return (2 * m_level + 1) / p_perp * HBAR_C_MEV_FM * _FM_TO_M


def acceleration_si(p_perp: float, m_level: int, omega: float) -> float:
    """Centripetal acceleration p_perp^3 / ((2m+1) omega^2) in m/s^2.

    ``omega`` is the total energy of the orbiting particle in MeV.  Where
    p_perp^3 overflows (p_perp^2 above about 3e205 MeV^2) while the
    acceleration does not, it is formed as p_perp (p_perp / omega)^2 / (2m+1).
    """
    if not math.isfinite(p_perp):
        raise ValueError(f"p_perp must be finite, got {p_perp}")
    if p_perp <= 0.0:
        raise ValueError(f"p_perp must be positive, got {p_perp}")
    if m_level < 0:
        raise ValueError(f"m_level must be nonnegative, got {m_level}")
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    try:
        a_natural = p_perp**3 / ((2 * m_level + 1) * omega * omega)
    except OverflowError:
        a_natural = p_perp * (p_perp / omega) ** 2 / (2 * m_level + 1)
    return a_natural * C_M_PER_S / HBAR_MEV_S


def de_broglie_si(p_perp: float) -> float:
    """de Broglie wavelength 2*pi*hbar*c / p_perp in meters."""
    if not math.isfinite(p_perp):
        raise ValueError(f"p_perp must be finite, got {p_perp}")
    if p_perp <= 0.0:
        raise ValueError(f"p_perp must be positive, got {p_perp}")
    return 2.0 * math.pi * HBAR_C_MEV_FM / p_perp * _FM_TO_M


def field_to_gauss(field: float) -> float:
    """Convert |e|B [MeV^2] to Gauss by linear scaling from the electron critical field."""
    if not math.isfinite(field):
        raise ValueError(f"field must be finite, got {field}")
    if field < 0.0:
        raise ValueError(f"field must be nonnegative, got {field}")
    m_e_sq = ELECTRON_MASS_MEV**2
    return field / m_e_sq * ELECTRON_CRITICAL_FIELD_GAUSS

