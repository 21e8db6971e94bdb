"""Decay of a charged scalar bound in a constant magnetic field.

Exact Landau-level sums for the decay width, the dimensionless ratio to the
time-dilated inertial rate, stable overlap-weight numerics, brute-force
verification oracles, and SI-unit orbit observables.
"""

from .landau import (
    DecayChannel,
    LandauWavefunction,
    MagnetizedState,
    field_for_radial_energy,
    field_for_radius,
    kz_cutoff,
    landau_energy,
    max_daughter_level,
    orbit_radius_sq,
    radial_energy_for_radius,
    transverse_wavefunction,
)
from .oracle import (
    OverlapParams,
    OverlapVerification,
    closed_form_overlap_sq,
    transverse_overlap_sq,
    verify_closed_form,
)
from .rate import (
    LevelRate,
    QuadratureConfig,
    RateConvergenceError,
    RateResult,
    decay_rate,
    free_rate_at_rest,
    free_rate_boosted,
    level_integrand,
    lifetime,
    lll_ratio_exact,
    lll_ratio_factored,
)
from .specfun import (
    hermite,
    laguerre_assoc,
    log_factorial_ratio,
    overlap_completeness_sum,
    overlap_weight,
)
from .units import (
    CONSTANTS,
    OrbitObservables,
    PhysicalConstants,
    acceleration_si,
    classical_acceleration,
    classical_radius,
    de_broglie_si,
    field_to_gauss,
    orbit_observables,
    radius_si,
)

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS",
    "DecayChannel",
    "LandauWavefunction",
    "LevelRate",
    "MagnetizedState",
    "OrbitObservables",
    "OverlapParams",
    "OverlapVerification",
    "PhysicalConstants",
    "QuadratureConfig",
    "RateConvergenceError",
    "RateResult",
    "acceleration_si",
    "classical_acceleration",
    "classical_radius",
    "closed_form_overlap_sq",
    "de_broglie_si",
    "decay_rate",
    "field_for_radial_energy",
    "field_for_radius",
    "field_to_gauss",
    "free_rate_at_rest",
    "free_rate_boosted",
    "hermite",
    "kz_cutoff",
    "laguerre_assoc",
    "landau_energy",
    "level_integrand",
    "lifetime",
    "lll_ratio_exact",
    "lll_ratio_factored",
    "log_factorial_ratio",
    "max_daughter_level",
    "orbit_observables",
    "orbit_radius_sq",
    "overlap_completeness_sum",
    "overlap_weight",
    "radial_energy_for_radius",
    "radius_si",
    "transverse_overlap_sq",
    "transverse_wavefunction",
    "verify_closed_form",
]
