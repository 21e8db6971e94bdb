"""Decay of a charged scalar bound in a constant magnetic field.

Exact Landau-level sums for the decay width, the dimensionless ratio to the
time-dilated inertial rate, stable overlap-weight numerics, brute-force
verification oracles, and SI-unit orbit observables.  The package exports
what the level sum, its lowest-level closed forms and the verification
need; kinematics, unit conversions, the quadrature and the oracle's parts
live in their submodules (``landau``, ``units``, ``specfun``,
``quadrature``, ``oracle``).
"""

from .landau import DecayChannel, MagnetizedState, field_for_radial_energy
from .oracle import verify_closed_form
from .rate import (
    LevelRate,
    RateConvergenceError,
    RateResult,
    decay_rate,
    lll_ratio_exact,
    lll_ratio_factored,
)
from .specfun import overlap_completeness_sum

__version__ = "0.1.0"

__all__ = [
    "DecayChannel",
    "LevelRate",
    "MagnetizedState",
    "RateConvergenceError",
    "RateResult",
    "decay_rate",
    "field_for_radial_energy",
    "lll_ratio_exact",
    "lll_ratio_factored",
    "overlap_completeness_sum",
    "verify_closed_form",
]
