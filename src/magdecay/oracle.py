"""Brute-force verification of the closed-form overlap weight.

The production rate engine never integrates wavefunctions; it uses the
compact expression ``overlap_weight(n, m, X)``.  This module recomputes the
underlying object the slow way: the transverse overlap amplitude

    A = int dx exp(-i k_x x) I_m(rho_parent(x)) I_n(rho_daughter(x))

between two guiding-center-shifted Landau modes, by direct quadrature of
its real and imaginary parts.  The squared modulus, expressed per unit
field, must equal

    overlap_weight(n, m, X) / field,   X = (delta_k_y^2 + k_x^2) / (2 field),

for every admissible parameter set.  Indices are capped low: this is a
reference path, not a production path.

:func:`verify_closed_form` draws all its trials first and integrates them
together: each stage of the window doubling is one multi-interval
quadrature over the real and imaginary parts of every trial still open,
and the integrand evaluates both modes of all its points in one
oscillator recurrence with a per-point order.  Each trial gets the bits
that :func:`transverse_overlap_sq`, a batch of one, gives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import landau, quadrature
from .specfun import overlap_weight

__all__ = [
    "MAX_ORACLE_INDEX",
    "VERIFY_INDEX_MAX",
    "VERIFY_TOLERANCE",
    "OverlapParams",
    "transverse_overlap_sq",
    "closed_form_overlap_sq",
    "OverlapVerification",
    "verify_closed_form",
]

MAX_ORACLE_INDEX = 12
# the randomized comparison draws both indices from [0, VERIFY_INDEX_MAX]
# and fails a draw whose relative error reaches VERIFY_TOLERANCE
VERIFY_INDEX_MAX = 8
VERIFY_TOLERANCE = 1e-6

# quadrature details of the reference path: window half-width in units of
# the magnetic length, growth cap, and the absolute floor for the two real
# quadratures (the amplitude itself is bounded by one)
_WINDOW_PAD = 8.0
_MAX_DOUBLINGS = 6
_ABS_TOL = 1e-15


@dataclass(frozen=True)
class OverlapParams:
    """Inputs of one overlap evaluation.

    ``k_x_neutral`` and ``delta_k_y`` are the momentum transfers [MeV]
    entering the displacement; ``field`` is |e|B in MeV^2.
    """

    n: int
    m: int
    k_x_neutral: float
    delta_k_y: float
    field: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.k_x_neutral, self.delta_k_y, self.field))):
            raise ValueError(
                f"momenta and field must be finite, got k_x_neutral={self.k_x_neutral}, "
                f"delta_k_y={self.delta_k_y}, field={self.field}"
            )
        if self.field <= 0.0:
            raise ValueError(f"field must be positive, got {self.field}")
        if min(self.n, self.m) < 0:
            raise ValueError("indices must be nonnegative")
        if max(self.n, self.m) > MAX_ORACLE_INDEX:
            raise ValueError(
                f"indices ({self.n}, {self.m}) above the reference-path cap {MAX_ORACLE_INDEX}"
            )

    def displacement_sq(self) -> float:
        """X = (delta_k_y^2 + k_x^2) / (2 field), the closed form's argument."""
        return (self.delta_k_y**2 + self.k_x_neutral**2) / (2.0 * self.field)


def closed_form_overlap_sq(params: OverlapParams) -> float:
    """The compact prediction overlap_weight(n, m, X)/field in 1/MeV^2."""
    return overlap_weight(params.n, params.m, params.displacement_sq()) / params.field


def transverse_overlap_sq(params: OverlapParams, rel_tol: float = 1e-9) -> float:
    """|A|^2 per unit field by direct quadrature, in 1/MeV^2.

    Working in the dimensionless transverse coordinate, the amplitude is

        A = int drho exp(-i q rho) psi_m(rho) psi_n(rho + delta),

    with q = k_x/sqrt(field), delta = delta_k_y/sqrt(field) and psi the
    unit-normalized oscillator modes; the result returned is A_re^2 + A_im^2
    divided by the field.  The window starts at +-(8 + sqrt(2 max(n,m)+1))
    around the midpoint of the two envelope centers and doubles until the
    value is stable to 1e-12 of itself (capped: once the window swallows
    both envelopes whole, further change is pure roundoff).
    """
    return _overlap_sq_batch([params], rel_tol)[0]


def _overlap_sq_batch(trials: list[OverlapParams], rel_tol: float) -> list[float]:
    """:func:`transverse_overlap_sq` of every trial, with its bits, in shared quadratures.

    Each window stage is one multi-interval quadrature with two intervals
    per trial, the real and the imaginary part of its amplitude: the first
    two stages run every trial, each later doubling only the trials whose
    value has not yet converged.  Since every interval of a multi-interval
    quadrature gets exactly the result it would get alone, each trial's
    value is the one its own window loop gives.  When a panel budget runs
    out, :class:`quadrature.QuadraturePanelError` names the lowest failing
    interval of that stage, which need not belong to the trial that one
    trial at a time would have stopped at.
    """
    n = np.array([p.n for p in trials])
    m = np.array([p.m for p in trials])
    root_field = np.sqrt([p.field for p in trials])
    q = np.array([p.k_x_neutral for p in trials]) / root_field
    delta = np.array([p.delta_k_y for p in trials]) / root_field
    center = -delta / 2.0

    def modulus_sq(active: np.ndarray, width: np.ndarray) -> list[float]:
        # interval 2j is the real part of trial active[j], 2j + 1 its
        # imaginary part; the modes of both factors share one recurrence
        def integrand(panel_r: np.ndarray, panel_i: np.ndarray) -> np.ndarray:
            r, i = panel_r.ravel(), panel_i.repeat(panel_r.shape[1])
            t = active[i >> 1]
            rho = np.concatenate((r, r + delta[t]))
            modes = landau.oscillator_modes(np.concatenate((m[t], n[t])), rho)
            product = modes[: r.size] * modes[r.size :]
            phase = q[t] * r
            imag = (i & 1).astype(bool)
            real = ~imag
            out = np.empty_like(r)
            out[real] = np.cos(phase[real]) * product[real]
            out[imag] = -np.sin(phase[imag]) * product[imag]
            return out.reshape(panel_r.shape)

        lo = (center[active] - width).repeat(2)
        hi = (center[active] + width).repeat(2)
        parts, _ = quadrature.integrate(integrand, lo, hi, rel_tol, _ABS_TOL)
        return [re * re + im * im for re, im in zip(parts[0::2], parts[1::2])]

    width = _WINDOW_PAD + np.sqrt(2.0 * np.maximum(n, m) + 1.0)
    active = np.arange(len(trials))
    value = modulus_sq(active, width)
    for _ in range(_MAX_DOUBLINGS):
        width = 2.0 * width
        wider = modulus_sq(active, width)
        still_open = []
        for j, t in enumerate(active.tolist()):
            converged = abs(wider[j] - value[t]) <= 1e-12 * abs(wider[j]) + 1e-28
            if not converged:
                still_open.append(j)
            value[t] = wider[j]
        if not still_open:
            break
        active, width = active[still_open], width[still_open]
    return [v / p.field for v, p in zip(value, trials)]


@dataclass(frozen=True)
class OverlapVerification:
    """Outcome of a seeded randomized closed-form comparison."""

    trials: int
    seed: int
    max_rel_err: float
    worst: OverlapParams
    failures: tuple[tuple[OverlapParams, float], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_closed_form(trials: int, seed: int = 0, rel_tol: float = 1e-9) -> OverlapVerification:
    """Compare quadrature against the closed form on seeded random draws.

    Momentum magnitudes are drawn from [0.3, 3] sqrt(field) with random
    signs: the upper end exercises arguments out to X = 9, while the lower
    cutoff keeps the smallest weights (high |n - m| at small X) above the
    double-precision cancellation floor of the quadrature, where a relative
    comparison is still meaningful.  Identical seeds give identical reports.

    All trials are drawn first and integrated together (see
    :func:`_overlap_sq_batch`), so a panel-budget failure raises
    :class:`quadrature.QuadraturePanelError` for the lowest failing interval
    of a window stage, which may belong to a later trial than the one a
    trial-by-trial run would stop at.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")

    rng = np.random.default_rng(seed)
    draws: list[OverlapParams] = []
    for _ in range(trials):
        n = int(rng.integers(0, VERIFY_INDEX_MAX + 1))
        m = int(rng.integers(0, VERIFY_INDEX_MAX + 1))
        field = float(10.0 ** rng.uniform(-0.3, 3.3))
        scale = math.sqrt(field)
        k_x = float(rng.uniform(0.3, 3.0) * scale * rng.choice((-1.0, 1.0)))
        d_ky = float(rng.uniform(0.3, 3.0) * scale * rng.choice((-1.0, 1.0)))
        draws.append(OverlapParams(n=n, m=m, k_x_neutral=k_x, delta_k_y=d_ky, field=field))

    max_err = -1.0
    worst: OverlapParams | None = None
    failures: list[tuple[OverlapParams, float]] = []
    for params, numeric in zip(draws, _overlap_sq_batch(draws, rel_tol)):
        reference = closed_form_overlap_sq(params)
        rel_err = abs(numeric - reference) / reference
        if rel_err > max_err:
            max_err, worst = rel_err, params
        if rel_err >= VERIFY_TOLERANCE:
            failures.append((params, rel_err))

    assert worst is not None
    return OverlapVerification(
        trials=trials,
        seed=seed,
        max_rel_err=max_err,
        worst=worst,
        failures=tuple(failures),
    )
