"""Brute-force verification of the closed-form overlap weight.

The production rate engine never integrates wavefunctions; it uses the
compact expression w(n, m, X) of ``specfun.overlap_rows``.  This
module recomputes the underlying object the slow way: the transverse
overlap amplitude

    A = int dx exp(-i k_x x) I_m(rho_parent(x)) I_n(rho_daughter(x))

between two guiding-center-shifted Landau modes, by a fixed Gauss-Hermite
rule over its real and imaginary parts.  The squared modulus, expressed
per unit field, must equal

    w(n, m, X) / field,   X = (delta_k_y^2 + k_x^2) / (2 field),

for every admissible parameter set.  Indices are capped low: this is a
reference path, not a production path, and its amplitude uses neither
the adaptive quadrature nor the overlap recurrence of production.

Both sides take a list of trials and evaluate them together:
:func:`transverse_overlap_sq` runs one oscillator recurrence that gives
both modes of every trial at every node, and
:func:`closed_form_overlap_sq` runs one ``overlap_rows`` row across levels
over all trials.  Each trial gets the bits it gets in a list of its own,
so :func:`verify_closed_form` draws all its trials first and passes them
in one list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import landau
from .specfun import overlap_rows

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

# nodes of the Gauss-Hermite rule of the amplitude: it is exact through
# degree 119, far above the degree 2 MAX_ORACLE_INDEX of the modes' product
_NODES = 60
# the positive half of the rule's nodes u_j, ascending, and the scaled
# weights W_j exp(u_j^2) of those nodes.  Written by
# ``scripts/gauss_hermite.py 60`` (40-digit arithmetic, nearest doubles).
_HALF_NODES = (
    0.14280123870343886,
    0.42850006422062753,
    0.7144887816725786,
    1.000963499560718,
    1.2881246748688937,
    1.5761790119750203,
    1.8653415312330317,
    2.155837871229211,
    2.4479069023076856,
    2.741803748069692,
    3.0378033382307494,
    3.336204653547587,
    3.6373358761707317,
    3.9415607339261847,
    4.249286435956007,
    4.560973757935836,
    4.877150077473151,
    5.198426534576294,
    5.525521086138684,
    5.859290196394235,
    6.200773557993438,
    6.551259167062921,
    6.912381532189319,
    7.286276594395599,
    7.675839937504888,
    8.085188654249022,
    8.52056928411763,
    8.992398001404945,
    9.520903677013319,
    10.159109246180087,
)
_HALF_WEIGHTS = (
    0.28561852135014937,
    0.2858113584763172,
    0.2861987315618609,
    0.28678408219184687,
    0.2875726848285672,
    0.28857178792100996,
    0.28979081369461823,
    0.29124162795309677,
    0.2929388959665151,
    0.2949005469273087,
    0.2971483783556906,
    0.2997088444915156,
    0.3026140910965243,
    0.30590332637412804,
    0.3096246590896687,
    0.31383759920069243,
    0.3186165185782841,
    0.3240555369342378,
    0.33027558140722346,
    0.33743486517671123,
    0.3457449391798057,
    0.3554962157972064,
    0.36710041248668246,
    0.3811651019964105,
    0.39863393572017014,
    0.42107475305944797,
    0.4513462762506833,
    0.4954270648433433,
    0.5689843746394151,
    0.7372410202542967,
)
# the whole rule, ascending in u and symmetric about 0 by construction
_RULE_NODES = np.concatenate((-np.array(_HALF_NODES[::-1]), _HALF_NODES))
_RULE_WEIGHTS = np.concatenate((_HALF_WEIGHTS[::-1], _HALF_WEIGHTS))


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


def closed_form_overlap_sq(trials: list[OverlapParams]) -> list[float]:
    """The compact predictions w(n, m, X)/field of the trials, in 1/MeV^2.

    One ``overlap_rows`` call, every trial a node that runs up to its level
    and keeps the weight there.  w is symmetric in (n, m), and with the
    larger index as the parent every trial's level is at or below the row's
    turning point, so no trial needs Miller's backward run.  The nodes go by
    level, descending.  A node gets the bits of its own row, so a trial gets
    the bits it gets as a list of one.
    """
    n = np.array([p.n for p in trials])
    m = np.array([p.m for p in trials])
    x = np.array([p.displacement_sq() for p in trials])
    low, high = np.minimum(n, m), np.maximum(n, m)
    order = np.argsort(-low, kind="stable")
    low = low[order]
    weight = np.empty(len(trials))
    for level, w in overlap_rows(high[order], x[order], low):
        at = low[: w.size] == level
        weight[order[: w.size][at]] = w[at]
    return (weight / np.array([p.field for p in trials])).tolist()


def transverse_overlap_sq(trials: list[OverlapParams]) -> list[float]:
    """|A|^2 per unit field of each trial by a fixed Gauss-Hermite rule, in 1/MeV^2.

    Working in the dimensionless transverse coordinate, the amplitude is

        A = int drho exp(-i q rho) psi_m(rho) psi_n(rho + delta),

    with q = k_x/sqrt(field), delta = delta_k_y/sqrt(field) and psi the
    unit-normalized oscillator modes; the result returned is A_re^2 + A_im^2
    divided by the field.  In u = rho + delta/2 the integrand is exp(-u^2)
    times exp(-delta^2/4) exp(-i q rho) times a polynomial of degree at most
    n + m, so one fixed Gauss-Hermite rule of ``_NODES`` nodes, exact
    through degree 2 ``_NODES`` - 1, integrates it up to the tail of the
    oscillating factor's series.

    The modes of all trials at all nodes come from one oscillator
    recurrence with a per-point order, and each trial's row of terms is
    summed alone along the nodes, so a trial gets the bits it gets as a
    list of one.
    """
    n = np.array([p.n for p in trials]).repeat(_NODES)
    m = np.array([p.m for p in trials]).repeat(_NODES)
    field = np.array([p.field for p in trials])
    root_field = np.sqrt(field)
    q = np.array([p.k_x_neutral for p in trials]) / root_field
    delta = np.array([p.delta_k_y for p in trials]) / root_field
    rho = _RULE_NODES - delta[:, None] / 2.0
    modes = landau.oscillator_modes(
        np.concatenate((m, n)), np.concatenate((rho.ravel(), (rho + delta[:, None]).ravel()))
    )
    product = _RULE_WEIGHTS * (modes[: rho.size] * modes[rho.size :]).reshape(rho.shape)
    phase = q[:, None] * rho
    re = (product * np.cos(phase)).sum(axis=1)
    im = -(product * np.sin(phase)).sum(axis=1)
    return ((re * re + im * im) / field).tolist()


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


def verify_closed_form(trials: int, seed: int = 0) -> OverlapVerification:
    """Compare the Gauss-Hermite amplitude against the closed form on seeded random draws.

    Momentum magnitudes are drawn from [0.3, 3] sqrt(field) with random
    signs: the upper end exercises arguments out to X = 9, while the lower
    cutoff keeps the smallest weights (high |n - m| at small X) above the
    double-precision cancellation floor of the rule's sum, where a relative
    comparison is still meaningful.  Identical seeds give identical reports.
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
        k_x = float(rng.uniform(0.3, 3.0) * scale * (-1.0, 1.0)[rng.integers(0, 2)])
        d_ky = float(rng.uniform(0.3, 3.0) * scale * (-1.0, 1.0)[rng.integers(0, 2)])
        draws.append(OverlapParams(n=n, m=m, k_x_neutral=k_x, delta_k_y=d_ky, field=field))

    max_err = -1.0
    worst: OverlapParams | None = None
    failures: list[tuple[OverlapParams, float]] = []
    compared = zip(draws, transverse_overlap_sq(draws), closed_form_overlap_sq(draws))
    for params, numeric, reference in compared:
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
