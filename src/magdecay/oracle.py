"""Brute-force verification of the closed-form overlap weight.

The production rate engine never integrates wavefunctions; it uses the
compact expression w(n, m, X) of ``specfun``.  This module recomputes the underlying object the slow way: the transverse
overlap amplitude

    A = int drho exp(-i q rho) psi_m(rho) psi_n(rho + delta)

between two unit-normalized oscillator modes shifted by delta, by a fixed
Gauss-Hermite rule over its real and imaginary parts.  In the momenta
q = k_x / sqrt(field) and delta = delta_k_y / sqrt(field) its squared
modulus must equal

    w(n, m, X),   X = (q^2 + delta^2) / 2 = (delta_k_y^2 + k_x^2) / (2 field),

for every parameter set.  This is a reference path, not a production
path: the amplitude uses neither the adaptive quadrature nor the overlap
recurrence of production.  The closed form is production's own level
kernel, ``specfun.overlap_weight_rows``, which takes every level sum
below the shared mesh's threshold.

Both sides take arrays, one entry per trial, and evaluate all trials
together: :func:`transverse_overlap_sq` runs one oscillator recurrence
that gives both modes of every trial at every node, and the closed form
is one call of the kernel, a row for each trial at its own (n, m), in the
order drawn.  Each trial gets the bits it gets in an array of its own,
so :func:`verify_closed_form` takes its trials in blocks of
``_TRIAL_BLOCK`` and hands each block over at once: its memory does not
grow with the number of trials.  A block is drawn in one call of the
seeded generator, a row of seven uniforms a trial, read from one stream
in order, so the report does not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import landau
from .specfun import overlap_weight_rows

__all__ = ["VERIFY_INDEX_MAX", "OverlapVerification", "verify_closed_form"]

# the randomized comparison draws both indices from [0, VERIFY_INDEX_MAX]
VERIFY_INDEX_MAX = 8
# trials drawn and compared at a time: a trial's nodes and modes take about
# 7 KB, so a block holds about 7 MB whatever the number of trials
_TRIAL_BLOCK = 1000

# nodes of the Gauss-Hermite rule of the amplitude: it is exact through
# degree 119, far above the degree n + m of the modes' product at any
# index the comparison draws
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


def transverse_overlap_sq(n: np.ndarray, m: np.ndarray, q: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """|A|^2 of each trial by a fixed Gauss-Hermite rule.

    In u = rho + delta/2 the integrand of A is exp(-u^2) times
    exp(-delta^2/4) exp(-i q rho) times a polynomial of degree at most
    n + m, so one fixed Gauss-Hermite rule of ``_NODES`` nodes, exact
    through degree 2 ``_NODES`` - 1, integrates it up to the tail of the
    oscillating factor's series.

    The modes of all trials at all nodes come from one oscillator
    recurrence with a per-point order, and each trial's row of terms is
    summed alone along the nodes, so a trial gets the bits it gets as an
    array of one.
    """
    rho = _RULE_NODES - delta[:, None] / 2.0
    modes = landau.oscillator_modes(
        np.concatenate((np.repeat(m, _NODES), np.repeat(n, _NODES))),
        np.concatenate((rho.ravel(), (rho + delta[:, None]).ravel())),
    )
    product = _RULE_WEIGHTS * (modes[: rho.size] * modes[rho.size :]).reshape(rho.shape)
    phase = q[:, None] * rho
    re = (product * np.cos(phase)).sum(axis=1)
    im = -(product * np.sin(phase)).sum(axis=1)
    return re * re + im * im


@dataclass(frozen=True)
class OverlapVerification:
    """Outcome of a seeded randomized closed-form comparison."""

    trials: int
    max_rel_err: float


def verify_closed_form(trials: int, seed: int = 0) -> OverlapVerification:
    """Compare the Gauss-Hermite amplitude against the closed form on seeded random draws.

    Momentum magnitudes are drawn from [0.3, 3] sqrt(field) with random
    signs: the upper end exercises arguments out to X = 9, while the lower
    cutoff keeps the smallest weights (high |n - m| at small X) above the
    double-precision cancellation floor of the rule's sum, where a relative
    comparison is still meaningful.  Both sides are compared per unit
    field, as |A|^2 / field is the amplitude's squared modulus in x.  The
    trials are drawn and compared ``_TRIAL_BLOCK`` at a time, and the
    report keeps the largest error of the blocks.  A trial's row of seven
    uniforms u gives n = floor(9 u_0), m = floor(9 u_1), the field
    10^(-0.3 + 3.6 u_2), |k_x| = (0.3 + 2.7 u_3) sqrt(field) and
    |delta_k_y| likewise from u_5, each momentum negative where its u_4 or
    u_6 is below 1/2.  Identical seeds give identical reports.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")

    rng = np.random.default_rng(seed)
    worst = []
    for block in range(0, trials, _TRIAL_BLOCK):
        # a row of seven uniforms a trial, read from the stream in order, so
        # a trial's draws do not depend on the block that holds it
        u = rng.random((min(_TRIAL_BLOCK, trials - block), 7))
        n, m = (u[:, :2] * (VERIFY_INDEX_MAX + 1)).astype(np.int64).T
        field = 10.0 ** (-0.3 + 3.6 * u[:, 2])
        root_field = np.sqrt(field)
        # |k_x| and |delta_k_y| from columns 3 and 5, their signs from 4 and 6
        sign = np.where(u[:, 4::2] < 0.5, -1.0, 1.0)
        k_x, d_ky = ((0.3 + 2.7 * u[:, 3::2]) * root_field[:, None] * sign).T
        numeric = transverse_overlap_sq(n, m, k_x / root_field, d_ky / root_field) / field
        reference = overlap_weight_rows(n, m, (d_ky**2 + k_x**2) / (2.0 * field)) / field
        worst.append(np.max(np.abs(numeric - reference) / reference))
    return OverlapVerification(trials, float(np.max(worst)))
