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
grow with the number of trials.

The draws come from a counter-based SplitMix64 (Steele, Lea & Flood,
"Fast splittable pseudorandom number generators", OOPSLA 2014) formed in
uint64 arrays: the uniform of trial t and column c is SplitMix64's output
function of key + (7 t + c + 1) * 0x9E3779B97F4A7C15 mod 2^64, its top 53
bits times 2^-53, where the key is that output function of the seed, a
bijection of [0, 2^64) that maps seed 0 onto key 0.  So a trial's draws
depend only on the seed and the trial, not on the block that holds it,
distinct seeds give distinct keys, and integer arithmetic gives the same
bits on every host; ``numpy.random`` is never loaded.  The field is taken
per trial by Python's float power (the C library's ``pow``), so every
draw has the same bits everywhere.  What still rests on numpy's SIMD
dispatch is the rule's side: the array ``np.exp`` of
:func:`landau.oscillator_modes` and the ``np.cos`` and ``np.sin`` of the
phases, each of which may differ from the C library by an ulp.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import landau
from .specfun import overlap_weight_rows

__all__ = ["VERIFY_INDEX_MAX", "SEED_MAX", "OverlapVerification", "verify_closed_form"]

# the randomized comparison draws both indices from [0, VERIFY_INDEX_MAX]
VERIFY_INDEX_MAX = 8
# seeds are 64-bit words, [0, SEED_MAX]
SEED_MAX = 2**64 - 1
# SplitMix64's increment, the odd integer nearest 2^64 / golden ratio
_GAMMA = 0x9E3779B97F4A7C15
# uniforms a trial draws: n, m, the field, and each momentum's size and sign
_COLUMNS = 7
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


def _mix64(z):
    """SplitMix64's output function of 64-bit words: a Python int in
    [0, 2^64), or a uint64 array, which it overwrites (its products wrap
    silently, and the masks leave it as it is)."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z &= SEED_MAX
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z &= SEED_MAX
    z ^= z >> 31
    return z


def _uniforms(key: int, first: int, count: int) -> np.ndarray:
    """The ``(count, 7)`` uniforms in [0, 1) of trials first .. first + count - 1.

    Entry (t, c) is SplitMix64's output at counter 7 t + c + 1 from ``key``
    (:func:`_mix64` of the seed), its top 53 bits times 2^-53.  Seen from
    key 0, its first three words are SplitMix64's outputs from state 0.
    """
    word = np.arange(_COLUMNS * first + 1, _COLUMNS * (first + count) + 1, dtype=np.uint64)
    word *= _GAMMA
    word += key
    bits = _mix64(word) >> 11
    return (bits * 2.0**-53).reshape(count, _COLUMNS)


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
    uniforms u (:func:`_uniforms`, counter-based SplitMix64) gives
    n = floor(9 u_0), m = floor(9 u_1), the field 10^(-0.3 + 3.6 u_2) by
    Python's float power, |k_x| = (0.3 + 2.7 u_3) sqrt(field) and
    |delta_k_y| likewise from u_5, each momentum negative where its u_4 or
    u_6 is below 1/2.  A trial's draws depend only on the seed and the
    trial, so identical seeds give identical reports whatever the block
    size.  The seed is an int in [0, ``SEED_MAX``] = [0, 2^64 - 1]; any
    other raises :class:`ValueError`.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    seed = operator.index(seed)
    if not 0 <= seed <= SEED_MAX:
        raise ValueError(f"seed must be in [0, 2^64 - 1 = {SEED_MAX}], got {seed}")

    key = _mix64(seed)
    worst = []
    for block in range(0, trials, _TRIAL_BLOCK):
        u = _uniforms(key, block, min(_TRIAL_BLOCK, trials - block))
        n, m = (u[:, :2] * (VERIFY_INDEX_MAX + 1)).astype(np.int64).T
        field = np.array([10.0**v for v in (-0.3 + 3.6 * u[:, 2]).tolist()])
        root_field = np.sqrt(field)
        # |k_x| and |delta_k_y| from columns 3 and 5, their signs from 4 and 6
        sign = np.where(u[:, 4::2] < 0.5, -1.0, 1.0)
        k_x, d_ky = ((0.3 + 2.7 * u[:, 3::2]) * root_field[:, None] * sign).T
        numeric = transverse_overlap_sq(n, m, k_x / root_field, d_ky / root_field) / field
        reference = overlap_weight_rows(n, m, (d_ky**2 + k_x**2) / (2.0 * field)) / field
        worst.append(np.max(np.abs(numeric - reference) / reference))
    return OverlapVerification(trials, float(np.max(worst)))
