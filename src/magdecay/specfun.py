"""Stable special-function evaluation for Landau-level overlap weights.

The central object is :func:`overlap_weight`,

    w(n, m, x) = (min(n,m)! / max(n,m)!) * exp(-x) * x**|n-m|
                 * L_min(n,m)^{|n-m|}(x)**2,

the squared transverse overlap between two Landau states whose guiding
centers and momenta differ by a displacement of squared magnitude ``2*x``
times the magnetic length.  It is a probability: 0 <= w <= 1, symmetric in
(n, m), and sums to one over either index.

Forming the associated Laguerre value and the factorial ratio separately
overflows long before the physically interesting index range is reached.
The bounded quantity is the *normalized* function

    phi_k^d(x) = sqrt(k! / (k+d)!) * x**(d/2) * exp(-x/2) * L_k^d(x),

|phi| <= 1, and w = phi**2.  :func:`overlap_weight_rows` seeds phi_0^d in
the log domain and runs the *monic* three-term recurrence

    psi_{j+1} = (2j+1+d-x) psi_j - j(j+d) psi_{j-1},

whose iterates are phi_j times the square root of the product of i(i+d)
over the steps i since the last renormalization.  Its coefficients are
exact integers, so a step needs no square root or division: per point it
is four array operations, plus two that advance 2j+1+d and j(j+d), and per
row one that extends that product.  Every 32 steps each row still
stepping, and each row once it has finished, is divided by the square
root of its product, which brings it back to phi.  Since every
i(i+d) <= 1e4 * 2e4 at the index cap, |psi| stays below
sqrt(2e8)**32 ~ 7e132 inside a block.

The rows are levels n_i against one parent level m.  A 1-D ``x`` holds one
point per row; a 2-D ``x`` holds a row of points per level (the level sum
passes one quadrature panel's 61 points per row), so the product and the
seed's per-level work are kept once per row.  Every point gets the bits it
would get as a one-point row of its own.  ``overlap_weight`` is a one-row
call and ``overlap_completeness_sum`` a one-point-per-row call.

The normalized recurrence of earlier versions divided by sqrt((j+1)(j+1+d))
at every step; the monic one rounds differently, which moved Gamma and the
rate ratios in their last one or two digits (at most 8.8e-16 relative over
the figure datasets).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MAX_OVERLAP_INDEX",
    "MAX_OVERLAP_ARGUMENT",
    "overlap_weight",
    "overlap_weight_rows",
    "overlap_completeness_sum",
]

MAX_OVERLAP_INDEX = 10_000
# exp(-x/2) must stay inside the normal float64 range or the recurrence
# seed loses the scale of the answer
MAX_OVERLAP_ARGUMENT = 1400.0
# the completeness sum stops after 8 consecutive weights below this
_COMPLETENESS_TAIL = 1e-16
# steps between renormalizations of the monic recurrence: psi stays below
# sqrt(2e8)**32 ~ 7e132 at the index cap, since |phi| <= 1 and every
# j(j+d) <= 1e4 * 2e4
_RENORM_STEPS = 32
# the smallest subnormal: its logarithm is finite, and max(x, _TINY) == x
# for every positive x
_TINY = 5e-324


def overlap_weight(n: int, m: int, x):
    """Squared Landau-state overlap w(n, m, x); scalar in, scalar out.

    ``x`` may be a float or an ndarray: it is one row of
    :func:`overlap_weight_rows`, at level ``n``.  Values are clipped to the
    exact bound w <= 1, which the recurrence can overshoot by an ulp near
    coincidence.
    """
    if n < 0 or m < 0:
        raise ValueError(f"indices must be nonnegative, got n={n}, m={m}")
    if n > MAX_OVERLAP_INDEX or m > MAX_OVERLAP_INDEX:
        raise ValueError(f"indices (n={n}, m={m}) above cap {MAX_OVERLAP_INDEX}")
    xa = np.asarray(x, dtype=float)
    w = overlap_weight_rows([n], m, xa.reshape(1, -1))
    return float(w[0, 0]) if xa.ndim == 0 else w.reshape(xa.shape)


def overlap_weight_rows(n, m: int, x) -> np.ndarray:
    """w(n_i, m, x_i) for a 1-D array of levels ``n`` and one row of ``x`` per level.

    A 1-D ``x`` holds one point per row; a 2-D ``x`` holds a row of points
    at level n_i in its row i, and the result has the shape of ``x``.
    Every point gets the bits it gets as a one-point row of its own, in any
    batch.  The rows run through the recurrence together, ordered by
    k = min(n_i, m) ascending (they are sorted first if they are not), so
    the rows still stepping at step j are a shrinking suffix of the work
    arrays and no step is spent on a finished row.
    """
    n = np.asarray(n, dtype=np.int64)
    x = np.asarray(x, dtype=float)
    if n.ndim != 1 or x.ndim not in (1, 2) or x.shape[0] != n.size:
        raise ValueError(
            f"n must be 1-D and x 1-D or 2-D with one row per level, got {n.shape} and {x.shape}"
        )
    if not x.size:
        return np.zeros(x.shape)
    if m < 0 or np.minimum.reduce(n) < 0:
        raise ValueError(f"indices must be nonnegative, got m={m}")
    if m > MAX_OVERLAP_INDEX or np.maximum.reduce(n) > MAX_OVERLAP_INDEX:
        raise ValueError(f"indices above cap {MAX_OVERLAP_INDEX}")
    lowest = np.minimum.reduce(x, axis=None)
    if math.isnan(lowest):
        raise ValueError("argument must not be NaN")
    if lowest < 0.0:
        raise ValueError("argument must be nonnegative")
    if np.fmax.reduce(x, axis=None) > MAX_OVERLAP_ARGUMENT:
        raise ValueError(f"argument above cap {MAX_OVERLAP_ARGUMENT}")

    k = np.minimum(n, m)
    d = np.abs(n - m)
    rows = x.reshape(n.size, -1)
    if not (k[1:] < k[:-1]).any():
        phi = _phi_ascending(k, d, rows)
        return np.minimum(phi * phi, 1.0).reshape(x.shape)
    order = np.argsort(k, kind="stable")
    phi = _phi_ascending(k[order], d[order], rows[order])
    w = np.empty_like(phi)
    w[order] = np.minimum(phi * phi, 1.0)
    return w.reshape(x.shape)


def _phi_ascending(k: np.ndarray, d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """phi_{k_i}^{d_i}(x_ij) for the rows x_i of a 2-D ``x``, sorted by k ascending."""
    width = x.shape[1]
    x = x.reshape(-1)

    def spread(per_row):
        # a row's value at each of its points; a one-point row needs no copy
        return per_row if width == 1 else per_row.repeat(width)

    # seed phi_0^d(x) = x^(d/2) exp(-x/2) / sqrt(d!) in the log domain;
    # x == 0 handled exactly (0**0 == 1), with its logarithm kept finite
    # (the maximum leaves every positive x as it is)
    d_lo, d_hi = int(np.minimum.reduce(d)), int(np.maximum.reduce(d))
    if d_lo == d_hi:
        log_norm = math.lgamma(d_lo + 1)
    else:
        log_norm = spread(np.array([math.lgamma(v + 1) for v in range(d_lo, d_hi + 1)])[d - d_lo])
    df = spread(d.astype(float))
    log_phi0 = 0.5 * (df * np.log(np.maximum(x, _TINY)) - x) - 0.5 * log_norm
    at_zero = spread(d == 0)
    phi = np.where(x > 0.0, np.exp(log_phi0), at_zero)
    k_hi = int(k[-1])
    if k_hi == 0:
        return phi.reshape(-1, width)

    # the work arrays hold the points of the rows still stepping, row by
    # row; first[j] is the first row with k > j, i.e. still stepping at
    # step j
    first = np.searchsorted(k, np.arange(k_hi), side="right").tolist()
    row = first[0]
    start = row * width
    xs = x[start:]
    prev = phi[start:].copy()
    # 2j+1+d and q = j(j+d) per point are exact integers, and q grows by
    # 2j+1+d a step; norm, per row, is the product of the q since the last
    # renormalization, so that psi_j = phi_j * sqrt(norm)
    coef = df[start:] + 1.0
    cur = (coef - xs) * prev
    q = coef.copy()
    norm = coef[::width].copy()
    coef += 2.0
    new = np.empty_like(cur)
    for j in range(1, k_hi):
        if first[j] > row:
            # the rows with k = j are done: renormalize them into phi
            rows = first[j] - row
            done = rows * width
            np.divide(cur[:done], spread(np.sqrt(norm[:rows])), out=phi[start : start + done])
            row, start = first[j], start + done
            xs, coef, q, norm = xs[done:], coef[done:], q[done:], norm[rows:]
            prev, cur, new = prev[done:], cur[done:], new[done:]
        if j % _RENORM_STEPS == 0:
            scale = spread(np.sqrt(norm))
            np.divide(cur, scale, out=cur)
            np.divide(prev, scale, out=prev)
            norm.fill(1.0)
        np.subtract(coef, xs, out=new)
        np.multiply(new, cur, out=new)
        np.multiply(q, prev, out=prev)
        np.subtract(new, prev, out=new)
        np.add(q, coef, out=q)
        np.multiply(norm, q[::width], out=norm)
        np.add(coef, 2.0, out=coef)
        prev, cur, new = cur, new, prev
    np.divide(cur, spread(np.sqrt(norm)), out=phi[start:])
    if d_lo == 0 and not x.all():
        # phi_k^0(0) is exactly 1, which the products of j(j+d) miss by ulps
        np.copyto(phi, at_zero, where=x == 0.0)
    return phi.reshape(-1, width)


def overlap_completeness_sum(m: int, x: float) -> tuple[float, int]:
    """Compensated sum of w(n, m, x) over n with the tail truncated at 1e-16.

    Unitarity of the displacement makes the full sum exactly one; the
    weights die off super-exponentially once n is past the peak near m + x,
    so truncation is safe after a run of 8 sub-1e-16 terms beyond it.
    The weights are evaluated a block of levels at a time, each block twice
    as long as the one before, until that rule fires.  Returns (total, last
    n included).
    """
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x}")
    terms: list[float] = []
    consecutive_small = 0
    n = 0
    block = int(m + x) + 64
    while n <= MAX_OVERLAP_INDEX:
        stop = min(n + block, MAX_OVERLAP_INDEX + 1)
        weights = overlap_weight_rows(np.arange(n, stop), m, np.full(stop - n, float(x)))
        for w in weights.tolist():
            terms.append(w)
            consecutive_small = consecutive_small + 1 if w < _COMPLETENESS_TAIL else 0
            if consecutive_small >= 8 and n > m + x:
                return math.fsum(terms), n
            n += 1
        block *= 2
    return math.fsum(terms), MAX_OVERLAP_INDEX
