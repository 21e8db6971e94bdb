"""Stable special-function evaluation for Landau-level overlap weights.

The central object is :func:`overlap_weight`,

    w(n, m, x) = (min(n,m)! / max(n,m)!) * exp(-x) * x**|n-m|
                 * L_min(n,m)^{|n-m|}(x)**2,

the squared transverse overlap between two Landau states whose guiding
centers and momenta differ by a displacement of squared magnitude ``2*x``
times the magnetic length.  It is a probability: 0 <= w <= 1, symmetric in
(n, m), and sums to one over either index.

Forming the associated Laguerre value and the factorial ratio separately
overflows long before the physically interesting index range is reached, so
``overlap_weight`` propagates the *normalized* function

    phi_k^d(x) = sqrt(k! / (k+d)!) * x**(d/2) * exp(-x/2) * L_k^d(x)

through the correspondingly normalized three-term recurrence

    phi_{k+1} = ((2k+1+d-x) phi_k - sqrt(k(k+d)) phi_{k-1})
                / sqrt((k+1)(k+1+d)),

whose iterates are bounded by 1 in magnitude, and returns phi**2.
:func:`overlap_weight_rows` runs that recurrence for many (n_i, x_i) rows
at once; ``overlap_weight`` and ``overlap_completeness_sum`` call it.
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
# the smallest subnormal: its logarithm is finite, and max(x, _TINY) == x
# for every positive x
_TINY = 5e-324


def overlap_weight(n: int, m: int, x):
    """Squared Landau-state overlap w(n, m, x); scalar in, scalar out.

    ``x`` may be a float or an ndarray (the recurrence is vectorized over
    the argument).  Values are clipped to the exact bound w <= 1, which the
    recurrence can overshoot by an ulp near coincidence.
    """
    if n < 0 or m < 0:
        raise ValueError(f"indices must be nonnegative, got n={n}, m={m}")
    if n > MAX_OVERLAP_INDEX or m > MAX_OVERLAP_INDEX:
        raise ValueError(f"indices (n={n}, m={m}) above cap {MAX_OVERLAP_INDEX}")
    xa = np.asarray(x, dtype=float)
    w = overlap_weight_rows(np.full(xa.size, n), m, xa.ravel())
    return float(w[0]) if xa.ndim == 0 else w.reshape(xa.shape)


def overlap_weight_rows(n, m: int, x) -> np.ndarray:
    """w(n_i, m, x_i) for equal-length 1-D arrays of levels ``n`` and arguments ``x``.

    Each row gives the bits :func:`overlap_weight` gives for it alone.  The
    rows run through the recurrence together, ordered by k = min(n_i, m)
    ascending (they are sorted first if they are not), so the rows still
    stepping at step j are a shrinking suffix of the work arrays and no
    step is spent on a finished row.
    """
    n = np.asarray(n, dtype=np.int64)
    x = np.asarray(x, dtype=float)
    if n.shape != x.shape or n.ndim != 1:
        raise ValueError(f"n and x must be 1-D arrays of one length, got {n.shape} and {x.shape}")
    if not n.size:
        return np.zeros(0)
    if m < 0 or np.minimum.reduce(n) < 0:
        raise ValueError(f"indices must be nonnegative, got m={m}")
    if m > MAX_OVERLAP_INDEX or np.maximum.reduce(n) > MAX_OVERLAP_INDEX:
        raise ValueError(f"indices above cap {MAX_OVERLAP_INDEX}")
    lowest = np.minimum.reduce(x)
    if math.isnan(lowest):
        raise ValueError("argument must not be NaN")
    if lowest < 0.0:
        raise ValueError("argument must be nonnegative")
    if np.fmax.reduce(x) > MAX_OVERLAP_ARGUMENT:
        raise ValueError(f"argument above cap {MAX_OVERLAP_ARGUMENT}")

    k = np.minimum(n, m)
    d = np.abs(n - m)
    if not (k[1:] < k[:-1]).any():
        phi = _phi_ascending(k, d, x)
        return np.minimum(phi * phi, 1.0)
    order = np.argsort(k, kind="stable")
    phi = _phi_ascending(k[order], d[order], x[order])
    w = np.empty_like(phi)
    w[order] = np.minimum(phi * phi, 1.0)
    return w


def _phi_ascending(k: np.ndarray, d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """phi_{k_i}^{d_i}(x_i) for rows sorted by k ascending."""
    # seed phi_0^d(x) = x^(d/2) exp(-x/2) / sqrt(d!) in the log domain;
    # x == 0 handled exactly (0**0 == 1), with its logarithm kept finite
    # (the maximum leaves every positive x as it is)
    d_lo, d_hi = int(np.minimum.reduce(d)), int(np.maximum.reduce(d))
    if d_lo == d_hi:
        log_norm = math.lgamma(d_lo + 1)
    else:
        log_norm = np.array([math.lgamma(v + 1) for v in range(d_lo, d_hi + 1)])[d - d_lo]
    df = d.astype(float)
    log_phi0 = 0.5 * (df * np.log(np.maximum(x, _TINY)) - x) - 0.5 * log_norm
    phi = np.where(x > 0.0, np.exp(log_phi0), d == 0)
    k_hi = int(k[-1])
    if k_hi == 0:
        return phi

    # first[j]: the first row with k > j, i.e. still stepping at step j
    first = np.searchsorted(k, np.arange(k_hi), side="right").tolist()
    start = first[0]
    xs = x[start:]
    dp1 = df[start:] + 1.0
    root = np.sqrt(dp1)
    prev = phi[start:].copy()
    cur = (dp1 - xs) * prev / root
    new = np.empty_like(cur)
    # 2j+1+d and j(j+d) are exact integers: the next product is this one
    # plus 2j+1+d, and this step's denominator sqrt((j+1)(j+1+d)) is the
    # next step's sqrt(j(j+d))
    coef = dp1 + 2.0
    prod = dp1
    for j in range(1, len(first)):
        done = first[j] - start
        if done:
            phi[start : first[j]] = cur[:done]
            start = first[j]
            xs, coef, prod, root = xs[done:], coef[done:], prod[done:], root[done:]
            prev, cur, new = prev[done:], cur[done:], new[done:]
        np.subtract(coef, xs, out=new)
        np.multiply(new, cur, out=new)
        np.multiply(root, prev, out=prev)
        np.subtract(new, prev, out=new)
        np.add(prod, coef, out=prod)
        np.sqrt(prod, out=root)
        np.divide(new, root, out=new)
        np.add(coef, 2.0, out=coef)
        prev, cur, new = cur, new, prev
    phi[start:] = cur
    return phi


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
