"""Stable special-function evaluation for Landau-level overlap weights.

The central object is the overlap weight, which
:func:`overlap_weight_rows` evaluates,

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

The rows are levels n_i against one parent level m, in ascending order of
min(n_i, m).  A 1-D ``x`` holds one point per row; a 2-D ``x`` holds a row
of points per level (the level sum passes one quadrature panel's 61 points
per row), so the product and the seed's per-level work are kept once per
row.  Every point gets the bits it would get as a one-point row of its
own, so a single weight is a one-row call.

:func:`overlap_completeness_sum` needs every level at one (m, x) instead,
and takes them from a second recurrence, across levels: the amplitudes
D_n = <n|D(sqrt x)|m>, with w = D_n^2, obey

    sqrt(x(n+1)) D_{n+1} = (n - m + x) D_n - sqrt(x n) D_{n-1},

so a row of N levels costs O(N) steps where the kernel above takes
min(n, m) steps per level.  ``_overlap_row`` runs it forward to the upper
turning point (sqrt(m) + sqrt(x))^2 and backward past it, where the
wanted solution is the minimal one (Miller's algorithm; Gil, Segura and
Temme, *Numerical Methods for Special Functions*, SIAM 2007, ch. 4).  Its
iterates carry a binary exponent each, so D_0, which is below the float
range for large m or small x (about 2^-1519 at m = 300, x = 0.1), is
carried without underflow.

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
    "overlap_weight_rows",
    "overlap_completeness_sum",
]

MAX_OVERLAP_INDEX = 10_000
# exp(-x/2) must stay inside the normal float64 range or the recurrence
# seed loses the scale of the answer
MAX_OVERLAP_ARGUMENT = 1400.0
# the completeness sum stops after 8 consecutive weights below this
_COMPLETENESS_TAIL = 1e-16
# logarithms of the thresholds of _tail_levels: where the stop rule's weights
# are surely below _COMPLETENESS_TAIL, and where Miller's backward run starts
_LOG_TAIL = -math.log(0.5 * _COMPLETENESS_TAIL)
_LOG_MILLER = -math.log(1e-40)
# the values of z - 1 at which _tail_levels evaluates its bound
_TAIL_GRID = tuple(4.0**k for k in range(-3, 12))
# the row's iterates are rescaled by a power of two once they leave this
# range; a step changes them by at most a factor 2**552 (at x = 5e-324)
_SMALL = 2.0**-400
_BIG = 2.0**400
# steps between renormalizations of the monic recurrence: psi stays below
# sqrt(2e8)**32 ~ 7e132 at the index cap, since |phi| <= 1 and every
# j(j+d) <= 1e4 * 2e4
_RENORM_STEPS = 32
# the smallest subnormal: its logarithm is finite, and max(x, _TINY) == x
# for every positive x
_TINY = 5e-324


def overlap_weight_rows(n, m: int, x) -> np.ndarray:
    """w(n_i, m, x_i) for a 1-D array of levels ``n`` and one row of ``x`` per level.

    A 1-D ``x`` holds one point per row; a 2-D ``x`` holds a row of points
    at level n_i in its row i, and the result has the shape of ``x``.
    Every point gets the bits it gets as a one-point row of its own, in any
    batch.  The rows must come in ascending order of k = min(n_i, m): they
    run through the recurrence together, so the rows still stepping at step
    j are a shrinking suffix of the work arrays and no step is spent on a
    finished row.  Values are clipped to the exact bound w <= 1, which the
    recurrence can overshoot by an ulp near coincidence.
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
    if (k[1:] < k[:-1]).any():
        raise ValueError(f"rows must be in ascending order of min(n, m) with m={m}")
    phi = _phi_ascending(k, np.abs(n - m), x.reshape(n.size, -1))
    return np.minimum(phi * phi, 1.0).reshape(x.shape)


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
    so truncation is safe after a run of 8 sub-1e-16 terms beyond it.  The
    weights are one row of :func:`_overlap_row`, summed with ``math.fsum``
    in ascending n, never rescaled by their own sum.  Returns (total, last
    n included).
    """
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x}")
    if m < 0:
        raise ValueError(f"indices must be nonnegative, got m={m}")
    if m > MAX_OVERLAP_INDEX:
        raise ValueError(f"indices above cap {MAX_OVERLAP_INDEX}")
    if x < 0.0:
        raise ValueError("argument must be nonnegative")
    if x > MAX_OVERLAP_ARGUMENT:
        raise ValueError(f"argument above cap {MAX_OVERLAP_ARGUMENT}")
    weights = _overlap_row(m, x)
    small = 0
    for n, w in enumerate(weights):
        small = small + 1 if w < _COMPLETENESS_TAIL else 0
        if small >= 8 and n > m + x:
            break
    return math.fsum(weights[: n + 1]), n


def _tail_levels(m: int, x: float) -> tuple[int, int]:
    """Levels beyond which w(n, m, x) is below 1e-16 / 2 and below 1e-40.

    For every z > 1, w(n, m, x) z^n is at most the generating function
    z^m exp(x(z-1)) L_m(-x(z-1)^2/z), and L_m(-y) <= I_0(2 sqrt(m y)) <=
    exp(2 sqrt(m y)), so ln w(n, m, x) <= (m - n) ln z + x(z-1) +
    2 sqrt(m x) (z-1)/sqrt(z).  The bound falls with n; each level returned
    is the least n at which it is below its threshold for some z on a
    geometric grid.
    """
    root = 2.0 * math.sqrt(m * x)
    below_tail = below_miller = math.inf
    for u in _TAIL_GRID:
        rise = (x + root / math.sqrt(1.0 + u)) * u
        log_z = math.log1p(u)
        below_tail = min(below_tail, (rise + _LOG_TAIL) / log_z)
        below_miller = min(below_miller, (rise + _LOG_MILLER) / log_z)
    return m + math.ceil(below_tail), m + math.ceil(below_miller)


def _overlap_row(m: int, x: float) -> list[float]:
    """w(n, m, x) for n = 0 .. N at one (m, x), N the last level the stop rule can reach.

    The amplitudes D_n = <n|D(sqrt x)|m>, with w = D_n^2, obey

        sqrt(x(n+1)) D_{n+1} = (n - m + x) D_n - sqrt(x n) D_{n-1},

    from D_{-1} = 0 and D_0 = exp(-x/2) prod_{k<=m} sqrt(x/k).  Up to the
    upper turning point (sqrt(m) + sqrt(x))^2 they run forward; past it the
    wanted solution is the minimal one, so that part runs backward (Miller's
    algorithm) from a level where w < 1e-40, which leaves an error of about
    that size in every weight, and is scaled to meet the forward values at
    the turning point and the level after it.  Each iterate is a mantissa
    times 2 to an integer exponent, rescaled by exact powers of two, so a
    weight is 0 only when it is below the float range.  Every weight from
    the first level of :func:`_tail_levels` on is below 1e-16 / 2, so the
    completeness stop rule fires by 7 levels later, or at the first level
    past m + x: N is the later of the two.
    """
    if x == 0.0:
        return [0.0] * m + [1.0] + [0.0] * 8
    quiet, start = _tail_levels(m, x)
    last = max(quiet + 7, int(m + x) + 1)
    start = max(start, last + 1)
    turn = int((math.sqrt(m) + math.sqrt(x)) ** 2)

    # the seed as a product: its roundings are m independent ulps, where the
    # logarithm of D_0 would carry an absolute error of about m ln(m) ulps;
    # a tiny x is lifted by 2**128 so that x / k stays a normal float, and
    # the exponent takes back the 2**64 of each factor
    lift = 64 if x < _SMALL else 0
    lifted = math.ldexp(x, 2 * lift)
    cur, scale = math.exp(-0.5 * x), -lift * m
    for k in range(1, m + 1):
        cur *= math.sqrt(lifted / k)
        if not _SMALL < cur < _BIG:
            cur, shift = math.frexp(cur)
            scale += shift

    # forward: D_0 .. D_turn kept, and D_turn, D_turn+1 left in (prev, cur)
    weights = []
    prev, root = 0.0, 0.0
    for n in range(turn + 1):
        weights.append(math.ldexp(cur * cur, 2 * scale))
        root_next = math.sqrt(x * (n + 1))
        prev, cur = cur, ((n - m + x) * cur - root * prev) / root_next
        root = root_next
        if abs(cur) > _BIG:
            cur, shift = math.frexp(cur)
            prev = math.ldexp(prev, -shift)
            scale += shift

    # backward from B_start+1 = 0 and B_start = 1: B_turn+1 .. B_last kept
    # with the exponent each had, and B_turn, B_turn+1 left in (low, high)
    high, low, back_scale = 0.0, 1.0, 0
    tail, tail_scale = [], []
    root = math.sqrt(x * (start + 1))
    for n in range(start, turn, -1):
        if n <= last:
            tail.append(low)
            tail_scale.append(back_scale)
        root_next = math.sqrt(x * n)
        high, low = low, ((n - m + x) * low - root * high) / root_next
        root = root_next
        if abs(low) > _BIG:
            low, shift = math.frexp(low)
            high = math.ldexp(high, -shift)
            back_scale += shift

    # the least-squares factor that takes (B_turn, B_turn+1) onto
    # (D_turn, D_turn+1); two levels, since one of them may be near a node
    factor, shift = math.frexp((prev * low + cur * high) / (low * low + high * high))
    shift += scale - back_scale
    weights.extend(
        math.ldexp((factor * b) ** 2, 2 * (s + shift))
        for b, s in zip(reversed(tail), reversed(tail_scale))
    )
    return weights
