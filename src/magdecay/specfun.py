"""Stable evaluation of the Landau-level overlap weights, one row across levels.

The overlap weight

    w(n, m, x) = (min(n,m)! / max(n,m)!) * exp(-x) * x**|n-m|
                 * L_min(n,m)^{|n-m|}(x)**2

is the squared transverse overlap between two Landau states whose guiding
centers and momenta differ by a displacement of squared magnitude ``2*x``
times the magnetic length.  It is a probability: 0 <= w <= 1, symmetric in
(n, m), and sums to one over either index.

Forming the Laguerre value and the factorial ratio separately overflows
long before the physically interesting index range.  Every weight here
comes instead from the amplitudes D_n = <n|D(sqrt x)|m> of the
displacement operator, w = D_n^2, which obey one recurrence across levels,

    sqrt(x(n+1)) D_{n+1} = (n - m + x) D_n - sqrt(x n) D_{n-1},

from D_{-1} = 0 and D_0 = exp(-x/2) prod_{k<=m} sqrt(x/k).  So a whole row
of levels at one (m, x) costs O(N) steps.  Up to the upper turning point
(sqrt(m) + sqrt(x))^2 the recurrence runs forward; past it the wanted
solution is the minimal one, so that part runs backward (Miller's
algorithm; Gil, Segura and Temme, *Numerical Methods for Special
Functions*, SIAM 2007, ch. 4) from a level where w < 1e-40, found from the
row's own decay past the turning point, and is scaled to meet the forward
values at the turning point and the level after it.  Every iterate is a
mantissa times 2 to an integer exponent, and the seed is a product of
factors kept inside the float range, so a weight is 0 only when it is below
the float range, at any argument: there is no cap on x.

:func:`_overlap_row` runs one row in Python floats, for the completeness
sum.  :func:`overlap_rows` runs the same recurrence at one m over an array
of nodes, each with its own turning point, Miller start and exponents, with
numpy across the nodes and the Python loop over n; it gives the bits of
:func:`_overlap_row` at every node.  Miller's part runs first, each node
stepped down from its own start, and keeps only the iterates that become
weights, node by node.  The forward run then hands the weights over in
slabs of levels at every node, one buffer that the caller reduces in
place, so that it never holds a (levels x nodes) matrix; a slab has as
many levels, 8 to 32, as fit a byte budget at the number of nodes
(:func:`_work_rows`).  Per level the Python loop only steps the forward
nodes and writes their weights into the slab, eight numpy calls whatever
the number of nodes, so on a few thousand nodes a slab of more levels
hands over the same weights in fewer calls.  Once a slab, the nodes that
passed their turning points in it have their Miller parts scaled into
weights, and the slab takes the Miller weights of its levels.

:func:`overlap_weight_rows`, the level kernel, takes w one level at a time
instead, each row at its own (n, m) and the rows in any order, for the
level sum's per-level quadrature in k_z, where a point needs only its own
level, and for the oracle's closed form: it runs the monic Laguerre
recurrence in k = min(n, m), the rows sorted by k, min(n, m) steps a
point, from a seed formed in the log domain, which leaves the float range
past x = 1400 and, at large |n - m| and x, underflows where the weight
does not (0 at (5800, 2000, 1000), where w = 7.8e-4); the level sum uses
it only well inside that range.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "MAX_OVERLAP_INDEX",
    "MAX_OVERLAP_ARGUMENT",
    "overlap_weight_rows",
    "overlap_rows",
    "overlap_completeness_sum",
]

MAX_OVERLAP_INDEX = 10_000
# the level kernel's exp(-x/2) must stay inside the normal float64 range or
# its seed loses the scale of the answer; the row has no such cap
MAX_OVERLAP_ARGUMENT = 1400.0
# steps between renormalizations of the level kernel's monic recurrence:
# psi stays below sqrt(2e8)**32 ~ 7e132 at the index cap, since |phi| <= 1
# and every j(j+d) <= 1e4 * 2e4
_RENORM_STEPS = 32
# the completeness sum stops after 8 consecutive weights below this
_COMPLETENESS_TAIL = 1e-16
# the row's decay bound past the turning point: below _QUIET every later
# weight is under half the completeness tail, and Miller's backward run
# starts below _MILLER, which leaves an error of about that size in every
# weight; the bound advances _STRIDE levels at a time
_QUIET = 0.5 * _COMPLETENESS_TAIL
_MILLER = 1e-40
_STRIDE = 4
# the absolute error of every weight of overlap_rows: Miller's, about twice
# the weight at its start, and the weights past the start, which are 0
ROW_ABS_ERROR = 3.0 * _MILLER
# the row's iterates are rescaled by a power of two once they leave this
# range; a step changes them by at most a factor 2**552 (at x = 5e-324)
_SMALL = 2.0**-400
_BIG = 2.0**400
# the smallest subnormal: the array row takes x = 0 as this, where w is
# the Kronecker delta to within 1e-300
_TINY = 5e-324
# exp(-h) is taken whole up to this h, and past it as a power of two times
# the exponential of the rest, so that the seed never underflows
_EXP_WHOLE = 600.0
# bytes that a work buffer of rows across every node may take: the slab of
# levels of overlap_rows, which writes their weights at every node into one
# buffer and hands it over once they are all stepped, and the block of the
# array row's seed factors multiplied between rescales (_work_rows)
_WORK_BYTES = 2**19
_LN2 = math.log(2.0)


def _exp_neg(h):
    """exp(-h) as a mantissa inside the normal float range and a binary
    exponent, for a float or an array: numpy's exponential gives one value
    the same bits in either."""
    shift = np.ceil(np.maximum(h - _EXP_WHOLE, 0.0) / _LN2)
    return np.exp(shift * _LN2 - h), -shift.astype(np.int64)


def _work_rows(nodes: int) -> int:
    """Rows of a work buffer of doubles at every one of ``nodes``: the
    largest of 32 and 16 whose buffer fits ``_WORK_BYTES``, else 8.  Numpy's
    cost per call, not per node, sets the row's cost per level on a few
    thousand nodes, so fewer nodes take more rows a call; past 4,096 nodes
    the buffer keeps eight."""
    return next((rows for rows in (32, 16) if rows * 8 * nodes <= _WORK_BYTES), 8)


def _decay_stride(n, m, x, ops):
    """The bound on w_{n+4} / w_n past the upper turning point: the fourth
    power of the recurrence's minimal root r_n squared, or 1 where the roots
    are complex (|r| <= 1 there) at the turning point itself.  The minimal
    root shrinks with n, so the stride's first one bounds its decay.
    ``sqrt`` and ``minimum``/``maximum`` are ``math.sqrt``, ``min`` and
    ``max`` or their numpy forms: each rounds correctly, so a float and an
    array node get the same bits.  Past the turning point n >= m, so
    b = n - m + x > 0."""
    sqrt, minimum, maximum = ops
    b = (n - m) + x
    disc = maximum(b * b - 4.0 * x * sqrt(n * (n + 1.0)), 0.0)
    r = minimum(2.0 * sqrt(x * n) / (b + sqrt(disc)), 1.0)
    q = r * r
    q = q * q
    return q * q


def _row_levels(m: int, x: float) -> tuple[int, int, int]:
    """The turning point, the last level and Miller's start of :func:`_overlap_row` at x > 0.

    From w <= 1 at the level after the turning point, the row's decay bound
    (:func:`_decay_stride`) gives the first level where every later weight
    is below 1e-16 / 2, so that the completeness stop rule fires by 7
    levels later, or at the first level past m + x: the last level is the
    later of the two.  Miller's start is the first level past it where the
    bound is below 1e-40.
    """
    root_sum = math.sqrt(m) + math.sqrt(x)
    turn = int(root_sum * root_sum)
    n, bound, quiet = turn + 1, 1.0, None
    while bound >= _MILLER:
        if quiet is None and bound < _QUIET:
            quiet = n
        bound *= _decay_stride(n, m, x, (math.sqrt, min, max))
        n += _STRIDE
    last = max((n if quiet is None else quiet) + 7, int(m + x) + 1)
    return turn, last, max(n, last + 1)


def _row_levels_array(m: int, x, turn):
    """Miller's start of :func:`_row_levels` at every node of one m."""
    n = turn + 1
    bound = np.ones(x.size)
    quiet = np.full(x.size, -1, dtype=np.int64)
    start = np.full(x.size, -1, dtype=np.int64)
    pending = np.arange(x.size)
    while pending.size:
        now = n[pending]
        fresh = (quiet[pending] < 0) & (bound[pending] < _QUIET)
        quiet[pending[fresh]] = now[fresh]
        bound[pending] *= _decay_stride(
            now, m, x[pending], (np.sqrt, np.minimum, np.maximum)
        )
        n[pending] = now + _STRIDE
        below = bound[pending] < _MILLER
        start[pending[below]] = n[pending[below]]
        pending = pending[~below]
    quiet = np.where(quiet < 0, start, quiet)
    return np.maximum(start, np.maximum(quiet + 7, (m + x).astype(np.int64) + 1) + 1)


def overlap_weight_rows(n, m, x) -> np.ndarray:
    """w(n_i, m_i, x_i) for a 1-D array of levels ``n`` and one row of ``x`` per level.

    ``m`` is one parent level for every row or a 1-D array of one per row.
    A 1-D ``x`` holds one point per row; a 2-D ``x`` holds a row of points
    at level n_i in its row i, and the result has the shape of ``x``.
    Every point gets the bits it gets as a one-point row of its own, in any
    batch and in any order of the rows.  The rows run through the
    recurrence together in ascending order of k = min(n_i, m_i), so the
    rows still stepping at step j are a shrinking suffix of the work arrays
    and no step is spent on a finished row; rows in another order are
    sorted by k (stably) and their weights put back in place.  Values are
    clipped to the exact bound w <= 1, which the recurrence can overshoot
    by an ulp near coincidence.
    """
    n = np.asarray(n, dtype=np.int64)
    m = np.asarray(m, dtype=np.int64)
    x = np.asarray(x, dtype=float)
    if n.ndim != 1 or m.shape not in ((), n.shape) or x.ndim not in (1, 2) or x.shape[0] != n.size:
        raise ValueError(
            "n must be 1-D, m one level or one per level, and x 1-D or 2-D with one row "
            f"per level, got {n.shape}, {m.shape} and {x.shape}"
        )
    if not x.size:
        return np.zeros(x.shape)
    # k + d is max(n, m), and k, ascending once sorted, starts at the least
    # index of all
    k, d = np.minimum(n, m), np.abs(n - m)
    order = None
    if (k[1:] < k[:-1]).any():
        order = np.argsort(k, kind="stable")
        k, d, x = k[order], d[order], x[order]
    if k[0] < 0:
        raise ValueError("indices must be nonnegative")
    if np.maximum.reduce(k + d) > MAX_OVERLAP_INDEX:
        raise ValueError(f"indices above cap {MAX_OVERLAP_INDEX}")
    lowest = np.minimum.reduce(x, axis=None)
    if math.isnan(lowest):
        raise ValueError("argument must not be NaN")
    if lowest < 0.0:
        raise ValueError("argument must be nonnegative")
    if np.fmax.reduce(x, axis=None) > MAX_OVERLAP_ARGUMENT:
        raise ValueError(f"argument above cap {MAX_OVERLAP_ARGUMENT}")

    phi = _phi_ascending(k, d, x.reshape(n.size, -1))
    weight = np.minimum(phi * phi, 1.0).reshape(x.shape)
    if order is None:
        return weight
    unsorted = np.empty_like(weight)
    unsorted[order] = weight
    return unsorted


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
    weights = _overlap_row(m, x)
    small = 0
    for n, w in enumerate(weights):
        small = small + 1 if w < _COMPLETENESS_TAIL else 0
        if small >= 8 and n > m + x:
            break
    return math.fsum(weights[: n + 1]), n


def _overlap_row(m: int, x: float) -> list[float]:
    """w(n, m, x) for n = 0 .. N at one (m, x), N the last level of :func:`_row_levels`.

    The forward run keeps D_0 .. D_turn; the backward run from Miller's
    start B_start+1 = 0, B_start = 1 keeps B_turn+1 .. B_N and is scaled
    by the least-squares factor that takes (B_turn, B_turn+1) onto
    (D_turn, D_turn+1), two levels since one of them may be near a node.
    """
    if x == 0.0:
        return [0.0] * m + [1.0] + [0.0] * 8
    turn, last, start = _row_levels(m, x)

    # the seed as a product: its roundings are m independent ulps, where the
    # logarithm of D_0 would carry an absolute error of about m ln(m) ulps;
    # a tiny x is lifted by 2**128 so that x / k stays a normal float, and
    # the exponent takes back the 2**64 of each factor
    lift = 64 if x < _SMALL else 0
    lifted = math.ldexp(x, 2 * lift)
    cur, scale = _exp_neg(0.5 * x)
    cur, scale = float(cur), int(scale) - lift * m
    for k in range(1, m + 1):
        cur *= math.sqrt(lifted / k)
        if not _SMALL < cur < _BIG:
            cur, shift = math.frexp(cur)
            scale += shift

    # forward: D_0 .. D_turn kept, and D_turn, D_turn+1 left in (prev, cur);
    # sqrt(x k) is sqrt(x) sqrt(k), one rounding of sqrt(x) shared by the row
    weights = []
    prev, root, root_x = 0.0, 0.0, math.sqrt(x)
    for n in range(turn + 1):
        weights.append(math.ldexp(cur * cur, 2 * scale))
        root_next = root_x * math.sqrt(n + 1)
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
    root = root_x * math.sqrt(start + 1)
    for n in range(start, turn, -1):
        if n <= last:
            tail.append(low)
            tail_scale.append(back_scale)
        root_next = root_x * math.sqrt(n)
        high, low = low, ((n - m + x) * low - root * high) / root_next
        root = root_next
        if abs(low) > _BIG:
            low, shift = math.frexp(low)
            high = math.ldexp(high, -shift)
            back_scale += shift

    factor, shift = math.frexp((prev * low + cur * high) / (low * low + high * high))
    shift += scale - back_scale
    for b, s in zip(reversed(tail), reversed(tail_scale)):
        b *= factor
        weights.append(math.ldexp(b * b, 2 * (s + shift)))
    return weights


def _rescale(cur, other, scale2) -> None:
    """Bring the entries of ``cur`` above _BIG in magnitude back to a
    mantissa in [0.5, 1), by exact powers of two shared with ``other``;
    ``scale2`` holds twice the binary exponent of each entry."""
    if cur.size and (cur.max() > _BIG or cur.min() < -_BIG):
        big = np.abs(cur) > _BIG
        mantissa, shift = np.frexp(cur[big])
        cur[big] = mantissa
        other[big] = np.ldexp(other[big], -shift)
        scale2[big] += 2 * shift


def overlap_rows(m: int, x, top):
    """Stream w(n, m, x_i) for n = 0 .. top_i at every node i, a slab of levels at a time.

    ``m`` is the one parent level of all nodes, ``x`` a 1-D array of
    arguments and ``top`` the last level each node needs.  The generator yields
    ``(n0, slab, first)``: row k of ``slab``, a ``(rows, nodes)`` array of
    at most ``_work_rows(nodes)`` rows, n0 a multiple of that number, holds
    the weights of level n0 + k at the nodes whose top is at least n0 + k,
    a leading run of them (its entries at the other nodes are left as they
    are), and the nodes before ``first`` have weight 0 at every level of
    the slab.  The slab is one buffer that the next slab fills again: a
    caller may change it in place as long as the entries before ``first``,
    which the row does not write again, stay 0.  Every weight at x > 0 has the bits :func:`_overlap_row`
    gives it, and the row goes on past the last level of
    :func:`_overlap_row` up to Miller's start; from that start on, where
    the row's decay bound puts w below 1e-40, about Miller's own error in
    every weight, a weight is 0.  The row stops after the last level with a
    weight at any node: the largest of the tops of the nodes not past their
    turning points and, at those past them, of min(top, start - 1).  A
    node's weights at the levels up to its top that are not yielded are 0.
    x = 0 is taken as the least subnormal, so its weights are not
    :func:`_overlap_row`'s exact 1 at n = m and 0 elsewhere: w(5, 5, 0) is
    0.9999999999999996 and w(4, 5, 0) 2.5e-323.  No caller passes x = 0
    (the mesh's nodes are inside their panels).

    ``top`` must not increase along the nodes, and the nodes whose top is
    past their turning point must come first, by turning point ascending:
    at one m the turning point grows with x, so the level sum's layout, x
    ascending and tops not increasing, meets the rule; any other layout
    raises :class:`ValueError`.  Miller's part runs first
    (:func:`_miller_tail`).  The loop over levels then only steps the
    forward nodes, from the first whose turning point is at least n to the
    last whose top is, and writes their weights into the slab, eight numpy
    calls a level.  Once a slab, the nodes that passed their turning points
    in it have their Miller parts scaled into weights in the store, by the
    factor that takes (B_turn, B_turn+1) onto (D_turn, D_turn+1), and the
    slab takes the Miller weights of its levels from the store.
    """
    # a Python int, so that n - m is one exact int
    m = operator.index(m)
    x = np.maximum(np.asarray(x, dtype=float), _TINY)
    top = np.asarray(top, dtype=np.int64)
    if x.ndim != 1 or top.shape != x.shape:
        raise ValueError(f"x and top must be 1-D of one length, got {x.shape} and {top.shape}")
    if not np.isfinite(x).all():
        raise ValueError("argument must be finite")
    if not 0 <= m <= MAX_OVERLAP_INDEX or (x.size and top.min() < 0):
        raise ValueError(f"indices must be in [0, {MAX_OVERLAP_INDEX}]")
    if not x.size:
        return
    root_x = np.sqrt(x)
    root_sum = math.sqrt(m) + root_x
    turn = (root_sum * root_sum).astype(np.int64)
    tails = int(np.count_nonzero(top > turn))
    ordered = (np.diff(top) <= 0).all() and (np.diff(turn[:tails]) >= 0).all()
    if not ordered or (top[tails:] > turn[tails:]).any():
        raise ValueError(
            "top must not increase along the nodes, and the nodes past their "
            "turning point must come first, by turning point ascending"
        )
    # D_n of the forward nodes is row n % 3 of ring: a node past its turning
    # point is not stepped again, so D_turn and D_turn+1 stay there.  The
    # seed's blocks of factors are freed before Miller's store is made
    ring = np.zeros((3, x.size))
    ring[0], scale2 = _seed(m, x)
    # the last level with a weight at any node: the forward nodes' tops, and
    # at the nodes past their turning points the top or the level before
    # Miller's start, whichever comes first
    last = int(top[tails]) if tails < x.size else 0
    if tails:
        tail = slice(0, tails)
        (store, store_scale2), begin, kept, back, back_scale2, reach = _miller_tail(
            m, x[tail], root_x[tail], top[tail], turn[tail]
        )
        last = max(last, int(kept.max()))
        # node i's B_n is store[slot[i] + n], from n = above[i] at
        # store[run_first[i]] to n = kept[i] at store[run_last[i]]
        above = turn[tail] + 1
        run_first, run_last = begin[:-1], begin[1:] - 1
        slot = run_first - above
    # the forward nodes at level n are [lo, hi): lo counts the nodes whose
    # turning point is below n, and hi those whose top is at least n
    levels = np.arange(last + 2)
    lo_at = np.searchsorted(turn[:tails], levels).tolist()
    hi_at = np.searchsorted(-top, -levels, side="right").tolist()
    if tails:
        # Miller's nodes at level n are [live, end): the nodes before the
        # first whose start is past n have weight 0, and from end on they
        # are forward or past their tops
        live_at = np.searchsorted(reach, levels, side="right").tolist()
        end_at = np.minimum(lo_at, hi_at).tolist()
    every = _rescale_interval(root_x, int(top[0]) + m)

    batch = _work_rows(x.size)
    slab = np.zeros((batch, x.size))
    # the rows of both as views, made once
    iterates, weights = list(ring), list(slab)
    root, root_next = np.zeros((2, x.size))
    first = 0
    for n0 in range(0, last + 1, batch):
        rows = min(batch, last + 1 - n0)
        for n in range(n0, n0 + rows):
            lo, hi = lo_at[n], hi_at[n]
            if lo >= hi:
                continue
            c, prev, new = iterates[n % 3][lo:hi], iterates[(n - 1) % 3][lo:hi], iterates[(n + 1) % 3][lo:hi]
            w, exponent = weights[n - n0][lo:hi], scale2[lo:hi]
            np.ldexp(np.multiply(c, c, out=w), exponent, out=w)
            r = root_next[lo:hi]
            np.multiply(root_x[lo:hi], math.sqrt(n + 1), out=r)
            np.add(n - m, x[lo:hi], out=new)
            new *= c
            prev *= root[lo:hi]
            new -= prev
            new /= r
            root, root_next = root_next, root
            # between checks no iterate can pass 2^500, so no square
            # overflows; the rescale writes through the views
            if n % every == 0:
                _rescale(new, c, exponent)
        if tails:
            # the nodes that reached their turning point in the slab: their
            # Miller parts, one run of the store, become weights
            done = slice(lo_at[n0], lo_at[n0 + rows])
            if done.stop > done.start:
                nodes = np.arange(done.start, done.stop)
                d_turn, d_next = ring[turn[done] % 3, nodes], ring[above[done] % 3, nodes]
                b_turn, b_next = back[:, done]
                factor, shift = np.frexp(
                    (d_turn * b_turn + d_next * b_next) / (b_turn * b_turn + b_next * b_next)
                )
                held = slice(begin[done.start], begin[done.stop])
                count = kept[done] - turn[done]
                b = store[held]
                b *= factor.repeat(count)
                b *= b
                shift = 2 * shift + scale2[done] - back_scale2[done]
                np.ldexp(b, store_scale2[held] + shift.repeat(count), out=b)
            # Miller's part at the slab's levels
            live = live_at[n0]
            slab[:, first:live] = 0.0
            first = live
            end = max(end_at[n0 : n0 + rows])
            if end > live:
                block = slice(live, end)
                # the store index of each level and node, clipped into the
                # node's run.  Whether the level is past the node's turning
                # point, and past its last B, is read off the index before
                # the clip, and take gathers the weights into the index's
                # own memory (mode="clip" writes out directly, and reads
                # each entry's index before its weight goes there).  So the
                # index is the one temporary of the slab's size, and no
                # call broadcasts more than one operand, each of which
                # costs numpy a buffer; all are freed before the slab is
                # handed over
                index = np.repeat(levels[n0 : n0 + rows, None], end - live, axis=1)
                index += slot[block]
                miller = index >= run_first[block]
                gone = index > run_last[block]
                np.maximum(index, run_first[block], out=index)
                np.minimum(index, run_last[block], out=index)
                w = np.take(store, index, out=index.view(np.float64), mode="clip")
                w[gone] = 0.0
                np.copyto(slab[:rows, block], w, where=miller)
                del index, w, miller, gone
        yield n0, slab[:rows], first


def _miller_tail(m: int, x, root_x, top, turn):
    """Miller's backward run at nodes of one m past their turning points,
    which come by turning point ascending.

    Each node's run goes from its start down to its turning point, as in
    :func:`_overlap_row`: at step k a node is at level start - k.  The
    nodes step in the order of the length start - turn of their runs,
    longest first, so the nodes still running at step k are a leading run
    of that order, and the loop takes as many steps as the longest run, not
    the span of the levels of all runs.  The run keeps each B_n, turn < n
    <= min(top, start - 1), and twice its binary exponent in a node-major
    store, 12 B a weight: node i's run of it begins at ``begin[i]`` and
    holds its kept levels ascending, and :func:`overlap_rows` scales it
    into the node's weights in place once the node passes its turning
    point.  Before the last level it keeps, a node's step writes its B into
    the place of that level, which it writes again later.  Returns the
    store (B, doubled exponents), ``begin`` (with the store's size last),
    the last level each node keeps, min(top, start - 1), B_turn, B_turn+1
    and their doubled exponent at every node, and the running maximum of
    the nodes' starts.
    """
    start = _row_levels_array(m, x, turn)
    kept = np.minimum(top, start - 1)
    begin = np.concatenate(([0], np.cumsum(kept - turn)))
    store = np.empty(int(begin[-1])), np.empty(int(begin[-1]), dtype=np.int32)

    # the nodes by the length of their runs, descending: the first
    # running[k] of them still run at step k
    length = start - turn
    order = np.argsort(-length, kind="stable")
    steps = int(length[order[0]])
    running = np.searchsorted(-length[order], -np.arange(steps)).tolist()
    # each node's level as a float, exact, and the place of its B there
    # less the step, which is at most that of its last kept level
    n = start[order].astype(float)
    place = (begin[:-1] - turn - 1)[order]
    place, last_place = place + start[order], place + kept[order]
    held = np.empty(order.size, dtype=np.int64)
    x, root_x = x[order], root_x[order]
    # B of a node at step k is row k % 3 of ring, from B_start = 1 and
    # B_start+1 = 0; a node that no longer runs keeps its last two there
    ring = np.zeros((3, order.size))
    ring[0] = 1.0
    rows = list(ring)
    scale2 = np.zeros(order.size, dtype=np.int32)
    root, root_next = np.zeros((2, order.size))
    every = _rescale_interval(root_x, int(start.max()) + m)
    for k in range(steps):
        run = running[k]
        low, high, new = rows[k % 3][:run], rows[(k - 1) % 3][:run], rows[(k + 1) % 3][:run]
        at = np.minimum(np.subtract(place[:run], k, out=held[:run]), last_place[:run], out=held[:run])
        store[0][at], store[1][at] = low, scale2[:run]
        r = root_next[:run]
        np.multiply(root_x[:run], np.sqrt(n[:run], out=r), out=r)
        np.subtract(n[:run], m, out=new)
        new += x[:run]
        new *= low
        high *= root[:run]
        new -= high
        new /= r
        root, root_next = root_next, root
        n[:run] -= 1.0
        if k % every == 0:
            _rescale(new, low, scale2[:run])

    # a node's last step leaves B_turn in row length % 3 and B_turn+1 in the
    # row before it
    nodes = np.arange(order.size)
    back, back_scale2 = np.empty((2, order.size)), np.empty(order.size, dtype=np.int32)
    back[0, order] = ring[length[order] % 3, nodes]
    back[1, order] = ring[(length[order] - 1) % 3, nodes]
    back_scale2[order] = scale2
    return store, begin, kept, back, back_scale2, np.maximum.accumulate(start)


def _rescale_interval(root_x, levels: int) -> int:
    """Steps between rescales of a row: a step multiplies the larger of the
    last two iterates by at most (|n - m + x| + sqrt(x n)) / sqrt(x (n+1)),
    so this many steps take one from 2^400 to at most 2^500."""
    low, high = float(root_x.min()), float(root_x.max())
    growth = (levels + high * high + high * math.sqrt(levels)) / low + 1.0
    return max(1, int(100.0 / math.log2(growth)))


def _seed(m: int, x):
    """D_0 at every node of one m as _overlap_row makes it: a mantissa and
    twice its binary exponent (int32).

    The factors sqrt(x / k) are multiplied in blocks of up to
    :func:`_work_rows` factors, in the order of _overlap_row, and the
    products rescaled after each block: a block is short enough that no
    product leaves the float range, and rescaling by exact powers of two at
    other steps changes no bit of the value.
    """
    lift = np.where(x < _SMALL, 64, 0)
    lifted = np.ldexp(x, (2 * lift).astype(np.int32))
    cur, scale = _exp_neg(0.5 * x)
    scale -= lift * m
    if m:
        # a factor is at most 2^|spread| from 1, so a block of `size`
        # factors moves a product inside (2^-400, 2^400) by under 2^500
        spread = max(abs(math.log2(lifted.max())), abs(math.log2(lifted.min() / m))) / 2
        size = max(1, min(_work_rows(x.size), int(500.0 / max(spread, 1.0))))
        factors = np.empty((size, x.size))
        for k0 in range(1, m + 1, size):
            k = np.arange(k0, min(k0 + size, m + 1), dtype=float)
            block = factors[: k.size]
            np.sqrt(np.divide(lifted, k[:, None], out=block), out=block)
            block[0] *= cur
            np.multiply.reduce(block, axis=0, out=cur)
            # the products are positive
            if cur.min() < _SMALL or cur.max() > _BIG:
                out = (cur < _SMALL) | (cur > _BIG)
                mantissa, shift = np.frexp(cur[out])
                cur[out] = mantissa
                scale[out] += shift
    return cur, (2 * scale).astype(np.int32)


