"""The level sum on one mesh in x that all levels share.

Level n of :func:`magdecay.rate.decay_rate` is the integral over
[0, X_n] of w(n, m, x) / sqrt((X_n - x)(Y_n - x)).  All levels share one
mesh of panels in t = sqrt(x / X_0), each with the 61-point Kronrod and
30-point Gauss rules of :mod:`magdecay.quadrature`.  The first mesh is
graded by the zeros of the levels' weights, so that each of its panels
holds a few zeros of the densest level that reaches it, and no panel is
wider than a floor set by m and the number of levels.
At every node one row of the recurrence across levels
(:func:`magdecay.specfun.overlap_rows`) gives the weights of all the
levels whose X_n reaches the node's panel, Miller's part past the turning
points included, in slabs of eight levels that are reduced in place into
per-panel Kronrod and Gauss sums as the row steps, so no (levels x nodes)
matrix is held.  Level n takes the plain rules on its panels below
the two around theta_n = sqrt(X_n / X_0); on those two, product weights
from closed-form moments integrate (theta_n - t)^(-1/2) exactly against
the interpolant of the rest (as QUADPACK's QAWS).  Their error is read
from how the interpolant's top Legendre coefficients fall (as Gonnet's
CQUAD), so it is that of the 61-node rule whose value is kept, and it is
never taken below the roundoff that the weights and the product weights
carry.  Every 32 levels the pass forms their values, errors and
tolerances, so no (levels x panels) sum is held either.  Shared panels
are bisected wherever a level misses its tolerance, and the next round is
a new pass over every panel: only the edges go from one round to the
next.
"""

from __future__ import annotations

import math

import numpy as np

from . import quadrature
from .specfun import _LEVEL_BATCH, ROW_ABS_ERROR, overlap_rows


# panels the shared mesh may hold before the level sum is given up: the one
# budget of both level-sum schemes
_MAX_PANELS = quadrature._MAX_PANELS
# zeros of the densest level that a panel of the first mesh may hold: at 6
# the first mesh meets rel_tol 1e-9 at 444 of the 445 points of the
# level_scan figure curves (mesh forced), all but (5e4, 4), which takes 5
# rounds from 4 panels to 8 (the k_z sum takes it in production), and
# every tolerance down to 1e-14 at each row of scripts/mesh_crossover.py;
# at 7, (1e3, 56) takes a second round too, and from 8 on the panel floor
# (_initial_panels) sets the whole first mesh at every point measured.
# From 4 to 6, (1e4, 300) goes from 53 to 42 panels and (1e4, 3000) from
# 520 to 402
_ZEROS_PER_PANEL = 6
# midpoints of the grid in t on which the first mesh integrates the zero
# density and inverts its integral
_DENSITY_GRID = 512
# the Kronrod nodes of a panel on [-1, 1]
_NODES = quadrature._NODES


def _legendre_inverse(nodes: np.ndarray) -> np.ndarray:
    """V^-1 of V_jk = P_k(u_j), k below the number of nodes: the Legendre
    coefficients of the interpolant from its values at the nodes (by
    Gauss-Jordan with partial pivoting: np.linalg would load LAPACK)."""
    n = nodes.size
    table = np.concatenate((np.ones((n, n)), np.eye(n)), axis=1)
    table[:, 1] = nodes
    for k in range(1, n - 1):
        table[:, k + 1] = ((2 * k + 1) * nodes * table[:, k] - k * table[:, k - 1]) / (k + 1)
    for k in range(n):
        pivot = k + np.abs(table[k:, k]).argmax()
        table[[k, pivot]] = table[[pivot, k]]
        table[k] /= table[k, k]
        table -= np.outer(table[:, k] - (np.arange(n) == k), table[k])
    return table[:, n:]


# V^-1 on the Kronrod nodes: the moments mu times it give the product
# weights W, and its rows give the interpolant's Legendre coefficients
_PRODUCT = _legendre_inverse(_NODES)
# the end pieces read their error from the top eight coefficients, a_53 to
# a_60, as two blocks of four; the ninth row, the mean of |V^-1| over the
# top block, times the values' relative roundoff bounds that of a
# coefficient there
_TAIL = 4
_TAIL_ROWS = np.vstack((_PRODUCT[-2 * _TAIL :], np.abs(_PRODUCT[-_TAIL:]).mean(axis=0)))
# coefficients that fall by less than this every four take the panel for
# one that does not resolve the end piece
_DECAY = 0.5
# 2 sqrt(2) / (2k + 1), k = 0..60
_MOMENT = 2.0 * math.sqrt(2.0) / (2 * np.arange(_NODES.size) + 1)
# levels the pass hands over at a time, four of the row's slabs, whose
# plain sums it holds on every panel and whose end pieces are formed
# together: their largest array, batch x 2 x 3 x 61 doubles, is then 94 KB
_PIECE_BATCH = 32
_EPS = float(np.finfo(float).eps)
# the roundoff of a product weight W_j = (mu V^-1)_j is at most 61 eps
# (|mu| |V^-1|)_j, Higham's bound on a dot product of 61 terms
_WEIGHT_ROUNDOFF = _NODES.size * _EPS * np.abs(_PRODUCT)
# a floor under (theta^2 - t^2)(1 - rho^2 t^2) past a level's own panels,
# where its weights in the buffer are zero
_TINY_GAP = 1e-300


def level_integrals(m: int, root_x, root_y, rel_tol: float, abs_tol: float):
    """Every level's integral and error estimate on one adaptively refined mesh.

    In t = sqrt(x / X_0) level n is the integral over [0, theta_n],
    theta_n = sqrt(X_n / X_0), of w(n, m, x) h_n(t) with

        h_n(t) = 2 t rho_n / sqrt((theta_n^2 - t^2)(1 - rho_n^2 t^2)),

    rho_n = sqrt(X_0 / Y_n) < 1.  The first round takes the mesh of
    :func:`_first_edges`.  Each round is one pass of the row over every
    panel of the mesh, which hands the levels over ``_PIECE_BATCH`` at a
    time: their value, estimate and tolerance are formed then, and a level
    that misses its tolerance adds its share of it on each panel to a
    per-panel score.  After the round every panel that holds more than its
    width-share of the tolerance of a level that misses it is bisected
    (:func:`_cuts`), and so is the worst piece of each such level; only
    the edges go on to the next round, so a round holds the row's per-node
    arrays and buffers of a batch of levels, never a sum per level and
    panel.
    The row stops at the last level with a nonzero weight at any node; a
    level past it is 0, with its floor as its estimate and tolerance.
    Returns two lists (values, error estimates), one entry per level.  When
    a level misses its tolerance within the panel budget,
    :class:`magdecay.quadrature.RateConvergenceError` names the lowest such
    level.
    """
    theta = root_x / root_x[0]
    rho = root_x[0] / root_y
    scale_x = root_x[0] * root_x[0]
    edges = _first_edges(m, theta, scale_x)
    # a weight at level n carries the roundings of the m + n steps of its
    # row (about one unit each; the first-order bound is eight), which floor
    # the level's estimate as the rule's roundoff does; the end pieces
    # count them on sum_j |W_j| f_j over their product weights W
    roundoff_share = np.maximum(quadrature._ROUNDOFF, _EPS * (m + 1 + np.arange(theta.size)))
    # and an absolute error of ROW_ABS_ERROR, which the integral of h_n,
    # 2 artanh(rho_n theta_n), carries into the level
    row_error = ROW_ABS_ERROR * 2.0 * np.arctanh(rho * theta)
    value, estimate, tol = np.empty((3, theta.size))
    while True:
        # the levels past the row's last nonzero weight are 0 at every node,
        # and their floor is their estimate and tolerance
        value.fill(0.0)
        estimate[:] = tol[:] = row_error
        panels = edges.size - 1
        upper = np.searchsorted(edges[:-1], theta, side="right") - 1
        score = np.zeros(panels)
        for n, kronrod, deviation, pair_w in _evaluate_panels(m, scale_x, theta, rho, edges, upper):
            th, up = theta[n], upper[n]
            endpoint = _endpoint_pieces(th, rho[n], edges, up, pair_w, roundoff_share[n])
            # the integrand is nonnegative: a sum that roundoff and
            # interpolation error in levels far below the floor leave
            # negative is raised to 0, which can only bring it closer
            plain = kronrod.sum(axis=1)
            value[n] = np.maximum(plain + endpoint[0], 0.0)
            error = np.abs(deviation).sum(axis=1) + endpoint[1]
            floor = roundoff_share[n] * np.maximum(plain + endpoint[2], 0.0) + endpoint[3] + row_error[n]
            estimate[n] = np.maximum(error, floor)
            tol[n] = np.maximum(np.maximum(rel_tol * value[n], abs_tol), floor)
            failing = estimate[n] > tol[n]
            if not failing.any():
                continue
            # each failing level's error per unit of its tolerance's
            # width-share on its plain panels and on its end piece; a level
            # with no tolerance at all (a zero value and no floor) has every
            # piece over its share
            share = (tol[n] / th)[failing]
            th, up = th[failing], up[failing]
            low = np.maximum(up - 1, 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                over = np.abs(deviation[failing]) / (share[:, None] * np.diff(edges))
                end_over = endpoint[1][failing] / (share * (th - edges[low]))
            over[np.isnan(over)] = 0.0
            end_over[np.isnan(end_over)] = 0.0
            worst = over.argmax(axis=1)
            plain_worst = over[np.arange(worst.size), worst] >= end_over
            over[np.flatnonzero(plain_worst), worst[plain_worst]] = np.inf
            end_over[~plain_worst] = np.inf
            np.maximum(score, over.max(axis=0), out=score)
            np.maximum.at(score, low, end_over)
            np.maximum.at(score, up, end_over)
        missed = np.flatnonzero(estimate > tol)
        if not missed.size:
            return value.tolist(), estimate.tolist()
        if panels >= _MAX_PANELS:
            n = int(missed[0])
            raise quadrature.RateConvergenceError(
                n, float(value[n]), float(estimate[n]), float(tol[n]), _MAX_PANELS
            )
        # each cut is the midpoint of a panel, strictly inside it while the
        # panel is wider than two ulps, so the sorted edges stay increasing
        edges = np.sort(np.concatenate((edges, _cuts(edges, score)[: _MAX_PANELS - panels])))


def _cuts(edges, score):
    """The new edges: the midpoint of every panel whose score passes 1 (it
    holds more than its width-share of a failing level's tolerance, or is
    a failing level's worst piece), largest score first."""
    split = np.flatnonzero(score > 1.0)
    split = split[np.argsort(-score[split], kind="stable")]
    return 0.5 * (edges[split] + edges[split + 1])


def _first_edges(m: int, theta: np.ndarray, scale_x: float) -> np.ndarray:
    """The edges of the first mesh on [0, 1] in t.

    At t the densest level among those that reach it (theta_n >= t) is the
    one nearest n = m + x, x = X_0 t^2, where the zero density per unit t,
    2 / t times :func:`_zeros_per_log_x`, peaks at 2 sqrt(m X_0) / pi.  A
    panel holds at most ``_ZEROS_PER_PANEL`` zeros of that level and is no
    wider than 1 / :func:`_initial_panels`: the edges split the integral of
    max(density / ``_ZEROS_PER_PANEL``, floor), taken on a grid of
    ``_DENSITY_GRID`` midpoints, into equal parts of at most one.
    """
    floor = _initial_panels(m, theta.size)
    t = (np.arange(_DENSITY_GRID) + 0.5) / _DENSITY_GRID
    x = scale_x * t * t
    n = np.minimum(m + x, np.searchsorted(-theta, -t, side="right") - 1)
    per_panel = np.maximum(2.0 / _ZEROS_PER_PANEL * _zeros_per_log_x(n, m, x) / t, floor)
    total = np.concatenate(([0.0], np.cumsum(per_panel))) / _DENSITY_GRID
    panels = math.ceil(total[-1])
    return np.interp(np.linspace(0.0, total[-1], panels + 1), total, np.linspace(0.0, 1.0, _DENSITY_GRID + 1))


def _zeros_per_log_x(n, m: int, x):
    """The zeros of w(n, m, x) per unit log x, by their WKB density
    sqrt((x_+ - x)(x - x_-)) / (2 pi) between the turning points x_+- =
    (sqrt(n) +- sqrt(m))^2 and 0 past them (Szego, Orthogonal Polynomials,
    ch. 6); over [x_-, x_+] it integrates in log x to min(n, m)."""
    return np.sqrt(np.maximum(x * (2.0 * (n + m) - x) - (n - m) ** 2, 0.0)) / (2.0 * math.pi)


def _initial_panels(m: int, levels: int) -> int:
    """The fewest panels of the first mesh, whose panels are no wider than
    the inverse.  The weights of the levels past m have m zeros each, about
    2 / sqrt(m) apart in sqrt(x), and sqrt(X_0) is about sqrt(levels):
    about sqrt(m levels) / 2 bumps over the mesh, of which a panel takes
    six (the fewest node-levels over the points measured on a uniform
    mesh).  A floor scaled by 0.3 takes 22-25% of the panels away at
    (1e4, 300), (1e3, 71), (5e3, 80) and (1e4, 1000), each still one
    round, but not the time: a pass costs about the same whatever its
    panels, and in alternated pairs (12 a point, twice) the median moved
    by -7% to +2%, faster in 5-11 of 12 pairs."""
    return 4 + math.isqrt(m * levels) // 12


def _evaluate_panels(m, scale_x, theta, rho, edges, upper):
    """One pass of the row over the nodes of every panel.

    Yields, ``_PIECE_BATCH`` consecutive levels at a time, their slice,
    each one's Kronrod sum and Kronrod minus Gauss sum on each panel that
    is plain for it (below the panel under its upper one; 0 on the rest),
    and its weights on its two panels around theta_n (in the place of the
    lower one of a lone first panel, the first node's, which
    :func:`_endpoint_pieces` scales by 0).  The buffers are filled again
    for the next batch.  The row hands over ``_LEVEL_BATCH`` levels at a
    time in its slab, which is the buffer of their plain reductions: the
    pass takes out each level's two-panel weights, zeroes a level's
    weights past its plain panels, and reduces the slab in place over the
    panels that hold a nonzero weight of it.  The pass ends with the row,
    at the last level with a nonzero weight at any node: the levels past
    it are not yielded.
    """
    width = _NODES.size
    half = 0.5 * np.diff(edges)
    t = (0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * _NODES).reshape(-1)
    t_sq = t * t
    # a panel's nodes serve the levels whose upper panel is at or past it
    top = np.searchsorted(-upper, -np.arange(half.size), side="right") - 1
    # where each level's plain panels end and its two panels around
    # theta_n end (a lone first panel has no lower one)
    plain_stop = (np.maximum(upper - 1, 0) * width).tolist()
    pair_end = (upper + 1) * width
    # a level's two panels end at its pair end, and row k of the slab
    # starts k rows of nodes in; a lone first panel's lower one takes the
    # first node's weights
    pair = np.arange(-2 * width, 0)
    row_start = np.arange(_LEVEL_BATCH)[:, None] * t.size
    kronrod = np.zeros((_PIECE_BATCH, half.size))
    deviation = np.zeros((_PIECE_BATCH, half.size))
    pair_w = np.zeros((_PIECE_BATCH, 2 * width))

    for n0, slab, first in overlap_rows(m, scale_x * t_sq, top.repeat(width)):
        rows = slab.shape[0]
        levels = slice(n0, n0 + rows)
        at = slice(n0 % _PIECE_BATCH, n0 % _PIECE_BATCH + rows)
        if at.start == 0:
            kronrod.fill(0.0)
            deviation.fill(0.0)
        places = np.maximum(pair_end[levels, None] + pair, 0)
        places += row_start[:rows]
        np.take(slab, places, out=pair_w[at])
        # the slab's first level has the most plain panels, and the nodes
        # before `first` have no weight at any of its levels; past a level's
        # plain panels its weights do not add to them
        lead, end = first // width * width, plain_stop[n0]
        for k, plain in enumerate(plain_stop[n0 + 1 : n0 + rows], start=1):
            slab[k, plain:end] = 0.0
        # only the panels that hold a nonzero weight of the slab add to it:
        # weights that underflow leave zeros at both ends of the nodes that
        # step forward, where the row does not know them (the weights are
        # never negative, so their largest is 0 only where all are)
        nonzero = np.flatnonzero(slab[:, lead:end].max(axis=0, initial=0.0))
        if nonzero.size:
            lead, end = lead + nonzero[0] // width * width, lead + (nonzero[-1] // width + 1) * width
            th, r = theta[levels, None], rho[levels, None]
            ts = t[lead:end]
            weights = slab[:, lead:end]
            # in place: the gap, and f = w t / sqrt(gap) on the weights
            gap = th - ts
            gap *= th + ts
            gap *= 1.0 - r * r * t_sq[lead:end]
            # past a level's own plain panels its weights are zero here
            np.sqrt(np.maximum(gap, _TINY_GAP, out=gap), out=gap)
            f = np.multiply(weights, ts, out=weights)
            f /= gap
            sums = (f.reshape(-1, width) @ quadrature._WEIGHTS_KG).reshape(rows, -1, 2)
            sums *= (2.0 * r)[:, :, None] * half[lead // width : end // width, None]
            panels = slice(lead // width, end // width)
            kronrod[at, panels] += sums[:, :, 0]
            deviation[at, panels] += sums[:, :, 0] - sums[:, :, 1]
        stop = n0 + rows
        if stop % _PIECE_BATCH == 0:
            yield slice(stop - _PIECE_BATCH, stop), kronrod, deviation, pair_w
    # the row stops after its last level with a nonzero weight
    rows = stop % _PIECE_BATCH
    if rows:
        yield slice(stop - rows, stop), kronrod[:rows], deviation[:rows], pair_w[:rows]


def _endpoint_pieces(theta, rho, edges, upper, pair_w, roundoff):
    """Each level's integral over its two panels around theta_n, its error,
    and the two roundoff scales of its floor, as four rows.

    On a panel of centre c0 and half-width h, with u = (t - c0) / h and c =
    (theta_n - c0) / h, the piece is 2 rho_n sqrt(h) times the integral up
    to min(c, 1) of (c - u)^(-1/2) f_n(u), f_n = w t / sqrt((theta_n + t)(1
    - rho_n^2 t^2)): sum_j W_j f_j, whose product weights W = mu V^-1
    (:func:`_moments`) integrate the interpolant of f_n through the 61
    Kronrod nodes exactly.  The weights' relative roundoff times sum_j |W_j|
    f_j bounds the piece's roundoff, and sum_j (61 eps |mu| |V^-1|)_j f_j
    that of the float W_j, which past theta_n meet f_j far larger than the
    piece.

    The error of a panel is read from the interpolant's Legendre
    coefficients a = V^-1 f (Gonnet, ACM TOMS 37(3), 2010), of which it
    forms the top eight.  With A and B the largest |a_k| over k = 53..56
    and 57..60, the coefficients past a_60 are taken to fall on as from A
    to B, by r = B / A every four: the j-th block of four past a_60 is four
    coefficients of B r^j, and the tail sums to 4 B r / (1 - r).  The error
    is mu_0, the integral of (c - u)^(-1/2), times twice that sum, 8 mu_0 B
    r / (1 - r).  Coefficients that fall by less than ``_DECAY`` do not
    resolve f_n, and the error is then 4 mu_0 (A + B), at least mu_0 times
    the sum of the eight.  A B within ``roundoff`` (a level's relative
    roundoff of f_j) times the mean over the top four k of sum_j |V^-1_kj|
    f_j is the coefficients' roundoff plateau: the interpolant has
    resolved f_n to its roundoff, which the floors count, and the error is
    0.  Takes at most ``_PIECE_BATCH`` levels."""
    width = _NODES.size
    # the lower and the upper panel: a lone first panel has no lower one
    p = np.stack((np.maximum(upper - 1, 0), upper), axis=1)
    low, high = edges[p], edges[p + 1]
    half = 0.5 * (high - low)
    centre = 0.5 * (low + high)
    # c + 1 and c - 1 from the edges, never from c: the moments have a
    # square-root branch at c = 1
    mu = _moments(_moment_root((theta[:, None] - low) / half, (theta[:, None] - high) / half))
    scale = 2.0 * rho[:, None] * np.sqrt(half)
    scale[upper == 0, 0] = 0.0
    # W, |W| and 61 eps |mu| |V^-1|, each product for the whole batch at once
    rows = np.empty(mu.shape[:2] + (3, width))
    flat = mu.reshape(-1, width)
    rows[:, :, 0] = (flat @ _PRODUCT).reshape(mu.shape)
    np.abs(rows[:, :, 0], out=rows[:, :, 1])
    rows[:, :, 2] = (np.abs(flat) @ _WEIGHT_ROUNDOFF).reshape(mu.shape)
    t = centre[:, :, None] + half[:, :, None] * _NODES
    f = pair_w.reshape(-1, 2, width) * t * scale[:, :, None]
    rt = rho[:, None, None] * t
    f /= np.sqrt((theta[:, None, None] + t) * (1.0 - rt * rt))
    pieces = np.empty((4, theta.size))
    pieces[[0, 2, 3]] = (rows @ f[..., None]).sum(axis=1)[..., 0].T
    # the top coefficients as two blocks, and their roundoff scale
    top = f.reshape(-1, width) @ _TAIL_ROWS.T
    head, tail = np.abs(top[:, :-1]).reshape(-1, 2, _TAIL).max(axis=2).T
    with np.errstate(divide="ignore", invalid="ignore"):
        fall = tail / head
        # a head of 0 under a nonzero tail does not decay either
        error = np.where(fall < _DECAY, 2.0 * _TAIL * tail * fall / (1.0 - fall), _TAIL * (head + tail))
    error[tail <= roundoff.repeat(2) * top[:, -1]] = 0.0
    pieces[1] = (error * flat[:, 0]).reshape(-1, 2).sum(axis=1)
    return pieces


def _moment_root(above, below):
    """sqrt(z), c = (z + 1/z) / 2, from above = c + 1 and below = c - 1:
    sqrt(2) / (sqrt(c + 1) + sqrt(c - 1)), sqrt(c - 1) = i sqrt(1 - c) for
    c < 1; real for c >= 1, and on the unit circle for |c| <= 1."""
    root = np.sqrt(np.abs(below))
    return math.sqrt(2.0) / (np.sqrt(above) + np.where(below > 0.0, root, 1j * root))


def _moments(root):
    """The Legendre moments mu_k = int_-1^min(c,1) P_k(u) (c - u)^(-1/2) du,
    k = 0..60, from sqrt(z) (:func:`_moment_root`): 2 sqrt(2) Re(sqrt(z)
    z^k) / (2k + 1), by one cumulative product.  For c >= 1, z = r = 1 / (c
    + sqrt(c^2 - 1)) and the generating function of P_k, as c - u = (1 - 2
    u r + r^2) / (2r), gives 2 sqrt(2 r) r^k / (2k + 1); for |c| <= 1, z =
    exp(-i phi), cos(phi) = c, it is Mehler-Dirichlet's integral."""
    powers = np.empty(root.shape + (_MOMENT.size,), complex)
    powers[..., 0] = root
    powers[..., 1:] = (root * root)[..., None]
    np.multiply.accumulate(powers, axis=-1, out=powers)
    return _MOMENT * powers.real
