"""Panel-adaptive Gauss-Kronrod quadrature over many intervals at once.

A 7-point Gauss rule embedded in a 15-point Kronrod rule supplies the value
and the error estimate on each panel.  Panels whose error exceeds their
width-proportional share of their interval's tolerance are bisected.  The
panels of the intervals still open live in one flat table (a block of
``_BLOCK`` intervals at a time), and each refinement round evaluates the
pending panels of all of them together, in vectorized integrand calls of
at most ``_CHUNK`` panels, which keeps the per-point cost low for
integrands built on index recurrences.

The refinement policy is deterministic and per interval: panel order,
splits, and the final compensated sums of an interval do not depend on
which other intervals share its rounds or on how panels are batched into
integrand calls, because each panel's rule sums run in a fixed order.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

__all__ = ["QuadraturePanelError", "integrate"]

# 15-point Kronrod abscissae on [-1, 1] (ascending); every second one,
# starting from the second, is a node of the embedded 7-point Gauss rule
_NODES = np.array(
    [
        -0.9914553711208126,
        -0.9491079123427585,
        -0.8648644233597691,
        -0.7415311855993944,
        -0.5860872354676911,
        -0.4058451513773972,
        -0.2077849550078985,
        0.0,
        0.2077849550078985,
        0.4058451513773972,
        0.5860872354676911,
        0.7415311855993944,
        0.8648644233597691,
        0.9491079123427585,
        0.9914553711208126,
    ]
)

_WEIGHTS_K = np.array(
    [
        0.0229353220105292,
        0.0630920926299785,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
        0.2044329400752989,
        0.1903505780647854,
        0.1690047266392679,
        0.1406532597155259,
        0.1047900103222502,
        0.0630920926299785,
        0.0229353220105292,
    ]
)

# 7-point Gauss weights scattered onto the 15-node layout
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1::2] = [
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
    0.3818300505051189,
    0.2797053914892767,
    0.1294849661688697,
]


class QuadraturePanelError(RuntimeError):
    """Raised when the panel budget is exhausted before the tolerance is met.

    Carries the best available value and its error estimate so callers can
    decide whether the partial result is usable, and the index of the
    interval that failed (0 for a single interval).
    """

    def __init__(self, message: str, value: float, error_estimate: float, interval: int = 0):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.interval = interval


# panels per integrand call: bounds the memory of a call, and keeps the
# work arrays of a recurrence-based integrand in cache, however many
# panels a round refines
_CHUNK = 512
# intervals per adaptive loop: bounds the panel table and the per-round
# lists of its sums however many intervals one call integrates
_BLOCK = 128
_ROUNDOFF = 50.0 * float(np.finfo(float).eps)
# the Kronrod and Gauss weights as the columns of one matrix, and the
# Kronrod weights alone as a one-column matrix
_WEIGHTS_KG = np.stack((_WEIGHTS_K, _WEIGHTS_G), axis=1)
_WEIGHTS_K1 = _WEIGHTS_K[:, None].copy()
# rows of a panel table, one column per panel: its ends, its rule results,
# and the index of the interval it belongs to
_LO, _HI, _VALUE, _ERROR, _MASS, _OWNER = range(6)


def _evaluate_panels(f, panels) -> None:
    """Fill in the rule results of every panel, ``_CHUNK`` panels per call of f.

    ``f(x, panels)`` gets the rule's points and the panels they belong to.
    """
    for s in range(0, panels.shape[1], _CHUNK):
        _panel_rule(f, panels[:, s : s + _CHUNK])


def _panel_rule(f, panels) -> None:
    """Value, error and |f| mass of the embedded rule pair on each panel."""
    mid = 0.5 * (panels[_LO] + panels[_HI])
    half = 0.5 * (panels[_HI] - panels[_LO])
    points = mid[:, None] + half[:, None] * _NODES
    values = f(points.ravel(), panels)
    values = np.asarray(values, dtype=float).reshape(points.shape)
    if not np.isfinite(values).all():
        raise FloatingPointError("integrand returned a non-finite value")

    # one small product per panel: a single matrix-vector product over all
    # panels gives bits that depend on how many panels share the call
    sums = values[:, None, :] @ _WEIGHTS_KG
    res_k, res_g = sums[:, 0, 0], sums[:, 0, 1]
    mass = np.abs(values)[:, None, :] @ _WEIGHTS_K1
    np.multiply(mass[:, 0, 0], half, out=panels[_MASS])
    # QUADPACK-style estimate: scale |K - G| by the integrand's deviation
    # from its panel mean so smooth panels are not over-penalized
    deviation = np.abs(values - 0.5 * res_k[:, None])[:, None, :] @ _WEIGHTS_K1
    res_asc = deviation[:, 0, 0] * half
    raw = np.abs(res_k - res_g) * half
    if np.count_nonzero(res_asc) == res_asc.size:
        # the common case: no panel is flat, nothing to mask
        panels[_ERROR] = res_asc * np.minimum(1.0, (200.0 * raw / res_asc) ** 1.5)
    else:
        spread = res_asc > 0.0
        scaled = res_asc * np.minimum(1.0, (200.0 * raw / np.where(spread, res_asc, 1.0)) ** 1.5)
        panels[_ERROR] = np.where(spread, scaled, raw)
    np.multiply(res_k, half, out=panels[_VALUE])


def integrate(
    f,
    a,
    b,
    rel_tol: float = 1e-9,
    abs_tol: float = 0.0,
    max_subdivisions: int = 2000,
):
    """Adaptively integrate vectorized ``f`` over [a, b], or over many intervals.

    With scalar ``a`` and ``b``, ``f(x)`` is called on arrays of points and
    (value, error_estimate) is returned.  With 1-D arrays ``a`` and ``b``,
    interval i is [a_i, b_i], ``f(x, i)`` receives with each point the index
    of its interval, and two lists (values, error_estimates) are returned;
    every interval gets exactly the result it would get alone.

    Each error estimate aims at rel_tol * |value| + abs_tol; an ``abs_tol``
    of zero falls back to an internal floor of 1e-18 times the running
    estimate, i.e. an essentially pure relative target.  When an interval
    does not reach its tolerance within ``max_subdivisions`` panels, the
    others still run to the end, and then :class:`QuadraturePanelError` is
    raised for the lowest such interval.
    """
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    if not 0.0 <= abs_tol < math.inf:
        raise ValueError(f"abs_tol must be nonnegative and finite, got {abs_tol}")
    lo = np.asarray(a, dtype=float)
    hi = np.asarray(b, dtype=float)
    single = lo.ndim == 0 and hi.ndim == 0
    if single:
        lo, hi, g = lo.reshape(1), hi.reshape(1), f
        f = lambda x, panels: g(x)
    elif lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError(f"interval ends must be 1-D of one length, got {lo.shape}, {hi.shape}")
    else:
        g = f
        f = lambda x, panels: g(x, panels[_OWNER].astype(np.int64).repeat(_NODES.size))
    if np.count_nonzero(hi < lo):
        i = np.argmax(hi < lo)
        raise ValueError(f"inverted interval [{lo[i]}, {hi[i]}]")

    values, errors = [0.0] * lo.size, [0.0] * lo.size
    width = (hi - lo).tolist()
    failures = {}
    # one column per interval to start with, each a single panel; an
    # interval of zero width integrates to exactly zero
    panels = np.zeros((6, lo.size))
    panels[_LO], panels[_HI], panels[_OWNER] = lo, hi, np.arange(lo.size)
    if 0.0 in width:
        panels = panels.compress(hi != lo, axis=1)
    for start in range(0, panels.shape[1], _BLOCK):
        _integrate_block(
            f, panels[:, start : start + _BLOCK], width,
            rel_tol, abs_tol, max_subdivisions, values, errors, failures,
        )
    if failures:
        i = min(failures)
        total, estimate, tol = failures[i]
        raise QuadraturePanelError(
            f"no convergence within {max_subdivisions} panels "
            f"(error {estimate:.3e}, tolerance {tol:.3e})",
            total,
            estimate,
            i,
        )
    return (values[0], errors[0]) if single else (values, errors)


def _integrate_block(
    f, panels, width, rel_tol, abs_tol, max_subdivisions, values, errors, failures
) -> None:
    """Run the adaptive loop on a block of intervals, one panel each, together.

    The panels are grouped by interval in ascending order, and stay so,
    left to right inside each group.  Fills in ``values`` and ``errors`` of
    the converged intervals and records (value, error, tolerance) in
    ``failures`` for those that ran out of panels.
    """
    _evaluate_panels(f, panels)
    while panels.shape[1]:
        val, err, mass, owner = panels[_VALUE:].tolist()
        counts, keep, tols, widths, worst = [], [], [], [], []
        s = kept = 0
        while s < len(owner):
            i = int(owner[s])
            e = bisect.bisect_right(owner, owner[s], s)
            total = math.fsum(val[s:e])
            # the roundoff of the |f| mass floors both the request and the
            # reported estimate: a cancelling integral can never beat it no
            # matter how many panels are spent, and a rule pair agreeing to
            # exactly zero still carries it
            roundoff = _ROUNDOFF * math.fsum(mass[s:e])
            estimate = max(math.fsum(err[s:e]), roundoff)
            tol = max(rel_tol * abs(total), abs_tol, 1e-18 * abs(total), roundoff)
            count = e - s
            is_open = estimate > tol and count < max_subdivisions
            if is_open:
                # always split the worst panel (the leftmost of equal worst
                # ones), so progress is made; positions count only the
                # panels of the intervals kept open
                worst.append(kept + err.index(max(err[s:e]), s, e) - s)
                tols.append(tol)
                widths.append(width[i])
                kept += count
            elif estimate <= tol:
                values[i], errors[i] = total, estimate
            else:
                failures[i] = (total, estimate, tol)
            counts.append(count)
            keep.append(is_open)
            s = e
        # the sums' lists are as long as the table: free them before the
        # halves are evaluated
        del val, err, mass, owner
        if not kept:
            break
        if kept < panels.shape[1]:
            panels = panels.compress(np.repeat(keep, counts), axis=1)
            counts = [c for c, k in zip(counts, keep) if k]

        # split every panel holding more than its width-share of its
        # interval's tolerance
        if len(counts) == 1:
            # one interval: its tolerance and width broadcast as they are
            tol, span = tols[0], widths[0]
        else:
            tol, span = np.array([tols, widths]).repeat(counts, axis=1)
        refine = panels[_ERROR] > tol * (panels[_HI] - panels[_LO]) / span
        refine.put(worst, True)
        s = 0
        for count in counts:
            # a split adds a panel, so only an interval holding over half
            # its budget can overrun it
            splits = refine[s : s + count].sum() if 2 * count > max_subdivisions else 0
            if count + splits > max_subdivisions:
                # over budget: split only the largest errors that still fit
                chosen = s + np.flatnonzero(refine[s : s + count])
                ranked = chosen[np.argsort(-panels[_ERROR, chosen], kind="stable")]
                refine[ranked[max_subdivisions - count :]] = False
            s += count

        # replace every split panel by its two halves and evaluate them
        parents = panels.take(refine.nonzero()[0], axis=1)
        mid = 0.5 * (parents[_LO] + parents[_HI])
        halves = parents.repeat(2, axis=1)
        halves[_HI, 0::2] = mid
        halves[_LO, 1::2] = mid
        _evaluate_panels(f, halves)
        copies = refine + 1
        panels = panels.repeat(copies, axis=1)
        panels[:, refine.repeat(copies)] = halves
