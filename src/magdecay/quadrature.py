"""Panel-adaptive Gauss-Kronrod quadrature over many intervals at once.

A 30-point Gauss rule embedded in a 61-point Kronrod rule (QUADPACK's
qk61) supplies the value and the error estimate on each panel.  Panels
whose error exceeds their width-proportional share of their interval's
tolerance are bisected.  The panels of the intervals still open live in
one flat table (a block of ``_BLOCK`` intervals at a time), and each
refinement round evaluates the pending panels of all of them together, in
vectorized integrand calls of at most ``_CHUNK`` panels (7,680 points),
which keeps the per-point cost low for integrands built on index
recurrences.

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

# QUADPACK's qk61 pair: the nonnegative half of the 61-point Kronrod
# abscissae on [-1, 1], descending to the middle node 0, their Kronrod
# weights, and the weights of the embedded 30-point Gauss rule, whose
# nodes are _XGK[1], _XGK[3], ..., _XGK[29].  Written by
# ``scripts/gauss_kronrod.py 30`` (40-digit arithmetic, nearest doubles).
_XGK = (
    0.9994844100504906,
    0.9968934840746495,
    0.9916309968704046,
    0.9836681232797472,
    0.9731163225011262,
    0.9600218649683075,
    0.94437444474856,
    0.9262000474292743,
    0.9055733076999078,
    0.8825605357920527,
    0.8572052335460612,
    0.8295657623827684,
    0.799727835821839,
    0.7677774321048262,
    0.7337900624532268,
    0.6978504947933158,
    0.6600610641266269,
    0.6205261829892429,
    0.5793452358263617,
    0.5366241481420199,
    0.49248046786177857,
    0.44703376953808915,
    0.4004012548303944,
    0.3527047255308781,
    0.30407320227362505,
    0.25463692616788985,
    0.20452511668230988,
    0.15386991360858354,
    0.10280693796673702,
    0.0514718425553177,
    0.0,
)

_WGK = (
    0.0013890136986770077,
    0.003890461127099884,
    0.0066307039159312926,
    0.009273279659517764,
    0.011823015253496341,
    0.014369729507045804,
    0.01692088918905327,
    0.019414141193942382,
    0.021828035821609193,
    0.0241911620780806,
    0.0265099548823331,
    0.02875404876504129,
    0.030907257562387762,
    0.03298144705748372,
    0.034979338028060025,
    0.03688236465182123,
    0.038678945624727595,
    0.040374538951535956,
    0.041969810215164244,
    0.04345253970135607,
    0.04481480013316266,
    0.04605923827100699,
    0.04718554656929915,
    0.04818586175708713,
    0.04905543455502978,
    0.04979568342707421,
    0.05040592140278235,
    0.05088179589874961,
    0.051221547849258774,
    0.05142612853745902,
    0.05149472942945157,
)

_WG = (
    0.007968192496166605,
    0.01846646831109096,
    0.02878470788332337,
    0.03879919256962705,
    0.04840267283059405,
    0.057493156217619065,
    0.06597422988218049,
    0.0737559747377052,
    0.08075589522942021,
    0.08689978720108298,
    0.09212252223778612,
    0.09636873717464425,
    0.09959342058679527,
    0.1017623897484055,
    0.10285265289355884,
)


def _mirror(half, sign: float = 1.0) -> np.ndarray:
    """The full ascending layout of a descending nonnegative half, mirrored
    about its last (middle) entry, so the rule's symmetry is exact."""
    half = np.asarray(half, dtype=float)
    return np.concatenate((sign * half[:-1], half[::-1]))


# the 61 Kronrod abscissae (ascending) and weights, and the 30 Gauss
# weights scattered onto that layout: the Gauss nodes sit at its odd
# positions, none of them at the middle, so the 15 tabulated weights and
# their mirror image fill them
_NODES = _mirror(_XGK, -1.0)
_WEIGHTS_K = _mirror(_WGK)
_WEIGHTS_G = np.zeros(_NODES.size)
_WEIGHTS_G[1::2] = np.concatenate((_WG, _WG[::-1]))


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


# panels per integrand call: at most 7,680 points per call bounds the
# memory of a call, and keeps the work arrays of a recurrence-based
# integrand in cache, however many panels a round refines
_CHUNK = 7680 // _NODES.size
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

    ``f(x, panels)`` gets the rule's points, one row per panel, and the
    panels.
    """
    for s in range(0, panels.shape[1], _CHUNK):
        _panel_rule(f, panels[:, s : s + _CHUNK])


def _panel_rule(f, panels) -> None:
    """Value, error and |f| mass of the embedded rule pair on each panel."""
    mid = 0.5 * (panels[_LO] + panels[_HI])
    half = 0.5 * (panels[_HI] - panels[_LO])
    points = mid[:, None] + half[:, None] * _NODES
    values = f(points, panels)
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

    With scalar ``a`` and ``b``, ``f(x)`` is called on 1-D arrays of points
    and (value, error_estimate) is returned.  With 1-D arrays ``a`` and
    ``b``, interval i is [a_i, b_i]; ``f(x, i)`` receives the points as a
    (panels, 61) array, one panel's Kronrod points per row, with the index
    of each row's interval in ``i``, and returns values of the shape of
    ``x``.  Two lists (values, error_estimates) are returned, and every
    interval gets exactly the result it would get alone.

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
        f = lambda x, panels: g(x.ravel())
    elif lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError(f"interval ends must be 1-D of one length, got {lo.shape}, {hi.shape}")
    else:
        g = f
        f = lambda x, panels: g(x, panels[_OWNER].astype(np.int64))
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
