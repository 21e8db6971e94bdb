"""Spans and work counts recorded around the calls into each magdecay layer.

The tracer replaces module attributes that magdecay's own callers look up
at call time (``rate.decay_rate``, ``quadrature.integrate``, the
``overlap_weight`` binding inside ``rate``, ...) with wrappers that record a
span per call: name, start, end, parent span, operation id, and its work
counts.  Nothing inside the package is edited, so the same benchmark runs on
any commit; an attribute a later commit no longer has is skipped, reported,
and its layer reads zero.

Spans are kept in memory and written out once, when the run ends.  A span's
self time is its duration minus the durations of its direct children (the
program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# Per point and per recurrence step, the ``overlap_weight`` loop body
# ``((2j+1+d - x) * phi_cur - s * phi_prev) / t`` (as of commit c438eea) is
# five float64 array operations: 5 flops and 12 operands of 8 bytes
# (7 reads, 5 writes).  Both are computed from array sizes, not measured.
FLOPS_PER_STEP = 5
BYTES_PER_STEP = 12 * 8
# points per Gauss-Kronrod panel; a refinement evaluates two halves
KRONROD_POINTS = 15


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    points: int = 0  # integrand or overlap points; levels for decay_rate; trials for the oracle
    steps: int = 0  # overlap recurrence steps: points * min(n, m)


def _integrand_work(args, kwargs, result):
    return int(np.size(result)), 0


def _overlap_work(args, kwargs, result):
    values = dict(zip(("n", "m", "x"), args), **kwargs)
    points = int(np.size(values["x"]))
    return points, points * min(int(values["n"]), int(values["m"]))


def _rate_work(args, kwargs, result):
    return result.n_max_used + 1, 0


def _oracle_work(args, kwargs, result):
    return result.trials, 0


class Tracer:
    """Records a span for every call of a wrapped binding while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, work=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if work is not None:
                span.points, span.steps = work(args, kwargs, result)
            return result

        return traced

    def _patch(self, module, attr: str, name: str, work=None, integrand=False) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._restore.append((module, attr, original))
        fn = original
        if integrand:
            # the integrand passed in is a layer boundary of its own: one
            # call per refinement round, its size the points evaluated
            def fn(f, *args, **kwargs):
                return original(self._wrap("integrand", f, _integrand_work), *args, **kwargs)

        setattr(module, attr, self._wrap(name, fn, work))

    def install(self) -> None:
        """Wrap the bindings magdecay's callers use; undo with :meth:`uninstall`."""
        from magdecay import cli, landau, oracle, quadrature, rate, specfun, units

        self._patch(cli, "main", "cli.main")
        self._patch(rate, "decay_rate", "rate.decay_rate", _rate_work)
        self._patch(quadrature, "integrate", "quadrature.integrate", integrand=True)
        for module in (rate, specfun, oracle):
            self._patch(module, "overlap_weight", "specfun.overlap_weight", _overlap_work)
        self._patch(rate, "kz_cutoff", "landau.kz_cutoff")
        self._patch(rate, "max_daughter_level", "landau.max_daughter_level")
        self._patch(landau, "field_for_radial_energy", "landau.field_for_radial_energy")
        self._patch(oracle, "verify_closed_form", "oracle.verify_closed_form", _oracle_work)
        self._patch(specfun, "overlap_completeness_sum", "specfun.completeness")
        for attr in ("radius_si", "acceleration_si", "de_broglie_si", "field_to_gauss"):
            self._patch(units, attr, f"units.{attr}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Write the spans as JSON Lines: [name, start, end, parent, op, points, steps]."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.name, s.start, s.end, s.parent, s.op,
                                         s.points, s.steps]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer work counts and times from one traced pass."""
    duration = [s.end - s.start for s in spans]
    children = [0.0] * len(spans)
    under_rate = [False] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent] += duration[i]
            under_rate[i] = under_rate[s.parent]
        under_rate[i] = under_rate[i] or s.name == "rate.decay_rate"
    self_time = [d - c for d, c in zip(duration, children)]

    def named(prefix):
        return [i for i, s in enumerate(spans) if s.name.startswith(prefix)]

    overlap = named("specfun.overlap_weight")
    integrate = named("quadrature.integrate")
    integrand = named("integrand")
    rate_calls = named("rate.decay_rate")
    landau_calls = named("landau.")
    cli_calls = named("cli.main")
    oracle_calls = named("oracle.")

    points = sum(spans[i].points for i in overlap)
    steps = sum(spans[i].steps for i in overlap)
    busy = sum(duration[i] for i in overlap)

    rounds = Counter(spans[i].parent for i in integrand)
    quad_points = Counter()
    for i in integrand:
        quad_points[spans[i].parent] += spans[i].points
    evaluated = sum(quad_points.values())
    # a call evaluating P points ends with 1 + (P/15 - 1)/2 panels
    final_panels = sum(1 + (p / KRONROD_POINTS - 1) / 2 for p in quad_points.values() if p)
    quad_self = sum(self_time[i] for i in integrate)
    per_level = [rounds[i] for i in integrate]

    return {
        "specfun.calls": len(overlap),
        "specfun.points": points,
        "specfun.points_per_call": _ratio(points, len(overlap)),
        "specfun.recurrence_steps": steps,
        "specfun.busy_s": busy,
        "specfun.ns_per_step": _ratio(busy, steps) * 1e9,
        "specfun.flops_computed": FLOPS_PER_STEP * steps,
        "specfun.bytes_computed": BYTES_PER_STEP * steps,
        "specfun.completeness.busy_s": sum(duration[i] for i in named("specfun.completeness")),
        "quadrature.calls": len(integrate),
        "quadrature.rounds": len(integrand),
        "quadrature.rounds_per_level_mean": _ratio(len(integrand), len(integrate)),
        "quadrature.rounds_per_level_max": max(per_level, default=0),
        "quadrature.points": evaluated,
        "quadrature.self_s": quad_self,
        "quadrature.us_per_round_self": _ratio(quad_self, len(integrand)) * 1e6,
        "quadrature.useful_point_fraction": _ratio(KRONROD_POINTS * final_panels, evaluated),
        "rate.calls": len(rate_calls),
        "rate.levels": sum(spans[i].points for i in rate_calls),
        "rate.self_s": sum(self_time[i] for i in rate_calls),
        "rate.integrand_self_s": sum(self_time[i] for i in integrand if under_rate[i]),
        "landau.calls": len(landau_calls),
        "landau.busy_s": sum(duration[i] for i in landau_calls),
        "units.busy_s": sum(duration[i] for i in named("units.")),
        "cli.calls": len(cli_calls),
        "cli.self_s": sum(self_time[i] for i in cli_calls),
        "oracle.trials": sum(spans[i].points for i in oracle_calls),
        "oracle.busy_s": sum(duration[i] for i in oracle_calls),
    }
