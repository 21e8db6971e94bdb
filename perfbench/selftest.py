#!/usr/bin/env python3
"""Self-test of the benchmark: pinned work counts and a gate that rejects bad output.

    python3 perfbench/selftest.py

Run from the root of a checkout; exits 0 when every check holds.  The
counts are those of the parent commit of the benchmark's introduction.  A
change to the quadrature or the overlap recurrence that alters them fails
here loudly; such a change must say so and update the pins.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ops  # noqa: E402
import spans  # noqa: E402

# (argv, {metric: pinned value})
PINNED = (
    (("rate", "--p-perp2", "1e4", "--m", "30"), {
        "rate.levels": 65,
        "quadrature.calls": 65,
        "quadrature.rounds": 309,
        "quadrature.points": 15_135,
        "specfun.recurrence_steps": 321_615,
    }),
    (ops.INERTIAL, {
        "rate.levels": 636,
        "quadrature.points": 1_008_990,
    }),
)
COUNTS = ("rate.levels", "quadrature.calls", "quadrature.rounds", "quadrature.points",
          "specfun.calls", "specfun.points", "specfun.recurrence_steps")


def traced_counts(argv) -> dict:
    from magdecay import cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
    finally:
        tracer.uninstall()
    if code != 0:
        raise AssertionError(f"{argv} exited {code}")
    metrics = spans.layer_metrics(tracer.spans)
    return {key: metrics[key] for key in COUNTS}


def main() -> int:
    problems = []
    for argv, pinned in PINNED:
        first = traced_counts(argv)
        for key, want in pinned.items():
            if first[key] != want:
                problems.append(f"{' '.join(argv)}: {key} = {first[key]}, pinned {want}")
        print(f"{' '.join(argv)}: {first}")
    small = PINNED[0][0]
    if traced_counts(small) != traced_counts(small):
        problems.append(f"{' '.join(small)}: counts differ between two traced runs")

    # the gate must reject an output that differs from its reference
    operation = ops.warmup()
    from magdecay import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(operation.argv))
    good = buffer.getvalue()
    operation.check(code, good)
    header, rows = ops.read_csv(good)
    for column, factor in (("ratio", 1 + 1e-7), ("radius_m", 1 + 1e-11), ("n_max", 2)):
        bad = dict(rows[0], **{column: repr(float(rows[0][column]) * factor)})
        text = ",".join(header) + "\n" + ",".join(bad[k] for k in header) + "\n"
        try:
            operation.check(code, text)
        except ops.Mismatch:
            continue
        problems.append(f"gate accepted {column} scaled by {factor}")
    try:
        operation.check(1, good)
        problems.append("gate accepted exit code 1")
    except ops.Mismatch:
        pass

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
