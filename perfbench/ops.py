"""Workload operations of the magdecay benchmark and the checks on their output.

Each operation is one ``magdecay.cli.main(argv)`` call.  Its captured stdout
is checked against the reference datasets in ``reference/``, which were
written once by ``scripts/make_figure_data.py`` (plus the criterion 3 point)
at the commit that introduced the benchmark.  This module does not import
magdecay, so it can build the operations before the package is loaded.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference"

# every operation runs at the CLI default tolerance
REL_TOL = 1e-9
QUAD_TOL = 10 * REL_TOL
CLOSED_FORM_TOL = 1e-12
# columns produced by a quadrature, compared to QUAD_TOL; columns echoed
# from the input or counted are compared exactly; the rest are closed-form
# or SI conversions, compared to CLOSED_FORM_TOL
QUAD_COLUMNS = {"Gamma_MeV", "ratio", "ratio_exact", "ratio_factored", "ratio_general"}
EXACT_COLUMNS = {"p_perp2_MeV2", "m", "n_max"}

# figures: (dataset, curve key, m_max, bins).  Each bin of the curve's
# level range contributes an antithetic pair m, lo + hi - m, so that the
# cost of a pass barely depends on the seed; the bin counts put most of
# the points where operations are cheap, so that the median operation
# barely depends on it either, and few on the heavy p_perp^2 = 1e3 curve
# (see README.md)
FIGURE_STRATA = (
    ("level_scan_multi.csv", "1000", 80, 2),
    ("level_scan_multi.csv", "5000", 80, 3),
    ("level_scan_multi.csv", "10000", 80, 4),
    ("level_scan_multi.csv", "30000", 80, 20),
    ("level_scan_5e4.csv", "50000", 120, 12),
    ("field_scan_r0p1.csv", "0.1", 60, 30),
)
SCAN_LLL = ("scan-lll", "--eB-min", "6e3", "--eB-max", "1e8", "--points", "60")
INERTIAL = ("rate", "--p-perp2", "1e4", "--m", "300")
INERTIAL_RATIO_GATE = 5e-5  # acceptance criterion 3: |ratio - 1| below this
VERIFY_TRIALS = 100
VERIFY_OPS = 8
VERIFY_CHECKS = ("overlap_closed_form", "lowest_level_equivalence", "overlap_completeness")


class Mismatch(Exception):
    """An operation's output does not match its reference."""


@dataclass(frozen=True)
class Operation:
    label: str
    argv: tuple[str, ...]
    check: Callable[[int, str], None]  # (exit code, stdout); raises Mismatch


def read_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    return header, [dict(zip(header, row)) for row in reader]


def _reference(name: str) -> tuple[list[str], list[dict[str, str]]]:
    return read_csv((REFERENCE / name).read_text(encoding="utf-8"))


def _compare_row(got: dict[str, str], want: dict[str, str]) -> None:
    for column, text in want.items():
        g, w = float(got[column]), float(text)
        if not math.isfinite(g):
            raise Mismatch(f"{column} = {got[column]} is not finite")
        if column in EXACT_COLUMNS:
            if g != w:
                raise Mismatch(f"{column} = {got[column]}, reference {text}")
        elif column == "quad_error":
            # an estimate, not a value: it must be honest against the tolerance
            if not 0.0 <= g <= QUAD_TOL * float(got["Gamma_MeV"]):
                raise Mismatch(f"quad_error = {got[column]} outside [0, {QUAD_TOL} Gamma]")
        else:
            limit = QUAD_TOL if column in QUAD_COLUMNS else CLOSED_FORM_TOL
            if abs(g - w) > limit * abs(w):
                raise Mismatch(f"{column} = {got[column]}, reference {text} (rel tol {limit})")


def rows_check(header: list[str], rows: list[dict[str, str]]) -> Callable[[int, str], None]:
    """Check that an exit-0 CSV output has ``header`` and matches ``rows``."""

    def check(code: int, out: str) -> None:
        if code != 0:
            raise Mismatch(f"exit code {code}")
        got_header, got_rows = read_csv(out)
        if got_header != header:
            raise Mismatch(f"header {got_header}, reference {header}")
        if len(got_rows) != len(rows):
            raise Mismatch(f"{len(got_rows)} rows, reference {len(rows)}")
        for got, want in zip(got_rows, rows):
            _compare_row(got, want)

    return check


def _scan_row(rows: list[dict[str, str]], key: str, m: int) -> dict[str, str]:
    return next(r for r in rows if int(r["m"]) == m and r.get("p_perp2_MeV2", key) == key)


def _rate_op(p_perp2: str, m: int, scan_header: list[str], row: dict[str, str]) -> Operation:
    # a scan-m row is the rate record behind its (p_perp2, m) prefix
    header = scan_header[2:]
    argv = ("rate", "--p-perp2", p_perp2, "--m", str(m))
    check = rows_check(header, [{key: row[key] for key in header}])
    return Operation(f"rate p_perp2={p_perp2} m={m}", argv, check)


def _field_op(radius: str, m: int, header: list[str], row: dict[str, str]) -> Operation:
    argv = ("scan-field", "--radius", radius, "--m-min", str(m), "--m-max", str(m))
    return Operation(f"scan-field R={radius} m={m}", argv, rows_check(header, [row]))


def _whole_op(label: str, argv: tuple[str, ...], dataset: str) -> Operation:
    return Operation(label, argv, rows_check(*_reference(dataset)))


def antithetic_levels(rng: random.Random, m_max: int, bins: int) -> list[int]:
    """One seeded level per bin of [0, m_max] plus its mirror in the bin."""
    edges = [round(i * (m_max + 1) / bins) for i in range(bins + 1)]
    levels = []
    for lo, end in zip(edges, edges[1:]):
        m = rng.randint(lo, end - 1)
        levels += [m, lo + end - 1 - m]
    return levels


def figures(seed: int) -> list[Operation]:
    """A seeded, stratified sample of the rows make_figure_data.py computes."""
    rng = random.Random(seed)
    ops = []
    for dataset, key, m_max, bins in FIGURE_STRATA:
        header, rows = _reference(dataset)
        make = _field_op if dataset.startswith("field") else _rate_op
        for m in antithetic_levels(rng, m_max, bins):
            ops.append(make(key, m, header, _scan_row(rows, key, m)))
    ops.append(_whole_op("scan-lll", SCAN_LLL, "lowest_level_scan.csv"))
    ops.append(_whole_op("table", ("table",), "observables_table.csv"))
    return ops


def inertial_m300(seed: int) -> list[Operation]:
    """Criterion 3's point; the seed does not change it."""
    base = rows_check(*_reference("inertial_m300.csv"))

    def check(code: int, out: str) -> None:
        base(code, out)
        ratio = float(read_csv(out)[1][0]["ratio"])
        if not abs(ratio - 1.0) < INERTIAL_RATIO_GATE:
            raise Mismatch(f"|ratio - 1| = {abs(ratio - 1.0):.3g} >= {INERTIAL_RATIO_GATE}")

    return [Operation("rate p_perp2=1e4 m=300", INERTIAL, check)]


def _verify_check(code: int, out: str) -> None:
    if code != 0:
        raise Mismatch(f"exit code {code}")
    _, rows = read_csv(out)
    names = tuple(row.get("check") for row in rows)
    if names != VERIFY_CHECKS:
        raise Mismatch(f"checks {names}, expected {VERIFY_CHECKS}")
    failed = [row["check"] for row in rows if row.get("passed") != "true"]
    if failed:
        raise Mismatch(f"checks not passed: {failed}")


def verify(seed: int) -> list[Operation]:
    """``verify`` runs whose own seeds are drawn from the workload seed."""
    rng = random.Random(seed)
    ops = []
    for _ in range(VERIFY_OPS):
        s = str(rng.randrange(2**31))
        argv = ("verify", "--trials", str(VERIFY_TRIALS), "--seed", s)
        ops.append(Operation(f"verify seed={s}", argv, _verify_check))
    return ops


def warmup() -> Operation:
    """A cheap checked point run before timing, so that first-call costs stay out of wall_s."""
    header, rows = _reference("level_scan_multi.csv")
    return _rate_op("10000", 30, header, _scan_row(rows, "10000", 30))


# workload name -> the function that makes its operations from the workload seed
WORKLOADS = {"figures": figures, "inertial_m300": inertial_m300, "verify": verify}
