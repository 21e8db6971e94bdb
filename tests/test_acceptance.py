"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest -v -rA tests/test_acceptance.py`` to see every line.
Criterion 1's reference row 1 carries a corrected source erratum: its
quoted de Broglie wavelength 8.80e-15 m is replaced by 7.16e-15 m, the
value its own row implies (see the comment at ``TABLE``).  Only criterion
6's factored-asymptote clause stays red on purpose: the implementation
reproduces the factored form faithfully, but it does not meet the quoted
convergence target, and that assert is left honest rather than loosened,
with the measured values printed.  See the README for the analysis.
"""

import math
import time

import numpy as np
import pytest

from magdecay import (
    DecayChannel,
    MagnetizedState,
    decay_rate,
    field_for_radial_energy,
    lll_ratio_exact,
    lll_ratio_factored,
    overlap_completeness_sum,
    verify_closed_form,
)
from magdecay.cli import main as cli_main

M_MU = 105.7
MUON = DecayChannel(m_parent=M_MU)

# reference table: p_perp^2 [MeV^2], level, radius [m], acceleration
# [m/s^2], de Broglie wavelength [m], rate deviation (ratio - 1).
# Erratum, row 1: the source quotes lambda = 8.80e-15 m (p_perp^2 ~ 2e4);
# 2 pi (197.327 MeV fm) / sqrt(3e4 MeV^2) = 7.16e-15 m = 2 pi R / (2m + 1).
TABLE = (
    (3.0e4, 65, 1.49e-13, 4.39e29, 7.16e-15, 9.4e-4),
    (1.0e4, 30, 1.20e-13, 3.53e29, 12.38e-15, 2.0e-4),
    (5.0e3, 20, 1.14e-13, 2.43e29, 17.53e-15, 8.0e-5),
    (1.0e3, 5, 6.86e-14, 1.08e29, 39.21e-15, 3.0e-5),
)


def _line(num: int, passed: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if passed else 'FAIL'}: {detail}")


def magnetized(p_perp_sq, m):
    return MagnetizedState(field=field_for_radial_energy(p_perp_sq, m), level=m)


def _bits(result):
    """The total, the ratio and every level's (rate, error) as exact hex strings."""
    levels = tuple((c.n, c.rate.hex(), c.quad_error.hex()) for c in result.level_contributions)
    return result.gamma_total.hex(), result.ratio.hex(), levels


_TABLE_CACHE: dict = {}


@pytest.fixture()
def table_run(capsys):
    # computed once; capsys is function-scoped, hence the manual cache
    if not _TABLE_CACHE:
        start = time.perf_counter()
        code = cli_main(["table"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        header, *rows = out.strip().split("\n")
        records = [dict(zip(header.split(","), row.split(","))) for row in rows]
        _TABLE_CACHE["run"] = (records, elapsed)
    return _TABLE_CACHE["run"]


def test_criterion_1_table_kinematics(table_run):
    records, elapsed = table_run
    failures = []
    for record, (p_sq, m, radius, accel, lam, _) in zip(records, TABLE):
        for column, expected in (
            ("radius_m", radius),
            ("acceleration_m_s2", accel),
            ("lambda_dB_m", lam),
        ):
            got = float(record[column])
            if abs(got - expected) / expected > 5e-3:
                failures.append(
                    f"(p2={p_sq:g}, m={m}) {column}: computed {got:.4g} vs quoted {expected:.4g}"
                )
    passed = not failures and elapsed < 1.0
    _line(
        1,
        passed,
        f"table kinematics vs quoted values at 0.5%, {elapsed:.2f}s"
        + (f"; mismatches: {failures}" if failures else ""),
    )
    assert elapsed < 1.0
    assert not failures, failures


def test_criterion_2_table_rates(table_run):
    records, elapsed = table_run
    worst = 0.0
    for record, row in zip(records, TABLE):
        deviation = float(record["ratio"]) - 1.0
        worst = max(worst, abs(deviation - row[5]) / row[5])
    passed = worst < 0.15 and elapsed < 30.0
    _line(2, passed, f"rate deviations within {worst:.1%} of quoted (limit 15%), {elapsed:.2f}s")
    assert elapsed < 30.0
    assert worst < 0.15


def test_criterion_3_inertial_limit():
    low = abs(decay_rate(MUON, magnetized(1e4, 30)).ratio - 1.0)
    high = abs(decay_rate(MUON, magnetized(1e4, 300)).ratio - 1.0)
    passed = high < low and high < 5e-5
    _line(3, passed, f"|ratio-1| at m=300 is {high:.3e} (m=30: {low:.3e}, bound 5e-5)")
    assert high < low
    assert high < 5e-5


def test_criterion_4_overlap_oracle():
    start = time.perf_counter()
    report = verify_closed_form(100, seed=20260808)
    elapsed = time.perf_counter() - start
    passed = report.max_rel_err < 1e-6 and elapsed < 120.0
    _line(
        4,
        passed,
        f"100 seeded quadrature-vs-closed-form trials, max rel err {report.max_rel_err:.2e} "
        f"(limit 1e-6), {elapsed:.1f}s",
    )
    assert elapsed < 120.0
    assert report.max_rel_err < 1e-6


def test_criterion_5_completeness():
    worst = 0.0
    for m in (0, 5, 20, 50):
        for x in (0.1, 1.0, 10.0, 100.0):
            total, _ = overlap_completeness_sum(m, x)
            worst = max(worst, abs(total - 1.0))
    passed = worst < 1e-10
    _line(5, passed, f"sum over levels deviates from 1 by at most {worst:.2e} (limit 1e-10)")
    assert worst < 1e-10


def test_criterion_6_lowest_level_equivalence():
    worst_equiv = 0.0
    for factor in (0.6, 1.0, 10.0, 100.0):
        field = factor * M_MU**2
        exact = lll_ratio_exact(MUON, field)
        general = decay_rate(MUON, MagnetizedState(field=field, level=0)).ratio
        worst_equiv = max(worst_equiv, abs(general - exact) / exact)

    critical = M_MU**2
    recorded = lll_ratio_factored(MUON, critical) / lll_ratio_exact(MUON, critical)

    strong = 1e6 * M_MU**2
    asymptotic = lll_ratio_factored(MUON, strong) / lll_ratio_exact(MUON, strong)
    asymptotic_dev = abs(asymptotic - 1.0)

    passed = worst_equiv < 1e-7 and asymptotic_dev < 0.01
    _line(
        6,
        passed,
        f"general-vs-reduced rel err {worst_equiv:.2e} (limit 1e-7); factored/exact at "
        f"1e6 M^2 is {asymptotic:.6f} (required within 1%); recorded factored/exact at "
        f"M^2 = {recorded:.6f}",
    )
    assert worst_equiv < 1e-7
    # the factored variant's split exponential costs exactly a factor e at
    # strong fields; stated target kept as-is rather than loosened
    assert asymptotic_dev < 0.01, (
        f"factored variant differs from the exact reduction by {asymptotic_dev:.1%} "
        f"at 1e6 M^2 (measured ratio {asymptotic:.6f} ~ 1/e); the two closed forms "
        "do not converge"
    )


def test_criterion_7_high_field_suppression(capsys):
    weak = decay_rate(MUON, MagnetizedState(field=1e4, level=0)).ratio
    strong = decay_rate(MUON, MagnetizedState(field=1e6, level=0)).ratio
    suppressed = strong < 0.5 * weak

    code = cli_main(
        ["scan-lll", "--eB-min", "6e3", "--eB-max", "1e7", "--points", "16"]
    )
    out = capsys.readouterr().out
    assert code == 0
    header, *rows = out.strip().split("\n")
    idx = header.split(",").index("ratio_exact")
    ratios = [float(row.split(",")[idx]) for row in rows]
    upper = ratios[len(ratios) // 2 :]
    monotone = all(a > b for a, b in zip(upper, upper[1:]))

    passed = suppressed and monotone
    _line(
        7,
        passed,
        f"ratio(eB=1e6) = {strong:.4f} < 0.5 * ratio(eB=1e4) = {0.5 * weak:.4f}; "
        f"upper-half scan monotone: {monotone}",
    )
    assert suppressed
    assert monotone


def test_criterion_8_positivity_and_determinism(capsys):
    rng = np.random.default_rng(823)
    worst_min = math.inf
    for _ in range(50):
        m = int(rng.integers(0, 11))
        field = float(10.0 ** rng.uniform(1.7, 4.7))
        result = decay_rate(MUON, MagnetizedState(field=field, level=m))
        worst_min = min(worst_min, min(c.rate for c in result.level_contributions))
    positive = worst_min >= 0.0

    state = magnetized(5e3, 20)
    first_run, second_run = decay_rate(MUON, state), decay_rate(MUON, state)
    repeated = first_run == second_run
    bitwise = _bits(first_run) == _bits(second_run)

    assert cli_main(["rate", "--p-perp2", "5e3", "--m", "20"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["rate", "--p-perp2", "5e3", "--m", "20"]) == 0
    second = capsys.readouterr().out
    bytes_identical = first == second

    passed = positive and repeated and bitwise and bytes_identical
    _line(
        8,
        passed,
        f"min level contribution {worst_min:.2e} over 50-point fuzz; repeat/bitwise/"
        f"byte-identical: {repeated}/{bitwise}/{bytes_identical}",
    )
    assert positive and repeated and bitwise and bytes_identical


def test_criterion_9_quadrature_honesty():
    rng = np.random.default_rng(311)
    worst_margin = math.inf
    for _ in range(20):
        m = int(rng.integers(0, 16))
        p_sq = float(rng.uniform(1e3, 4e4))
        state = magnetized(p_sq, m)
        loose = decay_rate(MUON, state, rel_tol=1e-7)
        tight = decay_rate(MUON, state, rel_tol=5e-8)
        shift = abs(loose.gamma_total - tight.gamma_total)
        worst_margin = min(worst_margin, loose.quad_error - shift)
        assert shift <= loose.quad_error
    _line(9, True, f"halving rel_tol moved Gamma by less than the estimate on all 20 "
                   f"points (smallest margin {worst_margin:.2e} MeV)")
