"""Smoke tests of the scripts under ``scripts/``: they import the package's
public names, so trimming the package surface must not break them; and the
generators of the quadrature constants reproduce QUADPACK's and the
package's, and the oracle's Gauss-Hermite rule."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from magdecay import oracle, quadrature

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lowest_level_discrepancy_ends_with_exp_minus_one(monkeypatch, capsys):
    script = load("lowest_level_discrepancy")
    monkeypatch.setattr(sys, "argv", ["lowest_level_discrepancy.py"])
    assert script.main() == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "field_over_Msq,ratio_exact,ratio_factored,factored_over_exact"
    assert len(lines) == 11
    assert lines[-1] == f"# exp(-1) = {math.exp(-1):.12g}"


def test_make_figure_data_writes_the_table(monkeypatch, capsys, tmp_path):
    script = load("make_figure_data")
    name = "observables_table.csv"
    monkeypatch.setattr(script, "DATASETS", {name: script.DATASETS[name]})
    monkeypatch.setattr(sys, "argv", ["make_figure_data.py", "--out", str(tmp_path)])
    assert script.main() == 0
    assert capsys.readouterr().out == f"wrote {tmp_path / name} (4 rows)\n"
    lines = (tmp_path / name).read_text(encoding="utf-8").split("\n")
    assert lines[0] == "p_perp2_MeV2,m,ratio,radius_m,acceleration_m_s2,lambda_dB_m,B_gauss"
    assert len(lines) == 6 and lines[-1] == ""


# QUADPACK's qk15 constants as the package carried them to 16 decimals:
# the nonnegative Kronrod nodes descending, their weights, and the weights
# of the Gauss nodes among them (every second one)
QK15_XGK = (
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993944,
    0.5860872354676911, 0.4058451513773972, 0.2077849550078985, 0.0,
)
QK15_WGK = (
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502, 0.1406532597155259,
    0.1690047266392679, 0.1903505780647854, 0.2044329400752989, 0.2094821410847278,
)
QK15_WG = (0.1294849661688697, 0.2797053914892767, 0.3818300505051189, 0.4179591836734694)


def gauss_kronrod_constants(monkeypatch, capsys, n):
    """Run ``scripts/gauss_kronrod.py n`` and return its printed tuples."""
    pytest.importorskip("mpmath")
    script = load("gauss_kronrod")
    monkeypatch.setattr(sys, "argv", ["gauss_kronrod.py", str(n)])
    assert script.main() == 0
    printed = {}
    exec(capsys.readouterr().out, printed)
    return printed["XGK"], printed["WGK"], printed["WG"]


def test_gauss_kronrod_reproduces_qk15(monkeypatch, capsys):
    # the literals carry 16 decimals; the script prints the nearest doubles
    for got, literal in zip(gauss_kronrod_constants(monkeypatch, capsys, 7),
                            (QK15_XGK, QK15_WGK, QK15_WG)):
        assert len(got) == len(literal)
        assert all(abs(a - b) <= 2e-16 for a, b in zip(got, literal))


def test_gauss_kronrod_writes_the_quadrature_constants(monkeypatch, capsys):
    constants = gauss_kronrod_constants(monkeypatch, capsys, 30)
    assert constants == (quadrature._XGK, quadrature._WGK, quadrature._WG)


def test_gauss_hermite_writes_the_oracle_rule(monkeypatch, capsys):
    pytest.importorskip("mpmath")
    script = load("gauss_hermite")
    monkeypatch.setattr(sys, "argv", ["gauss_hermite.py", str(oracle._NODES)])
    assert script.main() == 0
    printed = {}
    exec(capsys.readouterr().out, printed)
    assert (printed["NODES"], printed["WEIGHTS"]) == (oracle._HALF_NODES, oracle._HALF_WEIGHTS)


def test_mesh_crossover_times_both_schemes(monkeypatch, capsys):
    # two points, one timed pair after the warm-up: the script that places
    # rate._SHARED_MESH_WORK runs, restores the threshold and prints its
    # header and a row a point
    script = load("mesh_crossover")
    monkeypatch.setattr(sys, "argv", ["mesh_crossover.py", "--points", "1e4:30", "5:1"])
    monkeypatch.setattr(script, "REPEATS", 1)
    threshold = script.rate._SHARED_MESH_WORK
    calls = []
    timed = script.timed

    def recording(state, work):
        calls.append(work)
        return timed(state, work)

    monkeypatch.setattr(script, "timed", recording)
    assert script.main() == 0
    assert script.rate._SHARED_MESH_WORK == threshold
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[:2] == [
        "| (p⊥², m) | levels | k_z sum | shared mesh | mesh / k_z | Γ agree |",
        "|---|---|---|---|---|---|",
    ]
    assert len(lines) == 4
    cells = [cell.strip() for cell in lines[2].strip("|").split("|")]
    assert cells[:2] == ["(1e4, 30)", "65"]
    assert cells[2].endswith(" ms") and cells[3].endswith(" ms") and float(cells[4]) > 0.0
    # the two schemes' widths, each within rel_tol 1e-9 of the true one,
    # agree far closer (5.2e-15 or better on every Baseline row)
    assert float(cells[5]) < 1e-12
    # at (5, 1) X_0 passes the level kernel's argument cap, so the k_z sum
    # cannot run: only the mesh is timed, and the k_z cells read n/a
    cells = [cell.strip() for cell in lines[3].strip("|").split("|")]
    assert cells[:3] == ["(5, 1)", "3353", "n/a"] and cells[3].endswith(" ms")
    assert cells[4:] == ["n/a", "n/a"]
    assert calls == [math.inf, 0, math.inf, 0, 0, 0]


@pytest.mark.parametrize(
    "pair,message",
    [
        ("1e4", "expected p_perp^2:m, got '1e4'"),
        ("1e4:3.5", "m must be a nonnegative integer, got '3.5'"),
        ("1e4:x", "m must be a nonnegative integer, got 'x'"),
        ("1e4:-3", "m must be a nonnegative integer, got '-3'"),
        ("inf:30", "p_perp^2 must be finite and positive, got 'inf'"),
        ("nan:30", "p_perp^2 must be finite and positive, got 'nan'"),
        ("0:30", "p_perp^2 must be finite and positive, got '0'"),
        ("1e400:30", "p_perp^2 must be finite and positive, got '1e400'"),
    ],
)
def test_mesh_crossover_rejects_a_bad_point(monkeypatch, capsys, pair, message):
    # a malformed pair is a usage error before any point is timed
    script = load("mesh_crossover")
    monkeypatch.setattr(sys, "argv", ["mesh_crossover.py", "--points", "1e4:30", pair])
    with pytest.raises(SystemExit) as info:
        script.main()
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    assert err.startswith("usage: mesh_crossover.py")
    assert err.endswith(f"error: argument --points: {message}\n")
