"""Smoke tests of the scripts under ``scripts/``: they import the package's
public names, so trimming the package surface must not break them."""

import importlib.util
import math
import sys
from pathlib import Path

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
