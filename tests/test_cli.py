import json
import math

import pytest

from magdecay import cli

RATE_HEADER = (
    "eB_MeV2,omega_MeV,lorentz_gamma,n_max,Gamma_MeV,ratio,quad_error,"
    "radius_m,acceleration_m_s2,lambda_dB_m,B_gauss"
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# stdout bytes of three commands, pinned so that refactors which must not move
# a single output bit are checked against the bits, not only against reruns
GOLDEN_TABLE = (
    "p_perp2_MeV2,m,ratio,radius_m,acceleration_m_s2,lambda_dB_m,B_gauss\n"
    "30000,65,1.0009370936443764,1.4924408868053397e-13,4.3879168510675274e+29,7.1582310319155588e-15,38711702574860848\n"
    "10000,30,1.0002015013350882,1.2036945804400002e-13,3.5265753226540061e+29,1.2398419839593942e-14,27711655941567060\n"
    "5000,20,1.0000754363521323,1.1441562168056207e-13,2.4285619936056032e+29,1.7534013489149406e-14,20614768444336468\n"
    "1000,5,1.0000260396564731,6.8640297205414408e-14,1.075679331546185e+29,3.9207246080136348e-14,15367372840323550\n"
)
GOLDEN_RATE_1E4_30 = (
    "eB_MeV2,omega_MeV,lorentz_gamma,n_max,Gamma_MeV,ratio,quad_error,radius_m,acceleration_m_s2,lambda_dB_m,B_gauss\n"
    "163.9344262295082,145.50769739089407,1.3766101929129051,64,0.00013675136769377555,1.0002015013350882,6.9132243650207083e-15,1.2036945804400002e-13,3.5265753226540061e+29,1.2398419839593942e-14,27711655941567060\n"
)
GOLDEN_VERIFY_3_0 = (
    "check,passed,metric,value,threshold\n"
    "overlap_closed_form,true,max_rel_err,5.3331498126753905e-14,9.9999999999999995e-07\n"
    "lowest_level_equivalence,true,max_rel_err,1.6029445475005174e-15,9.9999999999999995e-08\n"
    "overlap_completeness,true,max_abs_dev,5.1958437552457326e-14,1e-10\n"
)


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["table"], GOLDEN_TABLE),
        (["rate", "--p-perp2", "1e4", "--m", "30"], GOLDEN_RATE_1E4_30),
        (["verify", "--trials", "3", "--seed", "0"], GOLDEN_VERIFY_3_0),
    ],
    ids=["table", "rate-1e4-30", "verify-3-0"],
)
def test_golden_stdout_bytes(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == expected


class TestRateCommand:
    def test_single_record(self, capsys):
        code, out, err = run(capsys, "rate", "--p-perp2", "1e4", "--m", "30")
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == RATE_HEADER
        row = parse_csv(out)[0]
        assert float(row["ratio"]) == pytest.approx(1.0002015013350884, rel=1e-9)
        assert int(row["n_max"]) == 64
        assert float(row["radius_m"]) == pytest.approx(1.20e-13, rel=5e-3)

    def test_coupling_cancels_in_ratio(self, capsys):
        _, base, _ = run(capsys, "rate", "--p-perp2", "1e4", "--m", "30")
        _, strong, _ = run(capsys, "rate", "--p-perp2", "1e4", "--m", "30", "--G", "7")
        weak_row, strong_row = parse_csv(base)[0], parse_csv(strong)[0]
        assert float(strong_row["ratio"]) == pytest.approx(float(weak_row["ratio"]), rel=1e-12)
        assert float(strong_row["Gamma_MeV"]) == pytest.approx(
            49.0 * float(weak_row["Gamma_MeV"]), rel=1e-12
        )

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "rate", "--p-perp2", "1e3", "--m", "5", "--format", "json")
        assert code == 0
        record = json.loads(out.strip())
        assert list(record) == RATE_HEADER.split(",")
        assert record["ratio"] == pytest.approx(1.0000260396564731, rel=1e-9)

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "rate", "--p-perp2", "5e3", "--m", "20")
        _, second, _ = run(capsys, "rate", "--p-perp2", "5e3", "--m", "20")
        assert first == second

    def test_missing_flags_is_usage_error(self, capsys):
        code, _, err = run(capsys, "rate", "--p-perp2", "1e4")
        assert code == 2
        assert "requires" in err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["rate", "--bogus", "1"])
        assert info.value.code == 2

    def test_computation_error_exits_1(self, capsys):
        code, _, err = run(capsys, "scan-lll", "--M-e", "0.5")
        assert code == 1
        assert "massless" in err

    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_bad_tolerance_exits_1(self, capsys, tol):
        code, out, err = run(capsys, "rate", "--p-perp2", "1e4", "--m", "30", "--tol", tol)
        assert code == 1 and out == ""
        assert f"rel_tol must be positive and finite, got {float(tol)}" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["rate", "--p-perp2", "1e4", "--m", "30", "--tol", "nan"], "--tol"),
        (["rate", "--p-perp2", "1e4", "--m", "30", "--tol", "inf"], "--tol"),
        (["rate", "--p-perp2", "1e4", "--m", "30", "--G", "nan"], "--G"),
        (["rate", "--p-perp2", "1e4", "--m", "30", "--M-mu", "nan"], "--M-mu"),
        (["rate", "--p-perp2", "1e4", "--m", "30", "--M-e", "nan"], "--M-e"),
        (["rate", "--p-perp2", "inf", "--m", "30"], "--p-perp2"),
        (["scan-m", "--p-perp2", "1e4", "--p-perp2", "nan", "--m-min", "1", "--m-max", "2"],
         "--p-perp2"),
        (["scan-field", "--radius", "nan", "--m-min", "0", "--m-max", "1"], "--radius"),
        (["scan-lll", "--eB-min", "nan"], "--eB-min"),
        (["scan-lll", "--eB-max", "inf"], "--eB-max"),
    ],
    ids=[
        "tol-nan", "tol-inf", "G-nan", "M-mu-nan", "M-e-nan", "p-perp2-inf",
        "scan-m-p-perp2-nan", "radius-nan", "eB-min-nan", "eB-max-inf",
    ],
)
def test_non_finite_float_flag_exits_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    out = capsys.readouterr()
    assert info.value.code == 2 and out.out == ""
    assert f"argument {flag}: not a finite number" in out.err


class TestScanM:
    def test_rows_and_monotone_approach(self, capsys):
        code, out, _ = run(capsys, "scan-m", "--p-perp2", "1e3", "--m-min", "5", "--m-max", "9")
        assert code == 0
        rows = parse_csv(out)
        assert [int(r["m"]) for r in rows] == [5, 6, 7, 8, 9]
        deviations = [abs(float(r["ratio"]) - 1.0) for r in rows]
        assert all(a > b for a, b in zip(deviations, deviations[1:]))

    def test_reference_row_in_scan(self, capsys):
        _, out, _ = run(capsys, "scan-m", "--p-perp2", "3e4", "--m-min", "65", "--m-max", "65")
        row = parse_csv(out)[0]
        assert float(row["ratio"]) == pytest.approx(1.00094, rel=1e-4)

    def test_tight_tolerance_passes_negligible_levels(self, capsys):
        # level 99 at m = 72 lies ~1e-283 below the width; a per-level
        # relative tolerance alone could never be met there
        code, out, err = run(
            capsys, "scan-m", "--p-perp2", "3e4", "--m-min", "0", "--m-max", "80", "--tol", "1e-13"
        )
        assert (code, err) == (0, "")
        assert [int(r["m"]) for r in parse_csv(out)] == list(range(81))

    def test_repeated_momenta_make_two_curves(self, capsys):
        code, out, _ = run(
            capsys, "scan-m", "--p-perp2", "1e3", "--p-perp2", "2e3",
            "--m-min", "3", "--m-max", "4",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [float(r["p_perp2_MeV2"]) for r in rows] == [1e3, 1e3, 2e3, 2e3]

    def test_default_momentum_curve(self, capsys):
        code, out, _ = run(capsys, "scan-m", "--m-min", "30", "--m-max", "30")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["p_perp2_MeV2"]) == 1e4
        assert float(row["ratio"]) == pytest.approx(1.0002015013350884, rel=1e-7)


@pytest.mark.parametrize("command", ["scan-m", "scan-field"])
@pytest.mark.parametrize(
    "bounds,message",
    [
        (["--m-min", "5", "--m-max", "4"], "m_min"),
        (["--m-min", "-1", "--m-max", "4"], "m_min"),
        (["--m-min", "5"], "{command} requires --m-min and --m-max"),
    ],
    ids=["inverted", "negative", "missing"],
)
def test_level_range_rejected(capsys, command, bounds, message):
    code, _, err = run(capsys, command, *bounds)
    assert code == 2
    assert message.format(command=command) in err


class TestScanField:
    def test_field_column_follows_radius_lock(self, capsys):
        code, out, _ = run(capsys, "scan-field", "--radius", "0.1", "--m-min", "0", "--m-max", "3")
        assert code == 0
        rows = parse_csv(out)
        fields = [float(r["eB_MeV2"]) for r in rows]
        assert fields[0] == pytest.approx(100.0, rel=1e-12)
        assert fields == sorted(fields)
        assert all(f2 - f1 == pytest.approx(200.0, rel=1e-9) for f1, f2 in zip(fields, fields[1:]))

    def test_default_radius_is_tenth_inverse_mev(self, capsys):
        _, explicit, _ = run(capsys, "scan-field", "--radius", "0.1", "--m-min", "1", "--m-max", "1")
        _, default, _ = run(capsys, "scan-field", "--m-min", "1", "--m-max", "1")
        assert default == explicit

    def test_nonpositive_radius_rejected(self, capsys):
        code, _, _ = run(capsys, "scan-field", "--radius", "-0.1", "--m-min", "0", "--m-max", "1")
        assert code == 2


class TestScanLLL:
    def test_columns_and_equivalence(self, capsys):
        code, out, _ = run(
            capsys, "scan-lll", "--eB-min", "6e3", "--eB-max", "1e6", "--points", "5"
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 5
        assert list(rows[0]) == ["eB_MeV2", "p_perp_MeV", "ratio_exact", "ratio_factored", "ratio_general"]
        assert float(rows[0]["eB_MeV2"]) == 6e3
        assert float(rows[-1]["eB_MeV2"]) == 1e6
        for row in rows:
            exact, general = float(row["ratio_exact"]), float(row["ratio_general"])
            assert abs(general - exact) / exact < 1e-7
        ratios = [float(r["ratio_exact"]) for r in rows]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_two_points(self, capsys):
        code, out, _ = run(capsys, "scan-lll", "--eB-min", "6e3", "--eB-max", "1e4", "--points", "2")
        assert code == 0
        assert len(parse_csv(out)) == 2

    def test_low_field_precondition(self, capsys):
        code, _, err = run(capsys, "scan-lll", "--eB-min", "5e3", "--eB-max", "1e6")
        assert code == 2
        assert "M^2/2" in err

    def test_single_point_rejected(self, capsys):
        code, _, _ = run(capsys, "scan-lll", "--eB-min", "6e3", "--eB-max", "1e6", "--points", "1")
        assert code == 2


class TestTable:
    def test_four_reference_rows(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        rows = parse_csv(out)
        assert [(float(r["p_perp2_MeV2"]), int(r["m"])) for r in rows] == [
            (3e4, 65), (1e4, 30), (5e3, 20), (1e3, 5),
        ]
        last = rows[-1]
        assert float(last["ratio"]) == pytest.approx(1.0000260396564731, rel=1e-7)
        assert float(last["radius_m"]) == pytest.approx(6.86e-14, rel=5e-3)
        assert float(last["acceleration_m_s2"]) == pytest.approx(1.08e29, rel=5e-3)
        assert float(last["lambda_dB_m"]) == pytest.approx(39.21e-15, rel=5e-3)
        assert float(rows[0]["acceleration_m_s2"]) == pytest.approx(4.39e29, rel=5e-3)
        assert all(float(r["ratio"]) > 1.0 for r in rows)


class TestVerify:
    def test_default_checks_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "10", "--seed", "11")
        assert code == 0
        rows = parse_csv(out)
        assert [r["check"] for r in rows] == [
            "overlap_closed_form", "lowest_level_equivalence", "overlap_completeness",
        ]
        assert all(r["passed"] == "true" for r in rows)

    def test_report_bytes_reproducible(self, capsys):
        _, first, _ = run(capsys, "verify", "--trials", "8", "--seed", "5")
        _, second, _ = run(capsys, "verify", "--trials", "8", "--seed", "5")
        assert first == second

    def test_zero_trials_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "--trials", "0")
        assert code == 2


class TestConfigFile:
    def test_config_supplies_missing_values(self, capsys, tmp_path):
        config = tmp_path / "scan.cfg"
        config.write_text("p_perp2 = 1e3\nm = 5\n# comment line\nformat = json\n")
        code, out, _ = run(capsys, "rate", "--config", str(config))
        assert code == 0
        record = json.loads(out.strip())
        assert record["ratio"] == pytest.approx(1.0000260396564731, rel=1e-7)

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "scan.cfg"
        config.write_text("p_perp2 = 1e3\nm = 5\n")
        _, out, _ = run(capsys, "rate", "--config", str(config), "--m", "6")
        _, direct, _ = run(capsys, "rate", "--p-perp2", "1e3", "--m", "6")
        assert out == direct

    def test_config_list_for_scan(self, capsys, tmp_path):
        config = tmp_path / "scan.cfg"
        config.write_text("p_perp2 = 1e3, 2e3\nm_min = 3\nm_max = 3\n")
        code, out, _ = run(capsys, "scan-m", "--config", str(config))
        assert code == 0
        assert [float(r["p_perp2_MeV2"]) for r in parse_csv(out)] == [1e3, 2e3]

    def test_missing_config_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "rate", "--config", "/nonexistent/path.cfg")
        assert code == 2
        assert "config" in err

    def test_malformed_config_line(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("just words\n")
        code, _, _ = run(capsys, "rate", "--config", str(config))
        assert code == 2

    @pytest.mark.parametrize("key", ["p_perp", "m_nu"])
    def test_unknown_key_rejected(self, capsys, tmp_path, key):
        config = tmp_path / "typo.cfg"
        config.write_text(f"p_perp2 = 1e4\nm = 30\n{key} = 5\n")
        code, out, err = run(capsys, "rate", "--config", str(config))
        assert code == 2 and out == ""
        assert f"unknown config key {key!r}" in err

    def test_keys_of_other_commands_accepted(self, capsys, tmp_path):
        config = tmp_path / "shared.cfg"
        config.write_text("p_perp2 = 1e3\nm = 5\nm_min = 3\neB-max = 1e7\ntrials = 4\n")
        code, _, _ = run(capsys, "rate", "--config", str(config))
        assert code == 0

    def test_empty_momentum_list_rejected(self, capsys, tmp_path):
        config = tmp_path / "empty.cfg"
        config.write_text("p_perp2 = ,\nm_min = 3\nm_max = 3\n")
        code, out, err = run(capsys, "scan-m", "--config", str(config))
        assert code == 2 and out == ""
        assert "p_perp2" in err

    @pytest.mark.parametrize(
        "text,key",
        [("G = nan", "coupling"), ("tol = inf", "tol"), ("p_perp2 = 1e3, nan", "p_perp2")],
    )
    def test_non_finite_value_rejected(self, capsys, tmp_path, text, key):
        config = tmp_path / "nan.cfg"
        config.write_text(f"p_perp2 = 1e3\nm = 5\nm_min = 3\nm_max = 3\n{text}\n")
        command = "scan-m" if key == "p_perp2" else "rate"
        code, out, err = run(capsys, command, "--config", str(config))
        assert code == 2 and out == ""
        assert f"config key {key!r}: not a finite number" in err

    def test_bad_format_value_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("format = yaml\n")
        code, _, err = run(capsys, "rate", "--config", str(config))
        assert code == 2
        assert "format" in err


def test_csv_uses_full_precision_and_lf():
    from magdecay.cli import _format_cell

    assert _format_cell(1.0002015013350884) == "1.0002015013350884"
    assert _format_cell(True) == "true"
    assert _format_cell(64) == "64"
    with pytest.raises(ValueError):
        _format_cell(float("nan"))


def test_emit_aborts_on_non_finite_values():
    import io

    from magdecay.cli import _emit

    for fmt in ("csv", "json"):
        with pytest.raises(ValueError):
            _emit([{"ratio": float("inf")}], fmt, io.StringIO())


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_unformattable_record_writes_nothing(capsys, monkeypatch, fmt):
    # the header and the finite first row must not reach stdout either
    records = [{"ratio": 1.0}, {"ratio": float("nan")}]
    monkeypatch.setitem(cli._COMMANDS, "table", lambda args, config: records)
    code, out, err = run(capsys, "table", "--format", fmt)
    assert code == 1 and out == ""
    assert "error:" in err


@pytest.fixture
def fresh_parser_cache():
    cli._parser.cache_clear()
    cli._config_keys.cache_clear()
    yield
    cli._parser.cache_clear()
    cli._config_keys.cache_clear()


def test_main_builds_its_parser_once(monkeypatch, capsys, tmp_path, fresh_parser_cache):
    builds = []
    build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    config = tmp_path / "rate.cfg"
    config.write_text("p_perp2 = 1e3\nm = 0\n")
    for argv in (
        ["rate", "--p-perp2", "1e3", "--m", "0"],
        ["rate", "--config", str(config)],
        ["scan-field", "--m-min", "0", "--m-max", "0"],
        ["rate", "--p-perp2", "1e3"],
        ["rate", "--p-perp2", "1e3", "--m", "0", "--format", "json"],
    ):
        cli.main(argv)
    capsys.readouterr()
    assert len(builds) == 1


def test_build_parser_returns_a_new_parser_each_call():
    assert cli.build_parser() is not cli.build_parser()


def test_shared_parser_keeps_no_state_between_calls(
    monkeypatch, capsys, tmp_path, fresh_parser_cache
):
    # exit code, stdout and stderr of each call, with one parser for the whole
    # sequence and with a new parser for every call, must be the same
    monkeypatch.setenv("COLUMNS", "80")
    config = tmp_path / "rate.cfg"
    config.write_text("p_perp2 = 1e3\nm = 5\nformat = json\n")
    sequence = [
        ["rate", "--bogus", "1"],
        ["rate", "--p-perp2", "1e4", "--m", "30"],
        ["scan-m", "--p-perp2", "1e3", "--p-perp2", "2e3", "--m-min", "3", "--m-max", "3"],
        ["scan-m", "--p-perp2", "1e3", "--m-min", "3", "--m-max", "3"],
        ["rate", "--config", str(config)],
        ["rate", "--help"],
        ["rate", "--p-perp2", "1e4", "--m", "30"],
    ]

    def outcomes():
        results = []
        for argv in sequence:
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            results.append((code, out.out, out.err))
        return results

    shared = outcomes()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parser", cli.build_parser)
        cli._config_keys.cache_clear()
        fresh = outcomes()

    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 0, 0]
    assert shared[1][1] == shared[6][1] == GOLDEN_RATE_1E4_30
    assert [float(r["p_perp2_MeV2"]) for r in parse_csv(shared[3][1])] == [1e3]
    assert "unrecognized arguments: --bogus 1" in shared[0][2]
    assert shared[5][1].startswith("usage: magdecay rate")
