import json
import math
import os
import subprocess
import sys

import pytest

import magdecay
from magdecay import cli, landau, quadrature, rate, specfun, units

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


# stdout bytes of nine commands, pinned so that refactors which must not move
# a single output bit are checked against the bits, not only against reruns
GOLDEN_TABLE = (
    "p_perp2_MeV2,m,ratio,radius_m,acceleration_m_s2,lambda_dB_m,B_gauss\n"
    "30000,65,1.0009370936443764,1.4924408868053397e-13,4.3879168510675274e+29,7.1582310319155588e-15,38711702574860848\n"
    "10000,30,1.0002015013350884,1.2036945804400002e-13,3.5265753226540061e+29,1.2398419839593942e-14,27711655941567060\n"
    "5000,20,1.0000754363521323,1.1441562168056207e-13,2.4285619936056032e+29,1.7534013489149406e-14,20614768444336468\n"
    "1000,5,1.0000260396564731,6.8640297205414408e-14,1.075679331546185e+29,3.9207246080136348e-14,15367372840323550\n"
)
GOLDEN_RATE_1E4_30 = (
    "eB_MeV2,omega_MeV,lorentz_gamma,n_max,Gamma_MeV,ratio,quad_error,radius_m,acceleration_m_s2,lambda_dB_m,B_gauss\n"
    "163.9344262295082,145.50769739089407,1.3766101929129051,64,0.00013675136769377558,1.0002015013350884,6.9132221770091833e-15,1.2036945804400002e-13,3.5265753226540061e+29,1.2398419839593942e-14,27711655941567060\n"
)
# the overlap_closed_form rows read the trials that oracle.verify_closed_form
# draws, a row of seven counter-based SplitMix64 uniforms each
GOLDEN_VERIFY_3_0 = (
    "check,passed,metric,value,threshold\n"
    "overlap_closed_form,true,max_rel_err,4.5058304721089053e-16,9.9999999999999995e-07\n"
    "lowest_level_equivalence,true,max_rel_err,2.9144446318191227e-16,9.9999999999999995e-08\n"
    "overlap_completeness,true,max_abs_dev,6.8833827526759706e-15,1e-10\n"
)
GOLDEN_VERIFY_100_0 = (
    "check,passed,metric,value,threshold\n"
    "overlap_closed_form,true,max_rel_err,2.0423506866489274e-13,9.9999999999999995e-07\n"
    "lowest_level_equivalence,true,max_rel_err,2.9144446318191227e-16,9.9999999999999995e-08\n"
    "overlap_completeness,true,max_abs_dev,6.8833827526759706e-15,1e-10\n"
)
# JSON Lines keep each record's key order and print floats by repr
GOLDEN_TABLE_JSON = (
    '{"p_perp2_MeV2":30000.0,"m":65,"ratio":1.0009370936443764,"radius_m":1.4924408868053397e-13,"acceleration_m_s2":4.3879168510675274e+29,"lambda_dB_m":7.158231031915559e-15,"B_gauss":3.871170257486085e+16}\n'
    '{"p_perp2_MeV2":10000.0,"m":30,"ratio":1.0002015013350884,"radius_m":1.2036945804400002e-13,"acceleration_m_s2":3.526575322654006e+29,"lambda_dB_m":1.2398419839593942e-14,"B_gauss":2.771165594156706e+16}\n'
    '{"p_perp2_MeV2":5000.0,"m":20,"ratio":1.0000754363521323,"radius_m":1.1441562168056207e-13,"acceleration_m_s2":2.4285619936056032e+29,"lambda_dB_m":1.7534013489149406e-14,"B_gauss":2.0614768444336468e+16}\n'
    '{"p_perp2_MeV2":1000.0,"m":5,"ratio":1.000026039656473,"radius_m":6.864029720541441e-14,"acceleration_m_s2":1.075679331546185e+29,"lambda_dB_m":3.920724608013635e-14,"B_gauss":1.536737284032355e+16}\n'
)
GOLDEN_VERIFY_3_0_JSON = (
    '{"check":"overlap_closed_form","passed":true,"metric":"max_rel_err","value":4.505830472108905e-16,"threshold":1e-06}\n'
    '{"check":"lowest_level_equivalence","passed":true,"metric":"max_rel_err","value":2.9144446318191227e-16,"threshold":1e-07}\n'
    '{"check":"overlap_completeness","passed":true,"metric":"max_abs_dev","value":6.8833827526759706e-15,"threshold":1e-10}\n'
)
# 636 levels on the mesh in x that they share; a --tol 1e-13 run gives the
# same Gamma_MeV
GOLDEN_RATE_1E4_300 = (
    "eB_MeV2,omega_MeV,lorentz_gamma,n_max,Gamma_MeV,ratio,quad_error,radius_m,acceleration_m_s2,lambda_dB_m,B_gauss\n"
    "16.638935108153078,145.50769739089407,1.3766101929129051,635,0.00013672409971016925,1.0000020629045894,1.7341670002158635e-17,1.185935152204e-12,3.5793859348068953e+28,1.2398419839593942e-14,2812663914202313.5\n"
)
# 870 levels on the shared mesh, not a whole number of the row's slabs
# (32 levels at its 1,525 nodes), with a Miller band of 441 levels
GOLDEN_RATE_1E3_71 = (
    "eB_MeV2,omega_MeV,lorentz_gamma,n_max,Gamma_MeV,ratio,quad_error,radius_m,acceleration_m_s2,lambda_dB_m,B_gauss\n"
    "6.9930069930069934,110.32900797161189,1.0437938313302921,869,0.00018031858815112451,1.0000001539666059,1.4311597602626986e-17,8.9232386367038735e-13,8.2744563965091183e+27,3.9207246080136348e-14,1182105603101811.5\n"
)
# the lowest-level closed forms run on one fixed Gauss rule
GOLDEN_SCAN_LLL = (
    "eB_MeV2,p_perp_MeV,ratio_exact,ratio_factored,ratio_general\n"
    "6000,77.459666924148337,0.89815579251047495,0.080063140782067485,0.89815579251047539\n"
    "68173.161988049949,261.09990805829472,0.15144864631340105,0.047584246768809534,0.15144864631340099\n"
    "774596.66924148379,880.11173679339367,0.014320345166555825,0.005192987820860983,0.014320345166555826\n"
    "8801117.3679339439,2966.6677211871815,0.0012686347230580774,0.00046611274298952236,0.0012686347230580776\n"
    "100000000,10000,0.00011171865912198424,4.1094406489519484e-05,0.0001117186591219842\n"
)


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["table"], GOLDEN_TABLE),
        (["rate", "--p-perp2", "1e4", "--m", "30"], GOLDEN_RATE_1E4_30),
        (["verify", "--trials", "3", "--seed", "0"], GOLDEN_VERIFY_3_0),
        (["rate", "--p-perp2", "1e4", "--m", "300"], GOLDEN_RATE_1E4_300),
        (["verify", "--trials", "100", "--seed", "0"], GOLDEN_VERIFY_100_0),
        (["scan-lll", "--eB-min", "6e3", "--eB-max", "1e8", "--points", "5"], GOLDEN_SCAN_LLL),
        (["table", "--format", "json"], GOLDEN_TABLE_JSON),
        (["verify", "--trials", "3", "--seed", "0", "--format", "json"], GOLDEN_VERIFY_3_0_JSON),
        (["rate", "--p-perp2", "1e3", "--m", "71"], GOLDEN_RATE_1E3_71),
    ],
    ids=[
        "table", "rate-1e4-30", "verify-3-0", "rate-1e4-300", "verify-100-0", "scan-lll-5",
        "table-json", "verify-3-0-json", "rate-1e3-71",
    ],
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

    def test_strong_field_keeps_the_lowest_level_open(self, capsys):
        # at |e|B = 1e16 MeV^2 the bound M^2/(2|e|B) is 5.6e-13: level 0 is
        # open, and the width is the lowest-level reduction's
        code, out, _ = run(capsys, "rate", "--p-perp2", "1e16", "--m", "0")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["n_max"] == "0"
        exact = rate.lll_ratio_exact(landau.DecayChannel(m_parent=cli._DEF_M_PARENT), 1e16)
        assert abs(float(row["ratio"]) - exact) <= 1e-9 * exact

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

    def test_level_count_above_the_overlap_cap_exits_1(self, capsys):
        # 2.1e12 open levels: rejected before any per-level array exists
        code, out, err = run(capsys, "rate", "--p-perp2", "1e4", "--m", "1000000000000")
        assert code == 1 and out == ""
        assert err == (
            "error: 2117249000001 daughter levels open (n_max = 2117249000000), "
            "above the overlap index cap 10000\n"
        )

    def test_level_count_past_the_integer_digits_is_compact(self, capsys):
        # 5.6e303 open levels: the count and n_max print to 15 digits, not
        # as 304-digit integers
        code, out, err = run(capsys, "rate", "--p-perp2", "1e-300", "--m", "0")
        assert code == 1 and out == ""
        assert err == (
            "error: 5.586245e+303 daughter levels open (n_max = 5.586245e+303), "
            "above the overlap index cap 10000\n"
        )
        assert len(err) < 120

    @pytest.mark.parametrize(
        "argv,clause",
        [
            (["--p-perp2", "1e-300", "--m", "100000000"], "5e-309 MeV^2 is below the normal float range and"),
            (["--p-perp2", "1e-320", "--m", "0"], "9.99989e-321 MeV^2 is below the normal float range and"),
            # a normal field just above that range: no clause on the range
            (["--p-perp2", "2.5e-308", "--m", "0"], "2.5e-308 MeV^2"),
        ],
        ids=["subnormal-high-m", "subnormal", "normal"],
    )
    def test_subnormal_field_exits_1(self, capsys, argv, clause):
        # M^2 / (2 field) overflows at a subnormal field, or at a normal one
        # just above it: the level cap's error, not an overflow of the result
        code, out, err = run(capsys, "rate", *argv)
        assert code == 1 and out == ""
        assert err == (
            f"error: field {clause} opens more than "
            "1.8e+308 daughter levels, above the overlap index cap 10000\n"
        )

    def test_level_sum_convergence_failure_exits_1(self, capsys, monkeypatch):
        # with a one-panel budget level 13 is the lowest that misses its tolerance
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 1)
        code, out, err = run(capsys, "rate", "--p-perp2", "1e4", "--m", "30")
        assert (code, out) == (1, "")
        assert err == (
            "error: level 13: no convergence within 1 panels "
            "(error 6.758e-11, tolerance 9.962e-12)\n"
        )

    def test_out_of_memory_exits_1(self, capsys, monkeypatch):
        # a grid too large to allocate (scan-lll --points 1e11 asks numpy for
        # 745 GiB) exits 1 with a message, not a traceback; the command is
        # stubbed to raise, so the test allocates nothing
        def exhausted(args, config):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setitem(cli._COMMANDS, "scan-lll", exhausted)
        code, out, err = run(capsys, "scan-lll", "--points", "100000000000")
        assert (code, out) == (1, "")
        assert err == "error: out of memory: Unable to allocate 745. GiB for an array\n"

    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_bad_tolerance_exits_1(self, capsys, tol):
        code, out, err = run(capsys, "rate", "--p-perp2", "1e4", "--m", "30", "--tol", tol)
        assert code == 1 and out == ""
        assert f"rel_tol must be positive and finite, got {float(tol)}" in err


@pytest.mark.parametrize(
    "argv,named",
    [
        # G**2 in the free width, M**2 in the energies and cutoffs
        (["rate", "--p-perp2", "1e4", "--m", "30", "--G", "1e200"], "coupling 1e+200 MeV"),
        (["rate", "--p-perp2", "1e4", "--m", "30", "--M-mu", "1e200"], "parent mass 1e+200 MeV"),
        (["table", "--G", "1e200"], "coupling 1e+200 MeV"),
        (["verify", "--trials", "2", "--G", "1e200"], "coupling 1e+200 MeV"),
    ],
    ids=["coupling", "parent-mass", "table", "verify"],
)
def test_overflow_exits_1(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: result overflowed the float range: ")
    assert err.count("\n") == 1
    assert err.endswith(f": {named} squares past the float range\n")


@pytest.mark.parametrize(
    "argv,config,message",
    [
        (["rate", "--p-perp2", "1e4", "--m", "-1"], None, "m must be nonnegative, got -1"),
        (["rate", "--p-perp2", "-5", "--m", "3"], None, "p_perp2 must be positive, got -5"),
        (["rate", "--p-perp2", "0", "--m", "3"], None, "p_perp2 must be positive, got 0"),
        (["rate"], "p_perp2 = 1e4\nm = -1\n", "m must be nonnegative, got -1"),
        (["rate"], "p_perp2 = -5\nm = 3\n", "p_perp2 must be positive, got -5"),
        (["scan-m", "--p-perp2", "-5", "--m-min", "0", "--m-max", "1"], None,
         "p_perp2 must be positive, got -5"),
        (["scan-m", "--p-perp2", "1e3", "--p-perp2", "0", "--m-min", "0", "--m-max", "1"], None,
         "p_perp2 must be positive, got 0"),
        (["scan-m", "--m-min", "0", "--m-max", "1"], "p_perp2 = 1e3, -5\n", "p_perp2 must be positive, got -5"),
    ],
    ids=["rate-m", "rate-p", "rate-p-zero", "rate-m-config", "rate-p-config", "scan-m-p",
         "scan-m-second-p", "scan-m-p-config"],
)
def test_bad_point_is_a_usage_error(capsys, tmp_path, argv, config, message):
    # like a bad --m-min or --radius: the value never reaches the library,
    # whose own ValueError would exit 1
    if config is not None:
        path = tmp_path / "point.cfg"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize("radius,m_max,level", [("1e-300", "0", 0), ("5e-324", "0", 0), ("1e-154", "3", 1)])
def test_tiny_radius_names_the_radius_and_level(capsys, radius, m_max, level):
    # p_perp = (2m + 1) / R, so p_perp^2 passes the float range once R is
    # below about 7.5e-155 (2m + 1); no row is printed, not even the levels
    # before the first that overflows
    code, out, err = run(capsys, "scan-field", "--radius", radius, "--m-min", "0", "--m-max", m_max)
    assert (code, out) == (1, "")
    assert err == (
        f"error: at radius {float(radius):g} and level {level}, "
        "p_perp^2 = ((2m+1)/R)^2 passes the float range\n"
    )


@pytest.mark.parametrize("m_min", [0, 2])
def test_huge_radius_names_the_radius_and_level(capsys, m_min):
    # p_perp^2 = ((2m + 1)/R)^2 underflows to 0 at R = 1e300 from level 0
    # on; no row is printed
    code, out, err = run(capsys, "scan-field", "--radius", "1e300", "--m-min", str(m_min), "--m-max", "2")
    assert (code, out) == (1, "")
    assert err == (
        f"error: at radius 1e+300 and level {m_min}, p_perp^2 = ((2m+1)/R)^2 underflows to 0\n"
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_output_names_its_column(capsys, fmt):
    # the field 1e300 MeV^2 is past the float range in Gauss, while the
    # width at G = 1e100 MeV is a normal float
    code, out, err = run(capsys, "rate", "--p-perp2", "1e300", "--m", "0", "--G", "1e100", "--format", fmt)
    assert (code, out) == (1, "")
    assert err == "error: non-finite value in output column B_gauss: inf\n"


@pytest.mark.parametrize(
    "argv,field",
    [
        (["scan-lll", "--eB-min", "6e3", "--eB-max", "1e308", "--points", "3"], "1e+308"),
        (["rate", "--p-perp2", "1.7e308", "--m", "0"], "1.7e+308"),
    ],
    ids=["scan-lll", "rate"],
)
def test_field_past_half_the_float_range_exits_1(capsys, argv, field):
    # the level sum forms 2 field, which overflows from about 8.99e307
    # MeV^2; the channel is not closed there, and no row is printed
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (
        f"error: field {field} MeV^2 is past half the float range: "
        "2 field, which the level sum forms, overflows\n"
    )


def test_acceleration_is_finite_where_p_perp_cubed_overflows(capsys):
    # p_perp^3 is past the float range from p_perp^2 of about 3e205 MeV^2,
    # while the acceleration p_perp (p_perp / omega)^2 / (2m+1) is not; the
    # width is still a normal float here (at 1e300 MeV^2 it underflows)
    code, out, err = run(capsys, "rate", "--p-perp2", "1e206", "--m", "0")
    assert (code, err) == (0, "")
    (row,) = parse_csv(out)
    assert all(math.isfinite(float(v)) for v in row.values())
    p_perp, omega = 1e103, float(row["omega_MeV"])
    expected = p_perp * (p_perp / omega) ** 2 * units.C_M_PER_S / units.HBAR_MEV_S
    assert float(row["acceleration_m_s2"]) == pytest.approx(expected, rel=1e-14)
    assert float(row["acceleration_m_s2"]) == pytest.approx(4.55e132, rel=5e-3)


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["rate", "--p-perp2", "1e4", "--m", "30", "--G", "1e-160"],
            "error: width prefactor G^2/(8 pi omega) = 0 MeV is below the normal float range; "
            "the width would lose its digits\n",
        ),
        (
            ["rate", "--p-perp2", "1e4", "--m", "30", "--G", "1e-155"],
            "error: width prefactor G^2/(8 pi omega) = 2.73448e-314 MeV is below the normal "
            "float range; the width would lose its digits\n",
        ),
        (
            ["scan-lll", "--eB-min", "1e100", "--eB-max", "1e210", "--points", "2"],
            "error: width Gamma = 2.2227e-313 MeV is below the normal float range; "
            "its digits and its ratio are lost\n",
        ),
        (
            ["scan-lll", "--eB-min", "1e100", "--eB-max", "1e300", "--points", "9"],
            "error: width Gamma = 0 MeV is below the normal float range; "
            "its digits and its ratio are lost\n",
        ),
        (
            ["rate", "--p-perp2", "1e4", "--m", "30", "--M-mu", "1e-200"],
            "error: parent mass 1e-200 MeV squares below the normal float range\n",
        ),
    ],
    ids=["prefactor-zero", "prefactor-subnormal", "width-subnormal", "width-zero", "parent-mass"],
)
def test_underflow_exits_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", message)


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


@pytest.mark.parametrize("command", ["scan-m", "scan-field"])
@pytest.mark.parametrize("m_min,m_max", [(0, 10_001), (10_001, 3_000_000)])
def test_level_range_past_the_cap_fails_before_any_work(capsys, monkeypatch, command, m_min, m_max):
    # a parent in level m opens daughter levels up to n_max >= m, so every
    # level past the overlap index cap would fail: the range is refused
    # before any p_perp^2 or rate of it is computed, and no row is printed
    def never(*args, **kwargs):
        raise AssertionError("called before the level range was checked")

    monkeypatch.setattr(rate, "decay_rate", never)
    monkeypatch.setattr(landau, "radial_energy_for_radius", never)
    code, out, err = run(capsys, command, "--m-min", str(m_min), "--m-max", str(m_max))
    assert (code, out) == (1, "")
    assert err == (
        f"error: m_max = {m_max} is above the overlap index cap 10000: "
        "a parent in level m opens daughter levels up to n_max >= m\n"
    )


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

    def test_strong_fields_match_the_lowest_level_reduction(self, capsys):
        code, out, _ = run(
            capsys, "scan-lll", "--eB-min", "1e15", "--eB-max", "1e17", "--points", "3"
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 3
        for row in rows:
            exact, general = float(row["ratio_exact"]), float(row["ratio_general"])
            assert abs(general - exact) <= 1e-9 * exact

    def test_tolerance_reaches_only_the_level_sum(self, capsys):
        # the closed forms run on a fixed rule: --tol moves ratio_general alone
        closed = ("ratio_exact", "ratio_factored")
        scans = []
        for tol in ("1e-9", "1e-13"):
            code, out, _ = run(capsys, "scan-lll", "--eB-min", "6e3", "--eB-max", "1e8", "--tol", tol)
            assert code == 0
            scans.append([[row[c] for c in closed] for row in parse_csv(out)])
        assert len(scans[0]) == 40
        assert scans[0] == scans[1]
        code, out, err = run(capsys, "scan-lll", "--tol", "0")
        assert code == 1 and out == ""
        assert "rel_tol must be positive and finite" in err

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

    def test_closed_form_steps_the_level_kernel(self, capsys, monkeypatch):
        # the closed form runs on the level kernel that the level sum runs,
        # past its seed: the largest k = min(n, m) its recurrence gets
        highest = []
        phi_ascending = specfun._phi_ascending

        def record(k, d, x):
            highest.append(int(k.max()))
            return phi_ascending(k, d, x)

        monkeypatch.setattr(specfun, "_phi_ascending", record)
        code, _, _ = run(capsys, "verify", "--trials", "10", "--seed", "11")
        assert code == 0 and max(highest) >= 1

    @pytest.mark.parametrize("seed", range(32))
    def test_hundred_trials_pass_at_every_seed(self, capsys, seed):
        code, out, _ = run(capsys, "verify", "--trials", "100", "--seed", str(seed))
        assert code == 0
        assert all(r["passed"] == "true" for r in parse_csv(out))

    def test_report_bytes_reproducible(self, capsys):
        _, first, _ = run(capsys, "verify", "--trials", "8", "--seed", "5")
        _, second, _ = run(capsys, "verify", "--trials", "8", "--seed", "5")
        assert first == second

    def test_zero_trials_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "--trials", "0")
        assert code == 2

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_rejected(self, capsys, tmp_path, source):
        if source == "flag":
            argv = ["verify", "--trials", "2", "--seed", "-1"]
        else:
            config = tmp_path / "verify.cfg"
            config.write_text("trials = 2\nseed = -1\n")
            argv = ["verify", "--config", str(config)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "usage error: seed must be nonnegative, got -1\n"

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_seed_past_64_bits_rejected(self, capsys, tmp_path, source):
        if source == "flag":
            argv = ["verify", "--trials", "2", "--seed", str(2**64)]
        else:
            config = tmp_path / "verify.cfg"
            config.write_text(f"trials = 2\nseed = {2**64}\n")
            argv = ["verify", "--config", str(config)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            "usage error: seed must be at most 2^64 - 1 = 18446744073709551615, "
            "got 18446744073709551616\n"
        )

    def test_largest_seed_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "10", "--seed", str(2**64 - 1))
        assert code == 0
        assert all(r["passed"] == "true" for r in parse_csv(out))

    @pytest.mark.parametrize(
        "threshold,failing",
        [
            ("_VERIFY_TOLERANCE", "overlap_closed_form"),
            ("_LLL_THRESHOLD", "lowest_level_equivalence"),
            ("_COMPLETENESS_THRESHOLD", "overlap_completeness"),
        ],
        ids=["closed-form", "lowest-level", "completeness"],
    )
    def test_failing_check_exits_1(self, capsys, monkeypatch, threshold, failing):
        monkeypatch.setattr(cli, threshold, 0.0)
        code, out, _ = run(capsys, "verify", "--trials", "3", "--seed", "0")
        assert code == 1
        rows = {r["check"]: r for r in parse_csv(out)}
        assert len(rows) == 3
        assert (rows[failing]["passed"], rows[failing]["threshold"]) == ("false", "0")
        assert all(r["passed"] == "true" for check, r in rows.items() if check != failing)


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

    def test_config_file_that_is_not_utf8_is_usage_error(self, capsys, tmp_path):
        # UnicodeDecodeError is a ValueError, which would otherwise exit 1
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"p_perp2 = 1e3\xff\nm = 5\n")
        code, out, err = run(capsys, "rate", "--config", str(config))
        assert code == 2 and out == ""
        assert err.startswith("usage error: cannot read config file: 'utf-8' codec can't decode byte 0xff")

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
    assert err == "error: non-finite value in output column ratio: nan\n"


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


def test_only_level_sums_past_the_threshold_import_the_mesh():
    # verify, table and a small rate keep the k_z sum and never load the
    # shared mesh, so their memory and start-up stay as they were; the
    # 1e3 figure curve's m = 71 (870 levels) takes it
    src = os.path.dirname(os.path.dirname(magdecay.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import contextlib, io, sys, magdecay.cli\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = magdecay.cli.main(list(argv))\n"
        "    print(code, 'magdecay.mesh' in sys.modules, file=sys.stderr)\n"
        "run('verify')\n"
        "run('table')\n"
        "run('rate', '--p-perp2', '1e4', '--m', '30')\n"
        "run('rate', '--p-perp2', '1e3', '--m', '71')\n"
    )
    err = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stderr
    assert err == "0 False\n0 False\n0 False\n0 True\n"
