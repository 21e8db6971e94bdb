import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magdecay import (
    DecayChannel,
    MagnetizedState,
    RateResult,
    decay_rate,
    field_for_radial_energy,
    lll_ratio_exact,
    lll_ratio_factored,
    rate,
)
from magdecay.landau import kz_cutoffs, level_edges
from magdecay.rate import _integrand_arrays, free_rate_at_rest
from reference_paths import count_shared_work

M_MU = 105.7
MUON = DecayChannel(m_parent=M_MU)


def magnetized(p_perp_sq, m):
    return MagnetizedState(field=field_for_radial_energy(p_perp_sq, m), level=m)


def integrand_at(channel, state, n, k_z):
    """The level sum's integrand w(n, m, X(k_z)) / omega_n(k_z) at one point."""
    return float(_integrand_arrays(channel, state, np.array([n]), np.array([[k_z]]))[0, 0])


class TestFreeRates:
    def test_rest_rate_value(self):
        expected = 1.0 / (16.0 * math.pi * M_MU)
        assert free_rate_at_rest(MUON) == pytest.approx(expected, rel=1e-14)
        assert free_rate_at_rest(MUON) == pytest.approx(1.88216e-4, rel=1e-5)

    def test_rest_rate_vanishes_at_threshold(self):
        almost_closed = DecayChannel(m_parent=1.0, m_charged=1.0 - 1e-9)
        assert free_rate_at_rest(almost_closed) == pytest.approx(0.0, abs=1e-10)

    def test_quadratic_coupling_dependence(self):
        strong = DecayChannel(m_parent=M_MU, coupling=7.0)
        assert free_rate_at_rest(strong) == pytest.approx(49.0 * free_rate_at_rest(MUON), rel=1e-14)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_inputs_rejected(self, value):
        for closed_form in (lll_ratio_exact, lll_ratio_factored):
            with pytest.raises(ValueError, match="must be finite"):
                closed_form(MUON, value)


class TestLevelIntegrand:
    def test_hand_reduced_point(self):
        # m = n = 0 at field = M^2, k_z = 0: the weight collapses to
        # exp(-(3/2 - sqrt(2))) and the daughter energy to M
        state = MagnetizedState(field=M_MU**2, level=0)
        expected = math.exp(-(1.5 - math.sqrt(2.0))) / M_MU
        assert integrand_at(MUON, state, 0, 0.0) == pytest.approx(expected, rel=1e-13)

    def test_even_in_kz(self):
        state = magnetized(3e4, 65)
        cuts = kz_cutoffs(MUON, state)
        for n in (0, 3, 40):
            cut = cuts[n]
            for frac in (0.2, 0.77):
                k = frac * cut
                assert integrand_at(MUON, state, n, k) == pytest.approx(
                    integrand_at(MUON, state, n, -k), rel=1e-14
                )

    def test_vanishes_at_kinematic_edge_for_distinct_levels(self):
        state = magnetized(3e4, 65)
        cut = kz_cutoffs(MUON, state)[3]
        assert integrand_at(MUON, state, 3, cut) == pytest.approx(0.0, abs=1e-30)

    def test_rejects_momentum_outside_window(self):
        state = magnetized(3e4, 65)
        cut = kz_cutoffs(MUON, state)[0]
        with pytest.raises(ValueError):
            integrand_at(MUON, state, 0, cut * 1.01)


class TestDecayRate:
    def test_reference_ratios(self):
        # frozen from this engine after cross-validation of every table
        # point against an independent QUADPACK evaluation of the level sum
        for p_sq, m, frozen in (
            (3e4, 65, 1.0009370936443764),
            (1e4, 30, 1.0002015013350884),
            (5e3, 20, 1.000075436352132),
            (1e3, 5, 1.0000260396564731),
        ):
            assert decay_rate(MUON, magnetized(p_sq, m)).ratio == pytest.approx(frozen, rel=1e-7)

    def test_result_invariants(self):
        result = decay_rate(MUON, magnetized(1e4, 30))
        assert result.n_max_used == 64
        assert result.gamma_total == math.fsum(c.rate for c in result.level_contributions)
        assert all(c.rate >= 0.0 for c in result.level_contributions)
        assert [c.n for c in result.level_contributions] == list(range(65))
        omega = math.sqrt(M_MU**2 + 1e4)
        assert result.lorentz_gamma == pytest.approx(omega / M_MU, rel=1e-14)
        assert result.ratio == pytest.approx(
            result.lorentz_gamma * result.gamma_total / free_rate_at_rest(MUON), rel=1e-14
        )
        assert result.quad_error < 1e-8 * result.gamma_total

    def test_ratio_independent_of_coupling(self):
        strong = DecayChannel(m_parent=M_MU, coupling=7.0)
        weak_result = decay_rate(MUON, magnetized(1e4, 30))
        strong_result = decay_rate(strong, magnetized(1e4, 30))
        assert strong_result.ratio == pytest.approx(weak_result.ratio, rel=1e-12)
        assert strong_result.gamma_total == pytest.approx(49.0 * weak_result.gamma_total, rel=1e-12)

    def test_repeat_matches_exactly(self):
        first = decay_rate(MUON, magnetized(5e3, 20))
        second = decay_rate(MUON, magnetized(5e3, 20))
        assert first.gamma_total.hex() == second.gamma_total.hex()
        assert first.ratio.hex() == second.ratio.hex()
        assert [(c.n, c.rate.hex(), c.quad_error.hex()) for c in first.level_contributions] == [
            (c.n, c.rate.hex(), c.quad_error.hex()) for c in second.level_contributions
        ]

    def test_deviation_shrinks_toward_inertial_limit(self):
        low = decay_rate(MUON, magnetized(1e4, 30)).ratio
        high = decay_rate(MUON, magnetized(1e4, 120)).ratio
        assert abs(high - 1.0) < abs(low - 1.0)

    def test_closed_channel_is_zero_and_checks_tolerance(self, monkeypatch):
        # no open level: only a field far beyond the documented range gets here
        monkeypatch.setattr(
            "magdecay.rate.level_edges", lambda channel, state: (np.empty(0), np.empty(0))
        )
        state = magnetized(1e4, 30)
        gamma = state.energy(M_MU) / M_MU
        closed = RateResult(0.0, (), 0.0, -1, gamma, 0.0)
        assert decay_rate(MUON, state) == closed
        with pytest.raises(ValueError, match="rel_tol"):
            decay_rate(MUON, state, rel_tol=0.0)

    @pytest.mark.parametrize("coupling", [1e-160, 1e-155], ids=["zero", "subnormal"])
    def test_underflowing_prefactor_rejected(self, coupling):
        # G^2/(8 pi omega) is 0 at G = 1e-160 and 2.7e-314 MeV at 1e-155
        channel = DecayChannel(m_parent=M_MU, coupling=coupling)
        with pytest.raises(ValueError, match=r"prefactor .* below the normal float range"):
            decay_rate(channel, magnetized(1e4, 30))

    @pytest.mark.parametrize("field", [1e210, 1e220, 1e300])
    def test_underflowing_width_rejected(self, field):
        # the lowest-level width is 2.2e-298 MeV at 1e200 MeV^2 and falls
        # as field^-3/2: below the normal range (subnormal, then zero)
        # from about 5e206 MeV^2 on
        with pytest.raises(ValueError, match=r"width Gamma = .* below the normal float range"):
            decay_rate(MUON, MagnetizedState(field=field, level=0))

    @pytest.mark.parametrize("field", [8.99e307, 1e308, 1.7976931348623157e308])
    def test_field_past_half_the_float_range_rejected(self, field):
        # the open levels, their edges and the integrand form 2 field, which
        # overflows from about 8.99e307 MeV^2; the channel read as closed
        # there (width and ratio 0, n_max -1), while the lowest-level ratio
        # is 1.1e-304 at 1e308 MeV^2
        state = MagnetizedState(field=field, level=0)
        message = re.escape(f"field {field:.6g} MeV^2 is past half the float range")
        for call in (decay_rate, kz_cutoffs, level_edges):
            with pytest.raises(ValueError, match=message):
                call(MUON, state)

    def test_width_just_above_the_normal_floor_kept(self):
        field = 1e206
        result = decay_rate(MUON, MagnetizedState(field=field, level=0))
        assert 2.2250738585072014e-308 < result.gamma_total < 1e-306
        assert abs(result.ratio - lll_ratio_exact(MUON, field)) <= 1e-9 * result.ratio

    def test_massive_charged_daughter(self):
        heavy_e = DecayChannel(m_parent=M_MU, m_charged=30.0)
        result = decay_rate(heavy_e, magnetized(1e4, 30))
        # the daughter mass closes part of the phase space
        assert result.n_max_used == 61
        assert result.ratio == pytest.approx(1.0001661925593572, rel=1e-7)
        far = decay_rate(heavy_e, magnetized(1e4, 120)).ratio
        assert abs(far - 1.0) < abs(result.ratio - 1.0)

    @given(
        m=st.integers(0, 8),
        p_sq=st.floats(2e3, 8e4),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_level_nonnegative(self, m, p_sq):
        result = decay_rate(MUON, magnetized(p_sq, m))
        assert all(c.rate >= 0.0 for c in result.level_contributions)
        assert result.gamma_total >= 0.0


class TestLowestLevelClosedForms:
    def test_matches_general_engine(self):
        for factor in (0.6, 1.0, 10.0, 100.0):
            field = factor * M_MU**2
            general = decay_rate(MUON, MagnetizedState(field=field, level=0)).ratio
            reduced = lll_ratio_exact(MUON, field)
            assert reduced == pytest.approx(general, rel=1e-9)

    def test_frozen_values(self):
        assert lll_ratio_exact(MUON, 0.6 * M_MU**2) == pytest.approx(0.85928761040045309, rel=1e-10)
        assert lll_ratio_exact(MUON, M_MU**2) == pytest.approx(0.65475775396109592, rel=1e-10)

    @pytest.mark.parametrize(
        "factor, exact, factored",
        [
            (0.6, "0x1.b7f48bb10e4d8p-1", "0x1.636d8958319cap-4"),
            (1.0, "0x1.4f3c68882171ep-1", "0x1.ab3d1a5ea3027p-4"),
            (10.0, "0x1.8614a3b2d2369p-4", "0x1.044ec65202ed7p-5"),
            (100.0, "0x1.460cbb9dec276p-7", "0x1.db069c004bfd7p-9"),
            (1e6, "0x1.0c6f713f92620p-20", "0x1.8b01c774070d9p-22"),
        ],
    )
    def test_pinned_bits(self, factor, exact, factored):
        # both forms at eB/M^2 from the critical region to the strong-field
        # limit, bit for bit: any change to their shared integral shows here
        field = factor * M_MU**2
        assert lll_ratio_exact(MUON, field).hex() == exact
        assert lll_ratio_factored(MUON, field).hex() == factored

    def test_fixed_rule_against_mpmath(self):
        # both forms against 30-digit mpmath from just above the threshold
        # M^2/2 to 1e300 MeV^2.  The rule's own error is negligible: in
        # t = x/x_max the integrand's branch points sit at t = +-i sqrt(3) or
        # farther, so the 30-point Gauss rule errs like 7^-60 < 1e-40.  What
        # is left is roundoff, at most, in units of u = 2^-53:
        #   prefactor  two exps of arguments below 2, each known to 3u
        #              (6u + 1u each), and four roundings           18u
        #   x_max      four roundings                                 5u
        #   each term  b to 3u, c b to 6u, exp(c b) to 13u, then /b
        #              and the weight; the compensated sum of the
        #              positive terms adds one                       19u
        #   the two final products                                    2u
        mpmath = pytest.importorskip("mpmath")
        tol = (18 + 5 + 19 + 2) * 2.0**-53
        threshold = M_MU**2 / 2.0
        fields = [threshold * (1.0 + 1e-12)] + np.geomspace(1.001 * threshold, 1e300, 40).tolist()
        with mpmath.workdps(30):
            m_sq = mpmath.mpf(M_MU) ** 2
            for field in fields:
                f = mpmath.mpf(field)
                root_a = mpmath.sqrt(1 + m_sq / f)
                x_max = m_sq / (2 * mpmath.sqrt(m_sq + f))
                for closed_form, c, split in ((lll_ratio_exact, root_a, 0), (lll_ratio_factored, 1, root_a)):
                    # over t in [0, 1]: over [0, x_max] itself, below 1e-46
                    # wide past 1e100 MeV^2, mpmath.quad stops on its
                    # absolute tolerance about 3.7e-14 (relative) short
                    b = lambda t: mpmath.sqrt(1 + (x_max * t) ** 2 / f)
                    integral = x_max * mpmath.quad(lambda t: mpmath.exp(c * b(t)) / b(t), [0, 1])
                    want = 2 * mpmath.exp(-(1 + m_sq / (2 * f)) - split)
                    want *= integral / mpmath.sqrt(f)
                    got = closed_form(MUON, field)
                    assert abs(got - want) <= tol * want, (closed_form.__name__, field)

    def test_vanishes_at_strong_field(self):
        small = lll_ratio_exact(MUON, 1e6 * M_MU**2)
        tiny = lll_ratio_exact(MUON, 1e8 * M_MU**2)
        assert 0.0 < tiny < small < 2e-6

    def test_positive_everywhere_admissible(self):
        for factor in (0.51, 2.0, 1e4):
            assert lll_ratio_exact(MUON, factor * M_MU**2) > 0.0
            assert lll_ratio_factored(MUON, factor * M_MU**2) > 0.0

    def test_factored_variant_strong_field_offset(self):
        # the split exponential underestimates by exactly a factor e in the
        # strong-field limit; pin the measured offset as a regression anchor
        field = 1e6 * M_MU**2
        measured = lll_ratio_factored(MUON, field) / lll_ratio_exact(MUON, field)
        assert measured == pytest.approx(1.0 / math.e, rel=1e-4)

    def test_factored_variant_critical_field_offset(self):
        field = M_MU**2
        measured = lll_ratio_factored(MUON, field) / lll_ratio_exact(MUON, field)
        assert measured == pytest.approx(0.15930520656223066, rel=1e-9)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lll_ratio_exact(MUON, 0.49 * M_MU**2)
        massive_e = DecayChannel(m_parent=M_MU, m_charged=0.511)
        with pytest.raises(ValueError):
            lll_ratio_exact(massive_e, M_MU**2)


def assert_bounds_a_tight_run(state):
    """Every level's estimate at the default tolerance, and the total's,
    bounds its distance to a run four orders tighter."""
    default = decay_rate(MUON, state, rel_tol=1e-9)
    tight = decay_rate(MUON, state, rel_tol=1e-13)
    slack = 4.0 * np.finfo(float).eps
    pairs = zip(default.level_contributions, tight.level_contributions, strict=True)
    for level, reference in pairs:
        assert level.n == reference.n
        shift = abs(level.rate - reference.rate)
        assert shift <= level.quad_error + slack * abs(level.rate), level.n
    shift = abs(default.gamma_total - tight.gamma_total)
    assert shift <= default.quad_error + slack * default.gamma_total


class TestQuadratureHonesty:
    @pytest.mark.parametrize("p_sq,m", [(1e3, 5), (5e3, 12), (3e4, 40)])
    def test_halving_tolerance_within_reported_error(self, p_sq, m):
        state = magnetized(p_sq, m)
        loose = decay_rate(MUON, state, rel_tol=1e-7)
        tight = decay_rate(MUON, state, rel_tol=5e-8)
        assert abs(loose.gamma_total - tight.gamma_total) <= loose.quad_error

    @pytest.mark.parametrize("p_sq", [1e3, 1e4, 3e4])
    @pytest.mark.parametrize("m", [0, 5, 30])
    def test_default_tolerance_error_bounds_a_tight_run(self, p_sq, m):
        assert_bounds_a_tight_run(magnetized(p_sq, m))

    @pytest.mark.parametrize(
        "p_sq,m",
        [
            # each of the first three once had levels whose estimate fell
            # short, by up to 9 times, of the weights' roundoff that the
            # end pieces' interpolation carries
            (1e4, 300), (1e3, 76), (5e3, 120),
            (1e3, 5), (1e4, 30), (3e4, 65), (6e3, 0),
            # on a first mesh of six zeros a panel, the end pieces' |K - G|
            # fell short of far-tail levels' distance (1e-21 to 1e-29 of the
            # width) to a rel_tol 1e-13 run on four, by up to 7.5e6 times at
            # (1e3, 45) and 1.3e4 at (5e3, 80)
            (1e3, 45), (5e3, 80), (1e4, 140), (1e4, 1000),
        ],
    )
    def test_shared_mesh_error_bounds_a_tight_run(self, monkeypatch, p_sq, m):
        # every point on the shared mesh, whatever its size
        monkeypatch.setattr(rate, "_SHARED_MESH_WORK", 0)
        assert_bounds_a_tight_run(magnetized(p_sq, m))

    @pytest.mark.parametrize("p_sq,m", [(1e3, 80), (5e3, 80), (1e4, 300), (1e4, 1000)])
    def test_shared_mesh_error_is_tight(self, p_sq, m):
        # the shared-mesh points of the ROADMAP's Baseline: the end pieces'
        # error from the decay of their Legendre coefficients leaves the
        # width's estimate at its levels' roundoff, 6.4e-14 to 3.5e-13 of
        # the width, where |K - G| put it at 3.6e-12 to 9.3e-12
        result = decay_rate(MUON, magnetized(p_sq, m))
        assert result.quad_error < 5e-13 * result.gamma_total

    @pytest.mark.parametrize(
        "p_sq,m",
        [
            # each of these once failed at 1e-13 on a level hundreds of
            # orders below the width, which the absolute floor now lets
            # converge
            (3e4, 72), (1e4, 38), (5e4, 98),
            # every point whose stdout bytes tests/test_cli.py pins: the
            # four table rows (one of them the pinned rate point (1e4, 30)),
            # the rate point (1e4, 300), the five scan-lll fields (m = 0,
            # so p_sq is the field) and the strong-field lowest-level point
            (3e4, 65), (1e4, 30), (5e3, 20), (1e3, 5), (1e4, 300),
            (6e3, 0), (68173.161988049949, 0), (774596.66924148379, 0),
            (8801117.3679339439, 0), (1e8, 0), (1e16, 0),
        ],
    )
    def test_tight_tolerance_meets_the_default_run(self, p_sq, m):
        state = magnetized(p_sq, m)
        default = decay_rate(MUON, state)
        tight = decay_rate(MUON, state, rel_tol=1e-13)
        slack = 4.0 * np.finfo(float).eps * default.gamma_total
        assert abs(tight.gamma_total - default.gamma_total) <= default.quad_error + slack

    @pytest.mark.parametrize("p_sq,m", [(1e3, 2), (1e4, 5), (3e4, 10)])
    def test_reported_error_bounds_the_true_error(self, p_sq, m):
        # the level sum of the rate's own definition, every level integral
        # by mpmath.quad at 30 digits with w from loggamma and laguerre
        mpmath = pytest.importorskip("mpmath")
        state = magnetized(p_sq, m)
        result = decay_rate(MUON, state)
        with mpmath.workdps(30):
            field = mpmath.mpf(state.field)
            omega = mpmath.sqrt(mpmath.mpf(M_MU) ** 2 + (2 * m + 1) * field)

            def integrand(n, k_z):
                omega_n = mpmath.sqrt((2 * n + 1) * field + k_z * k_z)
                x = ((omega - omega_n) ** 2 - k_z * k_z) / (2 * field)
                k, d = min(n, m), abs(n - m)
                log_ratio = mpmath.loggamma(k + 1) - mpmath.loggamma(k + d + 1)
                w = mpmath.exp(log_ratio - x) * x**d * mpmath.laguerre(k, d, x) ** 2
                return w / omega_n

            total = mpmath.mpf(0)
            for n in range(result.n_max_used + 1):
                cut = (omega**2 - (2 * n + 1) * field) / (2 * omega)
                total += mpmath.quad(lambda k_z: integrand(n, k_z), [0, cut])
            exact = float(2 * total / (16 * mpmath.pi * omega))
        assert abs(result.gamma_total - exact) <= result.quad_error


def forced(monkeypatch, shared, state, rel_tol):
    """decay_rate on the shared mesh or on the per-level k_z quadrature."""
    monkeypatch.setattr(rate, "_SHARED_MESH_WORK", 0 if shared else math.inf)
    return decay_rate(MUON, state, rel_tol)


class TestSharedMesh:
    # points of the five figure datasets: level_scan_multi, level_scan_5e4,
    # field_scan_r0p1 (R = 0.1 / MeV, p_perp = (2m + 1) / R), lowest_level_scan
    # (m = 0, p_sq is the field) and observables_table, and the criterion 3
    # point (1e4, 300)
    POINTS = [
        (1e3, 40), (5e3, 56), (1e4, 75), (3e4, 65),
        (5e4, 100), (5e4, 40),
        (100.0 * 21**2, 10), (100.0 * 81**2, 40),
        (6e3, 0), (1e5, 0),
        (1e3, 5), (5e3, 20),
        (1e4, 300),
        # the heaviest figure point on the shared mesh
        (1e3, 80),
    ]

    @pytest.mark.parametrize("p_sq,m", POINTS)
    def test_matches_the_per_level_sum(self, monkeypatch, p_sq, m):
        # the two level sums at rel_tol 1e-13 agree in the width and the
        # ratio within 1e-12
        state = magnetized(p_sq, m)
        mesh = forced(monkeypatch, True, state, 1e-13)
        kz = forced(monkeypatch, False, state, 1e-13)
        assert mesh.gamma_total == pytest.approx(kz.gamma_total, rel=1e-12, abs=0.0)
        assert mesh.ratio == pytest.approx(kz.ratio, rel=1e-12, abs=0.0)
        assert mesh.n_max_used == kz.n_max_used

    # the Baseline rows of scripts/mesh_crossover.py and the points of
    # TestQuadratureHonesty's shared-mesh test that POINTS lacks
    @pytest.mark.parametrize("p_sq,m", POINTS + [(1e4, 30), (5e3, 40), (5e4, 120), (1e3, 76), (5e3, 120)])
    def test_first_mesh_converges_in_one_round(self, monkeypatch, p_sq, m):
        counted = count_shared_work(monkeypatch)
        forced(monkeypatch, True, magnetized(p_sq, m), 1e-9)
        assert counted["rounds"] == 1

    def test_lowest_level_on_the_last_edge(self, monkeypatch):
        # level 0 has theta = 1, on the mesh's last edge, where the moments
        # of its end piece have their square-root branch: c - 1 formed from
        # c there once left it 1.2e-8 off at this point
        state = magnetized(3e4, 65)
        mesh = forced(monkeypatch, True, state, 1e-13).level_contributions[0]
        kz = forced(monkeypatch, False, state, 1e-13).level_contributions[0]
        assert mesh.rate == pytest.approx(kz.rate, rel=1e-12, abs=0.0)

    def test_size_picks_the_scheme(self):
        # m (levels) against the threshold, and X_0 against the level
        # kernel's argument cap
        def shares(p_sq, m):
            root_x = rate.level_edges(MUON, magnetized(p_sq, m))[0]
            return rate._shares_mesh(m, root_x)

        # each side of 20,000 on two figure curves: 40 x 493 and 41 x 505
        # levels at 1e3, 78 x 254 and 79 x 257 at 5e3
        assert not shares(1e3, 40) and shares(1e3, 41)
        assert not shares(5e3, 78) and shares(5e3, 79)
        # the CLI goldens keep their schemes; the 1e4 and 5e4 curves stay
        # on k_z to their ends
        assert not shares(1e4, 30) and not shares(3e4, 65) and shares(1e4, 300)
        assert not shares(1e4, 80) and not shares(5e4, 120)
        # p_perp^2 = 10 at m = 1: 1,677 levels and X_0 near 1,676
        assert shares(10.0, 1)

    def test_level_count_past_the_old_argument_cap(self):
        # m = 1000 at p_perp^2 = 1e4 once stopped at "argument above cap
        # 1400.0"; its width at 1e-11 meets that at 1e-13
        state = magnetized(1e4, 1000)
        loose = decay_rate(MUON, state, rel_tol=1e-11)
        tight = decay_rate(MUON, state, rel_tol=1e-13)
        assert loose.n_max_used == 2117
        assert abs(loose.gamma_total - tight.gamma_total) <= 1e-11 * tight.gamma_total
        assert abs(loose.ratio - 1.0) < 1e-6

    def test_quad_error_of_a_subnormal_width_keeps_its_digits(self):
        # G = 1e-150 scales the width and its error by 1e-300: the level
        # errors are summed before the prefactor scales them, so the
        # subnormal total is one rounding of the scaled sum
        state = magnetized(1e4, 30)
        unit = decay_rate(MUON, state)
        tiny = decay_rate(DecayChannel(m_parent=M_MU, coupling=1e-150), state)
        assert tiny.quad_error < 2.2250738585072014e-308
        assert abs(tiny.quad_error - 1e-300 * unit.quad_error) <= 2.0**-1074
