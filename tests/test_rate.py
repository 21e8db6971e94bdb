import math

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
)
from magdecay.landau import kz_cutoffs
from magdecay.rate import _integrand_arrays, free_rate_at_rest, free_rate_boosted

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

    def test_boosted(self):
        assert free_rate_boosted(MUON, 1.0) == free_rate_at_rest(MUON)
        assert free_rate_boosted(MUON, 2.0) == pytest.approx(9.4108e-5, rel=1e-5)
        with pytest.raises(ValueError):
            free_rate_boosted(MUON, 0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_inputs_rejected(self, value):
        with pytest.raises(ValueError, match="must be finite"):
            free_rate_boosted(MUON, value)
        for closed_form in (lll_ratio_exact, lll_ratio_factored):
            with pytest.raises(ValueError, match="must be finite"):
                closed_form(MUON, value)

    def test_lifetime_dilation(self):
        gamma = 3.7
        assert 1.0 / free_rate_boosted(MUON, gamma) == pytest.approx(
            gamma / free_rate_at_rest(MUON), rel=1e-14
        )


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
        assert result.gamma_free_boosted == pytest.approx(
            free_rate_at_rest(MUON) / result.lorentz_gamma, rel=1e-14
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
        monkeypatch.setattr("magdecay.rate.kz_cutoffs", lambda channel, state: np.empty(0))
        state = magnetized(1e4, 30)
        gamma = state.energy(M_MU) / M_MU
        closed = RateResult(0.0, (), 0.0, free_rate_boosted(MUON, gamma), -1, gamma, 0.0)
        assert decay_rate(MUON, state) == closed
        with pytest.raises(ValueError, match="rel_tol"):
            decay_rate(MUON, state, rel_tol=0.0)

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
        # every level's estimate at the default tolerance, and the total's,
        # bounds its distance to a run four orders tighter
        state = magnetized(p_sq, m)
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

    @pytest.mark.parametrize("p_sq,m", [(3e4, 72), (1e4, 38), (5e4, 98)])
    def test_tight_tolerance_meets_the_default_run(self, p_sq, m):
        # each of these once failed at 1e-13 on a level hundreds of orders
        # below the width, which the absolute floor now lets converge
        state = magnetized(p_sq, m)
        default = decay_rate(MUON, state)
        tight = decay_rate(MUON, state, rel_tol=1e-13)
        assert abs(tight.gamma_total - default.gamma_total) <= default.quad_error
