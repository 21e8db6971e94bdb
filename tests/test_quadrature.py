import math

import numpy as np
import pytest
from numpy.polynomial import legendre

from magdecay import quadrature
from reference_paths import gauss_kronrod_panel


class TestPanelRule:
    @pytest.mark.parametrize("degree", [0, 2, 8, 14, 20, 22])
    def test_kronrod_exact_for_even_powers(self, degree):
        value, _ = gauss_kronrod_panel(lambda x: x**degree, -1.0, 1.0)
        assert value == pytest.approx(2.0 / (degree + 1), rel=1e-13)

    @pytest.mark.parametrize("degree", [1, 7, 15, 21])
    def test_kronrod_exact_for_odd_powers(self, degree):
        value, _ = gauss_kronrod_panel(lambda x: x**degree, -1.0, 1.0)
        assert value == pytest.approx(0.0, abs=1e-15)

    @staticmethod
    def legendre_moments(weights, top):
        """sum_i w_i P_k(x_i) for k = 0 .. top; exactly 2 delta_k0 for a rule
        that integrates P_k on [-1, 1] exactly."""
        x = quadrature._NODES
        return [math.fsum(weights * legendre.legval(x, [0.0] * k + [1.0])) for k in range(top + 1)]

    def test_kronrod_rule_exact_through_degree_91(self):
        moments = self.legendre_moments(quadrature._WEIGHTS_K, 92)
        assert moments[0] == pytest.approx(2.0, abs=1e-15)
        assert max(map(abs, moments[1:92])) < 1e-14
        # and not beyond: degree 92 is where the 61-point rule stops
        assert abs(moments[92]) > 1e-6

    def test_embedded_gauss_rule_exact_through_degree_59(self):
        moments = self.legendre_moments(quadrature._WEIGHTS_G, 60)
        assert moments[0] == pytest.approx(2.0, abs=1e-15)
        assert max(map(abs, moments[1:60])) < 1e-14
        assert abs(moments[60]) > 1e-6

    def test_nodes_antisymmetric_with_gauss_nodes_at_odd_positions(self):
        x = quadrature._NODES
        assert x.size == 61 and np.all(np.diff(x) > 0.0)
        assert np.array_equal(x, -x[::-1]) and x[30] == 0.0
        assert np.array_equal(np.flatnonzero(quadrature._WEIGHTS_G), np.arange(1, 61, 2))
        # the Gauss nodes are the roots of P_30
        assert np.abs(legendre.legval(x[1::2], [0.0] * 30 + [1.0])).max() < 1e-13

    def test_weights_positive_symmetric_and_sum_to_two(self):
        for weights in (quadrature._WEIGHTS_K, quadrature._WEIGHTS_G[1::2]):
            assert np.all(weights > 0.0)
            assert np.array_equal(weights, weights[::-1])
            assert math.fsum(weights) == pytest.approx(2.0, abs=4e-16)

    def test_error_estimate_is_conservative_on_smooth_function(self):
        value, err = gauss_kronrod_panel(np.exp, 0.0, 1.0)
        assert abs(value - (math.e - 1.0)) <= max(err, 1e-15)


class TestAdaptiveIntegrate:
    def test_exponential(self):
        (value,), (err,) = quadrature.integrate(lambda x, _: np.exp(x), [0.0], [1.0])
        assert value == pytest.approx(math.e - 1.0, rel=1e-13)
        assert abs(value - (math.e - 1.0)) <= max(err, 5e-16)

    def test_oscillatory(self):
        (value,), (err,) = quadrature.integrate(lambda x, _: np.sin(40.5 * x), [0.0], [math.pi])
        exact = (1.0 - math.cos(40.5 * math.pi)) / 40.5
        assert value == pytest.approx(exact, rel=1e-9)
        assert abs(value - exact) <= err + 1e-14

    def test_cancelling_integral_terminates_at_roundoff(self):
        # exact value 0; a pure relative target is unreachable, the
        # roundoff floor has to stop the refinement
        (value,), (err,) = quadrature.integrate(lambda x, _: np.sin(50.0 * x), [0.0], [math.pi])
        assert abs(value) < 1e-12
        assert err < 1e-12

    def test_narrow_feature_inside_wide_interval(self):
        (value,), _ = quadrature.integrate(
            lambda x, _: np.exp(-((x - 0.5) ** 2) * 400.0), [-40.0], [41.0], rel_tol=1e-10
        )
        assert value == pytest.approx(math.sqrt(math.pi / 400.0), rel=1e-9)

    def test_zero_width_interval(self):
        assert quadrature.integrate(lambda x, _: np.exp(x), [2.0], [2.0]) == ([0.0], [0.0])

    def test_no_intervals(self):
        assert quadrature.integrate(lambda x, _: np.exp(x), [], []) == ([], [])

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError, match="inverted interval"):
            quadrature.integrate(lambda x, _: np.exp(x), [0.0, 1.0], [1.0, 0.0])

    @pytest.mark.parametrize(
        "a,b", [(0.0, 1.0), ([0.0], 1.0), ([0.0, 1.0], [1.0]), ([[0.0]], [[1.0]])]
    )
    def test_ends_must_be_1d_of_one_length(self, a, b):
        with pytest.raises(ValueError, match="1-D of one length"):
            quadrature.integrate(lambda x, _: np.exp(x), a, b)

    def test_bad_tolerances_rejected(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="rel_tol must be positive and finite"):
                quadrature.integrate(lambda x, _: np.exp(x), [0.0], [1.0], rel_tol=bad)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="abs_tol must be nonnegative and finite"):
                quadrature.integrate(lambda x, _: np.exp(x), [0.0], [1.0], abs_tol=bad)

    def test_non_finite_integrand_rejected(self):
        def nan_left_of_half(x, _):
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.log(x - 0.5)

        with pytest.raises(FloatingPointError):
            quadrature.integrate(nan_left_of_half, [0.0], [1.0])

    def test_divergent_integral_exhausts_budget(self, monkeypatch):
        # nodes are interior, so 1/x is finite at every sample; the panel
        # budget is what stops the refinement
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 50)
        with pytest.raises(quadrature.QuadraturePanelError, match="within 50 panels"):
            quadrature.integrate(lambda x, _: 1.0 / x, [0.0], [1.0])

    def test_budget_exhaustion_carries_partial_result(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
        blade = lambda x, _: 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-14)
        with pytest.raises(quadrature.QuadraturePanelError) as info:
            quadrature.integrate(blade, [0.0], [1.0], rel_tol=1e-13)
        assert info.value.value > 0.0
        assert info.value.error_estimate > 0.0
        assert info.value.interval == 0

    def test_deterministic(self):
        f = lambda x, _: np.cos(17.0 * x) * np.exp(-x)
        first = quadrature.integrate(f, [0.0], [5.0])
        second = quadrature.integrate(f, [0.0], [5.0])
        assert first == second

    def test_halving_tolerance_stays_within_reported_error(self):
        f = lambda x, _: np.sqrt(x) * np.exp(-x)
        (loose,), (err,) = quadrature.integrate(f, [0.0], [10.0], rel_tol=1e-7)
        (tight,), _ = quadrature.integrate(f, [0.0], [10.0], rel_tol=5e-8)
        assert abs(loose - tight) <= err
