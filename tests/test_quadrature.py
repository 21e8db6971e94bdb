import math

import numpy as np
import pytest
from numpy.polynomial import legendre

from magdecay import DecayChannel, MagnetizedState, field_for_radial_energy, landau, mesh, quadrature, specfun
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
        with pytest.raises(quadrature.RateConvergenceError, match="^level 0: no convergence within 50 panels"):
            quadrature.integrate(lambda x, _: 1.0 / x, [0.0], [1.0])

    def test_budget_exhaustion_carries_partial_result(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
        blade = lambda x, _: 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-14)
        with pytest.raises(quadrature.RateConvergenceError) as info:
            quadrature.integrate(blade, [0.0], [1.0], rel_tol=1e-13)
        assert info.value.partial_value > 0.0
        assert info.value.error_estimate > 0.0
        assert info.value.n == 0

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


class TestProductWeights:
    # c = (theta - c0) / h on a panel of centre c0 and half-width h: the
    # panel's ends, just inside and outside them, inside the panel, and
    # panels below theta
    C = [
        "-1", "-0.999999999999", "-0.5", "0.37", "0.999999999999",
        "1", "1.000000000001", "1.5", "4",
    ]

    @staticmethod
    def moments(c):
        """mu_k, k = 0..60, from the formulas of the end pieces, with c + 1
        and c - 1 as the mesh forms them from the edges."""
        return mesh._moments(mesh._moment_root(np.array(float(c + 1)), np.array(float(c - 1))))

    @pytest.mark.parametrize("c", C)
    def test_moments_against_mpmath(self, c):
        # int_-1^min(c,1) P_k(u) (c - u)^(-1/2) du = 2 int P_k(c - s^2) ds over
        # s from sqrt(max(c - 1, 0)) to sqrt(c + 1): P_k(c - y) expanded in
        # y = s^2 by the three-term recurrence, integrated term by term at
        # 150 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(150):
            c = mpmath.mpf(c)
            low, high = mpmath.sqrt(max(c - 1, 0)), mpmath.sqrt(c + 1)
            polys = [[mpmath.mpf(1)], [c, mpmath.mpf(-1)]]
            for k in range(1, 60):
                # (k + 1) P_k+1 = (2k + 1)(c - y) P_k - k P_k-1
                times = [c * a for a in polys[k]] + [0]
                for i, a in enumerate(polys[k]):
                    times[i + 1] -= a
                lower = polys[k - 1] + [0, 0]
                polys.append([((2 * k + 1) * a - k * b) / (k + 1) for a, b in zip(times, lower)])
            span = [(high ** (2 * i + 1) - low ** (2 * i + 1)) / (2 * i + 1) for i in range(61)]
            reference = np.array([float(2 * mpmath.fdot(poly, span)) for poly in polys])
            mu = self.moments(c)
        # sqrt(z) z^k, of modulus at most one, carries about k + 2 complex
        # roundings of at most sqrt(5) eps each, and (k + 2) / (2k + 1) <= 2:
        # within 2 sqrt(2) 2 sqrt(5) eps = 4 sqrt(10) eps
        eps = np.finfo(float).eps
        assert np.abs(mu - reference).max() <= 4.0 * math.sqrt(10.0) * eps

    @pytest.mark.parametrize("c", C)
    @pytest.mark.parametrize("rule", ["kronrod", "gauss"])
    def test_weights_give_back_the_moments(self, c, rule):
        # W = mu V^-1 integrates every P_k the nodes interpolate, k <= 60 on
        # the Kronrod nodes (mu times _PRODUCT) and k <= 29 on the Gauss
        # nodes among them, whose V^-1 the same inversion gives
        mu = self.moments(float(c))
        weights, nodes = mu @ mesh._PRODUCT, mesh._NODES
        if rule == "gauss":
            nodes = nodes[np.flatnonzero(quadrature._WEIGHTS_G)]
            weights = mu[: nodes.size] @ mesh._legendre_inverse(nodes)
        back = weights @ legendre.legvander(nodes, nodes.size - 1)
        # a few roundings of the dot product's terms, each at most |W_j| as
        # |P_k| <= 1 on [-1, 1]
        assert np.abs(back - mu[: nodes.size]).max() <= 8.0 * np.finfo(float).eps * np.abs(weights).sum()


    @pytest.mark.parametrize("branch", ["plateau", "decays", "slow", "flat"])
    def test_end_piece_error_bounds_the_rule_error(self, branch):
        # one level's two panels, [0, 0.5] below theta and [0.5, 1] around
        # it (c = 0.37), with its weights chosen so that the rest f of the
        # integrand is the same g(u) on both: a polynomial, whose
        # coefficients end on their roundoff plateau; a pole 0.02 past the
        # panel, where their largest falls by 0.47 every four; one 0.0175
        # past it, where it falls by 0.49, just under _DECAY; or 80 radians
        # across the panel, where they do not fall.  The exact piece is the
        # sum of 2 int g(c - s^2) ds over s from sqrt(max(c - 1, 0)) to
        # sqrt(c + 1) on each panel, by mpmath at 30 digits
        mpmath = pytest.importorskip("mpmath")
        g = {
            "plateau": lambda u: 1 + u - 3 * u**4 + u**9,
            "decays": lambda u: 1 / (mpmath.mpf("1.02") - u),
            "slow": lambda u: 1 / (mpmath.mpf("1.0175") - u),
            "flat": lambda u: 2 + mpmath.cos(80 * u),
        }[branch]
        edges, upper, rho = np.array([0.0, 0.5, 1.0]), np.array([1]), np.array([0.5])
        theta = np.array([0.75 + 0.37 * 0.25])
        weights, exact = [], 0.0
        with mpmath.workdps(30):
            for low, high in zip(edges[:-1], edges[1:]):
                half, centre = 0.5 * (high - low), 0.5 * (low + high)
                t = centre + half * mesh._NODES
                root = np.sqrt((theta[0] + t) * (1.0 - (rho[0] * t) ** 2))
                rest = np.array([float(g(mpmath.mpf(float(u)))) for u in mesh._NODES])
                weights.append(rest * root / (t * 2.0 * rho[0] * math.sqrt(half)))
                c = mpmath.mpf(float(theta[0] - centre)) / mpmath.mpf(float(half))
                ends = [mpmath.sqrt(max(c - 1, 0)), mpmath.sqrt(c + 1)]
                exact += float(mpmath.quad(lambda s: 2 * g(c - s * s), ends))
        roundoff = quadrature._ROUNDOFF
        piece, error, absolute, product = mesh._endpoint_pieces(
            theta, rho, edges, upper, np.concatenate(weights)[None, :], np.array([roundoff])
        )[:, 0]
        floor = roundoff * absolute + product
        assert abs(piece - exact) <= max(error, floor)
        if branch == "plateau":
            assert error == 0.0
        else:
            # the error counts, and it is no roundoff
            assert error > 1e3 * floor


class TestFirstMesh:
    @pytest.mark.parametrize("n,m", [(1, 1), (7, 300), (300, 300), (636, 300), (2000, 9), (5000, 3000)])
    def test_zero_density_counts_the_zeros(self, n, m):
        # the density per unit log x, integrated over [x_-, x_+] in x = x_-
        # + (x_+ - x_-)(1 - cos phi) / 2, where it is smooth in phi
        low, high = (math.sqrt(n) - math.sqrt(m)) ** 2, (math.sqrt(n) + math.sqrt(m)) ** 2
        phi = (np.arange(20_000) + 0.5) * (math.pi / 20_000)
        x = low + 0.5 * (high - low) * (1.0 - np.cos(phi))
        dx = 0.5 * (high - low) * np.sin(phi) * (math.pi / 20_000)
        count = (mesh._zeros_per_log_x(n, m, x) / x * dx).sum()
        assert count == pytest.approx(min(n, m), abs=1e-6)

    def test_panels_hold_few_zeros(self, monkeypatch):
        # at (p_perp^2, m) = (1e4, 300) no panel of the first mesh holds
        # more than seven local minima of any level's weights, counted on a
        # grid of 8,192 points in t, and the densest holds six
        m = 300
        state = MagnetizedState(field=field_for_radial_energy(1e4, m), level=m)
        root_x, root_y = landau.level_edges(DecayChannel(m_parent=105.7), state)
        first = []
        evaluate = mesh._evaluate_panels

        def capture(m, scale_x, theta, rho, edges, *rest):
            first.append(edges)
            return evaluate(m, scale_x, theta, rho, edges, *rest)

        monkeypatch.setattr(mesh, "_evaluate_panels", capture)
        mesh.level_integrals(m, root_x, root_y, 1e-9, 0.0)
        theta = root_x / root_x[0]
        t = (np.arange(8192) + 0.5) / 8192
        top = np.searchsorted(-theta, -t, side="right") - 1
        most = 0
        for n0, slab, _ in specfun.overlap_rows(m, root_x[0] ** 2 * t * t, top):
            for n, row in enumerate(slab, start=n0):
                w = row[: np.count_nonzero(top >= n)]
                minima = np.flatnonzero((w[1:-1] < w[:-2]) & (w[1:-1] < w[2:])) + 1
                panel = np.searchsorted(first[0], t[minima], side="right") - 1
                most = max(most, np.bincount(panel).max(initial=0))
        assert 6 <= most <= 7
