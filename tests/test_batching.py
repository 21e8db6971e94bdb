"""Batched evaluation: the row kernel, the multi-interval quadrature, and the
level sum built on them give the bits and the work of one-at-a-time
evaluation, whatever the batch."""

import functools
import math

import numpy as np
import pytest

from magdecay import (
    DecayChannel,
    MagnetizedState,
    RateConvergenceError,
    decay_rate,
    field_for_radial_energy,
    landau,
    quadrature,
    rate,
    specfun,
)
from reference_paths import gauss_kronrod_panel

M_MU = 105.7
MUON = DecayChannel(m_parent=M_MU)


def magnetized(p_perp_sq, m):
    return MagnetizedState(field=field_for_radial_energy(p_perp_sq, m), level=m)


def scalar_overlap(n, m, x):
    """The one-point recurrence the row kernel must reproduce bit for bit."""
    k, d = min(n, m), abs(n - m)
    xa = np.array([x], dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_phi0 = 0.5 * (d * np.log(xa) - xa) - 0.5 * math.lgamma(d + 1)
        phi_prev = np.where(xa > 0.0, np.exp(log_phi0), 1.0 if d == 0 else 0.0)
    if k == 0:
        phi = phi_prev
    else:
        phi_cur = (d + 1.0 - xa) * phi_prev / math.sqrt(d + 1.0)
        for j in range(1, k):
            phi_prev, phi_cur = phi_cur, (
                (2.0 * j + 1.0 + d - xa) * phi_cur - math.sqrt(j * (j + d)) * phi_prev
            ) / math.sqrt((j + 1.0) * (j + 1.0 + d))
        phi = phi_cur
    return float(np.minimum(phi * phi, 1.0)[0])


def result_bits(result):
    levels = tuple((c.n, c.rate.hex(), c.quad_error.hex()) for c in result.level_contributions)
    return result.gamma_total.hex(), result.ratio.hex(), result.quad_error.hex(), levels


class TestRowKernel:
    @pytest.mark.parametrize("m", [0, 1, 7, 40])
    def test_bit_identical_to_one_point_recurrence(self, m):
        rng = np.random.default_rng(m)
        n = rng.integers(0, 90, size=300)
        # coincident rows (d = 0), the lowest level (k = 0) and x = 0 rows
        # share the batch with every other (k, d)
        n[:10] = m
        n[10:20] = 0
        x = rng.uniform(0.0, 200.0, size=300) * rng.choice([1.0, 1e-2, 1e-5], size=300)
        x[20:40] = 0.0
        w = specfun.overlap_weight_rows(n, m, x)
        for ni, xi, wi in zip(n.tolist(), x.tolist(), w.tolist()):
            assert wi == scalar_overlap(ni, m, xi), (ni, m, xi)

    def test_rows_do_not_depend_on_their_batch(self):
        rng = np.random.default_rng(11)
        n = rng.integers(0, 60, size=200)
        x = rng.uniform(0.0, 80.0, size=200)
        whole = specfun.overlap_weight_rows(n, 25, x)
        for size in (1, 3, 64):
            parts = [
                specfun.overlap_weight_rows(n[s : s + size], 25, x[s : s + size])
                for s in range(0, 200, size)
            ]
            assert np.array_equal(np.concatenate(parts), whole)

    def test_empty_batch(self):
        assert specfun.overlap_weight_rows([], 3, []).shape == (0,)

    def test_rejects_mismatched_or_bad_rows(self):
        with pytest.raises(ValueError):
            specfun.overlap_weight_rows([1, 2], 3, [0.5])
        with pytest.raises(ValueError):
            specfun.overlap_weight_rows([-1], 3, [0.5])
        with pytest.raises(ValueError):
            specfun.overlap_weight_rows([1], 3, [-0.5])

    @pytest.mark.parametrize("m,x", [(10, 3.0), (40, 25.0), (120, 60.0), (0, 100.0)])
    def test_completeness_sum_matches_term_by_term(self, m, x):
        terms, small, n = [], 0, 0
        while True:
            w = scalar_overlap(n, m, x)
            terms.append(w)
            small = small + 1 if w < 1e-16 else 0
            if small >= 8 and n > m + x:
                break
            n += 1
        assert specfun.overlap_completeness_sum(m, x) == (math.fsum(terms), n)


class TestPanelRule:
    @staticmethod
    def rule(lo, hi):
        """(value, error, |f| mass) of every panel [lo_i, hi_i] of one table."""
        panels = np.zeros((6, len(lo)))
        panels[quadrature._LO], panels[quadrature._HI] = lo, hi
        quadrature._evaluate_panels(lambda x, i: np.cos(37.0 * x) * np.exp(-x) + x**3, panels)
        rows = (quadrature._VALUE, quadrature._ERROR, quadrature._MASS)
        return np.stack([panels[r] for r in rows], axis=1)

    def test_panel_bits_do_not_depend_on_batch(self, monkeypatch):
        # a matrix-vector product gives bits that depend on the row count;
        # the rule's fixed-order sums must not
        monkeypatch.setattr(quadrature, "_CHUNK", 5000)
        rng = np.random.default_rng(7)
        lo = rng.uniform(-3.0, 3.0, 1000)
        hi = lo + rng.uniform(1e-6, 2.0, 1000)
        whole = self.rule(lo, hi)
        alone = np.array([self.rule(lo[i : i + 1], hi[i : i + 1])[0] for i in (0, 1, 500, 999)])
        assert np.array_equal(alone, whole[[0, 1, 500, 999]])
        for size in (2, 7, 64):
            for start in (0, 3, 936):
                part = self.rule(lo[start : start + size], hi[start : start + size])
                assert np.array_equal(part, whole[start : start + size])
        # every other panel, i.e. a batch built from a strided view
        assert np.array_equal(self.rule(lo[::2], hi[::2]), whole[::2])

    def test_single_panel_helper_matches_the_table(self):
        value, error = gauss_kronrod_panel(
            lambda x: np.cos(37.0 * x) * np.exp(-x) + x**3, 0.25, 1.5
        )
        row = self.rule(np.array([0.25]), np.array([1.5]))[0]
        assert value == row[0]
        assert error == max(row[1], 50.0 * np.finfo(float).eps * row[2])


def _interval_integrand(x, i):
    # a different smooth, oscillating integrand on every interval
    return np.cos((3.0 + i) * x) * np.exp(-0.1 * i * x) + 0.2 * i


class TestMultiIntervalIntegrate:
    A = np.array([0.0, -1.0, 2.0, 0.5, 3.0, 0.0])
    B = np.array([5.0, 1.0, 2.0, 0.7, 40.0, 1e-3])

    def test_each_interval_as_if_alone(self):
        values, errors = quadrature.integrate(_interval_integrand, self.A, self.B)
        for i, (a, b) in enumerate(zip(self.A, self.B)):
            alone = quadrature.integrate(lambda x: _interval_integrand(x, i), a, b)
            assert (values[i], errors[i]) == alone
        # the zero-width interval is exactly zero
        assert (values[2], errors[2]) == (0.0, 0.0)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_results_do_not_depend_on_chunk_size(self, monkeypatch, chunk):
        reference = quadrature.integrate(_interval_integrand, self.A, self.B)
        monkeypatch.setattr(quadrature, "_CHUNK", chunk)
        assert quadrature.integrate(_interval_integrand, self.A, self.B) == reference

    def test_integrand_sees_only_its_intervals_points(self):
        seen = []

        def integrand(x, i):
            seen.append((x.copy(), i.copy()))
            return _interval_integrand(x, i)

        quadrature.integrate(integrand, self.A, self.B)
        for x, i in seen:
            assert x.shape == i.shape
            assert np.all(x >= self.A[i]) and np.all(x <= self.B[i])

    def test_lowest_failing_interval_reported_after_the_rest_finish(self):
        # intervals 1 and 3 hold an integrable singularity that 20 panels
        # cannot resolve; the others need several rounds to converge
        singular = {1, 3}
        points = {}

        def integrand(x, i):
            for j in set(i.tolist()):
                points[j] = points.get(j, 0) + int(np.sum(i == j))
            blade = 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-14)
            return np.where(np.isin(i, list(singular)), blade, np.cos(20.0 * x))

        a, b = np.zeros(5), np.ones(5)
        with pytest.raises(quadrature.QuadraturePanelError) as info:
            quadrature.integrate(integrand, a, b, rel_tol=1e-12, max_subdivisions=20)
        assert info.value.interval == 1
        assert info.value.value > 0.0 and info.value.error_estimate > 0.0
        alone = {"n": 0}

        def smooth(x):
            alone["n"] += x.size
            return np.cos(20.0 * x)

        quadrature.integrate(smooth, 0.0, 1.0, rel_tol=1e-12, max_subdivisions=20)
        assert points[4] == alone["n"] > 3 * 15


class TestLevelSum:
    def test_level_contribution_positive_and_bounded_error(self):
        level = decay_rate(MUON, magnetized(5e3, 20), rel_tol=1e-9).level_contributions[7]
        assert level.rate > 0.0
        assert level.quad_error <= 1e-9 * level.rate + 1e-25

    def test_convergence_error_carries_partial(self, monkeypatch):
        state = magnetized(3e4, 65)
        # the level sum runs with a one-panel budget for every level
        one_panel = functools.partial(quadrature.integrate, max_subdivisions=1)
        with monkeypatch.context() as patch, pytest.raises(RateConvergenceError) as info:
            patch.setattr(quadrature, "integrate", one_panel)
            decay_rate(MUON, state, rel_tol=1e-12)
        # the lowest level that fails on its own is the one reported
        for n in range(info.value.n + 1):
            cut = landau.kz_cutoffs(MUON, state)[n]
            integrand = lambda k_z: rate._integrand_arrays(MUON, state, np.full(k_z.size, n), k_z)
            if n < info.value.n:
                quadrature.integrate(integrand, 0.0, cut, 1e-12, 0.0, 1)
            else:
                with pytest.raises(quadrature.QuadraturePanelError):
                    quadrature.integrate(integrand, 0.0, cut, 1e-12, 0.0, 1)
        assert info.value.partial_value > 0.0

    @pytest.mark.parametrize("chunk", [1, 64])
    def test_level_sum_does_not_depend_on_chunk_size(self, monkeypatch, chunk):
        state = magnetized(1e4, 30)
        reference = result_bits(decay_rate(MUON, state))
        monkeypatch.setattr(quadrature, "_CHUNK", chunk)
        assert result_bits(decay_rate(MUON, state)) == reference

    @pytest.mark.parametrize(
        "p_perp_sq,m,levels,points",
        [(1e4, 30, 65, 5_795), (1e4, 300, 636, 400_160)],
    )
    def test_pinned_work_counts(self, monkeypatch, p_perp_sq, m, levels, points):
        counted = {"points": 0}
        integrate = quadrature.integrate

        def counting(f, *args, **kwargs):
            def wrapped(x, *rest):
                counted["points"] += x.size
                return f(x, *rest)

            return integrate(wrapped, *args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate", counting)
        result = decay_rate(MUON, magnetized(p_perp_sq, m))
        assert result.n_max_used + 1 == levels
        assert counted["points"] == points
