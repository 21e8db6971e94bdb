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


def result_bits(result):
    levels = tuple((c.n, c.rate.hex(), c.quad_error.hex()) for c in result.level_contributions)
    return result.gamma_total.hex(), result.ratio.hex(), result.quad_error.hex(), levels


def count_work(monkeypatch):
    """Count the integrand points and the overlap recurrence row-steps of
    every later level sum; a row-step is one point advanced by one step, so
    a point at level n_i takes min(n_i, m) of them."""
    counted = {"points": 0, "steps": 0}
    integrate = quadrature.integrate
    overlap_weight_rows = rate.overlap_weight_rows

    def counting(f, *args, **kwargs):
        def wrapped(x, *rest):
            counted["points"] += x.size
            return f(x, *rest)

        return integrate(wrapped, *args, **kwargs)

    def stepping(n, level, x):
        per_row = np.size(x) // len(n)
        counted["steps"] += int(np.minimum(n, level).sum()) * per_row
        return overlap_weight_rows(n, level, x)

    monkeypatch.setattr(quadrature, "integrate", counting)
    monkeypatch.setattr(rate, "overlap_weight_rows", stepping)
    return counted


def one_row(n, m, x):
    """w(n, m, x) as a one-point row of its own."""
    return float(specfun.overlap_weight_rows([n], m, [x])[0])


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
            assert wi == one_row(ni, m, xi), (ni, m, xi)

    @pytest.mark.parametrize("m", [0, 3, 40, 130])
    def test_each_point_of_a_row_is_its_own_one_point_row(self, m):
        # rows of 61 points, as the level sum's panels are; k runs past
        # several renormalization blocks, and x = 0 sits inside rows
        rng = np.random.default_rng(100 + m)
        n = rng.integers(0, 200, size=40)
        n[:4] = m
        n[4:8] = 0
        x = rng.uniform(0.0, 300.0, size=(40, 61)) * rng.choice([1.0, 1e-3], size=(40, 1))
        x[::5, ::7] = 0.0
        w = specfun.overlap_weight_rows(n, m, x)
        assert w.shape == x.shape
        for ni, row, wrow in zip(n.tolist(), x.tolist(), w.tolist()):
            assert wrow == [one_row(ni, m, xi) for xi in row], (ni, m)
        # the flat layout, one point per row, gives the same bits
        assert np.array_equal(specfun.overlap_weight_rows(n.repeat(61), m, x.ravel()), w.ravel())

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
        assert specfun.overlap_weight_rows([], 3, np.zeros((0, 61))).shape == (0, 61)

    def test_rejects_mismatched_or_bad_rows(self):
        with pytest.raises(ValueError):
            specfun.overlap_weight_rows([1, 2], 3, [0.5])
        with pytest.raises(ValueError):
            specfun.overlap_weight_rows([-1], 3, [0.5])
        with pytest.raises(ValueError):
            specfun.overlap_weight_rows([1], 3, [-0.5])
        with pytest.raises(ValueError):
            specfun.overlap_weight_rows([1, 2], 3, np.ones((3, 61)))
        with pytest.raises(ValueError):
            specfun.overlap_weight_rows([1, 2], 3, np.ones((2, 3, 4)))
        with pytest.raises(ValueError, match="nonnegative"):
            specfun.overlap_weight_rows([1, 2], 3, [[0.5, 1.0], [2.0, -1e-3]])

    @pytest.mark.parametrize("m,x", [(10, 3.0), (40, 25.0), (120, 60.0), (0, 100.0)])
    def test_completeness_sum_matches_term_by_term(self, m, x):
        terms, small, n = [], 0, 0
        while True:
            w = one_row(n, m, x)
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
    # a different smooth, oscillating integrand on every interval; x holds
    # one panel per row, i the interval of each row
    i = i[:, None]
    return np.cos((3.0 + i) * x) * np.exp(-0.1 * i * x) + 0.2 * i


class TestMultiIntervalIntegrate:
    A = np.array([0.0, -1.0, 2.0, 0.5, 3.0, 0.0])
    B = np.array([5.0, 1.0, 2.0, 0.7, 40.0, 1e-3])

    def test_each_interval_as_if_alone(self):
        values, errors = quadrature.integrate(_interval_integrand, self.A, self.B)
        for i, (a, b) in enumerate(zip(self.A, self.B)):
            alone = quadrature.integrate(
                lambda x: _interval_integrand(x[None, :], np.array([i]))[0], a, b
            )
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
            # one row of Kronrod points per panel, one interval per row
            assert x.ndim == 2 and x.shape == (i.size, 61)
            assert np.all(x >= self.A[i, None]) and np.all(x <= self.B[i, None])

    def test_elementwise_integrand_keeps_its_bits(self):
        # values and errors of a 7-round integration, captured when the
        # integrand still got one flat array of points with an index per point
        calls = []

        def integrand(x, i):
            calls.append(x.size)
            i = i[:, None]
            return np.sin((40.0 + 9.0 * i) * x) * np.exp(-0.1 * i * x) + np.sqrt(x * x + 0.2 * i)

        values, errors = quadrature.integrate(integrand, self.A, self.B, rel_tol=1e-12)
        assert [v.hex() for v in values] == [
            "0x1.9069062283dd6p+3", "0x1.67d8bcbcf2308p+0", "0x0.0p+0",
            "0x1.9d1407a4a56bdp-3", "0x1.8e43f3f13483ep+9", "0x1.114655d35a888p-10",
        ]
        assert [e.hex() for e in errors] == [
            "0x1.3e8668844699dp-43", "0x1.4a4e2030931c3p-46", "0x0.0p+0",
            "0x1.42b7a5f8a13c4p-49", "0x1.f7f213618ca8bp-37", "0x1.aafde61a3d758p-57",
        ]
        assert (len(calls), sum(calls)) == (7, 6893)

    def test_lowest_failing_interval_reported_after_the_rest_finish(self):
        # intervals 1 and 3 hold an integrable singularity that 20 panels
        # cannot resolve; the others need several rounds to converge
        singular = {1, 3}
        points = {}

        def integrand(x, i):
            for j in set(i.tolist()):
                points[j] = points.get(j, 0) + int(np.sum(i == j)) * x.shape[1]
            blade = 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-14)
            return np.where(np.isin(i, list(singular))[:, None], blade, np.cos(20.0 * x))

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
            integrand = lambda k_z: rate._integrand_arrays(MUON, state, np.array([n]), k_z[None])[0]
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
        [(1e4, 30, 65, 5_795), (1e4, 300, 636, 400_038)],
    )
    def test_pinned_work_counts(self, monkeypatch, p_perp_sq, m, levels, points):
        row_steps = {(1e4, 30): 127_185, (1e4, 300): 83_731_406}[p_perp_sq, m]
        counted = count_work(monkeypatch)
        result = decay_rate(MUON, magnetized(p_perp_sq, m))
        assert result.n_max_used + 1 == levels
        assert counted == {"points": points, "steps": row_steps}

    def test_absolute_floor_moves_no_level_at_the_default_tolerance(self, monkeypatch):
        # without the floor, level 572 (width 4.4e-323, a subnormal) takes
        # one more split, 122 more points, and ends with the same bits; the
        # work is then that of the per-level relative tolerance alone
        state = magnetized(1e4, 300)
        floored = result_bits(decay_rate(MUON, state))
        counted = count_work(monkeypatch)
        monkeypatch.setattr(rate, "_LEVEL_ABS_FLOOR", 0.0)
        assert result_bits(decay_rate(MUON, state)) == floored
        assert counted == {"points": 400_160, "steps": 83_768_006}
