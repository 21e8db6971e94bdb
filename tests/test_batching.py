"""Batched evaluation: the row kernel, the multi-interval quadrature, and the
level sum built on them give the bits and the work of one-at-a-time
evaluation, whatever the batch."""

import math
import tracemalloc

import numpy as np
import pytest

from magdecay import (
    DecayChannel,
    MagnetizedState,
    RateConvergenceError,
    decay_rate,
    field_for_radial_energy,
    landau,
    mesh,
    quadrature,
    rate,
    specfun,
)
from reference_paths import count_shared_work, gauss_kronrod_panel, row_bounds

M_MU = 105.7
MUON = DecayChannel(m_parent=M_MU)


def magnetized(p_perp_sq, m):
    return MagnetizedState(field=field_for_radial_energy(p_perp_sq, m), level=m)


def result_bits(result):
    levels = tuple((c.n, c.rate.hex(), c.quad_error.hex()) for c in result.level_contributions)
    return result.gamma_total.hex(), result.ratio.hex(), result.quad_error.hex(), levels


def turning_points(m, x):
    """The level (sqrt(m) + sqrt(x))^2 past which the row at x is Miller's."""
    root_sum = math.sqrt(m) + np.sqrt(x)
    return (root_sum * root_sum).astype(np.int64)


def miller_weights(m, x, top):
    """The weights of Miller's part of a row pass: those of each node past
    its turning point, below Miller's start."""
    turn = turning_points(m, x)
    tail = top > turn
    start = specfun._row_levels_array(m, x[tail], turn[tail])
    return int((np.minimum(top[tail], start - 1) - turn[tail]).sum())


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


def mesh_passes(monkeypatch):
    """The edges of every later shared-mesh pass, one array a pass."""
    passes = []
    evaluate = mesh._evaluate_panels

    def capture(m, scale_x, theta, rho, edges, upper):
        passes.append(edges.copy())
        return evaluate(m, scale_x, theta, rho, edges, upper)

    monkeypatch.setattr(mesh, "_evaluate_panels", capture)
    return passes


def coarsen_first_mesh(monkeypatch, zeros, divisor):
    """A first mesh of ``zeros`` zeros a panel and the panel floor over ``divisor``."""
    initial = mesh._initial_panels
    monkeypatch.setattr(mesh, "_ZEROS_PER_PANEL", zeros)
    monkeypatch.setattr(mesh, "_initial_panels", lambda m, levels: initial(m, levels) // divisor)


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
        # the rows in ascending order of min(n, m), the order the kernel
        # steps them in
        n.sort()
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
        n.sort()
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
        n = np.sort(rng.integers(0, 60, size=200))
        x = rng.uniform(0.0, 80.0, size=200)
        whole = specfun.overlap_weight_rows(n, 25, x)
        for size in (1, 3, 64):
            parts = [
                specfun.overlap_weight_rows(n[s : s + size], 25, x[s : s + size])
                for s in range(0, 200, size)
            ]
            assert np.array_equal(np.concatenate(parts), whole)

    def test_each_row_at_its_own_parent_level(self):
        # a parent level per row, as the oracle's closed form hands over its
        # trials, here by min(n, m) ascending, with coincident rows, lowest
        # levels and x = 0 among them: each row, of 61 points or of one, has
        # the bits of its own call
        rng = np.random.default_rng(29)
        n, m = rng.integers(0, 150, size=(2, 60))
        n[:5] = m[:5]
        m[5:10] = 0
        order = np.argsort(np.minimum(n, m), kind="stable")
        n, m = n[order], m[order]
        x = rng.uniform(0.0, 300.0, size=(60, 61)) * rng.choice([1.0, 1e-3], size=(60, 1))
        x[::5, ::7] = 0.0
        w = specfun.overlap_weight_rows(n, m, x)
        for i in range(60):
            alone = specfun.overlap_weight_rows(n[i : i + 1], int(m[i]), x[i : i + 1])
            assert np.array_equal(w[i], alone[0]), (n[i], m[i])
        flat = specfun.overlap_weight_rows(n, m, x[:, 3])
        assert flat.tolist() == [one_row(*point) for point in zip(n.tolist(), m.tolist(), x[:, 3].tolist())]

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
        # a parent level per row: one for each, and nonnegative
        with pytest.raises(ValueError, match="one per level"):
            specfun.overlap_weight_rows([1, 2], [3, 4, 5], [0.5, 0.5])
        with pytest.raises(ValueError, match="nonnegative"):
            specfun.overlap_weight_rows([1, 2], [-1, 3], [0.5, 0.5])
        with pytest.raises(ValueError, match="above cap"):
            specfun.overlap_weight_rows([1, 2], [3, specfun.MAX_OVERLAP_INDEX + 1], [0.5, 0.5])
        # the checks see every row, wherever the sort by min(n, m) puts it
        with pytest.raises(ValueError, match="nonnegative"):
            specfun.overlap_weight_rows([5, 1], [4, -1], [0.5, 0.5])
        with pytest.raises(ValueError, match="above cap"):
            specfun.overlap_weight_rows([5, specfun.MAX_OVERLAP_INDEX + 1], [4, 2], [0.5, 0.5])

    @pytest.mark.parametrize("per_row_m", [False, True], ids=["one-m", "m-per-row"])
    @pytest.mark.parametrize("width", [None, 61], ids=["1-D", "2-D"])
    def test_rows_in_any_order_keep_their_own_bits(self, per_row_m, width):
        # rows in shuffled order, ties in min(n, m) among them, x = 0 and
        # coincident rows included: each row gets the bits of its own
        # one-row call, and the sorted batch the same bits row for row
        rng = np.random.default_rng(41)
        n = rng.integers(0, 120, size=50)
        m = rng.integers(0, 120, size=50) if per_row_m else np.int64(37)
        n[:5] = m[:5] if per_row_m else m
        shape = (50,) if width is None else (50, width)
        x = rng.uniform(0.0, 250.0, size=shape) * rng.choice([1.0, 1e-3], size=shape)
        x[::7] = 0.0
        k = np.minimum(n, m)
        assert (k[1:] < k[:-1]).any()
        w = specfun.overlap_weight_rows(n, m, x)
        assert w.shape == x.shape
        for i in range(50):
            mi = m[i] if per_row_m else m
            alone = specfun.overlap_weight_rows(n[i : i + 1], mi, x[i : i + 1])
            assert np.array_equal(w[i], alone[0]), (n[i], mi)
        order = np.argsort(k, kind="stable")
        ordered = specfun.overlap_weight_rows(n[order], m[order] if per_row_m else m, x[order])
        assert np.array_equal(ordered, w[order])

    @pytest.mark.parametrize("m,x", [(10, 3.0), (40, 25.0), (120, 60.0), (0, 100.0)])
    def test_completeness_sum_matches_term_by_term(self, m, x):
        # the completeness row stops at the level where the kernel's own
        # weights, one point per row, stop, and each of its weights is
        # within the kernel's gated error (TestOverlapAccuracy: 1e-11 over
        # n, m <= 700 and x <= 1400) plus the row's own bound
        terms, small, n = [], 0, 0
        while True:
            w = one_row(n, m, x)
            terms.append(w)
            small = small + 1 if w < 1e-16 else 0
            if small >= 8 and n > m + x:
                break
            n += 1
        row = specfun._overlap_row(m, x)
        assert specfun.overlap_completeness_sum(m, x) == (math.fsum(row[: n + 1]), n)
        gap = np.abs(np.array(row[: n + 1]) - terms)
        assert np.all(gap <= 1e-11 + row_bounds(m, x, row)[: n + 1])


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
                lambda x, _: _interval_integrand(x, np.full(len(x), i)), [a], [b]
            )
            assert ([values[i]], [errors[i]]) == alone
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
            # one row of Kronrod points per panel, one interval per row, the
            # intervals in ascending order as the overlap kernel needs them
            assert x.ndim == 2 and x.shape == (i.size, 61)
            assert np.all(x >= self.A[i, None]) and np.all(x <= self.B[i, None])
            assert np.all(np.diff(i) >= 0)

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

    def test_lowest_failing_interval_reported_after_the_rest_finish(self, monkeypatch):
        # intervals 1 and 3 hold an integrable singularity that 20 panels
        # cannot resolve; the others need several rounds to converge
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 20)
        singular = {1, 3}
        points = {}

        def integrand(x, i):
            for j in set(i.tolist()):
                points[j] = points.get(j, 0) + int(np.sum(i == j)) * x.shape[1]
            blade = 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-14)
            return np.where(np.isin(i, list(singular))[:, None], blade, np.cos(20.0 * x))

        a, b = np.zeros(5), np.ones(5)
        with pytest.raises(RateConvergenceError) as info:
            quadrature.integrate(integrand, a, b, rel_tol=1e-12)
        assert info.value.n == 1
        assert info.value.partial_value > 0.0 and info.value.error_estimate > 0.0
        alone = {"n": 0}

        def smooth(x, _):
            alone["n"] += x.size
            return np.cos(20.0 * x)

        quadrature.integrate(smooth, [0.0], [1.0], rel_tol=1e-12)
        assert points[4] == alone["n"] > 3 * 15


class TestLevelSum:
    def test_level_contribution_positive_and_bounded_error(self):
        level = decay_rate(MUON, magnetized(5e3, 20), rel_tol=1e-9).level_contributions[7]
        assert level.rate > 0.0
        assert level.quad_error <= 1e-9 * level.rate + 1e-25

    def test_convergence_error_carries_partial(self, monkeypatch):
        state = magnetized(3e4, 65)
        # the level sum runs with a one-panel budget for every level
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 1)
        with pytest.raises(RateConvergenceError) as info:
            decay_rate(MUON, state, rel_tol=1e-12)
        # the lowest level that fails on its own is the one reported
        for n in range(info.value.n + 1):
            cut = landau.kz_cutoffs(MUON, state)[n]
            integrand = lambda k_z, _: rate._integrand_arrays(
                MUON, state, np.full(len(k_z), n), k_z
            )
            if n < info.value.n:
                quadrature.integrate(integrand, [0.0], [cut], 1e-12)
            else:
                with pytest.raises(RateConvergenceError):
                    quadrature.integrate(integrand, [0.0], [cut], 1e-12)
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
        # the per-level quadrature in k_z, which (1e4, 300) takes only when
        # the shared mesh is switched off
        row_steps = {(1e4, 30): 127_185, (1e4, 300): 83_731_406}[p_perp_sq, m]
        monkeypatch.setattr(rate, "_SHARED_MESH_WORK", math.inf)
        counted = count_work(monkeypatch)
        result = decay_rate(MUON, magnetized(p_perp_sq, m))
        assert result.n_max_used + 1 == levels
        assert counted == {"points": points, "steps": row_steps}

    def test_absolute_floor_moves_no_level_at_the_default_tolerance(self, monkeypatch):
        # in k_z, without the floor, level 572 (width 4.4e-323, a subnormal)
        # takes one more split, 122 more points, and ends with the same
        # bits; the work is then that of the per-level relative tolerance
        # alone
        state = magnetized(1e4, 300)
        monkeypatch.setattr(rate, "_SHARED_MESH_WORK", math.inf)
        floored = result_bits(decay_rate(MUON, state))
        counted = count_work(monkeypatch)
        monkeypatch.setattr(rate, "_LEVEL_ABS_FLOOR", 0.0)
        assert result_bits(decay_rate(MUON, state)) == floored
        assert counted == {"points": 400_160, "steps": 83_768_006}

    def test_absolute_floor_moves_the_shared_mesh_width_within_its_error(self, monkeypatch):
        # on the shared mesh a level below the absolute floor splits no
        # panel that the relative tolerances leave: with and without the
        # floor every pass has the same panels, and the width moves by less
        # than its own error estimate.  The production first mesh meets
        # these levels' tolerances in one pass, so the test coarsens it: at
        # 24 zeros a panel and a tenth of the panel floor the mesh takes 3
        # passes, from 4 panels to 14, either way
        state = magnetized(1e4, 140)
        coarsen_first_mesh(monkeypatch, 24, 10)
        monkeypatch.setattr(rate, "_SHARED_MESH_WORK", 0)
        passes = mesh_passes(monkeypatch)
        floored = decay_rate(MUON, state)
        floored_panels = [edges.size - 1 for edges in passes]
        passes.clear()
        monkeypatch.setattr(rate, "_LEVEL_ABS_FLOOR", 0.0)
        bare = decay_rate(MUON, state)
        assert len(floored_panels) > 1
        assert [edges.size - 1 for edges in passes] == floored_panels
        assert abs(bare.gamma_total - floored.gamma_total) <= floored.quad_error

    @pytest.mark.parametrize("setup", ["weak-field", "coarse-floor-free"])
    def test_each_pass_bisects_panels_of_the_last(self, monkeypatch, setup):
        # the edges of every pass are strictly increasing, and each later
        # pass keeps the last one's edges and adds midpoints of its panels,
        # at most one a panel: (63, 53) refines in 4 passes at the default
        # tolerance, and so does the floor-free run on the coarsened first
        # mesh of the floor test above
        monkeypatch.setattr(rate, "_SHARED_MESH_WORK", 0)
        if setup == "weak-field":
            state = magnetized(63, 53)
        else:
            state = magnetized(1e4, 140)
            coarsen_first_mesh(monkeypatch, 24, 10)
            monkeypatch.setattr(rate, "_LEVEL_ABS_FLOOR", 0.0)
        passes = mesh_passes(monkeypatch)
        decay_rate(MUON, state, 1e-9)
        assert len(passes) > 1
        for edges in passes:
            assert edges[0] == 0.0 and edges[-1] == 1.0
            assert (np.diff(edges) > 0.0).all()
        for last, edges in zip(passes, passes[1:]):
            kept = np.isin(edges, last)
            assert kept.sum() == last.size
            panel = np.searchsorted(last, edges[~kept]) - 1
            assert (edges[~kept] == 0.5 * (last[panel] + last[panel + 1])).all()

    @pytest.mark.parametrize(
        "p_perp_sq,m,rel_tol,work",
        [
            (1e4, 30, 1e-9, {"rounds": 1, "nodes": 427, "node_levels": 12_139, "panels": 7,
                             "gamma": "0x1.1ec9d4dc982fdp-13", "quad_error": "0x1.633deb4484330p-57"}),
            (1e4, 300, 1e-9, {"rounds": 1, "nodes": 2_562, "node_levels": 577_975, "panels": 42,
                              "gamma": "0x1.1ebb312db691dp-13", "quad_error": "0x1.3fe5b89eefc46p-56"}),
            (1e4, 300, 1e-13, {"rounds": 1, "nodes": 2_562, "node_levels": 577_975, "panels": 42,
                               "gamma": "0x1.1ebb312db691dp-13", "quad_error": "0x1.3fe5b89eefc46p-56"}),
            (63, 53, 1e-9, {"rounds": 4, "nodes": 17_812, "node_levels": 36_284_508, "panels": 76,
                            "gamma": "0x1.899bad844ff1dp-13", "quad_error": "0x1.77ea8d48aded1p-54"}),
            (10, 5, 1e-9, {"rounds": 5, "nodes": 7_015, "node_levels": 9_417_363, "panels": 27,
                           "gamma": "0x1.8a8a2edb9f5d7p-13", "quad_error": "0x1.d79d585d5a4cdp-51"}),
        ],
    )
    def test_pinned_shared_mesh_work(self, monkeypatch, p_perp_sq, m, rel_tol, work):
        # rounds are row passes over every panel of the round's mesh, nodes
        # the nodes they evaluate, node-levels the weights the rows yield,
        # a node's levels up to its top and the row's last nonzero level
        # (levels 0 to 502 of 636 in the first pass at (1e4, 300)), and
        # panels those of the last mesh; (1e4, 30) takes the shared mesh
        # only when asked, and at 1e-13 (1e4, 300) keeps its first mesh of
        # 42 panels, whose every level meets that tolerance too.  At weak
        # p_perp^2 the mesh refines: (63, 53) takes 4 passes, from 70 panels
        # to 76, and (10, 5) takes 5, from 19 to 27.  The width and its
        # error are pinned to the bit
        monkeypatch.setattr(rate, "_SHARED_MESH_WORK", 0)
        counted = count_shared_work(monkeypatch)
        result = decay_rate(MUON, magnetized(p_perp_sq, m), rel_tol)
        bits = {"gamma": result.gamma_total.hex(), "quad_error": result.quad_error.hex()}
        assert {**counted, **bits} == work

    @pytest.mark.parametrize("p_perp_sq,m,rows", [(1e4, 300, [16]), (1e3, 71, [32]), (10, 5, [32] * 5)])
    def test_bits_do_not_depend_on_the_work_rows(self, monkeypatch, p_perp_sq, m, rows):
        # the work budget gives the 2,562 nodes of (1e4, 300) slabs of 16
        # levels, and the 1,525 of (1e3, 71) and the 1,159 to 1,647 of the
        # five passes of (10, 5) slabs of 32; with no budget every slab and
        # seed block has eight rows, and with end-piece batches of 32
        # levels each pass runs as it did before the budget: every level
        # keeps its bits
        state = magnetized(p_perp_sq, m)
        slabs = []
        overlap_rows = mesh.overlap_rows

        def capture(m, x, top):
            slabs.append(0)
            for n0, slab, first in overlap_rows(m, x, top):
                slabs[-1] = max(slabs[-1], slab.shape[0])
                yield n0, slab, first

        monkeypatch.setattr(mesh, "overlap_rows", capture)
        budget = result_bits(decay_rate(MUON, state))
        assert slabs == rows
        slabs.clear()
        monkeypatch.setattr(specfun, "_WORK_BYTES", 0)
        monkeypatch.setattr(mesh, "_PIECE_BATCH", 32)
        assert result_bits(decay_rate(MUON, state)) == budget
        assert slabs == [8] * len(rows)

    def test_row_peak_within_the_work_budget(self, monkeypatch):
        # the one pass at (1e4, 300): 2,562 nodes, for which the budget
        # takes slabs of 16 levels (32 would pass it), and 24,197 weights
        # of Miller's part.  The pass holds the store, 12 B a weight, about
        # 12 work arrays of 8 B a node, and at most three buffers of the
        # slab's size: the slab and the index and weight temporaries of the
        # Miller weights it takes in
        class Captured(Exception):
            pass

        layout = []

        def capture(m, x, top):
            layout.append((m, x, top))
            raise Captured

        monkeypatch.setattr(mesh, "overlap_rows", capture)
        with pytest.raises(Captured):
            decay_rate(MUON, magnetized(1e4, 300))
        m, x, top = layout[0]
        rows = specfun._work_rows(x.size)
        slab = rows * 8 * x.size
        assert (x.size, rows) == (2562, 16)
        assert slab <= specfun._WORK_BYTES < 2 * slab
        tracemalloc.start()
        for _ in specfun.overlap_rows(m, x, top):
            pass
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 12 * 8 * x.size + 3 * slab + 16 * miller_weights(m, x, top)

    def test_row_peak_grows_by_the_slab_and_one_miller_index(self, monkeypatch):
        # the one pass at (1e3, 71): 1,525 nodes, 599 of them past their
        # turning points, slabs of 32 levels.  From slabs of 8 levels to 32
        # the peak may grow by the slab and by one index array of the
        # Miller block (8 B an entry, with two masks of 1 B) that the
        # weights are gathered into; numpy's broadcast buffers fit in the
        # rest of the allowance (0.90 MB at 8 rows and 1.30 MB at 32 here)
        class Captured(Exception):
            pass

        layout = []

        def capture(m, x, top):
            layout.append((m, x, top))
            raise Captured

        monkeypatch.setattr(mesh, "overlap_rows", capture)
        with pytest.raises(Captured):
            decay_rate(MUON, magnetized(1e3, 71))
        m, x, top = layout[0]
        tails = int(np.count_nonzero(top > turning_points(m, x)))
        assert (x.size, tails, specfun._work_rows(x.size)) == (1525, 599, 32)
        peaks = {}
        for budget in (0, specfun._WORK_BYTES):
            monkeypatch.setattr(specfun, "_WORK_BYTES", budget)
            tracemalloc.start()
            for _ in specfun.overlap_rows(m, x, top):
                pass
            peaks[specfun._work_rows(x.size)] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks[32] - peaks[8] <= (32 - 8) * (8 * x.size + 10 * tails)

    def test_miller_store_holds_only_the_weights(self, monkeypatch):
        # the first round's nodes at (1e4, 1000): 8,296, of which 1,500 are
        # past their turning points with 123,686 weights of Miller's part
        class Captured(Exception):
            pass

        layout = []

        def capture(m, x, top):
            layout.append((m, x, top))
            raise Captured

        monkeypatch.setattr(mesh, "overlap_rows", capture)
        with pytest.raises(Captured):
            decay_rate(MUON, magnetized(1e4, 1000))
        m, x, top = layout[0]
        weights = miller_weights(m, x, top)
        turn = turning_points(m, x)
        tail = top > turn
        store = specfun._miller_tail(m, x[tail], np.sqrt(x[tail]), top[tail], turn[tail])[0]
        assert weights <= store[0].size <= 1.01 * weights
        # a pass holds the store, 12 B a weight, and about 18 work arrays of
        # 8 B a node, eight of them the slab of levels it hands over (the
        # work budget's eight rows at this node count), whatever the levels
        # past the nodes' turning points
        assert specfun._work_rows(x.size) == 8
        tracemalloc.start()
        for _ in specfun.overlap_rows(m, x, top):
            pass
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 20 * 8 * x.size + 16 * weights

    def test_shared_mesh_convergence_error_names_the_lowest_failing_level(self, monkeypatch):
        # with a budget of the first mesh's own panels, the lowest level
        # that misses its tolerance on that mesh is reported, with its
        # partial value.  The production first mesh meets every tolerance
        # here, down to its levels' roundoff, so the test coarsens it: 12
        # zeros a panel and half the panel floor meet rel_tol 1e-6 there,
        # and 1e-9 not.  The 1e-6 run keeps the first mesh, so its levels
        # are their values and estimates there; the lowest whose estimate
        # passes max(1e-9 value, absolute floor) is past its own floor too,
        # so it misses
        state = magnetized(1e4, 300)
        coarsen_first_mesh(monkeypatch, 12, 2)
        counted = count_shared_work(monkeypatch)
        first = decay_rate(MUON, state, rel_tol=1e-6)
        assert counted["rounds"] == 1
        floor = rate._LEVEL_ABS_FLOOR * 1e-9 * rate.free_rate_at_rest(MUON) / first.lorentz_gamma
        lowest = next(c for c in first.level_contributions if c.quad_error > max(1e-9 * c.rate, floor))
        monkeypatch.setattr(mesh, "_MAX_PANELS", counted["panels"])
        with pytest.raises(RateConvergenceError) as info:
            decay_rate(MUON, state, rel_tol=1e-9)
        assert info.value.n == lowest.n
        assert info.value.partial_value > 0.0
        assert info.value.error_estimate > 1e-9 * info.value.partial_value
        assert info.value.error_estimate / info.value.partial_value == pytest.approx(
            lowest.quad_error / lowest.rate, rel=1e-14
        )

    def test_level_sum_memory_holds_no_sum_per_level_and_panel(self, monkeypatch):
        # a default run at (1e4, 1000) is one pass over 136 panels (8,296
        # nodes) for 2,118 levels.  Its peak is the row's (the bound of
        # test_miller_store_holds_only_the_weights, which holds the row's
        # slab, eight levels at every node at this node count), up to four
        # temporaries of the slab's size, four arrays of 8 B a node (t,
        # t^2, x and top), the two plain sums and the two-panel weights of a batch of
        # _PIECE_BATCH levels, and under 512 B a level for the level
        # vectors and the result: no sum per level and panel, of which two
        # dense arrays would take 4.4 MiB here
        layout = []
        overlap_rows = mesh.overlap_rows

        def capture(m, x, top):
            layout.append((m, x, top))
            return overlap_rows(m, x, top)

        monkeypatch.setattr(mesh, "overlap_rows", capture)
        tracemalloc.start()
        try:
            result = decay_rate(MUON, magnetized(1e4, 1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m, x, top = layout[0]
        levels, panels = len(result.level_contributions), x.size // quadrature._NODES.size
        assert len(layout) == 1 and (levels, panels) == (2118, 136)
        row = 20 * 8 * x.size + 16 * miller_weights(m, x, top)
        assert specfun._work_rows(x.size) == 8
        batch = 4 * 8 * 8 * x.size + 4 * 8 * x.size
        pieces = mesh._PIECE_BATCH * (2 * panels + 2 * quadrature._NODES.size) * 8
        assert peak <= row + batch + pieces + 512 * levels
