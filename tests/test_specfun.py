import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magdecay import specfun
from reference_paths import (
    EPS,
    MAX_HERMITE_ORDER,
    ROW_MILLER_ERROR,
    ROW_STEP_ROUNDINGS,
    hermite,
    laguerre_assoc,
    log_factorial_ratio,
    past_row,
    row_bounds,
    row_steps,
    row_weight,
    scalar_overlap,
)


def hermite_explicit(n, r):
    """Closed-form low-order Hermite polynomials (independent reference)."""
    return {
        0: 1.0,
        1: 2 * r,
        2: 4 * r**2 - 2,
        3: 8 * r**3 - 12 * r,
        4: 16 * r**4 - 48 * r**2 + 12,
        5: 32 * r**5 - 160 * r**3 + 120 * r,
    }[n]


def laguerre_explicit(k, d, x):
    """Finite series for L_k^d, evaluated term by term."""
    return math.fsum(
        (-1) ** i * math.comb(k + d, k - i) * x**i / math.factorial(i) for i in range(k + 1)
    )


class TestHermite:
    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("rho", [-2.5, -1.0, 0.0, 0.3, 1.0, 1.7, 2.0])
    def test_matches_explicit_polynomials(self, n, rho):
        assert hermite(n, rho) == pytest.approx(hermite_explicit(n, rho), rel=1e-13, abs=1e-13)

    def test_reference_points(self):
        assert hermite(0, 17.3) == 1.0
        assert hermite(2, 1.0) == pytest.approx(2.0, rel=1e-14)
        assert hermite(3, 2.0) == pytest.approx(40.0, rel=1e-14)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            hermite(MAX_HERMITE_ORDER + 1, 0.5)
        with pytest.raises(ValueError):
            hermite(-1, 0.5)

    def test_vectorized(self):
        rho = np.linspace(-2, 2, 7)
        np.testing.assert_allclose(hermite(2, rho), 4 * rho**2 - 2, rtol=1e-13)


class TestLaguerre:
    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("d", [0, 1, 2, 5])
    @pytest.mark.parametrize("x", [0.0, 0.4, 2.0, 7.5])
    def test_matches_explicit_series(self, k, d, x):
        assert laguerre_assoc(k, d, x) == pytest.approx(
            laguerre_explicit(k, d, x), rel=1e-13, abs=1e-13
        )

    def test_reference_points(self):
        assert laguerre_assoc(0, 4, 11.0) == 1.0
        assert laguerre_assoc(2, 1, 2.0) == pytest.approx(-1.0, rel=1e-14)
        assert laguerre_assoc(1, 0, 0.0) == 1.0

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            laguerre_assoc(2, 1, -0.5)


class TestLogFactorialRatio:
    def test_equal_indices_exactly_zero(self):
        assert log_factorial_ratio(5, 5) == 0.0
        assert log_factorial_ratio(0, 0) == 0.0

    def test_direct_value(self):
        assert log_factorial_ratio(0, 3) == pytest.approx(math.log(1 / 6), rel=1e-12)

    @given(n=st.integers(0, 500), m=st.integers(0, 500))
    def test_symmetric(self, n, m):
        assert log_factorial_ratio(n, m) == log_factorial_ratio(m, n)

    @given(n=st.integers(0, 40), m=st.integers(0, 40))
    def test_matches_factorials(self, n, m):
        exact = math.log(math.factorial(min(n, m)) / math.factorial(max(n, m)))
        assert log_factorial_ratio(n, m) == pytest.approx(exact, rel=1e-12, abs=1e-12)


class TestOverlapWeight:
    def test_coincidence_is_exactly_one(self):
        for n in (0, 1, 7, 150):
            assert row_weight(n, n, 0.0) == 1.0

    def test_distinct_levels_vanish_at_zero(self):
        for n, m in ((0, 1), (3, 9), (40, 41)):
            assert row_weight(n, m, 0.0) == 0.0

    def test_ground_state_value(self):
        assert row_weight(0, 0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_completeness_sum_small(self):
        total = math.fsum(row_weight(n, 2, 3.7) for n in range(201))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 4, 9, 15])
    @pytest.mark.parametrize("m", [0, 2, 7, 15])
    @pytest.mark.parametrize("x", [1e-3, 0.7, 4.0, 17.0, 30.0])
    def test_agrees_with_naive_path(self, n, m, x):
        k, d = min(n, m), abs(n - m)
        naive = math.exp(log_factorial_ratio(n, m) - x + d * math.log(x)) * (
            laguerre_assoc(k, d, x) ** 2
        )
        assert row_weight(n, m, x) == pytest.approx(naive, rel=1e-10, abs=1e-300)

    def test_agrees_with_independent_library_path(self):
        # third, fully independent evaluation route; optional dependency
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(5)
        for _ in range(300):
            n, m = int(rng.integers(0, 61)), int(rng.integers(0, 61))
            x = float(rng.uniform(1e-3, 120.0))
            k, d = min(n, m), abs(n - m)
            lag = special.eval_genlaguerre(k, d, x)
            reference = math.exp(
                special.gammaln(k + 1) - special.gammaln(k + d + 1) - x + d * math.log(x)
            ) * lag * lag
            if reference > 1e-280:
                assert row_weight(n, m, x) == pytest.approx(reference, rel=1e-11)

    def test_bounded_on_large_random_sweep(self):
        # 200 index pairs x 500 arguments = 1e5 samples
        rng = np.random.default_rng(20260808)
        for _ in range(200):
            n, m = (int(v) for v in rng.integers(0, 301, size=2))
            x = rng.uniform(0.0, 500.0, size=500)
            w = row_weight(n, m, x)
            assert np.all(w >= 0.0) and np.all(w <= 1.0)

    @given(n=st.integers(0, 300), m=st.integers(0, 300), x=st.floats(0, 500))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_bit_identical(self, n, m, x):
        assert row_weight(n, m, x) == row_weight(m, n, x)

    def test_scalar_and_vector_paths_agree(self):
        x = np.array([0.0, 0.3, 2.0, 11.0])
        vec = row_weight(6, 2, x)
        assert vec.shape == x.shape
        for xi, wi in zip(x, vec):
            assert row_weight(6, 2, float(xi)) == wi

    def test_domain_and_range_errors(self):
        with pytest.raises(ValueError):
            row_weight(1, 2, -0.1)
        with pytest.raises(ValueError):
            row_weight(specfun.MAX_OVERLAP_INDEX + 1, 0, 1.0)
        with pytest.raises(ValueError):
            row_weight(0, 0, specfun.MAX_OVERLAP_ARGUMENT * 1.01)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_argument_rejected(self, value):
        with pytest.raises(ValueError, match="NaN|above cap"):
            row_weight(1, 1, value)
        with pytest.raises(ValueError, match="NaN"):
            specfun.overlap_weight_rows([0, 1], 1, [1.0, math.nan])
        with pytest.raises(ValueError, match="must be finite"):
            specfun.overlap_completeness_sum(3, value)


class TestCompletenessSum:
    @pytest.mark.parametrize("m", [0, 5, 20])
    # 5e-324: the seed's factors x / k would underflow without the row's lift
    @pytest.mark.parametrize("x", [0.1, 10.0, 100.0, 5e-324])
    def test_sums_to_one(self, m, x):
        total = specfun.overlap_completeness_sum(m, x)
        assert total == pytest.approx(1.0, abs=1e-10)
        assert len(specfun._overlap_row(m, x)) - 1 > m

    def test_truncation_is_past_the_peak(self):
        assert len(specfun._overlap_row(5, 50.0)) - 1 > 55

    @pytest.mark.parametrize("m", [0, 3, 40])
    def test_zero_argument_is_one_level(self, m):
        assert specfun.overlap_completeness_sum(m, 0.0) == 1.0
        assert specfun._overlap_row(m, 0.0) == [0.0] * m + [1.0]

    # the 16 sums verify reports, pinned bit for bit: the row's weights far
    # past the peak are below half an ulp of 1 and move no bit of a sum
    COMPLETENESS_HEX = {
        (0, 0.1): "0x1.0000000000000p+0",
        (0, 1.0): "0x1.0000000000000p+0",
        (0, 10.0): "0x1.fffffffffffe2p-1",
        (0, 100.0): "0x1.fffffffffffc2p-1",
        (5, 0.1): "0x1.ffffffffffff7p-1",
        (5, 1.0): "0x1.ffffffffffffdp-1",
        (5, 10.0): "0x1.0000000000000p+0",
        (5, 100.0): "0x1.fffffffffffe4p-1",
        (20, 0.1): "0x1.ffffffffffff9p-1",
        (20, 1.0): "0x1.0000000000000p+0",
        (20, 10.0): "0x1.ffffffffffff4p-1",
        (20, 100.0): "0x1.0000000000004p+0",
        (50, 0.1): "0x1.fffffffffffdfp-1",
        (50, 1.0): "0x1.ffffffffffffdp-1",
        (50, 10.0): "0x1.0000000000002p+0",
        (50, 100.0): "0x1.ffffffffffff5p-1",
    }

    def test_verify_grid_sums_keep_their_bits(self):
        from magdecay import cli

        grid = [(m, x) for m in cli._COMPLETENESS_LEVELS for x in cli._COMPLETENESS_ARGS]
        assert grid == list(self.COMPLETENESS_HEX)
        got = {(m, x): specfun.overlap_completeness_sum(m, x).hex() for m, x in grid}
        assert got == self.COMPLETENESS_HEX

    def test_never_calls_the_level_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("overlap_weight_rows called")

        monkeypatch.setattr(specfun, "overlap_weight_rows", refuse)
        for m in (0, 5, 20, 50):
            for x in (0.1, 1.0, 10.0, 100.0):
                assert abs(specfun.overlap_completeness_sum(m, x) - 1.0) < 1e-10

    def test_high_level(self):
        # a single row of O(n_max) steps, where the level kernel would take
        # min(n, m) steps per level, about 3e7 in all
        total = specfun.overlap_completeness_sum(5000, 100.0)
        assert abs(total - 1.0) < 1e-10
        assert 5100 < specfun._row_levels(5000, 100.0)[1] - 1 < specfun.MAX_OVERLAP_INDEX

    # (5000, 1000): the upper turning point (sqrt(5000) + sqrt(1000))^2 is
    # about 10,468 levels; (10000, 1400) the largest admissible point; and
    # (10000, 1e-4) a peak at the cap, whose row runs past it to Miller's
    # start
    @pytest.mark.parametrize("m,x", [(5000, 1000.0), (10000, 1400.0), (10000, 1e-4)])
    def test_levels_past_the_index_cap_are_summed(self, m, x):
        total = specfun.overlap_completeness_sum(m, x)
        assert abs(total - 1.0) < 1e-10
        assert specfun._row_levels(m, x)[1] - 1 > specfun.MAX_OVERLAP_INDEX

    @pytest.mark.parametrize(
        "m,x,match",
        [
            (-1, 1.0, "nonnegative"),
            (specfun.MAX_OVERLAP_INDEX + 1, 1.0, "above cap"),
            (3, -1e-3, "nonnegative"),
            (3, math.inf, "finite"),
        ],
        ids=["negative-level", "level-above-cap", "negative-argument", "infinite-argument"],
    )
    def test_domain_errors(self, m, x, match):
        with pytest.raises(ValueError, match=match):
            specfun.overlap_completeness_sum(m, x)

    # past 1400, where exp(-x/2) leaves the normal float range and the level
    # kernel stops, the row's seed keeps its scale in the exponent
    @pytest.mark.parametrize("m,x", [(3, 1414.0), (100, 5000.0), (3000, 2000.0)])
    def test_arguments_past_the_kernel_cap_are_summed(self, m, x):
        total = specfun.overlap_completeness_sum(m, x)
        assert abs(total - 1.0) < 1e-10
        assert specfun._row_levels(m, x)[1] - 1 > m + x


# the points every row identity runs on: D_0 is below the float range at
# (300, 0.1), (2000, 100), (2000, 1000) and (4000, 50) (about 2^-1519 at
# (300, 0.1)), and at (10000, 1400) the row passes the index cap; the
# drawn ones span m <= 1e4 and 1e-4 <= x <= 1400
ROW_POINTS = [(7, 3.3), (300, 0.1), (2000, 100.0), (2000, 1000.0), (4000, 50.0), (10000, 1400.0)]
_draw = np.random.default_rng(20261018)
ROW_POINTS += [
    (int(10.0 ** _draw.uniform(0.0, 4.0)), float(10.0 ** _draw.uniform(-4.0, math.log10(1400.0))))
    for _ in range(8)
]
# generating-function angles theta = 2 pi k / ROW_PHASES, so that the phase
# n theta reduces exactly to the index n k mod ROW_PHASES
ROW_PHASES = 1024


class TestOverlapRow:
    """Exact identities of a whole row of weights at one (m, x).

    Every tolerance is the row's first-order error bound (``row_bounds``)
    summed against the identity's terms, plus a bound on the levels past
    the row (``past_row``) and the roundings of the test's own sums.
    """

    @pytest.mark.parametrize("m,x", ROW_POINTS)
    def test_generating_function(self, m, x):
        # sum_n w e^{i n theta} = e^{i(m theta + x sin theta)} e^{-y/2} L_m(y),
        # y = 4 x sin^2(theta/2): the generating function of w on |z| = 1
        mpmath = pytest.importorskip("mpmath")
        row = specfun._overlap_row(m, x)
        with mpmath.workdps(40):
            turn = [2 * mpmath.pi * j / ROW_PHASES for j in range(ROW_PHASES)]
            cos = [float(mpmath.cos(t)) for t in turn]
            sin = [float(mpmath.sin(t)) for t in turn]
        # the phase table and each product round once, the sums and the
        # right side once more
        tol = math.fsum(row_bounds(m, x, row)) + past_row(np.ones_like, m, x, len(row) - 1) + 4.0 * EPS
        for k in np.random.default_rng(m).integers(1, ROW_PHASES, size=3).tolist():
            re = math.fsum(w * cos[n * k % ROW_PHASES] for n, w in enumerate(row))
            im = math.fsum(w * sin[n * k % ROW_PHASES] for n, w in enumerate(row))
            with mpmath.workdps(40):
                theta = 2 * mpmath.pi * k / ROW_PHASES
                xm = mpmath.mpf(x)
                y = 4 * xm * mpmath.sin(theta / 2) ** 2
                exact = complex(
                    mpmath.expj(m * theta + xm * mpmath.sin(theta))
                    * mpmath.exp(-y / 2) * mpmath.laguerre(m, 0, y)
                )
            assert abs(complex(re, im) - exact) <= tol, (m, x, k, abs(complex(re, im) - exact), tol)

    @pytest.mark.parametrize("m,x", ROW_POINTS)
    def test_mean_and_variance(self, m, x):
        # the first two theta-derivatives of the generating function at 0
        row = specfun._overlap_row(m, x)
        n = np.arange(len(row), dtype=float)
        bounds = row_bounds(m, x, row)
        mean = m + x
        for f, exact in ((lambda v: v, mean), (lambda v: (v - mean) ** 2, x * (2 * m + 1))):
            terms = f(n) * np.array(row)
            # one more rounding in each term, and the fsum's own
            tol = float(np.sum(f(n) * bounds)) + past_row(f, m, x, len(row) - 1)
            tol += EPS * float(np.sum(terms)) + EPS * exact
            assert abs(math.fsum(terms.tolist()) - exact) <= tol, (m, x, exact)

    @pytest.mark.parametrize("m,x", [(300, 0.1), (2000, 100.0), (4000, 50.0), (0, 1400.0),
                                     (10000, 1400.0)])
    def test_tiny_weights_against_mpmath(self, m, x):
        # outside the oscillation band D has no node, and a weight's error
        # is relative: 8 S EPS of itself, plus Miller's error and, for a
        # subnormal weight, half its spacing; picked are the three least
        # nonzero weights below the band and the first, middle and last of
        # the tail weights above it
        mpmath = pytest.importorskip("mpmath")
        row = specfun._overlap_row(m, x)
        below, above = (math.sqrt(m) - math.sqrt(x)) ** 2, (math.sqrt(m) + math.sqrt(x)) ** 2
        low = [n for n, w in enumerate(row) if 0.0 < w < 1e-300 and n < below][:3]
        tail = [n for n, w in enumerate(row) if 1e-35 < w < 1e-16 and n > above]
        assert len(low) == 3 and len(tail) >= 3
        tail = [tail[0], tail[len(tail) // 2], tail[-1]]
        relative = ROW_STEP_ROUNDINGS * row_steps(m, x) * EPS
        for n in low + tail:
            exact = mpmath_overlap(n, m, x, mpmath)
            tol = relative * exact + ROW_MILLER_ERROR + 2.0**-1074
            assert abs(row[n] - exact) <= tol, (n, row[n], exact)

    @pytest.mark.parametrize("m", [1000, 2000, 4000])
    def test_small_argument_near_the_diagonal(self, m):
        # 1e-4 <= x <= 0.1 and |n - m| <= 1, where w is near 1 and the
        # level kernel loses up to 2.6e-10
        mpmath = pytest.importorskip("mpmath")
        for x in np.geomspace(1e-4, 0.1, 7).tolist():
            row = specfun._overlap_row(m, x)
            bounds = row_bounds(m, x, row)
            for n in (m - 1, m, m + 1):
                exact = mpmath_overlap(n, m, x, mpmath)
                assert abs(row[n] - exact) <= bounds[n], (n, m, x)


def mpmath_overlap(n, m, x, mpmath):
    """w(n, m, x) from loggamma and laguerre at 40 digits."""
    k, d = min(n, m), abs(n - m)
    if x == 0.0:
        return 1.0 if d == 0 else 0.0
    with mpmath.workdps(40):
        xm = mpmath.mpf(x)
        log_ratio = mpmath.loggamma(k + 1) - mpmath.loggamma(k + d + 1)
        return float(mpmath.exp(log_ratio - xm + d * mpmath.log(xm)) * mpmath.laguerre(k, d, xm) ** 2)


class TestOverlapAccuracy:
    """The row kernel against a 40-digit reference over the production range."""

    @staticmethod
    def sample():
        # n, m <= 700 and x <= 1400: a third with x anywhere, a third inside
        # the oscillation band of the pair, a third at small x and small
        # |n - m|, where the recurrence loses the most digits
        rng = np.random.default_rng(20261018)
        size = 100
        n = rng.integers(0, 701, 3 * size)
        m = rng.integers(0, 701, 3 * size)
        x = rng.uniform(0.0, 1400.0, 3 * size)
        band = slice(size, 2 * size)
        inner = (np.sqrt(n[band]) - np.sqrt(m[band])) ** 2
        outer = np.minimum((np.sqrt(n[band]) + np.sqrt(m[band])) ** 2 + 1.0, 1400.0)
        x[band] = inner + (outer - inner) * rng.uniform(0.0, 1.0, size)
        m[2 * size :] = np.clip(n[2 * size :] + rng.integers(-4, 5, size), 0, 700)
        x[2 * size :] = 10.0 ** rng.uniform(-4.0, 1.0, size)
        return n.tolist(), m.tolist(), x.tolist()

    def test_absolute_error_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        n, m, x = self.sample()
        reference = np.array([mpmath_overlap(*args, mpmath) for args in zip(n, m, x)])
        kernel = np.array([row_weight(*args) for args in zip(n, m, x)])
        normalized = np.array([scalar_overlap(*args) for args in zip(n, m, x)])
        kernel_err = np.abs(kernel - reference).max()
        normalized_err = np.abs(normalized - reference).max()
        assert kernel_err <= 1e-11
        # no less accurate than the recurrence normalized at every step
        assert kernel_err <= 2.0 * normalized_err


def array_rows(m, x, top):
    """{(node, level): weight} of one overlap_rows call, whose slabs hold
    level n at the leading nodes whose top is at least n, with a weight of
    0 at every node before the slab's first."""
    out = {}
    x, top = np.asarray(x), np.asarray(top)
    rows = specfun._work_rows(x.size)
    for n0, slab, first in specfun.overlap_rows(m, x, top):
        assert n0 % rows == 0 and 0 < slab.shape[0] <= rows
        assert slab.shape[1] == x.size and not slab[:, :first].any()
        for n, w in enumerate(slab.tolist(), start=n0):
            out.update(((i, n), v) for i, v in enumerate(w[: np.count_nonzero(top >= n)]))
    return out


def slab_sizes(m, x, top):
    """The first level and the number of levels of each slab of one call."""
    return [(n0, slab.shape[0]) for n0, slab, _ in specfun.overlap_rows(m, np.asarray(x), np.asarray(top))]


def node_weights(rows, i, top):
    """{level: weight} of node i up to its top in an array_rows result, 0
    at the levels past the call's last."""
    return {n: rows.get((i, n), 0.0) for n in range(int(top) + 1)}


# verify's completeness grid, the row identities' points, and arguments up
# to 7000, past the level kernel's cap
ARRAY_POINTS = [(m, x) for m in (0, 5, 20, 50) for x in (0.1, 1.0, 10.0, 100.0)]
ARRAY_POINTS += ROW_POINTS + [(10000, 7000.0), (0, 5000.0), (3000, 2000.0), (5800, 1000.0)]


class TestArrayRow:
    """The row across levels at one m over an array of nodes."""

    def test_bits_of_the_scalar_row(self):
        # every point as a node of its own that runs to the last level of
        # its scalar row, past its turning point: every weight has the
        # scalar row's bits
        for m, x in ARRAY_POINTS:
            row = specfun._overlap_row(m, x)
            got = array_rows(m, np.array([x]), np.array([len(row) - 1]))
            assert got == {(0, n): w for n, w in enumerate(row)}, (m, x)

    def test_zero_argument_is_the_least_subnormal(self):
        # the one exception to the scalar row's bits: at x = 0 the scalar
        # row is exactly 1 at n = m and 0 elsewhere, and the array row
        # takes x as 5e-324
        assert specfun._overlap_row(5, 0.0) == [0.0] * 5 + [1.0]
        got = array_rows(5, np.array([0.0]), np.array([7]))
        assert got[0, 5] == 0.9999999999999996
        assert got[0, 4] == 2.5e-323 and got[0, 6] == 3e-323
        assert got == array_rows(5, np.array([5e-324]), np.array([7]))

    @pytest.mark.parametrize(
        "nodes,rows", [(1, 32), (2048, 32), (2049, 16), (2562, 16), (4096, 16), (4097, 8), (8296, 8)]
    )
    def test_work_rows_by_node_count(self, nodes, rows):
        # the largest of 32 and 16 rows of doubles at every node within the
        # 512 KiB budget, else 8
        assert specfun._work_rows(nodes) == rows

    @pytest.mark.parametrize("top", [0, 6, 7, 8, 14, 15, 30, 31, 32, 62, 63])
    def test_level_counts_at_slab_edges(self, top):
        # 1 to 16 levels inside the first slab, and 31, 32, 33, 63 and 64
        # levels, on both sides of its edges, of a node that never passes
        # its turning point (80 at (20, 20)): whole slabs of 32, the work
        # budget's rows at one node, then the rest
        levels = top + 1
        assert specfun._work_rows(1) == 32 and specfun._row_levels(20, 20.0)[0] == 80
        assert slab_sizes(20, [20.0], [top]) == [(n0, min(32, levels - n0)) for n0 in range(0, levels, 32)]
        row = specfun._overlap_row(20, 20.0)
        assert array_rows(20, np.array([20.0]), np.array([top])) == {(0, n): row[n] for n in range(levels)}

    @pytest.mark.parametrize("top", [24, 30, 31, 32, 63])
    def test_miller_level_counts_at_slab_edges(self, top):
        # 25, 31, 32, 33 and 64 levels (slabs of 32) of a node past its
        # turning point, 16, and short of Miller's start, 101: every weight
        # is the scalar row's
        row = specfun._overlap_row(0, 16.5)
        assert specfun._row_levels(0, 16.5) == (16, 101)
        assert array_rows(0, np.array([16.5]), np.array([top])) == {(0, n): row[n] for n in range(top + 1)}
        assert sum(rows for _, rows in slab_sizes(0, [16.5], [top])) == top + 1

    def test_turning_points_on_the_first_and_last_level_of_a_slab(self):
        # at m = 0 the turning point is int(x): in slabs of 32, the work
        # budget's rows at one or two nodes, 32 is the first level of the
        # second slab and 63 its last, so one node's Miller part is scaled
        # in from the slab's second level and the other's from the next
        # slab; alone, each runs to the end of its scalar row, and together
        # up to a top they share
        args = [32.5, 63.5]
        assert specfun._work_rows(2) == 32
        assert [specfun._row_levels(0, x)[0] for x in args] == [32, 63]
        for x in args:
            row = specfun._overlap_row(0, x)
            assert array_rows(0, np.array([x]), np.array([len(row) - 1])) == dict(
                ((0, n), w) for n, w in enumerate(row)
            )
        got = array_rows(0, np.array(args), np.array([100, 100]))
        for i, x in enumerate(args):
            row = specfun._overlap_row(0, x)
            assert node_weights(got, i, 100) == {n: row[n] for n in range(101)}

    def test_miller_start_before_and_past_the_top(self):
        # the first node runs past its Miller start, 101, where its weights
        # are 0; the second stops at 40, short of its start, 120; each has
        # the weights of its own call, and the scalar row's up to its last
        # level (100 and 119)
        x, top = np.array([16.5, 23.5]), np.array([110, 40])
        starts = [specfun._row_levels(0, v)[1] for v in x]
        assert starts == [101, 120]
        got = array_rows(0, x, top)
        for i in range(2):
            alone = node_weights(array_rows(0, x[i : i + 1], top[i : i + 1]), 0, top[i])
            assert node_weights(got, i, top[i]) == alone
            row = specfun._overlap_row(0, float(x[i]))
            assert all(alone[n] == row[n] for n in range(min(top[i], len(row) - 1) + 1))
            assert all(alone[n] == 0.0 for n in range(starts[i], top[i] + 1))
        assert max(n for _, n in got) == 100

    def test_zero_argument_node_among_others(self):
        # x = 0 is the least subnormal: w is the Kronecker delta at n = m to
        # within the roundings of the m-factor seed, and the node past its
        # turning point (m) keeps its own bits beside the others, one past
        # its turning point (15) and one short of it (29)
        alone = node_weights(array_rows(5, np.array([0.0]), np.array([40])), 0, 40)
        assert abs(alone[5] - 1.0) <= 8 * 6 * EPS
        assert all(w < 1e-300 for n, w in alone.items() if n != 5)
        x, top = np.array([0.0, 3.0, 10.0]), np.array([40, 30, 20])
        got = array_rows(5, x, top)
        for i in range(3):
            one = node_weights(array_rows(5, x[i : i + 1], top[i : i + 1]), 0, top[i])
            assert node_weights(got, i, top[i]) == one
        assert node_weights(got, 0, 40) == alone

    def test_rejects_a_layout_whose_window_would_skip_nodes(self):
        x = np.array([10.0, 10.0, 10.0])
        # tops that increase along the nodes
        with pytest.raises(ValueError, match="must not increase"):
            list(specfun.overlap_rows(0, x, np.array([1, 5, 1])))
        # nodes past their turning points (int(x) at m = 0) out of turning
        # point order, or after a node that is not past its own
        for args, top in (([20.0, 10.0], [30, 30]), ([20.0, 5.0], [15, 10])):
            with pytest.raises(ValueError, match="turning point ascending"):
                list(specfun.overlap_rows(0, np.array(args), np.array(top)))
        # tops descending, none past its turning point
        assert len(array_rows(0, x, np.array([5, 5, 1]))) == 6 + 6 + 2

    @pytest.mark.parametrize("m", [0, 7, 300])
    def test_ordered_nodes_stream_slices(self, m):
        # ascending x and non-increasing tops, as the level sum lays out its
        # nodes, the first ones past their turning points: each node's
        # levels are those of its own one-node call, 0 past Miller's start
        x = np.geomspace(1e-6, 800.0, 40)
        top = np.linspace(m + 400, 0, 40).astype(int)
        got = array_rows(m, x, top)
        past = 0
        for i in range(40):
            alone = node_weights(array_rows(m, x[i : i + 1], top[i : i + 1]), 0, top[i])
            assert node_weights(got, i, top[i]) == alone
            start = specfun._row_levels(m, float(x[i]))[1]
            past += top[i] >= start
            assert all(alone[n] == 0.0 for n in range(start, top[i] + 1))
        # some nodes run past Miller's start, where their weights are 0
        assert past

    @pytest.mark.parametrize("m", [0, 7, 300])
    def test_row_stops_after_its_last_nonzero_weight(self, m):
        # the layout above: the row yields no level past the largest of the
        # tops of the nodes not past their turning points and, at those past
        # them, of min(top, start - 1); there some node has a nonzero
        # weight, and each weight up to a node's last scalar level has the
        # bits of _overlap_row
        x = np.geomspace(1e-6, 800.0, 40)
        top = np.linspace(m + 400, 0, 40).astype(int)
        got = array_rows(m, x, top)
        last = max(n for _, n in got)
        stops = []
        for i in range(40):
            row = specfun._overlap_row(m, float(x[i]))
            start = specfun._row_levels(m, float(x[i]))[1]
            stops.append(min(int(top[i]), start - 1))
            for n in range(min(int(top[i]), last, len(row) - 1) + 1):
                assert got[i, n] == row[n], (i, n)
        assert last == max(stops) < top[0]
        assert any(w != 0.0 for (_, n), w in got.items() if n == last)

    @pytest.mark.parametrize("m,x", [(10000, 7000.0), (0, 5000.0), (3000, 2000.0)])
    def test_mean_and_variance_past_the_kernel_cap(self, m, x):
        # the array row has the scalar row's bits (above), so the scalar
        # row's identities hold for it at these arguments too
        row = specfun._overlap_row(m, x)
        n = np.arange(len(row), dtype=float)
        bounds = row_bounds(m, x, row)
        mean = m + x
        for f, exact in ((lambda v: v, mean), (lambda v: (v - mean) ** 2, x * (2 * m + 1))):
            terms = f(n) * np.array(row)
            tol = float(np.sum(f(n) * bounds)) + past_row(f, m, x, len(row) - 1)
            tol += EPS * float(np.sum(terms)) + EPS * exact
            assert abs(math.fsum(terms.tolist()) - exact) <= tol, (m, x, exact)

    @pytest.mark.parametrize(
        "n,m,x",
        [
            # the level kernel's seed underflows here and it returns 0
            (5800, 2000, 1000.0),
            (2500, 2000, 1000.0),
            (250, 300, 0.5),
            # exp(-x/2) past the float range: the seed splits off 2^-k
            (1390, 0, 1390.0),
            (1200, 0, 1390.0),
            (700, 50, 1500.0),
        ],
    )
    def test_weights_against_mpmath(self, n, m, x):
        mpmath = pytest.importorskip("mpmath")
        w = array_rows(m, np.array([x]), np.array([n]))[0, n]
        exact = mpmath_overlap(n, m, x, mpmath)
        start = specfun._row_levels(m, x)[1]
        steps = m + max(start, n) + 1
        tol = ROW_STEP_ROUNDINGS * steps * EPS * exact + specfun.ROW_ABS_ERROR + 2.0**-1074
        assert exact > 0.0
        assert abs(w - exact) <= tol, (w, exact)

    def test_weight_past_the_seed_underflow(self):
        w = array_rows(2000, np.array([1000.0]), np.array([5800]))[0, 5800]
        assert w == pytest.approx(7.83e-4, rel=1e-3)
        # the level kernel, kept for the per-level sum, still loses it
        assert row_weight(5800, 2000, 1000.0) == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="1-D"):
            list(specfun.overlap_rows(3, np.ones((2, 2)), np.ones((2, 2), dtype=int)))
        with pytest.raises(ValueError, match="finite"):
            list(specfun.overlap_rows(3, np.array([math.nan]), np.array([1])))
        with pytest.raises(ValueError, match="indices"):
            list(specfun.overlap_rows(-1, np.array([1.0]), np.array([1])))
        # one parent level for all nodes, an integer
        with pytest.raises(TypeError):
            list(specfun.overlap_rows(np.array([3, 4]), np.ones(2), np.ones(2, dtype=int)))
        assert list(specfun.overlap_rows(3, np.empty(0), np.empty(0, dtype=int))) == []


class TestMillerStart:
    """Miller's backward run starts where the row's own decay bound past the
    turning point falls below 1e-40."""

    @pytest.mark.parametrize(
        "m,x,steps,before",
        [(50, 100.0, 475, 523), (0, 100.0, 270, 279), (300, 50.0, 1008, 1055)],
    )
    def test_steps(self, m, x, steps, before):
        # before: the generating-function bound's start
        assert row_steps(m, x) == steps < before

    @pytest.mark.parametrize("m,x", [(50, 100.0), (0, 100.0), (300, 50.0), (7, 3.3), (2000, 100.0)])
    def test_weight_at_the_start_is_below_the_threshold(self, m, x):
        mpmath = pytest.importorskip("mpmath")
        start = specfun._row_levels(m, x)[1]
        assert mpmath_overlap(start, m, x, mpmath) < 1e-40

    @pytest.mark.parametrize("m,x", ARRAY_POINTS + [(0, 0.0), (7, 0.0), (300, 0.0)])
    def test_both_rows_end_at_the_start(self, m, x):
        # the scalar row's last weight is at the level before Miller's
        # start (at x = 0, where the row is the Kronecker delta, the start
        # is m + 1), and a node whose top is past its start has no nonzero
        # weight from there on
        start = specfun._row_levels(m, x)[1]
        assert len(specfun._overlap_row(m, x)) == start
        if x > 0.0:
            got = array_rows(m, np.array([x]), np.array([start + 40]))
            assert got and all(w == 0.0 for (_, n), w in got.items() if n >= start)
