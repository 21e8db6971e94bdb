import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magdecay import specfun
from reference_paths import (
    MAX_HERMITE_ORDER,
    hermite,
    laguerre_assoc,
    log_factorial_ratio,
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
            assert specfun.overlap_weight(n, n, 0.0) == 1.0

    def test_distinct_levels_vanish_at_zero(self):
        for n, m in ((0, 1), (3, 9), (40, 41)):
            assert specfun.overlap_weight(n, m, 0.0) == 0.0

    def test_ground_state_value(self):
        assert specfun.overlap_weight(0, 0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_completeness_sum_small(self):
        total = math.fsum(specfun.overlap_weight(n, 2, 3.7) for n in range(201))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 4, 9, 15])
    @pytest.mark.parametrize("m", [0, 2, 7, 15])
    @pytest.mark.parametrize("x", [1e-3, 0.7, 4.0, 17.0, 30.0])
    def test_agrees_with_naive_path(self, n, m, x):
        k, d = min(n, m), abs(n - m)
        naive = math.exp(log_factorial_ratio(n, m) - x + d * math.log(x)) * (
            laguerre_assoc(k, d, x) ** 2
        )
        assert specfun.overlap_weight(n, m, x) == pytest.approx(naive, rel=1e-10, abs=1e-300)

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
                assert specfun.overlap_weight(n, m, x) == pytest.approx(reference, rel=1e-11)

    def test_bounded_on_large_random_sweep(self):
        # 200 index pairs x 500 arguments = 1e5 samples
        rng = np.random.default_rng(20260808)
        for _ in range(200):
            n, m = (int(v) for v in rng.integers(0, 301, size=2))
            x = rng.uniform(0.0, 500.0, size=500)
            w = specfun.overlap_weight(n, m, x)
            assert np.all(w >= 0.0) and np.all(w <= 1.0)

    @given(n=st.integers(0, 300), m=st.integers(0, 300), x=st.floats(0, 500))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_bit_identical(self, n, m, x):
        assert specfun.overlap_weight(n, m, x) == specfun.overlap_weight(m, n, x)

    def test_scalar_and_vector_paths_agree(self):
        x = np.array([0.0, 0.3, 2.0, 11.0])
        vec = specfun.overlap_weight(6, 2, x)
        assert vec.shape == x.shape
        for xi, wi in zip(x, vec):
            assert specfun.overlap_weight(6, 2, float(xi)) == wi

    def test_domain_and_range_errors(self):
        with pytest.raises(ValueError):
            specfun.overlap_weight(1, 2, -0.1)
        with pytest.raises(ValueError):
            specfun.overlap_weight(specfun.MAX_OVERLAP_INDEX + 1, 0, 1.0)
        with pytest.raises(ValueError):
            specfun.overlap_weight(0, 0, specfun.MAX_OVERLAP_ARGUMENT * 1.01)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_argument_rejected(self, value):
        with pytest.raises(ValueError, match="NaN|above cap"):
            specfun.overlap_weight(1, 1, value)
        with pytest.raises(ValueError, match="NaN"):
            specfun.overlap_weight_rows([0, 1], 1, [1.0, math.nan])
        with pytest.raises(ValueError, match="must be finite"):
            specfun.overlap_completeness_sum(3, value)


class TestCompletenessSum:
    @pytest.mark.parametrize("m", [0, 5, 20])
    @pytest.mark.parametrize("x", [0.1, 10.0, 100.0])
    def test_sums_to_one(self, m, x):
        total, n_used = specfun.overlap_completeness_sum(m, x)
        assert total == pytest.approx(1.0, abs=1e-10)
        assert n_used > m

    def test_truncation_is_past_the_peak(self):
        _, n_used = specfun.overlap_completeness_sum(5, 50.0)
        assert n_used > 55


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
        kernel = np.array([specfun.overlap_weight(*args) for args in zip(n, m, x)])
        normalized = np.array([scalar_overlap(*args) for args in zip(n, m, x)])
        kernel_err = np.abs(kernel - reference).max()
        normalized_err = np.abs(normalized - reference).max()
        assert kernel_err <= 1e-11
        # no less accurate than the recurrence normalized at every step
        assert kernel_err <= 2.0 * normalized_err
