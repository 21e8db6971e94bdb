import math

import numpy as np
import pytest

from magdecay import landau, oracle, quadrature


def loop_wavefunction(n, rho):
    """The one-order oscillator recurrence the batched modes must reproduce."""
    psi_prev = math.pi**-0.25 * np.exp(-rho * rho / 2.0)
    if n > 0:
        psi_cur = math.sqrt(2.0) * rho * psi_prev
        for k in range(1, n):
            psi_prev, psi_cur = psi_cur, (
                math.sqrt(2.0 / (k + 1.0)) * rho * psi_cur
                - math.sqrt(k / (k + 1.0)) * psi_prev
            )
        psi_prev = psi_cur
    return psi_prev


def loop_overlap_sq(params, rel_tol=1e-9):
    """The one-trial-at-a-time oracle: two quadratures per window, doubling."""
    root_field = math.sqrt(params.field)
    q = params.k_x_neutral / root_field
    delta = params.delta_k_y / root_field
    center = -delta / 2.0
    half_width = oracle._WINDOW_PAD + math.sqrt(2.0 * max(params.n, params.m) + 1.0)

    def product(rho):
        return loop_wavefunction(params.m, rho) * loop_wavefunction(params.n, rho + delta)

    def modulus_sq(width):
        lo, hi = center - width, center + width
        re, _ = quadrature.integrate(
            lambda r: np.cos(q * r) * product(r), lo, hi, rel_tol, oracle._ABS_TOL
        )
        im, _ = quadrature.integrate(
            lambda r: -np.sin(q * r) * product(r), lo, hi, rel_tol, oracle._ABS_TOL
        )
        return re * re + im * im

    value = modulus_sq(half_width)
    for _ in range(oracle._MAX_DOUBLINGS):
        half_width *= 2.0
        wider = modulus_sq(half_width)
        converged = abs(wider - value) <= 1e-12 * abs(wider) + 1e-28
        value = wider
        if converged:
            break
    return value / params.field


def loop_verification(trials, seed):
    """verify_closed_form with the oracle run one trial at a time."""
    rng = np.random.default_rng(seed)
    max_err, worst, failures = -1.0, None, []
    for _ in range(trials):
        n = int(rng.integers(0, oracle.VERIFY_INDEX_MAX + 1))
        m = int(rng.integers(0, oracle.VERIFY_INDEX_MAX + 1))
        field = float(10.0 ** rng.uniform(-0.3, 3.3))
        scale = math.sqrt(field)
        k_x = float(rng.uniform(0.3, 3.0) * scale * rng.choice((-1.0, 1.0)))
        d_ky = float(rng.uniform(0.3, 3.0) * scale * rng.choice((-1.0, 1.0)))
        params = oracle.OverlapParams(n=n, m=m, k_x_neutral=k_x, delta_k_y=d_ky, field=field)
        reference = oracle.closed_form_overlap_sq(params)
        rel_err = abs(loop_overlap_sq(params) - reference) / reference
        if rel_err > max_err:
            max_err, worst = rel_err, params
        if rel_err >= oracle.VERIFY_TOLERANCE:
            failures.append((params, rel_err))
    return oracle.OverlapVerification(trials, seed, max_err, worst, tuple(failures))


def random_params(count, seed):
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(count):
        n, m = (int(v) for v in rng.integers(0, oracle.MAX_ORACLE_INDEX + 1, size=2))
        field = float(10.0 ** rng.uniform(-0.3, 3.3))
        k_x, d_ky = rng.uniform(-3.0, 3.0, size=2) * math.sqrt(field)
        drawn.append(oracle.OverlapParams(n, m, float(k_x), float(d_ky), field))
    return drawn


class TestOverlapParams:
    def test_index_cap(self):
        with pytest.raises(ValueError):
            oracle.OverlapParams(n=13, m=0, k_x_neutral=0.0, delta_k_y=0.0, field=1.0)

    def test_field_must_be_positive(self):
        with pytest.raises(ValueError):
            oracle.OverlapParams(n=0, m=0, k_x_neutral=0.0, delta_k_y=0.0, field=0.0)

    def test_displacement(self):
        p = oracle.OverlapParams(n=0, m=0, k_x_neutral=3.0, delta_k_y=4.0, field=2.0)
        assert p.displacement_sq() == pytest.approx(25.0 / 4.0, rel=1e-14)


class TestNumericOverlap:
    def test_coincidence_gives_inverse_field(self):
        for field in (0.8, 3.3, 250.0):
            p = oracle.OverlapParams(n=0, m=0, k_x_neutral=0.0, delta_k_y=0.0, field=field)
            assert oracle.transverse_overlap_sq(p) == pytest.approx(1.0 / field, rel=1e-11)

    def test_orthogonality_of_distinct_levels(self):
        p = oracle.OverlapParams(n=0, m=1, k_x_neutral=0.0, delta_k_y=0.0, field=2.0)
        assert abs(oracle.transverse_overlap_sq(p)) < 1e-16

    @pytest.mark.parametrize(
        "n,m,k_x,d_ky,field",
        [
            (2, 5, 1.1, -0.7, 3.3),
            (0, 8, 2.0, 1.5, 1.0),
            (4, 4, -3.0, 0.4, 12.0),
            (7, 1, 0.9, -2.2, 0.6),
        ],
    )
    def test_matches_closed_form(self, n, m, k_x, d_ky, field):
        p = oracle.OverlapParams(n=n, m=m, k_x_neutral=k_x, delta_k_y=d_ky, field=field)
        numeric = oracle.transverse_overlap_sq(p)
        reference = oracle.closed_form_overlap_sq(p)
        assert numeric == pytest.approx(reference, rel=1e-8)

    def test_invariant_under_joint_sign_flip(self):
        base = oracle.OverlapParams(n=3, m=6, k_x_neutral=1.3, delta_k_y=-0.9, field=2.1)
        flipped = oracle.OverlapParams(n=3, m=6, k_x_neutral=-1.3, delta_k_y=0.9, field=2.1)
        assert oracle.transverse_overlap_sq(base) == pytest.approx(
            oracle.transverse_overlap_sq(flipped), rel=1e-11
        )

    def test_depends_only_on_momentum_magnitude(self):
        a = oracle.OverlapParams(n=2, m=4, k_x_neutral=1.7, delta_k_y=0.6, field=3.0)
        b = oracle.OverlapParams(n=2, m=4, k_x_neutral=0.6, delta_k_y=1.7, field=3.0)
        assert oracle.transverse_overlap_sq(a) == pytest.approx(
            oracle.transverse_overlap_sq(b), rel=1e-9
        )


class TestWavefunctionNormalization:
    @pytest.mark.parametrize("n", range(13))
    def test_unit_norm_up_to_oracle_cap(self, n):
        # a guiding-center-shifted mode, rho = sqrt(field) x + offset, as the
        # oracle's amplitude integrand shifts the daughter mode
        field, offset = 3.7, 0.35
        scale = math.sqrt(field)
        half = (8.0 + math.sqrt(2.0 * n + 1.0)) / scale + 0.2
        center = -offset / scale
        norm, _ = quadrature.integrate(
            lambda x: landau.transverse_wavefunction(n, field, scale * x + offset) ** 2,
            center - half, center + half, rel_tol=1e-11,
        )
        assert norm == pytest.approx(1.0, abs=1e-8)


class TestVerifyClosedForm:
    def test_seeded_run_passes(self):
        report = oracle.verify_closed_form(30, seed=7)
        assert report.passed
        assert report.max_rel_err < 1e-6
        assert report.trials == 30

    def test_determinism(self):
        first = oracle.verify_closed_form(10, seed=42)
        second = oracle.verify_closed_form(10, seed=42)
        assert first == second

    def test_different_seeds_explore_different_points(self):
        a = oracle.verify_closed_form(5, seed=1)
        b = oracle.verify_closed_form(5, seed=2)
        assert a.worst != b.worst

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            oracle.verify_closed_form(0)


class TestBatchedOracle:
    """All trials share one quadrature per window stage, with the bits of the loop."""

    @pytest.mark.parametrize("seed", [0, 42, 20260808])
    def test_report_equals_one_trial_at_a_time(self, seed):
        assert oracle.verify_closed_form(100, seed) == loop_verification(100, seed)

    def test_every_trial_bit_identical_over_several_doublings(self, monkeypatch):
        # a narrow first window makes the trials converge after different
        # numbers of doublings, so later stages run only some of them
        monkeypatch.setattr(oracle, "_WINDOW_PAD", 0.5)
        drawn = random_params(60, seed=3)
        stages = []
        integrate = quadrature.integrate

        def counting(f, a, b, *args):
            stages.append(len(a))
            return integrate(f, a, b, *args)

        monkeypatch.setattr(quadrature, "integrate", counting)
        batched = oracle._overlap_sq_batch(drawn, 1e-9)
        monkeypatch.setattr(quadrature, "integrate", integrate)
        assert [v.hex() for v in batched] == [loop_overlap_sq(p).hex() for p in drawn]
        assert stages[0] == stages[1] == 2 * len(drawn)
        assert len(stages) > 3 and stages == sorted(stages, reverse=True)
        assert stages[-1] < stages[0]

    def test_single_trial_is_the_batch_of_one(self):
        for p in random_params(5, seed=8):
            assert oracle.transverse_overlap_sq(p).hex() == loop_overlap_sq(p).hex()

    def test_per_point_modes_match_each_order_alone(self):
        rng = np.random.default_rng(13)
        rho = rng.uniform(-9.0, 9.0, size=600)
        order = rng.integers(0, oracle.MAX_ORACLE_INDEX + 1, size=600)
        modes = landau.oscillator_modes(order, rho)
        for n in range(oracle.MAX_ORACLE_INDEX + 1):
            alone = landau.transverse_wavefunction(n, 1.0, rho)
            assert np.array_equal(alone, loop_wavefunction(n, rho))
            assert np.array_equal(modes[order == n], alone[order == n])
