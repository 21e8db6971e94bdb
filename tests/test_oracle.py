import math

import numpy as np
import pytest

from magdecay import landau, oracle, quadrature
from reference_paths import transverse_wavefunction


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
    """The one-trial-at-a-time oracle: the starting window, then only the two
    strips each doubling adds, the real and the imaginary part of every
    piece one quadrature each, and the amplitude the fsum of its pieces."""
    root_field = math.sqrt(params.field)
    q = params.k_x_neutral / root_field
    delta = params.delta_k_y / root_field
    center = -delta / 2.0
    half_width = oracle._WINDOW_PAD + math.sqrt(2.0 * max(params.n, params.m) + 1.0)

    def product(rho):
        return loop_wavefunction(params.m, rho) * loop_wavefunction(params.n, rho + delta)

    def part(f, lo, hi):
        (value,), _ = quadrature.integrate(
            lambda r, _: f(r) * product(r), [lo], [hi], rel_tol, oracle._ABS_TOL
        )
        return value

    re_parts, im_parts = [], []

    def add_piece(lo, hi):
        re_parts.append(part(lambda r: np.cos(q * r), lo, hi))
        im_parts.append(part(lambda r: -np.sin(q * r), lo, hi))
        re, im = math.fsum(re_parts), math.fsum(im_parts)
        return re * re + im * im

    value = add_piece(center - half_width, center + half_width)
    for _ in range(oracle._MAX_DOUBLINGS):
        add_piece(center - 2.0 * half_width, center - half_width)
        wider = add_piece(center + half_width, center + 2.0 * half_width)
        half_width *= 2.0
        converged = abs(wider - value) <= 1e-12 * abs(wider) + 1e-28
        value = wider
        if converged:
            break
    return value / params.field


def choice_draws(trials, seed):
    """The trials verify_closed_form draws, each sign taken by rng.choice."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(trials):
        n = int(rng.integers(0, oracle.VERIFY_INDEX_MAX + 1))
        m = int(rng.integers(0, oracle.VERIFY_INDEX_MAX + 1))
        field = float(10.0 ** rng.uniform(-0.3, 3.3))
        scale = math.sqrt(field)
        k_x = float(rng.uniform(0.3, 3.0) * scale * rng.choice((-1.0, 1.0)))
        d_ky = float(rng.uniform(0.3, 3.0) * scale * rng.choice((-1.0, 1.0)))
        draws.append(oracle.OverlapParams(n=n, m=m, k_x_neutral=k_x, delta_k_y=d_ky, field=field))
    return draws


def loop_verification(trials, seed):
    """verify_closed_form with the oracle run one trial at a time."""
    max_err, worst, failures = -1.0, None, []
    for params in choice_draws(trials, seed):
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["k_x_neutral", "delta_k_y", "field"])
    def test_non_finite_input_rejected(self, name, value):
        kwargs = {"n": 1, "m": 1, "k_x_neutral": 0.5, "delta_k_y": 0.5, "field": 1.0, name: value}
        with pytest.raises(ValueError, match="must be finite"):
            oracle.OverlapParams(**kwargs)

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
        (norm,), _ = quadrature.integrate(
            lambda x, _: transverse_wavefunction(n, field, scale * x + offset) ** 2,
            [center - half], [center + half], rel_tol=1e-11,
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

    @pytest.mark.parametrize("seed", range(8))
    def test_sign_draws_keep_the_choice_stream(self, monkeypatch, seed):
        # the quadrature and the closed forms are stubbed out: only the draws count
        drawn = []

        def record_draws(draws, rel_tol):
            drawn.extend(draws)
            return [1.0] * len(draws)

        monkeypatch.setattr(oracle, "_overlap_sq_batch", record_draws)
        monkeypatch.setattr(oracle, "_closed_form_batch", lambda draws: [1.0] * len(draws))
        oracle.verify_closed_form(100, seed)
        assert drawn == choice_draws(100, seed)


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
        # the starting windows take two intervals per trial, every doubling
        # four: the two parts of its left and of its right strip
        assert stages[0] == 2 * len(drawn) and stages[1] == 4 * len(drawn)
        assert len(stages) > 3 and stages[1:] == sorted(stages[1:], reverse=True)
        assert all(size % 4 == 0 for size in stages[1:])
        assert stages[-1] < stages[1]

    def test_single_trial_is_the_batch_of_one(self):
        for p in random_params(5, seed=8):
            assert oracle.transverse_overlap_sq(p).hex() == loop_overlap_sq(p).hex()

    def test_batched_closed_forms_keep_the_bits_of_each_call(self):
        drawn = random_params(200, seed=5)
        batched = oracle._closed_form_batch(drawn)
        assert [v.hex() for v in batched] == [
            oracle.closed_form_overlap_sq(p).hex() for p in drawn
        ]

    @pytest.mark.parametrize("pad", [8.0, 0.5])
    def test_strips_add_up_to_one_quadrature_of_the_final_window(self, monkeypatch, pad):
        # with a pad of 0.5 the trials run several doublings, so their
        # amplitudes are sums of many strips
        monkeypatch.setattr(oracle, "_WINDOW_PAD", pad)
        rel_tol, eps = 1e-12, float(np.finfo(float).eps)
        # every quadrature's error is within max(rel_tol |v|, _ABS_TOL,
        # 50 eps mass), mass = int |f|, and the |f| of each part is at most
        # |psi_m psi_n|, whose integral over any window is at most one
        # (Cauchy-Schwarz on unit modes); so the pieces of one part, which
        # tile the window, err by at most rel_tol + 50 eps + pieces *
        # _ABS_TOL together, the one fresh quadrature by rel_tol + 50 eps +
        # _ABS_TOL, and fsum rounds once more
        pieces = 1 + 2 * oracle._MAX_DOUBLINGS
        part_tol = 2.0 * (rel_tol + 50.0 * eps) + (pieces + 1) * oracle._ABS_TOL + eps
        integrate = quadrature.integrate
        for p in random_params(40, seed=17):
            ends = []

            def recording(f, a, b, *args):
                ends.extend(zip(a, b))
                return integrate(f, a, b, *args)

            monkeypatch.setattr(quadrature, "integrate", recording)
            assembled = oracle.transverse_overlap_sq(p, rel_tol) * p.field
            monkeypatch.setattr(quadrature, "integrate", integrate)
            lo, hi = min(a for a, _ in ends), max(b for _, b in ends)

            delta = p.delta_k_y / math.sqrt(p.field)
            q = p.k_x_neutral / math.sqrt(p.field)

            def product(r):
                return loop_wavefunction(p.m, r) * loop_wavefunction(p.n, r + delta)

            (re, im), _ = quadrature.integrate(
                lambda r, i: np.where(i[:, None] == 0, np.cos(q * r), -np.sin(q * r)) * product(r),
                [lo, lo], [hi, hi], rel_tol, oracle._ABS_TOL,
            )
            fresh = re * re + im * im
            bound = 2.0 * part_tol * (abs(re) + abs(im) + part_tol) + 4.0 * eps * fresh
            assert abs(assembled - fresh) <= bound, (p, assembled, fresh)

    def test_per_point_modes_match_each_order_alone(self):
        rng = np.random.default_rng(13)
        rho = rng.uniform(-9.0, 9.0, size=600)
        order = rng.integers(0, oracle.MAX_ORACLE_INDEX + 1, size=600)
        modes = landau.oscillator_modes(order, rho)
        for n in range(oracle.MAX_ORACLE_INDEX + 1):
            alone = transverse_wavefunction(n, 1.0, rho)
            assert np.array_equal(alone, loop_wavefunction(n, rho))
            assert np.array_equal(modes[order == n], alone[order == n])
