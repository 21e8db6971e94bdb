import math

import pytest

from magdecay import landau, oracle, quadrature


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
