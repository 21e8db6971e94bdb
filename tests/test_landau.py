import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magdecay import landau, quadrature, units
from reference_paths import hermite, transverse_wavefunction

M_MU = 105.7


def muon_like(**overrides):
    kwargs = {"m_parent": M_MU, "m_charged": 0.0, "coupling": 1.0}
    kwargs.update(overrides)
    return landau.DecayChannel(**kwargs)


class TestChannelAndState:
    def test_closed_channel_rejected(self):
        with pytest.raises(ValueError):
            landau.DecayChannel(m_parent=1.0, m_charged=1.0)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            landau.DecayChannel(m_parent=1.0, m_charged=-0.1)

    def test_nonpositive_coupling_rejected(self):
        with pytest.raises(ValueError):
            landau.DecayChannel(m_parent=1.0, coupling=0.0)

    def test_parent_mass_squaring_below_the_normal_range_rejected(self):
        with pytest.raises(ValueError, match="squares below the normal float range"):
            landau.DecayChannel(m_parent=1e-200)
        # the square of 1.5e-154 is 2.25e-308, just inside the normal range
        landau.DecayChannel(m_parent=1.5e-154)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"m_parent": 1e200}, "parent mass 1e+200 MeV"),
            ({"m_parent": 1e200, "m_charged": 1e160}, "parent mass 1e+200 MeV"),
            ({"m_parent": M_MU, "coupling": 1e200}, "coupling 1e+200 MeV"),
        ],
        ids=["parent", "both-masses", "coupling"],
    )
    def test_square_past_the_float_range_named(self, kwargs, name):
        # raised at construction, naming the value, not later as an errno
        # tuple from the first power that overflows
        with pytest.raises(OverflowError) as info:
            landau.DecayChannel(**kwargs)
        assert str(info.value) == f"{name} squares past the float range"
        # the square of 1.3e154 is 1.69e308, just inside the float range
        landau.DecayChannel(m_parent=1.3e154, coupling=1.3e154)

    def test_state_invariants(self):
        with pytest.raises(ValueError):
            landau.MagnetizedState(field=0.0, level=0)
        with pytest.raises(ValueError):
            landau.MagnetizedState(field=1.0, level=-1)

    def test_state_energy_and_radial(self):
        state = landau.MagnetizedState(field=landau.field_for_radial_energy(3e4, 65), level=65)
        assert state.energy(M_MU) == pytest.approx(math.sqrt(M_MU**2 + 3e4), rel=1e-14)
        assert state.field == pytest.approx(3e4 / 131, rel=1e-14)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: landau.DecayChannel(m_parent=v),
        lambda v: landau.DecayChannel(m_parent=M_MU, m_charged=v),
        lambda v: landau.DecayChannel(m_parent=M_MU, coupling=v),
        lambda v: landau.MagnetizedState(field=v, level=3),
        lambda v: landau.MagnetizedState(field=1.0, level=1).energy(v),
        lambda v: landau.MagnetizedState(field=v, level=1).energy(M_MU),
        lambda v: landau.field_for_radial_energy(v, 3),
        lambda v: landau.radial_energy_for_radius(v, 2),
    ],
    ids=[
        "m_parent", "m_charged", "coupling", "state-field", "energy-mass", "energy-field",
        "field_for_radial_energy", "radial_energy_for_radius",
    ],
)
def test_non_finite_input_rejected(call, value):
    with pytest.raises(ValueError, match="must be finite"):
        call(value)


def energy(mass, level, field):
    return landau.MagnetizedState(field=field, level=level).energy(mass)


class TestLandauEnergy:
    def test_reference_points(self):
        assert energy(M_MU, 0, 100.0) == pytest.approx(106.17198312172566, rel=1e-12)
        assert energy(M_MU, 0, 100.0) == pytest.approx(106.172, rel=1e-5)
        assert energy(M_MU, 65, 30000.0 / 131.0) == pytest.approx(202.9100539648048, rel=1e-12)
        assert energy(M_MU, 65, 30000.0 / 131.0) == pytest.approx(202.91, rel=1e-5)

    def test_massless_lowest_level(self):
        for field in (0.5, 100.0, 3.3e4):
            assert energy(0.0, 0, field) == pytest.approx(math.sqrt(field), rel=1e-15)

    def test_rejects_nonpositive_field(self):
        with pytest.raises(ValueError):
            energy(M_MU, 0, 0.0)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="mass must be nonnegative, got -1.0"):
            energy(-1.0, 0, 1.0)

    @given(
        mass=st.floats(0.0, 500.0),
        level=st.integers(0, 200),
        field=st.floats(1e-3, 1e5),
    )
    @settings(max_examples=150, deadline=None)
    def test_strictly_increasing_in_each_argument(self, mass, level, field):
        base = energy(mass, level, field)
        assert energy(mass + 1.0, level, field) > base
        assert energy(mass, level + 1, field) > base
        assert energy(mass, level, field * 1.5) > base


class TestDaughterCutoffs:
    def test_reference_level_count(self):
        channel = muon_like()
        state = landau.MagnetizedState(field=3e4 / 131, level=65)
        assert len(landau.kz_cutoffs(channel, state)) - 1 == 89

    def test_critical_field_leaves_one_level(self):
        channel = muon_like()
        state = landau.MagnetizedState(field=M_MU**2, level=0)
        assert len(landau.kz_cutoffs(channel, state)) == 1

    def test_exactly_saturated_level_is_dropped(self):
        # at field = M^2/2 and m = 0 the bound is exactly 1; the level with
        # zero phase space is excluded, deterministically
        channel = landau.DecayChannel(m_parent=2.0)
        state = landau.MagnetizedState(field=2.0, level=0)
        assert len(landau.kz_cutoffs(channel, state)) == 1
        # the muon at fields M^2/(2j), where the bound M^2/(2 field) + m is
        # the integer j + m, and up to 4 ulp either side of them: no level
        # at or past the bound is kept, and the last one kept is open
        channel = muon_like()
        for j in (1, 7, 100):
            for m in (0, 5, 300):
                field = M_MU**2 / (2 * j)
                fields = [field]
                for direction in (0.0, math.inf):
                    f = field
                    for _ in range(4):
                        f = math.nextafter(f, direction)
                        fields.append(f)
                for f in fields:
                    cuts = landau.kz_cutoffs(channel, landau.MagnetizedState(field=f, level=m))
                    assert len(cuts) - 1 < M_MU**2 / (2 * f) + m, (j, m, f)
                    assert cuts[-1] > 0.0, (j, m, f)

    def test_level_count_checked_against_the_overlap_cap(self):
        # at m = 0 the bound is M^2/(2 field): n_max = 10,000 is the last
        # count the overlap weights accept, and 10,001 is refused up front
        channel = muon_like()
        at_cap = landau.MagnetizedState(field=M_MU**2 / (2 * 10_000.5), level=0)
        assert len(landau.kz_cutoffs(channel, at_cap)) == 10_001
        past_cap = landau.MagnetizedState(field=M_MU**2 / (2 * 10_001.5), level=0)
        with pytest.raises(ValueError, match="10002 daughter levels open .* cap 10000"):
            landau.kz_cutoffs(channel, past_cap)

    def test_kz_reference_values(self):
        channel = muon_like()
        state = landau.MagnetizedState(field=3e4 / 131, level=65)
        cut = landau.kz_cutoffs(channel, state)[0]
        assert cut == pytest.approx(100.89071873568656, rel=1e-12)
        assert cut == pytest.approx(100.89, rel=1e-4)

        lll = landau.MagnetizedState(field=100.0, level=0)
        expected = M_MU**2 / (2.0 * math.sqrt(M_MU**2 + 100.0))
        cut = landau.kz_cutoffs(channel, lll)[0]
        assert cut == pytest.approx(expected, rel=1e-14)
        assert cut == pytest.approx(52.61, rel=1e-4)

    def test_kz_strictly_decreasing_in_level(self):
        channel = muon_like()
        state = landau.MagnetizedState(field=3e4 / 131, level=65)
        cuts = landau.kz_cutoffs(channel, state)
        assert np.all(cuts[:-1] > cuts[1:])
        assert cuts[-1] >= 0.0


class TestLevelEdges:
    @pytest.mark.parametrize(
        "field,level",
        [(3e4 / 131, 65), (1e4 / 601, 300), (100.0, 0), (M_MU**2, 0), (1e16, 0), (1e18, 3)],
    )
    def test_kz_cutoff_is_field_sqrt_xy_over_omega(self, field, level):
        # K_n = field sqrt(X_n Y_n) / omega ties the x form to the k_z one,
        # at ordinary and at strong fields
        channel = muon_like()
        state = landau.MagnetizedState(field=field, level=level)
        root_x, root_y = landau.level_edges(channel, state)
        cuts = landau.kz_cutoffs(channel, state)
        omega = state.energy(M_MU)
        assert root_x.size == cuts.size
        np.testing.assert_allclose(field * root_x * root_y / omega, cuts, rtol=1e-14, atol=0.0)

    def test_edges_order_and_massive_daughter(self):
        channel = landau.DecayChannel(m_parent=M_MU, m_charged=30.0)
        state = landau.MagnetizedState(field=1e4 / 61, level=30)
        root_x, root_y = landau.level_edges(channel, state)
        assert np.all(root_x[:-1] > root_x[1:]) and root_x[-1] > 0.0
        assert np.all(root_y > root_x)
        np.testing.assert_allclose(
            state.field * root_x * root_y / state.energy(M_MU),
            landau.kz_cutoffs(channel, state),
            rtol=1e-14,
        )

    def test_same_levels_as_the_cutoffs(self):
        # the zero-phase-space drop and the index cap are shared
        channel = landau.DecayChannel(m_parent=2.0)
        saturated = landau.MagnetizedState(field=2.0, level=0)
        assert landau.level_edges(channel, saturated)[0].size == 1
        past_cap = landau.MagnetizedState(field=M_MU**2 / (2 * 10_001.5), level=0)
        with pytest.raises(ValueError, match="10002 daughter levels open"):
            landau.level_edges(muon_like(), past_cap)


class TestDiscreteRelations:
    def test_field_for_radial_energy(self):
        assert landau.field_for_radial_energy(3e4, 65) == pytest.approx(229.00763358778626, rel=1e-14)
        assert landau.field_for_radial_energy(7.7, 0) == 7.7

    @given(p_sq=st.floats(1e-3, 1e8), m=st.integers(0, 1000))
    def test_round_trip(self, p_sq, m):
        assert (2 * m + 1) * landau.field_for_radial_energy(p_sq, m) == pytest.approx(
            p_sq, rel=1e-14
        )

    def test_radius_relations(self):
        assert landau.radial_energy_for_radius(0.1, 0) == pytest.approx(10.0, rel=1e-14)
        assert landau.radial_energy_for_radius(0.1, 10) == pytest.approx(210.0, rel=1e-14)

    @given(radius=st.floats(1e-4, 10.0), m=st.integers(0, 500))
    def test_radius_relation_consistency(self, radius, m):
        # the scan-field chain: p_perp from the radius, then the field from
        # p_perp, must give the radius lock |e|B R^2 = 2m + 1
        p = landau.radial_energy_for_radius(radius, m)
        field = landau.field_for_radial_energy(p * p, m)
        assert field * radius * radius == pytest.approx(2 * m + 1, rel=1e-12)

    @given(n=st.integers(0, 300), field=st.floats(1e-3, 1e6))
    def test_orbit_radius_matches_classical(self, n, field):
        # the SI orbit radius of level n is sqrt((2n + 1)/|e|B); the classical
        # p_perp/|e|B is checked in test_units
        p_perp = math.sqrt((2 * n + 1) * field)
        assert units.radius_si(p_perp, n) == pytest.approx(
            math.sqrt((2 * n + 1) / field) * units.HBAR_C_MEV_FM * 1e-15, rel=1e-12
        )

    @given(
        mass=st.floats(0.1, 300.0),
        n=st.integers(0, 100),
        radius=st.floats(1e-3, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_quantum_classical_energy_consistency(self, mass, n, radius):
        # classical sqrt(M^2 + (field * R)^2) against the Landau energy when
        # the field takes its radius-locked discrete value
        p = landau.radial_energy_for_radius(radius, n)
        field = landau.field_for_radial_energy(p * p, n)
        classical = math.sqrt(mass**2 + (field * radius) ** 2)
        assert classical == pytest.approx(energy(mass, n, field), rel=1e-12)


class TestTransverseWavefunction:
    def test_ground_state_peak(self):
        for field in (0.7, 100.0):
            assert transverse_wavefunction(0, field, 0.0) == pytest.approx(
                (field / math.pi) ** 0.25, rel=1e-14
            )

    @pytest.mark.parametrize("n", range(6))
    def test_parity(self, n):
        rho = 1.234
        left = transverse_wavefunction(n, 3.0, -rho)
        right = transverse_wavefunction(n, 3.0, rho)
        assert left == pytest.approx((-1) ** n * right, rel=1e-13)

    @pytest.mark.parametrize("n", range(11))
    def test_unit_norm_in_x(self, n):
        field = 2.7
        scale = math.sqrt(field)
        half = (8.0 + math.sqrt(2 * n + 1.0)) / scale
        (norm,), _ = quadrature.integrate(
            lambda x, _: transverse_wavefunction(n, field, scale * x) ** 2,
            [-half], [half], rel_tol=1e-11,
        )
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_matches_direct_formula_small_order(self):
        field, n, rho = 1.9, 4, 0.83
        direct = (
            math.sqrt(field) / (math.sqrt(math.pi) * 2**n * math.factorial(n))
        ) ** 0.5 * math.exp(-rho * rho / 2) * hermite(n, rho)
        assert transverse_wavefunction(n, field, rho) == pytest.approx(direct, rel=1e-12)

    def test_order_cap_propagates(self):
        with pytest.raises(ValueError):
            transverse_wavefunction(500, 1.0, 0.0)
