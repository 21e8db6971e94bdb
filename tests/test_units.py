import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from magdecay import units
from reference_paths import classical_acceleration

HBAR_C = 197.3269804
M_MU = 105.7


class TestRadius:
    @pytest.mark.parametrize(
        "p_perp, m, expected",
        [
            # reference-table anchors, quoted to 3 significant figures
            (math.sqrt(1e3), 5, 6.86e-14),
            (math.sqrt(1e4), 30, 1.20e-13),
            (math.sqrt(5e3), 20, 1.14e-13),
            (math.sqrt(3e4), 65, 1.49e-13),
        ],
    )
    def test_table_anchors(self, p_perp, m, expected):
        assert units.radius_si(p_perp, m) == pytest.approx(expected, rel=5e-3)

    def test_one_fermi_by_construction(self):
        assert units.radius_si(HBAR_C, 0) == pytest.approx(1.0e-15, rel=1e-12)

    def test_rejects_nonpositive_momentum(self):
        with pytest.raises(ValueError):
            units.radius_si(0.0, 3)
        with pytest.raises(ValueError):
            units.radius_si(-1.0, 3)

    @given(
        p=st.floats(1e-3, 1e6),
        m=st.integers(0, 500),
    )
    def test_scaling_invariant(self, p, m):
        # radius * p / (2m+1) is the same constant for every input
        value = units.radius_si(p, m) * p / (2 * m + 1)
        assert value == pytest.approx(HBAR_C * 1e-15, rel=1e-12)


class TestAcceleration:
    @pytest.mark.parametrize(
        "p_perp_sq, m, expected",
        [
            (1e3, 5, 1.08e29),
            (3e4, 65, 4.39e29),
            (5e3, 20, 2.43e29),
            (1e4, 30, 3.53e29),
        ],
    )
    def test_table_anchors(self, p_perp_sq, m, expected):
        omega = math.sqrt(M_MU**2 + p_perp_sq)
        value = units.acceleration_si(math.sqrt(p_perp_sq), m, omega)
        assert value == pytest.approx(expected, rel=5e-3)

    def test_rejects_zero_energy(self):
        with pytest.raises(ValueError):
            units.acceleration_si(10.0, 1, 0.0)

    def test_matches_classical_form(self):
        # p^3/((2m+1) omega^2) is the classical |e|B p / (gamma M)^2 with
        # the field pinned to p^2/(2m+1)
        p_perp, m, mass = 70.0, 11, 105.7
        omega = math.sqrt(mass**2 + p_perp**2)
        field = p_perp**2 / (2 * m + 1)
        classical = classical_acceleration(p_perp, field, omega / mass, mass)
        si = units.acceleration_si(p_perp, m, omega)
        assert si == pytest.approx(classical * units.C_M_PER_S / units.HBAR_MEV_S, rel=1e-12)

    @pytest.mark.parametrize("p_perp", [1e102, 5.6e102, 5.7e102, 1e103, 1e150])
    def test_finite_on_both_sides_of_the_cube_overflow(self, p_perp):
        # p_perp^3 leaves the float range between 5.6e102 and 5.7e102 MeV;
        # below, the acceleration keeps the bits of the cube's formula
        m, omega = 3, math.hypot(M_MU, p_perp)
        exact = Fraction(p_perp) ** 3 / ((2 * m + 1) * Fraction(omega) ** 2)
        value = units.acceleration_si(p_perp, m, omega)
        assert value == pytest.approx(float(exact * Fraction(units.C_M_PER_S) / Fraction(units.HBAR_MEV_S)), rel=1e-15)
        if p_perp < sys.float_info.max ** (1.0 / 3.0):
            assert value == p_perp**3 / ((2 * m + 1) * omega * omega) * units.C_M_PER_S / units.HBAR_MEV_S


class TestDeBroglie:
    def test_table_anchor(self):
        assert units.de_broglie_si(math.sqrt(1e3)) == pytest.approx(39.21e-15, rel=5e-3)
        assert units.de_broglie_si(math.sqrt(5e3)) == pytest.approx(17.53e-15, rel=5e-3)

    def test_collapses_to_hbar_c_units(self):
        assert units.de_broglie_si(2 * math.pi * HBAR_C) == pytest.approx(1.0e-15, rel=1e-12)

    @given(p=st.floats(1e-3, 1e6), m=st.integers(0, 300))
    def test_ratio_to_radius(self, p, m):
        ratio = units.de_broglie_si(p) / units.radius_si(p, m)
        assert ratio == pytest.approx(2 * math.pi / (2 * m + 1), rel=1e-12)

    def test_rejects_nonpositive_momentum(self):
        with pytest.raises(ValueError):
            units.de_broglie_si(-2.0)


class TestFieldToGauss:
    def test_electron_critical_anchor(self):
        m_e = units.ELECTRON_MASS_MEV
        assert units.field_to_gauss(m_e**2) == 4.414e13
        assert units.field_to_gauss(0.511**2) == pytest.approx(4.414e13, rel=1e-5)

    def test_zero(self):
        assert units.field_to_gauss(0.0) == 0.0

    def test_percent_of_parent_mass_squared(self):
        # the derived value, not the rounded power of ten sometimes quoted
        assert units.field_to_gauss(1e-2 * M_MU**2) == pytest.approx(1.89e16, rel=5e-3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            units.field_to_gauss(-1e-9)

    @given(x=st.floats(1e-6, 1e9))
    def test_linear(self, x):
        assert units.field_to_gauss(2 * x) == pytest.approx(2 * units.field_to_gauss(x), rel=1e-14)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: units.radius_si(v, 3),
        lambda v: units.acceleration_si(v, 3, 200.0),
        lambda v: units.acceleration_si(10.0, 3, v),
        lambda v: units.de_broglie_si(v),
        lambda v: units.field_to_gauss(v),
    ],
    ids=["radius-p_perp", "acceleration-p_perp", "acceleration-omega", "de_broglie", "gauss"],
)
def test_non_finite_input_rejected(call, value):
    with pytest.raises(ValueError, match="must be finite"):
        call(value)


class TestClassicalKinematics:
    def test_acceleration_direct(self):
        assert classical_acceleration(10.0, 100.0, 1.0, 10.0) == pytest.approx(10.0, rel=1e-15)

    @given(p=st.floats(1e-2, 1e4), m=st.integers(0, 200))
    def test_radius_consistent_with_quantized_field(self, p, m):
        # the SI radius is the classical p_perp/|e|B at the quantized field
        from magdecay import field_for_radial_energy

        classical = p / field_for_radial_energy(p * p, m)
        assert units.radius_si(p, m) == pytest.approx(classical * HBAR_C * 1e-15, rel=1e-12)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            classical_acceleration(10.0, 0.0, 1.0, 10.0)
        with pytest.raises(ValueError):
            classical_acceleration(10.0, 100.0, 1.0, 0.0)
