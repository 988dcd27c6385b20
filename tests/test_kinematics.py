import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from solitonlab import (
    DomainError,
    PhysicalConstants,
    electron_constants,
    guide_width,
    kinematic_state,
)

K = electron_constants()

# CODATA-derived reference values, frozen from direct evaluation
ELECTRON_REST_ENERGY_EV = 510998.9499961642
ELECTRON_CUTOFF_HZ = 1.235589963807414e20
ELECTRON_GUIDE_WIDTH_M = 1.213155119341546e-12
MUON_MASS_KG = 1.8835e-28
MUON_GUIDE_WIDTH_M = 5.867319071686312e-15


def test_hbar_is_h_over_two_pi():
    assert K.hbar == pytest.approx(K.h / (2 * math.pi), rel=1e-15)


def test_rest_energy_in_ev():
    assert K.rest_energy / K.eV == pytest.approx(ELECTRON_REST_ENERGY_EV, rel=1e-9)


def test_cutoff_frequency():
    assert K.cutoff_frequency == pytest.approx(ELECTRON_CUTOFF_HZ, rel=1e-9)
    # cross-check against the guide width: w = c / (2 f0)
    assert K.c / (2 * K.cutoff_frequency) == pytest.approx(guide_width(K.m0), rel=1e-12)


def test_constants_all_positive():
    for name in ("c", "h", "hbar", "m0", "e2_coulomb", "eV"):
        assert getattr(K, name) > 0


def test_constants_are_one_fixed_set():
    with pytest.raises(TypeError):
        PhysicalConstants(e2_coulomb=1.0)
    with pytest.raises(AttributeError):
        K.c = 1.0
    assert PhysicalConstants().m0 == K.m0


class TestGuideWidth:
    def test_electron(self):
        # half the Compton wavelength; the quoted two-digit value 1.21
        # (after exponent correction, see decisions ledger) within 1%
        w = guide_width(K.m0)
        assert w == pytest.approx(ELECTRON_GUIDE_WIDTH_M, rel=1e-12)
        assert w == pytest.approx(1.21e-12, rel=0.01)

    def test_double_mass_halves_width(self):
        assert guide_width(2 * K.m0) == pytest.approx(guide_width(K.m0) / 2, rel=1e-15)

    def test_muon(self):
        assert guide_width(MUON_MASS_KG) == pytest.approx(MUON_GUIDE_WIDTH_M, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1e-30, math.inf, math.nan])
    def test_invalid_mass(self, bad):
        with pytest.raises(DomainError):
            guide_width(bad)

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_inverse_mass_scaling(self, factor):
        assert guide_width(factor * K.m0) * factor == pytest.approx(
            guide_width(K.m0), rel=1e-15)


class TestKinematicState:
    def test_rest_case(self):
        s = kinematic_state(0.0)
        assert s.phi == 0.0
        assert s.f_clock == s.f_wave == s.f0
        assert s.lambda_guide == pytest.approx(2 * s.w, rel=1e-15)
        assert s.l_zigzag == 0.0
        assert s.v_phase is None
        assert s.lambda_phase is None

    def test_v06c(self):
        s = kinematic_state(0.6 * K.c)
        assert s.gamma_recip == pytest.approx(0.8, rel=1e-14)
        assert s.f_clock == pytest.approx(0.8 * s.f0, rel=1e-14)
        assert s.f_wave == pytest.approx(1.25 * s.f0, rel=1e-14)
        assert s.v_phase == pytest.approx(5.0 / 3.0 * K.c, rel=1e-14)
        assert s.lambda_guide == pytest.approx(1.6 * s.w, rel=1e-14)
        assert s.l_zigzag == pytest.approx(1.5 * s.w, rel=1e-14)
        assert s.v * s.v_phase == pytest.approx(K.c**2, rel=1e-14)
        assert s.t_zigzag == pytest.approx(0.8 / s.f0, rel=1e-14)

    def test_frequency_product_is_exact(self):
        s = kinematic_state(0.8 * K.c)
        assert s.f_clock * s.f_wave == pytest.approx(s.f0**2, rel=1e-12)

    def test_lambda_phase_disagrees_with_lambda_guide(self):
        # the two wavelength readings differ by gamma^2/...; both exposed
        s = kinematic_state(0.6 * K.c)
        assert s.lambda_phase == pytest.approx(s.v_phase / s.f_wave, rel=1e-14)
        assert s.lambda_phase != pytest.approx(s.lambda_guide, rel=1e-3)

    @pytest.mark.parametrize("v", [-1.0, K.c, 1.01 * K.c, math.inf])
    def test_domain_errors(self, v):
        with pytest.raises(DomainError):
            kinematic_state(v)

    @given(st.floats(min_value=1e-6, max_value=0.999))
    def test_identities_over_velocity(self, beta):
        s = kinematic_state(beta * K.c)
        assert s.v * s.v_phase == pytest.approx(K.c**2, rel=1e-12)
        assert s.f_clock * s.f_wave == pytest.approx(s.f0**2, rel=1e-12)
        assert s.f_clock <= s.f0 <= s.f_wave
        # round trip: recover v from the bounce angle
        assert K.c * math.sin(s.phi) == pytest.approx(s.v, rel=1e-12)

    def test_frequency_ordering_strict_away_from_rest(self):
        s = kinematic_state(0.3 * K.c)
        assert s.f_clock < s.f0 < s.f_wave

    def test_thousand_velocity_sweep(self):
        for beta in np.linspace(1e-4, 0.999, 1000):
            s = kinematic_state(beta * K.c)
            assert abs(s.v * s.v_phase / K.c**2 - 1.0) <= 1e-12
            assert abs(s.f_clock * s.f_wave / s.f0**2 - 1.0) <= 1e-12
