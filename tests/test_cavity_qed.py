import numpy as np
import pytest

from pcqed.cavity import (
    SPEED_OF_LIGHT_NM_PER_PS,
    CavityMode,
    coupling_efficiency,
    enhanced_lifetime,
    lifetime_ratio_multimode,
    mode_linewidth,
    photon_lifetime,
    purcell_factor,
)

M2 = CavityMode(lambda_c=1031.5, q_factor=1950.0, v_mode=1.5)


def single_mode_ratio(fp, field_ratio, lambda_qd, alpha, mode=M2):
    """Closed form of tau_free/tau for one mode: (fp/3) * field_ratio * L + alpha."""
    dl = mode.lambda_c / mode.q_factor
    lorentzian = dl**2 / (dl**2 + 4.0 * (mode.lambda_c - lambda_qd) ** 2)
    return fp / 3.0 * field_ratio * lorentzian + alpha


def test_purcell_factor_values():
    assert purcell_factor(2000.0, 1.5) == pytest.approx(101.32, abs=0.01)
    assert purcell_factor(4.0 * np.pi**2 / 3.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert purcell_factor(1950.0, 1.5) == pytest.approx(98.79, abs=0.01)


def test_purcell_factor_scaling():
    base = purcell_factor(1000.0, 1.0)
    assert purcell_factor(3000.0, 1.0) == pytest.approx(3.0 * base, rel=1e-12)
    assert purcell_factor(1000.0, 2.0) == pytest.approx(base / 2.0, rel=1e-12)


def test_purcell_factor_validation():
    with pytest.raises(ValueError):
        purcell_factor(0.0, 1.0)
    with pytest.raises(ValueError):
        purcell_factor(1000.0, -1.0)


def test_mode_linewidth_values():
    assert mode_linewidth(1031.5, 1950.0) == pytest.approx(0.529, abs=1e-3)
    assert mode_linewidth(1000.0, 1000.0) == pytest.approx(1.0, rel=1e-12)
    assert mode_linewidth(1025.4, 1500.0) == pytest.approx(0.6836, abs=1e-4)
    assert M2.linewidth == mode_linewidth(M2.lambda_c, M2.q_factor)


def test_photon_lifetime_values():
    assert photon_lifetime(1030.0, 2700.0) == pytest.approx(1.476, abs=2e-3)
    assert 1.0 < photon_lifetime(1030.0, 2700.0) < 2.0  # same order as ~2 ps
    assert photon_lifetime(1031.5, 1950.0) == pytest.approx(1.068, abs=2e-3)


def test_photon_lifetime_dimensional_identity():
    # Q = 2*pi and lambda = c * 1 ps gives exactly 1 ps.
    lam = SPEED_OF_LIGHT_NM_PER_PS * 1.0
    assert photon_lifetime(lam, 2.0 * np.pi) == pytest.approx(1.0, rel=1e-12)


def test_lifetime_ratio_on_resonance():
    ratio = lifetime_ratio_multimode(M2.lambda_c, [M2], [56.0], 0.47)
    assert ratio == pytest.approx(56.0 / 3.0 + 0.47, rel=1e-12)
    assert ratio == pytest.approx(19.1, abs=0.05)
    assert 15.0 <= ratio <= 23.0  # inside 19 +- 4


def test_lifetime_ratio_half_width_identity():
    half = M2.linewidth / 2.0
    peak = lifetime_ratio_multimode(M2.lambda_c, [M2], [56.0], 0.0)
    value = lifetime_ratio_multimode(M2.lambda_c + half, [M2], [56.0], 0.0)
    assert value == pytest.approx(peak / 2.0, rel=1e-12)


def test_lifetime_ratio_uncoupled_emitter():
    for fp in (0.0, 10.0, 500.0):
        ratio = lifetime_ratio_multimode(1010.0, [M2], [fp], 0.47, field_ratios=[0.0])
        assert ratio == pytest.approx(0.47, rel=1e-12)


def test_lifetime_ratio_monotone_in_detuning():
    detunings = np.linspace(0.0, 20.0, 81)
    values = lifetime_ratio_multimode(M2.lambda_c + detunings, [M2], [56.0], 0.47)
    assert all(a >= b for a, b in zip(values, values[1:]))
    far = lifetime_ratio_multimode(M2.lambda_c + 500.0, [M2], [56.0], 0.47)
    assert far == pytest.approx(0.47, abs=1e-5)


def test_coupling_efficiency_values():
    assert coupling_efficiency(0.15, 1.8) == pytest.approx(0.9167, abs=1e-4)
    assert coupling_efficiency(0.050, 1.8) == pytest.approx(0.9722, abs=1e-4)
    assert coupling_efficiency(1.8, 1.8) == 0.0


def test_coupling_efficiency_scale_invariance():
    for scale in (1e-3, 1.0, 1e3):
        assert coupling_efficiency(0.15 * scale, 1.8 * scale) == pytest.approx(
            coupling_efficiency(0.15, 1.8), rel=1e-12
        )


def test_coupling_efficiency_ordering_enforced():
    with pytest.raises(ValueError):
        coupling_efficiency(2.0, 1.0)
    with pytest.raises(ValueError):
        coupling_efficiency(0.0, 1.0)


def test_enhanced_lifetime_values():
    assert enhanced_lifetime(840.0, 19.0) == pytest.approx(44.2, abs=0.05)
    assert enhanced_lifetime(840.0, 1.0) == 840.0
    assert enhanced_lifetime(840.0, 5.6) == pytest.approx(150.0, abs=0.1)
    with pytest.raises(ValueError):
        enhanced_lifetime(840.0, 0.0)


def test_fitted_enhancement_below_ideal_purcell():
    # An emitter with field_ratio <= 1 cannot exceed the ideal enhancement.
    ideal = purcell_factor(2000.0, 1.5)
    fitted = 56.0
    assert fitted <= ideal


def test_multimode_reduces_to_single_mode():
    lam = np.linspace(1028.0, 1035.0, 71)
    single = np.array([single_mode_ratio(56.0, 1.0, x, 0.47) for x in lam])
    multi = lifetime_ratio_multimode(lam, [M2], [56.0], 0.47)
    np.testing.assert_allclose(multi, single, rtol=1e-12)


def test_multimode_two_modes():
    m1 = CavityMode(lambda_c=1025.4, q_factor=1500.0)
    value = lifetime_ratio_multimode(1025.4, [m1, M2], [40.0, 56.0], 0.47)
    lor_m2 = M2.linewidth**2 / (M2.linewidth**2 + 4.0 * (M2.lambda_c - 1025.4) ** 2)
    expected = 40.0 / 3.0 + 56.0 / 3.0 * lor_m2 + 0.47
    assert value == pytest.approx(expected, rel=1e-12)


def test_domain_type_validation():
    with pytest.raises(ValueError):
        CavityMode(lambda_c=-1.0, q_factor=100.0)
    with pytest.raises(ValueError):
        CavityMode(lambda_c=1000.0, q_factor=0.5)
