import numpy as np
import pytest

from pcqed.bands import (
    CavityModeProfile,
    PlaneWaveBasis,
    compute_bands,
    dipole_doublets,
    find_te_gap,
    mode_volume,
    solve_h1_modes,
)
from pcqed.geometry import (
    SlabWaveguide,
    TriangularLattice,
    effective_index,
    kpath_gamma_m_k,
)

SLAB = SlabWaveguide(400.0, 3.4, 1.0)
EPS_BG = effective_index(SLAB, 1050.0) ** 2


def device_lattice(ratio=0.37):
    return TriangularLattice(300.0, ratio, EPS_BG)


def gap_of(lat):
    """Bulk TE gap of `lat` (cutoff 7, 16 samples per path segment), or None."""
    return find_te_gap(compute_bands(lat, kpath_gamma_m_k(16), PlaneWaveBasis.bulk(lat, 7), 2))


@pytest.fixture(scope="module")
def bulk_gap():
    return gap_of(device_lattice(0.37))


@pytest.fixture(scope="module")
def h1_modes(bulk_gap):
    return solve_h1_modes(device_lattice(0.37), 7, gap=bulk_gap)


def test_modes_found_and_inside_gap(h1_modes, bulk_gap):
    assert len(h1_modes) > 0
    for mode in h1_modes:
        assert bulk_gap.lower_edge < mode.frequency < bulk_gap.upper_edge


def test_exactly_one_dipole_doublet(h1_modes):
    pairs = dipole_doublets(h1_modes)
    assert len(pairs) == 1
    a, b = pairs[0]
    split = abs(b.frequency - a.frequency) / (0.5 * (a.frequency + b.frequency))
    assert split < 1e-3
    assert a.parity < 0 and b.parity < 0
    assert a.localization > 0.8 and b.localization > 0.8


def test_energy_density_normalized(h1_modes):
    for mode in h1_modes:
        assert mode.energy_density.max() == pytest.approx(1.0, rel=1e-12)
        assert mode.energy_density.min() >= 0.0


def test_doublet_wavelength_monotone_in_hole_ratio():
    lams = []
    for ratio in (0.33, 0.36, 0.39, 0.42):
        lat = device_lattice(ratio)
        modes = solve_h1_modes(lat, 7, gap=gap_of(lat))
        pairs = dipole_doublets(modes)
        assert len(pairs) == 1, f"r/a={ratio}"
        a, b = pairs[0]
        lams.append(0.5 * (a.wavelength + b.wavelength))
    # wavelength increases monotonically as r/a decreases
    assert all(x > y for x, y in zip(lams, lams[1:]))


def test_supercell_size_convergence():
    freqs = {}
    for size, cutoff in ((5, 9), (7, 12)):
        lat = device_lattice(0.37)
        basis = PlaneWaveBasis.supercell(lat, size, cutoff)
        modes = solve_h1_modes(lat, size, basis, gap=gap_of(lat))
        (a, b), = dipole_doublets(modes)
        freqs[size] = 0.5 * (a.frequency + b.frequency)
    assert abs(freqs[7] - freqs[5]) / freqs[7] < 0.01


def test_no_gap_means_no_modes():
    lat = TriangularLattice(300.0, 0.0, 9.0)
    assert gap_of(lat) is None
    assert solve_h1_modes(lat, 5, gap=None) == []


def test_supercell_size_validation(bulk_gap):
    with pytest.raises(ValueError):
        solve_h1_modes(device_lattice(), 4, gap=bulk_gap)
    with pytest.raises(ValueError):
        solve_h1_modes(device_lattice(), 3, gap=bulk_gap)


# ---------------------------------------------------------------------------
# Mode volume
# ---------------------------------------------------------------------------

def _uniform_profile(lat, size=5, grid_per_period=64):
    n = size * grid_per_period
    ones = np.ones((n, n))
    eps = np.full((n, n), lat.eps_background)
    return CavityModeProfile(
        frequency=0.29,
        field_grid=ones,
        energy_density=ones,
        eps_grid=eps,
        lattice=lat,
        supercell_size=size,
        grid_per_period=grid_per_period,
        localization=1.0,
        parity=-1.0,
    )


def test_uniform_field_volume_identity():
    lat = device_lattice()
    profile = _uniform_profile(lat)
    wavelength = 1030.0
    v = mode_volume(profile, SLAB, wavelength, vertical_height=400.0, index=3.4)
    area = profile.supercell_area
    assert v == pytest.approx(area * 400.0 / (wavelength / 3.4) ** 3, rel=1e-12)


def test_dipole_mode_volume_in_range(h1_modes):
    (a, b), = dipole_doublets(h1_modes)
    for mode in (a, b):
        v = mode_volume(mode, SLAB, mode.wavelength)
        assert 0.5 <= v <= 3.0


def test_mode_volume_grid_refinement(bulk_gap):
    lat = device_lattice(0.37)
    volumes = []
    for gpp in (64, 128):
        modes = solve_h1_modes(lat, 7, grid_per_period=gpp, gap=bulk_gap)
        (a, _), = dipole_doublets(modes)
        volumes.append(mode_volume(a, SLAB, a.wavelength))
    assert abs(volumes[1] - volumes[0]) / volumes[0] < 0.02


def test_zero_field_profile_rejected():
    lat = device_lattice()
    profile = _uniform_profile(lat)
    dead = CavityModeProfile(
        frequency=profile.frequency,
        field_grid=np.zeros_like(profile.field_grid),
        energy_density=np.zeros_like(profile.energy_density),
        eps_grid=profile.eps_grid,
        lattice=lat,
        supercell_size=profile.supercell_size,
        grid_per_period=profile.grid_per_period,
        localization=0.0,
        parity=1.0,
    )
    with pytest.raises(ValueError):
        mode_volume(dead, SLAB, 1030.0)


def test_mode_volume_region_options(h1_modes):
    (a, _), = dipole_doublets(h1_modes)
    v_diel = mode_volume(a, SLAB, a.wavelength, region="dielectric")
    v_all = mode_volume(a, SLAB, a.wavelength, region="all")
    # the global peak sits in the air holes where the normal field jumps
    assert v_all < v_diel
    with pytest.raises(ValueError):
        mode_volume(a, SLAB, a.wavelength, region="bogus")
