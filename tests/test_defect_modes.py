import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

from pcqed import bands
from pcqed.bands import (
    BandGap,
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
    real_basis,
)

SLAB = SlabWaveguide(400.0, 3.4, 1.0)
EPS_BG = effective_index(SLAB, 1050.0) ** 2


def device_lattice(ratio=0.37):
    return TriangularLattice(300.0, ratio, EPS_BG)


def gap_of(lat):
    """Bulk TE gap of `lat` (cutoff 7, 16 samples per path segment), or None."""
    return find_te_gap(compute_bands(lat, 16, PlaneWaveBasis.bulk(lat, 7), 2))


@pytest.fixture(scope="module")
def bulk_gap():
    return gap_of(device_lattice(0.37))


@pytest.fixture(scope="module")
def paper_scenario():
    """The paper scenario's config and the bulk gap of each of its hole ratios."""
    from pcqed import cli

    cfg = cli.parse_config(cli.REPRODUCE_CONFIG)
    gaps = {ra: find_te_gap(cli._bulk_bands(cfg, ra)) for ra in cfg.crystal.hole_ratio_values}
    return cfg, gaps


@pytest.fixture(scope="module")
def h1_modes(bulk_gap):
    lat = device_lattice(0.37)
    return solve_h1_modes(lat, PlaneWaveBasis.supercell(lat, 7, 12), gap=bulk_gap,
                          grid_per_period=64)


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
    kept = [mode for mode in h1_modes if mode.energy_density is not None]
    assert len(kept) >= 2
    for mode in kept:
        assert mode.energy_density.max() == pytest.approx(1.0, rel=1e-12)
        assert mode.energy_density.min() >= 0.0


def test_doublet_wavelength_monotone_in_hole_ratio():
    lams = []
    for ratio in (0.33, 0.36, 0.39, 0.42):
        lat = device_lattice(ratio)
        modes = solve_h1_modes(lat, PlaneWaveBasis.supercell(lat, 7, 12), gap=gap_of(lat),
                               grid_per_period=64)
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
        modes = solve_h1_modes(lat, basis, gap=gap_of(lat), grid_per_period=64)
        (a, b), = dipole_doublets(modes)
        freqs[size] = 0.5 * (a.frequency + b.frequency)
    assert abs(freqs[7] - freqs[5]) / freqs[7] < 0.01


def test_no_gap_means_no_modes():
    lat = TriangularLattice(300.0, 0.0, 9.0)
    assert gap_of(lat) is None
    assert solve_h1_modes(lat, PlaneWaveBasis.supercell(lat, 5, 12), gap=None,
                          grid_per_period=64) == []


def test_supercell_size_validation(bulk_gap):
    lat = device_lattice()
    for size in (4, 3, 1):  # 1: a bulk basis
        with pytest.raises(ValueError):
            solve_h1_modes(lat, PlaneWaveBasis.supercell(lat, size, 12), gap=bulk_gap,
                           grid_per_period=64)


@pytest.mark.parametrize("nudge", [1e-15, 3e-15, 1e-14, 1e-13])
def test_partner_fields_do_not_depend_on_the_gap_bits(bulk_gap, nudge):
    # An eigensolver returns any rotation of a degenerate pair; a last-bit
    # change of the gap edge used to rotate the partners' fields by O(1).
    lat = device_lattice(0.37)
    basis = PlaneWaveBasis.supercell(lat, 5, 9)
    ref = solve_h1_modes(lat, basis, gap=bulk_gap, grid_per_period=64)
    nudged = BandGap(bulk_gap.lower_edge * (1.0 + nudge), bulk_gap.upper_edge)
    got = solve_h1_modes(lat, basis, gap=nudged, grid_per_period=64)
    assert len(got) == len(ref) and dipole_doublets(ref)
    for a, b in zip(ref, got):
        assert a.parity == b.parity
        assert (b.frequency, b.localization, mode_volume(b, SLAB)) == pytest.approx(
            (a.frequency, a.localization, mode_volume(a, SLAB)), rel=1e-10)
        assert (a.energy_density is None) == (b.energy_density is None)
        if a.energy_density is not None:
            assert np.abs(a.energy_density - b.energy_density).max() <= 1e-10


# ---------------------------------------------------------------------------
# Field reconstruction kernels against their whole-grid forms
# ---------------------------------------------------------------------------

def _whole_grid(lat, S, ngrid):
    """Fractional (f1, f2) and Cartesian (X, Y) coordinates of every grid point."""
    a1, a2 = real_basis(lat)
    u = (np.arange(ngrid) + 0.5) / ngrid
    U, V = np.meshgrid(u, u, indexing="ij")
    f1, f2 = U * S, V * S
    return f1, f2, f1 * a1[0] + f2 * a2[0], f1 * a1[1] + f2 * a2[1]


def _whole_grid_eps(lat, S, ngrid):
    """Hole test against the four corner sites of every grid point."""
    a1, a2 = real_basis(lat)
    f1, f2, X, Y = _whole_grid(lat, S, ngrid)
    in_hole = np.zeros(X.shape, dtype=bool)
    for di in (0, 1):
        for dj in (0, 1):
            n1 = np.floor(f1) + di
            n2 = np.floor(f2) + dj
            cx = n1 * a1[0] + n2 * a2[0]
            cy = n1 * a1[1] + n2 * a2[1]
            removed = (n1 % S == 0) & (n2 % S == 0)
            in_hole |= ((X - cx) ** 2 + (Y - cy) ** 2 <= lat.hole_radius**2) & ~removed
    eps = np.full(X.shape, lat.eps_background)
    eps[in_hole] = 1.0
    return eps


def _whole_grid_near_defect(lat, S, ngrid):
    """Distance of every grid point to each supercell corner, below 1.5 periods."""
    a1, a2 = real_basis(lat)
    _, _, X, Y = _whole_grid(lat, S, ngrid)
    dmin = np.full(X.shape, np.inf)
    for p in (0, 1):
        for q in (0, 1):
            cx = p * S * a1[0] + q * S * a2[0]
            cy = p * S * a1[1] + q * S * a2[1]
            dmin = np.minimum(dmin, np.hypot(X - cx, Y - cy))
    return dmin < 1.5 * lat.period_a


def _ifft2_energy_density(vec, basis, eps_grid):
    """|grad H_z|^2 / eps from `np.fft.ifft2` of the whole zero-padded spectrum,
    at the cell centres (j + 1/2)/n where the permittivity grid is sampled."""
    ngrid = eps_grid.shape[0]
    g = basis.g_vectors
    m, n = basis.indices.T

    def synth(weights):
        spectrum = np.zeros((ngrid, ngrid), dtype=complex)
        spectrum[m % ngrid, n % ngrid] = weights * np.exp(1j * np.pi * (m + n) / ngrid)
        return np.fft.ifft2(spectrum) * ngrid**2

    dhx, dhy = synth(vec * 1j * g[:, 0]), synth(vec * 1j * g[:, 1])
    return (np.abs(dhx) ** 2 + np.abs(dhy) ** 2) / eps_grid


@pytest.mark.parametrize("ratio", [0.2, 0.37, 0.45, 0.49])
@pytest.mark.parametrize("grid_per_period", [64, 96])
@pytest.mark.parametrize("size", [5, 7, 9])
def test_tiled_grids_bit_identical_to_whole_grid(size, grid_per_period, ratio):
    lat = device_lattice(ratio)
    ngrid = size * grid_per_period
    eps = bands._supercell_eps_grid(lat, size, ngrid)
    assert np.array_equal(eps, _whole_grid_eps(lat, size, ngrid))
    near = bands._near_defect_mask(lat, size, ngrid)
    assert np.array_equal(near, _whole_grid_near_defect(lat, size, ngrid))


def _recording_energy_densities(monkeypatch):
    """Patch `bands._energy_densities` to keep a copy of the states it is given."""
    seen = []
    kernel = bands._energy_densities

    def record(vecs, basis, eps_grid):
        seen.append(vecs.copy())
        return kernel(vecs, basis, eps_grid)

    monkeypatch.setattr(bands, "_energy_densities", record)
    return kernel, seen


def _index_map(basis, image):
    """Position in `basis` of image(m, n) for each plane wave (m, n)."""
    order = {(m, n): i for i, (m, n) in enumerate(map(tuple, basis.indices))}
    return np.array([order[image(m, n)] for m, n in map(tuple, basis.indices)])


def _inverse_index(basis):
    """Position of -G_i in `basis` for each plane wave i."""
    return _index_map(basis, lambda m, n: (-m, -n))


def _whole_grid_energy_density(vec, basis, eps_grid):
    """The packed transform with its last-axis pass over the whole padded
    grid at once, not a band of rows at a time."""
    ngrid = eps_grid.shape[0]
    cols, col_of = np.unique(basis.indices[:, 1] % ngrid, return_inverse=True)
    g = basis.g_vectors
    weights = (1j * g[:, 0] - g[:, 1]) * ngrid**2
    weights *= np.exp(1j * np.pi * basis.indices.sum(axis=1) / ngrid)
    spectrum = np.zeros((ngrid, len(cols)), dtype=complex)
    spectrum[basis.indices[:, 0] % ngrid, col_of] = vec * weights
    padded = np.zeros((ngrid, ngrid), dtype=complex)
    padded[:, cols] = np.fft.ifft(spectrum, axis=0)
    u_e = np.abs(np.fft.ifft(padded, axis=-1))
    u_e *= u_e
    u_e /= eps_grid
    return u_e


def test_energy_densities_match_ifft2(bulk_gap, monkeypatch):
    # One packed transform per state against the two whole-grid transforms,
    # on the solver's states and on random states of either inversion parity
    # (the kernel's precondition); and bit for bit against the same packed
    # transform run over the whole grid at once.
    lat = device_lattice(0.37)
    basis = PlaneWaveBasis.supercell(lat, 7, 12)
    kernel, seen = _recording_energy_densities(monkeypatch)
    modes = solve_h1_modes(lat, basis, gap=bulk_gap, grid_per_period=64)
    in_gap, = seen
    assert in_gap.shape[1] == len(modes) > 0
    neg = _inverse_index(basis)
    random = np.random.default_rng(5).standard_normal((len(basis), 3))
    eps_grid = bands._supercell_eps_grid(lat, 7, 7 * 64)
    for vecs in (in_gap, random + random[neg], random - random[neg]):
        got = list(kernel(vecs, basis, eps_grid))
        assert len(got) == vecs.shape[1]
        for vec, u_e in zip(vecs.T, got):
            ref = _ifft2_energy_density(vec, basis, eps_grid)
            assert np.abs(u_e - ref).max() <= 1e-12 * ref.max()
            assert np.array_equal(u_e, _whole_grid_energy_density(vec, basis, eps_grid))


def test_mode_grids_do_not_share_the_fft_buffer(bulk_gap, monkeypatch):
    lat = device_lattice(0.37)
    basis = PlaneWaveBasis.supercell(lat, 7, 12)
    kernel, seen = _recording_energy_densities(monkeypatch)
    modes = solve_h1_modes(lat, basis, gap=bulk_gap, grid_per_period=64)
    again = solve_h1_modes(lat, basis, gap=bulk_gap, grid_per_period=64)
    kept = [i for i, m in enumerate(modes) if m.energy_density is not None]
    assert len(kept) > 1
    for i, j in itertools.combinations(kept, 2):
        assert not np.shares_memory(modes[i].energy_density, modes[j].energy_density)
    # After every mode is built, each kept grid is still what a fresh one-state
    # reconstruction gives, and a second solve returns the same bytes.
    vecs = seen[0]
    eps_grid = bands._supercell_eps_grid(lat, 7, 7 * 64)
    for i in kept:
        mode = modes[i]
        fresh, = kernel(vecs[:, i:i + 1], basis, eps_grid)
        assert np.array_equal(mode.energy_density, fresh / fresh.max())
        assert mode.energy_density.tobytes() == again[i].energy_density.tobytes()


# ---------------------------------------------------------------------------
# Mode volume
# ---------------------------------------------------------------------------

def _uniform_profile(lat, size=5, grid_per_period=64):
    n = size * grid_per_period
    ones = np.ones((n, n))
    return CavityModeProfile(
        frequency=0.29,
        energy_density=ones,
        lattice=lat,
        supercell_size=size,
        grid_per_period=grid_per_period,
        localization=1.0,
        parity=-1.0,
        density_sum=float(ones.sum()),
        dielectric_peak=1.0,
    )


def test_uniform_field_volume_identity():
    lat = device_lattice()
    profile = _uniform_profile(lat)
    v = mode_volume(profile, SLAB)
    area = profile.supercell_area
    assert v == pytest.approx(area * 400.0 / (300.0 / 0.29 / 3.4) ** 3, rel=1e-12)


def test_dipole_mode_volume_in_range(h1_modes):
    (a, b), = dipole_doublets(h1_modes)
    for mode in (a, b):
        v = mode_volume(mode, SLAB)
        assert 0.5 <= v <= 3.0


def test_mode_volume_grid_refinement(bulk_gap):
    lat = device_lattice(0.37)
    volumes = []
    for gpp in (64, 128):
        modes = solve_h1_modes(lat, PlaneWaveBasis.supercell(lat, 7, 12), gap=bulk_gap,
                               grid_per_period=gpp)
        (a, _), = dipole_doublets(modes)
        volumes.append(mode_volume(a, SLAB))
    assert abs(volumes[1] - volumes[0]) / volumes[0] < 0.02


def test_zero_field_profile_rejected():
    lat = device_lattice()
    profile = _uniform_profile(lat)
    dead = CavityModeProfile(
        frequency=profile.frequency,
        energy_density=np.zeros_like(profile.energy_density),
        lattice=lat,
        supercell_size=profile.supercell_size,
        grid_per_period=profile.grid_per_period,
        localization=0.0,
        parity=1.0,
        density_sum=0.0,
        dielectric_peak=0.0,
    )
    with pytest.raises(ValueError):
        mode_volume(dead, SLAB)


def _grid_mode_volume(u, eps_grid, profile, slab):
    """The mode volume computed from the grid itself: its sum times the area
    element over its maximum on the dielectric (eps == eps_background)."""
    peak = float(u[eps_grid == profile.lattice.eps_background].max())
    area_element = profile.supercell_area / u.shape[0] ** 2
    integral = float(u.sum()) * area_element
    return integral * slab.thickness / peak / (profile.wavelength / slab.n_core) ** 3


def test_volume_from_stored_numbers_equals_the_grid_formula(paper_scenario, monkeypatch):
    # Every in-gap state of the paper scenario's five hole ratios: the grid
    # is rebuilt from its eigenvector, and only doublet candidates keep it.
    cfg, gaps = paper_scenario
    slab, settings = cfg.crystal.slab.waveguide(), cfg.modes
    kernel, seen = _recording_energy_densities(monkeypatch)
    states = kept = 0
    for ra, gap in gaps.items():
        lat = cfg.crystal.lattice(ra)
        basis = PlaneWaveBasis.supercell(lat, settings.supercell_size, settings.cutoff)
        modes = solve_h1_modes(lat, basis, gap=gap, grid_per_period=settings.grid_per_period)
        ngrid = settings.supercell_size * settings.grid_per_period
        eps_grid = bands._supercell_eps_grid(lat, settings.supercell_size, ngrid)
        grids = kernel(seen.pop(), basis, eps_grid)
        for mode, u in zip(modes, grids, strict=True):
            u /= u.max()
            assert mode_volume(mode, slab) == _grid_mode_volume(u, eps_grid, mode, slab)
            candidate = mode.parity < 0 and mode.localization >= bands.DOUBLET_MIN_LOCALIZATION
            assert (mode.energy_density is not None) == candidate
            if candidate:
                assert np.array_equal(mode.energy_density, u)
            states += 1
            kept += candidate
    assert (states, kept) == (41, 12)


def test_h1_solve_peak_memory(paper_scenario):
    # r/a = 0.42, the paper's largest solve (15 in-gap states): the density
    # is transformed a band of rows at a time, so its buffers are two
    # 64 x 448 complex arrays, not two whole 448 x 448 ones, and the traced
    # peak stays below 14 MB. Whole-grid buffers would reach 17.1 MB.
    cfg, gaps = paper_scenario
    lat, settings = cfg.crystal.lattice(0.42), cfg.modes
    basis = PlaneWaveBasis.supercell(lat, settings.supercell_size, settings.cutoff)
    tracemalloc.start()
    try:
        solve_h1_modes(lat, basis, gap=gaps[0.42], grid_per_period=settings.grid_per_period)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14e6


def test_cmd_modes_releases_each_ratio_before_the_next(paper_scenario, tmp_path, monkeypatch):
    # When the next hole ratio's solve starts, no grid of an earlier ratio is
    # alive, and less than one grid (448 x 448 float64) is traced as live.
    from pcqed import cli

    cfg, gaps = paper_scenario
    solve, grids, live = cli.solve_h1_modes, [], []

    def recording_solve(*args, **kwargs):
        live.append((tracemalloc.get_traced_memory()[0],
                     sum(grid() is not None for grid in grids)))
        modes = solve(*args, **kwargs)
        grids.extend(weakref.ref(m.energy_density) for m in modes
                     if m.energy_density is not None)
        return modes

    monkeypatch.setattr(cli, "solve_h1_modes", recording_solve)
    tracemalloc.start()
    try:
        cli.cmd_modes(cfg, tmp_path / "modes", gaps)
    finally:
        tracemalloc.stop()
    assert len(live) == 5 and len(grids) == 12
    one_grid = (cfg.modes.supercell_size * cfg.modes.grid_per_period) ** 2 * 8
    for traced, alive in live:
        assert alive == 0
        assert traced < one_grid


# ---------------------------------------------------------------------------
# The solve in inversion and mirror classes against the dense one
# ---------------------------------------------------------------------------

def _mirror_index(basis):
    """Position of the mirror image (y -> -y) of G_i in `basis` for each plane wave i."""
    return _index_map(basis, lambda m, n: (m, -m - n))


def _mirror_rotation(vals, vecs, mirror):
    """Rotate each degenerate group of `vecs` (sorted `vals` within 1e-10) in
    place onto the eigenbasis of the mirror, ordered by mirror character -1, +1."""
    start = 0
    for stop in range(1, len(vals) + 1):
        if stop < len(vals) and vals[stop] - vals[start] <= 1e-10 * vals[stop]:
            continue
        if stop - start > 1:
            group = vecs[:, start:stop]
            _, rotation = scipy.linalg.eigh(group.T @ group[mirror])
            vecs[:, start:stop] = group @ rotation
        start = stop


def _dense_h1_states(lat, basis, gap, grid_per_period):
    """The in-gap states of the whole Gamma-point operator: `inv` of the full
    permittivity matrix, `_assemble_te`, scipy's `eigh` on (lo, hi], the
    mirror rotation of degenerate groups, and parity as sign(h . h(-G)).
    Each state comes back as a grid-free profile, so `dipole_doublets`
    applies to it, with its eigenvector."""
    theta = bands._assemble_te(np.linalg.inv(bands._eps_matrix(lat, basis)), np.zeros(2),
                               basis.g_vectors)
    scale = 2.0 * np.pi / lat.period_a
    lo = (gap.lower_edge * (1.0 + 1e-7) * scale) ** 2
    hi = (gap.upper_edge * (1.0 - 1e-7) * scale) ** 2
    vals, vecs = scipy.linalg.eigh(theta, subset_by_value=[lo, hi])
    _mirror_rotation(vals, vecs, _mirror_index(basis))
    neg = _inverse_index(basis)
    S = basis.supercell_size
    ngrid = S * grid_per_period
    eps_grid = bands._supercell_eps_grid(lat, S, ngrid)
    near = bands._near_defect_mask(lat, S, ngrid)
    states = []
    for val, vec in zip(vals, vecs.T):
        u = _ifft2_energy_density(vec, basis, eps_grid)
        u /= u.max()
        states.append(CavityModeProfile(
            frequency=lat.period_a / (2.0 * np.pi) * float(np.sqrt(val)),
            energy_density=None,
            lattice=lat,
            supercell_size=S,
            grid_per_period=grid_per_period,
            localization=float(u[near].sum() / u.sum()),
            parity=float(np.sign(vec @ vec[neg])),
            density_sum=float(u.sum()),
            dielectric_peak=float(u[eps_grid == lat.eps_background].max()),
        ))
    return states, vecs


def _doublet_positions(states):
    pairs = dipole_doublets(states)
    return [tuple(next(i for i, s in enumerate(states) if s is m) for m in pair)
            for pair in pairs]


def _mirror_characters(vecs, basis):
    """h(sigma G) . h(G) / |h|^2 of each column: +1 or -1 for a state of one
    mirror class."""
    return np.einsum("ij,ij->j", vecs[_mirror_index(basis)], vecs) / np.einsum(
        "ij,ij->j", vecs, vecs)


@pytest.mark.parametrize("size", [5, 7, 9])
def test_blocked_solve_matches_the_dense_solve(paper_scenario, size, monkeypatch):
    # The four classes of inversion and mirror against the whole operator:
    # the same states, parities, mirror characters and doublets, and the
    # doublet's partners in the two mirror classes of the inversion-odd block.
    cfg, gaps = paper_scenario
    settings = cfg.modes
    _, seen = _recording_energy_densities(monkeypatch)
    for ra, gap in gaps.items():
        lat = cfg.crystal.lattice(ra)
        basis = PlaneWaveBasis.supercell(lat, size, settings.cutoff)
        got = solve_h1_modes(lat, basis, gap=gap, grid_per_period=settings.grid_per_period)
        got_mirror = _mirror_characters(seen.pop(), basis)
        ref, ref_vecs = _dense_h1_states(lat, basis, gap, settings.grid_per_period)
        ref_mirror = _mirror_characters(ref_vecs, basis)
        assert len(got) == len(ref) > 0, f"S={size}, r/a={ra}"
        assert np.array_equal(np.abs(got_mirror), np.ones(len(got)))
        assert np.abs(ref_mirror - got_mirror).max() <= 1e-9
        for a, b in zip(got, ref):
            assert a.parity == b.parity
            assert abs(a.frequency - b.frequency) <= 1e-12 * b.frequency
            assert abs(a.localization - b.localization) <= 1e-12
        doublets = _doublet_positions(got)
        assert doublets == _doublet_positions(ref)
        assert len(doublets) == 1
        assert [got_mirror[i] for i in doublets[0]] == [-1.0, 1.0]


def test_kept_grids_are_inversion_symmetric(paper_scenario):
    # |grad H|^2 of a state with exact parity is inversion-symmetric, and so
    # is the permittivity. Both are sampled at the cell centres (j + 1/2)/n,
    # where inversion sends index j to n - 1 - j.
    cfg, gaps = paper_scenario
    settings = cfg.modes
    ngrid = settings.supercell_size * settings.grid_per_period
    kept = 0
    for ra, gap in gaps.items():
        lat = cfg.crystal.lattice(ra)
        basis = PlaneWaveBasis.supercell(lat, settings.supercell_size, settings.cutoff)
        eps_grid = bands._supercell_eps_grid(lat, settings.supercell_size, ngrid)
        assert np.array_equal(eps_grid[::-1, ::-1], eps_grid)
        for mode in solve_h1_modes(lat, basis, gap=gap,
                                   grid_per_period=settings.grid_per_period):
            if mode.energy_density is None:
                continue
            u = mode.energy_density
            assert np.abs(u[::-1, ::-1] - u).max() <= 1e-12
            kept += 1
    assert kept == 12
