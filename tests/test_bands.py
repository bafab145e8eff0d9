import tracemalloc

import numpy as np
import pytest

from pcqed.bands import (
    BandGap,
    PlaneWaveBasis,
    _eps_matrix,
    build_te_operator,
    compute_bands,
    find_te_gap,
)
from pcqed.geometry import (
    SlabWaveguide,
    TriangularLattice,
    _fourier_coefficient,
    _hole_form_factor,
    dielectric_fourier,
    effective_index,
    gamma_m_k_path,
    reciprocal_basis,
)


def device_lattice(ratio=0.37):
    slab = SlabWaveguide(400.0, 3.4, 1.0)
    eps = effective_index(slab, 1050.0) ** 2
    return TriangularLattice(300.0, ratio, eps)


def uniform_lattice(eps=9.0, a=300.0):
    return TriangularLattice(a, 0.0, eps)


# ---------------------------------------------------------------------------
# Plane-wave basis
# ---------------------------------------------------------------------------

def _c6v():
    """The 12 operations of the lattice point group as Cartesian matrices."""
    ops = []
    for i in range(6):
        c, s = np.cos(i * np.pi / 3.0), np.sin(i * np.pi / 3.0)
        rotation = np.array([[c, -s], [s, c]])
        ops += [rotation, rotation @ np.diag([1.0, -1.0])]
    return ops


def test_bulk_basis_size_and_point_group_closure():
    lat = device_lattice()
    basis = PlaneWaveBasis.bulk(lat, 7)
    assert len(basis) == 187 and basis.supercell_size == 1
    idx = {tuple(mn) for mn in basis.indices}
    assert (0, 0) in idx
    to_indices = np.linalg.inv(np.stack(reciprocal_basis(lat)))
    for op in _c6v():
        mapped = basis.g_vectors @ op.T @ to_indices
        assert np.abs(mapped - np.rint(mapped)).max() < 1e-9
        assert {tuple(mn) for mn in np.rint(mapped).astype(int)} == idx


@pytest.mark.parametrize("vertex", ["M", "K"])
def test_equivalent_zone_points_give_the_same_bands(vertex):
    # The six M (K) points are images of one another under the point group,
    # which maps the basis onto itself; a truncation that is not closed
    # under it split the M points by 1e-3.
    lat = device_lattice()
    b1, b2 = reciprocal_basis(lat)
    k = b1 / 2.0 if vertex == "M" else (b1 + b2) / 3.0
    basis = PlaneWaveBasis.bulk(lat, 7)
    rotations = _c6v()[::2]
    vals = np.array([np.linalg.eigvalsh(build_te_operator(lat, r @ k, basis))[:6]
                     for r in rotations])
    assert np.abs(vals - vals[0]).max() <= 1e-12 * vals.max()


def test_hexagonal_basis_closure_under_rotation():
    basis = PlaneWaveBasis.supercell(device_lattice(), 7, 12)
    idx = {tuple(mn) for mn in basis.indices}
    assert (0, 0) in idx
    # closed under negation and under the 60-degree rotation (m,n)->(-n,m+n)
    assert all((-m, -n) in idx for m, n in idx)
    assert all((-n, m + n) in idx for m, n in idx)


# ---------------------------------------------------------------------------
# TE operator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ratio", [0.33, 0.37, 0.42])
def test_bulk_eps_matrix_is_the_public_fourier_coefficient(ratio):
    # The solver's matrix and dielectric_fourier share one formula; entries
    # differ only by the round-off of the Cartesian G_i - G_j.
    lat = device_lattice(ratio)
    basis = PlaneWaveBasis.bulk(lat, 3)
    g = basis.g_vectors
    E = _eps_matrix(lat, basis)
    expected = np.array([[dielectric_fourier(lat, gi - gj) for gj in g] for gi in g])
    np.testing.assert_allclose(E, expected, rtol=0.0, atol=1e-14)


def _pair_table_eps_matrix(lattice, basis, supercell_size=None):
    """`_eps_matrix` evaluated once per pair (i, j), the form the
    difference table replaced; the table must reproduce it bit for bit."""
    idx = basis.indices
    dm = idx[:, None, 0] - idx[None, :, 0]
    dn = idx[:, None, 1] - idx[None, :, 1]
    dg = dm[..., None] * basis.g1 + dn[..., None] * basis.g2
    gnorm = np.linalg.norm(dg, axis=-1)
    origin = (dm == 0) & (dn == 0)
    if supercell_size is None:
        return _fourier_coefficient(lattice, gnorm, origin)
    S = supercell_size
    structure = np.where((dm % S == 0) & (dn % S == 0), float(S * S - 1), -1.0)
    E = (1.0 - lattice.eps_background) * (lattice.fill_fraction / S**2) * structure * (
        _hole_form_factor(gnorm * lattice.hole_radius)
    )
    E[origin] += lattice.eps_background
    return E


@pytest.mark.parametrize("ratio", [0.2, 0.37])
@pytest.mark.parametrize("cutoff", [3, 7])
def test_bulk_eps_matrix_bit_identical_to_pair_table(ratio, cutoff):
    lat = device_lattice(ratio)
    basis = PlaneWaveBasis.bulk(lat, cutoff)
    assert np.array_equal(_eps_matrix(lat, basis), _pair_table_eps_matrix(lat, basis))


@pytest.mark.parametrize("size", [5, 7, 9])
@pytest.mark.parametrize("cutoff", [8, 12])
def test_supercell_eps_matrix_bit_identical_to_pair_table(size, cutoff):
    lat = device_lattice(0.37)
    basis = PlaneWaveBasis.supercell(lat, size, cutoff)
    E = _eps_matrix(lat, basis)
    assert np.array_equal(E, _pair_table_eps_matrix(lat, basis, size))


def test_uniform_medium_operator_is_diagonal():
    lat = uniform_lattice(eps=9.0)
    basis = PlaneWaveBasis.bulk(lat, 3)
    b1, b2 = reciprocal_basis(lat)
    k = 0.2 * b1 + 0.1 * b2
    theta = build_te_operator(lat, k, basis)
    off = theta - np.diag(np.diag(theta))
    assert np.abs(off).max() < 1e-12 * np.abs(theta).max()
    kg = k + basis.g_vectors
    np.testing.assert_allclose(np.diag(theta), np.sum(kg**2, axis=1) / 9.0, rtol=1e-12)


def test_operator_hermitian_and_psd():
    lat = device_lattice()
    basis = PlaneWaveBasis.bulk(lat, 5)
    b1, b2 = reciprocal_basis(lat)
    rng = np.random.default_rng(7)
    for _ in range(4):
        k = rng.uniform(-0.5, 0.5) * b1 + rng.uniform(-0.5, 0.5) * b2
        theta = build_te_operator(lat, k, basis)
        assert np.abs(theta - theta.T.conj()).max() <= 1e-12 * np.abs(theta).max()
        vals = np.linalg.eigvalsh(theta)
        assert vals.min() >= -1e-10


def test_gamma_point_zero_row():
    lat = device_lattice()
    basis = PlaneWaveBasis.bulk(lat, 4)
    theta = build_te_operator(lat, np.zeros(2), basis)
    i0 = next(i for i, mn in enumerate(basis.indices) if tuple(mn) == (0, 0))
    assert np.abs(theta[i0]).max() == 0.0
    assert np.linalg.eigvalsh(theta).min() == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Empty-lattice exactness (analytic folded dispersion oracle)
# ---------------------------------------------------------------------------

def _folded_dispersion(lat, k, n_bands, oracle_cutoff=12):
    """Analytic folded free-photon bands a/lambda = |k+G| a / (2 pi n)."""
    b1, b2 = reciprocal_basis(lat)
    ms = np.arange(-oracle_cutoff, oracle_cutoff + 1)
    mm, nn = np.meshgrid(ms, ms, indexing="ij")
    G = np.stack([mm.ravel(), nn.ravel()], axis=-1) @ np.stack([b1, b2])
    mags = np.linalg.norm(k[None, :] + G, axis=1)
    freqs = np.sort(mags) * lat.period_a / (2.0 * np.pi * np.sqrt(lat.eps_background))
    return freqs[:n_bands]


def _thirty_k_points(lat):
    _, pts, _ = gamma_m_k_path(lat, 10)  # 28 path points
    b1, b2 = reciprocal_basis(lat)
    extra = np.array([0.21 * b1 + 0.13 * b2, -0.37 * b1 + 0.29 * b2])
    return np.vstack([pts, extra])


def test_empty_lattice_bands_match_folded_dispersion():
    lat = uniform_lattice(eps=9.0)
    basis = PlaneWaveBasis.bulk(lat, 7)
    kpts = _thirty_k_points(lat)
    assert len(kpts) == 30
    bands = compute_bands(lat, 10, basis, 5)
    # check the path block via compute_bands and the two extra points directly
    for i, k in enumerate(kpts):
        expected = _folded_dispersion(lat, k, 5)
        if i < 28:
            got = bands.frequencies[i]
        else:
            theta = build_te_operator(lat, k, basis)
            vals = np.sort(np.linalg.eigvalsh(theta))[:5]
            got = lat.period_a / (2.0 * np.pi) * np.sqrt(np.clip(vals, 0, None))
        mask = expected > 1e-12
        assert np.abs(got[mask] - expected[mask]).max() / expected[mask].max() < 1e-6
        assert np.abs(got[~mask]).max() < 1e-9 if (~mask).any() else True


def test_empty_lattice_band1_at_m_point():
    lat = uniform_lattice(eps=9.0)
    bands = compute_bands(lat, 2, PlaneWaveBasis.bulk(lat, 5), 1)
    # M point is the second path vertex; |k_M| = |b1|/2
    f_m = bands.frequencies[1, 0]
    assert f_m == pytest.approx(1.0 / (3.0 * np.sqrt(3.0)), rel=1e-10)


# ---------------------------------------------------------------------------
# Band structures and the TE gap
# ---------------------------------------------------------------------------

def test_rows_sorted_nonnegative_zero_only_at_gamma():
    lat = device_lattice()
    bands = compute_bands(lat, 8, PlaneWaveBasis.bulk(lat, 5), 4)
    f = bands.frequencies
    assert np.all(np.diff(f, axis=1) >= -1e-12)
    assert np.all(f >= 0.0)
    # The Gamma zero is the dropped G = 0 row of the inversion-even block.
    gamma_rows = [0, f.shape[0] - 1]
    for i in range(f.shape[0]):
        if i in gamma_rows:
            assert f[i, 0] == 0.0
        else:
            assert f[i, 0] > 1e-3


@pytest.mark.parametrize("ratio", [0.33, 0.36, 0.37, 0.39, 0.42])
def test_blocked_bands_match_the_dense_solve(ratio):
    # Mirror-line and Gamma points are solved in symmetry classes; each of
    # the 46 path points of the paper's settings against scipy's dense
    # `eigh` of the whole operator, in lambda = (a/lambda)^2.
    import scipy.linalg

    from pcqed import bands as bands_module

    lat = device_lattice(ratio)
    basis = PlaneWaveBasis.bulk(lat, 7)
    n_bands = 5
    got = compute_bands(lat, 16, basis, n_bands).frequencies
    _, kpts, _ = gamma_m_k_path(lat, 16)
    eta = np.linalg.inv(_eps_matrix(lat, basis))
    assert got.shape == (46, n_bands)
    for k, row in zip(kpts, got):
        theta = bands_module._assemble_te(eta, k, basis.g_vectors)
        vals = scipy.linalg.eigh(theta, eigvals_only=True, subset_by_index=[0, n_bands - 1])
        ref = (lat.period_a / (2.0 * np.pi)) ** 2 * vals
        assert np.abs(row**2 - ref).max() <= 1e-12


def test_band_solve_frees_each_segment_before_the_next():
    # At the paper's bulk settings the 45 path points come in four stacks.
    # Each stack is scaled in place, dropped once split into its classes,
    # and its blocks go before the next stack is built: the traced peak
    # stays below 12 MB. Two live stacks plus a previous segment's blocks
    # would reach 15.35 MB.
    lat = device_lattice(0.37)
    basis = PlaneWaveBasis.bulk(lat, 7)
    tracemalloc.start()
    try:
        compute_bands(lat, 16, basis, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_long_segments_are_solved_in_bounded_stacks(monkeypatch):
    # With stacks of at most four operators, a segment is solved in several
    # stacks to the same bits as in one, and the traced peak does not grow
    # with the points per segment.
    lat = device_lattice(0.37)
    basis = PlaneWaveBasis.bulk(lat, 5)
    whole = compute_bands(lat, 25, basis, 5).frequencies
    monkeypatch.setattr("pcqed.bands._STACK_ENTRIES", 4 * len(basis) ** 2)
    peaks = []
    for samples in (25, 400):
        tracemalloc.start()
        try:
            split = compute_bands(lat, samples, basis, 5).frequencies
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        if samples == 25:
            np.testing.assert_array_equal(split, whole)
    assert peaks[1] < 1.5 * peaks[0]


def test_periodicity_under_reciprocal_translation():
    lat = device_lattice()
    basis = PlaneWaveBasis.bulk(lat, 5)
    b1, b2 = reciprocal_basis(lat)
    rng = np.random.default_rng(3)
    for _ in range(3):
        k = rng.uniform(-0.4, 0.4) * b1 + rng.uniform(-0.4, 0.4) * b2
        va = np.sort(np.linalg.eigvalsh(build_te_operator(lat, k, basis)))[:4]
        vb = np.sort(np.linalg.eigvalsh(build_te_operator(lat, k + b1, basis)))[:4]
        assert np.abs(va - vb).max() <= 1e-8 * max(va.max(), 1e-30)


def test_device_geometry_has_te_gap():
    lat = device_lattice(0.37)
    bands = compute_bands(lat, 12, PlaneWaveBasis.bulk(lat, 7), 2)
    gap = find_te_gap(bands)
    assert gap is not None
    assert gap.lower_edge < gap.midgap < gap.upper_edge
    assert gap.midgap == pytest.approx(0.5 * (gap.lower_edge + gap.upper_edge))


def test_midgap_wavelengths_frozen_regression():
    # Converged solver values for the effective-index model; the r/a = 0.33
    # case lands on the expected ~1100 nm, see also the acceptance suite.
    for ratio, lam_mid in ((0.33, 1095.9), (0.37, 977.7)):
        lat = device_lattice(ratio)
        bands = compute_bands(lat, 16, PlaneWaveBasis.bulk(lat, 7), 2)
        gap = find_te_gap(bands)
        assert gap.midgap_wavelength(300.0) == pytest.approx(lam_mid, abs=1.0)


def test_no_gap_for_uniform_medium():
    lat = uniform_lattice(eps=9.0)
    bands = compute_bands(lat, 8, PlaneWaveBasis.bulk(lat, 5), 2)
    assert find_te_gap(bands) is None


def test_gap_edges_stable_under_cutoff_doubling():
    lat = device_lattice(0.37)
    samples = 8
    gaps = []
    for cutoff in (5, 10):
        bands = compute_bands(lat, samples, PlaneWaveBasis.bulk(lat, cutoff), 2)
        gaps.append(find_te_gap(bands))
    for attr in ("lower_edge", "upper_edge"):
        lo, hi = getattr(gaps[0], attr), getattr(gaps[1], attr)
        assert abs(hi - lo) / lo < 0.01


@pytest.mark.parametrize("cutoff", [4, 7])
def test_gap_width_monotone_in_hole_ratio(cutoff):
    # The coarse cutoff acts as the independent confirmation run.
    samples = 8
    widths = []
    for ratio in (0.33, 0.36, 0.39, 0.42):
        lat = device_lattice(ratio)
        bands = compute_bands(lat, samples, PlaneWaveBasis.bulk(lat, cutoff), 2)
        widths.append(find_te_gap(bands).width)
    assert all(b > a for a, b in zip(widths, widths[1:]))


def _degeneracy_pattern(freqs, rel_tol=5e-3):
    groups = []
    for v in freqs:
        if groups and abs(v - groups[-1][-1]) < rel_tol * max(v, 1e-3):
            groups[-1].append(v)
        else:
            groups.append([v])
    return [len(g) for g in groups]


def test_point_group_degeneracies_reproduced_across_cutoffs():
    # Multiplicity patterns at the high-symmetry points agree between two
    # cutoffs. At Gamma the pairs are degenerate to round-off. At K they split
    # at the truncation level (0.38871 against 0.38893 a/lambda at cutoff 5):
    # a basis centred on Gamma is not closed under the little group of K,
    # whose rotations turn about K, not about the origin.
    lat = device_lattice(0.37)
    b1, b2 = reciprocal_basis(lat)
    for k in ((b1 + b2) / 3.0, np.zeros(2)):  # K and Gamma
        patterns = []
        for cutoff in (5, 8):
            theta = build_te_operator(lat, k, PlaneWaveBasis.bulk(lat, cutoff))
            vals = np.sort(np.linalg.eigvalsh(theta))[:8]
            freqs = 300.0 / (2.0 * np.pi) * np.sqrt(np.clip(vals, 0, None))
            patterns.append(_degeneracy_pattern(freqs))
        assert patterns[0] == patterns[1]
        assert any(m > 1 for m in patterns[0])  # symmetry-forced pairs exist


def test_n_bands_exceeding_basis_rejected():
    lat = device_lattice()
    basis = PlaneWaveBasis.bulk(lat, 2)
    with pytest.raises(ValueError):
        compute_bands(lat, 3, basis, len(basis) + 1)


def test_band_gap_validation():
    with pytest.raises(ValueError):
        BandGap(lower_edge=0.3, upper_edge=0.25)
