import numpy as np
import pytest

from pcqed.geometry import (
    ReciprocalLatticeError,
    SlabWaveguide,
    TriangularLattice,
    dielectric_fourier,
    effective_index,
    gamma_m_k_path,
    real_basis,
    reciprocal_basis,
)


def lattice(a=300.0, ratio=0.35, eps=8.41):
    return TriangularLattice(period_a=a, hole_ratio=ratio, eps_background=eps)


# ---------------------------------------------------------------------------
# Reciprocal basis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [120.0, 300.0, 455.5, 700.0])
def test_reciprocal_duality(a):
    lat = lattice(a=a)
    a1, a2 = real_basis(lat)
    b1, b2 = reciprocal_basis(lat)
    two_pi = 2.0 * np.pi
    for b, pairs in ((b1, (two_pi, 0.0)), (b2, (0.0, two_pi))):
        assert abs(b @ a1 - pairs[0]) <= 1e-12 * two_pi
        assert abs(b @ a2 - pairs[1]) <= 1e-12 * two_pi


def test_reciprocal_magnitude():
    b1, b2 = reciprocal_basis(lattice(a=300.0))
    expected = 4.0 * np.pi / (np.sqrt(3.0) * 300.0)
    assert np.linalg.norm(b1) == pytest.approx(expected, rel=1e-14)
    assert np.linalg.norm(b2) == pytest.approx(expected, rel=1e-14)
    assert np.linalg.norm(b1) == pytest.approx(0.02418, abs=1e-5)


def test_reciprocal_angle_60_degrees():
    b1, b2 = reciprocal_basis(lattice())
    cosang = b1 @ b2 / (np.linalg.norm(b1) * np.linalg.norm(b2))
    assert np.degrees(np.arccos(cosang)) == pytest.approx(60.0, abs=1e-9)


def test_lattice_validation():
    with pytest.raises(ValueError):
        TriangularLattice(period_a=-1.0, hole_ratio=0.3, eps_background=9.0)
    with pytest.raises(ValueError):
        TriangularLattice(period_a=300.0, hole_ratio=0.5, eps_background=9.0)
    with pytest.raises(ValueError):
        TriangularLattice(period_a=300.0, hole_ratio=0.3, eps_background=0.9)


# ---------------------------------------------------------------------------
# Dielectric Fourier coefficients
# ---------------------------------------------------------------------------

def _fill_fraction_by_quadrature(lat, n=1500):
    """Independent oracle: grid quadrature of the hole indicator over one cell."""
    a1, a2 = real_basis(lat)
    u = (np.arange(n) + 0.5) / n
    U, V = np.meshgrid(u, u, indexing="ij")
    X = U * a1[0] + V * a2[0]
    Y = U * a1[1] + V * a2[1]
    r2 = lat.hole_radius**2
    inside = np.zeros((n, n), dtype=bool)
    for di in (0, 1):
        for dj in (0, 1):
            cx = di * a1[0] + dj * a2[0]
            cy = di * a1[1] + dj * a2[1]
            inside |= (X - cx) ** 2 + (Y - cy) ** 2 <= r2
    return inside.mean()


def test_zero_vector_coefficient_against_quadrature():
    lat = lattice(ratio=0.35, eps=8.41)
    f_quad = _fill_fraction_by_quadrature(lat)
    assert lat.fill_fraction == pytest.approx(f_quad, abs=2e-3)
    value = dielectric_fourier(lat, (0.0, 0.0))
    expected = f_quad * 1.0 + (1.0 - f_quad) * 8.41
    assert value == pytest.approx(expected, abs=0.02)
    # frozen closed-form value
    assert value == pytest.approx(5.1171, abs=5e-4)


def test_fill_fraction_known_value():
    assert lattice(ratio=0.42).fill_fraction == pytest.approx(0.640, abs=1e-3)
    assert lattice(ratio=0.42).fill_fraction < 1.0


def test_first_bessel_zero_kills_coefficient():
    # Choose r/a so that |2*b1| * r hits the first zero of J1 (x ~ 3.8317).
    from scipy.special import jn_zeros

    x0 = jn_zeros(1, 1)[0]
    ratio = x0 * np.sqrt(3.0) / (8.0 * np.pi)
    lat = lattice(ratio=ratio, eps=10.0)
    b1, _ = reciprocal_basis(lat)
    value = dielectric_fourier(lat, 2.0 * b1)
    assert abs(value) < 1e-10


def test_no_hole_limit():
    lat = TriangularLattice(period_a=300.0, hole_ratio=0.0, eps_background=9.0)
    b1, b2 = reciprocal_basis(lat)
    assert dielectric_fourier(lat, (0.0, 0.0)) == pytest.approx(9.0, rel=1e-12)
    assert dielectric_fourier(lat, b1) == 0.0
    assert dielectric_fourier(lat, b1 + b2) == 0.0


def test_inversion_symmetry():
    lat = lattice(ratio=0.37, eps=10.5)
    b1, b2 = reciprocal_basis(lat)
    for m, n in [(1, 0), (2, -1), (3, 2), (-1, -1)]:
        G = m * b1 + n * b2
        plus = dielectric_fourier(lat, G)
        minus = dielectric_fourier(lat, -G)
        assert plus == pytest.approx(minus, rel=1e-12, abs=1e-15)


def test_off_lattice_vector_rejected():
    lat = lattice()
    b1, b2 = reciprocal_basis(lat)
    with pytest.raises(ReciprocalLatticeError):
        dielectric_fourier(lat, 0.5 * b1)
    with pytest.raises(ReciprocalLatticeError):
        dielectric_fourier(lat, b1 + 0.001 * b2)


# ---------------------------------------------------------------------------
# k-paths
# ---------------------------------------------------------------------------

def test_kpath_vertex_only():
    pts, _, _ = gamma_m_k_path(lattice(), 2)
    assert pts.shape == (4, 2)
    np.testing.assert_array_equal(pts[0], [0.0, 0.0])
    np.testing.assert_array_equal(pts[1], [0.5, 0.0])
    np.testing.assert_array_equal(pts[2], [1.0 / 3.0, 1.0 / 3.0])
    np.testing.assert_array_equal(pts[3], [0.0, 0.0])


def test_kpath_point_count():
    frac, pts, arc = gamma_m_k_path(lattice(), 10)
    assert frac.shape == pts.shape == (28, 2)
    assert arc.shape == (28,)


def test_kpath_arc_length_monotone():
    lat = lattice()
    _, pts, arc = gamma_m_k_path(lat, 9)
    assert len(arc) == len(pts)
    assert np.all(np.diff(arc) > 0)
    assert arc[0] == 0.0


def test_kpath_k_is_zone_corner():
    lat = lattice(a=300.0)
    b1, b2 = reciprocal_basis(lat)
    k_corner = (b1 + b2) / 3.0
    # The Brillouin-zone corner of the triangular lattice sits at 4*pi/(3a).
    assert np.linalg.norm(k_corner) == pytest.approx(4.0 * np.pi / (3.0 * 300.0), rel=1e-12)


def test_kpath_validation():
    with pytest.raises(ValueError):
        gamma_m_k_path(lattice(), 1)


# ---------------------------------------------------------------------------
# Effective index
# ---------------------------------------------------------------------------

def _effective_index_oracle(slab, wavelength, scan_points=20001, tol=1e-8):
    """Independent check: dense scan from the top of the bracket (n_clad,
    n_core), then bisection on the continuous dispersion form."""
    k0 = 2.0 * np.pi / wavelength
    d, nco, ncl = slab.thickness, slab.n_core, slab.n_clad

    def g(n_eff):
        kappa = k0 * np.sqrt(max(nco**2 - n_eff**2, 0.0))
        gamma = k0 * np.sqrt(max(n_eff**2 - ncl**2, 0.0))
        return kappa * np.sin(kappa * d / 2.0) - gamma * np.cos(kappa * d / 2.0)

    grid = np.linspace(nco - 1e-9, ncl + 1e-9, scan_points)
    values = [g(x) for x in grid]
    lo = hi = None
    for x0, x1, v0, v1 in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if v0 == 0.0:
            return x0
        if v0 * v1 < 0:
            lo, hi = x1, x0  # x1 < x0 (descending scan)
            break
    assert lo is not None, "oracle found no sign change"
    flo = g(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = g(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_effective_index_against_bisection_oracle():
    slab = SlabWaveguide(thickness=400.0, n_core=3.4, n_clad=1.0)
    n_eff = effective_index(slab, 1030.0)
    oracle = _effective_index_oracle(slab, 1030.0)
    assert n_eff == pytest.approx(oracle, abs=2e-8)
    assert 3.1 < n_eff < 3.3


def test_effective_index_thick_slab_limit():
    slab = SlabWaveguide(thickness=10.0 * 1000.0 * 3.4, n_core=3.4, n_clad=1.0)
    assert abs(effective_index(slab, 1000.0) - 3.4) < 1e-3


def test_effective_index_thin_slab_limit():
    slab = SlabWaveguide(thickness=400.0, n_core=3.4, n_clad=1.0)
    n_eff = effective_index(slab, 100.0 * 400.0)
    assert 1.0 < n_eff < 1.1


def test_effective_index_rejects_an_empty_bracket():
    # Both bracket ends move in by 1e-12 n_core, so a core 1e-13 above the
    # cladding leaves no bracket to search.
    with pytest.raises(ValueError, match="no bracket for the guided TE mode"):
        effective_index(SlabWaveguide(400.0, 1.0000000000001, 1.0), 1050.0)


def test_effective_index_monotonic_in_thickness_and_core():
    wavelengths = 1000.0
    values_d = [
        effective_index(SlabWaveguide(d, 3.4, 1.0), wavelengths)
        for d in (150.0, 250.0, 400.0, 600.0, 900.0)
    ]
    assert all(b > a for a, b in zip(values_d, values_d[1:]))
    values_n = [
        effective_index(SlabWaveguide(400.0, n, 1.0), wavelengths)
        for n in (2.0, 2.6, 3.0, 3.4, 3.8)
    ]
    assert all(b > a for a, b in zip(values_n, values_n[1:]))


def test_effective_index_equals_scipy_brentq_bit_for_bit(monkeypatch):
    # `_brentq` ports scipy's brentq.c step for step, so n_eff, and with it
    # eps_background, every config hash and every run id, keeps its bits.
    from scipy.optimize import brentq

    from pcqed import geometry

    rng = np.random.default_rng(26)
    cases = [(SlabWaveguide(400.0, 3.4, 1.0), 1050.0)]  # the paper's slab
    cases += [(SlabWaveguide(d, n_clad + dn, n_clad), wavelength)
              for d, n_clad, dn, wavelength in zip(
                  10 ** rng.uniform(1.0, 3.5, 2000), rng.uniform(1.0, 2.0, 2000),
                  rng.uniform(1e-3, 2.5, 2000), 10 ** rng.uniform(2.5, 3.8, 2000))]
    ported = [effective_index(slab, wavelength) for slab, wavelength in cases]
    brackets = []

    def oracle(f, a, b, **tolerances):
        brackets.append((a, b))
        return brentq(f, a, b, xtol=1e-14, rtol=8.9e-16, maxiter=100)

    monkeypatch.setattr(geometry, "_brentq", oracle)
    expected = [effective_index(slab, wavelength) for slab, wavelength in cases]
    assert len(brackets) == len(cases)
    assert all(type(n) is float for n in ported)
    assert ported == expected


def test_brentq_port_equals_scipy_where_interpolation_steps_are_refused():
    # The smooth slab dispersion rarely tests the step-acceptance rules; these
    # wiggly cubics do, and a step function never converges at all.
    from scipy.optimize import brentq

    from pcqed.geometry import _brentq

    tolerances = {"xtol": 1e-14, "rtol": 8.9e-16}
    rng = np.random.default_rng(26)
    compared = 0
    for c0, c1, c2, c3 in rng.normal(size=(400, 4)):
        def f(x):
            return c0 + c1 * x + c2 * x**3 + np.sin(c3 * x)

        if np.sign(f(-5.0)) != np.sign(f(5.0)):
            compared += 1
            assert _brentq(f, -5.0, 5.0, **tolerances) == brentq(f, -5.0, 5.0, **tolerances)
    assert compared > 200

    def step(x):
        return -1.0 if x < 1.0 / 3.0 else 1.0

    with pytest.raises(RuntimeError) as scipy_error:
        brentq(step, -1e300, 1e300, **tolerances)
    with pytest.raises(RuntimeError) as port_error:
        _brentq(step, -1e300, 1e300, **tolerances)
    assert str(port_error.value) == str(scipy_error.value)


def _eps_table_arguments(lat, basis):
    """|G| r at every index difference of `bands._eps_matrix`'s table."""
    span = 2 * int(np.abs(basis.indices).max())
    d = np.arange(-span, span + 1)
    dm, dn = np.meshgrid(d, d, indexing="ij")
    dg = dm[..., None] * basis.g1 + dn[..., None] * basis.g2
    return np.linalg.norm(dg, axis=-1).ravel() * lat.hole_radius


def test_j1_port_equals_scipy_bit_for_bit():
    # `_j1` ports Cephes j1 step for step, so every permittivity matrix, and
    # with it every band and mode, keeps the bits scipy.special.j1 gave: on
    # every argument of the paper's five hole ratios (bulk cutoff 7,
    # supercell 7 x 7 at cutoff 12) and on a seeded set in [0, 200].
    from scipy.special import j1

    from pcqed import cli
    from pcqed.bands import PlaneWaveBasis
    from pcqed.geometry import _hole_form_factor, _j1

    cfg = cli.parse_config(cli.REPRODUCE_CONFIG)
    args = [np.random.default_rng(27).uniform(0.0, 200.0, 100_000), np.linspace(0.0, 10.0, 10_001)]
    for ra in cfg.crystal.hole_ratio_values:
        lat = cfg.crystal.lattice(ra)
        for basis in (PlaneWaveBasis.bulk(lat, cfg.bands.cutoff),
                      PlaneWaveBasis.supercell(lat, cfg.modes.supercell_size, cfg.modes.cutoff)):
            args.append(_eps_table_arguments(lat, basis))
    assert (cfg.bands.cutoff, cfg.modes.supercell_size, cfg.modes.cutoff) == (7, 7, 12)
    for x in args:
        assert _j1(x).tobytes() == j1(x).tobytes()
        assert _j1(-x).tobytes() == j1(-x).tobytes()
    small = np.abs(args[-1]) < 1e-12
    safe = np.where(small, 1.0, args[-1])
    assert _hole_form_factor(args[-1]).tobytes() == np.where(
        small, 1.0, 2.0 * j1(safe) / safe).tobytes()


def test_effective_index_without_a_guided_mode():
    # A slab too thin for the dispersion to change sign on the bracket.
    with pytest.raises(ValueError) as err:
        effective_index(SlabWaveguide(1e-6, 3.4, 1.0), 1050.0)
    assert str(err.value) == ("no guided TE mode for d=1e-06 nm, n_core=3.4, n_clad=1.0, "
                              "wavelength=1050.0 nm")


def test_effective_index_bad_wavelength():
    with pytest.raises(ValueError):
        effective_index(SlabWaveguide(400.0, 3.4, 1.0), -5.0)


def test_slab_validation():
    with pytest.raises(ValueError):
        SlabWaveguide(thickness=0.0, n_core=3.4, n_clad=1.0)
    with pytest.raises(ValueError):
        SlabWaveguide(thickness=400.0, n_core=1.0, n_clad=1.0)
