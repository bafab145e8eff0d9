import warnings

import numpy as np
import pytest

from pcqed.tcspc import (
    BinGrid,
    DecayModel,
    InstrumentResponse,
    TransientHistogram,
    decay_terms,
    expected_curve,
    sample_histogram,
)

IRF = InstrumentResponse(fwhm=150.0, t0=600.0)


def grid(n_bins=4096, width=12.0):
    return BinGrid(bin_width=width, n_bins=n_bins)


# ---------------------------------------------------------------------------
# Expected curve
# ---------------------------------------------------------------------------

def test_delta_irf_limit_recovers_pure_exponential():
    g = grid(2048)
    t = g.centers()
    narrow = InstrumentResponse(fwhm=1e-6, t0=600.0)
    curve = expected_curve(DecayModel([(1.0, 800.0)]), narrow, g)
    mask = t > 610.0
    pure = np.exp(-(t[mask] - 600.0) / 800.0)
    np.testing.assert_allclose(curve[mask], pure, rtol=1e-6)


def test_area_conservation_under_convolution():
    # grid spanning +-8 sigma around t0 and 10 lifetimes
    g = BinGrid(bin_width=2.0, n_bins=5000, t_start=0.0)
    curve = expected_curve(DecayModel([(2.5, 800.0)]), IRF, g)
    integral = curve.sum() * g.bin_width
    assert integral == pytest.approx(2.5 * 800.0, rel=1e-3)


def _convolution_by_quadrature(amplitude, lifetime, irf, t_values, step=0.1):
    """Brute-force 0.1 ps Riemann convolution (midpoint sampling) of the
    exponential with the Gaussian. The cell grid is aligned so each requested
    t falls on a cell boundary, keeping the integrand's cut at s = t exact."""
    sigma = irf.sigma
    start = np.floor((irf.t0 - 10.0 * sigma) / step) * step
    n_steps = int(np.ceil((t_values.max() - start) / step)) + 1
    s_grid = start + (np.arange(n_steps) + 0.5) * step
    gauss = np.exp(-0.5 * ((s_grid - irf.t0) / sigma) ** 2) / (
        sigma * np.sqrt(2.0 * np.pi)
    )
    out = np.empty_like(t_values)
    for i, t in enumerate(t_values):
        lag = t - s_grid
        decay = np.where(lag >= 0.0, np.exp(-np.clip(lag, 0.0, None) / lifetime), 0.0)
        out[i] = amplitude * np.sum(gauss * decay) * step
    return out


def test_expected_curve_matches_quadrature_oracle():
    g = BinGrid(bin_width=12.0, n_bins=600)
    t = g.centers()
    curve = expected_curve(DecayModel([(1.0, 800.0)]), IRF, g)
    oracle = _convolution_by_quadrature(1.0, 800.0, IRF, t)
    mask = oracle > 1e-9 * oracle.max()
    rel = np.abs(curve[mask] - oracle[mask]) / oracle[mask]
    assert rel.max() < 1e-4


@pytest.mark.parametrize("lifetime", [44.0, 400.0, 1800.0])
@pytest.mark.parametrize("t0", [600.0, 731.7])
def test_exp_gauss_terms_match_central_differences(lifetime, t0):
    # One unit component of `decay_terms`: its rows are the unit EMG g,
    # dg/dtau and dg/dt0, against central differences of g.
    t = grid().centers()
    irf = InstrumentResponse(IRF.fwhm, t0)

    def g(lifetime, shift=0.0):
        return decay_terms(t, irf, np.array([1.0, lifetime, shift, 0.0]))

    mu, (unit, d_tau, d_t0, _) = g(lifetime)
    np.testing.assert_array_equal(mu, unit)
    np.testing.assert_array_equal(unit, expected_curve(DecayModel([(1.0, lifetime)]), irf, grid()))
    h_tau = 1e-5 * lifetime
    fd_tau = (g(lifetime + h_tau)[0] - g(lifetime - h_tau)[0]) / (2.0 * h_tau)
    h_t0 = 1e-3
    fd_t0 = (g(lifetime, h_t0)[0] - g(lifetime, -h_t0)[0]) / (2.0 * h_t0)
    np.testing.assert_allclose(d_tau, fd_tau, rtol=1e-5, atol=1e-7 * np.abs(fd_tau).max())
    np.testing.assert_allclose(d_t0, fd_t0, rtol=1e-5, atol=1e-7 * np.abs(fd_t0).max())


def test_decay_terms_jacobian_matches_central_differences():
    # Every column the fits use, assembled: the amplitudes, amplitude times
    # dg/dtau, the shift summed over both components, and the background.
    t = grid().centers()
    x = np.array([2.5, 150.0, 0.14, 1800.0, 37.0, 0.8])
    mu, J = decay_terms(t, IRF, x)
    shifted = InstrumentResponse(IRF.fwhm, IRF.t0 + x[4])
    model = DecayModel([(2.5, 150.0), (0.14, 1800.0)], background=0.8)
    np.testing.assert_array_equal(mu, expected_curve(model, shifted, grid()))
    assert J.shape == (6, len(t))
    for i, h in enumerate([1e-5 * abs(v) for v in x[:4]] + [1e-3, 1e-5]):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        fd = (decay_terms(t, IRF, up)[0] - decay_terms(t, IRF, down)[0]) / (2.0 * h)
        np.testing.assert_allclose(J[i], fd, rtol=1e-5, atol=1e-7 * np.abs(fd).max(),
                                   err_msg=f"parameter {i}")


def test_zero_amplitude_component_is_never_evaluated():
    # A component of amplitude 0 adds nothing to the curve. Evaluated, a
    # lifetime of 1e-300 ps would overflow (s/tau)^2 in the kernel.
    g = grid(1024)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow"):
            decay_terms(g.centers(), IRF, np.array([0.0, 1e-300, 1.0, 400.0, 0.0, 0.2]))
        curve = expected_curve(DecayModel([(0.0, 1e-300), (1.0, 400.0)], 0.2), IRF, g)
    np.testing.assert_array_equal(curve, expected_curve(DecayModel([(1.0, 400.0)], 0.2), IRF, g))


# ---------------------------------------------------------------------------
# The merged tail bin
# ---------------------------------------------------------------------------

SPAN = 4096 * 12.0
# Far enough after t0 for a shift of +2 FWHM and a lifetime of sigma/10, as
# the histogram fits place their merged bin.
FAR = IRF.t0 + 2.0 * IRF.fwhm + IRF.far_offset(0.1 * IRF.sigma)


@pytest.mark.parametrize("lifetime", [0.1 * IRF.sigma, IRF.sigma, 44.0, 840.0, 1800.0, 1e4,
                                      100.0 * SPAN])
@pytest.mark.parametrize("shift", [-2.0 * IRF.fwhm, 0.0, 2.0 * IRF.fwhm])
@pytest.mark.parametrize("end", [int(FAR / 12.0) + 1, 1600, 4095])
def test_merged_tail_sums_every_bin_it_replaces(lifetime, shift, end):
    # The merged bin against the explicit per-bin sums of mu and of every
    # Jacobian row, one component and two with a background, over tails
    # that exp underflows within (sigma/10 and sigma) or entirely, and a
    # one-bin tail. The counted span is evaluated as on the full grid.
    t = grid().centers()
    assert t[end] > FAR
    for x in ([3.0, lifetime, shift, 0.0], [3.0, lifetime, 0.2, 900.0, shift, 0.05]):
        x = np.array(x)
        mu, J = decay_terms(t, IRF, x)
        mu_span, J_span = decay_terms(t[:end], IRF, x, tail=(12.0, len(t) - end))
        assert mu_span.shape == (end + 1,) and J_span.shape == (len(x), end + 1)
        assert mu_span[:end].tobytes() == mu[:end].tobytes()
        assert J_span[:, :end].tobytes() == J[:, :end].tobytes()
        np.testing.assert_allclose(mu_span[end], mu[end:].sum(), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(J_span[:, end], J[:, end:].sum(axis=1), rtol=1e-12, atol=0.0)


def test_merged_tail_must_lie_past_the_irf():
    t = grid().centers()
    x = np.array([1.0, 0.1 * IRF.sigma, 0.0, 0.0])
    with pytest.raises(ValueError, match="not past the IRF"):
        decay_terms(t[:100], IRF, x, tail=(12.0, len(t) - 100))  # t = 1206 ps: u/s ~ 9.5


@pytest.mark.parametrize("ratio, fits", [(1e100, True), (1.34e154, True), (1.35e154, False)])
def test_irf_checks_reject_exactly_the_overflowing_squares(ratio, fits):
    # sqrt(float64 max) is 1.3408e154: sigma/tau, or u/sigma at a first bin
    # before t0, of 1.34e154 squares to a finite number, 1.35e154 overflows.
    g = grid(64)
    cases = [(IRF, DecayModel([(1.0, IRF.sigma / ratio)]), IRF.check_lifetime, IRF.sigma / ratio)]
    narrow = InstrumentResponse(fwhm=(600.0 - 6.0) / ratio * 2.355, t0=600.0)
    cases.append((narrow, DecayModel([(1.0, 400.0)]), narrow.check_grid, g))
    for irf, model, check, argument in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if fits:
                check(argument)
                assert np.all(np.isfinite(expected_curve(model, irf, g)))
            else:
                with pytest.raises(ValueError, match="overflows"):
                    check(argument)
                with pytest.raises(RuntimeWarning, match="overflow"):
                    expected_curve(model, irf, g)


def test_irf_grid_check_ignores_bins_after_t0():
    # Bins after t0 at a tiny IRF width are never squared: the curve is the
    # plain exponential there, and the grid passes.
    narrow = InstrumentResponse(fwhm=1e-300, t0=0.0)
    narrow.check_grid(grid(64))
    curve = expected_curve(DecayModel([(1.0, 400.0)]), narrow, grid(64))
    np.testing.assert_allclose(curve, np.exp(-grid(64).centers() / 400.0), rtol=1e-15)


def test_erfcx_port_within_8_ulp_of_mpmath():
    # `tcspc._erfcx` builds exp(x^2) erfc(x) from the Cephes rationals; each
    # branch and both branch points, against 40-digit mpmath, on [0, 30].
    import mpmath

    from pcqed.tcspc import _erfcx

    x = np.concatenate([
        np.linspace(0.0, 30.0, 3001),
        np.random.default_rng(28).uniform(0.0, 30.0, 1000),
        np.random.default_rng(29).uniform(0.5, 1.0, 1000),  # where 1 - erf cancels most
        np.nextafter([1.0, 1.0, 8.0, 8.0], [0.0, 2.0, 0.0, 9.0]),
    ])
    with mpmath.workdps(40):
        exact = np.array([float(mpmath.exp(mpmath.mpf(v) ** 2) * mpmath.erfc(mpmath.mpf(v)))
                          for v in x])
    ulps = np.abs(_erfcx(x) - exact) / np.spacing(exact)
    assert ulps.max() <= 8.0
    assert _erfcx(np.array([0.0, np.inf])).tolist() == [1.0, 0.0]


def test_curve_never_below_background():
    g = grid(1024)
    model = DecayModel([(1.0, 300.0)], background=0.7)
    curve = expected_curve(model, IRF, g)
    assert np.all(curve >= 0.7)


def test_biexponential_tail_slope():
    g = grid(4096)
    t = g.centers()
    model = DecayModel([(1.0, 150.0), (1.0 / 18.0, 1800.0)])
    curve = expected_curve(model, IRF, g)
    mask = (t > 600.0 + 8.0 * 150.0) & (curve > 1e-12)
    slope, _ = np.polyfit(t[mask], np.log(curve[mask]), 1)
    assert -1.0 / slope == pytest.approx(1800.0, rel=0.01)


def test_decay_model_validation():
    with pytest.raises(ValueError):
        DecayModel([])
    with pytest.raises(ValueError):
        DecayModel([(0.0, 100.0)])
    with pytest.raises(ValueError):
        DecayModel([(1.0, 100.0), (1.0, 100.0)])
    with pytest.raises(ValueError):
        DecayModel([(1.0, -5.0)])
    with pytest.raises(ValueError):
        DecayModel([(1.0, 100.0)], background=-1.0)
    with pytest.raises(ValueError):
        InstrumentResponse(fwhm=0.0)
    with pytest.raises(ValueError):
        BinGrid(bin_width=0.0, n_bins=10)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sampling_deterministic_for_fixed_seed():
    g = grid(512)
    curve = expected_curve(DecayModel([(1.0, 500.0)]), IRF, g)
    h1 = sample_histogram(curve, 50_000, 42, grid=g, irf=IRF)
    h2 = sample_histogram(curve, 50_000, 42, grid=g, irf=IRF)
    np.testing.assert_array_equal(h1.counts, h2.counts)
    h3 = sample_histogram(curve, 50_000, 43, grid=g, irf=IRF)
    assert np.any(h3.counts != h1.counts)


def test_multinomial_conserves_total():
    g = grid(512)
    curve = expected_curve(DecayModel([(1.0, 500.0)]), IRF, g)
    h = sample_histogram(curve, 31_415, 7, grid=g, irf=IRF)
    assert h.total_counts == 31_415


def test_poisson_background_added():
    g = grid(256)
    curve = expected_curve(DecayModel([(1.0, 500.0)]), IRF, g)
    h = sample_histogram(curve, 10_000, 7, grid=g, irf=IRF, background_rate=5.0)
    assert h.total_counts > 10_000


def test_sampling_input_validation():
    g = grid(64)
    with pytest.raises(ValueError):
        sample_histogram(np.zeros(64), 100, 1, grid=g, irf=IRF)
    with pytest.raises(ValueError):
        sample_histogram(-np.ones(64), 100, 1, grid=g, irf=IRF)
    with pytest.raises(ValueError):
        sample_histogram(np.ones(64), 0, 1, grid=g, irf=IRF)
    with pytest.raises(ValueError):
        sample_histogram(np.ones(32), 100, 1, grid=g, irf=IRF)


def test_flat_curve_law_of_large_numbers():
    # 10^6 photons over 8 bins: each bin within 1% of uniform in almost
    # every run (1% is ~3.5 sigma per bin).
    g = BinGrid(bin_width=10.0, n_bins=8)
    flat = np.ones(8)
    good = 0
    n_runs = 200
    for s in range(n_runs):
        h = sample_histogram(flat, 1_000_000, 9000 + s, grid=g, irf=IRF)
        dev = np.abs(h.counts / 125_000.0 - 1.0).max()
        good += dev < 0.01
    assert good >= 190


def test_sampling_preserves_expectation():
    g = grid(256, width=50.0)
    curve = expected_curve(DecayModel([(1.0, 2000.0)]), IRF, g)
    total = 20_000
    p = curve / curve.sum()
    n_seeds = 100
    acc = np.zeros(256)
    for s in range(n_seeds):
        acc += sample_histogram(curve, total, 40_000 + s, grid=g, irf=IRF).counts
    mean = acc / n_seeds
    expected = total * p
    se = np.sqrt(expected * (1.0 - p) / n_seeds)
    ok = np.abs(mean - expected) <= 3.0 * np.maximum(se, 1e-9)
    assert ok.mean() >= 0.95


def test_histogram_invariants():
    g = grid(128)
    curve = expected_curve(DecayModel([(1.0, 500.0)]), IRF, g)
    h = sample_histogram(curve, 5000, 3, grid=g, irf=IRF)
    assert h.total_counts == int(h.counts.sum())
    assert np.all(h.counts >= 0)
    assert h.grid.centers()[0] == pytest.approx(g.bin_width / 2.0)
    with pytest.raises(ValueError):
        TransientHistogram(counts=np.array([-1, 2]), grid=BinGrid(1.0, 2), irf=IRF)
    with pytest.raises(ValueError, match="3 counts on a grid of 2 bins"):
        TransientHistogram(counts=np.array([1, 2, 3]), grid=BinGrid(1.0, 2), irf=IRF)
