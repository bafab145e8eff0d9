import numpy as np
import pytest
from scipy.special import erfc, erfcx

from pcqed import fitting, tcspc
from pcqed.cavity import CavityMode, coupling_efficiency
from pcqed.fitting import (
    STOP_REASONS,
    FitConvergenceError,
    SpectralScan,
    fit_biexponential,
    fit_monoexponential,
    fit_spectral_model,
    poisson_deviance,
    select_model,
    synthesize_spectral_scan,
)
from pcqed.tcspc import BinGrid, DecayModel, InstrumentResponse, expected_curve, sample_histogram

IRF = InstrumentResponse(fwhm=150.0, t0=600.0)
GRID = BinGrid(bin_width=12.0, n_bins=4096)
M2 = CavityMode(lambda_c=1031.5, q_factor=1950.0)


def synth(components, total=100_000, seed=0, grid=GRID, background_rate=0.0):
    curve = expected_curve(DecayModel(components), IRF, grid)
    return sample_histogram(
        curve, total, seed, grid=grid, irf=IRF, background_rate=background_rate
    )


# ---------------------------------------------------------------------------
# Reconvolution fits
# ---------------------------------------------------------------------------

def test_noise_free_identifiability():
    # Noise-free expectation at a scale where integer rounding (a few counts
    # lost in the deep tail) is far below the 1e-4 recovery bar.
    scale = 1e9 / 840.0 * GRID.bin_width
    curve = scale * expected_curve(DecayModel([(1.0, 840.0)]), IRF, GRID)
    hist = tcspc.TransientHistogram(counts=np.round(curve).astype(np.int64), grid=GRID, irf=IRF)
    result = fit_monoexponential(hist)
    assert result["lifetime_ps"] == pytest.approx(840.0, rel=1e-4)
    assert result["amplitude"] == pytest.approx(scale, rel=1e-3)


def test_mono_round_trip_840ps():
    result = fit_monoexponential(synth([(1.0, 840.0)], seed=20240801))
    assert result.converged
    assert result["lifetime_ps"] == pytest.approx(840.0, rel=0.03)
    assert result.std_errors["lifetime_ps"] > 0


def test_mono_round_trip_1800ps():
    result = fit_monoexponential(synth([(1.0, 1800.0)], seed=20240802))
    assert result["lifetime_ps"] == pytest.approx(1800.0, rel=0.03)


def test_bi_round_trip_separated():
    # fast component holds 60% of the counts: A*tau2 / total = 0.6
    hist = synth([(1.0, 150.0), (1.0 / 18.0, 1800.0)], seed=20240803)
    result = fit_biexponential(hist)
    assert result["lifetime_slow_ps"] == pytest.approx(1800.0, rel=0.05)
    assert result["lifetime_fast_ps"] == pytest.approx(150.0, rel=0.20)
    assert result["lifetime_fast_ps"] < result["lifetime_slow_ps"]


def test_bi_collapses_on_mono_data():
    hist = synth([(1.0, 840.0)], seed=4242)
    result = fit_biexponential(hist)
    assert result["lifetime_slow_ps"] == pytest.approx(840.0, rel=0.03)
    amp = result["amplitude_fast"]
    err = result.std_errors["amplitude_fast"]
    assert amp <= 2.0 * err or amp < 1e-6


def test_bi_at_resolution_floor():
    # 44 ps against a 150 ps IRF: the slow constant stays accurate while the
    # fast one carries a visibly larger relative uncertainty.
    hist = synth([(1.0, 44.0), (0.02, 1800.0)], seed=777)
    result = fit_biexponential(hist)
    assert result["lifetime_slow_ps"] == pytest.approx(1800.0, rel=0.05)
    rel_fast = result.std_errors["lifetime_fast_ps"] / result["lifetime_fast_ps"]
    rel_slow = result.std_errors["lifetime_slow_ps"] / result["lifetime_slow_ps"]
    assert rel_fast > 2.0 * rel_slow


def test_degenerate_lifetimes_flagged():
    hist = synth([(1.0, 840.0), (1.0, 882.0)], total=200_000, seed=99)
    result = fit_biexponential(hist)
    ratio = result["lifetime_slow_ps"] / result["lifetime_fast_ps"]
    if ratio < 1.2:
        assert any("unidentifiable" in w for w in result.warnings)


def test_low_statistics_warning():
    hist = synth([(1.0, 840.0)], total=500, seed=5)
    result = fit_monoexponential(hist)
    assert any("low statistics" in w for w in result.warnings)


def test_fit_reports_goodness_and_iterations():
    result = fit_monoexponential(synth([(1.0, 840.0)], seed=11))
    assert result.goodness_kind == "poisson-deviance"
    # reduced deviance < 1 here: most bins are near-empty tail, where each
    # contributes far less than one unit to the deviance
    assert 0.05 < result.goodness < 1.5
    assert 0 < result.iterations <= 200
    assert result.n_points == GRID.n_bins
    assert set(result.parameter_order) == set(result.parameters)


def test_stop_reason_reported(monkeypatch):
    hist = synth([(1.0, 840.0)], seed=11)
    result = fit_monoexponential(hist)
    assert result.converged and result.stop_reason in STOP_REASONS[:3]
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
    with pytest.raises(FitConvergenceError) as err:
        fit_monoexponential(hist)
    assert err.value.result.stop_reason == "budget"
    assert not err.value.result.converged


@pytest.mark.parametrize("fit, n_params", [(fit_monoexponential, 4), (fit_biexponential, 6)])
def test_fit_needs_more_bins_than_parameters(fit, n_params):
    hist = synth([(1.0, 840.0)], grid=BinGrid(bin_width=12.0, n_bins=n_params), seed=2)
    message = f"{n_params} data points cannot determine {n_params} fit parameters"
    with pytest.raises(ValueError, match=message):
        fit(hist)


def test_shared_curve_definition_wilks():
    # Fitting data with its own generator: the deviance gain of the fitted
    # over the true parameters follows Wilks. Of the four parameters, the
    # amplitude gains nothing (the multinomial generator fixes the total
    # count exactly) and the background sits at its zero boundary, leaving
    # an expected gain of about two (lifetime and t0 shift).
    gains = []
    model = DecayModel([(1.0, 840.0)])
    curve = expected_curve(model, IRF, GRID)
    scale = 100_000 / curve.sum()
    for s in range(30):
        hist = synth([(1.0, 840.0)], seed=60_000 + s)
        fit = fit_monoexponential(hist)
        d_true = poisson_deviance(hist.counts.astype(float), scale * curve)
        gains.append(d_true - fit.statistic)
    assert min(gains) > -0.5  # the fit is never worse than the truth
    assert np.mean(gains) == pytest.approx(2.0, abs=1.2)


def test_coverage_of_one_sigma_interval():
    hits = 0
    n = 100
    for s in range(n):
        hist = synth([(1.0, 840.0)], seed=31_000 + s, grid=BinGrid(12.0, 2048))
        r = fit_monoexponential(hist)
        hits += abs(r["lifetime_ps"] - 840.0) <= r.std_errors["lifetime_ps"]
    assert 60 <= hits <= 75


def test_estimator_consistency_with_counts():
    taus = {}
    for total in (10_000, 100_000, 1_000_000):
        est = [
            fit_monoexponential(synth([(1.0, 840.0)], total=total, seed=70_000 + s))[
                "lifetime_ps"
            ]
            for s in range(8)
        ]
        taus[total] = abs(np.mean(est) - 840.0) / 840.0
    assert taus[1_000_000] < taus[10_000]
    assert taus[1_000_000] < 0.005


# ---------------------------------------------------------------------------
# Model selection
# ---------------------------------------------------------------------------

def test_select_model_noise_free_mono():
    curve = 1000.0 * expected_curve(DecayModel([(1.0, 840.0)]), IRF, GRID)
    hist = tcspc.TransientHistogram(counts=np.round(curve).astype(np.int64), grid=GRID, irf=IRF)
    sel = select_model(hist)
    assert sel.choice == "mono"


def test_select_model_smoke():
    sel = select_model(synth([(1.0, 840.0)], seed=5001))
    assert sel.choice == "mono"
    assert sel.best is sel.mono
    sel = select_model(synth([(1.0, 150.0), (1.0 / 18.0, 1800.0)], seed=6001))
    assert sel.choice == "bi"
    assert sel.delta_deviance > 9.0


def test_bi_result_carries_beta_and_its_delta_method_error():
    hist = synth([(1.0, 150.0), (1.0 / 18.0, 1800.0)], seed=20240803)
    result = fit_biexponential(hist)
    fast, slow = result["lifetime_fast_ps"], result["lifetime_slow_ps"]
    assert result.extras["beta"] == coupling_efficiency(fast, slow)
    grad = np.zeros(6)
    grad[result.parameter_order.index("lifetime_fast_ps")] = -1.0 / slow
    grad[result.parameter_order.index("lifetime_slow_ps")] = fast / slow**2
    assert result.extras["beta_std_error"] == pytest.approx(
        np.sqrt(grad @ result.covariance @ grad), rel=1e-12)
    assert 0.0 < result.extras["beta_std_error"] < 0.05


def test_select_model_results_carry_their_extras():
    hist = synth([(1.0, 150.0), (1.0 / 18.0, 1800.0)], seed=6001)
    sel = select_model(hist)
    assert sel.mono.extras == {}
    assert sel.bi.extras == fit_biexponential(hist).extras
    assert set(sel.bi.extras) == {"beta", "beta_std_error"}


def late_grid_histogram():
    """512 bins of 12 ps from 3000 ps, long after the IRF at 600 ps, with
    counts only in the first five: no fit converges, and the two-component
    covariance holds -inf."""
    counts = np.zeros(512, dtype=np.int64)
    counts[:5] = [5, 4, 3, 2, 1]
    return tcspc.TransientHistogram(counts=counts, grid=BinGrid(12.0, 512, 3000.0), irf=IRF)


@pytest.mark.parametrize("fit", [fit_monoexponential, fit_biexponential, select_model])
def test_a_covariance_holding_inf_leaves_beta_without_an_error_and_warns_nothing(fit):
    # Pytest turns a RuntimeWarning into a failure: the delta method's
    # quadratic form must not leak one.
    with pytest.raises(FitConvergenceError, match=r"in 2 iterations \(budget\)") as err:
        fit(late_grid_histogram())
    result = err.value.result
    if result.model == "biexponential":
        assert not np.isfinite(result.covariance).all()
        fast, slow = result["lifetime_fast_ps"], result["lifetime_slow_ps"]
        assert result.extras == {"beta": coupling_efficiency(fast, slow), "beta_std_error": None}


def _emg(t, amplitude, lifetime, sigma, t0):
    # Closed-form exponentially-modified Gaussian, independent of pcqed.tcspc.
    u = t - t0
    z = (sigma / lifetime - u / sigma) / np.sqrt(2.0)
    early = z >= 0
    out = np.empty_like(u)
    out[early] = (0.5 * amplitude * np.exp(-0.5 * (u[early] / sigma) ** 2)
                  * erfcx(z[early]))
    late = ~early
    out[late] = (0.5 * amplitude
                 * np.exp(0.5 * (sigma / lifetime) ** 2 - u[late] / lifetime)
                 * erfc(z[late]))
    return out


@pytest.mark.parametrize("lifetime", [0.5, 3.0, 44.0, 840.0, 1800.0, 1e6])
@pytest.mark.parametrize("t0", [600.0, 731.7, -3000.0])
def test_exp_gauss_terms_match_the_closed_form(lifetime, t0):
    # The unit component of `tcspc.decay_terms` against the scipy closed form
    # above, over the saturated tail (z < -6, where erfc == 2), the far-early
    # bins (z >= 8), lifetimes whose exp(s^2/2tau^2) overflows, and the
    # flushed tail.
    t = GRID.centers()
    irf = tcspc.InstrumentResponse(IRF.fwhm, t0)
    g = tcspc.decay_terms(t, irf, np.array([1.0, lifetime, 0.0, 0.0]))[1][0]
    with np.errstate(over="ignore", invalid="ignore"):
        reference = _emg(t, 1.0, lifetime, IRF.sigma, t0)
    finite = np.isfinite(reference)
    assert np.abs(g[finite] - reference[finite]).max() <= 1e-13 * max(g.max(), 1e-300)
    assert np.all(np.isfinite(g)) and np.all(g >= 0.0)


def test_nested_fits_never_worse_than_mono():
    # The paper's detuning scan: 51 wavelengths, each a fast cavity-modified
    # component plus an 1800 ps one. Two components contain one, so at the
    # optimum the biexponential deviance can never exceed the mono deviance.
    t = GRID.centers()
    width = M2.lambda_c / M2.q_factor
    rng_streams = np.random.SeedSequence(20261018).spawn(51)
    for lam, stream in zip(np.linspace(1029.0, 1034.0, 51), rng_streams):
        lorentz = width**2 / (width**2 + 4.0 * (lam - M2.lambda_c) ** 2)
        tau = 840.0 / (56.0 / 3.0 * lorentz + 0.47)
        mu = (_emg(t, 1.0, tau, IRF.sigma, IRF.t0)
              + _emg(t, 0.0556, 1800.0, IRF.sigma, IRF.t0))
        counts = np.random.default_rng(stream).multinomial(100_000, mu / mu.sum())
        hist = tcspc.TransientHistogram(counts=counts, grid=GRID, irf=IRF)
        sel = select_model(hist)
        assert sel.bi.statistic <= sel.mono.statistic * (1 + 1e-9), lam


def _scan_histogram_counts(lam, seed):
    """Counts like the benchmark's scan: a detuned fast component plus 1800 ps."""
    t = GRID.centers()
    width = M2.lambda_c / M2.q_factor
    tau = 840.0 / (56.0 / 3.0 * width**2 / (width**2 + 4.0 * (lam - M2.lambda_c) ** 2) + 0.47)
    mu = _emg(t, 1.0, tau, IRF.sigma, IRF.t0) + _emg(t, 0.0556, 1800.0, IRF.sigma, IRF.t0)
    return np.random.default_rng(seed).multinomial(100_000, mu / mu.sum()), mu


def _deviance_in_one_expression(counts, mu):
    # The statistic with every term, count-only ones included, made afresh.
    mu = np.maximum(mu, 1e-300)
    y = np.asarray(counts, dtype=float)
    seen = np.flatnonzero(y)
    return 2.0 * float(mu.sum() - y[seen].sum() + y[seen] @ np.log(y[seen] / mu[seen]))


@pytest.mark.parametrize("lam", [1029.0, 1031.5, 1034.0])
def test_hoisted_deviance_is_bit_identical(lam):
    counts, shape = _scan_histogram_counts(lam, seed=int(lam * 10))
    tail = counts.copy()
    tail[1500:] = 0  # an all-zero tail
    for y in (counts, tail, counts.astype(float)):
        deviance = fitting._deviance(y)  # made once, as `_minimize` makes it
        expected = 1e5 * shape / shape.sum()
        tiny = expected.copy()
        tiny[::7] = 1e-320  # below the 1e-300 floor, at seen and unseen bins
        tiny[2000:2100] = 0.0
        for mu in (expected, 0.5 * expected + 3.0, tiny, np.full(len(y), 1e-301)):
            bits = _deviance_in_one_expression(y, mu).hex()
            assert deviance(mu).hex() == bits
            assert poisson_deviance(y, mu).hex() == bits


def test_gauss_newton_with_every_coordinate_free_uses_the_same_values():
    # The normal matrix sums the observed curvature y/mu^2 over the bins that
    # hold counts only: the empty ones, the merged tail bin among them, weigh 0.
    counts, _ = _scan_histogram_counts(1031.5, seed=5)
    hist = tcspc.TransientHistogram(counts=counts, grid=GRID, irf=IRF)
    model = fitting._Reconvolution(hist, 1)
    assert model.tail is not None and model.y[-1] == 0.0
    x = np.array([200.0, 300.0, 0.0, 1.0])
    mu, J = model(x)
    free, _, N, scale, _ = fitting._gauss_newton(x, mu, J, model.y, model.lower, model.upper)
    assert free.all()
    inv_mu = 1.0 / np.maximum(mu, fitting.MU_FLOOR)
    Jf = J[free]  # the indexed copy taken when a coordinate is held
    seen = np.flatnonzero(model.y)
    Js = Jf.take(seen, axis=1)
    counted = 2.0 * ((Js * (model.y.take(seen) * inv_mu.take(seen) ** 2)) @ Js.T)
    assert N.tobytes() == counted.tobytes()
    np.testing.assert_allclose(N, 2.0 * ((Jf * (model.y * inv_mu**2)) @ Jf.T), rtol=1e-12, atol=0.0)
    assert scale.tobytes() == (2.0 * ((Jf * Jf) @ inv_mu)).tobytes()


# ---------------------------------------------------------------------------
# The counted span: histogram fits against their evaluation on every bin
# ---------------------------------------------------------------------------

def _full_grid_selection(hist):
    """`select_model` with the model evaluated on every bin, no merged bin,
    and each nested start from a fresh evaluation: the mono and bi (x,
    deviance, iterations), the bi with its faster component first."""
    t, y = hist.grid.centers(), hist.counts.astype(float)

    def evaluate(x):
        return tcspc.decay_terms(t, hist.irf, x)

    mono_bounds, bi_bounds = fitting._Reconvolution(hist, 1), fitting._Reconvolution(hist, 2)
    bg0 = fitting._background_guess(y)
    tau0 = fitting._tail_lifetime_guess(t, y, hist.grid.bin_width)
    amp0 = max(y.sum() - bg0 * len(y), 1.0) / evaluate(np.array([1.0, tau0, 0.0, 0.0]))[0].sum()
    xm, _, _, dev_m, it_m, _ = fitting._minimize(
        np.array([amp0, tau0, 0.0, bg0]), evaluate, y, mono_bounds.lower, mono_bounds.upper)
    lower, upper = bi_bounds.lower, bi_bounds.upper
    best = None
    for factor in fitting.SECOND_LIFETIME_GRID:
        x0 = np.clip(np.array([0.0, factor * xm[1], *xm]), lower, upper)
        mu, J = evaluate(x0)
        _, g, _, _, newton = fitting._gauss_newton(x0, mu, J, y, lower, upper)
        gain = 0.0 if newton is None else -float(g @ newton)
        if best is None or gain > best[0]:
            best = (gain, x0, (mu, J))
    xb, _, _, dev_b, it_b, _ = fitting._minimize(best[1], evaluate, y, lower, upper,
                                                 initial=best[2])
    if xb[1] > xb[3]:
        xb = xb[[2, 3, 0, 1, 4, 5]]
    return (xm, dev_m, it_m), (xb, dev_b, it_b)


@pytest.mark.parametrize("lam, seed", [(1029.0, 11), (1031.5, 12), (1032.2, 13), (1034.0, 14)])
def test_counted_span_fits_match_the_full_grid(lam, seed):
    # Exact in exact arithmetic; in float64 the loop's path moves within its
    # stopping tolerance: parameters by 1e-4 relative (plus a hundredth of a
    # standard error, for backgrounds near 0), the deviance by 1e-5 relative.
    counts, _ = _scan_histogram_counts(lam, seed)
    hist = tcspc.TransientHistogram(counts=counts, grid=GRID, irf=IRF)
    assert fitting._Reconvolution(hist, 2).tail is not None
    sel = select_model(hist)
    for fit, (x, deviance, _) in zip((sel.mono, sel.bi), _full_grid_selection(hist)):
        assert fit.n_points == GRID.n_bins
        errors = np.array(list(fit.std_errors.values()))
        params = np.array(list(fit.parameters.values()))
        assert np.all(np.abs(params - x) <= 1e-4 * np.abs(x) + 1e-2 * errors), fit.model
        assert abs(fit.statistic - deviance) <= 1e-5 * deviance


def test_histogram_counted_to_its_last_bin_fits_as_on_the_full_grid():
    # Counts in every bin: no merged bin, and every figure bit for bit.
    hist = synth([(1.0, 840.0), (0.0556, 1800.0)], seed=4, background_rate=20.0)
    assert np.all(hist.counts > 0)
    assert fitting._Reconvolution(hist, 1).tail is None
    sel = select_model(hist)
    for fit, (x, deviance, iterations) in zip((sel.mono, sel.bi), _full_grid_selection(hist)):
        assert np.array(list(fit.parameters.values())).tobytes() == x.tobytes()
        assert fit.statistic.hex() == deviance.hex()
        assert fit.iterations == iterations


def test_nested_start_is_the_mono_optimum_plus_one_row_bit_for_bit():
    # Each grid candidate's (mu, J) is the mono optimum's, with the new
    # component's amplitude row on top and a zero lifetime row: what a full
    # evaluation at the candidate gives, merged bin included. The fit takes
    # that row as the curve of the model at amplitude 1 and background 0.
    counts, _ = _scan_histogram_counts(1031.0, seed=21)
    hist = tcspc.TransientHistogram(counts=counts, grid=GRID, irf=IRF)
    mono_model, model = fitting._Reconvolution(hist, 1), fitting._Reconvolution(hist, 2)
    assert model.tail is not None
    x, mu, J, *_ = fitting._mono_minimum(mono_model)
    for factor in fitting.SECOND_LIFETIME_GRID:
        x0 = np.clip(np.array([0.0, factor * x[1], *x]), model.lower, model.upper)
        mu0, J0 = model(x0)
        assert mu0.tobytes() == mu.tobytes()
        unit = model(np.array([1.0, x0[1], x[2], 0.0]))[0]
        assert unit.tobytes() == J0[0].tobytes()
        assert not J0[1].any()
        assert J0[2:].tobytes() == J.tobytes()
    # The mono start's unit shape, likewise: the amplitude row of a full
    # evaluation at that lifetime, whatever the amplitude and background.
    shape = mono_model(np.array([1.0, x[1], 0.0, 0.0]))[0]
    assert shape.tobytes() == mono_model(np.array([x[0], x[1], 0.0, x[3]]))[1][0].tobytes()


def test_damping_and_projection_keep_the_bits_of_diag_and_clip():
    counts, _ = _scan_histogram_counts(1030.0, seed=22)
    hist = tcspc.TransientHistogram(counts=counts, grid=GRID, irf=IRF)
    model = fitting._Reconvolution(hist, 2)
    x = np.array([0.3, 150.0, 0.05, 1800.0, 5.0, 0.01])
    mu, J = model(x)
    _, _, N, scale, _ = fitting._gauss_newton(x, mu, J, model.y, model.lower, model.upper)
    for damping in (1e-14, 1e-3, 0.37, 1e4, 1e13):
        damped = N.copy()
        damped.flat[:: len(N) + 1] += damping * scale
        assert damped.tobytes() == (N + np.diag(damping * scale)).tobytes()
    rng = np.random.default_rng(0)
    for _ in range(20):
        candidate = x + rng.normal(0.0, 1.0, x.size) * np.array([1.0, 1e3, 1.0, 1e7, 1e3, 1.0])
        projected = np.minimum(np.maximum(candidate, model.lower), model.upper)
        assert projected.tobytes() == np.clip(candidate, model.lower, model.upper).tobytes()


# ---------------------------------------------------------------------------
# Spectral detuning fit
# ---------------------------------------------------------------------------

def scan_wavelengths(span=2.5, step=0.1):
    return np.arange(M2.lambda_c - span, M2.lambda_c + span + step / 2.0, step)


def test_generator_matches_single_mode_formula():
    lam = scan_wavelengths()
    scan = synthesize_spectral_scan([M2], [56.0], 0.47, 840.0, lam, 0.0, seed=1)
    dl = M2.lambda_c / M2.q_factor
    for x, tau in zip(scan.wavelengths, scan.lifetimes):
        ratio = 56.0 / 3.0 * dl**2 / (dl**2 + 4.0 * (M2.lambda_c - x) ** 2) + 0.47
        assert tau == pytest.approx(840.0 / ratio, rel=1e-12)


def test_spectral_round_trip():
    scan = synthesize_spectral_scan(
        [M2], [56.0], 0.47, 840.0, scan_wavelengths(), 0.05, seed=501
    )
    result = fit_spectral_model(scan, [M2])
    assert result["purcell_factor"] == pytest.approx(56.0, abs=10.0)
    assert result.extras["lifetime_ratio_max"] == pytest.approx(19.0, abs=4.0)
    assert result.extras["tau_on_resonance_ps"][0] == pytest.approx(44.0, abs=8.0)
    assert result.extras["modes_used"] == [(M2.lambda_c, M2.q_factor)]


def test_spectral_null_enhancement():
    scan = synthesize_spectral_scan(
        [M2], [0.0], 0.47, 840.0, scan_wavelengths(), 0.02, seed=77
    )
    result = fit_spectral_model(scan, [M2])
    fp = result["purcell_factor"]
    assert fp < 2.0 * result.std_errors["purcell_factor"] + 1e-6 or fp < 1e-6
    # tau(lambda) essentially flat
    spread = scan.lifetimes.std() / scan.lifetimes.mean()
    assert spread < 0.05


def test_spectral_two_modes():
    m1 = CavityMode(lambda_c=1025.4, q_factor=1500.0)
    lam = np.arange(1022.0, 1035.0 + 0.05, 0.1)
    scan = synthesize_spectral_scan(
        [m1, M2], [40.0, 56.0], 0.47, 840.0, lam, 0.03, seed=19
    )
    result = fit_spectral_model(scan, [m1, M2])
    assert result["purcell_factor_1"] == pytest.approx(40.0, abs=8.0)
    assert result["purcell_factor_2"] == pytest.approx(56.0, abs=8.0)
    # The on-resonance figures: F_m/3 + alpha, tau0 over it, and beta, bit for bit.
    alpha = result["alpha"]
    ratios = [result[f"purcell_factor_{m}"] / 3.0 + alpha for m in (1, 2)]
    assert result.extras["lifetime_ratio_per_mode"] == ratios
    assert result.extras["lifetime_ratio_max"] == max(ratios)
    assert result.extras["tau_on_resonance_ps"] == [840.0 / r for r in ratios]
    assert result.extras["beta_per_mode"] == [1.0 - alpha / r for r in ratios]


def vanished_mode_scan(seed):
    """A two-mode scan whose first mode has no enhancement and no residual
    decay (F_1 = alpha = 0): at seeds 1 and 6 its fit ends with both on 0."""
    modes = [CavityMode(lambda_c=1025.0, q_factor=1950.0), M2]
    lam = np.arange(1022.0, 1035.0 + 0.05, 0.1)
    return synthesize_spectral_scan(modes, [0.0, 56.0], 0.0, 840.0, lam, 0.03, seed), modes


@pytest.mark.parametrize("seed", [1, 6])
def test_spectral_fit_with_a_vanished_mode_reports_no_lifetime_for_it(seed):
    scan, modes = vanished_mode_scan(seed)
    result = fit_spectral_model(scan, modes)
    assert result.converged
    assert (result["purcell_factor_1"], result["alpha"]) == (0.0, 0.0)
    assert result.extras["lifetime_ratio_per_mode"][0] == 0.0
    assert result.extras["tau_on_resonance_ps"][0] is None
    assert result.extras["beta_per_mode"][0] is None
    ratio = result["purcell_factor_2"] / 3.0
    assert result.extras["tau_on_resonance_ps"][1] == 840.0 / ratio
    assert result.extras["beta_per_mode"][1] == 1.0


@pytest.mark.parametrize("fps, alpha, noise", [
    ([0.0], 0.0, 0.05),  # tau0 / 0
    ([0.0], 0.0, 0.0),
    ([56.0], 0.47, 1e308),  # tau (1 + 1e308 n) and 1e308 tau overflow
])
def test_synthesized_scan_refuses_non_finite_lifetimes(fps, alpha, noise):
    # Pytest turns a RuntimeWarning into a failure: none may leak.
    with pytest.raises(ValueError, match=r"scan point 0 at 1029\.0\d* nm: .* ps is not finite"):
        synthesize_spectral_scan([M2], fps, alpha, 840.0, scan_wavelengths(), noise, seed=1)


def test_spectral_span_requirement():
    lam = np.arange(M2.lambda_c - 0.5, M2.lambda_c + 0.5, 0.05)
    scan = synthesize_spectral_scan([M2], [56.0], 0.47, 840.0, lam, 0.05, seed=3)
    with pytest.raises(ValueError):
        fit_spectral_model(scan, [M2])


def test_spectral_fit_out_of_budget_raises_with_its_result(monkeypatch):
    scan = synthesize_spectral_scan([M2], [56.0], 0.47, 840.0, scan_wavelengths(), 0.03, seed=4)
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
    with pytest.raises(FitConvergenceError, match="spectral-detuning fit did not converge") as err:
        fit_spectral_model(scan, [M2])
    result = err.value.result
    assert result.stop_reason == "budget" and not result.converged
    assert result.goodness_kind == "weighted-chi-square"
    assert result.extras["lifetime_ratio_max"] > 0


@pytest.mark.parametrize("huge", [1e12, 1e20, 1e60])
def test_spectral_fit_never_divides_by_a_zero_ratio(huge):
    # The huge row pulls every F_m and alpha towards their bound 0, where the
    # model tau0 / ratio is undefined; pytest turns a RuntimeWarning into a failure.
    scan = synthesize_spectral_scan([M2], [56.0], 0.47, 840.0, scan_wavelengths(), 0.05, seed=5)
    lifetimes = scan.lifetimes.copy()
    lifetimes[3] = huge
    result = fit_spectral_model(
        SpectralScan(scan.wavelengths, lifetimes, scan.errors, scan.reference_tau0), [M2]
    )
    assert np.all(np.isfinite(list(result.parameters.values())))
    assert np.all(np.isfinite(result.extras["tau_on_resonance_ps"]))


def test_spectral_fit_with_an_uncertainty_near_the_float_limit_converges():
    # One uncertainty of 1e-130..1e-154 ps gives a weight 1/sigma^2 up to
    # 1e308; the normal matrix (weight times squared derivatives) and its
    # damping must stay finite. Pytest turns a RuntimeWarning into a failure.
    lam = 1029.0 + 0.1 * np.arange(51)
    taus = 840.0 / (56.0 / 3.0 / (1.0 + (2.0 * (lam - 1031.5) / 0.529) ** 2) + 0.47)
    for row in (3, 20, 25):
        for exponent in range(130, 155):
            errors = 0.05 * taus
            errors[row] = 10.0**-exponent
            result = fit_spectral_model(SpectralScan(lam, taus, errors, 840.0), [M2])
            assert result.converged, (row, exponent)
            assert np.isfinite(result.statistic) and np.all(np.isfinite(result.covariance))


def test_weight_scaling_leaves_ordinary_weights_alone():
    weights = 1.0 / (0.05 * np.linspace(40.0, 800.0, 51)) ** 2
    scaled, factor = fitting._scaled_weights(weights)
    assert factor == 1.0 and np.array_equal(scaled, weights)
    weights[7] = 1e300
    scaled, factor = fitting._scaled_weights(weights)
    assert scaled.max() <= 2.0**512
    assert np.array_equal(scaled * factor, weights)  # a power of two: exact


@pytest.mark.parametrize("weights", [None, np.ones(3)])
def test_minimize_without_a_free_coordinate_stops_on_the_gradient(weights):
    # No parameter moves the model: the Gauss-Newton step on the empty set of
    # free coordinates predicts no reduction, so the loop stops at once.
    lower, upper = np.zeros(2), np.full(2, np.inf)
    *_, iterations, stop = fitting._minimize(
        np.ones(2), lambda x: (np.full(3, 2.0), np.zeros((2, 3))), np.array([1.0, 2.0, 3.0]),
        lower, upper, weights=weights,
    )
    assert (iterations, stop) == (1, "gradient")


def test_spectral_scan_validation():
    with pytest.raises(ValueError):
        SpectralScan(wavelengths=np.array([2.0, 1.0]), lifetimes=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        SpectralScan(wavelengths=np.array([1.0, 2.0]), lifetimes=np.array([1.0, -1.0]))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="scan point 1 at 2.0 nm: lifetime"):
            SpectralScan(wavelengths=[1.0, 2.0], lifetimes=[1.0, bad])
        with pytest.raises(ValueError, match="scan point 1 at 2.0 nm: uncertainty"):
            SpectralScan(wavelengths=[1.0, 2.0], lifetimes=[1.0, 1.0], errors=[1.0, bad])
    with pytest.raises(ValueError):
        fit_spectral_model(
            SpectralScan(
                wavelengths=np.array([1030.0, 1031.0, 1033.0]),
                lifetimes=np.array([100.0, 50.0, 100.0]),
                reference_tau0=840.0,
            ),
            [],
        )


def test_resolution_floor_broadens_lifetime_dip():
    # Lifetimes clipped at the 150 ps instrument floor produce a dip in
    # tau(lambda) much wider than the cavity linewidth.
    lam = np.arange(M2.lambda_c - 8.0, M2.lambda_c + 8.0, 0.01)
    scan = synthesize_spectral_scan([M2], [56.0], 0.47, 840.0, lam, 0.0, seed=1)
    clipped = np.maximum(scan.lifetimes, 150.0)
    half_depth = 0.5 * (clipped.max() + clipped.min())
    width = np.ptp(lam[clipped <= half_depth])
    assert width > 2.0 * M2.linewidth
