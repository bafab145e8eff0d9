import numpy as np
import pytest
from scipy.special import erfc, erfcx

from pcqed import tcspc
from pcqed.cavity import CavityMode
from pcqed.fitting import (
    STOP_REASONS,
    FitConvergenceError,
    SpectralScan,
    fit_biexponential,
    fit_monoexponential,
    fit_spectral_model,
    poisson_deviance,
    scan_lifetime,
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
    hist = tcspc.TransientHistogram(
        bin_width=GRID.bin_width, t_start=GRID.t_start,
        counts=np.round(curve).astype(np.int64), irf=IRF,
    )
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


def test_stop_reason_reported():
    hist = synth([(1.0, 840.0)], seed=11)
    result = fit_monoexponential(hist)
    assert result.converged and result.stop_reason in STOP_REASONS[:3]
    with pytest.raises(FitConvergenceError) as err:
        fit_monoexponential(hist, max_iterations=1)
    assert err.value.result.stop_reason == "budget"
    assert not err.value.result.converged


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
    hist = tcspc.TransientHistogram(
        bin_width=GRID.bin_width, t_start=GRID.t_start,
        counts=np.round(curve).astype(np.int64), irf=IRF,
    )
    sel = select_model(hist)
    assert sel.choice == "mono"


def test_select_model_smoke():
    sel = select_model(synth([(1.0, 840.0)], seed=5001))
    assert sel.choice == "mono"
    assert sel.best is sel.mono
    sel = select_model(synth([(1.0, 150.0), (1.0 / 18.0, 1800.0)], seed=6001))
    assert sel.choice == "bi"
    assert sel.delta_deviance > 9.0


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
        hist = tcspc.TransientHistogram(
            bin_width=GRID.bin_width, t_start=GRID.t_start, counts=counts, irf=IRF
        )
        sel = select_model(hist)
        assert sel.bi.statistic <= sel.mono.statistic * (1 + 1e-9), lam


def test_scan_lifetime_reductions():
    hist = synth([(1.0, 150.0), (1.0 / 18.0, 1800.0)], seed=12)
    tau_fast, err = scan_lifetime(hist, reduction="fast")
    assert tau_fast == pytest.approx(150.0, rel=0.2)
    assert err > 0
    tau_sel, _ = scan_lifetime(hist, reduction="selected")
    assert tau_sel == pytest.approx(tau_fast, rel=1e-6)
    hist = synth([(1.0, 840.0)], seed=13)
    tau_sel, _ = scan_lifetime(hist, reduction="selected")
    assert tau_sel == pytest.approx(840.0, rel=0.05)
    with pytest.raises(ValueError):
        scan_lifetime(hist, reduction="median")


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
    assert len(result.extras["tau_on_resonance_ps"]) == 2


def test_spectral_span_requirement():
    lam = np.arange(M2.lambda_c - 0.5, M2.lambda_c + 0.5, 0.05)
    scan = synthesize_spectral_scan([M2], [56.0], 0.47, 840.0, lam, 0.05, seed=3)
    with pytest.raises(ValueError):
        fit_spectral_model(scan, [M2])


def test_spectral_tau0_table():
    lam = scan_wavelengths()
    table = [(1000.0, 650.0), (1040.0, 900.0)]
    scan = synthesize_spectral_scan([M2], [56.0], 0.47, table, lam, 0.04, seed=8)
    result = fit_spectral_model(scan, [M2])
    assert result["purcell_factor"] == pytest.approx(56.0, abs=10.0)


def test_spectral_scan_validation():
    with pytest.raises(ValueError):
        SpectralScan(wavelengths=np.array([2.0, 1.0]), lifetimes=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        SpectralScan(wavelengths=np.array([1.0, 2.0]), lifetimes=np.array([1.0, -1.0]))
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
