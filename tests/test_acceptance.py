"""Acceptance suite: one criterion per test, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Statistical criteria use frozen seeds; every tolerance is stated
inline.
"""

import numpy as np

from pcqed.bands import (
    PlaneWaveBasis,
    build_te_operator,
    compute_bands,
    dipole_doublets,
    find_te_gap,
    solve_h1_modes,
)
from pcqed.cavity import (
    CavityMode,
    coupling_efficiency,
    enhanced_lifetime,
    lifetime_ratio_multimode,
    purcell_factor,
)
from pcqed.fitting import (
    SpectralScan,
    fit_biexponential,
    fit_monoexponential,
    fit_spectral_model,
    select_model,
    synthesize_spectral_scan,
)
from pcqed.geometry import (
    SlabWaveguide,
    TriangularLattice,
    effective_index,
    gamma_m_k_path,
    reciprocal_basis,
)
from pcqed.tcspc import BinGrid, DecayModel, InstrumentResponse, expected_curve, sample_histogram

IRF = InstrumentResponse(fwhm=150.0, t0=600.0)
GRID = BinGrid(bin_width=12.0, n_bins=4096)
SLAB = SlabWaveguide(thickness=400.0, n_core=3.4, n_clad=1.0)


def report(num, description, value, ok):
    print(f"criterion {num}: {description}: {value}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {description} ({value})"


def device_lattice(ratio):
    eps = effective_index(SLAB, 1050.0) ** 2
    return TriangularLattice(300.0, ratio, eps)


def h1_modes(ratio):
    """H1 modes of the device lattice inside its bulk gap (bulk cutoff 7, 16 samples)."""
    lat = device_lattice(ratio)
    gap = find_te_gap(compute_bands(lat, 16, PlaneWaveBasis.bulk(lat, 7), 2))
    return solve_h1_modes(lat, PlaneWaveBasis.supercell(lat, 7, 12), gap=gap, grid_per_period=64)


def synth(components, total, seed, grid=GRID):
    curve = expected_curve(DecayModel(components), IRF, grid)
    return sample_histogram(curve, total, seed, grid=grid, irf=IRF)


def test_criterion_1_purcell_formula():
    value = purcell_factor(2000.0, 1.5)
    report(1, "Purcell enhancement for Q=2000, V=1.5", f"{value:.4f}",
           abs(value - 101.32) <= 0.01)


def test_criterion_2_coupling_efficiency():
    beta_a = coupling_efficiency(0.15, 1.8)
    beta_b = coupling_efficiency(0.050, 1.8)
    report(2, "coupling efficiency for 0.15/1.8 ns and 0.05/1.8 ns",
           f"{beta_a:.5f}, {beta_b:.5f}",
           abs(beta_a - 0.9167) <= 0.0001 and abs(beta_b - 0.9722) <= 0.0001)


def test_criterion_3_detuning_model_consistency():
    mode = CavityMode(lambda_c=1031.5, q_factor=1950.0)
    ratio = lifetime_ratio_multimode(1031.5, [mode], [56.0], 0.47)
    tau2 = enhanced_lifetime(840.0, ratio)
    report(3, "on-resonance lifetime ratio and shortened lifetime",
           f"ratio {ratio:.2f}, tau {tau2:.2f} ps",
           abs(ratio - 19.1) <= 0.05 and 15.0 <= ratio <= 23.0
           and abs(tau2 - 44.0) <= 1.0)


def test_criterion_4_empty_lattice_exactness():
    lat = TriangularLattice(300.0, 0.0, 9.0)
    basis = PlaneWaveBasis.bulk(lat, 7)
    b1, b2 = reciprocal_basis(lat)
    _, path_pts, _ = gamma_m_k_path(lat, 10)  # 28 points
    extra = np.array([0.21 * b1 + 0.13 * b2, -0.37 * b1 + 0.29 * b2])
    kpts = np.vstack([path_pts, extra])
    assert len(kpts) == 30

    ms = np.arange(-12, 13)
    mm, nn = np.meshgrid(ms, ms, indexing="ij")
    G = np.stack([mm.ravel(), nn.ravel()], axis=-1) @ np.stack([b1, b2])
    worst = 0.0
    for k in kpts:
        theta = build_te_operator(lat, k, basis)
        vals = np.sort(np.linalg.eigvalsh(theta))[:5]
        got = 300.0 / (2.0 * np.pi) * np.sqrt(np.clip(vals, 0.0, None))
        folded = np.sort(np.linalg.norm(k[None, :] + G, axis=1))[:5]
        expected = folded * 300.0 / (2.0 * np.pi * 3.0)
        scale = max(expected.max(), 1e-12)
        worst = max(worst, np.abs(got - expected).max() / scale)
    report(4, "empty-lattice bands vs analytic folded dispersion "
              "(30 k-points, 5 bands)", f"max rel err {worst:.2e}", worst < 1e-6)


def test_criterion_5_gap_placement():
    lat = device_lattice(0.37)
    bands = compute_bands(lat, 16, PlaneWaveBasis.bulk(lat, 7), 2)
    gap = find_te_gap(bands)
    lam_mid = gap.midgap_wavelength(300.0) if gap else float("nan")
    report(5, "midgap wavelength for a=300 nm, r/a=0.37, effective-index slab",
           f"{lam_mid:.1f} nm vs 1100 +- 75 nm",
           gap is not None and abs(lam_mid - 1100.0) <= 75.0)


def test_criterion_6_defect_mode_structure():
    modes = h1_modes(0.37)
    pairs = dipole_doublets(modes)
    one_doublet = len(pairs) == 1
    split = float("nan")
    if one_doublet:
        a, b = pairs[0]
        split = abs(b.frequency - a.frequency) / (0.5 * (a.frequency + b.frequency))
    lams = []
    monotone = True
    for ratio in (0.33, 0.36, 0.39, 0.42):
        sweep_pairs = dipole_doublets(h1_modes(ratio))
        if len(sweep_pairs) != 1:
            monotone = False
            break
        a, b = sweep_pairs[0]
        lams.append(0.5 * (a.wavelength + b.wavelength))
    monotone = monotone and all(x > y for x, y in zip(lams, lams[1:]))
    report(6, "one H1 dipole doublet (splitting) and monotone shift with r/a",
           f"doublets {len(pairs)}, splitting {split:.2e}, "
           f"wavelengths {[round(v, 1) for v in lams]}",
           one_doublet and split < 1e-3 and monotone)


def test_criterion_7_convolution_oracle():
    grid = BinGrid(bin_width=12.0, n_bins=600)
    t = grid.centers()
    curve = expected_curve(DecayModel([(1.0, 800.0)]), IRF, grid)
    sigma = IRF.sigma
    step = 0.1
    # midpoint Riemann cells aligned so every t sits on a cell boundary
    start = np.floor((IRF.t0 - 10.0 * sigma) / step) * step
    n_steps = int(np.ceil((t.max() - start) / step)) + 1
    s_grid = start + (np.arange(n_steps) + 0.5) * step
    gauss = np.exp(-0.5 * ((s_grid - IRF.t0) / sigma) ** 2) / (
        sigma * np.sqrt(2.0 * np.pi)
    )
    oracle = np.empty_like(t)
    for i, ti in enumerate(t):
        lag = ti - s_grid
        decay = np.where(lag >= 0.0, np.exp(-np.clip(lag, 0.0, None) / 800.0), 0.0)
        oracle[i] = np.sum(gauss * decay) * step
    mask = oracle > 1e-9 * oracle.max()
    worst = (np.abs(curve[mask] - oracle[mask]) / oracle[mask]).max()
    report(7, "closed-form convolution vs 0.1 ps quadrature (tau=800, fwhm=150)",
           f"max rel err {worst:.2e}", worst < 1e-4)


def test_criterion_8a_mono_round_trip():
    result = fit_monoexponential(synth([(1.0, 840.0)], 100_000, 20240801))
    tau = result["lifetime_ps"]
    report("8a", "monoexponential 840 ps recovered at 1e5 counts",
           f"{tau:.1f} ps ({abs(tau - 840.0) / 840.0 * 100:.2f}%)",
           abs(tau - 840.0) / 840.0 <= 0.03)


def test_criterion_8b_bi_round_trip():
    hist = synth([(1.0, 150.0), (1.0 / 18.0, 1800.0)], 100_000, 20240803)
    result = fit_biexponential(hist)
    fast, slow = result["lifetime_fast_ps"], result["lifetime_slow_ps"]
    report("8b", "biexponential 150/1800 ps recovered (12x separation)",
           f"fast {fast:.1f} ps ({abs(fast - 150) / 150 * 100:.1f}%), "
           f"slow {slow:.1f} ps ({abs(slow - 1800) / 1800 * 100:.1f}%)",
           abs(slow - 1800.0) / 1800.0 <= 0.05
           and abs(fast - 150.0) / 150.0 <= 0.20)


def test_criterion_8c_model_selection_monte_carlo():
    n_seeds = 100
    mono_correct = sum(
        select_model(synth([(1.0, 840.0)], 100_000, 5000 + s)).choice == "mono"
        for s in range(n_seeds)
    )
    bi_correct = sum(
        select_model(
            synth([(1.0, 150.0), (1.0 / 18.0, 1800.0)], 100_000, 6000 + s)
        ).choice == "bi"
        for s in range(n_seeds)
    )
    report("8c", "model selection over 100 seeds per scenario",
           f"mono {mono_correct}/100, bi {bi_correct}/100",
           mono_correct >= 95 and bi_correct >= 95)


def test_criterion_9_spectral_fit_monte_carlo():
    mode = CavityMode(lambda_c=1031.5, q_factor=1950.0)
    lam = np.arange(1029.0, 1034.0 + 0.05, 0.1)
    hits = 0
    n_seeds = 50
    for s in range(n_seeds):
        scan = synthesize_spectral_scan(
            [mode], [56.0], 0.47, 840.0, lam, 0.05, seed=90_000 + s
        )
        result = fit_spectral_model(scan, [mode])
        f_ok = abs(result["purcell_factor"] - 56.0) <= 10.0
        r_ok = abs(result.extras["lifetime_ratio_max"] - 19.0) <= 4.0
        hits += f_ok and r_ok
    report(9, "spectral-scan fit recovers F within +-10 and ratio within 19+-4",
           f"{hits}/{n_seeds} seeds", hits >= 45)


def test_criterion_11_paper_analysis_chain():
    # The paper's analysis end to end: one histogram per wavelength (the
    # cavity-modified lifetime plus an 1800 ps second component) -> model
    # selection -> lifetime-vs-wavelength scan -> detuning fit, on the mode
    # at 1031.5 nm, Q = 1950, F = 56, alpha = 0.47, tau0 = 840 ps. Passes
    # when 4 of 5 scans recover F within +-10 and the ratio within 19 +- 4.
    mode = CavityMode(lambda_c=1031.5, q_factor=1950.0)
    lam = np.arange(1029.0, 1034.0 + 0.05, 0.1)
    tau_true = 840.0 / lifetime_ratio_multimode(lam, [mode], [56.0], 0.47)
    hits = 0
    n_scans = 5
    found = []
    for s in range(n_scans):
        taus, errors = [], []
        for i, tau in enumerate(tau_true):
            hist = synth([(1.0, tau), (0.0556, 1800.0)], 100_000, 110_000 + 100 * s + i)
            best = select_model(hist).best
            name = "lifetime_fast_ps" if best.model == "biexponential" else "lifetime_ps"
            taus.append(best[name])
            errors.append(best.std_errors[name])
        scan = SpectralScan(lam, np.array(taus), np.array(errors), 840.0)
        result = fit_spectral_model(scan, [mode])
        f_fit = result["purcell_factor"]
        ratio = result.extras["lifetime_ratio_max"]
        found.append(f"F {f_fit:.1f} ratio {ratio:.1f}")
        hits += abs(f_fit - 56.0) <= 10.0 and abs(ratio - 19.0) <= 4.0
    report(11, "histograms -> model selection -> spectral fit recovers F within "
               "+-10 and ratio within 19+-4",
           f"{hits}/{n_scans} scans ({'; '.join(found)})", hits >= 4)


def test_criterion_10_substitution_policy():
    # The raw experimental transients are not available; lifetime criteria
    # (8a-8c, 9, 11) are verified by round trips against the synthetic generator,
    # and defect-mode structure (6) by symmetry and monotonicity properties
    # instead of absolute 3D mode wavelengths.
    substitutes = [
        test_criterion_6_defect_mode_structure,
        test_criterion_8a_mono_round_trip,
        test_criterion_8b_bi_round_trip,
        test_criterion_8c_model_selection_monte_carlo,
        test_criterion_9_spectral_fit_monte_carlo,
        test_criterion_11_paper_analysis_chain,
    ]
    report(10, "round-trip/property substitutes for unavailable raw data",
           f"{len(substitutes)} substitute criteria implemented",
           all(callable(f) for f in substitutes))
