import dataclasses
import hashlib
import json

import numpy as np
import pytest

from pcqed import io as pcio
from pcqed import cli, fitting
from pcqed.bands import (
    BandGap,
    BandSolverError,
    PlaneWaveBasis,
    compute_bands,
    find_te_gap,
    solve_h1_modes,
)
from pcqed.cavity import CavityMode
from pcqed.cli import (
    EXIT_CONFIG,
    EXIT_FIT,
    EXIT_SOLVER,
    ConfigError,
    cmd_bands,
    cmd_fit,
    cmd_modes,
    cmd_simulate,
    config_hash,
    main,
    parse_config,
)
from pcqed.fitting import SpectralScan, fit_monoexponential, select_model
from pcqed.tcspc import BinGrid, DecayModel, InstrumentResponse, expected_curve, sample_histogram

IRF = InstrumentResponse(fwhm=150.0, t0=600.0)


def bulk_gap(lat, cutoff=7, samples_per_segment=16):
    """Bulk TE gap of `lat` from a two-band Gamma-M-K-Gamma solve, or None."""
    return find_te_gap(compute_bands(lat, samples_per_segment, PlaneWaveBasis.bulk(lat, cutoff), 2))


def small_band_config(hole_ratios=(0.0, 0.33)):
    return {
        "crystal": {
            "period_nm": 300.0,
            "hole_ratio_values": list(hole_ratios),
            "slab": {"thickness_nm": 400.0, "n_core": 3.4, "n_clad": 1.0},
            "reference_wavelength_nm": 1050.0,
        },
        "bands": {"cutoff": 4, "samples_per_segment": 6, "n_bands": 3},
    }


def sim_config(seed=11):
    return {
        "simulate": {
            "seed": seed,
            "histogram": {
                "components": [[1.0, 150.0], [0.0555555, 1800.0]],
                "total_counts": 100000,
                "irf": {"fwhm_ps": 150.0, "t0_ps": 600.0},
                "grid": {"bin_width_ps": 12.0, "n_bins": 2048},
            },
            "spectral_scan": {
                "modes": [{"wavelength_nm": 1031.5, "q_factor": 1950.0}],
                "purcell_factors": [56.0],
                "alpha": 0.47,
                "tau0_ps": 840.0,
            },
        },
        "fit": {"model": "bi"},
    }


# ---------------------------------------------------------------------------
# File format round trips
# ---------------------------------------------------------------------------

def test_histogram_csv_round_trip(tmp_path):
    grid = BinGrid(bin_width=12.0, n_bins=256)
    curve = expected_curve(DecayModel([(1.0, 400.0)]), IRF, grid)
    hist = sample_histogram(curve, 20_000, 5, grid=grid, irf=IRF)
    path = tmp_path / "h.csv"
    pcio.write_histogram_csv(path, hist, metadata={"seed": 5})
    back = pcio.read_histogram_csv(path)
    np.testing.assert_array_equal(back.counts, hist.counts)
    assert back.grid == hist.grid
    assert back.irf.fwhm == hist.irf.fwhm
    assert back.irf.t0 == hist.irf.t0


def test_histogram_parse_error_line_number(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("time_ps,counts\n6.0,10\nbroken line\n")
    (tmp_path / "h.csv.meta.json").write_text(json.dumps({
        "bin_width_ps": 12.0, "t_start_ps": 0.0, "irf_fwhm_ps": 150.0,
        "irf_t0_ps": 600.0,
    }))
    with pytest.raises(pcio.ParseError) as err:
        pcio.read_histogram_csv(path)
    assert err.value.line_number == 3


def test_band_csv_round_trip(tmp_path):
    from pcqed.bands import PlaneWaveBasis, compute_bands
    from pcqed.geometry import TriangularLattice

    lat = TriangularLattice(300.0, 0.3, 10.0)
    bands = compute_bands(lat, 4, PlaneWaveBasis.bulk(lat, 3), 3)
    path = tmp_path / "b.csv"
    pcio.write_band_csv(path, bands)
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(table[:, 0], np.arange(len(bands.arc_lengths)))
    np.testing.assert_array_equal(table[:, 1:3], bands.k_fractions)
    np.testing.assert_array_equal(table[:, 3], bands.arc_lengths)
    np.testing.assert_array_equal(table[:, 4:], bands.frequencies)


def test_scan_csv_round_trip(tmp_path):
    scan = SpectralScan(
        wavelengths=np.array([1030.0, 1031.0, 1032.0]),
        lifetimes=np.array([120.0, 45.5, 130.25]),
        errors=np.array([6.0, 2.3, 6.5]),
        reference_tau0=840.0,
    )
    path = tmp_path / "scan.csv"
    pcio.write_scan_csv(path, scan, metadata={"seed": 1})
    back, meta = pcio.read_scan_csv(path)
    np.testing.assert_array_equal(back.wavelengths, scan.wavelengths)
    np.testing.assert_array_equal(back.lifetimes, scan.lifetimes)
    np.testing.assert_array_equal(back.errors, scan.errors)
    assert back.reference_tau0 == 840.0
    assert meta["seed"] == 1


def test_fit_inputs_come_back_through_the_header_dispatch(tmp_path):
    from pcqed.tcspc import TransientHistogram

    grid = BinGrid(bin_width=12.0, n_bins=64)
    hist = sample_histogram(expected_curve(DecayModel([(1.0, 400.0)]), IRF, grid), 5_000, 5,
                            grid=grid, irf=IRF)
    pcio.write_histogram_csv(tmp_path / "h.csv", hist)
    back, digests = pcio.read_fit_input(tmp_path / "h.csv")
    assert digests == [hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in (tmp_path / "h.csv", tmp_path / "h.csv.meta.json")]
    assert isinstance(back, TransientHistogram)
    np.testing.assert_array_equal(back.counts, hist.counts)
    assert (back.grid, back.irf) == (hist.grid, hist.irf)
    scan = SpectralScan(wavelengths=np.array([1030.0, 1031.0]), lifetimes=np.array([120.0, 45.5]),
                        errors=None, reference_tau0=840.0)
    pcio.write_scan_csv(tmp_path / "s.csv", scan, metadata={"seed": 1})
    (back, meta), digests = pcio.read_fit_input(tmp_path / "s.csv")
    assert len(digests) == 2 and isinstance(back, SpectralScan) and meta["seed"] == 1
    np.testing.assert_array_equal(back.wavelengths, scan.wavelengths)
    np.testing.assert_array_equal(back.lifetimes, scan.lifetimes)
    assert back.errors is None and back.reference_tau0 == 840.0


def test_fit_json_round_trip(tmp_path):
    grid = BinGrid(bin_width=12.0, n_bins=2048)
    curve = expected_curve(DecayModel([(1.0, 840.0)]), IRF, grid)
    hist = sample_histogram(curve, 50_000, 9, grid=grid, irf=IRF)
    result = fit_monoexponential(hist)
    path = tmp_path / "fit.json"
    pcio.write_fit_json(path, result)
    back = json.loads(path.read_text())
    assert back["parameters"] == result.parameters
    assert back["std_errors"] == result.std_errors
    assert tuple(back["parameter_order"]) == result.parameter_order
    np.testing.assert_array_equal(np.array(back["covariance"]), result.covariance)
    assert back["statistic"] == result.statistic
    assert back["converged"] == result.converged


def test_fit_result_stores_no_derived_value():
    # The verdict, errors and goodness derive from the stop reason,
    # covariance and statistic; storing them as well would let them disagree.
    stored = {f.name for f in dataclasses.fields(fitting.FitResult)}
    assert not stored & {"converged", "std_errors", "goodness", "goodness_kind"}


def test_profile_json_round_trip(tmp_path):
    from pcqed.bands import dipole_doublets, mode_volume
    from pcqed.geometry import SlabWaveguide, TriangularLattice, effective_index

    slab = SlabWaveguide(400.0, 3.4, 1.0)
    lat = TriangularLattice(300.0, 0.37, effective_index(slab, 1050.0) ** 2)
    modes = solve_h1_modes(lat, PlaneWaveBasis.supercell(lat, 5, 12), gap=bulk_gap(lat),
                           grid_per_period=64)
    (a, _), = dipole_doublets(modes)
    volume = mode_volume(a, slab)
    path = tmp_path / "p.json"
    pcio.write_profile_json(path, a, volume)
    doc = json.loads(path.read_text())
    grid_path = tmp_path / doc["energy_density_file"]
    grid = np.load(grid_path, allow_pickle=False)
    assert grid.dtype == np.float64
    assert grid.tobytes() == a.energy_density.tobytes()
    assert hashlib.sha256(grid_path.read_bytes()).hexdigest() == doc["energy_density_sha256"]
    assert list(grid.shape) == doc["grid_shape"]
    assert doc["frequency"] == a.frequency
    assert doc["mode_volume"] == volume
    assert doc["supercell_size"] == 5
    assert doc["energy_density_file"] == "p.npy"
    assert "energy_density" not in doc


def test_profile_writer_rejects_a_profile_without_a_grid(tmp_path):
    from pcqed.bands import CavityModeProfile
    from pcqed.geometry import TriangularLattice

    profile = CavityModeProfile(
        frequency=0.29, energy_density=None, lattice=TriangularLattice(300.0, 0.37, 10.0),
        supercell_size=3, grid_per_period=8, localization=0.1, parity=1.0,
        density_sum=100.0, dielectric_peak=1.0,
    )
    with pytest.raises(ValueError, match="has no grid"):
        pcio.write_profile_json(tmp_path / "p.json", profile, 1.5)
    assert list(tmp_path.iterdir()) == []


def test_gap_json_reports_absence(tmp_path):
    doc = pcio.write_gap_json(tmp_path / "gap.json", None, 300.0, 0.0)
    assert doc["gap_present"] is False
    assert doc["midgap_wavelength_nm"] is None
    loaded = json.loads((tmp_path / "gap.json").read_text())
    assert loaded["gap_present"] is False


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def test_cmd_bands_outputs_and_gap_flags(tmp_path):
    bundle = cmd_bands(parse_config(small_band_config()), tmp_path / "out")
    gap0 = json.loads((tmp_path / "out" / "gap_ra0p000.json").read_text())
    gap33 = json.loads((tmp_path / "out" / "gap_ra0p330.json").read_text())
    assert gap0["gap_present"] is False
    assert gap33["gap_present"] is True
    assert (tmp_path / "out" / "bands_ra0p330.csv").exists()
    assert (tmp_path / "out" / "gap_vs_hole_ratio.csv").exists()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config_hash"] == config_hash(parse_config(small_band_config()))
    assert manifest["run_id"] == bundle.run_id


def test_cmd_bands_gap_grows_with_hole_ratio(tmp_path):
    cmd_bands(parse_config(small_band_config((0.33, 0.42))), tmp_path / "out")
    g33 = json.loads((tmp_path / "out" / "gap_ra0p330.json").read_text())
    g42 = json.loads((tmp_path / "out" / "gap_ra0p420.json").read_text())
    assert g42["gap_width"] > g33["gap_width"]


def test_band_csvs_start_at_exactly_zero(tmp_path):
    # Band 1 at Gamma is the lambda = 0 state, dropped from the solve and
    # written as an exact 0, not the square root of eigensolver rounding.
    cfg = parse_config(cli.REPRODUCE_CONFIG)
    cmd_bands(cfg, tmp_path / "out")
    paths = sorted((tmp_path / "out").glob("bands_ra*.csv"))
    assert len(paths) == len(cfg.crystal.hole_ratio_values)
    for path in paths:
        lines = path.read_text().splitlines()
        first, last = (np.array(line.split(","), dtype=float) for line in (lines[1], lines[-1]))
        assert np.array_equal(first[:5], np.zeros(5)), path.name  # k_index 0 at Gamma
        assert last[4] == 0.0 and first[5:].min() > 0.1, path.name


def test_cmd_bands_byte_identical_reruns(tmp_path):
    cfg = small_band_config()
    cmd_bands(parse_config(cfg), tmp_path / "a")
    cmd_bands(parse_config(cfg), tmp_path / "b")
    for name in ("bands_ra0p330.csv", "gap_ra0p330.json", "gap_vs_hole_ratio.csv",
                 "summary.txt", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


MODES_CONFIG = {
    "crystal": {
        "period_nm": 300.0,
        "hole_ratio_values": [0.37],
        "slab": {"thickness_nm": 400.0, "n_core": 3.4, "n_clad": 1.0},
        "reference_wavelength_nm": 1050.0,
    },
    "modes": {"supercell_size": 5, "cutoff": 9},
}


def run_modes(cfg: dict, out_dir):
    """`pcqed modes` on the config document `cfg`, writing to `out_dir`."""
    path = out_dir.parent / f"{out_dir.name}.json"
    path.write_text(json.dumps(cfg))
    assert main(["modes", "--config", str(path), "--out", str(out_dir)]) == 0
    return json.loads((out_dir / "modes_ra0p370.json").read_text())


def test_cmd_modes_structured_output(tmp_path):
    doc = run_modes(MODES_CONFIG, tmp_path / "out")
    assert doc["doublet_found"] is True
    assert doc["doublets"][0]["fractional_splitting"] < 1e-3
    assert doc["modes_found"] >= 2
    profiles = list((tmp_path / "out").glob("profile_*.json"))
    assert len(profiles) == 2
    pdoc = json.loads(profiles[0].read_text())
    assert pdoc["energy_density_max"] == 1.0
    assert pdoc["grid_shape"] == [5 * 64, 5 * 64]
    grids = sorted(p.name for p in (tmp_path / "out").glob("profile_*.npy"))
    assert grids == sorted(p.with_suffix(".npy").name for p in profiles)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    listed = set(manifest["outputs"].values())
    assert listed == {p.name for p in (tmp_path / "out").iterdir()} - {"manifest.json"}


def test_cmd_modes_byte_identical_reruns(tmp_path):
    cfg = parse_config(MODES_CONFIG)
    gaps = {0.37: bulk_gap(cfg.crystal.lattice(0.37))}
    cmd_modes(cfg, tmp_path / "a", gaps)
    cmd_modes(cfg, tmp_path / "b", gaps)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert sum(name.endswith(".npy") for name in names) == 2
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cmd_modes_keeps_only_the_doublet_numbers(tmp_path):
    # reproduce-paper reads each doublet's two frequencies and the volume of
    # its first mode; no profile, and so no field grid, outlives its hole ratio.
    cfg = parse_config(MODES_CONFIG)
    bundle = cmd_modes(cfg, tmp_path / "out", {0.37: bulk_gap(cfg.crystal.lattice(0.37))})
    doc = json.loads((tmp_path / "out" / "modes_ra0p370.json").read_text())
    (((f_a, f_b), volume),) = bundle.results[0.37]
    assert all(isinstance(x, float) for x in (f_a, f_b, volume))
    (doublet,) = doc["doublets"]
    assert [f_a, f_b] == doublet["frequencies"]
    first = next(m for m in doc["modes"] if m["frequency"] == f_a)
    assert volume == first["mode_volume"]


def test_cmd_modes_takes_its_gap_from_the_bands_settings(tmp_path):
    # A coarse bulk solve narrows the gap enough to drop the top in-gap mode.
    cfg = {**MODES_CONFIG, "bands": {"cutoff": 4, "samples_per_segment": 8, "n_bands": 2}}
    doc = run_modes(cfg, tmp_path / "out")
    lat = parse_config(cfg).crystal.lattice(0.37)
    basis = PlaneWaveBasis.supercell(lat, 5, 9)
    expected = solve_h1_modes(lat, basis, gap=bulk_gap(lat, 4, 8), grid_per_period=64)
    assert len(solve_h1_modes(lat, basis, gap=bulk_gap(lat), grid_per_period=64)) != len(expected)
    assert [e["frequency"] for e in doc["modes"]] == [m.frequency for m in expected]


def test_modes_keeps_the_states_inside_the_gap_bands_writes(tmp_path):
    # Default `bands` settings, n_bands 5 included: both commands use one gap.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MODES_CONFIG))
    assert main(["bands", "--config", str(cfg_path), "--out", str(tmp_path / "bands")]) == 0
    written = json.loads((tmp_path / "bands" / "gap_ra0p370.json").read_text())
    doc = run_modes(MODES_CONFIG, tmp_path / "modes")
    lat = parse_config(MODES_CONFIG).crystal.lattice(0.37)
    expected = solve_h1_modes(lat, PlaneWaveBasis.supercell(lat, 5, 9),
                              gap=BandGap(written["lower_edge"], written["upper_edge"]),
                              grid_per_period=64)
    assert [e["frequency"] for e in doc["modes"]] == [m.frequency for m in expected]
    assert doc["modes_found"] == len(expected) > 0


def test_cmd_simulate_requires_seed(tmp_path):
    cfg = sim_config()
    del cfg["simulate"]["seed"]
    with pytest.raises(ConfigError):
        cmd_simulate(parse_config(cfg), tmp_path / "out")


def test_simulate_with_only_a_seed_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulate": {"seed": 1}}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "error: simulate: nothing to do" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cmd_simulate_rejects_zero_counts(tmp_path):
    cfg = sim_config()
    cfg["simulate"]["histogram"]["total_counts"] = 0
    with pytest.raises(ConfigError):
        cmd_simulate(parse_config(cfg), tmp_path / "out")


def test_simulate_fit_round_trip_beta(tmp_path):
    cfg = sim_config()
    sim_dir = tmp_path / "sim"
    cmd_simulate(parse_config(cfg), sim_dir)
    fit_dir = tmp_path / "fit"
    cmd_fit(parse_config(cfg), fit_dir, [sim_dir / "histogram.csv"])
    doc = json.loads((fit_dir / "fit_histogram.json").read_text())
    assert doc["model"] == "biexponential"
    assert doc["extras"]["beta"] == pytest.approx(0.92, abs=0.02)


def test_fit_files_carry_the_extras_fitting_returns(tmp_path):
    # The command line writes each fit's extras as `fitting` returns them.
    cfg = sim_config()
    sim_dir = tmp_path / "sim"
    cmd_simulate(parse_config(cfg), sim_dir)
    inputs = [sim_dir / "histogram.csv", sim_dir / "spectral_scan.csv"]
    bundle = cmd_fit(parse_config(cfg), tmp_path / "fit", inputs)
    hist = pcio.read_histogram_csv(inputs[0])
    scan, meta = pcio.read_scan_csv(inputs[1])
    modes = [CavityMode(m["wavelength_nm"], m["q_factor"]) for m in meta["modes"]]
    expected = {"histogram": fitting.fit_biexponential(hist).extras,
                "spectral_scan": fitting.fit_spectral_model(scan, modes).extras}
    for stem, extras in expected.items():
        assert bundle.results[stem].extras == extras
        doc = json.loads((tmp_path / "fit" / f"fit_{stem}.json").read_text())
        assert doc["extras"] == json.loads(json.dumps(extras))
    assert set(expected["histogram"]) == {"beta", "beta_std_error"}
    assert len(expected["spectral_scan"]["beta_per_mode"]) == 1


def test_simulate_scan_dip_position_and_fit(tmp_path):
    cfg = sim_config()
    sim_dir = tmp_path / "sim"
    cmd_simulate(parse_config(cfg), sim_dir)
    scan, meta = pcio.read_scan_csv(sim_dir / "spectral_scan.csv")
    dip = scan.wavelengths[np.argmin(scan.lifetimes)]
    assert dip == pytest.approx(1031.5, abs=0.2)
    fit_dir = tmp_path / "fit"
    cmd_fit(parse_config(cfg), fit_dir, [sim_dir / "spectral_scan.csv"])
    doc = json.loads((fit_dir / "fit_spectral_scan.json").read_text())
    assert doc["parameters"]["purcell_factor"] == pytest.approx(56.0, abs=10.0)
    assert doc["extras"]["lifetime_ratio_max"] == pytest.approx(19.0, abs=4.0)


def test_noiseless_scan_fits_unweighted(tmp_path):
    # A scan drawn without noise carries no uncertainties (empty
    # lifetime_err_ps cells), so the spectral fit weighs every point 1.
    lam = np.round(1029.0 + 0.1 * np.arange(51), 1)
    scan = fitting.synthesize_spectral_scan([CavityMode(lambda_c=1031.5, q_factor=1950.0)],
                                            [56.0], 0.47, 840.0, lam, 0.0, seed=1)
    path = tmp_path / "scan.csv"
    pcio.write_scan_csv(path, scan, metadata={
        "modes": [{"wavelength_nm": 1031.5, "q_factor": 1950.0}]})
    assert {line.split(",")[2] for line in path.read_text().splitlines()[1:]} == {""}
    cfg = tmp_path / "fit.json"
    cfg.write_text("{}")
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "out"), str(path)]) == 0
    parameters = json.loads((tmp_path / "out" / "fit_scan.json").read_text())["parameters"]
    assert parameters == pytest.approx({"purcell_factor": 56.0, "alpha": 0.47}, rel=1e-6)


def _simulated_histogram(tmp_path, seed):
    cfg = sim_config(seed)
    del cfg["simulate"]["spectral_scan"]
    out = tmp_path / f"sim{seed}"
    cmd_simulate(parse_config(cfg), out)
    return out / "histogram.csv"


def _run_id(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())["run_id"]


def test_fit_run_id_changes_with_input_bytes(tmp_path):
    cfg = sim_config()
    a = cmd_fit(parse_config(cfg), tmp_path / "fit1", [_simulated_histogram(tmp_path, 1)])
    b = cmd_fit(parse_config(cfg), tmp_path / "fit2", [_simulated_histogram(tmp_path, 2)])
    assert a.config_hash == b.config_hash
    assert a.run_id != b.run_id


def test_simulate_run_id_changes_with_seed_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(sim_config()))
    for seed in ("1", "2"):
        assert main(["simulate", "--config", str(cfg), "--seed", seed,
                     "--out", str(tmp_path / seed)]) == 0
    assert _run_id(tmp_path / "1") != _run_id(tmp_path / "2")


def test_rerun_on_identical_inputs_keeps_run_id(tmp_path):
    cfg = sim_config()
    hist = _simulated_histogram(tmp_path, 1)
    copy = tmp_path / "elsewhere" / hist.name
    copy.parent.mkdir()
    copy.write_bytes(hist.read_bytes())
    meta = hist.with_suffix(".csv.meta.json")
    copy.with_suffix(".csv.meta.json").write_bytes(meta.read_bytes())
    a = cmd_fit(parse_config(cfg), tmp_path / "fit1", [hist])
    b = cmd_fit(parse_config(cfg), tmp_path / "fit2", [copy])
    assert a.run_id == b.run_id
    assert (tmp_path / "fit1" / "manifest.json").read_bytes() == (
        tmp_path / "fit2" / "manifest.json"
    ).read_bytes()


def test_a_histogram_fit_reads_each_file_once(tmp_path, monkeypatch):
    # One `pcqed fit` call opens its config, histogram and sidecar once each,
    # hashes for the run id the bytes it parsed, and makes its output
    # directory once, before the first of its three files.
    import builtins
    import io
    import pathlib

    hist = _simulated_histogram(tmp_path, 1)
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(sim_config()))
    opened, made = [], []
    real_open, real_mkdir = io.open, pathlib.Path.mkdir

    def counting_open(file, mode="r", *args, **kwargs):
        opened.append((pathlib.Path(file).name, mode))
        return real_open(file, mode, *args, **kwargs)

    def counting_mkdir(path, *args, **kwargs):
        made.append(path)
        return real_mkdir(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)  # what pathlib calls
    monkeypatch.setattr(pathlib.Path, "mkdir", counting_mkdir)
    out = tmp_path / "out"
    assert main(["fit", "--config", str(cfg), "--out", str(out), str(hist)]) == 0
    monkeypatch.undo()
    assert sorted(name for name, mode in opened if "r" in mode) == [
        "fit.json", "histogram.csv", "histogram.csv.meta.json"]
    assert sorted(name for name, mode in opened if "w" in mode) == [
        "fit_histogram.json", "manifest.json", "summary.txt"]
    assert made == [out]
    digests = [hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (hist, pcio.sidecar_path(hist))]
    provenance = {"config": config_hash(parse_config(sim_config())), "inputs": digests}
    assert _run_id(out) == hashlib.sha256(
        pcio.canonical_json(provenance).encode()).hexdigest()[:12]


def test_batch_fit_keeps_going_past_a_failed_input(tmp_path, monkeypatch, capsys):
    inputs = []
    for seed, name in ((1, "good1"), (2, "bad"), (3, "good2")):
        hist = _simulated_histogram(tmp_path, seed)
        path = tmp_path / f"{name}.csv"
        path.write_bytes(hist.read_bytes())
        path.with_suffix(".csv.meta.json").write_bytes(
            hist.with_suffix(".csv.meta.json").read_bytes()
        )
        inputs.append(path)
    bad_counts = pcio.read_histogram_csv(inputs[1]).counts

    def select_or_exhaust(hist):
        # The middle input gets a one-iteration budget, so its fit cannot
        # converge.
        if np.array_equal(hist.counts, bad_counts):
            with monkeypatch.context() as budget:
                budget.setattr(fitting, "MAX_ITERATIONS", 1)
                fit_monoexponential(hist)
        return select_model(hist)

    monkeypatch.setattr(cli, "select_model", select_or_exhaust)
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({"fit": {"model": "auto"}}))
    out = tmp_path / "out"
    code = main(["fit", "--config", str(cfg), "--out", str(out), *map(str, inputs)])
    assert code == EXIT_FIT
    assert "1 of 3 inputs did not converge: bad.csv (budget)" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed"] == [["bad.csv", "budget"]]
    assert sorted(manifest["outputs"]) == ["fit_good1", "fit_good2", "summary"]
    assert (out / "fit_good1.json").exists() and (out / "fit_good2.json").exists()
    assert not (out / "fit_bad.json").exists()


def test_cmd_fit_requires_inputs(tmp_path):
    with pytest.raises(ConfigError):
        cmd_fit(parse_config(sim_config()), tmp_path / "out", [])


def test_cmd_fit_rejects_unknown_header(tmp_path):
    bogus = tmp_path / "x.csv"
    bogus.write_text("a,b\n1,2\n")
    with pytest.raises(pcio.ParseError):
        cmd_fit(parse_config(sim_config()), tmp_path / "out", [bogus])


# ---------------------------------------------------------------------------
# Entry point and exit codes
# ---------------------------------------------------------------------------

def test_main_config_error_exit_code(tmp_path, capsys):
    assert main(["bands", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_main_invalid_config_value(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"crystal": {"period_nm": -5, "hole_ratio_values": [0.3]}}))
    assert main(["bands", "--config", str(path)]) == EXIT_CONFIG
    assert "crystal" in capsys.readouterr().err


def test_bands_without_a_crystal_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bands": {"cutoff": 3}}))
    assert main(["bands", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "error: crystal: required" in capsys.readouterr().err


def test_main_asks_the_allocator_to_keep_freed_memory(tmp_path, monkeypatch):
    # Once per process, before any work, and only where mallopt exists.
    requests = []

    class Libc:
        def mallopt(self, parameter, value):
            requests.append((parameter, value))
            return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
    cli._keep_freed_memory.cache_clear()
    missing = str(tmp_path / "missing.json")
    for _ in range(2):
        assert main(["bands", "--config", missing]) == EXIT_CONFIG
    assert requests == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())  # no mallopt
    cli._keep_freed_memory.cache_clear()
    cli._keep_freed_memory()
    assert len(requests) == 2


def test_band_solver_error_exits_3(tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise BandSolverError("eigensolver did not converge")

    monkeypatch.setattr(cli, "compute_bands", failing)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_band_config((0.33,))))
    assert main(["bands", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_SOLVER
    assert "solver error: eigensolver did not converge" in capsys.readouterr().err


def test_main_fit_usage_error_without_inputs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(sim_config()))
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--config", str(cfg)])
    assert exc.value.code == 2


def test_main_calls_share_one_parser_and_leak_nothing(tmp_path):
    # One process may run many commands (a batch script, the benchmark): the
    # parser is built once, and no flag of one call reaches the next.
    assert cli._build_parser() is cli._build_parser()
    doc = sim_config(seed=11)
    del doc["simulate"]["spectral_scan"]
    doc["simulate"]["histogram"]["grid"]["n_bins"] = 512
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))

    def seed_written(out):
        return json.loads((tmp_path / out / "histogram.csv.meta.json").read_text())["seed"]

    simulate = ["simulate", "--config", str(cfg)]
    assert main([*simulate, "--seed", "5", "--out", str(tmp_path / "a")]) == 0
    assert main([*simulate, "--out", str(tmp_path / "b")]) == 0
    assert (seed_written("a"), seed_written("b")) == (5, 11)
    with pytest.raises(SystemExit) as exc:  # --seed is read, then the argv is rejected
        main([*simulate, "--seed", "7", "--bogus"])
    assert exc.value.code == 2
    assert main([*simulate, "--out", str(tmp_path / "c")]) == 0
    assert seed_written("c") == 11
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--config", str(cfg), "--out", str(tmp_path / "x")])  # no inputs
    assert exc.value.code == 2
    hist = tmp_path / "b" / "histogram.csv"
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "fit"), str(hist)]) == 0
    assert json.loads((tmp_path / "fit" / "fit_histogram.json").read_text())["converged"]
    assert not (tmp_path / "x").exists()


def test_main_happy_path(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_band_config((0.33,))))
    code = main(["bands", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "TE gap" in out


def test_output_dir_env_var(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_band_config((0.33,))))
    target = tmp_path / "envout"
    monkeypatch.setenv("PCQED_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    assert main(["bands", "--config", str(cfg)]) == 0
    assert (target / "summary.txt").exists()


def test_config_hash_stable_under_key_order():
    a = {"bands": {"cutoff": 5, "n_bands": 3}, "fit": {"model": "bi"}}
    b = {"fit": {"model": "bi"}, "bands": {"n_bands": 3, "cutoff": 5}}
    assert config_hash(parse_config(a)) == config_hash(parse_config(b))


@pytest.fixture(scope="module")
def paper_run(tmp_path_factory):
    """The output directory of one default `reproduce-paper` run."""
    out = tmp_path_factory.mktemp("paper") / "r1"
    cli.cmd_reproduce_paper(out)
    return out


def test_reproduce_paper_deterministic(tmp_path, paper_run):
    from pcqed.cli import cmd_reproduce_paper

    cmd_reproduce_paper(tmp_path / "r2")
    s1 = (paper_run / "summary.txt").read_bytes()
    s2 = (tmp_path / "r2" / "summary.txt").read_bytes()
    assert s1 == s2
    text = s1.decode()
    assert "purcell_factor(2000, 1.5)" in text and "PASS" in text
    # gap trend, doublet and fit round trips all reported
    assert "TE gap width grows with r/a" in text
    assert "doublet wavelength grows as r/a shrinks" in text
    assert (paper_run / "fits" / "fit_histogram.json").exists()
    assert (paper_run / "manifest.json").exists()


def test_the_manifest_lists_every_file_of_the_run(paper_run):
    # Beyond the listed outputs a run holds only the manifests (top level,
    # bands, modes, sim, fits) and the sidecars of the two listed CSVs.
    files = {p.relative_to(paper_run).as_posix() for p in paper_run.rglob("*") if p.is_file()}
    listed = set(json.loads((paper_run / "manifest.json").read_text())["outputs"].values())
    assert listed <= files
    manifests = {name for name in files if name.rpartition("/")[2] == "manifest.json"}
    sidecars = {f"{name}.meta.json" for name in listed if name.endswith(".csv")} & files
    assert len(manifests) == 5 and sidecars == {"sim/histogram.csv.meta.json",
                                                "sim/spectral_scan.csv.meta.json"}
    assert files - manifests - sidecars == listed


@pytest.mark.parametrize("seed, run_id", [(None, "640dd23a7c7c"), (11, "74659d59d3c3")])
def test_reproduce_paper_run_ids_are_pinned(tmp_path, seed, run_id):
    # The scenario spells out only what it changes from the config defaults,
    # so a changed default fails here instead of moving the run id silently.
    cfg = parse_config(cli.REPRODUCE_CONFIG).with_seed(seed)
    assert cli._new_bundle(cfg, tmp_path / "out").run_id == run_id
    assert not (tmp_path / "out").exists()


def test_reproduce_paper_solves_the_bulk_bands_once_per_hole_ratio(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return compute_bands(*args, **kwargs)

    monkeypatch.setattr(cli, "compute_bands", counting)
    cli.cmd_reproduce_paper(tmp_path / "out")
    assert len(calls) == len(cli.REPRODUCE_CONFIG["crystal"]["hole_ratio_values"]) == 5


def test_reproduce_paper_reports_every_check_without_a_doublet(tmp_path, monkeypatch, capsys):
    # With no doublet found, the doublet, its wavelength trend and the mode
    # volume must each still print a FAIL rather than vanish or pass on
    # nothing.
    monkeypatch.setattr(cli, "dipole_doublets", lambda modes: [])
    assert main(["reproduce-paper", "--out", str(tmp_path / "out")]) == 0
    checks = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("check ")]
    assert len(checks) == 17
    failed = [line.split(":")[0] for line in checks if line.endswith(": FAIL")]
    assert failed == [
        "check midgap wavelength at r/a=0.37",
        "check one dipole doublet at r/a=0.37 with tiny splitting",
        "check doublet wavelength grows as r/a shrinks",
        "check dipole mode volume at r/a=0.37",
    ]
    assert "computed [] nm" in checks[9] and "not found" in checks[10]
