"""Config-driven command line tying the solvers together.

Subcommands: bands, modes, simulate, fit, reproduce-paper. A single JSON
config document drives each run; the flags --out, --seed and --threads
override config fields, and the environment variable PCQED_OUT may set only
the output directory. Identical config + seed produces byte-identical numeric
outputs (run ids hash the effective config and the input bytes, never wall
time).

Exit codes: 0 success, 2 configuration/input error, 3 solver failure,
4 fit non-convergence (a batch `fit` still writes every converged result and
lists the failed inputs in its manifest).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io as pcio
from .bands import (
    BandSolverError,
    PlaneWaveBasis,
    compute_bands,
    dipole_doublets,
    find_te_gap,
    mode_volume,
    solve_h1_modes,
)
from .cavity import (
    CavityMode,
    coupling_efficiency,
    enhanced_lifetime,
    mode_linewidth,
    photon_lifetime,
    purcell_factor,
)
from .fitting import (
    FitConvergenceError,
    fit_biexponential,
    fit_monoexponential,
    fit_spectral_model,
    select_model,
    synthesize_spectral_scan,
)
from .geometry import SlabWaveguide, TriangularLattice, effective_index, kpath_gamma_m_k
from .tcspc import BinGrid, DecayModel, InstrumentResponse, expected_curve, sample_histogram

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_FIT = 4

OUTPUT_DIR_ENV = "PCQED_OUT"


class ConfigError(ValueError):
    """Configuration problem; message names the offending config path."""


# ---------------------------------------------------------------------------
# Config access helpers with path-precise error messages.
# ---------------------------------------------------------------------------

def _cfg_get(cfg: dict, dotted: str, default=None, required=False):
    node = cfg
    parts = dotted.split(".")
    for i, part in enumerate(parts):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"{dotted}: required field missing")
            return default
        node = node[part]
    return node


def _cfg_number(cfg, dotted, default=None, required=False, minimum=None,
                maximum=None, exclusive_min=False):
    value = _cfg_get(cfg, dotted, default=default, required=required)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{dotted}: expected a number, got {value!r}")
    value = float(value)
    if minimum is not None:
        if exclusive_min and not value > minimum:
            raise ConfigError(f"{dotted}: must be > {minimum}, got {value}")
        if not exclusive_min and not value >= minimum:
            raise ConfigError(f"{dotted}: must be >= {minimum}, got {value}")
    if maximum is not None and not value <= maximum:
        raise ConfigError(f"{dotted}: must be <= {maximum}, got {value}")
    return value


def _cfg_int(cfg, dotted, default=None, required=False, minimum=None):
    value = _cfg_get(cfg, dotted, default=default, required=required)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{dotted}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{dotted}: must be >= {minimum}, got {value}")
    return value


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(pcio.canonical_json(cfg).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Result bundles.
# ---------------------------------------------------------------------------

@dataclass
class ResultBundle:
    run_id: str
    config_hash: str
    out_dir: Path
    outputs: dict = field(default_factory=dict)
    failed: list = field(default_factory=list)
    summary_lines: list = field(default_factory=list)

    def add(self, name: str, path: Path) -> None:
        self.outputs[name] = str(path.relative_to(self.out_dir))

    def note(self, line: str) -> None:
        self.summary_lines.append(line)

    def finish(self) -> None:
        summary = self.out_dir / "summary.txt"
        summary.write_text("\n".join(self.summary_lines) + "\n")
        self.outputs["summary"] = "summary.txt"
        manifest = {
            "schema_version": pcio.SCHEMA_VERSION,
            "kind": "result_bundle",
            "run_id": self.run_id,
            "config_hash": self.config_hash,
            "outputs": dict(sorted(self.outputs.items())),
        }
        if self.failed:
            manifest["failed"] = self.failed
        pcio.write_manifest_json(self.out_dir / "manifest.json", manifest)


def _input_digests(paths) -> list:
    """SHA-256 of each input file and of its metadata sidecar."""
    digests = []
    for path in map(Path, paths):
        for part in (path, path.with_suffix(path.suffix + ".meta.json")):
            if part.exists():
                digests.append(hashlib.sha256(part.read_bytes()).hexdigest())
    return digests


def _new_bundle(cfg: dict, out_dir: Path, inputs=()) -> ResultBundle:
    """Bundle whose run id hashes the effective config and every input's bytes.

    `cfg` must already carry the command-line overrides (the seed), so a run
    id changes whenever the data can: another seed, other input bytes.
    """
    digest = config_hash(cfg)
    provenance = {"config": digest, "inputs": _input_digests(inputs)}
    run_id = hashlib.sha256(pcio.canonical_json(provenance).encode()).hexdigest()[:12]
    out_dir.mkdir(parents=True, exist_ok=True)
    return ResultBundle(run_id=run_id, config_hash=digest, out_dir=out_dir)


# ---------------------------------------------------------------------------
# Crystal/solver construction from config.
# ---------------------------------------------------------------------------

def _slab_from_config(cfg) -> SlabWaveguide:
    thickness = _cfg_number(cfg, "crystal.slab.thickness_nm", default=400.0,
                            minimum=0.0, exclusive_min=True)
    n_core = _cfg_number(cfg, "crystal.slab.n_core", default=3.4)
    n_clad = _cfg_number(cfg, "crystal.slab.n_clad", default=1.0, minimum=1.0)
    try:
        return SlabWaveguide(thickness=thickness, n_core=n_core, n_clad=n_clad)
    except ValueError as exc:
        raise ConfigError(f"crystal.slab: {exc}") from exc


def _eps_background(cfg) -> float:
    explicit = _cfg_number(cfg, "crystal.eps_background")
    if explicit is not None:
        return explicit
    slab = _slab_from_config(cfg)
    lam_ref = _cfg_number(cfg, "crystal.reference_wavelength_nm", default=1050.0,
                          minimum=0.0, exclusive_min=True)
    return effective_index(slab, lam_ref) ** 2


def _hole_ratios(cfg) -> list:
    values = _cfg_get(cfg, "crystal.hole_ratio_values")
    if values is not None:
        if not isinstance(values, list) or not values:
            raise ConfigError("crystal.hole_ratio_values: expected a non-empty list")
        out = []
        for i, v in enumerate(values):
            if not isinstance(v, (int, float)) or not 0.0 <= v < 0.5:
                raise ConfigError(
                    f"crystal.hole_ratio_values[{i}]: expected number in [0, 0.5)"
                )
            out.append(float(v))
        return out
    single = _cfg_number(cfg, "crystal.hole_ratio", required=True)
    if not 0.0 <= single < 0.5:
        raise ConfigError(f"crystal.hole_ratio: must lie in [0, 0.5), got {single}")
    return [single]


def _lattice(cfg, hole_ratio: float) -> TriangularLattice:
    period = _cfg_number(cfg, "crystal.period_nm", required=True,
                         minimum=0.0, exclusive_min=True)
    eps_hole = _cfg_number(cfg, "crystal.eps_hole", default=1.0, minimum=1.0)
    try:
        return TriangularLattice(
            period_a=period,
            hole_ratio=hole_ratio,
            eps_background=_eps_background(cfg),
            eps_hole=eps_hole,
        )
    except ValueError as exc:
        raise ConfigError(f"crystal: {exc}") from exc


def _ra_tag(value: float) -> str:
    return f"{value:.3f}".replace(".", "p")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_bands(cfg: dict, out_dir: Path, threads: int = 1) -> ResultBundle:
    bundle = _new_bundle(cfg, out_dir)
    cutoff = _cfg_int(cfg, "bands.cutoff", default=7, minimum=1)
    samples = _cfg_int(cfg, "bands.samples_per_segment", default=16, minimum=2)
    n_bands = _cfg_int(cfg, "bands.n_bands", default=5, minimum=2)
    kpath = kpath_gamma_m_k(samples)
    table = ["hole_ratio,gap_present,lower_edge,upper_edge,midgap,midgap_wavelength_nm,gap_width"]
    gaps = {}
    for ra in _hole_ratios(cfg):
        lattice = _lattice(cfg, ra)
        basis = PlaneWaveBasis.bulk(lattice, cutoff)
        bands = compute_bands(lattice, kpath, basis, n_bands, workers=threads)
        tag = _ra_tag(ra)
        band_path = out_dir / f"bands_ra{tag}.csv"
        pcio.write_band_csv(band_path, bands)
        bundle.add(f"bands_ra{tag}", band_path)
        gap = find_te_gap(bands)
        gaps[ra] = gap
        gap_path = out_dir / f"gap_ra{tag}.json"
        pcio.write_gap_json(gap_path, gap, lattice.period_a, ra)
        bundle.add(f"gap_ra{tag}", gap_path)
        if gap is None:
            table.append(f"{ra!r},False,,,,,")
            bundle.note(f"bands r/a={ra}: no TE gap")
        else:
            table.append(
                f"{ra!r},True,{gap.lower_edge!r},{gap.upper_edge!r},"
                f"{gap.midgap!r},{gap.midgap_wavelength(lattice.period_a)!r},"
                f"{gap.width!r}"
            )
            bundle.note(
                f"bands r/a={ra}: TE gap {gap.lower_edge:.5f}..{gap.upper_edge:.5f} "
                f"(a/lambda), midgap wavelength "
                f"{gap.midgap_wavelength(lattice.period_a):.1f} nm"
            )
    table_path = out_dir / "gap_vs_hole_ratio.csv"
    table_path.write_text("\n".join(table) + "\n")
    bundle.add("gap_table", table_path)
    bundle.finish()
    return bundle


def cmd_modes(cfg: dict, out_dir: Path) -> ResultBundle:
    bundle = _new_bundle(cfg, out_dir)
    supercell = _cfg_int(cfg, "modes.supercell_size", default=7, minimum=5)
    if supercell % 2 == 0:
        raise ConfigError(f"modes.supercell_size: must be odd, got {supercell}")
    cutoff = _cfg_int(cfg, "modes.cutoff", default=12, minimum=1)
    grid_pp = _cfg_int(cfg, "modes.grid_per_period", default=64, minimum=64)
    export = _cfg_get(cfg, "modes.export_profiles", default="doublet")
    if export not in ("doublet", "all", "none"):
        raise ConfigError(
            f"modes.export_profiles: expected doublet|all|none, got {export!r}"
        )
    height = _cfg_number(cfg, "modes.mode_height_nm", minimum=0.0, exclusive_min=True)
    vol_index = _cfg_number(cfg, "modes.volume_index", minimum=0.0, exclusive_min=True)
    slab = _slab_from_config(cfg)

    for ra in _hole_ratios(cfg):
        lattice = _lattice(cfg, ra)
        basis = PlaneWaveBasis.supercell(lattice, supercell, cutoff)
        modes = solve_h1_modes(
            lattice, supercell, basis, grid_per_period=grid_pp
        )
        doublets = dipole_doublets(modes)
        tag = _ra_tag(ra)
        entries = []
        for i, mode in enumerate(modes):
            volume = mode_volume(
                mode, slab, mode.wavelength,
                vertical_height=height, index=vol_index,
            )
            entries.append(
                {
                    "index": i,
                    "frequency": mode.frequency,
                    "wavelength_nm": mode.wavelength,
                    "localization": mode.localization,
                    "parity": mode.parity,
                    "mode_volume": volume,
                }
            )
        doc = {
            "schema_version": pcio.SCHEMA_VERSION,
            "kind": "defect_modes",
            "units": {"wavelength": "nm", "frequency": "a/lambda"},
            "hole_ratio": ra,
            "supercell_size": supercell,
            "modes_found": len(modes),
            "modes": entries,
            "doublet_found": len(doublets) == 1,
            "doublets": [
                {
                    "frequencies": [a.frequency, b.frequency],
                    "wavelengths_nm": [a.wavelength, b.wavelength],
                    "fractional_splitting": abs(b.frequency - a.frequency)
                    / (0.5 * (a.frequency + b.frequency)),
                }
                for a, b in doublets
            ],
        }
        doc_path = out_dir / f"modes_ra{tag}.json"
        pcio.write_json(doc_path, doc)
        bundle.add(f"modes_ra{tag}", doc_path)
        if not modes:
            bundle.note(f"modes r/a={ra}: no in-gap defect modes found")
        else:
            lams = ", ".join(f"{m.wavelength:.1f}" for m in modes)
            bundle.note(
                f"modes r/a={ra}: {len(modes)} in-gap modes at {lams} nm; "
                f"{len(doublets)} dipole doublet(s)"
            )
        to_export = []
        if export == "all":
            to_export = list(enumerate(modes))
        elif export == "doublet":
            flat = [m for pair in doublets for m in pair]
            to_export = [
                (i, m) for i, m in enumerate(modes) if any(m is f for f in flat)
            ]
        for i, mode in to_export:
            volume = mode_volume(
                mode, slab, mode.wavelength,
                vertical_height=height, index=vol_index,
            )
            p_path = out_dir / f"profile_ra{tag}_mode{i}.json"
            pcio.write_profile_json(p_path, mode, volume)
            bundle.add(f"profile_ra{tag}_mode{i}", p_path)
    bundle.finish()
    return bundle


def _simulate_histogram(cfg, out_dir, bundle, seed):
    hcfg = _cfg_get(cfg, "simulate.histogram")
    if hcfg is None:
        return
    comps = _cfg_get(cfg, "simulate.histogram.components", required=True)
    if not isinstance(comps, list) or not comps:
        raise ConfigError("simulate.histogram.components: expected a non-empty list")
    pairs = []
    for i, comp in enumerate(comps):
        if (
            not isinstance(comp, (list, tuple))
            or len(comp) != 2
            or not all(isinstance(v, (int, float)) for v in comp)
        ):
            raise ConfigError(
                f"simulate.histogram.components[{i}]: expected [amplitude, lifetime_ps]"
            )
        pairs.append((float(comp[0]), float(comp[1])))
    total = _cfg_int(cfg, "simulate.histogram.total_counts", required=True, minimum=1)
    fwhm = _cfg_number(cfg, "simulate.histogram.irf.fwhm_ps", default=150.0,
                       minimum=0.0, exclusive_min=True)
    irf_t0 = _cfg_number(cfg, "simulate.histogram.irf.t0_ps", default=600.0)
    width = _cfg_number(cfg, "simulate.histogram.grid.bin_width_ps", default=12.0,
                        minimum=0.0, exclusive_min=True)
    n_bins = _cfg_int(cfg, "simulate.histogram.grid.n_bins", default=4096, minimum=1)
    t_start = _cfg_number(cfg, "simulate.histogram.grid.t_start_ps", default=0.0)
    bg_rate = _cfg_number(cfg, "simulate.histogram.background_rate_per_bin",
                          default=0.0, minimum=0.0)
    try:
        model = DecayModel(pairs)
    except ValueError as exc:
        raise ConfigError(f"simulate.histogram.components: {exc}") from exc
    irf = InstrumentResponse(fwhm=fwhm, t0=irf_t0)
    grid = BinGrid(bin_width=width, n_bins=n_bins, t_start=t_start)
    curve = expected_curve(model, irf, grid)
    hist = sample_histogram(
        curve, total, seed, grid=grid, irf=irf, background_rate=bg_rate
    )
    path = out_dir / "histogram.csv"
    pcio.write_histogram_csv(
        path,
        hist,
        metadata={
            "seed": seed,
            "background_rate_per_bin": bg_rate,
            "model": {
                "components": [[a, tau] for a, tau in model.components],
                "background_per_bin": model.background,
            },
        },
    )
    bundle.add("histogram", path)
    bundle.note(
        f"simulate: histogram with {hist.total_counts} counts over "
        f"{n_bins} bins of {width} ps (seed {seed})"
    )


def _scan_modes_from_config(cfg, dotted):
    raw = _cfg_get(cfg, dotted)
    if raw is None:
        return None
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{dotted}: expected a non-empty list of modes")
    modes = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ConfigError(f"{dotted}[{i}]: expected an object")
        lam = entry.get("wavelength_nm")
        q = entry.get("q_factor")
        if not isinstance(lam, (int, float)) or not isinstance(q, (int, float)):
            raise ConfigError(
                f"{dotted}[{i}]: expected wavelength_nm and q_factor numbers"
            )
        v = entry.get("v_mode", 1.0)
        modes.append(CavityMode(lambda_c=float(lam), q_factor=float(q), v_mode=float(v)))
    return modes


def _simulate_scan(cfg, out_dir, bundle, seed):
    scfg = _cfg_get(cfg, "simulate.spectral_scan")
    if scfg is None:
        return
    modes = _scan_modes_from_config(cfg, "simulate.spectral_scan.modes")
    if modes is None:
        raise ConfigError("simulate.spectral_scan.modes: required field missing")
    fps = _cfg_get(cfg, "simulate.spectral_scan.purcell_factors", required=True)
    if not isinstance(fps, list) or len(fps) != len(modes):
        raise ConfigError(
            "simulate.spectral_scan.purcell_factors: need one value per mode"
        )
    alpha = _cfg_number(cfg, "simulate.spectral_scan.alpha", required=True, minimum=0.0)
    tau0 = _cfg_number(cfg, "simulate.spectral_scan.tau0_ps", required=True,
                       minimum=0.0, exclusive_min=True)
    span = _cfg_number(cfg, "simulate.spectral_scan.span_nm", default=2.5,
                       minimum=0.0, exclusive_min=True)
    step = _cfg_number(cfg, "simulate.spectral_scan.step_nm", default=0.1,
                       minimum=0.0, exclusive_min=True)
    noise = _cfg_number(cfg, "simulate.spectral_scan.noise_fraction", default=0.05,
                        minimum=0.0)
    centers = [m.lambda_c for m in modes]
    lam = np.arange(min(centers) - span, max(centers) + span + step / 2.0, step)
    scan_seed = seed + 1
    scan = synthesize_spectral_scan(
        modes, [float(v) for v in fps], alpha, tau0, lam, noise, scan_seed
    )
    path = out_dir / "spectral_scan.csv"
    pcio.write_scan_csv(
        path,
        scan,
        metadata={
            "seed": scan_seed,
            "modes": [
                {"wavelength_nm": m.lambda_c, "q_factor": m.q_factor} for m in modes
            ],
            "purcell_factors": [float(v) for v in fps],
            "alpha": alpha,
            "noise_fraction": noise,
        },
    )
    bundle.add("spectral_scan", path)
    bundle.note(
        f"simulate: spectral scan of {len(lam)} points around "
        f"{', '.join(f'{c} nm' for c in centers)} (seed {scan_seed})"
    )


def cmd_simulate(cfg: dict, out_dir: Path, seed: int | None = None) -> ResultBundle:
    section = _cfg_get(cfg, "simulate")
    if seed is None:
        seed = _cfg_int(cfg, "simulate.seed")
    if seed is None:
        raise ConfigError("simulate.seed: required for stochastic steps (or pass --seed)")
    if not isinstance(section, dict):
        raise ConfigError("simulate: section missing")
    bundle = _new_bundle({**cfg, "simulate": {**section, "seed": seed}}, out_dir)
    _simulate_histogram(cfg, out_dir, bundle, seed)
    _simulate_scan(cfg, out_dir, bundle, seed)
    if not bundle.outputs:
        raise ConfigError("simulate: nothing to do (no histogram or spectral_scan)")
    bundle.finish()
    return bundle


def _beta_from_bi(result) -> tuple[float, float]:
    """Coupling efficiency and its error from a biexponential FitResult."""
    fast = result["lifetime_fast_ps"]
    slow = result["lifetime_slow_ps"]
    beta = coupling_efficiency(fast, slow)
    i_f = result.parameter_order.index("lifetime_fast_ps")
    i_s = result.parameter_order.index("lifetime_slow_ps")
    grad = np.zeros(len(result.parameter_order))
    grad[i_f] = -1.0 / slow
    grad[i_s] = fast / slow**2
    var = float(grad @ result.covariance @ grad)
    return beta, np.sqrt(max(var, 0.0))


def _fit_histogram_file(cfg, path, out_dir, bundle):
    hist = pcio.read_histogram_csv(path)
    which = _cfg_get(cfg, "fit.model", default="auto")
    if which not in ("auto", "mono", "bi"):
        raise ConfigError(f"fit.model: expected auto|mono|bi, got {which!r}")
    if which == "auto":
        selection = select_model(hist)
        result = selection.best
        extra_note = (
            f"model selection: {selection.choice} "
            f"(delta deviance {selection.delta_deviance:.1f})"
        )
    elif which == "mono":
        result = fit_monoexponential(hist)
        extra_note = None
    else:
        result = fit_biexponential(hist)
        extra_note = None
    extras = dict(result.extras)
    if result.model == "biexponential":
        beta, beta_err = _beta_from_bi(result)
        extras["beta"] = beta
        extras["beta_std_error"] = beta_err
    result = dataclasses.replace(result, extras=extras)
    stem = Path(path).stem
    fit_path = out_dir / f"fit_{stem}.json"
    pcio.write_fit_json(fit_path, result)
    bundle.add(f"fit_{stem}", fit_path)
    if extra_note:
        bundle.note(f"fit {stem}: {extra_note}")
    if result.model == "biexponential":
        bundle.note(
            f"fit {stem}: biexponential lifetimes "
            f"{result['lifetime_fast_ps']:.1f}/{result['lifetime_slow_ps']:.1f} ps, "
            f"beta = {extras['beta']:.4f} +- {extras['beta_std_error']:.4f}"
        )
    else:
        bundle.note(
            f"fit {stem}: monoexponential lifetime "
            f"{result['lifetime_ps']:.1f} +- {result.std_errors['lifetime_ps']:.1f} ps"
        )


def _fit_scan_file(cfg, path, out_dir, bundle):
    scan, meta = pcio.read_scan_csv(path)
    modes = _scan_modes_from_config(cfg, "fit.spectral.modes")
    if modes is None:
        raw = meta.get("modes")
        if not raw:
            raise ConfigError(
                "fit.spectral.modes: required (scan sidecar carries no modes)"
            )
        modes = [
            CavityMode(lambda_c=float(m["wavelength_nm"]), q_factor=float(m["q_factor"]))
            for m in raw
        ]
    tau0 = _cfg_number(cfg, "fit.spectral.tau0_ps")
    if tau0 is None:
        tau0 = scan.reference_tau0
    if tau0 is None:
        raise ConfigError("fit.spectral.tau0_ps: required (no tau0 in scan sidecar)")
    result = fit_spectral_model(scan, modes, tau0_ref=tau0)
    extras = dict(result.extras)
    alpha = result["alpha"]
    betas = []
    for mode, tau_res in zip(modes, extras["tau_on_resonance_ps"]):
        t0v = float(tau0) if np.isscalar(tau0) else float(
            scan.tau0_function()(mode.lambda_c)
        )
        tau_off = t0v / alpha
        betas.append(coupling_efficiency(tau_res, tau_off))
    extras["beta_per_mode"] = betas
    result = dataclasses.replace(result, extras=extras)
    stem = Path(path).stem
    fit_path = out_dir / f"fit_{stem}.json"
    pcio.write_fit_json(fit_path, result)
    bundle.add(f"fit_{stem}", fit_path)
    fp_names = [n for n in result.parameter_order if n.startswith("purcell")]
    fp_text = ", ".join(
        f"{n}={result[n]:.1f}+-{result.std_errors[n]:.1f}" for n in fp_names
    )
    bundle.note(
        f"fit {stem}: spectral model {fp_text}, alpha={alpha:.3f}, "
        f"tau on resonance "
        + "/".join(f"{t:.1f}" for t in extras["tau_on_resonance_ps"])
        + f" ps, max lifetime ratio {extras['lifetime_ratio_max']:.1f}, beta "
        + "/".join(f"{b:.3f}" for b in betas)
    )


def cmd_fit(cfg: dict, out_dir: Path, inputs: list) -> ResultBundle:
    """Fit every input; one that does not converge does not stop the others.

    Converged results are written and failed inputs listed with their stop
    reason under "failed" in the manifest; then FitConvergenceError is raised
    for the batch (exit code 4), carrying the first failed fit's result.
    """
    if not inputs:
        raise ConfigError("fit: at least one input file is required")
    paths = [Path(p) for p in inputs]
    for path in paths:
        if not path.exists():
            raise ConfigError(f"fit: input file {path} does not exist")
    bundle = _new_bundle(cfg, out_dir, paths)
    errors = []
    for path in paths:
        with path.open() as fh:
            header = fh.readline().strip()
        if header == "time_ps,counts":
            fit_file = _fit_histogram_file
        elif header == "wavelength_nm,lifetime_ps,lifetime_err_ps":
            fit_file = _fit_scan_file
        else:
            raise pcio.ParseError(path, 1, f"unrecognized header {header!r}")
        try:
            fit_file(cfg, path, out_dir, bundle)
        except FitConvergenceError as exc:
            errors.append(exc)
            bundle.failed.append([path.name, exc.result.stop_reason])
            bundle.note(f"fit {path.stem}: failed: {exc}")
    bundle.finish()
    if errors:
        raise FitConvergenceError(
            f"{len(errors)} of {len(paths)} inputs did not converge: "
            + ", ".join(f"{name} ({reason})" for name, reason in bundle.failed),
            errors[0].result,
        )
    return bundle


# ---------------------------------------------------------------------------
# Built-in end-to-end scenario.
# ---------------------------------------------------------------------------

REPRODUCE_SEED = 20240901

REPRODUCE_CONFIG = {
    "crystal": {
        "period_nm": 300.0,
        "hole_ratio_values": [0.33, 0.36, 0.37, 0.39, 0.42],
        "slab": {"thickness_nm": 400.0, "n_core": 3.4, "n_clad": 1.0},
        "reference_wavelength_nm": 1050.0,
    },
    "bands": {"cutoff": 7, "samples_per_segment": 16, "n_bands": 5},
    "modes": {"supercell_size": 7, "cutoff": 12, "grid_per_period": 64},
    "simulate": {
        "seed": REPRODUCE_SEED,
        "histogram": {
            "components": [[1.0, 150.0], [0.05555555555555555, 1800.0]],
            "total_counts": 100000,
            "irf": {"fwhm_ps": 150.0, "t0_ps": 600.0},
            "grid": {"bin_width_ps": 12.0, "n_bins": 4096, "t_start_ps": 0.0},
        },
        "spectral_scan": {
            "modes": [{"wavelength_nm": 1031.5, "q_factor": 1950.0}],
            "purcell_factors": [56.0],
            "alpha": 0.47,
            "tau0_ps": 840.0,
            "span_nm": 2.5,
            "step_nm": 0.1,
            "noise_fraction": 0.05,
        },
    },
    "fit": {"model": "bi"},
}


def _check(bundle, name, value, condition, target) -> None:
    verdict = "PASS" if condition else "FAIL"
    bundle.note(f"check {name}: computed {value} vs target {target}: {verdict}")


def cmd_reproduce_paper(out_dir: Path, seed: int | None = None,
                        threads: int = 1) -> ResultBundle:
    """Run bands, modes, simulation and fits with the built-in scenario."""
    cfg = json.loads(json.dumps(REPRODUCE_CONFIG))
    if seed is not None:
        cfg["simulate"]["seed"] = seed
    bundle = _new_bundle(cfg, out_dir)
    bundle.note("end-to-end scenario: closed-form checks, bands, H1 modes, "
                "synthetic transients, fits")

    # Closed-form cavity-QED checks.
    fp = purcell_factor(2000.0, 1.5)
    _check(bundle, "purcell_factor(2000, 1.5)", f"{fp:.1f}",
           abs(fp - 101.3212) < 0.01, "~100 (exact 101.32)")
    lw = mode_linewidth(1031.5, 1950.0)
    _check(bundle, "mode_linewidth(1031.5 nm, 1950)", f"{lw:.3f} nm",
           abs(lw - 0.529) < 0.01, "~0.5 nm")
    tph = photon_lifetime(1030.0, 2700.0)
    _check(bundle, "photon_lifetime(1030 nm, 2700)", f"{tph:.2f} ps",
           0.5 < tph < 4.0, "~2 ps")
    beta_direct = coupling_efficiency(0.15, 1.8)
    _check(bundle, "coupling_efficiency(0.15 ns, 1.8 ns)", f"{beta_direct:.4f}",
           abs(beta_direct - 0.9167) < 1e-3, "~0.92")
    ratio0 = 56.0 / 3.0 + 0.47
    tau2 = enhanced_lifetime(840.0, ratio0)
    _check(bundle, "enhanced_lifetime(840 ps, F=56, alpha=0.47)", f"{tau2:.1f} ps",
           abs(tau2 - 44.0) < 8.0, "44 +- 8 ps")

    # Band structures and the gap trend.
    sub = out_dir / "bands"
    bands_bundle = cmd_bands(cfg, sub, threads=threads)
    for line in bands_bundle.summary_lines:
        bundle.note(line)
    for key, rel in bands_bundle.outputs.items():
        bundle.outputs[f"bands/{key}"] = f"bands/{rel}"
    gap_widths = {}
    midgaps = {}
    for ra in cfg["crystal"]["hole_ratio_values"]:
        doc = json.loads((sub / f"gap_ra{_ra_tag(ra)}.json").read_text())
        if doc["gap_present"]:
            gap_widths[ra] = doc["gap_width"]
            midgaps[ra] = doc["midgap_wavelength_nm"]
    widths = [gap_widths[ra] for ra in sorted(gap_widths)]
    _check(bundle, "TE gap width grows with r/a",
           "[" + ", ".join(f"{w:.4f}" for w in widths) + "]",
           all(b > a for a, b in zip(widths, widths[1:])), "monotone increase")
    mid37 = midgaps.get(0.37)
    _check(bundle, "midgap wavelength at r/a=0.37",
           f"{mid37:.1f} nm" if mid37 else "no gap",
           mid37 is not None and abs(mid37 - 1100.0) <= 75.0, "1100 +- 75 nm")
    mid33 = midgaps.get(0.33)
    _check(bundle, "midgap wavelength at r/a=0.33",
           f"{mid33:.1f} nm" if mid33 else "no gap",
           mid33 is not None and abs(mid33 - 1100.0) <= 75.0, "1100 +- 75 nm")

    # Defect modes: doublet degeneracy and monotone shift.
    sub = out_dir / "modes"
    modes_bundle = cmd_modes(cfg, sub)
    for line in modes_bundle.summary_lines:
        bundle.note(line)
    for key, rel in modes_bundle.outputs.items():
        bundle.outputs[f"modes/{key}"] = f"modes/{rel}"
    doublet_lams = {}
    split37 = None
    volume37 = None
    for ra in cfg["crystal"]["hole_ratio_values"]:
        doc = json.loads((sub / f"modes_ra{_ra_tag(ra)}.json").read_text())
        if doc["doublet_found"]:
            pair = doc["doublets"][0]
            doublet_lams[ra] = 0.5 * sum(pair["wavelengths_nm"])
            if ra == 0.37:
                split37 = pair["fractional_splitting"]
                idx = [
                    e for e in doc["modes"]
                    if abs(e["wavelength_nm"] - doublet_lams[ra]) < 5.0
                ]
                if idx:
                    volume37 = idx[0]["mode_volume"]
    _check(bundle, "one dipole doublet at r/a=0.37 with tiny splitting",
           f"splitting {split37:.2e}" if split37 is not None else "not found",
           split37 is not None and split37 < 1e-3, "< 1e-3")
    lams = [doublet_lams[ra] for ra in sorted(doublet_lams)]
    _check(bundle, "doublet wavelength grows as r/a shrinks",
           "[" + ", ".join(f"{v:.1f}" for v in lams) + "] nm",
           all(a > b for a, b in zip(lams, lams[1:])), "monotone in r/a")
    if volume37 is not None:
        _check(bundle, "dipole mode volume at r/a=0.37", f"{volume37:.2f} (lambda/n)^3",
               0.5 <= volume37 <= 3.0, "~1.5, within [0.5, 3.0]")

    # Synthetic transients and fits.
    sub = out_dir / "sim"
    sim_bundle = cmd_simulate(cfg, sub, seed=cfg["simulate"]["seed"])
    for line in sim_bundle.summary_lines:
        bundle.note(line)
    for key, rel in sim_bundle.outputs.items():
        bundle.outputs[f"sim/{key}"] = f"sim/{rel}"
    fit_out = out_dir / "fits"
    fit_bundle = cmd_fit(cfg, fit_out, [sub / "histogram.csv", sub / "spectral_scan.csv"])
    for line in fit_bundle.summary_lines:
        bundle.note(line)
    for key, rel in fit_bundle.outputs.items():
        bundle.outputs[f"fits/{key}"] = f"fits/{rel}"

    bi_doc = json.loads((fit_out / "fit_histogram.json").read_text())
    tau_f = bi_doc["parameters"]["lifetime_fast_ps"]
    tau_s = bi_doc["parameters"]["lifetime_slow_ps"]
    beta = bi_doc["extras"]["beta"]
    _check(bundle, "biexponential round trip tau_slow", f"{tau_s:.0f} ps",
           abs(tau_s - 1800.0) / 1800.0 < 0.05, "1800 ps +- 5%")
    _check(bundle, "biexponential round trip tau_fast", f"{tau_f:.0f} ps",
           abs(tau_f - 150.0) / 150.0 < 0.20, "150 ps +- 20%")
    _check(bundle, "coupling efficiency from transient fit", f"{beta:.3f}",
           abs(beta - 0.92) <= 0.02, "0.92 +- 0.02")

    scan_doc = json.loads((fit_out / "fit_spectral_scan.json").read_text())
    f_fit = scan_doc["parameters"]["purcell_factor"]
    ratio_fit = scan_doc["extras"]["lifetime_ratio_max"]
    tau_res = scan_doc["extras"]["tau_on_resonance_ps"][0]
    _check(bundle, "spectral fit enhancement factor", f"{f_fit:.1f}",
           abs(f_fit - 56.0) <= 10.0, "56 +- 10")
    _check(bundle, "spectral fit lifetime ratio", f"{ratio_fit:.1f}",
           abs(ratio_fit - 19.0) <= 4.0, "19 +- 4")
    _check(bundle, "spectral fit on-resonance lifetime", f"{tau_res:.1f} ps",
           abs(tau_res - 44.0) <= 8.0, "44 +- 8 ps")

    bundle.finish()
    return bundle


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcqed",
        description="Photonic-crystal cavity physics and TCSPC lifetime analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override RNG seed")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for k-points (0 = auto)")

    common(sub.add_parser("bands", help="TE band structures and gap sweep"))
    common(sub.add_parser("modes", help="H1 defect modes in a supercell"))
    common(sub.add_parser("simulate", help="synthetic transients and scans"))
    p_fit = sub.add_parser("fit", help="fit histograms or spectral scans")
    common(p_fit)
    p_fit.add_argument("inputs", nargs="+", help="histogram or scan CSV files")
    common(sub.add_parser("reproduce-paper",
                          help="built-in end-to-end scenario with summary"),
           needs_config=False)
    return parser


def _resolve_out_dir(args, cfg: dict | None) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    if cfg is not None:
        configured = _cfg_get(cfg, "output_dir")
        if configured is not None:
            if not isinstance(configured, str):
                raise ConfigError("output_dir: expected a string")
            return Path(configured)
    return Path("out")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce-paper":
            bundle = cmd_reproduce_paper(
                _resolve_out_dir(args, None), seed=args.seed, threads=args.threads
            )
        else:
            cfg = load_config(args.config)
            out_dir = _resolve_out_dir(args, cfg)
            if args.command == "bands":
                bundle = cmd_bands(cfg, out_dir, threads=args.threads)
            elif args.command == "modes":
                bundle = cmd_modes(cfg, out_dir)
            elif args.command == "simulate":
                bundle = cmd_simulate(cfg, out_dir, seed=args.seed)
            elif args.command == "fit":
                bundle = cmd_fit(cfg, out_dir, args.inputs)
            else:  # pragma: no cover - argparse guards this
                raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, pcio.ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BandSolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except FitConvergenceError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    for line in bundle.summary_lines:
        print(line)
    print(f"run {bundle.run_id}: outputs in {bundle.out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
