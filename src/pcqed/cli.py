"""Config-driven command line tying the solvers together.

Subcommands: bands, modes, simulate, fit, reproduce-paper. A single JSON
config document drives each run; it is parsed once into frozen dataclasses,
and an unknown key, a wrong type or an out-of-range value fails with its
dotted path. The flag --out overrides `output_dir` and, for simulate and
reproduce-paper, --seed overrides `simulate.seed`; the environment variable
PCQED_OUT may set only the output directory. Identical config + seed
produces byte-identical numeric outputs (run ids hash the parsed config,
defaults filled in, and the input bytes, never the document text or wall time).

Exit codes: 0 success, 2 configuration/input error or an output directory
that cannot be written or already holds files, 3 solver failure, 4 fit
non-convergence (a batch `fit` still writes every converged result and lists
the failed inputs in its manifest).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import hashlib
import operator
import os
import sys
import types
import typing
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np

from . import io as pcio
from .bands import (
    BandGap,
    BandSolverError,
    BandStructure,
    PlaneWaveBasis,
    compute_bands,
    dipole_doublets,
    doublet_splitting,
    find_te_gap,
    hexagon_indices,
    mode_volume,
    solve_h1_modes,
)
from .cavity import (
    Q_FACTOR,
    WAVELENGTH_NM,
    CavityMode,
    coupling_efficiency,
    enhanced_lifetime,
    lifetime_ratio_multimode,
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
from .geometry import SlabWaveguide, TriangularLattice, effective_index
from .tcspc import (BACKGROUND_RATE, BIN_WIDTH_PS, FWHM_PS, LIFETIME_PS, N_BINS, SIGNAL_COUNTS,
                    TIME_PS, BinGrid, DecayModel, InstrumentResponse, TransientHistogram,
                    expected_curve, sample_histogram)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_FIT = 4

OUTPUT_DIR_ENV = "PCQED_OUT"


class ConfigError(ValueError):
    """Configuration problem; message names the offending config path."""


# ---------------------------------------------------------------------------
# The typed config: one frozen dataclass per JSON object, built by `_parse`.
# A field without a default is required; the bounds given to `_setting` apply
# to every number the field holds: physical ranges, each with its reason, in
# which every product the solvers form is a normal float and every array fits
# in memory; a range `within`, declared in `tcspc`, `cavity` or `fitting`, holds
# for the input files too. `__post_init__` checks cross-field rules.
# ---------------------------------------------------------------------------

_BOUNDS = {"minimum": (operator.ge, ">="), "above": (operator.gt, ">"),
           "below": (operator.lt, "<"), "maximum": (operator.le, "<=")}


def _setting(default=MISSING, within=None, **bounds):
    if within is not None:
        bounds.update(minimum=within[0], maximum=within[1])
    return field(default=default, metadata=bounds)


@dataclass(frozen=True, kw_only=True)
class Slab:
    thickness_nm: float = _setting(400.0, minimum=1.0, maximum=1e6)  # 1 nm films to 1 mm slabs
    n_core: float = _setting(3.4, minimum=1.0, maximum=10.0)  # optical refractive indices
    n_clad: float = _setting(1.0, minimum=1.0, maximum=10.0)

    def waveguide(self) -> SlabWaveguide:
        return SlabWaveguide(self.thickness_nm, self.n_core, self.n_clad)


def _ra_tag(value: float) -> str:
    """The hole ratio in output file names: 0.37 -> '0p370'."""
    return f"{value:.3f}".replace(".", "p")


@dataclass(frozen=True, kw_only=True)
class Crystal:
    period_nm: float = _setting(minimum=1.0, maximum=1e6)  # 1 nm to 1 mm lattices
    hole_ratio_values: tuple[float, ...] = _setting(minimum=0.0, below=0.5)  # holes must not touch
    slab: Slab = Slab()
    reference_wavelength_nm: float = _setting(1050.0, within=WAVELENGTH_NM)  # an emitter's
    # Default: the slab's n_eff squared; denser than the holes' air, at most n_core^2.
    eps_background: float | None = _setting(None, above=1.0, maximum=100.0)

    def __post_init__(self):
        tagged = {}
        for ra in self.hole_ratio_values:  # each ratio names its own output files
            if (tag := _ra_tag(ra)) in tagged:
                raise ValueError(f"hole_ratio_values: {tagged[tag]!r} and {ra!r} share the "
                                 f"file tag ra{tag}")
            tagged[tag] = ra
        try:
            slab = self.slab.waveguide()
            if self.eps_background is None:
                n_eff = effective_index(slab, self.reference_wavelength_nm)
                object.__setattr__(self, "eps_background", n_eff**2)
        except ValueError as exc:
            raise ValueError(f"slab: {exc}") from exc

    def lattice(self, hole_ratio: float) -> TriangularLattice:
        return TriangularLattice(self.period_nm, hole_ratio, self.eps_background)


@dataclass(frozen=True, kw_only=True)
class Bands:
    cutoff: int = _setting(7, minimum=1, maximum=40)  # 3.6 cutoff^2 plane waves, a dense solve
    samples_per_segment: int = _setting(16, minimum=2, maximum=1000)  # a smooth band diagram
    n_bands: int = _setting(5, minimum=2)

    def __post_init__(self):
        if self.n_bands > (size := len(hexagon_indices(self.cutoff))):  # the bulk basis
            raise ValueError(f"n_bands: exceeds the {size} plane waves of cutoff {self.cutoff}")


@dataclass(frozen=True, kw_only=True)
class Modes:
    supercell_size: int = _setting(7, minimum=5, maximum=15)  # 2 to 7 rings round the defect
    cutoff: int = _setting(12, minimum=1, maximum=40)  # as bands.cutoff
    grid_per_period: int = _setting(64, minimum=64, maximum=256)  # a 3,840^2 grid at S = 15

    def __post_init__(self):
        if self.supercell_size % 2 == 0:
            raise ValueError(f"supercell_size: must be odd, got {self.supercell_size}")


@dataclass(frozen=True, kw_only=True)
class Mode:
    # With span_nm and step_nm it bounds a scan's grid (`fitting.SCAN_WAVELENGTH_NM`).
    wavelength_nm: float = _setting(within=WAVELENGTH_NM)
    q_factor: float = _setting(within=Q_FACTOR)

    def cavity(self) -> CavityMode:
        return CavityMode(self.wavelength_nm, self.q_factor)


@dataclass(frozen=True, kw_only=True)
class Irf:
    fwhm_ps: float = _setting(150.0, within=FWHM_PS)
    t0_ps: float = _setting(600.0, within=TIME_PS)


@dataclass(frozen=True, kw_only=True)
class Grid:
    bin_width_ps: float = _setting(12.0, within=BIN_WIDTH_PS)
    n_bins: int = _setting(4096, within=N_BINS)
    t_start_ps: float = _setting(0.0, within=TIME_PS)


@dataclass(frozen=True, kw_only=True)
class Histogram:
    # [counts/bin, ps], each up to the lifetimes' ceiling.
    components: tuple[tuple[float, float], ...] = _setting(minimum=0.0, maximum=LIFETIME_PS[1])
    total_counts: int = _setting(within=SIGNAL_COUNTS)
    irf: Irf = Irf()
    grid: Grid = Grid()
    background_rate_per_bin: float = _setting(0.0, within=BACKGROUND_RATE)

    def __post_init__(self):
        try:
            DecayModel(self.components)
        except ValueError as exc:
            raise ValueError(f"components: {exc}") from exc
        if (tau := min(tau for _, tau in self.components)) < LIFETIME_PS[0]:
            raise ValueError(f"components: lifetimes must be >= {LIFETIME_PS[0]} ps, got {tau}")

    def tcspc(self) -> tuple[DecayModel, InstrumentResponse, BinGrid]:
        """The decay model, instrument response and bin grid of this histogram."""
        return (DecayModel(self.components),
                InstrumentResponse(fwhm=self.irf.fwhm_ps, t0=self.irf.t0_ps),
                BinGrid(self.grid.bin_width_ps, self.grid.n_bins, self.grid.t_start_ps))


@dataclass(frozen=True, kw_only=True)
class Scan:
    modes: tuple[Mode, ...]
    purcell_factors: tuple[float, ...] = _setting(minimum=0.0, maximum=1e4)  # 100x the paper's
    alpha: float = _setting(minimum=0.0, maximum=10.0)  # leaky modes at most 10x free space
    tau0_ps: float = _setting(within=LIFETIME_PS)
    span_nm: float = _setting(2.5, above=0.0, maximum=100.0)  # a spectrometer window
    step_nm: float = _setting(0.1, minimum=0.01, maximum=100.0)  # a spectrometer's resolution
    noise_fraction: float = _setting(0.05, minimum=0.0, maximum=1.0)  # noise up to the lifetime

    def __post_init__(self):
        if len(self.purcell_factors) != len(self.modes):
            raise ValueError("purcell_factors: need one value per mode")


@dataclass(frozen=True, kw_only=True)
class Simulate:
    seed: int | None = _setting(None, minimum=0)
    histogram: Histogram | None = None
    spectral_scan: Scan | None = None


@dataclass(frozen=True, kw_only=True)
class Spectral:
    modes: tuple[Mode, ...] | None = None
    tau0_ps: float | None = _setting(None, within=LIFETIME_PS)


@dataclass(frozen=True, kw_only=True)
class Fit:
    model: Literal["auto", "mono", "bi"] = "auto"
    spectral: Spectral = Spectral()


@dataclass(frozen=True, kw_only=True)
class Config:
    output_dir: str | None = None
    crystal: Crystal | None = None
    bands: Bands = Bands()
    modes: Modes = Modes()
    simulate: Simulate | None = None
    fit: Fit = Fit()

    def require(self, section: str):
        if getattr(self, section) is None:
            raise ConfigError(f"{section}: required")
        return getattr(self, section)

    def with_seed(self, seed: int | None) -> Config:
        """This config with `simulate.seed` set to `seed`; None keeps it."""
        if seed is None:
            return self
        if seed < 0:
            raise ConfigError(f"--seed: must be >= 0, got {seed}")
        simulate = dataclasses.replace(self.require("simulate"), seed=seed)
        return dataclasses.replace(self, simulate=simulate)


_type_hints = functools.cache(typing.get_type_hints)  # per config class, once a process


def _parse(cls, node, prefix: str):
    """Config dataclass `cls` from the JSON object `node`; `prefix` is its path + '.'."""
    if not isinstance(node, dict):
        raise ConfigError(f"{prefix[:-1]}: expected an object, got {node!r}")
    settings = {f.name: f for f in dataclasses.fields(cls)}
    for key in node:
        if key not in settings:
            raise ConfigError(f"{prefix}{key}: unknown key")
    hints = _type_hints(cls)
    values = {}
    for name, spec in settings.items():
        if node.get(name) is not None:
            values[name] = _value(hints[name], node[name], prefix + name, spec.metadata)
        elif spec.default is MISSING:
            raise ConfigError(f"{prefix}{name}: required")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _value(hint, value, path: str, bounds):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # `T | None`; None means absent
        return _value(args[0], value, path, bounds)
    if dataclasses.is_dataclass(hint):
        return _parse(hint, value, path + ".")
    if origin is Literal:
        if value not in args:
            raise ConfigError(f"{path}: expected {'|'.join(args)}, got {value!r}")
        return value
    if origin is tuple:
        size = None if args[-1] is Ellipsis else len(args)
        if not isinstance(value, list) or not value or size not in (None, len(value)):
            raise ConfigError(f"{path}: expected a non-empty list of {size or 'any number of'} "
                              f"values, got {value!r}")
        return tuple(_value(args[0] if size is None else args[i], v, f"{path}[{i}]", bounds)
                     for i, v in enumerate(value))
    if hint is str and isinstance(value, str):
        return value
    if hint is str or isinstance(value, bool) or not isinstance(value, (int, hint)):
        raise ConfigError(f"{path}: expected {hint.__name__}, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    for key, bound in bounds.items():
        holds, relation = _BOUNDS[key]
        if not holds(value, bound):
            raise ConfigError(f"{path}: must be {relation} {bound}, got {value}")
    return hint(value)


def parse_config(document: dict) -> Config:
    """The typed config of a JSON document; ConfigError names the dotted path."""
    return _parse(Config, document, "")


def load_config(path) -> Config:
    """The typed config in the JSON file `path`; an unreadable or malformed
    file fails as a ParseError at its line, a bad setting with its dotted path."""
    document = pcio.read_json_object(path)
    try:
        return parse_config(document)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def config_hash(cfg: Config) -> str:
    """SHA-256 of the typed config, defaults filled in and overrides applied."""
    return hashlib.sha256(pcio.canonical_json(dataclasses.asdict(cfg)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Result bundles.
# ---------------------------------------------------------------------------

@dataclass
class ResultBundle:
    """A run's files and summary, plus what it computed, in `results`: per
    hole ratio a BandGap or None (`cmd_bands`) or the dipole doublets, each
    as ((frequency of a, frequency of b), mode volume of a) with no field grid
    (`cmd_modes`), per input stem a FitResult
    (`cmd_fit`).

    Every file of the run is written through `write`, which lists it in the
    manifest by name and creates `out_dir` with the first file, so a run that
    fails before it writes leaves no directory behind.
    """

    run_id: str
    config_hash: str
    out_dir: Path
    outputs: dict = field(default_factory=dict)
    failed: list = field(default_factory=list)
    summary_lines: list = field(default_factory=list)
    results: dict = field(default_factory=dict)
    _made_dir: bool = field(default=False, init=False, repr=False)

    def write(self, name: str | None, filename: str, writer, *args, **kwargs):
        """`writer(out_dir / filename, *args, **kwargs)`, listed in the manifest
        under `name` (None: the manifest itself); a file or directory that
        cannot be written is a ConfigError at its path."""
        path = self.out_dir / filename
        try:
            if not self._made_dir:
                self.out_dir.mkdir(parents=True, exist_ok=True)
                self._made_dir = True
            written = writer(path, *args, **kwargs)
        except OSError as exc:
            raise ConfigError(f"{exc.filename or path}: cannot write: "
                              f"{exc.strerror or exc}") from None
        if name is not None:
            self.outputs[name] = filename
        return written

    def note(self, line: str) -> None:
        self.summary_lines.append(line)

    def include(self, part: ResultBundle, prefix: str) -> None:
        """Adopt a sub-run's summary lines and its outputs under `prefix/`."""
        self.summary_lines.extend(part.summary_lines)
        for key, rel in part.outputs.items():
            self.outputs[f"{prefix}/{key}"] = f"{prefix}/{rel}"

    def finish(self) -> None:
        self.write("summary", "summary.txt", pcio.write_summary, self.summary_lines)
        self.write(None, "manifest.json", pcio.write_manifest_json, self.run_id,
                   self.config_hash, self.outputs, self.failed)


def _new_bundle(cfg: Config, out_dir: Path, input_digests=()) -> ResultBundle:
    """Bundle whose run id hashes the effective config and the SHA-256 of every
    input file's bytes (`input_digests`, each input's then its sidecar's).

    `cfg` must already carry the command-line overrides (the seed), so a run
    id changes whenever the data can: another seed, other input bytes.
    """
    digest = config_hash(cfg)
    provenance = {"config": digest, "inputs": list(input_digests)}
    run_id = hashlib.sha256(pcio.canonical_json(provenance).encode()).hexdigest()[:12]
    return ResultBundle(run_id=run_id, config_hash=digest, out_dir=out_dir)


# ---------------------------------------------------------------------------
# Subcommands. Each takes a parsed Config.
# ---------------------------------------------------------------------------

def _bulk_bands(cfg: Config, ra: float) -> BandStructure:
    """The bulk TE bands of hole ratio `ra` with the `bands` settings."""
    lattice, settings = cfg.require("crystal").lattice(ra), cfg.bands
    return compute_bands(lattice, settings.samples_per_segment,
                         PlaneWaveBasis.bulk(lattice, settings.cutoff), settings.n_bands)


def cmd_bands(cfg: Config, out_dir: Path) -> ResultBundle:
    crystal = cfg.require("crystal")
    bundle = _new_bundle(cfg, out_dir)
    gap_docs = []
    for ra in crystal.hole_ratio_values:
        bands = _bulk_bands(cfg, ra)
        tag = _ra_tag(ra)
        bundle.write(f"bands_ra{tag}", f"bands_ra{tag}.csv", pcio.write_band_csv, bands)
        gap = bundle.results[ra] = find_te_gap(bands)
        gap_docs.append(bundle.write(f"gap_ra{tag}", f"gap_ra{tag}.json", pcio.write_gap_json,
                                     gap, crystal.period_nm, ra))
        if gap is None:
            bundle.note(f"bands r/a={ra}: no TE gap")
        else:
            bundle.note(
                f"bands r/a={ra}: TE gap {gap.lower_edge:.5f}..{gap.upper_edge:.5f} "
                f"(a/lambda), midgap wavelength "
                f"{gap.midgap_wavelength(crystal.period_nm):.1f} nm"
            )
    bundle.write("gap_table", "gap_vs_hole_ratio.csv", pcio.write_gap_table, gap_docs)
    bundle.finish()
    return bundle


def cmd_modes(cfg: Config, out_dir: Path, gaps: dict[float, BandGap | None]) -> ResultBundle:
    """H1 modes per hole ratio, inside its bulk gap `gaps[ra]` (None: no gap)."""
    crystal, settings = cfg.require("crystal"), cfg.modes
    bundle = _new_bundle(cfg, out_dir)
    slab = crystal.slab.waveguide()

    for ra in crystal.hole_ratio_values:
        lattice = crystal.lattice(ra)
        basis = PlaneWaveBasis.supercell(lattice, settings.supercell_size, settings.cutoff)
        modes = solve_h1_modes(lattice, basis, gap=gaps[ra],
                               grid_per_period=settings.grid_per_period)
        pairs = dipole_doublets(modes)
        volumes = [mode_volume(mode, slab) for mode in modes]
        bundle.results[ra] = [((a.frequency, b.frequency), volumes[modes.index(a)])
                              for a, b in pairs]
        tag = _ra_tag(ra)
        splittings = [doublet_splitting(a.frequency, b.frequency) for a, b in pairs]
        bundle.write(f"modes_ra{tag}", f"modes_ra{tag}.json", pcio.write_modes_json, modes,
                     volumes, pairs, splittings, hole_ratio=ra,
                     supercell_size=settings.supercell_size)
        if not modes:
            bundle.note(f"modes r/a={ra}: no in-gap defect modes found")
        else:
            lams = ", ".join(f"{m.wavelength:.1f}" for m in modes)
            bundle.note(
                f"modes r/a={ra}: {len(modes)} in-gap modes at {lams} nm; "
                f"{len(pairs)} dipole doublet(s)"
            )
        for i in [modes.index(mode) for pair in pairs for mode in pair]:
            name = f"profile_ra{tag}_mode{i}"
            doc = bundle.write(name, f"{name}.json", pcio.write_profile_json, modes[i], volumes[i])
            bundle.outputs[f"{name}_energy_density"] = doc["energy_density_file"]
        del modes, pairs  # this ratio's grids go before the next ratio's solve
    bundle.finish()
    return bundle


def _simulate_histogram(spec: Histogram, bundle, seed):
    model, irf, grid = spec.tcspc()
    try:  # a curve that is 0 in every bin
        hist = sample_histogram(expected_curve(model, irf, grid), spec.total_counts, seed,
                                grid=grid, irf=irf, background_rate=spec.background_rate_per_bin)
    except ValueError as exc:
        raise ConfigError(f"simulate.histogram: {exc}") from None
    bundle.note(
        f"simulate: histogram with {hist.total_counts} counts over "
        f"{grid.n_bins} bins of {grid.bin_width} ps (seed {seed})"
    )
    metadata = {
        "seed": seed,
        "background_rate_per_bin": spec.background_rate_per_bin,
        "model": {
            "components": [[a, tau] for a, tau in model.components],
            "background_per_bin": model.background,
        },
    }
    return lambda: bundle.write("histogram", "histogram.csv", pcio.write_histogram_csv, hist,
                                metadata=metadata)


def _simulate_scan(spec: Scan, bundle, seed):
    modes = [m.cavity() for m in spec.modes]
    fps = list(spec.purcell_factors)
    centers = [m.lambda_c for m in modes]
    scan_seed = seed + 1
    lam = np.arange(min(centers) - spec.span_nm,
                    max(centers) + spec.span_nm + spec.step_nm / 2.0, spec.step_nm)
    try:  # a lifetime or uncertainty outside its range
        scan = synthesize_spectral_scan(
            modes, fps, spec.alpha, spec.tau0_ps, lam, spec.noise_fraction, scan_seed
        )
    except ValueError as exc:
        raise ConfigError(f"simulate.spectral_scan: {exc}") from None
    bundle.note(
        f"simulate: spectral scan of {len(lam)} points around "
        f"{', '.join(f'{c} nm' for c in centers)} (seed {scan_seed})"
    )
    metadata = {
        "seed": scan_seed,
        "modes": [{"wavelength_nm": m.lambda_c, "q_factor": m.q_factor} for m in modes],
        "purcell_factors": fps,
        "alpha": spec.alpha,
        "noise_fraction": spec.noise_fraction,
    }
    return lambda: bundle.write("spectral_scan", "spectral_scan.csv", pcio.write_scan_csv, scan,
                                metadata=metadata)


def cmd_simulate(cfg: Config, out_dir: Path) -> ResultBundle:
    """Draw every sample before the first file is written, so one that cannot
    be drawn leaves no output behind: `_simulate_histogram` and
    `_simulate_scan` draw and note theirs and return the write that saves it."""
    spec = cfg.require("simulate")
    if spec.seed is None:
        raise ConfigError("simulate.seed: required for stochastic steps (or pass --seed)")
    if spec.histogram is None and spec.spectral_scan is None:
        raise ConfigError("simulate: nothing to do (no histogram or spectral_scan)")
    bundle = _new_bundle(cfg, out_dir)
    writes = []
    if spec.histogram is not None:
        writes.append(_simulate_histogram(spec.histogram, bundle, spec.seed))
    if spec.spectral_scan is not None:
        writes.append(_simulate_scan(spec.spectral_scan, bundle, spec.seed))
    for write in writes:
        write()
    bundle.finish()
    return bundle


def _pm(value: float, error: float | None, digits: int, sep: str = " +- ") -> str:
    """`value` with its error, or n/a for an error the covariance does not give."""
    return f"{value:.{digits}f}{sep}" + ("n/a" if error is None else f"{error:.{digits}f}")


def _fit_histogram(cfg: Config, path: Path, hist: TransientHistogram, bundle):
    if cfg.fit.model == "auto":
        selection = select_model(hist)
        result = selection.best
        bundle.note(
            f"fit {path.stem}: model selection: {selection.choice} "
            f"(delta deviance {selection.delta_deviance:.1f})"
        )
    elif cfg.fit.model == "mono":
        result = fit_monoexponential(hist)
    else:
        result = fit_biexponential(hist)
    if result.model != "biexponential":
        bundle.note(f"fit {path.stem}: monoexponential lifetime "
                    f"{_pm(result['lifetime_ps'], result.std_errors['lifetime_ps'], 1)} ps")
        return result
    bundle.note(
        f"fit {path.stem}: biexponential lifetimes "
        f"{result['lifetime_fast_ps']:.1f}/{result['lifetime_slow_ps']:.1f} ps, "
        f"beta = {_pm(result.extras['beta'], result.extras['beta_std_error'], 4)}"
    )
    return result


def _fit_scan(path: Path, scan, modes: tuple[Mode, ...], bundle):
    result = fit_spectral_model(scan, [m.cavity() for m in modes])
    fp_names = [n for n in result.parameter_order if n.startswith("purcell")]
    fp_text = ", ".join(f"{n}={_pm(result[n], result.std_errors[n], 1, '+-')}" for n in fp_names)
    bundle.note(
        f"fit {path.stem}: spectral model {fp_text}, alpha={result['alpha']:.3f}, "
        f"tau on resonance "
        + "/".join("n/a" if t is None else f"{t:.1f}"
                   for t in result.extras["tau_on_resonance_ps"])
        + f" ps, max lifetime ratio {result.extras['lifetime_ratio_max']:.1f}, beta "
        + "/".join("n/a" if b is None else f"{b:.3f}" for b in result.extras["beta_per_mode"])
    )
    return result


def _read_fit_input(cfg: Config, path: Path):
    """The call that fits the input `path` into a bundle, once the input is read
    and checked, and the digests of the bytes read (`pcio.read_fit_input`); a
    scan's modes and tau0 come from the config or its sidecar."""
    data, digests = pcio.read_fit_input(path)
    if isinstance(data, TransientHistogram):
        return (lambda bundle: _fit_histogram(cfg, path, data, bundle)), digests
    scan, meta = data
    spec = cfg.fit.spectral
    if spec.modes is None and meta.get("modes") is None:
        raise ConfigError("fit.spectral.modes: required (scan sidecar carries no modes)")
    # A sidecar's modes are held to the rule of fit.spectral.modes.
    modes = spec.modes or _value(tuple[Mode, ...], meta["modes"],
                                 f"{pcio.sidecar_path(path)}:1: modes", {})
    if spec.tau0_ps is not None:
        scan = dataclasses.replace(scan, reference_tau0=spec.tau0_ps)
    if scan.reference_tau0 is None:
        raise ConfigError("fit.spectral.tau0_ps: required (no tau0 in scan sidecar)")
    return (lambda bundle: _fit_scan(path, scan, modes, bundle)), digests


def cmd_fit(cfg: Config, out_dir: Path, inputs: list) -> ResultBundle:
    """Fit every input; one that does not converge does not stop the others.

    Every input is read and checked before the first fit, inputs whose
    results would share a file name are rejected, and every fit runs before
    the first file is written, so an input that cannot be fitted leaves no
    output behind. Converged results are written and failed inputs listed
    with their stop reason under "failed" in the manifest; then
    FitConvergenceError is raised for the batch (exit code 4), carrying the
    first failed fit's result.
    """
    if not inputs:
        raise ConfigError("fit: at least one input file is required")
    paths = [Path(p) for p in inputs]
    fits, digests = {}, []
    for path in paths:
        if path.stem in fits:
            raise ConfigError(f"fit: inputs {fits[path.stem][0]} and {path} would both "
                              f"write fit_{path.stem}.json")
        fit, file_digests = _read_fit_input(cfg, path)
        fits[path.stem] = path, fit
        digests += file_digests
    bundle = _new_bundle(cfg, out_dir, digests)
    errors = []
    for path, fit in fits.values():
        try:
            bundle.results[path.stem] = fit(bundle)
        except ValueError as exc:  # fewer bins than fit parameters, a scan not spanning a mode
            raise ConfigError(f"{path}: {exc}") from exc
        except FitConvergenceError as exc:
            errors.append(exc)
            bundle.failed.append([path.name, exc.result.stop_reason])
            bundle.note(f"fit {path.stem}: failed: {exc}")
    for stem, result in bundle.results.items():
        bundle.write(f"fit_{stem}", f"fit_{stem}.json", pcio.write_fit_json, result)
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
    },
    "simulate": {
        "seed": REPRODUCE_SEED,
        "histogram": {
            "components": [[1.0, 150.0], [0.05555555555555555, 1800.0]],
            "total_counts": 100000,
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


def _check(bundle, name, value, condition, target) -> None:
    verdict = "PASS" if condition else "FAIL"
    bundle.note(f"check {name}: computed {value} vs target {target}: {verdict}")


def cmd_reproduce_paper(out_dir: Path, seed: int | None = None) -> ResultBundle:
    """Run bands, modes, simulation and fits with the built-in scenario."""
    cfg = parse_config(REPRODUCE_CONFIG).with_seed(seed)
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
    scan = cfg.simulate.spectral_scan
    cavities = [m.cavity() for m in scan.modes]
    ratio0 = lifetime_ratio_multimode(cavities[0].lambda_c, cavities, scan.purcell_factors,
                                      scan.alpha)
    tau2 = enhanced_lifetime(scan.tau0_ps, ratio0)
    _check(bundle, "enhanced_lifetime(840 ps, F=56, alpha=0.47)", f"{tau2:.1f} ps",
           abs(tau2 - 44.0) < 8.0, "44 +- 8 ps")

    # Band structures and the gap trend.
    bands = cmd_bands(cfg, out_dir / "bands")
    bundle.include(bands, "bands")
    gaps = {ra: gap for ra, gap in bands.results.items() if gap is not None}
    widths = [gaps[ra].width for ra in sorted(gaps)]
    _check(bundle, "TE gap width grows with r/a",
           "[" + ", ".join(f"{w:.4f}" for w in widths) + "]",
           len(widths) >= 2 and all(b > a for a, b in zip(widths, widths[1:])),
           "monotone increase")
    period = cfg.crystal.period_nm
    for ra in (0.37, 0.33):
        mid = gaps[ra].midgap_wavelength(period) if ra in gaps else None
        _check(bundle, f"midgap wavelength at r/a={ra}", f"{mid:.1f} nm" if mid else "no gap",
               mid is not None and abs(mid - 1100.0) <= 75.0, "1100 +- 75 nm")

    # Defect modes: doublet degeneracy and monotone shift.
    modes = cmd_modes(cfg, out_dir / "modes", bands.results)
    bundle.include(modes, "modes")
    doublet_lams = {}
    split37 = volume37 = None
    for ra, doublets in modes.results.items():
        if len(doublets) == 1:
            ((f_a, f_b), volume), = doublets
            doublet_lams[ra] = 0.5 * (period / f_a + period / f_b)
            if ra == 0.37:
                split37 = doublet_splitting(f_a, f_b)
                volume37 = volume
    _check(bundle, "one dipole doublet at r/a=0.37 with tiny splitting",
           f"splitting {split37:.2e}" if split37 is not None else "not found",
           split37 is not None and split37 < 1e-3, "< 1e-3")
    lams = [doublet_lams[ra] for ra in sorted(doublet_lams)]
    _check(bundle, "doublet wavelength grows as r/a shrinks",
           "[" + ", ".join(f"{v:.1f}" for v in lams) + "] nm",
           len(lams) >= 2 and all(a > b for a, b in zip(lams, lams[1:])), "monotone in r/a")
    _check(bundle, "dipole mode volume at r/a=0.37",
           f"{volume37:.2f} (lambda/n)^3" if volume37 is not None else "not found",
           volume37 is not None and 0.5 <= volume37 <= 3.0, "~1.5, within [0.5, 3.0]")

    # Synthetic transients and fits.
    sub = out_dir / "sim"
    bundle.include(cmd_simulate(cfg, sub), "sim")
    fits = cmd_fit(cfg, out_dir / "fits", [sub / "histogram.csv", sub / "spectral_scan.csv"])
    bundle.include(fits, "fits")

    bi = fits.results["histogram"]
    tau_f = bi["lifetime_fast_ps"]
    tau_s = bi["lifetime_slow_ps"]
    beta = bi.extras["beta"]
    _check(bundle, "biexponential round trip tau_slow", f"{tau_s:.0f} ps",
           abs(tau_s - 1800.0) / 1800.0 < 0.05, "1800 ps +- 5%")
    _check(bundle, "biexponential round trip tau_fast", f"{tau_f:.0f} ps",
           abs(tau_f - 150.0) / 150.0 < 0.20, "150 ps +- 20%")
    _check(bundle, "coupling efficiency from transient fit", f"{beta:.3f}",
           abs(beta - 0.92) <= 0.02, "0.92 +- 0.02")

    spectral = fits.results["spectral_scan"]
    f_fit = spectral["purcell_factor"]
    ratio_fit = spectral.extras["lifetime_ratio_max"]
    tau_res = spectral.extras["tau_on_resonance_ps"][0]
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

@functools.cache  # one parser per process: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcqed",
        description="Photonic-crystal cavity physics and TCSPC lifetime analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, needs_config=True, seeded=False):
        p = sub.add_parser(name, help=summary)
        if needs_config:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
        if seeded:
            p.add_argument("--seed", type=int, default=None, help="override RNG seed")
        return p

    command("bands", "TE band structures and gap sweep")
    command("modes", "H1 defect modes in a supercell")
    command("simulate", "synthetic transients and scans", seeded=True)
    command("fit", "fit histograms or spectral scans").add_argument(
        "inputs", nargs="+", help="histogram or scan CSV files")
    command("reproduce-paper", "built-in end-to-end scenario with summary",
            needs_config=False, seeded=True)
    return parser


def _resolve_out_dir(args, cfg: Config | None) -> Path:
    """The output directory; one that already holds files is a ConfigError, so
    a manifest always lists everything in its directory."""
    configured = cfg.output_dir if cfg is not None else None
    out_dir = Path(args.out or os.environ.get(OUTPUT_DIR_ENV) or configured or "out")
    try:
        used = out_dir.is_dir() and any(out_dir.iterdir())
    except OSError as exc:
        raise ConfigError(f"{out_dir}: cannot read: {exc.strerror or exc}") from None
    if used:
        raise ConfigError(f"{out_dir}: output directory is not empty")
    return out_dir


@functools.cache  # once per process
def _keep_freed_memory() -> None:
    """Let glibc's malloc keep freed memory for reuse in this process.

    By default glibc maps each block of 128 KB or more (a fit's Jacobian, a
    field grid) on its own and returns heap memory to the kernel once 128 KB
    lie free at the top, so every fit iteration and every command faults the
    same pages in again. Blocks up to 32 MB now come from the heap, and up to
    64 MB stay free at its top. Without mallopt (not glibc) nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


# numpy's bundled OpenBLAS, the only BLAS pcqed loads.
_OPENBLAS = Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas64_-32a4b2a6.so"


@functools.cache  # once per process
def _one_blas_thread() -> int | None:
    """Pin OpenBLAS to one thread; the thread count it had, or None where the
    library is absent. An eigensolve's last bits depend on the thread count,
    and OpenBLAS reads OPENBLAS_NUM_THREADS only when it loads."""
    try:
        blas = ctypes.CDLL(str(_OPENBLAS))
        get, put = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    threads = get()
    put(1)
    return threads


def main(argv=None) -> int:
    _keep_freed_memory()
    _one_blas_thread()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce-paper":
            bundle = cmd_reproduce_paper(_resolve_out_dir(args, None), seed=args.seed)
        else:
            cfg = load_config(args.config)
            out_dir = _resolve_out_dir(args, cfg)
            if args.command == "bands":
                bundle = cmd_bands(cfg, out_dir)
            elif args.command == "modes":
                gaps = {ra: find_te_gap(_bulk_bands(cfg, ra))
                        for ra in cfg.require("crystal").hole_ratio_values}
                bundle = cmd_modes(cfg, out_dir, gaps)
            elif args.command == "simulate":
                bundle = cmd_simulate(cfg.with_seed(args.seed), out_dir)
            else:  # fit, the last command argparse admits
                bundle = cmd_fit(cfg, out_dir, args.inputs)
    except (ConfigError, pcio.ParseError) as exc:
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
