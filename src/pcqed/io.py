"""File formats: histogram/band/scan CSV, gap/fit/profile JSON.

All numeric text is written with `repr` so floats round-trip exactly and
repeated runs produce byte-identical files. Every JSON document carries a
`schema_version` field. Units are nm, ps and dimensionless a/lambda, stated in
each header or metadata block.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bands import BandGap, BandStructure, CavityModeProfile
from .fitting import FitResult, SpectralScan
from .tcspc import InstrumentResponse, TransientHistogram

__all__ = [
    "SCHEMA_VERSION",
    "ParseError",
    "canonical_json",
    "write_json",
    "write_manifest_json",
    "write_histogram_csv",
    "read_histogram_csv",
    "write_band_csv",
    "read_band_csv",
    "gap_document",
    "write_gap_json",
    "write_fit_json",
    "read_fit_json",
    "write_scan_csv",
    "read_scan_csv",
    "write_profile_json",
    "read_profile_json",
]

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """Malformed input file; carries the path and 1-based line number."""

    def __init__(self, path, line_number: int, message: str):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = str(path)
        self.line_number = line_number


def _fmt(value) -> str:
    return repr(float(value))


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj) + "\n")


def _write_compact_json(path, obj) -> None:
    # Sorted keys without indentation: fit results and manifests are written
    # once per fitted file, and indentation would add a fifth to their size.
    Path(path).write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def write_manifest_json(path, doc: dict) -> None:
    """Result-bundle manifest: run id, config hash, outputs, failed inputs."""
    _write_compact_json(path, doc)


# ---------------------------------------------------------------------------
# Histograms: CSV "time_ps,counts" plus a metadata sidecar JSON.
# ---------------------------------------------------------------------------

def write_histogram_csv(path, hist: TransientHistogram, metadata: dict | None = None):
    """Write counts vs bin-center time; sidecar goes to <path>.meta.json."""
    path = Path(path)
    lines = ["time_ps,counts"]
    for t, c in zip(hist.bin_centers(), hist.counts):
        lines.append(f"{_fmt(t)},{int(c)}")
    path.write_text("\n".join(lines) + "\n")
    meta = {
        "schema_version": SCHEMA_VERSION,
        "kind": "histogram",
        "units": {"time": "ps"},
        "bin_width_ps": float(hist.bin_width),
        "t_start_ps": float(hist.t_start),
        "n_bins": int(len(hist.counts)),
        "total_counts": hist.total_counts,
        "irf_fwhm_ps": float(hist.irf.fwhm),
        "irf_t0_ps": float(hist.irf.t0),
    }
    if metadata:
        meta.update(metadata)
    write_json(path.with_suffix(path.suffix + ".meta.json"), meta)
    return meta


def read_histogram_csv(path) -> TransientHistogram:
    """Reconstruct a TransientHistogram from CSV + sidecar."""
    path = Path(path)
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    if not meta_path.exists():
        raise FileNotFoundError(f"missing metadata sidecar {meta_path}")
    meta = json.loads(meta_path.read_text())
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "time_ps,counts":
        raise ParseError(path, 1, "expected header 'time_ps,counts'")
    counts = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ParseError(path, i, f"expected 2 fields, got {len(fields)}")
        try:
            counts.append(int(fields[1]))
        except ValueError as exc:
            raise ParseError(path, i, f"bad count {fields[1]!r}") from exc
    return TransientHistogram(
        bin_width=float(meta["bin_width_ps"]),
        t_start=float(meta["t_start_ps"]),
        counts=np.array(counts, dtype=np.int64),
        irf=InstrumentResponse(
            fwhm=float(meta["irf_fwhm_ps"]), t0=float(meta["irf_t0_ps"])
        ),
    )


# ---------------------------------------------------------------------------
# Band structures: CSV "k_index,k_frac_x,k_frac_y,arc_length,band_1..band_N".
# ---------------------------------------------------------------------------

def write_band_csv(path, bands: BandStructure) -> None:
    """Frequencies are dimensionless a/lambda; arc_length in 1/nm."""
    n_bands = bands.n_bands
    header = "k_index,k_frac_x,k_frac_y,arc_length," + ",".join(
        f"band_{i + 1}" for i in range(n_bands)
    )
    lines = [header]
    for i, (frac, arc, row) in enumerate(
        zip(bands.k_fractions, bands.arc_lengths, bands.frequencies)
    ):
        cells = [str(i), _fmt(frac[0]), _fmt(frac[1]), _fmt(arc)]
        cells += [_fmt(v) for v in row]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def read_band_csv(path):
    """Return (k_fractions, arc_lengths, frequencies) arrays."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("k_index,k_frac_x,k_frac_y,arc_length"):
        raise ParseError(path, 1, "bad band CSV header")
    fracs, arcs, rows = [], [], []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) < 5:
            raise ParseError(path, i, "too few fields")
        try:
            fracs.append([float(fields[1]), float(fields[2])])
            arcs.append(float(fields[3]))
            rows.append([float(v) for v in fields[4:]])
        except ValueError as exc:
            raise ParseError(path, i, str(exc)) from exc
    return np.array(fracs), np.array(arcs), np.array(rows)


# ---------------------------------------------------------------------------
# Gap, fit-result and mode-profile JSON documents.
# ---------------------------------------------------------------------------

def gap_document(gap: BandGap | None, period_a: float, hole_ratio: float) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "band_gap",
        "units": {"frequency": "a/lambda", "wavelength": "nm"},
        "period_nm": float(period_a),
        "hole_ratio": float(hole_ratio),
        "gap_present": gap is not None,
    }
    if gap is None:
        doc.update(
            lower_edge=None, upper_edge=None, midgap=None,
            midgap_wavelength_nm=None, gap_width=None,
        )
    else:
        doc.update(
            lower_edge=gap.lower_edge,
            upper_edge=gap.upper_edge,
            midgap=gap.midgap,
            gap_width=gap.width,
            midgap_wavelength_nm=gap.midgap_wavelength(period_a),
            lower_edge_wavelength_nm=period_a / gap.upper_edge,
            upper_edge_wavelength_nm=period_a / gap.lower_edge,
        )
    return doc


def write_gap_json(path, gap: BandGap | None, period_a: float, hole_ratio: float):
    doc = gap_document(gap, period_a, hole_ratio)
    write_json(path, doc)
    return doc


def write_fit_json(path, result: FitResult) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "fit_result",
        "units": {"time": "ps", "wavelength": "nm"},
        "model": result.model,
        "parameters": result.parameters,
        "std_errors": result.std_errors,
        "parameter_order": list(result.parameter_order),
        "covariance": [[float(v) for v in row] for row in result.covariance],
        "statistic": result.statistic,
        "goodness": result.goodness,
        "goodness_kind": result.goodness_kind,
        "n_points": result.n_points,
        "iterations": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "warnings": list(result.warnings),
        "extras": result.extras,
    }
    _write_compact_json(path, doc)
    return doc


def read_fit_json(path) -> FitResult:
    doc = json.loads(Path(path).read_text())
    return FitResult(
        model=doc["model"],
        parameters=doc["parameters"],
        std_errors=doc["std_errors"],
        parameter_order=tuple(doc["parameter_order"]),
        covariance=np.array(doc["covariance"]),
        statistic=doc["statistic"],
        goodness=doc["goodness"],
        goodness_kind=doc["goodness_kind"],
        n_points=doc["n_points"],
        iterations=doc["iterations"],
        converged=doc["converged"],
        warnings=tuple(doc["warnings"]),
        extras=doc["extras"],
        stop_reason=doc.get("stop_reason", ""),
    )


def write_profile_json(path, profile: CavityModeProfile, mode_volume: float | None):
    """Mode profile with grid metadata; the energy-density grid is row-major."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "cavity_mode_profile",
        "units": {"wavelength": "nm", "frequency": "a/lambda"},
        "frequency": profile.frequency,
        "wavelength_nm": profile.wavelength,
        "supercell_size": profile.supercell_size,
        "grid_per_period": profile.grid_per_period,
        "grid_shape": list(profile.energy_density.shape),
        "localization": profile.localization,
        "parity": profile.parity,
        "mode_volume": mode_volume,
        "period_nm": profile.lattice.period_a,
        "hole_ratio": profile.lattice.hole_ratio,
        "energy_density_max": float(profile.energy_density.max()),
        "energy_density": [
            [float(v) for v in row] for row in profile.energy_density
        ],
    }
    write_json(path, doc)
    return doc


def read_profile_json(path) -> tuple[dict, np.ndarray]:
    """Profile metadata and the energy-density grid, exactly as written."""
    doc = json.loads(Path(path).read_text())
    grid = np.array(doc.pop("energy_density"), dtype=float)
    if list(grid.shape) != doc["grid_shape"]:
        raise ParseError(path, 1, "energy_density shape disagrees with grid_shape")
    return doc, grid


# ---------------------------------------------------------------------------
# Spectral scans: CSV "wavelength_nm,lifetime_ps,lifetime_err_ps" + sidecar.
# ---------------------------------------------------------------------------

def write_scan_csv(path, scan: SpectralScan, metadata: dict | None = None) -> dict:
    path = Path(path)
    lines = ["wavelength_nm,lifetime_ps,lifetime_err_ps"]
    errors = scan.errors if scan.errors is not None else [""] * len(scan.wavelengths)
    for lam, tau, err in zip(scan.wavelengths, scan.lifetimes, errors):
        err_cell = _fmt(err) if err != "" else ""
        lines.append(f"{_fmt(lam)},{_fmt(tau)},{err_cell}")
    path.write_text("\n".join(lines) + "\n")
    meta = {
        "schema_version": SCHEMA_VERSION,
        "kind": "spectral_scan",
        "units": {"wavelength": "nm", "time": "ps"},
    }
    ref = scan.reference_tau0
    if ref is not None and np.isscalar(ref):
        meta["tau0_ps"] = float(ref)
    elif ref is not None and not callable(ref):
        meta["tau0_table"] = [[float(a), float(b)] for a, b in np.asarray(ref)]
    if metadata:
        meta.update(metadata)
    write_json(path.with_suffix(path.suffix + ".meta.json"), meta)
    return meta


def read_scan_csv(path) -> tuple[SpectralScan, dict]:
    path = Path(path)
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "wavelength_nm,lifetime_ps,lifetime_err_ps":
        raise ParseError(path, 1, "bad spectral-scan header")
    lams, taus, errs = [], [], []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ParseError(path, i, f"expected 3 fields, got {len(fields)}")
        try:
            lams.append(float(fields[0]))
            taus.append(float(fields[1]))
            errs.append(float(fields[2]) if fields[2] else np.nan)
        except ValueError as exc:
            raise ParseError(path, i, str(exc)) from exc
    errors = np.array(errs)
    if np.isnan(errors).all():
        errors = None
    elif np.isnan(errors).any():
        raise ParseError(path, 1, "mixed present/absent uncertainties")
    tau0 = meta.get("tau0_ps", meta.get("tau0_table"))
    scan = SpectralScan(
        wavelengths=np.array(lams),
        lifetimes=np.array(taus),
        errors=errors,
        reference_tau0=tau0,
    )
    return scan, meta
