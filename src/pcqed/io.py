"""File formats: histogram/band/scan CSV, gap/fit JSON, and mode profiles as
JSON metadata plus a `.npy` energy-density sidecar checked by SHA-256.

All numeric text is written with `repr` so floats round-trip exactly and
repeated runs produce byte-identical files; the profile grid is stored as
binary float64, which round-trips bit for bit. Every JSON document carries a
`schema_version` field. Units are nm, ps and dimensionless a/lambda, stated in
each header or metadata block.
"""

from __future__ import annotations

import hashlib
import json
import sys
from io import BytesIO
from pathlib import Path

import numpy as np

from .bands import BandGap, BandStructure, CavityModeProfile
from .fitting import FitResult, SpectralScan
from .tcspc import InstrumentResponse, TransientHistogram

__all__ = [
    "SCHEMA_VERSION",
    "ParseError",
    "canonical_json",
    "read_header",
    "write_json",
    "write_manifest_json",
    "write_histogram_csv",
    "read_histogram_csv",
    "write_band_csv",
    "read_band_csv",
    "write_gap_json",
    "write_fit_json",
    "read_fit_json",
    "write_scan_csv",
    "read_scan_csv",
    "write_profile_json",
    "read_profile_json",
]

SCHEMA_VERSION = 2


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


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(path, 1, "not UTF-8 text") from exc


def read_header(path) -> str:
    """First line of a text input, stripped; '' for an empty file."""
    lines = _read_text(path).splitlines()
    return lines[0].strip() if lines else ""


def _read_sidecar(path: Path) -> tuple[Path, dict | None]:
    """The `<path>.meta.json` sidecar and its JSON object (None when absent)."""
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    if not meta_path.exists():
        return meta_path, None
    return meta_path, _json_object(meta_path, _read_text(meta_path))


def _json_object(path, text: str) -> dict:
    """`text` parsed as a JSON object; malformed text fails at its line."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(path, 1, "expected a JSON object")
    return doc


def _number(value, name: str, path, line: int, kind=(int, float), positive=False):
    """`value` if it is a finite number of `kind` (and > 0 if `positive`)."""
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not abs(value) <= sys.float_info.max or (positive and not value > 0)):
        wanted = "a positive" if positive else "a finite"
        raise ParseError(path, line, f"{name}: expected {wanted} number, got {value!r}")
    return value


def _column(path, numbers, cells, dtype) -> np.ndarray:
    """One CSV column as an array; a cell that does not convert is named by line."""
    try:
        return np.array(cells, dtype=dtype)
    except (ValueError, OverflowError):
        for i, cell in zip(numbers, cells):
            try:
                dtype(cell)
            except (ValueError, OverflowError) as exc:
                raise ParseError(path, i, f"bad value {cell!r}") from exc
        raise


def read_histogram_csv(path) -> TransientHistogram:
    """Reconstruct a TransientHistogram from CSV + sidecar.

    The rows must match the sidecar: `n_bins` rows summing to `total_counts`,
    each `time_ps` at its bin centre t_start + (i + 1/2) * bin_width.
    """
    path = Path(path)
    meta_path, meta = _read_sidecar(path)
    if meta is None:
        raise FileNotFoundError(f"missing metadata sidecar {meta_path}")
    keys = ("bin_width_ps", "t_start_ps", "irf_fwhm_ps", "irf_t0_ps")
    width, t_start, fwhm, irf_t0 = (
        _number(meta.get(key), key, meta_path, 1) for key in keys
    )
    lines = _read_text(path).splitlines()
    if not lines or lines[0].strip() != "time_ps,counts":
        raise ParseError(path, 1, "expected header 'time_ps,counts'")
    numbers = [i for i, line in enumerate(lines[1:], start=2) if line.strip()]
    if not numbers:
        raise ParseError(path, len(lines), "no data rows")
    rows = [lines[i - 1] for i in numbers]
    for i, row in zip(numbers, rows):
        if row.count(",") != 1:
            raise ParseError(path, i, f"expected 2 fields, got {row.count(',') + 1}")
    # One split and one conversion per column; rows are visited again only on error.
    cells = ",".join(rows).split(",")
    times = _column(path, numbers, cells[0::2], float)
    counts = _column(path, numbers, cells[1::2], np.int64)
    centres = t_start + (np.arange(len(rows)) + 0.5) * width
    bad = np.flatnonzero((counts < 0) | ~(np.abs(times - centres) <= 1e-6 * width))
    if bad.size:
        k = bad[0]
        raise ParseError(path, numbers[k], f"negative count {int(counts[k])}" if counts[k] < 0
                         else f"time_ps {float(times[k])!r} is not the bin centre "
                         f"{float(centres[k])!r}")
    n_bins = _number(meta.get("n_bins"), "n_bins", meta_path, 1, kind=int)
    total = _number(meta.get("total_counts"), "total_counts", meta_path, 1, kind=int)
    if len(rows) != n_bins or int(counts.sum()) != total:
        raise ParseError(path, len(lines), f"{len(rows)} rows with {int(counts.sum())} counts, "
                         f"sidecar says n_bins {n_bins}, total_counts {total}")
    try:
        return TransientHistogram(
            bin_width=float(width),
            t_start=float(t_start),
            counts=counts,
            irf=InstrumentResponse(fwhm=float(fwhm), t0=float(irf_t0)),
        )
    except ValueError as exc:
        raise ParseError(meta_path, 1, str(exc)) from exc


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

def write_gap_json(path, gap: BandGap | None, period_a: float, hole_ratio: float):
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
    """Mode-profile metadata as JSON, the energy-density grid as a `.npy` sidecar.

    The sidecar is `path` with the suffix `.npy`; the document names it in
    `energy_density_file` and records the SHA-256 of its bytes.
    """
    path = Path(path)
    buffer = BytesIO()
    np.save(buffer, np.ascontiguousarray(profile.energy_density, dtype=np.float64),
            allow_pickle=False)
    grid_bytes = buffer.getvalue()
    grid_path = path.with_suffix(".npy")
    grid_path.write_bytes(grid_bytes)
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
        "energy_density_file": grid_path.name,
        "energy_density_sha256": hashlib.sha256(grid_bytes).hexdigest(),
    }
    write_json(path, doc)
    return doc


def _key_line(text: str, key: str) -> int:
    """1-based line of `"key":` in a JSON text; 1 when the key is absent."""
    at = text.find(f'"{key}":')
    return text.count("\n", 0, at) + 1 if at >= 0 else 1


def read_profile_json(path) -> tuple[dict, np.ndarray]:
    """Profile metadata and the energy-density grid, bit for bit as written.

    The grid comes from the `.npy` sidecar named by `energy_density_file`, in
    the profile's directory. It must match `energy_density_sha256`, hold
    float64 values (no pickled objects) and have the shape `grid_shape`.
    """
    path = Path(path)
    text = _read_text(path)
    doc = _json_object(path, text)
    if "energy_density" in doc:
        raise ParseError(path, _key_line(text, "energy_density"),
                         "inline energy_density grid (schema 1); this reader takes "
                         "the .npy sidecar named by energy_density_file")
    name = doc.get("energy_density_file")
    line = _key_line(text, "energy_density_file")
    if not isinstance(name, str) or Path(name).name != name:
        raise ParseError(path, line, f"energy_density_file: expected a file name, got {name!r}")
    grid_path = path.parent / name
    if not grid_path.is_file():
        raise ParseError(path, line, f"energy_density_file: {grid_path} does not exist")
    grid_bytes = grid_path.read_bytes()
    digest = hashlib.sha256(grid_bytes).hexdigest()
    if digest != doc.get("energy_density_sha256"):
        raise ParseError(path, _key_line(text, "energy_density_sha256"),
                         f"energy_density_sha256: {grid_path} has SHA-256 {digest}")
    try:
        grid = np.lib.format.read_array(BytesIO(grid_bytes), allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ParseError(path, line, f"energy_density_file: {grid_path} is not a "
                         f"plain .npy array: {exc}") from exc
    if grid.dtype != np.float64:
        raise ParseError(path, line, f"energy_density_file: dtype {grid.dtype}, "
                         "expected float64")
    if list(grid.shape) != doc.get("grid_shape"):
        raise ParseError(path, _key_line(text, "grid_shape"),
                         f"grid_shape: {doc.get('grid_shape')!r} disagrees with the "
                         f"grid's shape {list(grid.shape)}")
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
    elif ref is not None:
        meta["tau0_table"] = [[float(a), float(b)] for a, b in np.asarray(ref)]
    if metadata:
        meta.update(metadata)
    write_json(path.with_suffix(path.suffix + ".meta.json"), meta)
    return meta


def read_scan_csv(path) -> tuple[SpectralScan, dict]:
    """Scan and sidecar metadata; wavelengths must increase, lifetimes and
    uncertainties be positive, and a tau0 reference be positive."""
    path = Path(path)
    meta_path, meta = _read_sidecar(path)
    meta = meta or {}
    lines = _read_text(path).splitlines()
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
            lam, tau = float(fields[0]), float(fields[1])
            err = float(fields[2]) if fields[2] else None
        except ValueError as exc:
            raise ParseError(path, i, str(exc)) from exc
        _number(lam, "wavelength_nm", path, i, positive=True)
        _number(tau, "lifetime_ps", path, i, positive=True)
        if lams and not lam > lams[-1]:
            raise ParseError(path, i, f"wavelength {lam!r} does not increase")
        lams.append(lam)
        taus.append(tau)
        errs.append(np.nan if err is None else _number(err, "lifetime_err_ps", path, i,
                                                       positive=True))
    if not lams:
        raise ParseError(path, len(lines), "no data rows")
    errors = np.array(errs)
    if np.isnan(errors).all():
        errors = None
    elif np.isnan(errors).any():
        raise ParseError(path, 1, "mixed present/absent uncertainties")
    tau0 = meta.get("tau0_ps", meta.get("tau0_table"))
    if "tau0_ps" in meta:
        _number(tau0, "tau0_ps", meta_path, 1, positive=True)
    elif tau0 is not None:
        if not isinstance(tau0, list) or not tau0 or not all(
            isinstance(row, list) and len(row) == 2 for row in tau0
        ):
            raise ParseError(meta_path, 1, "tau0_table: expected rows [wavelength_nm, tau0_ps]")
        for row in tau0:
            for value in row:
                _number(value, "tau0_table", meta_path, 1, positive=True)
    scan = SpectralScan(
        wavelengths=np.array(lams),
        lifetimes=np.array(taus),
        errors=errors,
        reference_tau0=tau0,
    )
    return scan, meta
