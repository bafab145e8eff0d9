"""Every file pcqed reads or writes. It reads the config, histogram CSVs and
spectral-scan CSVs with their metadata sidecars; it writes those and the band
CSV, the gap, mode, fit and manifest JSON, the run summary, and mode profiles
as JSON metadata plus a `.npy` energy-density sidecar whose SHA-256 the JSON
records. A file that cannot be read fails as a ParseError at its line 1.

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
from typing import TYPE_CHECKING

import numpy as np

from .fitting import FitResult, SpectralScan
from .tcspc import BinGrid, InstrumentResponse, TransientHistogram

if TYPE_CHECKING:  # annotations only: reading a file needs no band solver
    from .bands import BandGap, BandStructure, CavityModeProfile

__all__ = [
    "SCHEMA_VERSION",
    "ParseError",
    "canonical_json",
    "sidecar_path",
    "read_json_object",
    "read_fit_input",
    "write_json",
    "write_summary",
    "write_manifest_json",
    "write_histogram_csv",
    "read_histogram_csv",
    "write_band_csv",
    "write_gap_json",
    "write_gap_table",
    "write_modes_json",
    "write_fit_json",
    "write_scan_csv",
    "read_scan_csv",
    "write_profile_json",
]

SCHEMA_VERSION = 2
HISTOGRAM_HEADER = "time_ps,counts"
SCAN_HEADER = "wavelength_nm,lifetime_ps,lifetime_err_ps"
# Every byte but "," and "\n": what `_uniform_table` deletes to see a table's shape.
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")


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


def _envelope(kind: str, **units) -> dict:
    """The fields every JSON document starts with; `units` maps quantity to unit."""
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind}
    if units:
        doc["units"] = units
    return doc


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj) + "\n")


def _write_compact_json(path, obj) -> None:
    # Sorted keys without indentation: fit results and manifests are written
    # once per fitted file, and indentation would add a fifth to their size.
    Path(path).write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def write_manifest_json(path, run_id: str, config_hash: str, outputs: dict, failed: list):
    """Result-bundle manifest: run id, config hash, outputs by name and the
    failed inputs with their stop reasons (the key is left out when none)."""
    doc = {**_envelope("result_bundle"), "run_id": run_id, "config_hash": config_hash,
           "outputs": dict(sorted(outputs.items()))}
    if failed:
        doc["failed"] = failed
    _write_compact_json(path, doc)


def write_summary(path, lines) -> None:
    """A run's summary, one line per entry."""
    Path(path).write_text("\n".join(lines) + "\n")


def _read(path, files=None) -> bytes:
    """The bytes of `path`; a file that cannot be read fails at its line 1.

    `files`, when given, maps each path already read to its bytes: a path
    found there is not read again, and one read here is added to it.
    """
    key = Path(path)
    if files is not None and key in files:
        return files[key]
    try:
        with open(path, "rb") as file:
            data = file.read()
    except OSError as exc:
        raise ParseError(path, 1, f"cannot read: {exc.strerror or exc}") from exc
    if files is not None:
        files[key] = data
    return data


def _text(path, data: bytes) -> str:
    """`data` as text mode reads it: UTF-8, with "\\r\\n" and "\\r" turned into
    "\\n"; bytes that are not UTF-8 fail at line 1."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, 1, "not UTF-8 text") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_json_object(path, files=None) -> dict:
    """The JSON object in `path`; malformed text fails at its line. `files`
    is the cache of bytes already read, as for `_read`."""
    text = _text(path, _read(path, files))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(path, 1, "expected a JSON object")
    return doc


def sidecar_path(path) -> Path:
    """The metadata sidecar of a CSV input: `<path>.meta.json`."""
    return Path(f"{path}.meta.json")


def read_fit_input(path) -> tuple[TransientHistogram | tuple[SpectralScan, dict], list[str]]:
    """A fit input, read by the reader its header line names (a histogram, or
    a spectral scan with its sidecar metadata), and the SHA-256 of the bytes
    it was parsed from: the input's, then its sidecar's where one was read.
    Each file is read once."""
    files = {}
    first = _read(path, files).split(b"\n", 1)[0]  # `_text` also ends it at a lone "\r"
    header = _text(path, first).partition("\n")[0].strip()
    if header == HISTOGRAM_HEADER:
        data = read_histogram_csv(path, files)
    elif header == SCAN_HEADER:
        data = read_scan_csv(path, files)
    else:
        raise ParseError(path, 1, f"unrecognized header {header!r}; expected "
                         f"{HISTOGRAM_HEADER!r} or {SCAN_HEADER!r}")
    return data, [hashlib.sha256(raw).hexdigest() for raw in files.values()]


# ---------------------------------------------------------------------------
# Histograms: CSV "time_ps,counts" plus a metadata sidecar JSON.
# ---------------------------------------------------------------------------

def write_histogram_csv(path, hist: TransientHistogram, metadata: dict | None = None):
    """Write counts vs bin-center time; sidecar goes to <path>.meta.json."""
    lines = [HISTOGRAM_HEADER]
    for t, c in zip(hist.grid.centers(), hist.counts):
        lines.append(f"{_fmt(t)},{int(c)}")
    Path(path).write_text("\n".join(lines) + "\n")
    meta = {
        **_envelope("histogram", time="ps"),
        "bin_width_ps": float(hist.grid.bin_width),
        "t_start_ps": float(hist.grid.t_start),
        "n_bins": len(hist.counts),
        "total_counts": hist.total_counts,
        "irf_fwhm_ps": float(hist.irf.fwhm),
        "irf_t0_ps": float(hist.irf.t0),
    }
    if metadata:
        meta.update(metadata)
    write_json(sidecar_path(path), meta)
    return meta


def _number(value, name: str, path, line: int, kind=(int, float), positive=False):
    """`value` if it is a finite number of `kind` (and > 0 if `positive`)."""
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not abs(value) <= sys.float_info.max or (positive and not value > 0)):
        wanted = "a positive" if positive else "a finite"
        raise ParseError(path, line, f"{name}: expected {wanted} number, got {value!r}")
    return value


def _table(path, header, what, files=None):
    """1-based line numbers and columns of a CSV file whose first line is `header`.

    Lines end at "\\n" only (`_text` has already turned "\\r\\n" and "\\r"
    into it), so a line number is the one an editor or `grep -n` shows.
    Blank lines are skipped and every other row must hold one field per
    header name. When every row holds exactly that, as a written file does,
    the shape is checked on the whole text at once; otherwise `_row_walk`
    skips the blank lines and names the first bad row.
    """
    text = _text(path, _read(path, files))
    first, _, body = text.partition("\n")
    if (found := first.strip()) != header:
        raise ParseError(path, 1, f"bad {what} header {found!r}")
    n_fields = header.count(",") + 1
    table = _uniform_table(body, n_fields)
    return table if table is not None else _row_walk(path, text, n_fields)


def _uniform_table(body, n_fields):
    """`_row_walk`'s result for the data rows `body` when each of them holds
    exactly `n_fields` fields, else None: the separators of `body`, in order,
    are then n_fields - 1 commas and a newline per row."""
    body = body if body.endswith("\n") else body + "\n"
    separators = body.encode().translate(None, _NOT_SEPARATORS)
    n_rows = separators.count(b"\n")
    if separators != (b"," * (n_fields - 1) + b"\n") * n_rows:
        return None
    cells = body[:-1].replace("\n", ",").split(",")
    return range(2, 2 + n_rows), [cells[j::n_fields] for j in range(n_fields)]


def _row_walk(path, text, n_fields):
    """Line numbers and columns of the data rows of the CSV `text`, row by
    row: blank lines are skipped, and the first row with another number of
    fields than `n_fields` fails at its line."""
    lines = text.split("\n")
    if lines[-1] == "":  # the final "\n" ends the last line
        lines.pop()
    numbers = [i for i, line in enumerate(lines[1:], start=2) if line.strip()]
    if not numbers:
        raise ParseError(path, len(lines), "no data rows")
    rows = [lines[i - 1] for i in numbers]
    for i, row in zip(numbers, rows):
        if row.count(",") != n_fields - 1:
            raise ParseError(path, i, f"expected {n_fields} fields, got {row.count(',') + 1}")
    cells = ",".join(rows).split(",")
    return numbers, [cells[j::n_fields] for j in range(n_fields)]


def _column(path, numbers, name, cells, dtype=float, positive=False) -> np.ndarray:
    """One CSV column as an array of finite (and, if asked, positive) values;
    the first bad cell is named by its line and column."""
    try:
        values = np.array(cells, dtype=dtype)
    except (ValueError, OverflowError):
        for i, cell in zip(numbers, cells):
            try:
                dtype(cell)
            except (ValueError, OverflowError) as exc:
                raise ParseError(path, i, f"{name}: bad value {cell!r}") from exc
        raise
    ok = np.isfinite(values)
    if positive:
        ok &= values > 0
    bad = np.flatnonzero(~ok)
    if bad.size:  # _number rejects it with the message of a sidecar value
        _number(values[bad[0]].item(), name, path, numbers[bad[0]], positive=positive)
    return values


def read_histogram_csv(path, files=None) -> TransientHistogram:
    """Reconstruct a TransientHistogram from CSV + sidecar.

    The rows must match the sidecar: `n_bins` rows summing to `total_counts`,
    each `time_ps` at its bin centre on the sidecar's grid. `files` is the
    cache of bytes already read, as for `_read`.
    """
    meta_path = sidecar_path(path)
    meta = read_json_object(meta_path, files)
    width, fwhm = (_number(meta.get(key), key, meta_path, 1, positive=True)
                   for key in ("bin_width_ps", "irf_fwhm_ps"))
    t_start, irf_t0 = (_number(meta.get(key), key, meta_path, 1)
                       for key in ("t_start_ps", "irf_t0_ps"))
    numbers, (time_cells, count_cells) = _table(path, HISTOGRAM_HEADER, "histogram", files)
    times = _column(path, numbers, "time_ps", time_cells)
    counts = _column(path, numbers, "counts", count_cells, np.int64)
    grid = BinGrid(float(width), len(numbers), float(t_start))
    centres = grid.centers()
    bad = np.flatnonzero((counts < 0) | ~(np.abs(times - centres) <= 1e-6 * width))
    if bad.size:
        k = bad[0]
        raise ParseError(path, numbers[k], f"negative count {int(counts[k])}" if counts[k] < 0
                         else f"time_ps {float(times[k])!r} is not the bin centre "
                         f"{float(centres[k])!r}")
    n_bins = _number(meta.get("n_bins"), "n_bins", meta_path, 1, kind=int)
    total = _number(meta.get("total_counts"), "total_counts", meta_path, 1, kind=int)
    if len(numbers) != n_bins or int(counts.sum()) != total:
        raise ParseError(path, numbers[-1], f"{len(numbers)} rows with {int(counts.sum())} "
                         f"counts, sidecar says n_bins {n_bins}, total_counts {total}")
    irf = InstrumentResponse(fwhm=float(fwhm), t0=float(irf_t0))
    try:
        irf.check_grid(grid)
    except ValueError as exc:
        raise ParseError(meta_path, 1, f"irf_fwhm_ps: {exc}") from None
    return TransientHistogram(counts=counts, grid=grid, irf=irf)


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


# ---------------------------------------------------------------------------
# Gap, fit-result and mode-profile JSON documents.
# ---------------------------------------------------------------------------

def write_gap_json(path, gap: BandGap | None, period_a: float, hole_ratio: float):
    doc = {
        **_envelope("band_gap", frequency="a/lambda", wavelength="nm"),
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


def write_gap_table(path, gap_docs) -> None:
    """The gap sweep as CSV, one row per `write_gap_json` document; a null is
    an empty cell."""
    columns = ("hole_ratio", "gap_present", "lower_edge", "upper_edge", "midgap",
               "midgap_wavelength_nm", "gap_width")
    rows = [",".join(columns)]
    rows += [",".join("" if doc[c] is None else repr(doc[c]) for c in columns)
             for doc in gap_docs]
    Path(path).write_text("\n".join(rows) + "\n")


def write_modes_json(path, modes, volumes, doublets, splittings, *, hole_ratio: float,
                     supercell_size: int) -> None:
    """One hole ratio's in-gap modes with their volumes, and each dipole
    doublet (a pair of modes) with its fractional splitting."""
    write_json(path, {
        **_envelope("defect_modes", wavelength="nm", frequency="a/lambda"),
        "hole_ratio": hole_ratio,
        "supercell_size": supercell_size,
        "modes_found": len(modes),
        "modes": [{"index": i, "frequency": mode.frequency, "wavelength_nm": mode.wavelength,
                   "localization": mode.localization, "parity": mode.parity,
                   "mode_volume": volume} for i, (mode, volume) in enumerate(zip(modes, volumes))],
        "doublet_found": len(doublets) == 1,
        "doublets": [{"frequencies": [a.frequency, b.frequency],
                      "wavelengths_nm": [a.wavelength, b.wavelength],
                      "fractional_splitting": splitting}
                     for (a, b), splitting in zip(doublets, splittings)],
    })


def write_fit_json(path, result: FitResult) -> dict:
    doc = {
        **_envelope("fit_result", time="ps", wavelength="nm"),
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


def write_profile_json(path, profile: CavityModeProfile, mode_volume: float | None):
    """Mode-profile metadata as JSON, the energy-density grid as a `.npy` sidecar.

    The sidecar is `path` with the suffix `.npy`; the document names it in
    `energy_density_file` and records the SHA-256 of its bytes. A profile
    without a grid (a state `solve_h1_modes` did not keep one for) is a
    ValueError.
    """
    if profile.energy_density is None:
        raise ValueError(f"mode profile at a/lambda {profile.frequency!r} has no grid")
    path = Path(path)
    buffer = BytesIO()
    np.save(buffer, np.ascontiguousarray(profile.energy_density, dtype=np.float64),
            allow_pickle=False)
    grid_bytes = buffer.getvalue()
    grid_path = path.with_suffix(".npy")
    grid_path.write_bytes(grid_bytes)
    doc = {
        **_envelope("cavity_mode_profile", wavelength="nm", frequency="a/lambda"),
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


# ---------------------------------------------------------------------------
# Spectral scans: CSV "wavelength_nm,lifetime_ps,lifetime_err_ps" + sidecar.
# ---------------------------------------------------------------------------

def write_scan_csv(path, scan: SpectralScan, metadata: dict | None = None) -> dict:
    lines = [SCAN_HEADER]
    errors = scan.errors if scan.errors is not None else [""] * len(scan.wavelengths)
    for lam, tau, err in zip(scan.wavelengths, scan.lifetimes, errors):
        err_cell = _fmt(err) if err != "" else ""
        lines.append(f"{_fmt(lam)},{_fmt(tau)},{err_cell}")
    Path(path).write_text("\n".join(lines) + "\n")
    meta = _envelope("spectral_scan", wavelength="nm", time="ps")
    if scan.reference_tau0 is not None:
        meta["tau0_ps"] = float(scan.reference_tau0)
    if metadata:
        meta.update(metadata)
    write_json(sidecar_path(path), meta)
    return meta


def read_scan_csv(path, files=None) -> tuple[SpectralScan, dict]:
    """Scan and sidecar metadata; wavelengths must increase, lifetimes and
    uncertainties be positive, and a tau0 reference be positive. `files` is
    the cache of bytes already read, as for `_read`."""
    meta_path = sidecar_path(path)
    meta = read_json_object(meta_path, files) if meta_path.exists() else {}
    numbers, (lam_cells, tau_cells, err_cells) = _table(path, SCAN_HEADER, "spectral-scan",
                                                        files)
    lams = _column(path, numbers, "wavelength_nm", lam_cells, positive=True)
    taus = _column(path, numbers, "lifetime_ps", tau_cells, positive=True)
    bad = np.flatnonzero(~(np.diff(lams) > 0))
    if bad.size:
        k = bad[0] + 1
        raise ParseError(path, numbers[k], f"wavelength {float(lams[k])!r} does not increase")
    errors = None
    mixed = [k for k, cell in enumerate(err_cells) if bool(cell) != bool(err_cells[0])]
    if mixed:
        raise ParseError(path, numbers[mixed[0]], "mixed present/absent uncertainties")
    if err_cells[0]:
        errors = _column(path, numbers, "lifetime_err_ps", err_cells, positive=True)
    tau0 = meta.get("tau0_ps")
    if "tau0_ps" in meta:
        _number(tau0, "tau0_ps", meta_path, 1, positive=True)
    scan = SpectralScan(wavelengths=lams, lifetimes=taus, errors=errors, reference_tau0=tau0)
    return scan, meta
