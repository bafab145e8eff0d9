"""The config and input-file boundary of the command line.

Every malformed config or input file must exit 2 with a message naming the
offending path (a dotted config path, or file:line), never a traceback.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcqed import io as pcio
from pcqed.cli import EXIT_CONFIG, EXIT_OK, ConfigError, main, parse_config
from pcqed.fitting import SpectralScan
from pcqed.tcspc import BinGrid, DecayModel, InstrumentResponse, expected_curve, sample_histogram

SCAN_SIM = {
    "seed": 1,
    "spectral_scan": {
        "modes": [{"wavelength_nm": 1031.5, "q_factor": 1950.0}],
        "purcell_factors": [56.0],
        "alpha": 0.47,
        "tau0_ps": 840.0,
    },
}

IRF = InstrumentResponse(fwhm=150.0, t0=600.0)


def _write_histogram(path, n_bins=512, seed=3):
    grid = BinGrid(bin_width=12.0, n_bins=n_bins)
    curve = expected_curve(DecayModel([(1.0, 400.0)]), IRF, grid)
    pcio.write_histogram_csv(path, sample_histogram(curve, 20_000, seed, grid=grid, irf=IRF))
    return Path(path)


def _write_scan(path):
    lam = [1029.0 + 0.1 * i for i in range(51)]
    taus = [840.0 / (56.0 / 3.0 / (1.0 + (2.0 * (x - 1031.5) / 0.529) ** 2) + 0.47) for x in lam]
    scan = SpectralScan(wavelengths=lam, lifetimes=taus, errors=[0.05 * t for t in taus],
                        reference_tau0=840.0)
    pcio.write_scan_csv(path, scan, metadata={
        "modes": [{"wavelength_nm": 1031.5, "q_factor": 1950.0}],
    })
    return Path(path)


def _fit(tmp, *inputs, config=None):
    cfg = Path(tmp) / "fit.json"
    cfg.write_text(json.dumps(config or {"fit": {"model": "mono"}}))
    return main(["fit", "--config", str(cfg), "--out", str(Path(tmp) / "out"),
                 *map(str, inputs)])


# ---------------------------------------------------------------------------
# Config values that used to raise a traceback, or were silently ignored.
# ---------------------------------------------------------------------------

def _scan_mode(**changes):
    sim = json.loads(json.dumps(SCAN_SIM))
    sim["spectral_scan"]["modes"][0].update(changes)
    return {"simulate": sim}


def _purcell(values):
    sim = json.loads(json.dumps(SCAN_SIM))
    sim["spectral_scan"]["purcell_factors"] = values
    return {"simulate": sim}


@pytest.mark.parametrize("command, document, dotted", [
    ("simulate", _scan_mode(q_factor=0.5), "simulate.spectral_scan.modes[0].q_factor"),
    ("simulate", _scan_mode(v_mode="x"), "simulate.spectral_scan.modes[0].v_mode"),
    ("simulate", _purcell(["a"]), "simulate.spectral_scan.purcell_factors[0]"),
    ("fit", {"fit": {"modle": "bi"}}, "fit.modle"),
    ("bands", {"crystal": {"period_nm": 300.0}}, "crystal.hole_ratio"),
    ("modes", {"crystal": {"period_nm": 300.0, "hole_ratio": 0.37},
               "modes": {"supercell_size": 6}}, "modes.supercell_size"),
    ("simulate", _purcell([56.0, 10.0]), "simulate.spectral_scan.purcell_factors"),
    ("bands", {"crystal": {"period_nm": 300.0, "hole_ratio": 0.3},
               "bands": {"cutoff": 1, "n_bands": 12}}, "bands.n_bands"),
])
def test_bad_config_exits_2_with_dotted_path(tmp_path, capsys, command, document, dotted):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(document))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "fit":
        argv.append(str(_write_histogram(tmp_path / "h.csv")))
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{cfg}: {dotted}" in err and "Traceback" not in err
    assert not list(tmp_path.glob("out/fit_*.json"))


def test_parse_keeps_defaults_and_the_document():
    document = {"crystal": {"period_nm": 300, "hole_ratio_values": [0.33, 0.37]}}
    cfg = parse_config(document)
    assert cfg.crystal.hole_ratios == (0.33, 0.37)
    assert cfg.crystal.period_nm == 300.0 and isinstance(cfg.crystal.period_nm, float)
    assert cfg.bands.cutoff == 7 and cfg.modes.export_profiles == "doublet"
    assert cfg.fit.model == "auto" and cfg.simulate is None
    assert cfg.document is document


def test_seed_override_is_part_of_the_document():
    cfg = parse_config({"simulate": dict(SCAN_SIM)}).with_seed(5)
    assert cfg.simulate.seed == 5
    assert cfg.document["simulate"]["seed"] == 5
    with pytest.raises(ConfigError):
        cfg.with_seed(-1)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10**5) | st.floats(allow_nan=True)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=6,
)
_known = [("crystal", "period_nm"), ("crystal", "hole_ratio"), ("crystal", "slab"),
          ("bands", "cutoff"), ("modes", "export_profiles"), ("simulate", "seed"),
          ("simulate", "histogram"), ("simulate", "spectral_scan"), ("fit", "model"),
          ("fit", "spectral"), ("output_dir", None)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(_known), _json_values), max_size=4))
def test_parse_config_fails_only_with_config_error(entries):
    document = {}
    for (section, key), value in entries:
        if key is None:
            document[section] = value
        else:
            document.setdefault(section, {})
            if isinstance(document[section], dict):
                document[section][key] = value
    try:
        parse_config(document)
    except ConfigError:
        pass


# ---------------------------------------------------------------------------
# Input files.
# ---------------------------------------------------------------------------

def test_sidecar_not_json(tmp_path, capsys):
    hist = _write_histogram(tmp_path / "h.csv")
    Path(f"{hist}.meta.json").write_text("{not json")
    assert _fit(tmp_path, hist) == EXIT_CONFIG
    assert f"{hist}.meta.json:1:" in capsys.readouterr().err


def test_sidecar_missing_key(tmp_path, capsys):
    hist = _write_histogram(tmp_path / "h.csv")
    meta = json.loads(Path(f"{hist}.meta.json").read_text())
    del meta["bin_width_ps"]
    Path(f"{hist}.meta.json").write_text(json.dumps(meta))
    assert _fit(tmp_path, hist) == EXIT_CONFIG
    assert f"{hist}.meta.json:1: bin_width_ps" in capsys.readouterr().err


def test_negative_count(tmp_path, capsys):
    hist = _write_histogram(tmp_path / "h.csv")
    lines = hist.read_text().splitlines()
    lines[5] = lines[5].split(",")[0] + ",-3"
    hist.write_text("\n".join(lines) + "\n")
    assert _fit(tmp_path, hist) == EXIT_CONFIG
    assert f"{hist}:6:" in capsys.readouterr().err


def test_truncated_histogram(tmp_path, capsys):
    hist = _write_histogram(tmp_path / "h.csv", n_bins=512)
    hist.write_text("\n".join(hist.read_text().splitlines()[:101]) + "\n")
    assert _fit(tmp_path, hist) == EXIT_CONFIG
    assert "n_bins 512" in capsys.readouterr().err
    assert not (tmp_path / "out" / "fit_h.json").exists()


def test_time_column_must_be_bin_centres(tmp_path, capsys):
    hist = _write_histogram(tmp_path / "h.csv", n_bins=64)
    lines = hist.read_text().splitlines()
    lines[1:] = [f"{float(i)!r},{row.split(',')[1]}" for i, row in enumerate(lines[1:])]
    hist.write_text("\n".join(lines) + "\n")
    assert _fit(tmp_path, hist) == EXIT_CONFIG
    assert f"{hist}:2: time_ps" in capsys.readouterr().err


def test_scan_sidecar_modes_follow_the_config_rule(tmp_path, capsys):
    scan = _write_scan(tmp_path / "scan.csv")
    assert _fit(tmp_path, scan) == EXIT_OK
    meta = json.loads(Path(f"{scan}.meta.json").read_text())
    meta["modes"][0]["q_factor"] = 0.5
    Path(f"{scan}.meta.json").write_text(json.dumps(meta))
    assert _fit(tmp_path, scan) == EXIT_CONFIG
    assert f"{scan}.meta.json:1: modes[0].q_factor" in capsys.readouterr().err


def _set_uncertainty(scan, row, sigma):
    lines = scan.read_text().splitlines()
    cells = lines[row].split(",")
    lines[row] = ",".join(cells[:2] + [repr(sigma)])
    scan.write_text("\n".join(lines) + "\n")


def test_vanishing_scan_uncertainty_exits_2_without_warnings(tmp_path, capsys, recwarn):
    # 1/sigma^2 overflows to inf below about 1e-154 ps.
    scan = _write_scan(tmp_path / "scan.csv")
    _set_uncertainty(scan, 4, 1e-200)
    assert _fit(tmp_path, scan) == EXIT_CONFIG
    assert f"{scan}: scan point 3 at " in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_huge_scan_lifetime_exits_2_without_warnings(tmp_path, capsys, recwarn):
    # tau^2 overflows to inf above about 1.3e154 ps.
    scan = _write_scan(tmp_path / "scan.csv")
    lines = scan.read_text().splitlines()
    cells = lines[4].split(",")
    lines[4] = ",".join([cells[0], repr(1e200), cells[2]])
    scan.write_text("\n".join(lines) + "\n")
    assert _fit(tmp_path, scan) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{scan}: scan point 3 at " in err and "lifetime 1e+200 ps" in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_tiny_finite_weight_still_fits(tmp_path):
    scan = _write_scan(tmp_path / "scan.csv")
    _set_uncertainty(scan, 4, 1e-140)
    assert _fit(tmp_path, scan) == EXIT_OK


def test_same_named_inputs_rejected_before_fitting(tmp_path, capsys):
    for name in "ab":
        (tmp_path / name).mkdir()
    a = _write_histogram(tmp_path / "a" / "histogram.csv", seed=1)
    b = _write_histogram(tmp_path / "b" / "histogram.csv", seed=2)
    assert _fit(tmp_path, a, b) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(a) in err and str(b) in err
    assert not list(tmp_path.glob("out/fit_*.json"))


_garbage = st.one_of(
    st.integers(-10**20, 10**20), st.floats(), st.text(max_size=8), st.none(), st.booleans(),
    st.lists(st.integers(-3, 3), max_size=3),
)


def _mutate_csv(text, data):
    lines = text.splitlines()
    action = data.draw(st.sampled_from(["truncate", "cell", "row", "header", "swap", "empty"]))
    if action == "truncate":
        lines = lines[: data.draw(st.integers(0, len(lines)))]
    elif action == "cell":
        i = data.draw(st.integers(1, len(lines) - 1))
        cells = lines[i].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(
            st.one_of(st.text(max_size=6), st.integers(-10**6, 10**20).map(str),
                      st.floats().map(repr))
        )
        lines[i] = ",".join(cells)
    elif action == "row":
        lines.insert(data.draw(st.integers(1, len(lines))), data.draw(st.text(max_size=12)))
    elif action == "header":
        lines[0] = data.draw(st.sampled_from(["time_ps,counts",
                                              "wavelength_nm,lifetime_ps,lifetime_err_ps", "x"]))
    elif action == "swap":
        i, j = data.draw(st.integers(1, len(lines) - 1)), data.draw(st.integers(1, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines = []
    return "\n".join(lines) + "\n"


def _mutate_sidecar(text, data):
    action = data.draw(st.sampled_from(["keep", "drop", "set", "text", "delete"]))
    if action in ("drop", "set"):
        meta = json.loads(text)
        key = data.draw(st.sampled_from(sorted(meta)))
        if action == "drop":
            del meta[key]
        else:
            meta[key] = data.draw(_garbage)
        return json.dumps(meta)
    if action == "text":
        return data.draw(st.text(max_size=20))
    return None if action == "delete" else text


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["histogram", "scan"]), data=st.data())
def test_malformed_inputs_never_raise(kind, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = (_write_histogram(Path(tmp) / "h.csv", n_bins=128) if kind == "histogram"
                else _write_scan(Path(tmp) / "scan.csv"))
        meta_path = Path(f"{path}.meta.json")
        path.write_text(_mutate_csv(path.read_text(), data))
        meta = _mutate_sidecar(meta_path.read_text(), data)
        if meta is None:
            meta_path.unlink()
        else:
            meta_path.write_text(meta)
        assert _fit(tmp, path, config={"fit": {"model": "auto"}}) in (0, 2, 3, 4)
