"""The config and input-file boundary of the command line.

Every malformed config or input file must exit 2 with a message naming the
offending path (a dotted config path, or file:line), never a traceback.
"""

import dataclasses
import inspect
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcqed import io as pcio
from pcqed.bands import PlaneWaveBasis, compute_bands, solve_h1_modes
from pcqed.cli import (
    EXIT_CONFIG,
    EXIT_FIT,
    EXIT_OK,
    REPRODUCE_CONFIG,
    ConfigError,
    config_hash,
    main,
    parse_config,
)
from pcqed.fitting import SpectralScan
from pcqed.geometry import TriangularLattice
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
    ("modes", {"crystal": {"period_nm": 300.0, "hole_ratio_values": [0.37]},
               "modes": {"supercell_size": 6}}, "modes.supercell_size"),
    ("simulate", _purcell([56.0, 10.0]), "simulate.spectral_scan.purcell_factors"),
    ("bands", {"crystal": {"period_nm": 300.0, "hole_ratio_values": [0.3]},
               "bands": {"cutoff": 1, "n_bands": 12}}, "bands.n_bands"),
    # Settings that are no longer read.
    ("modes", {"crystal": {"period_nm": 300.0, "hole_ratio_values": [0.37], "hole_ratio": 0.37}},
     "crystal.hole_ratio: unknown key"),
    ("modes", {"crystal": {"period_nm": 300.0, "hole_ratio_values": [0.37]},
               "modes": {"mode_height_nm": 400.0}}, "modes.mode_height_nm: unknown key"),
    ("modes", {"crystal": {"period_nm": 300.0, "hole_ratio_values": [0.37]},
               "modes": {"volume_index": 3.4}}, "modes.volume_index: unknown key"),
    # Both ratios would write bands_ra0p370.csv and gap_ra0p370.json.
    ("bands", {"crystal": {"period_nm": 300.0, "hole_ratio_values": [0.33, 0.3701, 0.3704]}},
     "crystal.hole_ratio_values: 0.3701 and 0.3704 share the file tag ra0p370"),
    ("bands", {"crystal": {"period_nm": 300.0, "hole_ratio_values": [0.37], "eps_hole": 1.0}},
     "crystal.eps_hole: unknown key"),
    ("modes", {"crystal": {"period_nm": 300.0, "hole_ratio_values": [0.37]},
               "modes": {"export_profiles": "all"}}, "modes.export_profiles: unknown key"),
    ("simulate", _scan_mode(v_mode=1.5), "simulate.spectral_scan.modes[0].v_mode: unknown key"),
    ("fit", {"fit": {"spectral": {"modes": [{"wavelength_nm": 1031.5, "q_factor": 1950.0,
                                              "v_mode": 1.5}]}}},
     "fit.spectral.modes[0].v_mode: unknown key"),
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
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cutoff", range(1, 14))
def test_n_bands_bounded_by_the_bulk_basis_size(tmp_path, capsys, cutoff):
    # The config check and the solver count plane waves with one function.
    lat = TriangularLattice(300.0, 0.3, 10.0)
    size = len(PlaneWaveBasis.bulk(lat, cutoff))
    document = {"crystal": {"period_nm": 300.0, "hole_ratio_values": [0.3]},
                "bands": {"cutoff": cutoff, "n_bands": size}}
    assert parse_config(document).bands.n_bands == size
    document["bands"]["n_bands"] = size + 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(document))
    assert main(["bands", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"{cfg}: bands.n_bands: exceeds the {size} plane waves" in capsys.readouterr().err


@pytest.mark.parametrize("solver", [compute_bands, solve_h1_modes])
def test_solvers_take_the_basis_by_name(solver):
    # Call tracing reads the basis size from the argument named `basis`.
    assert "basis" in inspect.signature(solver).parameters


@pytest.mark.parametrize("command", ["bands", "modes", "fit"])
def test_seed_flag_only_where_a_seed_is_used(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"crystal": {"period_nm": 300.0, "hole_ratio_values": [0.37]}}))
    argv = [command, "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "out")]
    if command == "fit":
        argv.append(str(_write_histogram(tmp_path / "h.csv")))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_config_block_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```json\n")[1:]
    assert len(blocks) == 1
    cfg = parse_config(json.loads(blocks[0].split("```")[0]))
    assert cfg.crystal.hole_ratio_values and cfg.simulate.seed is not None


def test_parse_keeps_defaults_and_the_document():
    document = {"crystal": {"period_nm": 300, "hole_ratio_values": [0.33, 0.37]}}
    cfg = parse_config(document)
    assert cfg.crystal.hole_ratio_values == (0.33, 0.37)
    assert cfg.crystal.period_nm == 300.0 and isinstance(cfg.crystal.period_nm, float)
    assert cfg.bands.cutoff == 7 and cfg.modes.grid_per_period == 64
    assert cfg.fit.model == "auto" and cfg.simulate is None
    # A document that spells out the defaults, or writes 300 as 300.0, parses
    # to the same config and so hashes alike.
    spelled_out = {
        "output_dir": None,
        "crystal": {"period_nm": 300.0, "hole_ratio_values": [0.33, 0.37],
                    "slab": {"thickness_nm": 400, "n_core": 3.4, "n_clad": 1},
                    "reference_wavelength_nm": 1050},
        "bands": {"cutoff": 7, "samples_per_segment": 16, "n_bands": 5},
        "modes": {"supercell_size": 7, "cutoff": 12, "grid_per_period": 64},
        "fit": {"model": "auto", "spectral": {}},
    }
    assert config_hash(cfg) == config_hash(parse_config(spelled_out))


def test_seed_override_is_part_of_the_document():
    cfg = parse_config({"simulate": dict(SCAN_SIM)}).with_seed(5)
    assert cfg.simulate.seed == 5
    assert config_hash(cfg) != config_hash(parse_config({"simulate": dict(SCAN_SIM)}))
    with pytest.raises(ConfigError):
        cfg.with_seed(-1)


# A config with every optional setting given, so each leaf has a value.
FULL_CONFIG = {
    **REPRODUCE_CONFIG,
    "output_dir": "out",
    "fit": {"model": "bi", "spectral": {"modes": [{"wavelength_nm": 1031.5, "q_factor": 1950.0}],
                                        "tau0_ps": 840.0}},
}


def _leaf_overrides(node, path=""):
    """(dotted path, copy of the config dataclass `node` with that one leaf
    changed) for every leaf; a tuple varies its first item."""
    for spec in dataclasses.fields(node):
        for leaf, value in _changed(getattr(node, spec.name), path + spec.name):
            yield leaf, dataclasses.replace(node, **{spec.name: value})


def _changed(value, path):
    if dataclasses.is_dataclass(value):
        yield from _leaf_overrides(value, path + ".")
    elif isinstance(value, tuple):
        for leaf, first in _changed(value[0], path + "[0]"):
            yield leaf, (first, *value[1:])
    elif isinstance(value, str):
        yield path, value + "x"
    elif isinstance(value, int):
        yield path, value + 2  # an odd supercell stays odd
    elif isinstance(value, float):
        yield path, value * 1.01 if value else 0.01
    else:
        raise AssertionError(f"{path}: {value!r} has no override; give it in FULL_CONFIG")


def test_every_single_leaf_override_changes_the_config_hash():
    cfg = parse_config(FULL_CONFIG)
    hashes = {leaf: config_hash(changed) for leaf, changed in _leaf_overrides(cfg)}
    assert {"bands.cutoff", "simulate.seed", "crystal.eps_background",
            "simulate.histogram.components[0][0]", "fit.spectral.modes[0].q_factor"} <= set(hashes)
    assert config_hash(cfg) not in hashes.values()
    assert len(set(hashes.values())) == len(hashes)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10**5) | st.floats(allow_nan=True)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=6,
)
_known = [("crystal", "period_nm"), ("crystal", "hole_ratio_values"), ("crystal", "slab"),
          ("bands", "cutoff"), ("modes", "grid_per_period"), ("simulate", "seed"),
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


@pytest.mark.parametrize("key", ["bin_width_ps", "irf_fwhm_ps"])
def test_sidecar_width_must_be_positive(tmp_path, capsys, key):
    hist = _write_histogram(tmp_path / "h.csv")
    meta = json.loads(Path(f"{hist}.meta.json").read_text())
    meta[key] = 0.0
    Path(f"{hist}.meta.json").write_text(json.dumps(meta))
    assert _fit(tmp_path, hist) == EXIT_CONFIG
    assert f"{hist}.meta.json:1: {key}: expected a positive number, got 0.0" in capsys.readouterr().err


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
    runs = [tmp_path / run for run in ("valid", "q_factor", "v_mode")]  # a fresh --out each
    for run in runs:
        run.mkdir()
    assert _fit(runs[0], scan) == EXIT_OK
    meta = json.loads(Path(f"{scan}.meta.json").read_text())
    meta["modes"][0]["q_factor"] = 0.5
    Path(f"{scan}.meta.json").write_text(json.dumps(meta))
    assert _fit(runs[1], scan) == EXIT_CONFIG
    assert f"{scan}.meta.json:1: modes[0].q_factor" in capsys.readouterr().err
    meta["modes"][0].update(q_factor=1950.0, v_mode=1.5)
    Path(f"{scan}.meta.json").write_text(json.dumps(meta))
    assert _fit(runs[2], scan) == EXIT_CONFIG
    assert f"{scan}.meta.json:1: modes[0].v_mode: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("unreadable", ["histogram sidecar", "scan sidecar", "config", "input"])
def test_unreadable_file_exits_2_at_its_line_1(tmp_path, capsys, unreadable):
    # A directory stands for any file that exists but cannot be read: a
    # mode-000 file is still readable to root.
    write = _write_scan if unreadable == "scan sidecar" else _write_histogram
    path = write(tmp_path / "t.csv")
    config = tmp_path / "fit.json"
    config.write_text(json.dumps({"fit": {"model": "mono"}}))
    target = {"config": config, "input": path}.get(unreadable, Path(f"{path}.meta.json"))
    target.unlink()
    target.mkdir()
    argv = ["fit", "--config", str(config), "--out", str(tmp_path / "out"), str(path)]
    assert main(argv) == EXIT_CONFIG
    assert f"error: {target}:1: cannot read: " in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["header", "scan modes", "scan tau0"])
def test_every_input_is_checked_before_the_first_fit(tmp_path, capsys, bad):
    good = _write_histogram(tmp_path / "good.csv")
    if bad == "header":
        broken = tmp_path / "bad.csv"
        broken.write_text("a,b\n1,2\n")
    else:
        broken = _write_scan(tmp_path / "bad.csv")
        meta = json.loads(Path(f"{broken}.meta.json").read_text())
        del meta["modes" if bad == "scan modes" else "tau0_ps"]
        Path(f"{broken}.meta.json").write_text(json.dumps(meta))
    assert _fit(tmp_path, good, broken) == EXIT_CONFIG
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_input_that_cannot_be_fitted_leaves_no_output(tmp_path, capsys):
    # Too few bins for the fit parameters is found only by the fit; every
    # fit runs before the first file is written.
    good = _write_histogram(tmp_path / "good.csv")
    tiny = _write_histogram(tmp_path / "tiny.csv", n_bins=1)
    assert _fit(tmp_path, good, tiny) == EXIT_CONFIG
    assert f"error: {tiny}: 1 data points cannot determine 4 fit parameters" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _argv(tmp_path, command, out):
    """A valid `command` call writing to `out` (None: no --out), its config
    and input in `tmp_path`."""
    config = tmp_path / "config.json"
    crystal = {"crystal": {"period_nm": 300.0, "hole_ratio_values": [0.3]},
               "bands": {"cutoff": 2, "samples_per_segment": 2, "n_bands": 3}}
    config.write_text(json.dumps({
        "bands": crystal,
        "modes": crystal,
        "simulate": {"simulate": SCAN_SIM},
        "fit": {"fit": {"model": "mono"}},
    }.get(command, {})))
    argv = [command] if out is None else [command, "--out", str(out)]
    if command != "reproduce-paper":
        argv += ["--config", str(config)]
    if command == "fit":
        argv.append(str(_write_histogram(tmp_path / "h.csv")))
    return argv


@pytest.mark.parametrize("command", ["bands", "simulate", "fit", "reproduce-paper"])
def test_out_naming_a_file_exits_2_at_its_path(tmp_path, capsys, command):
    out = tmp_path / "afile"
    out.write_text("not a directory\n")
    assert main(_argv(tmp_path, command, out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}") and ": cannot write: " in err
    assert "Traceback" not in err
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["bands", "modes", "simulate", "fit", "reproduce-paper"])
def test_out_holding_files_exits_2_and_keeps_them(tmp_path, capsys, command):
    # A run's manifest lists every file of its directory only when the run
    # starts in an empty one.
    out = tmp_path / "out"
    out.mkdir()
    (out / "earlier.txt").write_text("an earlier run\n")
    assert main(_argv(tmp_path, command, out)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {out}: output directory is not empty\n"
    assert [p.name for p in out.iterdir()] == ["earlier.txt"]
    assert (out / "earlier.txt").read_text() == "an earlier run\n"


def test_empty_existing_out_from_the_environment_is_used(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setenv("PCQED_OUT", str(out))
    assert main(_argv(tmp_path, "bands", None)) == EXIT_OK
    assert (out / "manifest.json").exists()


def test_output_dir_holding_files_exits_2(tmp_path, capsys, monkeypatch):
    out = tmp_path / "configured"
    out.mkdir()
    (out / "earlier.txt").write_text("")
    config = tmp_path / "fit.json"
    config.write_text(json.dumps({"output_dir": str(out), "fit": {"model": "mono"}}))
    monkeypatch.delenv("PCQED_OUT", raising=False)
    assert main(["fit", "--config", str(config),
                 str(_write_histogram(tmp_path / "h.csv"))]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {out}: output directory is not empty\n"
    assert not (out / "manifest.json").exists()


def test_unknown_header_exits_2_naming_both_fit_inputs(tmp_path, capsys):
    bogus = tmp_path / "x.csv"
    bogus.write_text("a,b\n1,2\n")
    assert _fit(tmp_path, bogus) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {bogus}:1: unrecognized header 'a,b'" in err
    assert "'time_ps,counts'" in err and "'wavelength_nm,lifetime_ps,lifetime_err_ps'" in err


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


def test_scan_sidecar_tau0_table_is_not_a_reference(tmp_path, capsys):
    scan = _write_scan(tmp_path / "scan.csv")
    meta = json.loads(Path(f"{scan}.meta.json").read_text())
    del meta["tau0_ps"]
    meta["tau0_table"] = [[1000.0, 650.0], [1040.0, 900.0]]
    Path(f"{scan}.meta.json").write_text(json.dumps(meta))
    assert _fit(tmp_path, scan) == EXIT_CONFIG
    assert "tau0" in capsys.readouterr().err


def test_tiny_finite_weight_still_fits(tmp_path):
    scan = _write_scan(tmp_path / "scan.csv")
    _set_uncertainty(scan, 4, 1e-140)
    assert _fit(tmp_path, scan) == EXIT_OK


def test_config_tau0_overrides_the_scan_sidecar(tmp_path):
    # tau = tau0 / (F/3 L + alpha): doubling tau0 doubles F and alpha.
    fits = {}
    for tau0 in (None, 1680.0):
        tmp = tmp_path / str(tau0)
        tmp.mkdir()
        scan = _write_scan(tmp / "scan.csv")
        config = {"fit": {"spectral": {} if tau0 is None else {"tau0_ps": tau0}}}
        assert _fit(tmp, scan, config=config) == EXIT_OK
        fits[tau0] = json.loads((tmp / "out" / "fit_scan.json").read_text())["parameters"]
    assert json.loads(Path(f"{scan}.meta.json").read_text())["tau0_ps"] == 840.0
    for name in ("purcell_factor", "alpha"):
        assert fits[1680.0][name] == pytest.approx(2.0 * fits[None][name], rel=1e-6)


def test_auto_model_on_one_component_writes_a_mono_fit(tmp_path, capsys):
    hist = _write_histogram(tmp_path / "h.csv")
    assert _fit(tmp_path, hist, config={"fit": {"model": "auto"}}) == EXIT_OK
    doc = json.loads((tmp_path / "out" / "fit_h.json").read_text())
    assert doc["model"] == "monoexponential" and doc["converged"]
    out = capsys.readouterr().out
    assert "fit h: model selection: mono (delta deviance " in out
    tau, err = doc["parameters"]["lifetime_ps"], doc["std_errors"]["lifetime_ps"]
    assert f"fit h: monoexponential lifetime {tau:.1f} +- {err:.1f} ps" in out


def test_same_named_inputs_rejected_before_fitting(tmp_path, capsys):
    for name in "ab":
        (tmp_path / name).mkdir()
    a = _write_histogram(tmp_path / "a" / "histogram.csv", seed=1)
    b = _write_histogram(tmp_path / "b" / "histogram.csv", seed=2)
    assert _fit(tmp_path, a, b) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(a) in err and str(b) in err
    assert not list(tmp_path.glob("out/fit_*.json"))


@pytest.mark.parametrize("model", ["mono", "bi", "auto"])
def test_one_bin_histogram_exits_2(tmp_path, capsys, model):
    hist = _write_histogram(tmp_path / "h.csv", n_bins=1)
    assert _fit(tmp_path, hist, config={"fit": {"model": model}}) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{hist}: 1 data points cannot determine 4 fit parameters" in err
    assert "Traceback" not in err


def test_huge_finite_scan_lifetime_fits_without_warnings(tmp_path, recwarn):
    # A 1e12-ps row drives the spectral fit towards F = alpha = 0.
    scan = _write_scan(tmp_path / "scan.csv")
    lines = scan.read_text().splitlines()
    cells = lines[4].split(",")
    lines[4] = ",".join([cells[0], repr(1e12), cells[2]])
    scan.write_text("\n".join(lines) + "\n")
    assert _fit(tmp_path, scan) in (EXIT_OK, EXIT_FIT)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    for path in tmp_path.glob("out/fit_scan.json"):
        numbers = _numbers(json.loads(path.read_text()))
        assert numbers and all(map(math.isfinite, numbers))


def _numbers(node):
    """Every number in a parsed JSON document (json reads Infinity and NaN)."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for item in node for x in _numbers(item)]
    return [node] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


# ---------------------------------------------------------------------------
# The file reading, JSON loading and CSV table parsing that every input
# shares: the config, the histogram and scan CSVs and their sidecars.
# ---------------------------------------------------------------------------

def test_input_not_utf8_exits_2_at_its_line_1(tmp_path, capsys):
    hist = _write_histogram(tmp_path / "h.csv")
    lines = hist.read_bytes().split(b"\n")
    lines[3] = lines[3].replace(b",", b"\xff,")
    hist.write_bytes(b"\n".join(lines))
    assert _fit(tmp_path, hist) == EXIT_CONFIG
    assert f"error: {hist}:1: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["histogram", "scan"])
def test_input_without_rows_exits_2(tmp_path, capsys, kind):
    write = _write_histogram if kind == "histogram" else _write_scan
    path = write(tmp_path / "t.csv")
    path.write_text(path.read_text().splitlines()[0] + "\n\n")
    assert _fit(tmp_path, path) == EXIT_CONFIG
    assert f"error: {path}:2: no data rows" in capsys.readouterr().err


def test_invalid_json_names_its_line(tmp_path, capsys):
    config = tmp_path / "fit.json"
    config.write_text('{\n "fit": {\n  "model": ,\n }\n}\n')
    hist = _write_histogram(tmp_path / "h.csv")
    argv = ["fit", "--config", str(config), "--out", str(tmp_path / "out"), str(hist)]
    assert main(argv) == EXIT_CONFIG
    assert f"error: {config}:3: invalid JSON: " in capsys.readouterr().err


@pytest.mark.parametrize("kind, column, cell, message", [
    pytest.param("histogram", "counts", "1.0x", "counts: bad value '1.0x'", id="histogram-counts"),
    *[pytest.param("histogram", "time_ps", value, f"time_ps: expected a finite number, got {value}",
                   id=f"histogram-time_ps-{value}") for value in ("nan", "inf", "-inf")],
    pytest.param("scan", "lifetime_ps", "1.0x", "lifetime_ps: bad value '1.0x'",
                 id="scan-lifetime_ps"),
    # The first data row sets whether uncertainties are present.
    pytest.param("scan", "lifetime_err_ps", "", "mixed present/absent uncertainties",
                 id="scan-lifetime_err_ps-mixed"),
])
def test_non_numeric_cell_is_named(tmp_path, kind, column, cell, message):
    write, read = {
        "histogram": (_write_histogram, pcio.read_histogram_csv),
        "scan": (_write_scan, pcio.read_scan_csv),
    }[kind]
    path = write(tmp_path / "t.csv")
    lines = path.read_text().splitlines()
    names = lines[0].split(",")
    cells = lines[3].split(",")
    cells[names.index(column)] = cell
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(pcio.ParseError) as err:
        read(path)
    assert str(err.value) == f"{path}:4: {message}"


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


@settings(max_examples=90, deadline=None, derandomize=True)
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
