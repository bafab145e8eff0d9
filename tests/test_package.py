"""The package as a whole: each public name has one home, its submodule, and the
rules every module keeps (its imports, its ranges, its BLAS threads)."""

import ast
import ctypes
import dataclasses
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import types
import typing

import pytest

import pcqed
from pcqed import cli

MODULES = ("geometry", "bands", "cavity", "tcspc", "fitting", "io", "cli")


def test_package_exposes_only_its_version():
    assert isinstance(pcqed.__version__, str) and pcqed.__version__
    public = {name for name in vars(pcqed) if not name.startswith("_")}
    assert public <= set(MODULES)  # the submodules, bound once imported


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cli"])
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"pcqed.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def _private_reads(module) -> set:
    """'owner._name' for every private name of another pcqed module that
    `module` imports (`from .owner import _name`) or reads as an attribute of
    an imported pcqed module (`owner._name`, `from . import owner`)."""
    tree = ast.parse(inspect.getsource(module))
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").startswith("pcqed"))):
            continue
        owner = (node.module or "").removeprefix("pcqed").lstrip(".")
        for alias in node.names:
            if not owner:  # from . import tcspc
                modules[alias.asname or alias.name] = alias.name
            elif alias.name.startswith("_"):
                reads.add(f"{owner}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            reads.add(f"{modules[node.value.id]}.{node.attr}")
    return reads


# The plane-wave operator of `bands._eps_matrix` is built from the hole's
# Fourier coefficients, which stay private to `geometry`.
SHARED_PRIVATES = {"bands": {"geometry._fourier_coefficient", "geometry._hole_form_factor"}}


@pytest.mark.parametrize("name", MODULES)
def test_no_module_reads_another_modules_private_name(name):
    module = importlib.import_module(f"pcqed.{name}")
    assert _private_reads(module) - SHARED_PRIVATES.get(name, set()) == set()


def test_private_reads_are_found():
    from pcqed import bands

    assert _private_reads(bands) == SHARED_PRIVATES["bands"]


def _in_fresh_interpreter(code: str) -> str:
    """The stripped stdout of `code` run by a new interpreter that imports this pcqed."""
    src = os.path.dirname(os.path.dirname(pcqed.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          timeout=120, text=True, check=True).stdout.strip()


@pytest.mark.parametrize("module", ["pcqed.cli", "pcqed.fitting", "pcqed.bands"])
def test_import_loads_no_scipy(module):
    # pcqed runs on numpy alone: fits on `fitting._minimize`, n_eff on
    # `geometry._brentq`, J1 on `geometry._j1`, erfcx on `tcspc._erfcx` and
    # the eigensolves on `numpy.linalg`. Any scipy module would only lengthen
    # the start of every pcqed process.
    code = (f"import sys, {module}; "
            "print(*[name for name in sys.modules if name.split('.')[0] == 'scipy'])")
    assert _in_fresh_interpreter(code).split() == []


def test_io_imports_no_band_solver():
    # `pcqed.io` names the band results only in annotations; reading and
    # writing files must not load the solver or scipy.linalg.
    code = ("import sys, pcqed.io; "
            "print('pcqed.bands' in sys.modules, 'scipy.linalg' in sys.modules)")
    assert _in_fresh_interpreter(code) == "False False"


def test_cli_leaves_every_file_format_to_io():
    # Reading, writing and naming files is `pcqed.io`'s job: the command line
    # holds no JSON codec, document envelope, sidecar name or CSV header.
    from pcqed import cli
    from pcqed import io as pcio

    source = inspect.getsource(cli)
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert "json" not in imported
    for detail in ("read_text", "write_text", "read_bytes", "SCHEMA_VERSION", '"kind"',
                   '"units"', ".meta.json", pcio.HISTOGRAM_HEADER, pcio.SCAN_HEADER):
        assert detail not in source


def test_every_cli_write_goes_through_the_result_bundle():
    # `ResultBundle.write` lists each file in the manifest and creates the run
    # directory: no other code in the command line writes a file or makes a
    # directory.
    from pcqed import cli

    tree = ast.parse(inspect.getsource(cli))
    bundle = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "ResultBundle")
    inside = {id(node) for node in ast.walk(bundle)}
    outside = [node for node in ast.walk(tree) if id(node) not in inside]
    assert not [node for node in outside if isinstance(node, ast.Attribute)
                and node.attr == "mkdir"]
    writers = {id(node) for node in outside
               if isinstance(node, ast.Attribute) and node.attr.startswith("write_")}
    passed = {id(node.args[2]) for node in outside if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute) and node.func.attr == "write"
              and len(node.args) > 2}  # bundle.write(name, filename, writer, ...)
    assert writers and writers <= passed


def test_every_public_reader_serves_a_command():
    # A reader that no command reaches is an input format no run uses, with
    # validation rules nothing exercises. A command reaches a reader when
    # `cli` calls it, or calls a `pcqed.io` function that calls it
    # (`read_fit_input` dispatches to the histogram and scan readers).
    from pcqed import cli
    from pcqed import io as pcio

    own = {name: obj for name, obj in vars(pcio).items()
           if inspect.isfunction(obj) and obj.__module__ == pcio.__name__}
    frontier = {node.func.attr for node in ast.walk(ast.parse(inspect.getsource(cli)))
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "pcio"}
    reached = set()
    while frontier:
        name = frontier.pop()
        reached.add(name)
        frontier |= {node.func.id for node in ast.walk(ast.parse(inspect.getsource(own[name])))
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id in own} - reached
    readers = {name for name in pcio.__all__ if name.startswith("read_")}
    assert sorted(readers - reached) == []


def _sources() -> dict:
    """The parsed source of each pcqed module, by name."""
    return {name: ast.parse(inspect.getsource(importlib.import_module(f"pcqed.{name}")))
            for name in MODULES}


def test_the_emg_kernel_has_one_caller():
    # `tcspc.decay_terms` is the one evaluation of the decay model: the
    # generator and every fit take their curves from it, so a second caller
    # of the kernel would be a second formula to keep bit for bit in step.
    callers = set()
    for name, tree in _sources().items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "_emg" in (getattr(node.func, "id", None),
                                                             getattr(node.func, "attr", None)):
                    callers.add(f"{name}.{getattr(top, 'name', '<module>')}")
    assert callers == {"tcspc.decay_terms"}


# Called only by tests: the reference seams of the physics oracles
# (empty-lattice bands, the C6v degeneracies, criterion 4), kept on purpose.
ORACLE_SEAMS = {"geometry.dielectric_fourier", "bands.build_te_operator"}


def test_every_public_function_is_used_in_the_package():
    # A public function that nothing in the package calls or passes on is a
    # second path that no command runs.
    sources = _sources()
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in sources.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    public = {f"{name}.{node.name}" for name, tree in sources.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert ORACLE_SEAMS <= public
    assert sorted(f for f in public - ORACLE_SEAMS if f.split(".")[1] not in used) == []


def test_no_module_but_io_catches_an_overflow():
    # The config's ranges keep every number the solvers form a normal float
    # and every array within memory, so only `io`, which reads numbers from
    # files, may catch an overflow or a failed allocation.
    guarded = {"MemoryError", "OverflowError", "ArithmeticError"}
    catches = []
    for name, tree in _sources().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None and name != "io":
                caught = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}
                catches += [f"{name}:{node.lineno}: {error}" for error in sorted(caught & guarded)]
    assert catches == []


# Numeric settings without an upper bound in the schema, each for its reason:
# a seed is any non-negative integer, and `Bands.__post_init__` bounds
# n_bands by the size of the bulk basis.
UNBOUNDED_ABOVE = {"simulate.seed", "bands.n_bands"}


def _slots(hint):
    """The types a config field of type `hint` holds, its None and tuples unwrapped."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (types.UnionType, tuple):
        return [slot for arg in args if arg not in (type(None), Ellipsis) for slot in _slots(arg)]
    return [hint]


def _numeric_settings(cls, prefix=""):
    """(dotted key, schema bounds) of every numeric setting under the config class `cls`."""
    hints = typing.get_type_hints(cls)
    for spec in dataclasses.fields(cls):
        slots = _slots(hints[spec.name])
        if dataclasses.is_dataclass(slots[0]):
            yield from _numeric_settings(slots[0], f"{prefix}{spec.name}.")
        elif {int, float} & set(slots):
            yield prefix + spec.name, spec.metadata


def test_every_numeric_setting_has_a_physical_range():
    # A setting without both ends lets a finite value overflow a solver; the
    # range, not a guard in the solver, refuses it.
    settings = dict(_numeric_settings(cli.Config))
    assert {"crystal.eps_background", "simulate.spectral_scan.noise_fraction",
            "simulate.histogram.components", "fit.spectral.modes.q_factor"} <= set(settings)
    lower, upper = {"minimum", "above"}, {"maximum", "below"}
    assert sorted(key for key, bounds in settings.items() if not bounds.keys() & lower) == []
    assert sorted(key for key, bounds in settings.items()
                  if not bounds.keys() & upper and key not in UNBOUNDED_ABOVE) == []
    assert UNBOUNDED_ABOVE <= set(settings)


def _just_outside(kind, bound):
    """The nearest value beyond the schema bound `kind`: `bound`."""
    if kind in ("above", "below"):
        return bound
    if isinstance(bound, int):
        return bound - 1 if kind == "minimum" else bound + 1
    return math.nextafter(bound, -math.inf if kind == "minimum" else math.inf)


def _place(document, key, value):
    """Set the setting `key` of `document` (its first number, where it holds
    a list) to `value`; the dotted path that names that number."""
    *parents, leaf = key.split(".")
    node, path = document, ""
    for part in parents:
        node, path = node.setdefault(part, {}), path + part
        if isinstance(node, list):  # a tuple of modes: the first
            node, path = node[0], path + "[0]"
        path += "."
    holder, index, path = node, leaf, path + leaf
    while isinstance(holder.get(index) if isinstance(holder, dict) else holder[index], list):
        holder, index, path = holder[index], 0, path + "[0]"
    holder[index] = value
    return path


def _bounds():
    for key, bounds in _numeric_settings(cli.Config):
        for kind, bound in bounds.items():
            yield pytest.param(key, kind, bound, id=f"{key}-{kind}")


@pytest.mark.parametrize("key, kind, bound", list(_bounds()))
def test_a_config_value_just_outside_its_range_names_its_key(key, kind, bound):
    document = json.loads(json.dumps({**cli.REPRODUCE_CONFIG, "fit": {"spectral": {
        "modes": [{"wavelength_nm": 1031.5, "q_factor": 1950.0}], "tau0_ps": 840.0}}}))
    value = _just_outside(kind, bound)
    path = _place(document, key, value)
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config(document)
    assert str(err.value) == f"{path}: must be {cli._BOUNDS[kind][1]} {bound}, got {value}"


def test_main_pins_one_blas_thread_whatever_the_environment(tmp_path):
    # At 2 BLAS threads the eigensolvers' last bits differ from 1 thread, and
    # with them 5 of this run's 7 files; `main` pins one thread.
    config = tmp_path / "modes.json"
    config.write_text(json.dumps({"crystal": {"period_nm": 300.0, "hole_ratio_values": [0.37]},
                                  "modes": {"supercell_size": 5}}))
    src = os.path.dirname(os.path.dirname(pcqed.__file__))
    code = ("import ctypes, sys; from pcqed import cli; "
            "exit = cli.main(['modes', '--config', sys.argv[1], '--out', sys.argv[2]]); "
            "print(exit, ctypes.CDLL(str(cli._OPENBLAS)).scipy_openblas_get_num_threads64_())")
    written = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = tmp_path / threads
        run = subprocess.run([sys.executable, "-c", code, str(config), str(out)], env=env,
                             capture_output=True, timeout=120, text=True, check=True)
        assert run.stdout.splitlines()[-1] == "0 1"
        written[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(written["1"]) == 7 and written["1"] == written["2"]


def test_blas_pin_does_nothing_without_the_library(monkeypatch, tmp_path):
    # Another numpy build bundles another BLAS, or none: the pin finds no
    # library and leaves the thread count alone.
    blas = ctypes.CDLL(str(cli._OPENBLAS))
    assert blas.scipy_openblas_get_num_threads64_() == 1  # pinned for the session
    monkeypatch.setattr(cli, "_OPENBLAS", tmp_path / "no-such-blas.so")
    blas.scipy_openblas_set_num_threads64_(2)
    try:
        assert cli._one_blas_thread.__wrapped__() is None
        assert blas.scipy_openblas_get_num_threads64_() == 2
    finally:
        blas.scipy_openblas_set_num_threads64_(1)
