"""The package's import surface: each public name has one home, its submodule."""

import ast
import importlib
import inspect
import os
import subprocess
import sys

import pytest

import pcqed

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
