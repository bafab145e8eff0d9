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


def _in_fresh_interpreter(code: str) -> str:
    """The stripped stdout of `code` run by a new interpreter that imports this pcqed."""
    src = os.path.dirname(os.path.dirname(pcqed.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          timeout=120, text=True, check=True).stdout.strip()


def test_fitting_imports_no_scipy_optimize():
    # Every fit runs on `fitting._minimize`; loading scipy.optimize would only
    # lengthen the start of each process that fits.
    code = "import sys, pcqed.fitting; print('scipy.optimize' in sys.modules)"
    assert _in_fresh_interpreter(code) == "False"


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
