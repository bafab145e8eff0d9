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


def test_fitting_imports_no_scipy_optimize():
    # Every fit runs on `fitting._minimize`; loading scipy.optimize would only
    # lengthen the start of each process that fits.
    src = os.path.dirname(os.path.dirname(pcqed.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "import sys, pcqed.fitting; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120,
                         text=True, check=True).stdout
    assert out.strip() == "False"


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
