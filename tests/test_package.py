"""The package's import surface: each public name has one home, its submodule."""

import importlib

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
