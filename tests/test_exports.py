"""Every name a module exports resolves."""
import importlib
import pkgutil

import pytest

import sgdsmooth

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(sgdsmooth.__path__, sgdsmooth.__name__ + ".")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_expcli_exports_are_checked():
    assert "sgdsmooth.expcli" in MODULES
    assert importlib.import_module("sgdsmooth.expcli").__all__
