"""Public names: every exported name must resolve, so a deletion cannot
leave a stale entry in an ``__all__`` list."""

import importlib
import pkgutil

import pytest

import rswan

MODULES = ["rswan"] + [
    f"rswan.{info.name}" for info in pkgutil.iter_modules(rswan.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
