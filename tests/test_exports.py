"""Public names: every exported name must resolve, so a deletion cannot
leave a stale entry in an ``__all__`` list; and only the operations that
have no tower to read a budget from take a ``precision`` width."""

import importlib
import inspect
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


# Series-level operations without a tower, plus the command-line override.
TAKES_PRECISION = {
    "NestedSeries.inv",
    "NestedSeries.pow",
    "series_substitute",
    "dlog",
    "gram_is_invertible",
    "load_config",
}


def public_callables():
    """Public functions of every ``__all__``, and the public methods of its classes."""
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                for meth_name, meth in vars(obj).items():
                    func = getattr(meth, "__func__", meth)
                    if not meth_name.startswith("_") and inspect.isfunction(func):
                        yield func


def test_only_tower_free_operations_take_a_precision():
    takers = {
        f.__qualname__
        for f in public_callables()
        if "precision" in inspect.signature(f).parameters
    }
    assert takers == TAKES_PRECISION
