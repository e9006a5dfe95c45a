"""Public names: every exported name must resolve, so a deletion cannot
leave a stale entry in an ``__all__`` list; only the operations that
have no tower to read a budget from take a ``precision`` width; every
precision refusal names its exponent; and every name the benchmark's
tracer wraps still exists."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

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


SRC = Path(rswan.__file__).parent


def test_every_precision_refusal_names_its_exponent():
    """Every ``PrecisionExhausted(...)`` built in the package passes the
    ``exponent`` it could not certify, so a refusal says what would answer."""
    missing = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "PrecisionExhausted"
                    and "exponent" not in {kw.arg for kw in node.keywords}):
                missing.append(f"{path.name}:{node.lineno}")
    assert missing == []


TRACING = SRC.parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    """The benchmark's tracer wraps these names by attribute lookup; one
    that no longer resolves would break a traced run."""
    if not TRACING.is_file():
        pytest.skip("no perfbench/tracing.py next to the package")
    spec = importlib.util.spec_from_file_location("perfbench_tracing_names", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{attr}" for mod, attr in tracing.FUNCTIONS.values()
               if not hasattr(importlib.import_module(mod), attr)]
    methods = [(mod, cls, meth) for mod, cls, meth in tracing.METHODS.values()]
    methods += [(mod, cls, meth) for mod, cls, names in tracing.DOMAIN_CLASSES.values()
                for meth in names]
    for mod, cls, meth in methods:
        owner = getattr(importlib.import_module(mod), cls, None)
        if owner is None or meth not in vars(owner):
            missing.append(f"{mod}.{cls}.{meth}")
    assert missing == []
