"""Public names: every exported name must resolve, so a deletion cannot
leave a stale entry in an ``__all__`` list; only the operations that
have no tower to read a budget from take a ``precision`` width; every
precision refusal names its exponent; every name the benchmark's tracer
wraps still resolves where the tracer looks it up; the kernel constants,
and the kernels the tests patch, are bound in ``rswan._kernels`` alone;
every private name and cross-reference target in the docs still resolves;
and no module reaches the parser's token step."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
import tokenize
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


# Series-level operations without a tower, the curve restriction (which
# builds its curves' tower from p alone), and the command-line override.
TAKES_PRECISION = {
    "NestedSeries.inv",
    "NestedSeries.pow",
    "series_substitute",
    "dlog",
    "gram_is_invertible",
    "curve_restriction_ratios",
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
    """The benchmark's tracer wraps these names by lookup in their module's
    or class's ``__dict__`` (``vars(cls)[meth]``), so a name that only an
    import or a base class provides, or that is gone, breaks a traced run
    (``perfbench/run.py --trace 1``).  ``tracing.py`` is loaded, not edited."""
    assert TRACING.is_file()
    spec = importlib.util.spec_from_file_location("perfbench_tracing_names", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{attr}" for mod, attr in tracing.FUNCTIONS.values()
               if attr not in vars(importlib.import_module(mod))]
    methods = [(mod, cls, meth) for mod, cls, meth in tracing.METHODS.values()]
    methods += [(mod, cls, meth) for mod, cls, names in tracing.DOMAIN_CLASSES.values()
                for meth in names]
    for mod, cls, meth in methods:
        owner = vars(importlib.import_module(mod)).get(cls)
        if owner is None or meth not in vars(owner):
            missing.append(f"{mod}.{cls}.{meth}")
    assert missing == []


# The kernels the tests monkeypatch on rswan._kernels.
PATCHED_KERNELS = ("_int_mul", "_pack", "_pack_g", "_flatten")


def test_kernel_constants_are_bound_in_one_module():
    """Every upper-case constant of ``rswan._kernels``, and every kernel a
    test patches there, is bound in no other module: a patch or a setting
    on a second binding would miss the reads in ``rswan._kernels``."""
    kernels = vars(importlib.import_module("rswan._kernels"))
    constants = [name for name in kernels if name.lstrip("_").isupper()]
    assert {"_KRONECKER_MIN_PAIRS", "_SLOT_CODES"} <= set(constants)
    assert all(name in kernels for name in PATCHED_KERNELS)
    twice = [f"{module}.{name}" for module in MODULES if module != "rswan._kernels"
             for name in constants + list(PATCHED_KERNELS)
             if name in vars(importlib.import_module(module))]
    assert twice == []


# ``<rswan module>._name`` (``rswan.`` optional), and a Sphinx role's target.
PRIVATE_REFERENCE = re.compile(r"(?<![\w.])((?:rswan\.)?\w+)\.(_\w+)")
ROLE_TARGET = re.compile(r":(?:func|class|meth|mod):`~?([\w.]+)`")
SHORT_NAMES = {name.removeprefix("rswan.") for name in MODULES}


def _resolves(path: str, scope) -> bool:
    """Whether the dotted ``path`` names an attribute of ``scope``, or of a
    submodule of it when ``scope`` is a package."""
    obj = scope
    for part in path.split("."):
        if inspect.ismodule(obj) and not hasattr(obj, part):
            try:
                obj = importlib.import_module(f"{obj.__name__}.{part}")
                continue
            except ImportError:
                return False
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def dangling_references(text: str, scopes) -> list:
    """The references in ``text`` that name nothing: a ``module._name`` of an
    ``rswan`` module that the module lacks, and a ``:func:``, ``:class:``,
    ``:meth:`` or ``:mod:`` target that resolves in no scope of ``scopes``
    nor from the ``rswan`` package.  A private name of another library
    (``Random._randbelow_with_getrandbits``) is not checked."""
    missing = []
    for owner, name in PRIVATE_REFERENCE.findall(text):
        short = owner.removeprefix("rswan.")
        if short in SHORT_NAMES and not _resolves(name, importlib.import_module(
                "rswan" if short == "rswan" else f"rswan.{short}")):
            missing.append(f"{owner}.{name}")
    for target in ROLE_TARGET.findall(text):
        if not any(_resolves(target.removeprefix("rswan."), scope) for scope in scopes + [rswan]):
            missing.append(target)
    return missing


def documented_texts():
    """``(where, text, scopes)`` for every docstring of ``src/rswan`` (a
    method's scopes are its class and then its module) and for README.md."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("rswan" if path.stem == "__init__" else f"rswan.{path.stem}")

        def walk(node, scopes):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    doc = ast.get_docstring(child, clean=False)
                    inner = scopes
                    if isinstance(child, ast.ClassDef) and hasattr(scopes[0], child.name):
                        inner = [getattr(scopes[0], child.name)] + scopes
                    if doc:
                        yield f"{path.name}:{child.lineno}", doc, inner
                    yield from walk(child, inner)

        tree = ast.parse(path.read_text(), str(path))
        yield path.name, ast.get_docstring(tree, clean=False) or "", [module]
        yield from walk(tree, [module])
    readme = SRC.parents[1] / "README.md"
    yield readme.name, readme.read_text(), []


def test_every_documented_reference_resolves():
    """A docstring or README.md that names a private ``module._name``, or a
    role target, names something defined: a deleted name cannot stay in
    the docs.  A planted reference to a deleted name is caught."""
    dangling = [(where, ref) for where, text, scopes in documented_texts()
                for ref in dangling_references(text, scopes)]
    assert dangling == []
    logdiff = [importlib.import_module("rswan.logdiff")]
    planted = "``logdiff._windowed``, ``rswan.series._make``, :func:`_windowed`, :func:`r_b`"
    assert dangling_references(planted, logdiff) == ["logdiff._windowed", "_windowed"]
    assert dangling_references("``Random._randbelow_with_getrandbits``", logdiff) == []


# CPython 3.11's parser doubles its token array at this many tokens and
# allocates the new tokens at once, so compiling a module past it raises the
# process's peak memory by about 0.5 MB (perfbench's peak_rss_mb when the
# package is compiled at import).
PARSER_TOKEN_STEP = 8192
SKIPPED_TOKENS = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_module_stays_below_the_parser_token_step(path):
    with path.open("rb") as f:
        tokens = sum(1 for tok in tokenize.tokenize(f.readline) if tok.type not in SKIPPED_TOKENS)
    assert tokens < PARSER_TOKEN_STEP
