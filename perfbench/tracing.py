"""Per-module spans installed from outside ``src/``.

A :class:`Tracer` replaces selected public functions and methods of the
``rswan`` modules with thin wrappers that keep a stack of open spans.  Each
span adds its duration to its parent's child time, so a layer's *self time*
is its span durations minus the time its child spans cover.  Spans are
folded into per-name call counts and self-time sums as they close; the hot
``NestedSeries`` and scalar-domain methods are wrapped the same way.

Some modules bind imported names (``reciprocity`` does ``from .logdiff import
dlog``), so a wrapped function is rebound at *every* ``rswan`` module
attribute that holds the original, and every one of them is restored by
:meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

MARK = "__perfbench_wrapped__"

# span name -> (module, qualified attribute) of module-level functions
FUNCTIONS = {
    "witt.combine": ("rswan.witt", "witt_combine"),
    "witt.reduce": ("rswan.witt", "asw_reduce_components"),
    "witt.swan": ("rswan.witt", "swan_conductor"),
    "logdiff.dlog": ("rswan.logdiff", "dlog"),
    "logdiff.wedge": ("rswan.logdiff", "wedge"),
    "logdiff.r_b": ("rswan.logdiff", "r_b"),
    "logdiff.residue": ("rswan.logdiff", "residue_to_prime_field"),
    "logdiff.duality_matrix": ("rswan.logdiff", "duality_matrix"),
    "logdiff.gram": ("rswan.logdiff", "gram_is_invertible"),
    "rsw.form_at": ("rswan.rsw", "rsw_form_at"),
    "rsw.char_p": ("rswan.rsw", "rsw_char_p"),
    "rsw.closed": ("rswan.rsw", "rsw_is_closed"),
    "reciprocity.verify": ("rswan.reciprocity", "verify_rsw_characterization"),
    "reciprocity.exp": ("rswan.reciprocity", "truncated_exp"),
    "reciprocity.theta": ("rswan.reciprocity", "theta_lift"),
    "reciprocity.schmid": ("rswan.reciprocity", "schmid_symbol"),
    "extensions.pullback": ("rswan.extensions", "pullback_series"),
    "extensions.delta_tor": ("rswan.extensions", "delta_tor"),
    "extensions.conductor_change": ("rswan.extensions", "conductor_change"),
    "parser.parse": ("rswan.parser", "parse_series"),
    "parser.render": ("rswan.parser", "render_series"),
    "cli.load_config": ("rswan.cli", "load_config"),
    "cli.run": ("rswan.cli", "run"),
    "cli.report_bytes": ("rswan.cli", "report_body_bytes"),
    "catalog.canned_config": ("rswan.catalog", "canned_config"),
}

# span name -> (module, class, method)
METHODS = {
    "series.init": ("rswan.series", "NestedSeries", "__init__"),
    "series.mul": ("rswan.series", "NestedSeries", "__mul__"),
    "series.add": ("rswan.series", "NestedSeries", "__add__"),
    "series.pow": ("rswan.series", "NestedSeries", "pow"),
    "series.inv": ("rswan.series", "NestedSeries", "inv"),
    "logdiff.form_init": ("rswan.logdiff", "LogForm", "__init__"),
}

# Scalar arithmetic: every method below folds into one ``<layer>.self_s``.
SCALAR_METHODS = (
    "add", "sub", "neg", "mul", "mul_int", "pow", "inv",
    "frobenius", "pth_root", "trace", "reduce_mod_p", "lift_from_field",
)
RATFUNC_METHODS = (
    "add", "sub", "neg", "mul", "mul_int", "pow", "inv",
    "is_pth_power", "pth_root", "trace",
)
DOMAIN_CLASSES = {
    "scalars": ("rswan.scalars", "_QuotientDomain", SCALAR_METHODS),
    "ratfunc": ("rswan.ratfunc", "RatFuncDomain", RATFUNC_METHODS),
}

# modules whose escaping exceptions are counted by kind
ERROR_MODULES = ("witt", "extensions")


def monomials(sr) -> int:
    """Number of stored leaf monomials of a nested series."""
    if sr.level == 1:
        return len(sr.coeffs)
    return sum(monomials(c) for c in sr.coeffs.values())


def window_width(sr) -> int:
    """Top-variable width of a finite window (0 for exact series)."""
    if sr.ceiling is None or not sr.coeffs:
        return 0
    return sr.ceiling - min(sr.coeffs)


def _rswan_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "rswan" or name.startswith("rswan.")) and m is not None]


def installed_wrappers() -> list[str]:
    """Every ``rswan`` attribute that currently holds a perfbench wrapper."""
    return sorted(name for name, value in snapshot().items() if getattr(value, MARK, False))


def snapshot() -> dict:
    """Every attribute of every ``rswan`` module and of the classes they
    define, keyed by dotted name."""
    out = {}
    for mod in _rswan_modules():
        for attr, value in vars(mod).items():
            out[f"{mod.__name__}.{attr}"] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    out[f"{mod.__name__}.{attr}.{meth}"] = fn
    return out


def differences(before: dict, after: dict) -> list[str]:
    """Names bound to another object (or added or removed) between snapshots."""
    return sorted(
        name for name in before.keys() | after.keys()
        if before.get(name, MARK) is not after.get(name, MARK)
    )


class Tracer:
    """Install wrappers, fold spans into counters, restore everything."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, name: str, fn, after=None):
        """Wrapper that opens a span named ``name`` around ``fn``.

        ``after(args, result, outermost)`` runs once the span has closed; its
        own time is charged to neither the span nor its parent.
        """
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter
        module = name.split(".", 1)[0]
        counts = self.counts
        count_errors = module in ERROR_MODULES

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if count_errors and (parent is None or not parent[0].startswith(module + ".")):
                    counts[f"{module}.{_error_kind(exc)}"] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
            if after is not None:
                h0 = clock()
                after(args, result, parent is None or parent[0] != name)
                if parent is not None:
                    parent[1] += clock() - h0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, True)
        return wrapper

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced function and method (a second install is refused)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        if installed_wrappers():
            raise RuntimeError("another tracer is installed")
        import rswan  # noqa: F401 - every submodule must be loaded first

        mods = _rswan_modules()
        for name, (mod_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original, self._after_hook(name))
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for name, (mod_name, cls_name, meth) in METHODS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            self._set(cls, meth, self._wrap(name, vars(cls)[meth], self._after_hook(name)))
        for layer, (mod_name, cls_name, methods) in DOMAIN_CLASSES.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            for meth in methods:
                self._set(cls, meth, self._wrap(f"{layer}.{meth}", vars(cls)[meth]))

    def uninstall(self):
        """Put every original back, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- kernel counts -------------------------------------------------------
    def _after_hook(self, name):
        counts = self.counts
        if name == "series.mul":
            def after(args, result, outermost):
                if outermost:
                    counts["series.mul.mono_products"] += monomials(args[0]) * monomials(args[1])
        elif name == "series.inv":
            def after(args, result, outermost):
                if outermost:
                    counts["series.inv.outer"] += 1
                    counts["series.inv.width_sum"] += window_width(result)
        elif name == "logdiff.dlog":
            def after(args, result, outermost):
                counts["logdiff.dlog.width_sum"] += max(
                    (window_width(c) for c in result.coeffs.values()), default=0
                )
        elif name == "witt.combine":
            def after(args, result, outermost):
                counts["witt.combine.terms_in"] += sum(
                    monomials(c) for comps in args[0] for c in comps
                )
        elif name == "logdiff.gram":
            def after(args, result, outermost):
                counts["logdiff.gram.size_sum"] += len(args[0])
        elif name == "reciprocity.verify":
            def after(args, result, outermost):
                counts["reciprocity.samples"] += result.samples
        elif name == "extensions.conductor_change":
            def after(args, result, outermost):
                counts["extensions.applicable"] += int(result.hypothesis_holds)
        else:
            after = None
        return after


def _error_kind(exc) -> str:
    from rswan.errors import PrecisionExhausted, RswanError

    if isinstance(exc, PrecisionExhausted):
        return "precision_exhausted"
    if type(exc) is RswanError:
        return "internal_errors"
    return "other_errors"
