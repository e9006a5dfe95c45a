"""The harness every layer bench runs on: ``python3 bench/<name>.py OUT [SRC ...]``.

Run a bench from the repository root; it uses only the standard library.
Each ``SRC`` is a ``src`` directory holding an ``rswan`` package (default:
this checkout's ``src``); pass the ``src`` of another checkout to put its
figures beside these.  ``OUT`` is required, so that no run overwrites a
committed ``BENCH_<n>.json`` by default: without it the script prints its
usage line and exits with status 2.

* ``main`` is the one entry point.  It imports every tree into this one
  process under its own package name (``rswan_0``, ``rswan_1``, ...), hands
  them to the script's ``measure(trees) -> dict`` and writes (and prints)
  the JSON: ``bench``, ``python``, ``machine``, the script's constants,
  each tree's commit (``git describe --always --dirty``) and then what
  ``measure`` returned.  Every figure listed per tree is in the order of
  ``trees``.
* ``form`` is the one tree-independent form of a result: series of two
  loaded packages are instances of two classes and do not compare with
  ``==``, so a series becomes its ceiling, exponents and raw scalars at
  every level, through lists, tuples and dicts.  Error kinds are recorded
  by their names and compare as strings.
* ``same`` is the one equality check: it raises ``SystemExit`` naming what
  differs unless every tree's results have the same form.
* ``alternate`` times the trees in alternation: every pass times each key
  for every tree before the next pass, and the tree order flips from pass
  to pass, so that machine drift falls on all trees alike.  All the trees
  of a key run the same batch count, the largest any of them needs for a
  batch of ``seconds``.  Tree 0's figure is the median over the passes of
  its seconds per call; tree ``i``'s is tree 0's times the median over the
  passes of the ratio tree ``i`` / tree 0 within a pass, which cancels the
  drift between passes.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def load(src: str, index: int):
    """Import ``src/rswan`` as the package ``rswan_<index>``."""
    package = Path(src).resolve() / "rswan"
    name = f"rswan_{index}"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def commit(src: str) -> str:
    """``git describe --always --dirty`` of the checkout holding ``src``."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=Path(src).resolve().parent,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(script: str, measure, constants: dict) -> int:
    """Run the bench ``script`` (its ``__file__``) on ``sys.argv``: ``OUT [SRC ...]``."""
    name = Path(script).stem
    argv = sys.argv[1:]
    if not argv:
        print(f"usage: python3 bench/{name}.py OUT [SRC ...]", file=sys.stderr)
        return 2
    srcs = argv[1:] or [str(ROOT / "src")]
    trees = [load(src, index) for index, src in enumerate(srcs)]
    result = {
        "bench": name,
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "nproc": os.cpu_count()},
        **constants,
        "trees": [{"commit": commit(src)} for src in srcs],
        **measure(trees),
    }
    text = json.dumps(result, indent=2)
    Path(argv[0]).write_text(text + "\n")
    print(text)
    return 0


def form(x):
    """The tree-independent form of ``x``: a series becomes its ceiling and
    its sorted terms, each coefficient in this form below level 1 and a raw
    scalar at level 1; lists, tuples and dicts keep their shape with every
    entry in this form, and anything else stays as it is."""
    if type(x).__name__ == "NestedSeries":
        if x.level == 1:
            return x.ceiling, sorted(x.coeffs.items())
        return x.ceiling, [(e, form(c)) for e, c in sorted(x.coeffs.items())]
    if isinstance(x, (list, tuple)):
        return [form(v) for v in x]
    if isinstance(x, dict):
        return {key: form(v) for key, v in x.items()}
    return x


def same(what: str, results: list) -> None:
    """Raise ``SystemExit`` naming ``what`` unless every tree's entry of
    ``results`` has the same ``form``."""
    forms = [form(r) for r in results]
    for index, f in enumerate(forms[1:], 1):
        if f != forms[0]:
            raise SystemExit(f"{what}: results differ between trees 0 and {index}")


def _batch(fn, seconds: float) -> int:
    """How many calls of ``fn`` make a batch of at least ``seconds``."""
    fn()
    batch = 1
    while True:
        t0 = perf_counter()
        for _ in range(batch):
            fn()
        if perf_counter() - t0 >= seconds:
            return batch
        batch *= 2


def alternate(calls: dict, passes: int, seconds: float) -> dict:
    """Seconds per call, ``{key: [one per tree]}``, for ``calls`` mapping a
    key to one zero-argument function per tree (the rule is in the module
    docstring)."""
    batches = {key: max(_batch(fn, seconds) for fn in fns) for key, fns in calls.items()}
    times = {key: [[] for _ in fns] for key, fns in calls.items()}
    for run in range(passes):
        for key, fns in calls.items():
            order = list(range(len(fns)))
            if run % 2:
                order.reverse()
            batch = batches[key]
            for index in order:
                t0 = perf_counter()
                for _ in range(batch):
                    fns[index]()
                times[key][index].append((perf_counter() - t0) / batch)
    out = {}
    for key, (first, *others) in times.items():
        base = statistics.median(first)
        out[key] = [base] + [
            base * statistics.median(t / t0 for t, t0 in zip(ts, first)) for ts in others
        ]
    return out
