"""Shared by the bench scripts that put several ``src`` trees side by side.

Each tree is imported into the calling process under its own package name,
so that a script can time the trees in alternation: machine drift then falls
on all of them alike, which timing each tree in its own process does not
give.
"""

from __future__ import annotations

import importlib.util
import statistics
import subprocess
import sys
import time
from pathlib import Path


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


def _batch(fn, seconds: float) -> int:
    """How many calls of ``fn`` make a batch of at least ``seconds``."""
    fn()
    batch = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        if time.perf_counter() - t0 >= seconds:
            return batch
        batch *= 2


def alternate(calls: dict, passes: int, seconds: float) -> dict:
    """Median seconds per call, ``{key: [one per tree]}``, for ``calls``
    mapping a key to one zero-argument function per tree.

    Every pass times a batch of about ``seconds`` for each key and each tree
    before the next pass, and the tree order flips from pass to pass.
    """
    batches = {key: [_batch(fn, seconds) for fn in fns] for key, fns in calls.items()}
    times = {key: [[] for _ in fns] for key, fns in calls.items()}
    for run in range(passes):
        for key, fns in calls.items():
            order = list(range(len(fns)))
            if run % 2:
                order.reverse()
            for index in order:
                batch = batches[key][index]
                t0 = time.perf_counter()
                for _ in range(batch):
                    fns[index]()
                times[key][index].append((time.perf_counter() - t0) / batch)
    return {key: [statistics.median(ts) for ts in per_tree] for key, per_tree in times.items()}
