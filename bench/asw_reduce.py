"""Layer bench: character reduction (``asw_reduce``) over the ``witt`` workload cells.

    python3 bench/asw_reduce.py OUT [SRC ...]

Run it from the repository root; it uses only the standard library.  Each
``SRC`` is a ``src`` directory holding an ``rswan`` package (default: this
checkout's ``src``); pass the ``src`` of another checkout to put its figures
beside these.  Each tree is measured in its own subprocess on the same
vectors: for every ``(p, k, s, d)`` cell of the ``witt`` workload,
``VECTORS`` fixed seeded exact characters with 0..4 monomials per component
and top exponents in -4..2, the shape the workload draws.  Per cell:

* ``answered`` and ``errors``: reductions that returned, and the failures by
  kind (``RswanError`` internal errors, ``PrecisionExhausted``);
* ``combine_calls`` and ``combine_max``: ``witt_combine`` calls over all the
  cell's reductions, and the most in one reduction;
* ``us_per_reduce``: the mean time of one ``asw_reduce`` call over the
  cell's vectors, failures included; the median of ``REPEATS`` timed batches
  of whole passes.

The JSON written to ``OUT`` (required, so that no run overwrites a committed
``BENCH_<n>.json`` by default) records the commit
(``git describe --always --dirty``), the Python version and the machine.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The cells of perfbench's ``witt`` workload, (p, k, s, d).
CELLS = tuple(
    (p, k, s, d)
    for p in (2, 3, 5) for k in (1, 2) for s in (1, 2) for d in (1, 2)
    if (p, k, s, d) != (5, 2, 2, 2)
) + ((2, 1, 3, 1), (2, 2, 3, 1), (2, 1, 3, 2), (3, 1, 3, 1), (2, 1, 4, 1), (2, 2, 4, 1))
VECTORS = 40
REPEATS = 7
BATCH_SECONDS = 0.05  # each timing covers a batch of passes of about this length


def _median_us(fn) -> float:
    """Median over REPEATS batches of the time of one call, in microseconds."""
    fn()
    batch = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        if time.perf_counter() - t0 >= BATCH_SECONDS:
            break
        batch *= 2
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append((time.perf_counter() - t0) / batch)
    return statistics.median(times) * 1e6


def _vectors(rswan, cell):
    p, k, s, d = cell
    tower = rswan.FieldTower(p, k, s, ("u", "t")[2 - d:])
    dom = tower.field_domain
    rng = random.Random(f"asw_reduce:{cell}")
    out = []
    for _ in range(VECTORS):
        comps = []
        for _ in range(s):
            terms = [
                (tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (rng.randint(-4, 2),),
                 dom.random_nonzero(rng))
                for _ in range(rng.randint(0, 4))
            ]
            comps.append(rswan.NestedSeries.from_monomials(d, dom, terms))
        out.append(rswan.WittVector(tower, tuple(comps)))
    return out


def _reduce(rswan, vec):
    try:
        rswan.asw_reduce(vec)
    except rswan.RswanError as exc:
        return type(exc).__name__
    return None


def measure(src: str) -> dict:
    """Figures for the ``rswan`` package under ``src``, one row per cell."""
    sys.path.insert(0, src)
    import rswan
    import rswan.witt as witt

    calls = []
    combine = witt.witt_combine

    def counting(*args):
        calls[-1] += 1
        return combine(*args)

    rows = []
    for cell in CELLS:
        vectors = _vectors(rswan, cell)
        errors: dict = {}
        witt.witt_combine = counting
        try:
            for vec in vectors:
                calls.append(0)
                kind = _reduce(rswan, vec)
                if kind:
                    errors[kind] = errors.get(kind, 0) + 1
        finally:
            witt.witt_combine = combine
        per_cell = calls[-len(vectors):]
        p, k, s, d = cell
        rows.append({
            "p": p, "k": k, "s": s, "d": d,
            "answered": len(vectors) - sum(errors.values()),
            "errors": errors,
            "combine_calls": sum(per_cell),
            "combine_max": max(per_cell),
            "us_per_reduce": round(_median_us(lambda: [_reduce(rswan, v) for v in vectors]) / len(vectors), 1),
        })
    return {"commit": _commit(Path(src).resolve().parent), "cells": rows}


def _commit(tree: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=tree,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv: list[str]) -> int:
    if argv[:1] == ["--measure"]:
        print(json.dumps(measure(argv[1])))
        return 0
    if not argv:
        print("usage: python3 bench/asw_reduce.py OUT [SRC ...]", file=sys.stderr)
        return 2
    out_path = Path(argv[0])
    srcs = argv[1:] or [str(ROOT / "src")]
    trees = []
    for src in srcs:
        run = subprocess.run(
            [sys.executable, __file__, "--measure", src],
            capture_output=True, text=True, check=True,
        )
        trees.append(json.loads(run.stdout))
    result = {
        "bench": "asw_reduce",
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "nproc": os.cpu_count()},
        "vectors_per_cell": VECTORS,
        "repeats": REPEATS,
        "trees": trees,
    }
    text = json.dumps(result, indent=2)
    out_path.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
