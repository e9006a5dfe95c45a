"""Layer bench: character reduction (``asw_reduce``) over the ``witt`` workload cells.

    python3 bench/asw_reduce.py OUT [SRC ...]

Run it from the repository root; it uses only the standard library.  Each
``SRC`` is a ``src`` directory holding an ``rswan`` package (default: this
checkout's ``src``); pass the ``src`` of another checkout to put its figures
beside these.  All trees are imported into this one process, each under its
own package name, and timed in alternation: every pass times each cell for
every tree before moving on, and the tree order flips from pass to pass, so
machine drift falls on all trees alike.

The vectors are the same for every tree: for every ``(p, k, s, d)`` cell of
the ``witt`` workload, ``VECTORS`` fixed seeded exact characters with 0..4
monomials per component and top exponents in -4..2, the shape the workload
draws.  Per cell, one figure per tree in the order of ``trees``:

* ``answered`` and ``errors``: reductions that returned, and the failures by
  kind (``RswanError`` internal errors, ``PrecisionExhausted``);
* ``combine_calls`` and ``combine_max``: ``witt_combine`` calls over all the
  cell's reductions, and the most in one reduction;
* ``us_per_reduce``: the mean time of one ``asw_reduce`` call over the
  cell's vectors, failures included; the median over ``PASSES`` passes, each
  timing a batch of whole passes over the vectors.

The JSON written to ``OUT`` (required, so that no run overwrites a committed
``BENCH_<n>.json`` by default) records each tree's commit
(``git describe --always --dirty``), the Python version and the machine.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
from pathlib import Path

from _trees import alternate, commit, load

ROOT = Path(__file__).resolve().parent.parent

# The cells of perfbench's ``witt`` workload, (p, k, s, d).
CELLS = tuple(
    (p, k, s, d)
    for p in (2, 3, 5) for k in (1, 2) for s in (1, 2) for d in (1, 2)
    if (p, k, s, d) != (5, 2, 2, 2)
) + ((2, 1, 3, 1), (2, 2, 3, 1), (2, 1, 3, 2), (3, 1, 3, 1), (2, 1, 4, 1), (2, 2, 4, 1))
VECTORS = 40
PASSES = 7
BATCH_SECONDS = 0.05  # each timing covers a batch of passes of about this length


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


def _count(rswan, vectors) -> dict:
    """Outcomes and ``witt_combine`` calls of one untimed pass over the vectors."""
    witt = rswan.witt
    combine = witt.witt_combine
    calls = []

    def counting(*args):
        calls[-1] += 1
        return combine(*args)

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
    return {
        "answered": len(vectors) - sum(errors.values()),
        "errors": errors,
        "combine_calls": sum(calls),
        "combine_max": max(calls),
    }


def measure(srcs: list[str]) -> dict:
    trees = [load(src, index) for index, src in enumerate(srcs)]
    vectors = {cell: [_vectors(tree, cell) for tree in trees] for cell in CELLS}
    calls = {
        cell: [
            (lambda tree=tree, vecs=vecs: [_reduce(tree, v) for v in vecs])
            for tree, vecs in zip(trees, vectors[cell])
        ]
        for cell in CELLS
    }
    seconds = alternate(calls, PASSES, BATCH_SECONDS)
    rows = []
    for cell in CELLS:
        counts = [_count(tree, vecs) for tree, vecs in zip(trees, vectors[cell])]
        p, k, s, d = cell
        rows.append({
            "p": p, "k": k, "s": s, "d": d,
            **{field: [c[field] for c in counts] for field in counts[0]},
            "us_per_reduce": [round(t * 1e6 / VECTORS, 1) for t in seconds[cell]],
        })
    return {"trees": [{"commit": commit(src)} for src in srcs], "cells": rows}


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 bench/asw_reduce.py OUT [SRC ...]", file=sys.stderr)
        return 2
    out_path = Path(argv[0])
    srcs = argv[1:] or [str(ROOT / "src")]
    result = {
        "bench": "asw_reduce",
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "nproc": os.cpu_count()},
        "vectors_per_cell": VECTORS,
        "passes": PASSES,
        **measure(srcs),
    }
    text = json.dumps(result, indent=2)
    out_path.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
