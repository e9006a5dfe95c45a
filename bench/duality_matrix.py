"""Layer bench: duality Gram matrices (``logdiff.duality_matrix``).

    python3 bench/duality_matrix.py OUT [SRC ...]

Run it from the repository root; it uses only the standard library.  Each
``SRC`` is a ``src`` directory holding an ``rswan`` package (default: this
checkout's ``src``); pass the ``src`` of another checkout to put its figures
beside these.  All trees are imported into this one process, each under its
own package name, and timed in alternation: every pass times each cell for
every tree before moving on, and the tree order flips from pass to pass, so
machine drift falls on all trees alike.

The cells are ``(p, d, a, split)``: the windows of perfbench's ``duality``
workload over ``F_p((u))((t))`` (d = 2, p = 2 widths 1..6 and p = 3 widths
1..5), plus p = 5 widths 1..5 and the d = 3 tower ``F_2((v))((u))((t))``
with widths 1..2.  ``split`` is the degree pair ``(i, j)``.  Per cell:

* ``rows``: the Gram size, the same for every tree (checked);
* ``ms_per_matrix``: one figure per tree, in the order of ``trees``: the
  mean builder time over the windows ``(m + a, m)`` for m = 0..3 with the
  minimal ``b``, the median over ``PASSES`` passes, each timing a batch of
  builds of all four windows;
* ``gram_ms``: the same for ``gram_is_invertible`` on the rows each tree
  has just built for those windows (every answer must be ``True``).

``totals_ms`` and ``gram_totals_ms`` sum the builder and the elimination
time over every workload window (d = 2, p = 2 and 3, 4 windows per cell)
per tree.  The JSON written to ``OUT``
(required, so that no run overwrites a committed ``BENCH_<n>.json`` by
default) records each tree's commit (``git describe --always --dirty``),
the Python version and the machine.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

from _trees import alternate, commit, load

ROOT = Path(__file__).resolve().parent.parent

WORKLOAD_WIDTHS = {2: range(1, 7), 3: range(1, 6)}  # perfbench's DUALITY_WIDTHS
CELLS = tuple(
    [(p, 2, a) for p, widths in WORKLOAD_WIDTHS.items() for a in widths]
    + [(5, 2, a) for a in range(1, 6)]
    + [(2, 3, a) for a in (1, 2)]
)
MS = range(4)
PASSES = 5
BATCH_SECONDS = 0.02  # each timing covers a batch of calls of about this length
VARIABLES = ("v", "u", "t")


def _calls(rswan, p: int, d: int, a: int, i: int):
    """A call that builds the Gram matrices of the cell's windows and
    returns their sizes, and a call that decides their invertibility."""
    tower = rswan.FieldTower(p, 1, 1, VARIABLES[3 - d:])
    b = rswan.logdiff.minimal_b(p, a)

    def build():
        return [rswan.duality_matrix(m + a, m, b, tower, i, d - i) for m in MS]

    built = build()

    def gram():
        return [
            rswan.gram_is_invertible(rows, domain=tower.field_domain, precision=tower.precision)
            for rows in built
        ]

    return (lambda: [len(rows) for rows in build()]), gram


def measure(srcs: list[str]) -> dict:
    trees = [load(src, index) for index, src in enumerate(srcs)]
    keys = [(p, d, a, i) for p, d, a in CELLS for i in range(d + 1)]
    calls, grams = {}, {}
    for key in keys:
        calls[key], grams[key] = zip(*(_calls(tree, *key) for tree in trees))
    sizes = {}
    for key, builders in calls.items():
        rows = [build() for build in builders]
        if any(r != rows[0] for r in rows):
            raise SystemExit(f"cell {key}: Gram sizes differ between trees")
        if not all(all(gram()) for gram in grams[key]):
            raise SystemExit(f"cell {key}: a Gram matrix is singular")
        sizes[key] = rows[0][-1]
    seconds = alternate(calls, PASSES, BATCH_SECONDS)
    gram_seconds = alternate(grams, PASSES, BATCH_SECONDS)
    cells = []
    totals = [0.0 for _ in trees]
    gram_totals = [0.0 for _ in trees]
    for key in keys:
        p, d, a, i = key
        per_matrix = [t * 1e3 / len(MS) for t in seconds[key]]
        gram_ms = [t * 1e3 / len(MS) for t in gram_seconds[key]]
        cells.append({
            "p": p, "d": d, "a": a, "split": f"({i},{d - i})",
            "rows": sizes[key],
            "ms_per_matrix": [round(ms, 3) for ms in per_matrix],
            "gram_ms": [round(ms, 3) for ms in gram_ms],
        })
        if d == 2 and p in WORKLOAD_WIDTHS:
            totals = [t + ms * len(MS) for t, ms in zip(totals, per_matrix)]
            gram_totals = [t + ms * len(MS) for t, ms in zip(gram_totals, gram_ms)]
    return {
        "trees": [{"commit": commit(src)} for src in srcs],
        "totals_ms": [round(t, 1) for t in totals],
        "gram_totals_ms": [round(t, 1) for t in gram_totals],
        "cells": cells,
    }


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 bench/duality_matrix.py OUT [SRC ...]", file=sys.stderr)
        return 2
    out_path = Path(argv[0])
    srcs = argv[1:] or [str(ROOT / "src")]
    result = {
        "bench": "duality_matrix",
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "nproc": os.cpu_count()},
        "passes": PASSES,
        **measure(srcs),
    }
    text = json.dumps(result, indent=2)
    out_path.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
