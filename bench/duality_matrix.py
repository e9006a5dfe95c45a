"""Layer bench: duality Gram matrices (``logdiff.duality_matrix``).

The cells are ``(p, k, d, a, split)``: the windows of perfbench's
``duality`` workload over ``F_p((u))((t))`` (k = 1, d = 2, p = 2 widths
1..6 and p = 3 widths 1..5), plus p = 5 widths 1..5, the d = 3 tower
``F_2((v))((u))((t))`` with widths 1..2, the k = 2 towers
``F_4((u))((t))`` with widths 1..3 and ``F_9((u))((t))`` with widths 1..2,
whose entries are tuples, and the one-variable towers ``F_2((t))`` and
``F_3((t))`` with the workload's widths, whose entries are raw scalars.
``split`` is the degree pair ``(i, j)``.  Per cell:

* ``rows``: the Gram size; every row's ``{column: entry}`` is checked
  equal across the trees (``_trees.same``) before anything is timed;
* ``walks``: one figure per tree: the number of ``C^b`` walks
  (``logdiff._monomial_root`` calls, counted by a wrapper on each loaded
  tree while the four windows are built once, untimed);
* ``ms_per_matrix``: one figure per tree: the mean builder time over the
  windows ``(m + a, m)`` for m = 0..3 with the minimal ``b``, from
  ``PASSES`` alternating passes, each timing a batch of builds of all four
  windows (``bench/_trees.py``);
* ``gram_ms``: the same for ``gram_is_invertible`` on the rows each tree
  has just built for those windows (every answer must be ``True``).

``totals_ms`` and ``gram_totals_ms`` sum the builder and the Gram decision
time, and ``walks_total`` the walks, over every workload window (k = 1,
d = 2, p = 2 and 3, 4 windows per cell) per tree.
"""

from __future__ import annotations

import sys

from _trees import alternate, main, same

WORKLOAD_WIDTHS = {2: range(1, 7), 3: range(1, 6)}  # perfbench's DUALITY_WIDTHS
CELLS = tuple(
    [(p, 1, 2, a) for p, widths in WORKLOAD_WIDTHS.items() for a in widths]
    + [(5, 1, 2, a) for a in range(1, 6)]
    + [(2, 1, 3, a) for a in (1, 2)]
    + [(2, 2, 2, a) for a in (1, 2, 3)]
    + [(3, 2, 2, a) for a in (1, 2)]
    + [(p, 1, 1, a) for p, widths in WORKLOAD_WIDTHS.items() for a in widths]
)
MS = range(4)
PASSES = 5
BATCH_SECONDS = 0.02  # each timing covers a batch of calls of about this length
VARIABLES = ("v", "u", "t")


def _calls(rswan, p: int, k: int, d: int, a: int, i: int):
    """The Gram matrices of the cell's windows, the number of ``C^b`` walks
    that building them ran, a call that builds them again and returns
    their sizes, and a call that decides their invertibility."""
    tower = rswan.FieldTower(p, k, 1, VARIABLES[3 - d:])
    b = rswan.logdiff.minimal_b(p, a)

    def build():
        return [rswan.duality_matrix(m + a, m, b, tower, i, d - i) for m in MS]

    walk, walks = rswan.logdiff._monomial_root, 0

    def counted(*args):
        nonlocal walks
        walks += 1
        return walk(*args)

    rswan.logdiff._monomial_root = counted
    try:
        built = build()
    finally:
        rswan.logdiff._monomial_root = walk

    def gram():
        return [
            rswan.gram_is_invertible(rows, domain=tower.field_domain, precision=tower.precision)
            for rows in built
        ]

    return built, walks, (lambda: [len(rows) for rows in build()]), gram


def measure(trees) -> dict:
    keys = [(p, k, d, a, i) for p, k, d, a in CELLS for i in range(d + 1)]
    calls, grams, sizes, walks = {}, {}, {}, {}
    for key in keys:
        built, walks[key], calls[key], grams[key] = zip(*(_calls(tree, *key) for tree in trees))
        same(f"Gram rows of cell {key}", built)
        if not all(all(gram()) for gram in grams[key]):
            raise SystemExit(f"cell {key}: a Gram matrix is singular")
        sizes[key] = len(built[0][-1])
    seconds = alternate(calls, PASSES, BATCH_SECONDS)
    gram_seconds = alternate(grams, PASSES, BATCH_SECONDS)
    cells = []
    totals = [0.0 for _ in trees]
    gram_totals = [0.0 for _ in trees]
    walk_totals = [0 for _ in trees]
    for key in keys:
        p, k, d, a, i = key
        per_matrix = [t * 1e3 / len(MS) for t in seconds[key]]
        gram_ms = [t * 1e3 / len(MS) for t in gram_seconds[key]]
        cells.append({
            "p": p, "k": k, "d": d, "a": a, "split": f"({i},{d - i})",
            "rows": sizes[key],
            "walks": list(walks[key]),
            "ms_per_matrix": [round(ms, 3) for ms in per_matrix],
            "gram_ms": [round(ms, 3) for ms in gram_ms],
        })
        if k == 1 and d == 2 and p in WORKLOAD_WIDTHS:
            totals = [t + ms * len(MS) for t, ms in zip(totals, per_matrix)]
            gram_totals = [t + ms * len(MS) for t, ms in zip(gram_totals, gram_ms)]
            walk_totals = [t + w for t, w in zip(walk_totals, walks[key])]
    return {
        "totals_ms": [round(t, 1) for t in totals],
        "gram_totals_ms": [round(t, 1) for t in gram_totals],
        "walks_total": walk_totals,
        "cells": cells,
    }


if __name__ == "__main__":
    sys.exit(main(__file__, measure, {"passes": PASSES}))
