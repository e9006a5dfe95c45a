"""Layer bench: character reduction (``asw_reduce``) over the ``witt`` workload cells.

The vectors are the same for every tree: for every ``(p, k, s, d)`` cell of
the ``witt`` workload, ``VECTORS`` fixed seeded exact characters with 0..4
monomials per component and top exponents in -4..2, the shape the workload
draws.  Per cell, one figure per tree:

* ``answered`` and ``errors``: reductions that returned, and the failures by
  kind (``RswanError`` internal errors, ``PrecisionExhausted``);
* ``combine_calls`` and ``combine_max``: ``witt_combine`` calls over all the
  cell's reductions, and the most in one reduction;
* ``us_per_reduce``: the mean time of one ``asw_reduce`` call over the
  cell's vectors, failures included, from ``PASSES`` alternating passes,
  each timing a batch of whole passes over the vectors (``bench/_trees.py``).
"""

from __future__ import annotations

import random
import sys

from _trees import alternate, main

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


def measure(trees) -> dict:
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
    return {"cells": rows}


if __name__ == "__main__":
    sys.exit(main(__file__, measure, {"vectors_per_cell": VECTORS, "passes": PASSES}))
