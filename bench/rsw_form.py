"""Layer bench: the refined invariant formula (``rsw_form_at``) over the ``witt`` workload cells.

The inputs are the same for every tree: for every ``(p, k, s, d)`` cell of
the ``witt`` workload, ``VECTORS`` fixed seeded exact characters with 0..4
monomials per component and top exponents in -4..2, the shape the workload
draws, each reduced (untimed) and kept when it is ramified.  The forms
must be equal across trees (checked).  Per cell, one figure per tree:

* ``characters``: the kept characters, those with conductor ``n >= 1``;
* ``us_per_form``: the mean time of one ``rsw_form_at(chi, n)`` over them,
  the call the ``witt`` workload makes on each reduced character, from
  ``PASSES`` alternating passes, each timing a batch of whole passes
  (``bench/_trees.py``; null when no character of the cell is ramified).
"""

from __future__ import annotations

import random
import sys

from _trees import alternate, main, same

# The cells of perfbench's ``witt`` workload, (p, k, s, d).
CELLS = tuple(
    (p, k, s, d)
    for p in (2, 3, 5) for k in (1, 2) for s in (1, 2) for d in (1, 2)
    if (p, k, s, d) != (5, 2, 2, 2)
) + ((2, 1, 3, 1), (2, 2, 3, 1), (2, 1, 3, 2), (3, 1, 3, 1), (2, 1, 4, 1), (2, 2, 4, 1))
VECTORS = 40
PASSES = 7
BATCH_SECONDS = 0.05  # each timing covers a batch of passes of about this length


def _characters(rswan, cell) -> list:
    """``(vector, n)`` for the cell's reduced characters with conductor
    ``n >= 1``."""
    p, k, s, d = cell
    tower = rswan.FieldTower(p, k, s, ("u", "t")[2 - d:])
    dom = tower.field_domain
    rng = random.Random(f"rsw_form:{cell}")
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
        chi = rswan.witt.asw_reduce(rswan.WittVector(tower, tuple(comps)))
        n = rswan.witt.swan_conductor(chi)
        if n:
            out.append((chi.vector, n))
    return out


def _forms(rswan, chars) -> list:
    out = []
    for vec, n in chars:
        w = rswan.rsw.rsw_form_at(vec, n)
        out.append((w.n, w.m, w.form.coeffs))
    return out


def measure(trees) -> dict:
    chars = {cell: [_characters(tree, cell) for tree in trees] for cell in CELLS}
    calls = {}
    for cell in CELLS:
        same(f"forms of cell {cell}", [_forms(tree, cs) for tree, cs in zip(trees, chars[cell])])
        if chars[cell][0]:
            rsw_form_at = [tree.rsw.rsw_form_at for tree in trees]
            calls[cell] = [
                (lambda f=f, cs=cs: [f(vec, n) for vec, n in cs])
                for f, cs in zip(rsw_form_at, chars[cell])
            ]
    seconds = alternate(calls, PASSES, BATCH_SECONDS)
    rows = []
    for cell in CELLS:
        p, k, s, d = cell
        counts = [len(cs) for cs in chars[cell]]
        rows.append({
            "p": p, "k": k, "s": s, "d": d,
            "characters": counts,
            "us_per_form": None if cell not in seconds else [
                round(t * 1e6 / c, 1) for t, c in zip(seconds[cell], counts)
            ],
        })
    return {"cells": rows}


if __name__ == "__main__":
    sys.exit(main(__file__, measure, {"vectors_per_cell": VECTORS, "passes": PASSES}))
