"""Layer bench: Witt-vector combination (``witt_combine``) and character
reduction (``asw_reduce``) over the ``witt`` workload cells.

The inputs are the same for every tree: for every ``(p, k, s, d)`` cell of
the ``witt`` workload and the three-variable cell ``(2, 1, 2, 3)``,
``VECTORS`` fixed seeded exact characters with 0..4 monomials per component,
top exponents in -4..2 and lower ones in -2..2, the shape the workload
draws.  Sums and reduction combinations must be equal across trees
(checked).  Per cell, one figure per tree:

* ``us_per_sum``: the mean time of one two-vector sum ``a + b`` over the
  ``VECTORS - 1`` consecutive pairs;
* ``reduce_combines``: how many three-vector combinations
  ``[comps, F(E), E]`` with ``[1, -1, 1]`` the reductions of the vectors and
  of their coboundary shifts ``a + (F(b) - b)`` make (none at ``s = 1``);
* ``us_per_reduce_combine``: the mean time of one of those combinations,
  replayed on its recorded arguments (null when there is none);
* ``answered`` and ``errors``: reductions of the vectors that returned, and
  the failures by kind (not compared across trees);
* ``us_per_reduce``: the mean time of one whole ``asw_reduce`` call over
  the vectors, failures included.

Each time comes from ``PASSES`` alternating passes, each timing a batch of
whole passes of about ``BATCH_SECONDS`` (``bench/_trees.py``).  With two or
more trees, ``ratios`` gives for each time the median over the cells of
tree ``i`` / tree 0 and the cells outside ``1 +- OUTSIDE``.
"""

from __future__ import annotations

import random
import statistics
import sys
from collections import Counter

from _trees import alternate, main, same

# The cells of perfbench's ``witt`` workload, (p, k, s, d), and one
# three-variable cell, where the flat maps take two inner digits.
CELLS = tuple(
    (p, k, s, d)
    for p in (2, 3, 5) for k in (1, 2) for s in (1, 2) for d in (1, 2)
    if (p, k, s, d) != (5, 2, 2, 2)
) + ((2, 1, 3, 1), (2, 2, 3, 1), (2, 1, 3, 2), (3, 1, 3, 1), (2, 1, 4, 1), (2, 2, 4, 1),
     (2, 1, 2, 3))
VECTORS = 40
PASSES = 15
BATCH_SECONDS = 0.05  # each timing covers a batch of passes of about this length
OUTSIDE = 0.05  # a cell whose ratio is off 1 by more than this is listed
TIMES = ("us_per_sum", "us_per_reduce_combine", "us_per_reduce")


def _vectors(rswan, cell):
    p, k, s, d = cell
    tower = rswan.FieldTower(p, k, s, ("v", "u", "t")[3 - d:])
    dom = tower.field_domain
    rng = random.Random(f"witt_combine:{cell}")
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


def _reduce_combines(rswan, vectors) -> list:
    """The ``(comps_list, ints)`` of every three-vector combination made by
    reducing each vector and its coboundary shift by the next one."""
    witt = rswan.witt
    combine = witt.witt_combine
    made = []

    def recording(comps_list, ints, p):
        if len(comps_list) == 3:
            made.append((comps_list, ints))
        return combine(comps_list, ints, p)

    witt.witt_combine = recording
    try:
        for a, b in zip(vectors, vectors[1:]):
            for v in (a, a + (b.frobenius() - b)):
                try:
                    rswan.asw_reduce(v)
                except rswan.PrecisionExhausted:
                    pass
    finally:
        witt.witt_combine = combine
    return made


def _reduce(rswan, vec):
    """The error kind of one ``asw_reduce`` call, or None when it returns."""
    try:
        rswan.asw_reduce(vec)
    except rswan.RswanError as exc:
        return type(exc).__name__
    return None


def _sums(rswan, vectors):
    combine, p = rswan.witt.witt_combine, vectors[0].tower.p
    return [combine([a.comps, b.comps], [1, 1], p) for a, b in zip(vectors, vectors[1:])]


def _replay(rswan, made, p):
    combine = rswan.witt.witt_combine
    return [combine(comps_list, ints, p) for comps_list, ints in made]


def measure(trees) -> dict:
    calls = {}
    counts = {}
    for cell in CELLS:
        p = cell[0]
        vectors = [_vectors(tree, cell) for tree in trees]
        made = [_reduce_combines(tree, vecs) for tree, vecs in zip(trees, vectors)]
        counts[cell] = [len(m) for m in made]
        calls["sum", cell] = [
            (lambda tree=tree, vecs=vecs: _sums(tree, vecs))
            for tree, vecs in zip(trees, vectors)
        ]
        same(f"sums of cell {cell}", [fn() for fn in calls["sum", cell]])
        calls["asw_reduce", cell] = [
            (lambda tree=tree, vecs=vecs: [_reduce(tree, v) for v in vecs])
            for tree, vecs in zip(trees, vectors)
        ]
        if counts[cell][0]:
            calls["reduce", cell] = [
                (lambda tree=tree, m=m: _replay(tree, m, p)) for tree, m in zip(trees, made)
            ]
            same(f"reduction combinations of cell {cell}",
                 [fn() for fn in calls["reduce", cell]])
    seconds = alternate(calls, PASSES, BATCH_SECONDS)
    rows = []
    for cell in CELLS:
        p, k, s, d = cell
        reduce = seconds.get(("reduce", cell))
        errors = [Counter(kind for kind in fn() if kind) for fn in calls["asw_reduce", cell]]
        rows.append({
            "p": p, "k": k, "s": s, "d": d,
            "us_per_sum": [round(t * 1e6 / (VECTORS - 1), 1) for t in seconds["sum", cell]],
            "reduce_combines": counts[cell],
            "us_per_reduce_combine": None if reduce is None else [
                round(t * 1e6 / n, 1) for t, n in zip(reduce, counts[cell])
            ],
            "answered": [VECTORS - sum(e.values()) for e in errors],
            "errors": [dict(sorted(e.items())) for e in errors],
            "us_per_reduce": [round(t * 1e6 / VECTORS, 1) for t in seconds["asw_reduce", cell]],
        })
    return {"cells": rows, "ratios": _ratios(rows, len(trees))}


def _ratios(rows, count: int) -> dict:
    """Per time, per tree ``i > 0``: the median over the cells of tree ``i``
    / tree 0, and the cells off 1 by more than ``OUTSIDE``."""
    out = {}
    for field in TIMES:
        per_tree = []
        for i in range(1, count):
            cells = [(row, row[field][i] / row[field][0]) for row in rows if row[field]]
            per_tree.append({
                "median": round(statistics.median(r for _, r in cells), 3),
                "outside": [
                    {"cell": "({p}, {k}, {s}, {d})".format(**row), "ratio": round(r, 3)}
                    for row, r in cells if abs(r - 1) > OUTSIDE
                ],
            })
        out[field] = per_tree
    return out


if __name__ == "__main__":
    sys.exit(main(__file__, measure, {"vectors_per_cell": VECTORS, "passes": PASSES}))
