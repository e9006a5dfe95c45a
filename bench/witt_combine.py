"""Layer bench: Witt-vector combination (``witt_combine``) and character
reduction (``asw_reduce``) over the ``witt`` workload cells.

The inputs are the same for every tree: for every ``(p, k, s, d)`` cell of
the ``witt`` workload, the three-variable cell ``(2, 1, 2, 3)`` and the
cells ``(2, 3, 3, 1)`` and ``(3, 4, 2, 1)`` over ``F_8`` and ``F_81``, whose
packed ghost sums fold through rows of ``g^j mod f`` past ``j = 2k - 2``,
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
  the vectors, failures included;
* ``us_per_theta``: the mean time of one ``theta_lift`` of a vector (the
  symbol's last ghost component over the lift ring).

``heavy`` holds the cells no workload reaches (ROADMAP item 9): ``p = 5``
at ``s = 3`` and 4, ``k = 3`` and 4, ``d = 2``, each a fixed seeded sum
``a + b`` of the one-input shape (``b``'s standard slot 0 is zero, so
``a``'s ``x_0`` alone fills it), and the length-4 reduction over
``F_25((v))((t))`` that refuses at order -604, the vector ROADMAP item 9
cites with its ``v^-50`` shrunk to ``v^-25``.  Each is sized so that the
ghost recursion without merged terms takes a few seconds a call, and is
timed over ``HEAVY_PASSES`` passes of one call; the results (the refusal's
kind and message) must be equal across trees, and ``ratios`` gives tree
``i`` / tree 0 per cell.

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

# The cells of perfbench's ``witt`` workload, (p, k, s, d), one
# three-variable cell, where the flat maps take two inner digits, and two
# one-variable cells at k > 2.
CELLS = tuple(
    (p, k, s, d)
    for p in (2, 3, 5) for k in (1, 2) for s in (1, 2) for d in (1, 2)
    if (p, k, s, d) != (5, 2, 2, 2)
) + ((2, 1, 3, 1), (2, 2, 3, 1), (2, 1, 3, 2), (3, 1, 3, 1), (2, 1, 4, 1), (2, 2, 4, 1),
     (2, 1, 2, 3), (2, 3, 3, 1), (3, 4, 2, 1))
VECTORS = 40
PASSES = 15
BATCH_SECONDS = 0.05  # each timing covers a batch of passes of about this length
OUTSIDE = 0.05  # a cell whose ratio is off 1 by more than this is listed
TIMES = ("us_per_sum", "us_per_reduce_combine", "us_per_reduce", "us_per_theta")
# (p, k, s, d), monomials of a's x_0, the inner exponent bound R (inner
# exponents in -R..R) and the least top exponent L (top ones in L..2).
HEAVY = (
    ((5, 1, 3, 2), 8, 16, -16),
    ((5, 1, 4, 2), 3, 3, -4),
    ((5, 3, 3, 2), 7, 6, -8),
    ((5, 4, 3, 2), 5, 6, -8),
)
HEAVY_PASSES = 3


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


def _one_input_sum(rswan, cell, terms, bound, least):
    """The seeded components ``[a, b]`` of a ``heavy`` sum, internal order:
    ``a``'s ``x_0`` has ``terms`` monomials and every other component but
    ``b``'s zero ``x_0`` has 2, as in the sum ROADMAP item 9 measured, where
    the powers of ``x_0`` took nearly all the time."""
    p, k, s, d = cell
    tower = rswan.FieldTower(p, k, s, ("v", "u", "t")[3 - d:])
    dom = tower.field_domain
    rng = random.Random(f"witt_combine heavy:{cell}")

    def comp(count):
        return rswan.NestedSeries.from_monomials(d, dom, [
            (tuple(rng.randint(-bound, bound) for _ in range(d - 1)) + (rng.randint(least, 2),),
             dom.random_nonzero(rng))
            for _ in range(count)
        ])

    a = tuple(comp(2) for _ in range(s - 1)) + (comp(terms),)
    b = tuple(comp(2) for _ in range(s - 1)) + (rswan.NestedSeries.zero(d, dom),)
    return [a, b]


def _f25_refusal(rswan):
    """The length-4 vector over ``F_25((v))((t))`` whose reduction refuses at
    order -604 after combining its whole tail."""
    tower = rswan.FieldTower(5, 2, 4, ("v", "t"))
    dom = tower.field_domain
    exact = rswan.NestedSeries.from_monomials(
        2, dom, [((-25, -5), (1, 4)), ((-4, -5), (3, 3)), ((-2, -5), (1, 2))]
    )
    x0 = rswan.NestedSeries(2, dom, dict(exact.coeffs), 16)
    zero = rswan.NestedSeries.zero(2, dom)
    return rswan.WittVector.from_print_order(tower, (x0, zero, zero, zero))


def _refusal(rswan, vec):
    """``(kind, message)`` of the reduction's refusal, or None."""
    try:
        rswan.asw_reduce(vec)
    except rswan.RswanError as exc:
        return type(exc).__name__, str(exc)
    return None


def _heavy(trees) -> list:
    calls = {}
    for cell, terms, bound, least in HEAVY:
        sums = [_one_input_sum(tree, cell, terms, bound, least) for tree in trees]
        calls["one-input sum", cell] = [
            (lambda tree=tree, c=c: tree.witt.witt_combine(c, [1, 1], cell[0]))
            for tree, c in zip(trees, sums)
        ]
    vectors = [_f25_refusal(tree) for tree in trees]
    calls["length-4 refusal", (5, 2, 4, 2)] = [
        (lambda tree=tree, v=v: _refusal(tree, v)) for tree, v in zip(trees, vectors)
    ]
    rows = []
    for (shape, cell), fns in calls.items():
        same(f"{shape} of cell {cell}", [fn() for fn in fns])
        seconds = alternate({cell: fns}, HEAVY_PASSES, 0)[cell]
        p, k, s, d = cell
        rows.append({
            "p": p, "k": k, "s": s, "d": d, "shape": shape,
            "us_per_call": [round(t * 1e6, 1) for t in seconds],
            "ratios": [round(t / seconds[0], 4) for t in seconds[1:]],
        })
    return rows


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
        calls["theta", cell] = [
            (lambda tree=tree, vecs=vecs: [tree.reciprocity.theta_lift(v) for v in vecs])
            for tree, vecs in zip(trees, vectors)
        ]
        same(f"theta lifts of cell {cell}", [fn() for fn in calls["theta", cell]])
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
            "us_per_theta": [round(t * 1e6 / VECTORS, 1) for t in seconds["theta", cell]],
        })
    return {"cells": rows, "ratios": _ratios(rows, len(trees)), "heavy": _heavy(trees)}


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
    sys.exit(main(__file__, measure, {"vectors_per_cell": VECTORS, "passes": PASSES,
                                      "heavy_passes": HEAVY_PASSES}))
