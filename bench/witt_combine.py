"""Layer bench: Witt-vector combination (``witt_combine``) over the ``witt`` workload cells.

    python3 bench/witt_combine.py OUT [SRC ...]

Run it from the repository root; it uses only the standard library.  Each
``SRC`` is a ``src`` directory holding an ``rswan`` package (default: this
checkout's ``src``); pass the ``src`` of another checkout to put its figures
beside these.  All trees are imported into this one process, each under its
own package name, and timed in alternation: every pass times each cell for
every tree before moving on, and the tree order flips from pass to pass, so
machine drift falls on all trees alike.  Results must be equal across trees
(checked by exponents, raw scalars and the ceiling at every level: series
of two loaded packages do not compare with ``==``).

The inputs are the same for every tree: for every ``(p, k, s, d)`` cell of
the ``witt`` workload and the three-variable cell ``(2, 1, 2, 3)``,
``VECTORS`` fixed seeded exact characters with 0..4 monomials per component,
top exponents in -4..2 and lower ones in -2..2, the shape the workload
draws.  Per cell, one figure per tree in the order of ``trees``:

* ``us_per_sum``: the mean time of one two-vector sum ``a + b`` over the
  ``VECTORS - 1`` consecutive pairs;
* ``reduce_combines``: how many three-vector combinations
  ``[comps, F(E), E]`` with ``[1, -1, 1]`` the reductions of the vectors and
  of their coboundary shifts ``a + (F(b) - b)`` make (none at ``s = 1``);
* ``us_per_reduce_combine``: the mean time of one of those combinations,
  replayed on its recorded arguments (null when there is none).

Each time is the median over ``PASSES`` passes, each timing a batch of
whole passes of about ``BATCH_SECONDS``.  The JSON written to ``OUT``
(required, so that no run overwrites a committed ``BENCH_<n>.json`` by
default) records each tree's commit (``git describe --always --dirty``),
the Python version and the machine.
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

# The cells of perfbench's ``witt`` workload, (p, k, s, d), and one
# three-variable cell, where the flat maps take two inner digits.
CELLS = tuple(
    (p, k, s, d)
    for p in (2, 3, 5) for k in (1, 2) for s in (1, 2) for d in (1, 2)
    if (p, k, s, d) != (5, 2, 2, 2)
) + ((2, 1, 3, 1), (2, 2, 3, 1), (2, 1, 3, 2), (3, 1, 3, 1), (2, 1, 4, 1), (2, 2, 4, 1),
     (2, 1, 2, 3))
VECTORS = 40
PASSES = 7
BATCH_SECONDS = 0.05  # each timing covers a batch of passes of about this length


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


def _form(a):
    """A tree-independent form of a series: the ceiling, exponents and raw
    scalars at every level."""
    if a.level == 1:
        return a.ceiling, sorted(a.coeffs.items())
    return a.ceiling, [(e, _form(c)) for e, c in sorted(a.coeffs.items())]


def _sums(rswan, vectors):
    combine, p = rswan.witt.witt_combine, vectors[0].tower.p
    return [combine([a.comps, b.comps], [1, 1], p) for a, b in zip(vectors, vectors[1:])]


def _replay(rswan, made, p):
    combine = rswan.witt.witt_combine
    return [combine(comps_list, ints, p) for comps_list, ints in made]


def _same(cell, what, results):
    forms = [[tuple(_form(c) for c in comps) for comps in out] for out in results]
    if any(f != forms[0] for f in forms):
        raise SystemExit(f"{what} of cell {cell}: results differ between trees")


def measure(srcs: list[str]) -> dict:
    trees = [load(src, index) for index, src in enumerate(srcs)]
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
        _same(cell, "sums", [fn() for fn in calls["sum", cell]])
        if counts[cell][0]:
            calls["reduce", cell] = [
                (lambda tree=tree, m=m: _replay(tree, m, p)) for tree, m in zip(trees, made)
            ]
            _same(cell, "reduction combinations", [fn() for fn in calls["reduce", cell]])
    seconds = alternate(calls, PASSES, BATCH_SECONDS)
    rows = []
    for cell in CELLS:
        p, k, s, d = cell
        reduce = seconds.get(("reduce", cell))
        rows.append({
            "p": p, "k": k, "s": s, "d": d,
            "us_per_sum": [round(t * 1e6 / (VECTORS - 1), 1) for t in seconds["sum", cell]],
            "reduce_combines": counts[cell],
            "us_per_reduce_combine": None if reduce is None else [
                round(t * 1e6 / n, 1) for t, n in zip(reduce, counts[cell])
            ],
        })
    return {"trees": [{"commit": commit(src)} for src in srcs], "cells": rows}


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 bench/witt_combine.py OUT [SRC ...]", file=sys.stderr)
        return 2
    out_path = Path(argv[0])
    srcs = argv[1:] or [str(ROOT / "src")]
    result = {
        "bench": "witt_combine",
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
