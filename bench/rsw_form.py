"""Layer bench: the refined invariant formula (``rsw_form_at``) over the ``witt`` workload cells.

    python3 bench/rsw_form.py OUT [SRC ...]

Run it from the repository root; it uses only the standard library.  Each
``SRC`` is a ``src`` directory holding an ``rswan`` package (default: this
checkout's ``src``); pass the ``src`` of another checkout to put its figures
beside these.  All trees are imported into this one process, each under its
own package name, and timed in alternation: every pass times each cell for
every tree before moving on, and the tree order flips from pass to pass, so
machine drift falls on all trees alike.  Results must be equal across trees
(checked by the window, the basis keys, and the exponents, raw scalars and
ceiling of every coefficient at every level: forms of two loaded packages do
not compare with ``==``).

The inputs are the same for every tree: for every ``(p, k, s, d)`` cell of
the ``witt`` workload, ``VECTORS`` fixed seeded exact characters with 0..4
monomials per component and top exponents in -4..2, the shape the workload
draws, each reduced (untimed) and kept when it is ramified.  Per cell, one
figure per tree in the order of ``trees``:

* ``characters``: the kept characters, those with conductor ``n >= 1``;
* ``us_per_form``: the mean time of one ``rsw_form_at(chi, n)`` over them,
  the call the ``witt`` workload makes on each reduced character; the
  median over ``PASSES`` passes, each timing a batch of whole passes (null
  when no character of the cell is ramified).

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


def _series_form(a):
    """A tree-independent form of a series: the ceiling, exponents and raw
    scalars at every level."""
    if a.level == 1:
        return a.ceiling, sorted(a.coeffs.items())
    return a.ceiling, [(e, _series_form(c)) for e, c in sorted(a.coeffs.items())]


def _forms(rswan, chars) -> list:
    out = []
    for vec, n in chars:
        w = rswan.rsw.rsw_form_at(vec, n)
        out.append((w.n, w.m, sorted((key, _series_form(c)) for key, c in w.form.coeffs.items())))
    return out


def measure(srcs: list[str]) -> dict:
    trees = [load(src, index) for index, src in enumerate(srcs)]
    chars = {cell: [_characters(tree, cell) for tree in trees] for cell in CELLS}
    calls = {}
    for cell in CELLS:
        results = [_forms(tree, cs) for tree, cs in zip(trees, chars[cell])]
        if any(r != results[0] for r in results):
            raise SystemExit(f"forms of cell {cell}: results differ between trees")
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
    return {"trees": [{"commit": commit(src)} for src in srcs], "cells": rows}


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 bench/rsw_form.py OUT [SRC ...]", file=sys.stderr)
        return 2
    out_path = Path(argv[0])
    srcs = argv[1:] or [str(ROOT / "src")]
    result = {
        "bench": "rsw_form",
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
