"""Layer bench: the characterization check (``verify_rsw_characterization``).

    python3 bench/symbols.py OUT [SRC ...]

Run it from the repository root; it uses only the standard library.  Each
``SRC`` is a ``src`` directory holding an ``rswan`` package (default: this
checkout's ``src``); pass the ``src`` of another checkout to put its figures
beside these.  All trees are imported into this one process, each under its
own package name, and timed in alternation: every pass times each cell for
every tree before moving on, and the tree order flips from pass to pass, so
machine drift falls on all trees alike.

The cells are the reciprocity tasks of ``rswan check-all`` for p = 2, 3, 5:
the catalog character and sample count of each, checked at seed ``SEED``.
The reports must be equal field for field across trees (checked).  Per
cell, one figure per tree in the order of ``trees``:

* ``symbols_evaluated`` and ``pairings_evaluated``: the calls of
  ``reciprocity._symbol_value`` and of ``r_b`` in one check;
* ``ms_per_check``: the time of one call, the median over ``PASSES``
  passes, each timing a batch of calls.

``terms`` is the number of symbols the samples draw, the same for every
tree.  ``totals_ms`` sums ``ms_per_check`` over the cells per tree.  The
JSON written to ``OUT`` (required, so that no run overwrites a committed
``BENCH_<n>.json`` by default) records each tree's commit
(``git describe --always --dirty``), the Python version and the machine.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import sys
from pathlib import Path

from _trees import alternate, commit, load

ROOT = Path(__file__).resolve().parent.parent

PRIMES = (2, 3, 5)
SEED = 0
PASSES = 7
BATCH_SECONDS = 0.05  # each timing covers a batch of calls of about this length


def _cells(rswan) -> dict:
    """``{(p, label): (character, samples)}`` for the catalog reciprocity tasks."""
    cells = {}
    for p in PRIMES:
        config = rswan.load_config(rswan.canned_config(p))
        for task in config.tasks:
            if task["task"] == "reciprocity":
                label = task["character"]
                cells[p, label] = (config.characters[label], task["samples"])
    return cells


def _counted(rswan, char, samples) -> dict:
    """One untimed check, counting the symbols drawn and the evaluations."""
    reciprocity = rswan.reciprocity
    patched = {"_random_window_terms": [], "_symbol_value": [], "r_b": []}
    originals = {name: getattr(reciprocity, name) for name in patched}

    def recording(name):
        def call(*args):
            out = originals[name](*args)
            patched[name].append(out)
            return out

        return call

    for name in patched:
        setattr(reciprocity, name, recording(name))
    try:
        report = reciprocity.verify_rsw_characterization(char, samples, seed=SEED)
    finally:
        for name, fn in originals.items():
            setattr(reciprocity, name, fn)
    return {
        "report": dataclasses.asdict(report),
        "terms": sum(len(terms) for terms in patched["_random_window_terms"]),
        "symbols_evaluated": len(patched["_symbol_value"]),
        "pairings_evaluated": len(patched["r_b"]),
    }


def measure(srcs: list[str]) -> dict:
    trees = [load(src, index) for index, src in enumerate(srcs)]
    cells = [_cells(tree) for tree in trees]
    keys = list(cells[0])
    if any(list(c) != keys for c in cells):
        raise SystemExit("the trees' catalogs hold different reciprocity tasks")
    counts = {}
    for key in keys:
        counts[key] = [_counted(tree, *c[key]) for tree, c in zip(trees, cells)]
        if any(c["report"] != counts[key][0]["report"] for c in counts[key]):
            raise SystemExit(f"cell {key}: reports differ between trees")
    calls = {
        key: [
            (lambda tree=tree, cell=c[key]: tree.verify_rsw_characterization(*cell, seed=SEED))
            for tree, c in zip(trees, cells)
        ]
        for key in keys
    }
    seconds = alternate(calls, PASSES, BATCH_SECONDS)
    rows = []
    for key in keys:
        p, label = key
        rows.append({
            "p": p, "character": label, "samples": cells[0][key][1],
            "terms": counts[key][0]["terms"],
            "symbols_evaluated": [c["symbols_evaluated"] for c in counts[key]],
            "pairings_evaluated": [c["pairings_evaluated"] for c in counts[key]],
            "ms_per_check": [round(t * 1e3, 3) for t in seconds[key]],
        })
    totals = [sum(seconds[key][index] for key in keys) * 1e3 for index in range(len(trees))]
    return {
        "trees": [{"commit": commit(src)} for src in srcs],
        "totals_ms": [round(t, 1) for t in totals],
        "cells": rows,
    }


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 bench/symbols.py OUT [SRC ...]", file=sys.stderr)
        return 2
    out_path = Path(argv[0])
    srcs = argv[1:] or [str(ROOT / "src")]
    result = {
        "bench": "symbols",
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "nproc": os.cpu_count()},
        "seed": SEED,
        "passes": PASSES,
        **measure(srcs),
    }
    text = json.dumps(result, indent=2)
    out_path.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
