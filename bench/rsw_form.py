"""Layer bench: the refined invariant formula (``rsw_form_at``) over the ``witt`` workload cells.

The inputs are the same for every tree: for every ``(p, k, s, d)`` cell of
the ``witt`` workload, ``VECTORS`` fixed seeded exact characters with 0..4
monomials per component and top exponents in -4..2, the shape the workload
draws, each reduced (untimed) and kept when it is ramified.  Each kept
character gives three vectors, all at its conductor ``n``:

* the reduced character, as the ``witt`` workload passes it first;
* its coboundary shift ``chi + (F(E) - E)``, unreduced, as the workload
  passes it second, with ``E`` drawn as the workload draws it (slot ``i``
  of pole depth at most ``(n // p) // p^i``, 0..3 monomials), from a
  stream of its own;
* the reduced character with windows that keep every stored term: at
  ``d = 2`` each inner coefficient is cut one past its top exponent, and
  each component (at ``d = 2`` those of every other character) at the
  larger of its cut point in ``rsw_form_at`` and one past its top
  exponent (an empty one at 3).  A window keeps ``rsw_form_at`` on its
  series path.

The forms (or refusals) must be equal across trees (checked).  Per cell,
one figure per tree and per set: ``characters``, the kept characters, and
``us_per_form``, ``us_per_shifted`` and ``us_per_windowed``, the mean time
of one ``rsw_form_at(vector, n)`` over a set, from ``PASSES`` alternating
passes, each timing a batch of whole passes (``bench/_trees.py``; null when
no character of the cell is ramified).
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
PASSES = 11
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


def _shifted(rswan, cell, chars) -> list:
    """``(chi + (F(E) - E), n)`` for each ``(chi, n)`` of ``chars``, with
    ``E`` drawn as the ``witt`` workload's coboundary."""
    p, k, s, d = cell
    rng = random.Random(f"rsw_form shift:{cell}")
    out = []
    for vec, n in chars:
        m = n // p
        dom = vec.tower.field_domain
        e_vec = rswan.WittVector(vec.tower, tuple(
            rswan.NestedSeries.from_monomials(d, dom, [
                (tuple(rng.randint(-2, 2) for _ in range(d - 1))
                 + (rng.randint(-(m // p**i) if m else 0, 2),), dom.random_nonzero(rng))
                for _ in range(rng.randint(0, 3))
            ])
            for i in range(s)
        ))
        out.append((vec + (e_vec.frobenius() - e_vec), n))
    return out


def _windowed(rswan, chars) -> list:
    """Each ``(chi, n)`` of ``chars`` with windows that keep every stored
    term (module docstring)."""
    out = []
    for index, (vec, n) in enumerate(chars):
        p, m = vec.tower.p, n // vec.tower.p
        comps = []
        for i, x in enumerate(vec.comps):
            coeffs, ceiling = x.coeffs, 3
            if x.level > 1:
                coeffs = {e: c.truncate(max(c.coeffs) + 1) for e, c in coeffs.items()}
                if index % 2:
                    ceiling = None
            if coeffs and ceiling is not None:
                ceiling = max(max(coeffs) + 1, -m - (p**i - 1) * min(coeffs))
            comps.append(rswan.NestedSeries(x.level, x.domain, coeffs, ceiling))
        out.append((rswan.WittVector(vec.tower, tuple(comps)), n))
    return out


def _forms(rswan, vectors) -> list:
    out = []
    for vec, n in vectors:
        try:
            w = rswan.rsw.rsw_form_at(vec, n)
        except rswan.RswanError as exc:
            out.append((type(exc).__name__, str(exc)))
            continue
        out.append((w.n, w.m, w.form.coeffs))
    return out


SETS = ("form", "shifted", "windowed")


def measure(trees) -> dict:
    sets = {}
    for cell in CELLS:
        chars = [_characters(tree, cell) for tree in trees]
        sets[cell] = {
            "form": chars,
            "shifted": [_shifted(tree, cell, cs) for tree, cs in zip(trees, chars)],
            "windowed": [_windowed(tree, cs) for tree, cs in zip(trees, chars)],
        }
    calls = {}
    for cell in CELLS:
        for name in SETS:
            vectors = sets[cell][name]
            same(f"{name} forms of cell {cell}",
                 [_forms(tree, vs) for tree, vs in zip(trees, vectors)])
            if vectors[0]:
                calls[cell, name] = [
                    (lambda f=tree.rsw.rsw_form_at, vs=vs, errors=tree.RswanError:
                     _each(f, vs, errors))
                    for tree, vs in zip(trees, vectors)
                ]
    seconds = alternate(calls, PASSES, BATCH_SECONDS)
    rows = []
    for cell in CELLS:
        p, k, s, d = cell
        counts = [len(cs) for cs in sets[cell]["form"]]
        row = {"p": p, "k": k, "s": s, "d": d, "characters": counts}
        for name in SETS:
            key = (cell, name)
            row[f"us_per_{name}"] = None if key not in seconds else [
                round(t * 1e6 / c, 1) for t, c in zip(seconds[key], counts)
            ]
        rows.append(row)
    return {"cells": rows}


def _each(f, vectors, errors) -> None:
    """``f`` on every ``(vector, n)``; a refusal counts as a call."""
    for vec, n in vectors:
        try:
            f(vec, n)
        except errors:
            pass


if __name__ == "__main__":
    sys.exit(main(__file__, measure, {"vectors_per_cell": VECTORS, "passes": PASSES}))
