"""Layer bench: series products at levels 1, 2 and 3.

Products must be equal across trees (checked).  Sections, with one figure
per tree where a key ends in ``_us``:

* ``products``: dense level-1 products at widths 16 and 64 over ``(p, k, s)``
  in ``(2,1,1)``, ``(3,2,1)`` and ``(2,1,4)``, exact and with a window;
  ``mul_us`` is ``NestedSeries.__mul__``.
* ``small``: level-1 products of ``n x n`` terms at seeded random exponents
  in ``[-10, 10)``, ``n`` in 1..6, over the workload rings; ``mul_us``.
* ``crossover`` (first tree only): ``n x n`` dense products for ``n`` in
  2..12, exact and cut at exponent ``n``, the plain-int loop over the
  Kronecker kernel, and the smallest term-pair count from which the median
  of that ratio over the cells stays above 1; ``_KRONECKER_MIN_PAIRS`` is
  that cut-off.  The kernels and the cut-off are read from ``rswan._kernels``,
  or from ``rswan.series`` in a tree that has no kernel module, so a tree
  with that module and one without run side by side in either order.
* ``nested``: level-2 and level-3 products over ``F_2``, ``F_4``, ``Z/4``
  and ``(Z/16)[g]``, exact and with an outer window (operands cut just
  above their last top exponent).  ``layout`` gives each
  operand's terms per level, outermost first (``[2, 4]``: two top
  exponents with four inner terms each); ``pairs`` counts the top-level
  term pairs and ``monomial_pairs`` the monomial pairs.  ``mul_us`` is the
  product per tree; ``flat_us`` and ``loop_us`` time the first tree's
  product with the flat path forced on and off through
  ``series._FLAT_MIN_PAIRS`` (so the first tree must have it).
* ``squares``: ``x * x``, one operand in both places (as ``pow`` squares),
  for dense level-1 operands at widths 16 and 64 over the ``products``
  rings and for the layouts ``SQUARE_LAYOUTS`` over the ``nested`` rings,
  exact and with a window; ``mul_us``.
* ``flat_gate``: per top-level pair count, the median of ``loop_us /
  flat_us`` over the cells with that count, and the smallest count from
  which that median stays above 1; ``series._FLAT_MIN_PAIRS`` is that count.

Each time comes from ``PASSES`` alternating passes, each timing a batch of
calls of about ``BATCH_SECONDS`` (``bench/_trees.py``).
"""

from __future__ import annotations

import math
import random
import statistics
import sys

from _trees import alternate, main, same

CELLS = ((2, 1, 1), (3, 2, 1), (2, 1, 4))
WIDTHS = (16, 64)
SMALL_RINGS = {"F_2": (2, 1, 1), "F_4": (2, 2, 1), "Z/4": (2, 1, 2), "(Z/25)[g]": (5, 2, 2)}
SMALL_SIZES = range(1, 7)
CROSSOVER_SIZES = range(2, 13)
NESTED_RINGS = {"F_2": (2, 1, 1), "F_4": (2, 2, 1), "Z/4": (2, 1, 2), "(Z/16)[g]": (2, 2, 4)}
# Operand layouts (terms per level, outermost first), from 1 x 2 to 64 x 64
# monomials.
LAYOUTS = (
    ((1, 1), (2, 1)), ((2, 1), (2, 1)), ((1, 2), (2, 1)), ((3, 1), (3, 1)),
    ((2, 2), (2, 2)), ((4, 1), (4, 1)), ((3, 2), (3, 2)), ((2, 4), (2, 4)),
    ((4, 2), (4, 2)), ((8, 1), (8, 1)), ((4, 4), (4, 4)), ((8, 4), (8, 4)),
    ((8, 8), (8, 8)),
    ((2, 1, 1), (2, 1, 1)), ((2, 2, 1), (2, 2, 1)), ((2, 2, 2), (2, 2, 2)),
    ((4, 2, 2), (4, 2, 2)), ((4, 4, 4), (4, 4, 4)),
)
# Square operands at levels 2 and 3: each takes the flat path and then
# the Kronecker kernel.
SQUARE_LAYOUTS = ((4, 4), (8, 8), (4, 4, 4))
PASSES = 7
BATCH_SECONDS = 0.02


def _domain(rswan, ring):
    return rswan.scalars.galois_ring_domain(*ring)


def _time(trees, build) -> dict:
    """``{cell: [seconds per tree]}`` for ``build(tree) -> {cell: (x, y)}``."""
    operands = [build(tree) for tree in trees]
    calls = {}
    for cell in operands[0]:
        pairs = [ops[cell] for ops in operands]
        same(f"products of {cell}", [x * y for x, y in pairs])
        calls[cell] = [(lambda x=x, y=y: x * y) for x, y in pairs]
    return alternate(calls, PASSES, BATCH_SECONDS)


def _us(seconds) -> list:
    return [round(t * 1e6, 2) for t in seconds]


# ------------------------------------------------------------------ level 1

def _dense(rswan, dom, rng, low, width, ceiling):
    coeffs = {e: dom.random_nonzero(rng) for e in range(low, low + width)}
    return rswan.NestedSeries(1, dom, coeffs, ceiling)


def products(trees) -> list:
    def build(rswan):
        rng = random.Random(5)
        out = {}
        for p, k, s in CELLS:
            dom = _domain(rswan, (p, k, s))
            for width in WIDTHS:
                for shape in ("exact", "window"):
                    ceiling = width - 3 if shape == "window" else None
                    x = _dense(rswan, dom, rng, -3, width, ceiling)
                    y = _dense(rswan, dom, rng, 0, width, None if ceiling is None else width)
                    out[p, k, s, width, shape] = (x, y)
        return out
    seconds = _time(trees, build)
    return [{"p": p, "k": k, "s": s, "width": w, "shape": shape, "mul_us": _us(t)}
            for (p, k, s, w, shape), t in seconds.items()]


def small(trees) -> list:
    def build(rswan):
        rng = random.Random(7)
        out = {}
        for name, ring in SMALL_RINGS.items():
            dom = _domain(rswan, ring)
            for n in SMALL_SIZES:
                x, y = (rswan.NestedSeries(1, dom, {e: dom.random_nonzero(rng)
                                                    for e in rng.sample(range(-10, 10), n)})
                        for _ in range(2))
                out[name, n] = (x, y)
        return out
    seconds = _time(trees, build)
    return [{"ring": name, "terms": n, "mul_us": _us(t)} for (name, n), t in seconds.items()]


def crossover(tree) -> dict:
    kernels = getattr(tree, "_kernels", tree.series)
    table = []
    for n in CROSSOVER_SIZES:
        calls = {}
        rng = random.Random(n)
        for p, k, s in CELLS:
            dom = _domain(tree, (p, k, s))
            for shape, ceiling in (("exact", None), ("window", n)):
                a = _dense(tree, dom, rng, 0, n, ceiling).coeffs
                b = _dense(tree, dom, rng, 0, n, ceiling).coeffs
                calls[f"{p},{k},{s} {shape}"] = [
                    lambda a=a, b=b, dom=dom, c=ceiling: kernels._int_mul(dom, a, b, c),
                    lambda a=a, b=b, dom=dom, c=ceiling: kernels._kronecker_mul(dom, a, b, c),
                ]
        seconds = alternate(calls, PASSES, BATCH_SECONDS)
        row = {"n": n, "pairs": n * n}
        row.update({key: round(loop / kernel, 2) for key, (loop, kernel) in seconds.items()})
        table.append(row)
    medians = {row["pairs"]: statistics.median(v for key, v in row.items()
                                               if key not in ("n", "pairs"))
               for row in table}
    return {
        "loop_over_kernel": table,
        "kernel_wins_from_pairs": _wins_from(medians),
        "cutoff_in_code": kernels._KRONECKER_MIN_PAIRS,
    }


def _wins_from(medians: dict):
    """The smallest count from which every median ratio is above 1."""
    wins_from = None
    for count in sorted(medians, reverse=True):
        if medians[count] <= 1:
            break
        wins_from = count
    return wins_from


# ------------------------------------------------------------ levels 2 and 3

def _nested(rswan, dom, rng, layout, ceiling):
    """An exact series with ``layout[0]`` consecutive top exponents from a
    random start, each holding ``layout[1:]`` terms below it at random
    exponents in ``[-4, 4)``; cut at ``ceiling`` above its last top term."""
    level = len(layout)

    def monomials(depth):
        if depth == level:
            return [((), dom.random_nonzero(rng))]
        return [(rest + (e,), c) for e in rng.sample(range(-4, 4), layout[depth])
                for rest, c in monomials(depth + 1)]

    top = rng.randint(-4, 0)
    monos = [(rest + (top + i,), c)
             for i in range(layout[0]) for rest, c in monomials(1)]
    x = rswan.NestedSeries.from_monomials(level, dom, monos)
    return x if ceiling is None else x.truncate(top + layout[0] + ceiling)


def _nested_cells():
    return [(name, layout, shape) for name in NESTED_RINGS for layout in LAYOUTS
            for shape in ("exact", "window")]


def _nested_operands(rswan):
    out = {}
    for name, (la, lb), shape in _nested_cells():
        rng = random.Random(f"{name}:{la}:{lb}:{shape}")
        dom = _domain(rswan, NESTED_RINGS[name])
        ceiling = None if shape == "exact" else 0
        out[name, (la, lb), shape] = (_nested(rswan, dom, rng, la, ceiling),
                                      _nested(rswan, dom, rng, lb, ceiling))
    return out


def nested(trees) -> list:
    seconds = _time(trees, _nested_operands)
    series = trees[0].series
    operands = _nested_operands(trees[0])
    gate = series._FLAT_MIN_PAIRS
    forced = {}
    for flat in (True, False):
        series._FLAT_MIN_PAIRS = 0 if flat else sys.maxsize
        try:
            calls = {cell: [lambda x=x, y=y: x * y] for cell, (x, y) in operands.items()}
            forced[flat] = alternate(calls, PASSES, BATCH_SECONDS)
        finally:
            series._FLAT_MIN_PAIRS = gate
    rows = []
    for cell in operands:
        name, (la, lb), shape = cell
        rows.append({
            "ring": name, "layout": [list(la), list(lb)], "shape": shape,
            "pairs": la[0] * lb[0], "monomial_pairs": math.prod(la) * math.prod(lb),
            "mul_us": _us(seconds[cell]),
            "flat_us": _us(forced[True][cell]), "loop_us": _us(forced[False][cell]),
        })
    return rows


def squares(trees) -> list:
    def build(rswan):
        rng = random.Random(9)
        out = {}
        for shape in ("exact", "window"):
            for ring in CELLS:
                dom = _domain(rswan, ring)
                for width in WIDTHS:
                    x = _dense(rswan, dom, rng, -3, width, width - 3 if shape == "window" else None)
                    out[",".join(map(str, ring)), (width,), shape] = (x, x)
            for name, ring in NESTED_RINGS.items():
                dom = _domain(rswan, ring)
                for layout in SQUARE_LAYOUTS:
                    x = _nested(rswan, dom, rng, layout, None if shape == "exact" else 0)
                    out[name, layout, shape] = (x, x)
        return out
    seconds = _time(trees, build)
    return [{"ring": ring, "layout": list(layout), "shape": shape, "mul_us": _us(t)}
            for (ring, layout, shape), t in seconds.items()]


def flat_gate(rows, gate_in_code) -> dict:
    by_pairs: dict = {}
    for row in rows:
        if row["pairs"] > 1:
            by_pairs.setdefault(row["pairs"], []).append(row["loop_us"][0] / row["flat_us"][0])
    medians = {pairs: round(statistics.median(r), 2) for pairs, r in sorted(by_pairs.items())}
    return {
        "median_loop_over_flat_by_pairs": medians,
        "flat_wins_from_pairs": _wins_from(medians),
        "gate_in_code": gate_in_code,
    }


def measure(trees) -> dict:
    nested_rows = nested(trees)
    return {
        "products": products(trees),
        "small": small(trees),
        "crossover": crossover(trees[0]),
        "nested": nested_rows,
        "squares": squares(trees),
        "flat_gate": flat_gate(nested_rows, trees[0].series._FLAT_MIN_PAIRS),
    }


if __name__ == "__main__":
    sys.exit(main(__file__, measure, {"passes": PASSES}))
