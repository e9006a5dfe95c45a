"""Layer bench: the conductor-change path (inversion, reduction, the formula).

Results must be equal across trees (checked), errors by kind, message and
exponent, so that a refusal one tree raises early is the refusal another
raises late.  Three sections, with one figure per tree:

* ``inv``: ``NestedSeries.inv`` over ``F_2``, ``F_9`` and ``Z/16``;
  ``inv_us`` per tree.  At level 1, an exact series with ``terms`` stored
  terms in ``[0, width)`` (the lead at exponent 0, the others at seeded
  random exponents) at precision ``width``, for widths 4, 16 and 64 (the
  ``embed`` shape), 256 and 1024.  At levels 2 and 3, an exact series with
  ``terms`` top exponents in ``[0, width)``, the lead at 0, over inner
  series with 2 top exponents in ``[0, 4)`` (3 terms at level 1), at
  precision ``width`` = 4, 8 and 16.
* ``asw_reduce``: per cell ``(p, s)`` of perfbench's ``embed`` workload,
  ``UNITS`` seeded units drawn as that workload draws them (a character
  with 0..4 monomials per component at exponents -12..2, an image
  ``u^e (1 + ...)`` with ``e`` in 2..6); ``pulled_back`` is how many of
  them reduce and pull back without error, and ``us_per_reduce`` the mean
  time of ``asw_reduce`` on one pulled-back character, the reduction that
  ``pullback_character`` ends with.
* ``conductor_change``: the same units; ``answered`` and ``errors`` (by
  kind) of ``extensions.conductor_change``, and ``us_per_change``, the
  mean time of one call, failures included; ``us_per_answer`` and
  ``us_per_refusal`` time the answered and the refused units apart (None
  when a cell has none).

Each time comes from ``PASSES`` alternating passes, each timing a batch of
calls of about ``BATCH_SECONDS`` (``bench/_trees.py``).

``sweep`` is the untimed cross-tree check of the conductor changes the
``embed`` draws never reach: ``SWEEP_UNITS`` seeded units per cell ``(p, s,
budget)``, p = 2, 3, 5, s = 1..3 and the budgets ``SWEEP_BUDGETS``.  Each
draws an image of order ``e`` in 1..6 with 1..4 terms, a wild one (p
divides ``e``), a tame one or a monomial (never a p-th power), and 0..3
monomials per component whose deepest pole ``L`` lies, for a third of the
components each, next to the budget edge ``e L = budget``, next to the
weight-p slot's edge ``p e L = budget - 1`` (where its window of
``(p - 1) e L + 1`` stops being shorter than the budget's), or anywhere
down to ``2 budget / e``.  The outcomes of ``extensions.conductor_change``
must be equal across trees: the report's fields, or the refusal's kind,
message and exponent.  Per tree, ``sized`` counts the units whose planned
pullback cuts some window (``extensions._sized_widths`` on a tree that
has it; 0 on older trees), ``refused`` those whose planned ceilings refuse
before any substitution, and ``fallback`` the rest, which pull back on the
full budget.
"""

from __future__ import annotations

import random
import sys

from _trees import alternate, main, same

DOMAINS = {"F_2": (2, 1, 1), "F_9": (3, 2, 1), "Z/16": (2, 1, 4)}
WIDTHS = (4, 16, 64, 256, 1024)
TERMS = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)
NESTED_PRECISIONS = (4, 8, 16)
NESTED_TERMS = (2, 4)
EMBED_CELLS = tuple((p, s) for p in (2, 3, 5) for s in (1, 2))
UNITS = 24
PASSES = 7
BATCH_SECONDS = 0.02
SWEEP_BUDGETS = (16, 32, 64, 128)
SWEEP_UNITS = 40


# ----------------------------------------------------------------------- inv

def _grid():
    """``(domain, level, width, terms)`` cells."""
    return [(name, 1, w, n) for name in DOMAINS for w in WIDTHS for n in TERMS if n <= w] + [
        (name, level, w, n)
        for name in DOMAINS for level in (2, 3) for w in NESTED_PRECISIONS for n in NESTED_TERMS
    ]


def _series(rswan, dom, rng, level, width, terms):
    """An exact series with ``terms`` top exponents in ``[0, width)``, the
    lead at 0, over inner series with 2 top exponents in ``[0, 4)`` (3 terms
    at level 1); every lead is a unit."""
    if level == 1:
        lead = dom.random_nonzero(rng)
        while dom.is_zero(dom.reduce_mod_p(lead)):  # a unit of Z/16
            lead = dom.random_nonzero(rng)
        coeffs = {0: lead}
        for e in rng.sample(range(1, width), terms - 1):
            coeffs[e] = dom.random_nonzero(rng)
        return rswan.NestedSeries(1, dom, coeffs)
    exps = [0, *rng.sample(range(1, width), terms - 1)]
    inner_terms = 3 if level == 2 else 2
    return rswan.NestedSeries(level, dom, {e: _series(rswan, dom, rng, level - 1, 4, inner_terms)
                                           for e in exps})


def _inv_input(rswan, name, level, width, terms):
    p, k, s = DOMAINS[name]
    dom = rswan.scalars.galois_ring_domain(p, k, s)
    seed = f"inv:{name}:{width}:{terms}" if level == 1 else f"inv:{name}:{level}:{width}:{terms}"
    return _series(rswan, dom, random.Random(seed), level, width, terms)


def _inv_section(trees):
    calls = {}
    for cell in _grid():
        width = cell[2]
        inputs = [_inv_input(tree, *cell) for tree in trees]
        calls[cell] = [(lambda a=a, w=width: a.inv(w)) for a in inputs]
        same(f"inverse of {cell}", [fn() for fn in calls[cell]])
    seconds = alternate(calls, PASSES, BATCH_SECONDS)
    return [
        {"domain": name, "level": level, "width": width, "terms": terms,
         "inv_us": [round(t * 1e6, 1) for t in seconds[name, level, width, terms]]}
        for name, level, width, terms in _grid()
    ]


# ------------------------------------------------------------------- embed

def _units(rswan, cell):
    """``(ExtensionMap, WittVector)`` pairs, drawn as the ``embed`` workload draws."""
    p, s = cell
    source = rswan.FieldTower(p, 1, s, ("t",))
    target = rswan.FieldTower(p, 1, s, ("u",))
    dom = target.field_domain
    rng = random.Random(f"conductor_change:{cell}")
    out = []
    for _ in range(UNITS):
        e = rng.randint(2, 6)
        terms = [((e,), dom.random_nonzero(rng))]
        for j in range(1, 4):
            if rng.random() < 0.5:
                terms.append(((e + j,), dom.random_nonzero(rng)))
        if all(exps[0] % p == 0 for exps, _ in terms):
            j = next(j for j in range(1, p + 1) if (e + j) % p)
            terms.append(((e + j,), dom.random_nonzero(rng)))
        image = rswan.NestedSeries.from_monomials(1, dom, terms)
        comps = []
        for _ in range(s):
            monos = [((rng.randint(-12, 2),), dom.random_nonzero(rng))
                     for _ in range(rng.randint(0, 4))]
            comps.append(rswan.NestedSeries.from_monomials(1, dom, monos))
        ext = rswan.extensions.ExtensionMap(source, target, {"t": image})
        out.append((ext, rswan.WittVector(source, tuple(comps))))
    return out


def _pulled_back(rswan, units):
    """The characters ``pullback_character`` reduces over the target."""
    out = []
    for ext, vec in units:
        try:
            char = rswan.asw_reduce(vec)
            comps = tuple(rswan.extensions.pullback_series(ext, c) for c in char.vector.comps)
        except rswan.RswanError:
            continue
        out.append(rswan.WittVector(ext.target, comps))
    return out


def _reduce(rswan, vec):
    try:
        return rswan.asw_reduce(vec)
    except rswan.RswanError as exc:
        return exc


def _change(rswan, ext, vec):
    try:
        return rswan.extensions.conductor_change(ext, vec)
    except rswan.RswanError as exc:
        return exc


def _outcome(result):
    """What the trees must agree on: an error's kind, message and exponent,
    a reduced character's components or a report's fields."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result), getattr(result, "exponent", None)
    if hasattr(result, "vector"):
        return result.vector.comps
    return (result.e, result.delta, result.sw_source, result.sw_target, result.status)


def _embed_section(trees):
    units = {cell: [_units(tree, cell) for tree in trees] for cell in EMBED_CELLS}
    pulled = {cell: [_pulled_back(tree, u) for tree, u in zip(trees, units[cell])]
              for cell in EMBED_CELLS}
    calls = {}
    outcomes = {}
    for cell in EMBED_CELLS:
        same(f"reduced characters of cell {cell}",
             [[_outcome(_reduce(tree, v)) for v in vecs]
              for tree, vecs in zip(trees, pulled[cell])])
        results = [[_change(tree, *u) for u in us] for tree, us in zip(trees, units[cell])]
        same(f"conductor-change reports of cell {cell}",
             [[_outcome(r) for r in rs] for rs in results])
        outcomes[cell] = results[0]
        refused = [isinstance(r, Exception) for r in results[0]]
        calls["asw_reduce", cell] = [
            (lambda tree=tree, vecs=vecs: [_reduce(tree, v) for v in vecs])
            for tree, vecs in zip(trees, pulled[cell])
        ]
        for key, keep in (("conductor_change", None), ("answered", False), ("refused", True)):
            picked = [[u for u, r in zip(us, refused) if keep is None or r == keep]
                      for us in units[cell]]
            if picked[0]:
                calls[key, cell] = [
                    (lambda tree=tree, us=us: [_change(tree, *u) for u in us])
                    for tree, us in zip(trees, picked)
                ]
    seconds = alternate(calls, PASSES, BATCH_SECONDS)

    def per_unit(key, cell, count):
        if (key, cell) not in seconds:
            return None
        return [round(t * 1e6 / count, 1) for t in seconds[key, cell]]

    reduce_rows, change_rows = [], []
    for cell in EMBED_CELLS:
        p, s = cell
        errors: dict = {}
        for r in outcomes[cell]:
            if isinstance(r, Exception):
                kind = type(r).__name__
                errors[kind] = errors.get(kind, 0) + 1
        refusals = sum(errors.values())
        reduce_rows.append({
            "p": p, "s": s, "pulled_back": len(pulled[cell][0]),
            "us_per_reduce": per_unit("asw_reduce", cell, len(pulled[cell][0])),
        })
        change_rows.append({
            "p": p, "s": s, "answered": UNITS - refusals, "errors": errors,
            "us_per_change": per_unit("conductor_change", cell, UNITS),
            "us_per_answer": per_unit("answered", cell, UNITS - refusals),
            "us_per_refusal": per_unit("refused", cell, refusals),
        })
    return reduce_rows, change_rows


# ------------------------------------------------------------------- sweep

def _sweep_image(rswan, dom, rng, p):
    """An image of order 1..6 with 1..4 terms: wild, tame or a monomial, never
    a p-th power (module docstring, ``sweep``)."""
    kind = rng.choice(("wild", "tame", "monomial"))
    if kind == "wild":
        e = p * rng.randint(1, 6 // p)
        exps = [e] + rng.sample([x for x in range(e + 1, e + 6) if x % p], 1)
    else:
        e = rng.choice([x for x in range(1, 7) if x % p])
        exps = [e]
    if kind != "monomial":
        spare = [x for x in range(e + 1, e + 6) if x not in exps]
        exps += rng.sample(spare, rng.randint(0, 4 - len(exps)))
    return rswan.NestedSeries.from_monomials(1, dom, [((x,), dom.random_nonzero(rng))
                                                      for x in sorted(exps)]), e


def _sweep_poles(rng, p, e, budget):
    """The deepest pole of one component (module docstring, ``sweep``)."""
    edge = rng.choice(("budget", "need", "any"))
    if edge == "budget":
        return max(1, budget // e + rng.randint(-1, 1))
    if edge == "need":
        return max(1, (budget - 1) // (p * e) + rng.randint(-1, 1))
    return rng.randint(1, 2 * budget // e)


def _sweep_units(rswan, cell):
    """``(ExtensionMap, WittVector)`` pairs of one sweep cell."""
    p, s, budget = cell
    source = rswan.FieldTower(p, 1, s, ("t",))
    target = rswan.FieldTower(p, 1, s, ("u",), budget)
    dom = target.field_domain
    rng = random.Random(f"conductor_change:sweep:{cell}")
    out = []
    for _ in range(SWEEP_UNITS):
        image, e = _sweep_image(rswan, dom, rng, p)
        comps = []
        for _ in range(s):
            monos = []
            count = rng.randint(0, 3)
            if count:
                monos.append(((-_sweep_poles(rng, p, e, budget),), dom.random_nonzero(rng)))
                monos += [((rng.randint(monos[0][0][0], 3),), dom.random_nonzero(rng))
                          for _ in range(count - 1)]
            comps.append(rswan.NestedSeries.from_monomials(1, dom, monos))
        ext = rswan.extensions.ExtensionMap(source, target, {"t": image})
        out.append((ext, rswan.WittVector(source, tuple(comps))))
    return out


def _route(rswan, ext, vec):
    """``sized``, ``refused`` or ``fallback`` (module docstring, ``sweep``)."""
    extensions = rswan.extensions
    try:
        char = rswan.asw_reduce(vec)
    except rswan.RswanError:
        return "fallback"
    ceilings = extensions._planned_ceilings(ext, char)
    if ceilings is None:
        return "fallback"
    if any(c is not None and c <= 0 for c in ceilings):
        return "refused"
    sized = getattr(extensions, "_sized_widths", None)
    return "sized" if sized is not None and any(sized(ext, ceilings)) else "fallback"


def _sweep(trees) -> dict:
    """The cross-tree sweep of the conductor changes (module docstring)."""
    cells = [(p, s, budget) for p in (2, 3, 5) for s in (1, 2, 3) for budget in SWEEP_BUDGETS]
    routes = [dict.fromkeys(("sized", "fallback", "refused"), 0) for _ in trees]
    answered, errors = 0, {}
    for cell in cells:
        units = [_sweep_units(tree, cell) for tree in trees]
        results = [[_change(tree, *u) for u in us] for tree, us in zip(trees, units)]
        same(f"sweep outcomes of cell {cell}", [[_outcome(r) for r in rs] for rs in results])
        for index, (tree, us) in enumerate(zip(trees, units)):
            for u in us:
                routes[index][_route(tree, *u)] += 1
        for r in results[0]:
            if isinstance(r, Exception):
                errors[type(r).__name__] = errors.get(type(r).__name__, 0) + 1
            else:
                answered += 1
    return {"units": len(cells) * SWEEP_UNITS, "answered": answered, "errors": errors,
            "routes": routes}


def measure(trees) -> dict:
    inv_rows = _inv_section(trees)
    reduce_rows, change_rows = _embed_section(trees)
    return {
        "inv": inv_rows,
        "asw_reduce": reduce_rows,
        "conductor_change": change_rows,
        "sweep": _sweep(trees),
    }


if __name__ == "__main__":
    sys.exit(main(__file__, measure, {"units_per_cell": UNITS, "passes": PASSES,
                                      "sweep_budgets": list(SWEEP_BUDGETS),
                                      "sweep_units_per_cell": SWEEP_UNITS}))
