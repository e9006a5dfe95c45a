"""Layer bench: substitution (``series_substitute``) on the shapes the ``embed`` workload pulls back.

Results must be equal across trees (checked), error kinds by name.  Three
sections, with one figure per tree:

* ``embed``: per cell ``(p, k, e)``, ``F_{p^k}`` one of ``F_2``, ``F_3``,
  ``F_5``, ``F_4`` and ``F_9`` and ``e`` in 2..6, ``SOURCES`` seeded exact
  series over ``F_{p^k}`` with 1..4 monomials at exponents -12..2 (the
  components the ``embed`` workload draws over ``F_p``), each substituted
  through its own seeded image ``u^e (c + ...)`` drawn as that workload
  draws it, at the target's precision budget; ``us_per_substitution`` is
  the mean time of one call.
* ``deep_poles``: the same per cell ``(p, k, e)`` for ``e`` in 2, 4, 6,
  with exponents -40..2, so that a pole order has several base-``p``
  digits.
* ``imperfect_residue``: per ``p`` in 2, 3, 5, the canned family
  ``u -> v^p + w, t -> w^t`` (``t`` in ``T_VALUES``, prime to ``p``) and its
  character's component over ``F_p((u))((t))``; ``us_per_substitution`` is
  the mean time of one pullback of that component through one member.

Each time comes from ``PASSES`` alternating passes, each timing a batch of
whole cells of about ``BATCH_SECONDS`` (``bench/_trees.py``).
"""

from __future__ import annotations

import random
import sys

from _trees import alternate, main, same

FIELDS = ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2))
EMBED_CELLS = tuple((p, k, e) for p, k in FIELDS for e in range(2, 7))
DEEP_CELLS = tuple((p, k, e) for p, k in FIELDS for e in (2, 4, 6))
SOURCES = 24
T_VALUES = (3, 4, 5, 7, 8, 11)  # each family takes the first three prime to p
PASSES = 7
BATCH_SECONDS = 0.05


def _image(rswan, dom, rng, p, e):
    """``u^e (c + ...)``, never a p-th power, as the ``embed`` workload draws it."""
    terms = [((e,), dom.random_nonzero(rng))]
    for j in range(1, 4):
        if rng.random() < 0.5:
            terms.append(((e + j,), dom.random_nonzero(rng)))
    if all(exps[0] % p == 0 for exps, _ in terms):
        j = next(j for j in range(1, p + 1) if (e + j) % p)
        terms.append(((e + j,), dom.random_nonzero(rng)))
    return rswan.NestedSeries.from_monomials(1, dom, terms)


def _embed_inputs(rswan, cell, deepest=-12):
    """``(source, images, precision)`` triples of one ``embed`` cell, or of a
    ``deep_poles`` cell at ``deepest = -40``."""
    p, k, e = cell
    target = rswan.FieldTower(p, k, 1, ("u",))
    dom = target.field_domain
    # the F_p cells of the embed section keep their seeds from before k was a key
    key = (p, e) if k == 1 and deepest == -12 else (*cell, deepest)
    rng = random.Random(f"substitute:{key}")
    out = []
    for _ in range(SOURCES):
        monos = [((rng.randint(deepest, 2),), dom.random_nonzero(rng))
                 for _ in range(rng.randint(1, 4))]
        source = rswan.NestedSeries.from_monomials(1, dom, monos)
        out.append((source, {1: _image(rswan, dom, rng, p, e)}, target.precision))
    return out


def _family_inputs(rswan, p):
    """``(source, images, precision)`` per member of the imperfect-residue family."""
    t_values = tuple(t for t in T_VALUES if t % p)[:3]
    chi, family = rswan.extensions.imperfect_residue_family(p, t_values)
    (comp,) = chi.vector.comps
    out = []
    for ext in family:
        images = {level: ext.images[name] for level, name in enumerate(ext.source.variables, 1)}
        out.append((comp, images, ext.target.precision))
    return out


def _substitute_all(rswan, inputs):
    out = []
    for source, images, precision in inputs:
        try:
            out.append(rswan.series_substitute(source, images, precision))
        except rswan.RswanError as exc:
            out.append(type(exc).__name__)
    return out


def measure(trees) -> dict:
    inputs = {("embed", cell): [_embed_inputs(tree, cell) for tree in trees]
              for cell in EMBED_CELLS}
    inputs.update({("deep_poles", cell): [_embed_inputs(tree, cell, -40) for tree in trees]
                   for cell in DEEP_CELLS})
    inputs.update({("imperfect_residue", p): [_family_inputs(tree, p) for tree in trees]
                   for p in (2, 3, 5)})
    calls = {}
    for key, per_tree in inputs.items():
        calls[key] = [(lambda tree=tree, ins=ins: _substitute_all(tree, ins))
                      for tree, ins in zip(trees, per_tree)]
        same(f"{key[0]} cell {key[1]}", [fn() for fn in calls[key]])
    seconds = alternate(calls, PASSES, BATCH_SECONDS)

    def us(key):
        return [round(t * 1e6 / len(inputs[key][0]), 1) for t in seconds[key]]

    return {
        "embed": [{"p": p, "k": k, "e": e, "us_per_substitution": us(("embed", (p, k, e)))}
                  for p, k, e in EMBED_CELLS],
        "deep_poles": [{"p": p, "k": k, "e": e,
                        "us_per_substitution": us(("deep_poles", (p, k, e)))}
                       for p, k, e in DEEP_CELLS],
        "imperfect_residue": [{"p": p, "members": len(inputs["imperfect_residue", p][0]),
                               "us_per_substitution": us(("imperfect_residue", p))}
                              for p in (2, 3, 5)],
    }


if __name__ == "__main__":
    sys.exit(main(__file__, measure, {"sources_per_cell": SOURCES, "passes": PASSES}))
