"""Layer bench: reading and writing literals (``rswan.parser``).

Three sets of literals, the same for every tree:

* ``rsw``: the refined Swan conductor of every ``rsw`` task of ``rswan
  check-all`` for p = 2, 3, 5, rendered by ``render_form`` and read back by
  ``parse_windowed_form``, the round trip each such task checks;
* ``swan``: the reduced components of every ``swan`` task of the same
  runs, rendered by ``render_series`` and read back by ``parse_series``;
* ``random``: ``FORMS`` seeded windowed forms over towers with p = 2, 3,
  5, k = 1, 2 and d = 1, 2, 3, of every degree, with 0..4 terms per
  coefficient and top exponents in ``-n..-m+2`` (those at ``-m`` and above
  are cut), rendered and read back as the ``rsw`` set is.

The rendered texts and the values read back (or their refusals) must be
equal across trees (checked).  Per set, one figure per tree each:
``us_per_parse`` and ``us_per_render``, the mean time of one call over the
set, from ``PASSES`` alternating passes, each timing a batch of whole
passes (``bench/_trees.py``).
"""

from __future__ import annotations

import random
import sys

from _trees import alternate, main, same

PRIMES = (2, 3, 5)
FORMS = 200
SEED = 48
PASSES = 11
BATCH_SECONDS = 0.05  # each timing covers a batch of passes of about this length


def _catalog(rswan) -> dict:
    """``{"rsw": [(value, tower)], "swan": [(series, tower)]}`` from the
    canned runs' ``rsw`` and ``swan`` tasks."""
    out = {"rsw": [], "swan": []}
    for p in PRIMES:
        config = rswan.load_config(rswan.canned_config(p))
        for task in config.tasks:
            if task["task"] not in out:
                continue
            char = rswan.witt.asw_reduce(config.characters[task["character"]])
            if task["task"] == "rsw":
                out["rsw"].append((rswan.rsw.rsw_char_p(char).window, char.tower))
            else:
                out["swan"].extend((c, char.tower) for c in char.vector.print_order)
    return out


def _random_forms(rswan) -> list:
    """``[(windowed form, tower)]``, ``FORMS`` of them from ``SEED``."""
    rng = random.Random(SEED)
    names = ("w", "u", "t")
    out = []
    while len(out) < FORMS:
        p, k, d = rng.choice(PRIMES), rng.randint(1, 2), rng.randint(1, 3)
        tower = rswan.FieldTower(p, k, 1, names[3 - d:])
        dom = tower.field_domain
        n = rng.randint(-3, 6)
        m = rng.randint(n - 6, n - 1)
        degree = rng.randint(0, d)
        keys = [key for key in _keys(d) if len(key) == degree]
        coeffs = {
            key: rswan.NestedSeries.from_monomials(d, dom, [
                (tuple(rng.randint(-3, 3) for _ in range(d - 1)) + (rng.randint(-n, -m + 2),),
                 dom.random_nonzero(rng))
                for _ in range(rng.randint(0, 4))
            ])
            for key in keys
        }
        form = rswan.logdiff.LogForm(d, dom, degree, coeffs)
        out.append((rswan.logdiff.WindowedForm(form, n, m), tower))
    return out


def _keys(d: int) -> list:
    """Every increasing tuple of levels ``1..d``."""
    keys = [()]
    for level in range(1, d + 1):
        keys += [key + (level,) for key in keys]
    return keys


def _sets(rswan) -> dict:
    """``{set: (parse, render, [(value, tower)])}``."""
    parser = rswan.parser
    catalog = _catalog(rswan)
    forms = (parser.parse_windowed_form, parser.render_form)
    return {
        "rsw": forms + (catalog["rsw"],),
        "swan": (parser.parse_series, parser.render_series, catalog["swan"]),
        "random": forms + (_random_forms(rswan),),
    }


def _read_back(rswan, parse, texts, items) -> list:
    """What ``parse`` reads from each text, a window as its bounds and
    coefficients, or a refusal as its kind and message."""
    out = []
    for text, (_, tower) in zip(texts, items):
        try:
            value = parse(text, tower)
        except rswan.RswanError as exc:
            out.append((type(exc).__name__, str(exc)))
            continue
        if hasattr(value, "form"):
            value = (value.n, value.m, value.form.degree, value.form.coeffs)
        out.append(value)
    return out


def measure(trees) -> dict:
    sets = [_sets(tree) for tree in trees]
    calls = {}
    counts = {}
    for name in sets[0]:
        texts = []
        for tree, tree_sets in zip(trees, sets):
            parse, render, items = tree_sets[name]
            texts.append([render(value, tower) for value, tower in items])
        same(f"{name} renderings", texts)
        same(f"{name} values read back",
             [_read_back(tree, tree_sets[name][0], ts, tree_sets[name][2])
              for tree, tree_sets, ts in zip(trees, sets, texts)])
        counts[name] = len(texts[0])
        calls[name, "parse"] = [
            (lambda parse=tree_sets[name][0],
             pairs=[(text, tower) for text, (_, tower) in zip(ts, tree_sets[name][2])]:
             [parse(text, tower) for text, tower in pairs])
            for tree_sets, ts in zip(sets, texts)
        ]
        calls[name, "render"] = [
            (lambda render=tree_sets[name][1], items=tree_sets[name][2]:
             [render(value, tower) for value, tower in items])
            for tree_sets in sets
        ]
    seconds = alternate(calls, PASSES, BATCH_SECONDS)
    rows = []
    for name, count in counts.items():
        rows.append({
            "set": name,
            "literals": count,
            "us_per_parse": [round(t * 1e6 / count, 2) for t in seconds[name, "parse"]],
            "us_per_render": [round(t * 1e6 / count, 2) for t in seconds[name, "render"]],
        })
    return {"sets": rows}


if __name__ == "__main__":
    sys.exit(main(__file__, measure, {"forms": FORMS, "seed": SEED, "passes": PASSES}))
