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

``sweep`` is the cross-tree check of the reader, untimed: every literal
below is read on every tree by ``parse_series`` and ``parse_windowed_form``
over each tower of ``SWEEP_TOWERS`` (p = 2, 3, 5, k = 1, 2, d = 1, 2, 3 at
the budget ``SWEEP_PRECISION``) and by ``parse_rat_func`` over ``F_p(x)``
for each p.  The literals are every str constant of ``tests/*.py``, as
written, for every reader, and ``SWEEP_LITERALS`` seeded random ones from
``SWEEP_SEED`` per reader and tower: sums of products of numbers, ``g``,
variables and parenthesised monomials and sums, each factor raised to a
power in -3..5 half the time, and, one in ten, a probe of the exponent
floor such as ``(t^-6000)^2``; the form reader's have a window, and half
the time a ``dlog`` chain, appended.  The value read, a window as its
bounds, degree and coefficients, or the refusal's type, message, position
and exponent, must be equal across trees (checked); ``reads``,
``answered`` and ``refused`` (by type) count them per tree and reader.
"""

from __future__ import annotations

import ast
import random
import sys
from collections import Counter

from _trees import ROOT, alternate, main, same

PRIMES = (2, 3, 5)
FORMS = 200
SEED = 48
PASSES = 11
BATCH_SECONDS = 0.05  # each timing covers a batch of passes of about this length
SWEEP_SEED = 50
SWEEP_LITERALS = 150
SWEEP_PRECISION = 8
SWEEP_TOWERS = [(p, k, d) for p in PRIMES for k in (1, 2) for d in (1, 2, 3)]
# probes of the exponent floor -10000, ``{t}`` the top variable and ``{u}`` another
FLOOR_PROBES = (
    "({t}^-6000)^2", "({t}^-3000)^-4", "{t}^-6000*{t}^-6000*{t}^7000", "({t}^5000)^-2",
    "({t}^5001)^-2", "(2*{t}^-5000*{u})^2", "(1+{t})^-1*{t}^-9999", "({t}^-10001)",
    "({t}^-4000)^3*{t}^5000", "({t}^-2500)^4", "(({t}^-100)^-3)^-40", "({t}^3)^-3334",
)


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
    return {"sets": rows, "sweep": _sweep(trees)}


def _test_constants() -> list:
    """Every str constant of ``tests/*.py``, file by file in name order."""
    out = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and type(node.value) is str:
                out.append(node.value)
    return out


def _random_literal(rng, names) -> str:
    """One random literal over the variables ``names`` (module docstring,
    ``sweep``)."""
    if rng.random() < 0.1:
        u = names[rng.randrange(len(names) - 1)] if len(names) > 1 else "2"
        return rng.choice(FLOOR_PROBES).format(t=names[-1], u=u)
    return _expr(rng, names, 2)


def _expr(rng, names, depth: int) -> str:
    terms = [_term(rng, names, depth) for _ in range(rng.randint(1, 3))]
    text = ("-" if rng.random() < 0.2 else "") + terms[0]
    for term in terms[1:]:
        text += rng.choice((" + ", " - ")) + term
    return text


def _term(rng, names, depth: int) -> str:
    return "*".join(_factor(rng, names, depth) for _ in range(rng.randint(1, 3)))


def _factor(rng, names, depth: int) -> str:
    kind = rng.randrange(5 if depth else 3)
    if kind == 0:
        atom = str(rng.randint(0, 6))
    elif kind == 1:
        atom = "g"
    elif kind == 2:
        atom = rng.choice(names)
    elif kind == 3:  # a parenthesised monomial
        parts = [str(rng.randint(1, 6))] if rng.random() < 0.5 else []
        parts += [f"{name}^{rng.randint(-4, 4)}" for name in names if rng.random() < 0.6]
        atom = f"({'*'.join(parts) or 'g'})"
    else:  # a parenthesised sum
        atom = f"({_expr(rng, names, depth - 1)})"
    if rng.random() < 0.5:
        atom += f"^{rng.randint(-3, 5)}"
    return atom


def _random_form(rng, names) -> str:
    """A random literal with a ``dlog`` chain, half the time, and a window."""
    chain = "^".join(f"dlog({name})" for name in names if rng.random() < 0.5) \
        if rng.random() < 0.5 else ""
    n = rng.randint(-3, 6)
    return f"{_random_literal(rng, names)} {chain} | window({n},{n - rng.randint(-1, 6)})"


def _sweep_literals(constants) -> list:
    """``[(reader, tower key, text)]``: what every tree reads (module
    docstring, ``sweep``), the same on every tree, ``constants`` those of
    the tests."""
    rng = random.Random(SWEEP_SEED)
    out = []
    for p, k, d in SWEEP_TOWERS:
        names = ("w", "u", "t")[3 - d:]
        tower = (p, k, d)
        out += [("series", tower, text) for text in constants]
        out += [("form", tower, text) for text in constants]
        out += [("series", tower, _random_literal(rng, names)) for _ in range(SWEEP_LITERALS)]
        out += [("form", tower, _random_form(rng, names)) for _ in range(SWEEP_LITERALS)]
    for p in PRIMES:
        out += [("rat", p, text) for text in constants]
        out += [("rat", p, _random_literal(rng, ("x",))) for _ in range(SWEEP_LITERALS)]
    return out


def _swept(rswan, literals) -> list:
    """The outcome of each literal of ``literals`` on one tree: ``("answered",
    value)`` or ``("refused", type, message, position, exponent)``."""
    parser = rswan.parser
    readers = {}
    for p, k, d in SWEEP_TOWERS:
        tower = rswan.FieldTower(p, k, 1, ("w", "u", "t")[3 - d:], precision=SWEEP_PRECISION)
        readers["series", (p, k, d)] = lambda text, tower=tower: parser.parse_series(text, tower)
        readers["form", (p, k, d)] = lambda text, tower=tower: parser.parse_windowed_form(text, tower)
    for p in PRIMES:
        domain = rswan.ratfunc.rat_func_domain(p)
        readers["rat", p] = lambda text, domain=domain: parser.parse_rat_func(text, domain)
    out = []
    for reader, tower, text in literals:
        try:
            value = readers[reader, tower](text)
        except rswan.RswanError as exc:
            out.append(("refused", type(exc).__name__, str(exc), getattr(exc, "position", None),
                        getattr(exc, "exponent", None)))
            continue
        if hasattr(value, "form"):
            value = (value.n, value.m, value.form.degree, value.form.coeffs)
        out.append(("answered", value))
    return out


def _sweep(trees) -> dict:
    """The cross-tree sweep of the reader (module docstring, ``sweep``)."""
    constants = _test_constants()
    literals = _sweep_literals(constants)
    swept = [_swept(tree, literals) for tree in trees]
    same("the swept literals' values and refusals", swept)
    readers = {}
    for reader, _, _ in literals:
        readers.setdefault(reader, {"reads": 0, "answered": [0] * len(trees),
                                    "refused": [Counter() for _ in trees]})["reads"] += 1
    for index, outcomes in enumerate(swept):
        for (reader, _, _), outcome in zip(literals, outcomes):
            if outcome[0] == "refused":
                readers[reader]["refused"][index][outcome[1]] += 1
            else:
                readers[reader]["answered"][index] += 1
    for counts in readers.values():
        counts["refused"] = [dict(sorted(r.items())) for r in counts["refused"]]
    return {"test_constants": len(constants), "random_per_tower": SWEEP_LITERALS,
            "reads": len(literals), "readers": readers}


if __name__ == "__main__":
    sys.exit(main(__file__, measure, {"forms": FORMS, "seed": SEED, "passes": PASSES,
                                      "sweep_seed": SWEEP_SEED}))
