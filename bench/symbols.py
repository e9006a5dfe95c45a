"""Layer bench: the characterization check (``verify_rsw_characterization``).

The cells are the reciprocity tasks of ``rswan check-all`` for p = 2, 3, 5:
the catalog character and sample count of each, checked at seed ``SEED``.
The reports must be equal field for field across trees (checked).  Per
cell, one figure per tree:

* ``symbols_evaluated`` and ``pairings_evaluated``: the calls of the
  symbol site and of the pairing site in one check.  The symbol site is
  ``reciprocity._LeftSide.symbol`` on a tree that has it, which reads each
  term's left side off ``theta``'s coefficients or hands it off, else
  ``reciprocity._symbol_value``, which older trees call once per term;
  the pairing site is ``reciprocity._pairing`` on a tree that has it,
  which reads each term's right side off the invariant's coefficients,
  else ``r_b``, which older trees call once per term;
* ``symbols_handed_off``: the calls of ``reciprocity._symbol_value`` in
  one check, the general path, which evaluates each symbol on its own (on
  older trees the symbols of a check share their entries' inverses): on a
  tree with ``_LeftSide`` the terms it hands off, so ``symbols_evaluated``
  less this is the terms read off ``theta``; on older trees every symbol;
* ``inverses``: the calls of ``NestedSeries.inv`` in one check, counting
  the inner-level calls an inverse makes and those of the Schmid oracle
  (s = 1, d = 1);
* ``ms_per_check``: the time of one call, from ``PASSES`` alternating
  passes, each timing a batch of calls (``bench/_trees.py``);
* ``ms_per_check_handed_off``: the same, with ``_LeftSide.reads`` forced
  False on a tree that has it, so that every term goes through
  ``_symbol_value``: the price of the general path, which no catalog term
  pays.  Its reports must equal the unforced ones (checked).

``terms`` is the number of symbols the samples draw, the same for every
tree (checked): the sum of the sample lengths of the one batch call
``_random_window_terms(tower, rng, m, n, samples)`` on a tree that draws a
check's samples at once, else the sum of the lengths of the per-sample
calls.  ``totals_ms`` and ``totals_handed_off_ms`` sum ``ms_per_check``
and ``ms_per_check_handed_off`` over the cells per tree.

``sweep`` is the cross-tree check of the paths no catalog check reaches,
untimed; it needs ``_symbol_value(theta, tower, ys)`` on every tree:

* ``symbols``: ``SWEEP_SYMBOLS`` seeded random symbols from
  ``SWEEP_SEED``, each evaluated by ``reciprocity._symbol_value`` on every
  tree.  They run through the cells p = 2, 3, 5, k = 1, 2, s = 1-3, d = 1,
  2 in turn, each at a budget drawn from ``SWEEP_BUDGETS``, with an exact
  or a windowed ``theta`` (top and inner windows) and, per entry, either
  an exact monomial (a bare variable among them) or a general entry: the
  exponential of a monomial, a variable, or a unit ``c T^v (1 + ...)``,
  possibly windowed.  The drawn inputs, and the value or the refusal's
  type, message and exponent of each symbol, must be equal across trees
  (checked); ``answered`` and ``refused`` (by type) count them per tree;
* ``handed_off_checks``: the catalog checks of the cells, with
  ``_LeftSide.reads`` forced False, at each seed of ``SWEEP_CHECK_SEEDS``;
  their reports must equal each other across trees and the unforced
  reports (checked);
* ``characters``: ``SWEEP_CHARACTERS`` seeded random characters from
  ``SWEEP_CHARACTER_SEED``, each checked by ``verify_rsw_characterization``
  with ``SWEEP_CHARACTER_SAMPLES`` samples at its index as the seed, on
  every tree.  They run through the cells above in turn, each at a budget
  drawn from ``SWEEP_CHARACTER_BUDGETS``, exact or with windowed
  components (top and inner windows, drawn as a windowed ``theta`` is),
  so they reach the windowed paths of both sides of the check, which no
  catalog character does.  The drawn components must be equal across
  trees, and so must every report (checked); a character refused on one
  tree must be refused on every tree, with the same type of refusal, save
  that ``ZeroInput`` and ``PrecisionExhausted`` may stand for each other
  (a tree whose ``NestedSeries.ord`` refuses a series zero only within a
  window as unknown raises the second where an older one raised the
  first).  ``reports`` and ``refused`` (by type) count them per tree, and
  ``refusals_differing`` counts per tree the refusals that differ from
  tree 0's, by their types (``"A -> B"``), messages included.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import sys
from collections import Counter

from _trees import alternate, form, main, same

PRIMES = (2, 3, 5)
SEED = 0
PASSES = 7
BATCH_SECONDS = 0.05  # each timing covers a batch of calls of about this length
SWEEP_SEED = 49
SWEEP_SYMBOLS = 3600
SWEEP_BUDGETS = (6, 12, 64)
SWEEP_CELLS = [(p, k, s, d) for p in PRIMES for k in (1, 2) for s in (1, 2, 3) for d in (1, 2)]
SWEEP_CHECK_SEEDS = range(30)
SWEEP_CHARACTER_SEED = 52
SWEEP_CHARACTERS = 900
SWEEP_CHARACTER_SAMPLES = 20
SWEEP_CHARACTER_BUDGETS = (8, 16, 64)


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
    pairing = "_pairing" if hasattr(reciprocity, "_pairing") else "r_b"
    patched = {"_random_window_terms": [], "_symbol_value": [], pairing: []}
    originals = {name: getattr(reciprocity, name) for name in patched}

    def recording(name):
        def call(*args):
            out = originals[name](*args)
            patched[name].append(out)
            return out

        return call

    series_class = rswan.series.NestedSeries
    inv = series_class.inv
    inverses = []

    def counting_inv(*args):
        inverses.append(None)
        return inv(*args)

    left_side = getattr(reciprocity, "_LeftSide", None)
    symbols = patched["_symbol_value"]
    if left_side is not None:
        site, symbols = left_side.symbol, []
        left_side.symbol = lambda *args: symbols.append(None) or site(*args)
    for name in patched:
        setattr(reciprocity, name, recording(name))
    series_class.inv = counting_inv
    try:
        report = reciprocity.verify_rsw_characterization(char, samples, seed=SEED)
    finally:
        for name, fn in originals.items():
            setattr(reciprocity, name, fn)
        series_class.inv = inv
        if left_side is not None:
            left_side.symbol = site
    with _handing_off(rswan):
        forced = reciprocity.verify_rsw_characterization(char, samples, seed=SEED)
    return {
        "report": dataclasses.asdict(report),
        "handed_off_report": dataclasses.asdict(forced),
        "terms": sum(_drawn(out) for out in patched["_random_window_terms"]),
        "symbols_evaluated": len(symbols),
        "symbols_handed_off": len(patched["_symbol_value"]),
        "pairings_evaluated": len(patched[pairing]),
        "inverses": len(inverses),
    }


@contextlib.contextmanager
def _handing_off(rswan):
    """Within the block, ``_LeftSide.reads`` is False on a tree that has
    it, so that its check hands every term to ``_symbol_value``."""
    left_side = getattr(rswan.reciprocity, "_LeftSide", None)
    if left_side is None:
        yield
        return
    reads = left_side.reads
    left_side.reads = lambda left, exps: False
    try:
        yield
    finally:
        left_side.reads = reads


def _check(tree, cell, forced: bool):
    """One check of ``cell`` on ``tree``, every term handed off when ``forced``."""
    if not forced:
        return lambda: tree.verify_rsw_characterization(*cell, seed=SEED)

    def call():
        with _handing_off(tree):
            return tree.verify_rsw_characterization(*cell, seed=SEED)

    return call


def _drawn(out) -> int:
    """The terms in one output of ``_random_window_terms``: a batch call
    returns one list of term codes per sample, a per-sample call the list of
    its terms."""
    if out and isinstance(out[0], list):
        return sum(map(len, out))
    return len(out)


def measure(trees) -> dict:
    cells = [_cells(tree) for tree in trees]
    same("the catalogs' reciprocity tasks", [list(c) for c in cells])
    keys = list(cells[0])
    counts = {}
    for key in keys:
        counts[key] = [_counted(tree, *c[key]) for tree, c in zip(trees, cells)]
        same(f"reports of cell {key}", [c["report"] for c in counts[key]])
        same(f"handed-off reports of cell {key}",
             [c["report"] for c in counts[key]] + [c["handed_off_report"] for c in counts[key]])
        same(f"terms drawn in cell {key}", [c["terms"] for c in counts[key]])
    calls = {
        (key, forced): [_check(tree, c[key], forced) for tree, c in zip(trees, cells)]
        for key in keys for forced in (False, True)
    }
    seconds = alternate(calls, PASSES, BATCH_SECONDS)
    rows = []
    for key in keys:
        p, label = key
        rows.append({
            "p": p, "character": label, "samples": cells[0][key][1],
            "terms": counts[key][0]["terms"],
            "symbols_evaluated": [c["symbols_evaluated"] for c in counts[key]],
            "symbols_handed_off": [c["symbols_handed_off"] for c in counts[key]],
            "pairings_evaluated": [c["pairings_evaluated"] for c in counts[key]],
            "inverses": [c["inverses"] for c in counts[key]],
            "ms_per_check": [round(t * 1e3, 3) for t in seconds[key, False]],
            "ms_per_check_handed_off": [round(t * 1e3, 3) for t in seconds[key, True]],
        })
    return {
        "totals_ms": _totals(seconds, keys, False, len(trees)),
        "totals_handed_off_ms": _totals(seconds, keys, True, len(trees)),
        "cells": rows,
        "sweep": _sweep(trees, cells),
    }


def _random_theta(rswan, rng, level, domain, windowed):
    """1-3 monomials with top exponents in -8..0 and lower ones in -2..2;
    when ``windowed``, an inner coefficient cut at a ceiling half the time
    and the whole cut at a top ceiling above its lowest exponent half the
    time."""
    monos = [(tuple(rng.randint(-2, 2) for _ in range(level - 1)) + (rng.randint(-8, 0),),
              domain.random_nonzero(rng)) for _ in range(rng.randint(1, 3))]
    sr = rswan.NestedSeries.from_monomials(level, domain, monos)
    if not windowed or sr.is_zero():
        return sr
    if level > 1 and rng.random() < 0.5:
        e = rng.choice(sorted(sr.coeffs))
        inner = sr.coeffs[e].truncate(rng.randint(-1, 3))
        sr = rswan.NestedSeries(level, domain, {**sr.coeffs, e: inner}, sr.ceiling)
    if rng.random() < 0.5:
        sr = sr.truncate(min(sr.coeffs) + rng.randint(1, 6))
    return sr


def _random_entry(rswan, rng, tower, windowed):
    """One symbol entry over ``tower`` (module docstring, ``sweep``)."""
    d, dom = tower.d, tower.field_domain
    series = rswan.NestedSeries
    if rng.random() < 0.5:  # an exact monomial
        if rng.random() < 0.3:
            return series.variable(d, dom, rng.randint(1, d))
        exps = tuple(rng.randint(-3, 3) for _ in range(d - 1)) + (rng.randint(-4, 4),)
        return series.from_monomials(d, dom, [(exps, dom.random_nonzero(rng))])
    kind = rng.randrange(3)
    if kind == 0:
        exps = tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (rng.randint(1, 4),)
        y = rswan.reciprocity.truncated_exp(
            series.from_monomials(d, dom, [(exps, dom.random_nonzero(rng))]))
    elif kind == 1:
        y = series.variable(d, dom, rng.randint(1, d))
    else:
        v = rng.randint(-2, 2)
        lead = tuple(rng.randint(-1, 1) for _ in range(d - 1)) + (v,)
        tail = [(tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (rng.randint(v + 1, v + 3),),
                 dom.random_nonzero(rng)) for _ in range(rng.randint(1, 3))]
        y = series.from_monomials(d, dom, [(lead, dom.random_nonzero(rng))])
        y = y + series.from_monomials(d, dom, tail)
    if windowed and rng.random() < 0.5 and not y.is_zero():
        y = y.truncate(min(y.coeffs) + rng.randint(1, 4))
    return y


def _swept(rswan) -> dict:
    """The drawn symbols and their outcomes on one tree (module docstring,
    ``sweep``)."""
    rng = random.Random(SWEEP_SEED)
    drawn, outcomes = [], []
    for index in range(SWEEP_SYMBOLS):
        p, k, s, d = SWEEP_CELLS[index % len(SWEEP_CELLS)]
        budget = rng.choice(SWEEP_BUDGETS)
        tower = rswan.FieldTower(p, k, s, ("u", "t")[2 - d:], precision=budget)
        windowed = rng.random() < 0.5
        theta = _random_theta(rswan, rng, d, tower.lift_domain, windowed)
        ys = [_random_entry(rswan, rng, tower, windowed) for _ in range(d)]
        drawn.append(((p, k, s, d, budget), theta, ys))
        try:
            outcomes.append(rswan.reciprocity._symbol_value(theta, tower, ys))
        except rswan.RswanError as exc:
            outcomes.append((type(exc).__name__, str(exc), getattr(exc, "exponent", None)))
    return {"drawn": drawn, "outcomes": outcomes}


def _handed_off_reports(rswan, cells) -> list:
    """``[(unforced, forced)]`` reports of every cell's check at every seed
    of ``SWEEP_CHECK_SEEDS``, forced with every term handed off."""
    verify = rswan.reciprocity.verify_rsw_characterization
    out = []
    for seed in SWEEP_CHECK_SEEDS:
        for char, samples in cells.values():
            report = dataclasses.asdict(verify(char, samples, seed=seed))
            with _handing_off(rswan):
                forced = dataclasses.asdict(verify(char, samples, seed=seed))
            out.append((report, forced))
    return out


def _checked_characters(rswan) -> dict:
    """The drawn characters and their checks' outcomes on one tree (module
    docstring, ``sweep``)."""
    rng = random.Random(SWEEP_CHARACTER_SEED)
    drawn, outcomes = [], []
    for index in range(SWEEP_CHARACTERS):
        p, k, s, d = SWEEP_CELLS[index % len(SWEEP_CELLS)]
        budget = rng.choice(SWEEP_CHARACTER_BUDGETS)
        tower = rswan.FieldTower(p, k, s, ("u", "t")[2 - d:], precision=budget)
        windowed = rng.random() < 0.5
        comps = [_random_theta(rswan, rng, d, tower.field_domain, windowed) for _ in range(s)]
        drawn.append(((p, k, s, d, budget), comps))
        try:
            char = rswan.Character(rswan.WittVector.from_print_order(tower, comps))
            report = rswan.reciprocity.verify_rsw_characterization(
                char, SWEEP_CHARACTER_SAMPLES, seed=index)
            outcomes.append(dataclasses.asdict(report))
        except rswan.RswanError as exc:
            outcomes.append((type(exc).__name__, str(exc), getattr(exc, "exponent", None)))
    return {"drawn": drawn, "outcomes": outcomes}


# refusal types that may stand for each other across trees (module docstring, ``sweep``)
_UNKNOWN_OR_ZERO = {"ZeroInput", "PrecisionExhausted"}


def _differing_refusals(checked) -> list:
    """Per tree, the counts of its refusals that differ from tree 0's;
    exits on a differing report or a refusal of another type."""
    out = []
    for outcomes in [c["outcomes"] for c in checked]:
        differing = Counter()
        for index, (first, other) in enumerate(zip(checked[0]["outcomes"], outcomes)):
            if form(first) == form(other):
                continue
            if isinstance(first, dict) or isinstance(other, dict):
                raise SystemExit(f"the swept characters' reports: character {index} differs")
            if first[0] != other[0] and {first[0], other[0]} != _UNKNOWN_OR_ZERO:
                raise SystemExit(f"the swept characters' refusals: character {index} differs")
            differing[f"{first[0]} -> {other[0]}"] += 1
        out.append(dict(sorted(differing.items())))
    return out


def _sweep(trees, cells) -> dict:
    """The cross-tree sweep of the general path (module docstring, ``sweep``)."""
    swept = [_swept(tree) for tree in trees]
    same("the swept symbols", [s["drawn"] for s in swept])
    same("the swept symbols' values and refusals", [s["outcomes"] for s in swept])
    reports = [_handed_off_reports(tree, c) for tree, c in zip(trees, cells)]
    same("the handed-off checks' reports",
         [[u for u, _ in rs] for rs in reports] + [[f for _, f in rs] for rs in reports])
    refused = [Counter(o[0] for o in s["outcomes"] if isinstance(o, tuple)) for s in swept]
    checked = [_checked_characters(tree) for tree in trees]
    same("the swept characters", [c["drawn"] for c in checked])
    differing = _differing_refusals(checked)
    checks_refused = [Counter(o[0] for o in c["outcomes"] if isinstance(o, tuple))
                      for c in checked]
    return {
        "symbols": SWEEP_SYMBOLS,
        "answered": [sum(isinstance(o, int) for o in s["outcomes"]) for s in swept],
        "refused": [dict(sorted(r.items())) for r in refused],
        "handed_off_checks": len(reports[0]),
        "characters": {
            "checks": SWEEP_CHARACTERS,
            "reports": [sum(isinstance(o, dict) for o in c["outcomes"]) for c in checked],
            "refused": [dict(sorted(r.items())) for r in checks_refused],
            "refusals_differing": differing,
        },
    }


def _totals(seconds, keys, forced: bool, count: int) -> list:
    """``ms_per_check`` (or, ``forced``, its handed-off twin) summed over the cells, per tree."""
    return [round(sum(seconds[key, forced][index] for key in keys) * 1e3, 1)
            for index in range(count)]


if __name__ == "__main__":
    sys.exit(main(__file__, measure, {"seed": SEED, "passes": PASSES, "sweep_seed": SWEEP_SEED,
                                      "sweep_character_seed": SWEEP_CHARACTER_SEED}))
