"""Equality gate: the report digests and the ``embed`` unit outcomes of trees.

    python3 bench/identity.py OUT [SRC ...]

Run it from the repository root; it uses only the standard library and
``bench/_trees.py``.  Per tree it records

* ``check_all``: the sha256 of ``report_body_bytes`` of ``check-all`` (the
  canned configuration through ``cli.run``) for p = 2, 3, 5 at seeds 0-29;
* ``embed``: the outcome of every unit of 10 cycles of the ``embed``
  workload of ``perfbench/workloads.py`` (imported against the tree, never
  edited) at seeds 0-2, warm-up aside: ``["answer", fingerprint]``, the
  sha256 of the ``repr`` of the answer's tree-independent ``form``, or
  ``["refusal", kind, message, exponent]`` for an exception.

With several ``SRC`` every record must equal tree 0's (``same``): the
script exits naming the first report or unit that differs.  ``OUT`` gets
tree 0's records, one line per unit (a fingerprint cut to 16 hex digits),
with the count of answered units and of refusals by kind.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from collections import Counter

from _trees import ROOT, form, main, same

PRIMES = (2, 3, 5)
CHECK_ALL_SEEDS = range(30)
EMBED_SEEDS = (0, 1, 2)
CYCLES = 10


def workloads_for(rswan):
    """``perfbench/workloads.py`` imported with ``rswan`` and ``rswan.<module>``
    naming the modules of the loaded tree ``rswan``."""
    prefix = rswan.__name__
    aliases = {"rswan": rswan}
    aliases.update({"rswan" + name[len(prefix):]: module for name, module in sys.modules.items()
                    if name.startswith(prefix + ".")})
    saved = {name: sys.modules.get(name) for name in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(
            f"workloads_{prefix}", ROOT / "perfbench" / "workloads.py")
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        for name, module in saved.items():
            if module is None:
                del sys.modules[name]
            else:
                sys.modules[name] = module
    return workloads


def check_all_digests(rswan) -> dict:
    """``{p: [sha256 of the report body at each seed]}``."""
    return {p: [hashlib.sha256(rswan.report_body_bytes(rswan.run(
        rswan.load_config(rswan.canned_config(p)), seed=seed))).hexdigest()
        for seed in CHECK_ALL_SEEDS] for p in PRIMES}


def outcome(run, unit) -> list:
    """The unit's answer fingerprint, or its refusal (module docstring)."""
    try:
        answer = run(unit)
    except Exception as exc:  # noqa: BLE001 - a refusal is an outcome
        return ["refusal", type(exc).__name__, str(exc), getattr(exc, "exponent", None)]
    return ["answer", hashlib.sha256(repr(form(answer)).encode()).hexdigest()]


def embed_outcomes(rswan) -> list:
    """``[unit, outcome]`` for every unit of the ``embed`` cycles."""
    workloads = workloads_for(rswan)
    out = []
    for seed in EMBED_SEEDS:
        embed = workloads.Embed(seed)
        for index in range(CYCLES):
            for unit in embed.cycle(index):
                out.append([[unit.kind, list(unit.params), unit.seed], outcome(embed.run, unit)])
    return out


def _line(unit, result) -> str:
    kind, params, seed = unit
    if result[0] == "answer":
        return f"{kind} {params} {seed}: answer {result[1][:16]}"
    return f"{kind} {params} {seed}: {result[1]}: {result[2]} (exponent {result[3]})"


def measure(trees) -> dict:
    digests = [check_all_digests(rswan) for rswan in trees]
    for p in PRIMES:
        for seed in CHECK_ALL_SEEDS:
            same(f"check-all p = {p} seed {seed}", [d[p][seed] for d in digests])
    outcomes = [embed_outcomes(rswan) for rswan in trees]
    same("the embed units", [[unit for unit, _ in o] for o in outcomes])
    for index, (unit, _) in enumerate(outcomes[0]):
        same(f"embed unit {index} {unit}", [o[index][1] for o in outcomes])
    refusals = Counter(r[1] for _, r in outcomes[0] if r[0] == "refusal")
    return {
        "check_all": digests[0],
        "embed": {
            "units": len(outcomes[0]),
            "answered": sum(r[0] == "answer" for _, r in outcomes[0]),
            "refusals": dict(sorted(refusals.items())),
            "outcomes": [_line(unit, r) for unit, r in outcomes[0]],
        },
    }


if __name__ == "__main__":
    sys.exit(main(__file__, measure, {
        "primes": list(PRIMES), "check_all_seeds": list(CHECK_ALL_SEEDS),
        "embed_seeds": list(EMBED_SEEDS), "cycles": CYCLES,
    }))
