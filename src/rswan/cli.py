"""Batch front-end: JSON run configurations in, deterministic reports out.

A run configuration names towers, characters (component literals in print
order), and extensions, then lists tasks drawn from a fixed vocabulary.
Tasks execute in declared order; a FAIL never aborts the remaining tasks,
and unexpected errors become structured ERROR records.  The report body
(everything except the ``meta`` timing block) is a pure function of the
configuration and the seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .catalog import CATALOG_PRIMES, canned_config
from .errors import ConfigError, ParseError, RswanError
from .extensions import (
    ExtensionMap,
    _curve_x,
    _eval_poly_at,
    _is_over_source,
    conductor_change,
    curve_restriction_ratios,
    imperfect_residue_family,
    perfect_residue_ratios,
)
from .logdiff import duality_matrix, gram_is_invertible, minimal_b
from .parser import parse_rat_func, parse_series, parse_windowed_form, render_form, render_series
from .ratfunc import rat_func_domain
from .reciprocity import FP_EMBEDDING, check_exp_congruences, verify_rsw_characterization
from .rsw import rsw_char_p, rsw_is_closed, sw_from_rsw
from .series import _ORD_FLOOR, NestedSeries
from .tower import FieldTower
from .witt import Character, WittVector, asw_reduce, swan_conductor

__all__ = [
    "RunConfig",
    "load_config",
    "run",
    "report_body_bytes",
    "main",
]

REPORT_VERSION = 1

CONVENTIONS = {
    "witt_order": (
        "character components are written in print order (a_{s-1}, ..., a_0): "
        "the weight-p^(s-1) component first, the weight-1 component last"
    ),
    "fp_embedding": FP_EMBEDDING,
}

_FAILING_STATUSES = ("FAIL", "ERROR")
MAX_SAMPLES = 10_000  # reciprocity samples per task: 100 times the default
# Rows of a duality task's largest Gram matrix: 100 times the largest (96)
# that the duality benchmark builds.
MAX_GRAM_ROWS = 10_000
# thmB's family pulls u t^-2 back to w^(-2t): t above this takes the
# exponent below the series floor.
_THMB_MAX_T = -_ORD_FLOOR // 2


# ------------------------------------------------------------- configuration

@dataclass
class RunConfig:
    """A validated run: towers, characters, extensions, and the task list."""

    main_tower: FieldTower
    towers: dict  # name -> FieldTower, includes "main"
    characters: dict  # label -> Character (unreduced)
    extensions: dict  # name -> ExtensionMap
    tasks: list
    curves: dict  # thmC 'f' items -> the parsed series over F_p(x)
    version: int


def _build_tower(name: str, desc, precision: int | None) -> FieldTower:
    if not isinstance(desc, dict):
        raise ConfigError(f"tower {name!r} must be an object")
    _refuse_unknown_fields(f"tower {name!r}", desc, ("p", "k", "s", "variables", "precision"))
    for key in ("p", "k", "s", "precision"):
        if key in desc and not _is_int(desc[key]):
            raise ConfigError(f"tower {name!r} field {key!r} must be an integer")
    try:
        kwargs = {
            "p": desc["p"],
            "k": desc.get("k", 1),
            "s": desc.get("s", 1),
            "variables": desc["variables"],
        }
    except KeyError as exc:
        raise ConfigError(f"tower {name!r} is missing field {exc.args[0]!r}") from None
    variables = kwargs["variables"]
    if not isinstance(variables, (list, tuple)) or not all(isinstance(v, str) for v in variables):
        raise ConfigError(f"tower {name!r} field 'variables' must be a list of names")
    kwargs["variables"] = tuple(variables)
    if precision is not None:
        kwargs["precision"] = precision
    elif "precision" in desc:
        kwargs["precision"] = desc["precision"]
    try:
        return FieldTower(**kwargs)
    except (ValueError, TypeError, RswanError) as exc:
        raise ConfigError(f"tower {name!r} is invalid: {exc}") from None


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _refuse_unknown_fields(what: str, desc: dict, allowed):
    extra = set(desc) - set(allowed)
    _require(not extra, f"{what} has unknown fields {sorted(extra)}")


def _require_reference(owner: str, kind: str, name, defined: dict):
    """``name`` names an entry of ``defined``; one that is not a string is
    refused before the lookup, which would hash it."""
    article = "an" if kind[0] in "aeiou" else "a"
    _require(isinstance(name, str), f"{owner} needs {article} {kind} name, got {name!r}")
    _require(name in defined, f"{owner} references undefined {kind} {name!r}")


def _is_int(value) -> bool:
    return type(value) is int  # bools are ints to isinstance


def _positive_ints(value) -> bool:
    return isinstance(value, list) and bool(value) and all(_is_int(v) and v > 0 for v in value)


def _ratio_texts(value) -> bool:
    """A list of rationals written as the report writes them (``"5/2"``, ``"3"``)."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        return False
    try:
        return all(str(Fraction(v)) == v for v in value)
    except (ValueError, ZeroDivisionError):
        return False


def _exponent_literals(value) -> bool:
    """A nonempty thmC ``f``: exponent -> literal, each exponent written as
    ``str(int)`` writes it (ASCII, no "-0", no leading zero), so that no two
    keys name one exponent."""
    return isinstance(value, dict) and bool(value) and all(
        isinstance(e, str) and e.isascii() and e.removeprefix("-").isdigit()
        and str(int(e)) == e and isinstance(v, str) for e, v in value.items())


def _check_gram_size(what: str, tower: FieldTower, task: dict):
    """Refuse a duality task whose ``b`` cannot collapse its window (``p^b
    < n - m``) or whose largest Gram matrix, of ``comb(d, d // 2) (n - m)
    p^(b (d - 1))`` rows, is above ``MAX_GRAM_ROWS``; no power is formed
    that the answer does not need."""
    p, d = tower.p, tower.d
    width = task["n"] - task["m"]
    b = _get(task, "b")
    _require(
        b is None or b >= width.bit_length() or p**b >= width,
        f"{what} has p^b = {p}^{b} below the window width n - m = {width}",
    )
    if width <= MAX_GRAM_ROWS:
        b = _duality_b(task, p)
        # past the bit length of the cap, p^(b (d - 1)) alone is above it
        if (b * (d - 1) < MAX_GRAM_ROWS.bit_length()
                and comb(d, d // 2) * width * p ** (b * (d - 1)) <= MAX_GRAM_ROWS):
            return
    raise ConfigError(
        f"{what} builds a Gram matrix of comb(d, d // 2) (n - m) p^(b (d - 1)) rows, "
        f"more than {MAX_GRAM_ROWS}, with d = {d}, p = {p}, n - m = {width}"
    )


def _duality_b(task: dict, p: int) -> int:
    """A duality task's ``b``, by default the least with ``p^b >= n - m``."""
    b = _get(task, "b")
    return minimal_b(p, task["n"] - task["m"]) if b is None else b


def load_config(doc: dict, precision: int | None = None) -> RunConfig:
    """Validate a parsed JSON document; every error is a :class:`ConfigError`.

    ``precision`` (the command-line override) replaces every tower's
    declared precision when given.
    """
    _require(isinstance(doc, dict), "the run configuration must be a JSON object")
    allowed = {"version", "tower", "towers", "characters", "extensions", "tasks"}
    extra = set(doc) - allowed
    _require(not extra, f"unknown configuration fields {sorted(extra)}")
    version = doc.get("version", REPORT_VERSION)
    _require(version == REPORT_VERSION, f"unsupported configuration version {version!r}")
    _require("tower" in doc, "the configuration needs a main 'tower'")

    towers = {"main": _build_tower("main", doc["tower"], precision)}
    named = doc.get("towers", {})
    _require(isinstance(named, dict), "'towers' must map names to descriptors")
    for name, desc in named.items():
        _require(name != "main", "the name 'main' is reserved for the top-level tower")
        towers[name] = _build_tower(name, desc, precision)

    characters: dict = {}
    chars_doc = doc.get("characters", {})
    _require(isinstance(chars_doc, dict), "'characters' must map labels to component lists")
    for label, desc in chars_doc.items():
        if isinstance(desc, dict):
            _refuse_unknown_fields(f"character {label!r}", desc, ("tower", "components"))
            tower_name = desc.get("tower", "main")
            comps = desc.get("components")
        else:
            tower_name, comps = "main", desc
        _require_reference(f"character {label!r}", "tower", tower_name, towers)
        tower = towers[tower_name]
        _require(
            isinstance(comps, list) and all(isinstance(c, str) for c in comps),
            f"character {label!r} components must be a list of literals",
        )
        _require(
            len(comps) == tower.s,
            f"character {label!r} needs {tower.s} components "
            f"(tower lift length), got {len(comps)}",
        )
        try:
            series = [parse_series(text, tower) for text in comps]
        except (RswanError, ValueError) as exc:
            raise ConfigError(f"character {label!r} does not parse: {exc}") from None
        characters[label] = Character(WittVector.from_print_order(tower, series))

    extensions: dict = {}
    ext_doc = doc.get("extensions", {})
    _require(isinstance(ext_doc, dict), "'extensions' must map names to descriptors")
    for name, desc in ext_doc.items():
        _require(isinstance(desc, dict), f"extension {name!r} must be an object")
        _refuse_unknown_fields(f"extension {name!r}", desc, ("source", "target", "images"))
        source_name = desc.get("source", "main")
        target_name = desc.get("target")
        _require_reference(f"extension {name!r}", "tower", source_name, towers)
        _require_reference(f"extension {name!r}", "tower", target_name, towers)
        images_doc = desc.get("images")
        _require(
            isinstance(images_doc, dict) and all(isinstance(v, str) for v in images_doc.values()),
            f"extension {name!r} needs an 'images' object of series literals",
        )
        target = towers[target_name]
        try:
            images = {
                var: parse_series(text, target) for var, text in images_doc.items()
            }
            extensions[name] = ExtensionMap(towers[source_name], target, images)
        except (RswanError, ValueError) as exc:
            raise ConfigError(f"extension {name!r} is invalid: {exc}") from None

    tasks = doc.get("tasks", [])
    _require(isinstance(tasks, list), "'tasks' must be a list")
    defined = {"tower": towers, "character": characters, "extension": extensions}
    curves: dict = {}
    for idx, task in enumerate(tasks):
        _require(isinstance(task, dict), f"task #{idx} must be an object")
        kind = task.get("task")
        _require(
            kind in TASK_NAMES,  # a tuple: `in` a dict would hash a list-valued kind
            f"task #{idx} has unknown kind {kind!r}; expected one of {list(TASK_NAMES)}",
        )
        what = f"task #{idx} ({kind})"
        fields = _KINDS[kind][0]
        _refuse_unknown_fields(what, task, ("task", *fields))
        for field, (default, *rules) in fields.items():
            if field in task or default is ...:
                value = task.get(field)
                if rules[0] in defined:
                    _require_reference(what, rules[0], value, defined[rules[0]])
                for check, refusal in zip(rules[::2], rules[1::2]):
                    _require(check(value), f"{what} {refusal}")
        if kind == "reciprocity":
            d = characters[task["character"]].tower.d
            _require(
                d in (1, 2),
                f"{what} checks the identity over one or two variables; "
                f"character {task['character']!r} is over {d} variables",
            )
            samples = _get(task, "samples")
            _require(samples <= MAX_SAMPLES, f"{what} 'samples' {samples} is above the cap {MAX_SAMPLES}")
        if kind == "conductor-change":
            _require(
                "expect" in task or "expect_sw" not in task,
                f"{what} has 'expect_sw' but no 'expect' to check it with",
            )
            source = extensions[task["extension"]].source
            _require(
                source.d == 1,
                f"{what} needs a one-variable source field; "
                f"extension {task['extension']!r} has {source.d} source variables",
            )
            _require(
                _is_over_source(extensions[task["extension"]], characters[task["character"]].tower),
                f"{what} needs character {task['character']!r} over the source tower "
                f"of extension {task['extension']!r}",
            )
        if kind == "duality":
            _require(task["n"] > task["m"], f"{what} needs n > m")
            _check_gram_size(what, towers[_get(task, "tower")], task)
        if kind == "thmB":
            p = towers["main"].p
            _require(all(t % p for t in _get(task, "t_values")), f"{what} needs 't_values' prime to p = {p}")
        if kind == "thmC":
            domain = rat_func_domain(towers["main"].p)
            try:
                curves[tuple(task["f"].items())] = NestedSeries.from_monomials(
                    1, domain, [((int(e),), parse_rat_func(text, domain)) for e, text in task["f"].items()]
                )
            except (ParseError, ValueError) as exc:
                raise ConfigError(f"{what} 'f' does not parse: {exc}") from None
            field = FieldTower(towers["main"].p, 1, 1, ("u",)).field_domain
            base = _curve_x(_get(task, "x0"), field)
            orders = [(k, _eval_poly_at(base, num, field).ord())  # a_k t^k lands on u^(e k + order)
                      for (k,), (num, _) in curves[tuple(task["f"].items())].iter_monomials()]
            for e in _get(task, "exponents"):
                k, order = min(orders, key=lambda pair: e * pair[0] + pair[1], default=(0, 0))
                _require(e * k + order >= _ORD_FLOOR,
                         f"{what} needs 'exponents' e with e * k + ord_x0(a_k) at least {_ORD_FLOOR} "
                         f"for each term a_k t^k of 'f': the curve of e = {e} pulls the term of "
                         f"t^{k} back to u^{e * k + order}")
    return RunConfig(
        main_tower=towers["main"],
        towers=towers,
        characters=characters,
        extensions=extensions,
        tasks=tasks,
        curves=curves,
        version=version,
    )


# ------------------------------------------------------------------ execution

def _task_seed(seed: int, index: int) -> int:
    return seed * 100003 + index


def _record(task: dict, status: str, values: dict, precision: int | None, **extra):
    inputs = {k: v for k, v in task.items() if k != "task"}
    rec = {"task": task["task"], "inputs": inputs, "status": status, "values": values}
    if precision is not None:
        rec["precision"] = precision
    rec.update(extra)
    return rec


def _run_swan(config: RunConfig, task: dict, task_seed: int) -> list:
    char = asw_reduce(config.characters[task["character"]])
    tower = char.tower
    sw = swan_conductor(char)
    values = {
        "Sw": sw,
        "reduced": [render_series(c, tower) for c in char.vector.print_order],
    }
    status = "PASS" if task.get("expect", sw) == sw else "FAIL"
    return [_record(task, status, values, tower.precision)]


def _run_rsw(config: RunConfig, task: dict, task_seed: int) -> list:
    char = asw_reduce(config.characters[task["character"]])
    tower = char.tower
    value = rsw_char_p(char)
    closed = rsw_is_closed(value)
    recovered = sw_from_rsw(value)  # the form's top order; value.n is Sw, from rsw_char_p
    rendered = render_form(value)
    round_trip = parse_windowed_form(rendered, tower) == value.window
    ok = closed and recovered == value.n and round_trip
    if "expect" in task:
        ok = ok and rendered == task["expect"]
    values = {
        "n": value.n,
        "m": value.m,
        "form": rendered,
        "closed": closed,
        "sw_from_rsw": recovered,
        "round_trip": round_trip,
    }
    return [_record(task, "PASS" if ok else "FAIL", values, tower.precision)]


def _run_duality(config: RunConfig, task: dict, task_seed: int) -> list:
    tower = config.towers[_get(task, "tower")]
    n, m = task["n"], task["m"]
    b = _duality_b(task, tower.p)
    degrees = {}
    for i in range(tower.d + 1):
        j = tower.d - i
        rows = duality_matrix(n, m, b, tower, i, j)
        degrees[f"({i},{j})"] = gram_is_invertible(
            rows, domain=tower.field_domain, precision=tower.precision
        )
    values = {
        "n": n,
        "m": m,
        "b": b,
        "size": len(rows),
        "degrees": degrees,
    }
    status = "PASS" if all(degrees.values()) else "FAIL"
    return [_record(task, status, values, tower.precision)]


def _run_reciprocity(config: RunConfig, task: dict, task_seed: int) -> list:
    char = config.characters[task["character"]]
    tower = char.tower
    report = verify_rsw_characterization(char, _get(task, "samples"), seed=task_seed)
    values = {
        "n": report.n,
        "m": report.m,
        "b": report.b,
        "samples": report.samples,
        "agreements": report.agreements,
        "schmid_checked": report.schmid_checked,
        "embedding": report.embedding,
        "seed": task_seed,
    }
    status = "PASS" if report.all_equal else "FAIL"
    return [_record(task, status, values, tower.precision)]


def _run_conductor_change(config: RunConfig, task: dict, task_seed: int) -> list:
    char = config.characters[task["character"]]
    ext = config.extensions[task["extension"]]
    report = conductor_change(ext, char)
    values = {
        "e": report.e,
        "delta": report.delta,
        "sw_source": report.sw_source,
        "sw_target": report.sw_target,
        "predicted": report.predicted,
        "hypothesis": f"{report.hypothesis_lhs} > {report.hypothesis_rhs}",
        "hypothesis_holds": report.hypothesis_holds,
        "result": report.status,
    }
    if "expect" in task:
        ok = report.status == task["expect"]
        if "expect_sw" in task:
            ok = ok and report.sw_target == task["expect_sw"]
        status = "PASS" if ok else "FAIL"
    else:
        status = report.status
    return [_record(task, status, values, ext.source.precision)]


def _run_thmB(config: RunConfig, task: dict, task_seed: int) -> list:
    p = config.main_tower.p
    chi, family = imperfect_residue_family(p, tuple(_get(task, "t_values")))
    out = perfect_residue_ratios(chi, family)
    n = out["sw_source"]
    rows = [
        {"e": r["e"], "sw_target": r["sw_target"], "ratio": str(r["ratio"])}
        for r in out["rows"]
    ]
    ok = out["all_bounded"]
    if out["formula_applies"]:
        ok = ok and all(
            r["ratio"] == Fraction(n) - Fraction(1, r["e"]) for r in out["rows"]
        )
    if "expect_ratios" in task:
        ok = ok and [r["ratio"] for r in rows] == list(task["expect_ratios"])
    values = {
        "sw_source": n,
        "formula_applies": out["formula_applies"],
        "c_is_unit": out["c_is_unit"],
        "residual_units": {str(k): v for k, v in out["residual_units"].items()},
        "rows": rows,
        "max_ratio": str(out["max_ratio"]),
        "all_bounded": out["all_bounded"],
    }
    return [_record(task, "PASS" if ok else "FAIL", values, None)]


def _run_thmC(config: RunConfig, task: dict, task_seed: int) -> list:
    f = config.curves[tuple(task["f"].items())]
    exponents = tuple(_get(task, "exponents"))
    out = curve_restriction_ratios(config.main_tower.p, f, _get(task, "x0"), exponents,
                                   precision=config.main_tower.precision)
    rows = [
        {"e": r["e"], "sw": r["sw"], "ratio": str(r["ratio"])} for r in out["rows"]
    ]
    ok = out["all_bounded"]
    if "expect_ratios" in task:
        ok = ok and [r["ratio"] for r in rows] == list(task["expect_ratios"])
    values = {
        "sw_generic": out["sw_generic"],
        "rows": rows,
        "all_bounded": out["all_bounded"],
    }
    return [_record(task, "PASS" if ok else "FAIL", values, None)]


def _run_exp_congruences(config: RunConfig, task: dict, task_seed: int) -> list:
    p = _get(task, "p") or config.main_tower.p
    report = check_exp_congruences(p)
    records = []
    for name, holds in report.results.items():
        values = {"p": p, "congruence": name, "holds": holds}
        records.append(_record(task, "PASS" if holds else "FAIL", values, None))
    records[-1]["notes"] = list(report.notes)
    return records


_CHARACTER = (..., "character")
_BOUND = (..., _is_int, "needs integer window bounds 'n' and 'm'")
_EXPECT_RATIOS = (
    None, _ratio_texts, "needs 'expect_ratios' to be a list of ratio strings "
    "written as the report writes them, such as \"5/2\"",
)
# Each task kind: the fields it reads beside 'task', and its runner.  A field
# maps to its default (``...`` when the task must give it; None when the
# runner does without it or works it out), then either to the kind of name
# it references or to pairs of a check and the refusal that follows "task #i
# (kind) " when the check fails.  ``load_config`` checks every required field
# and every optional one a task gives, then the rules that span fields; the
# runners read every default through ``_get``.
_KINDS = {
    "swan": ({
        "character": _CHARACTER,
        "expect": (None, _is_int, "needs 'expect' to be an integer"),
    }, _run_swan),
    "rsw": ({
        "character": _CHARACTER,
        "expect": (None, lambda v: isinstance(v, str), "needs 'expect' to be a form literal"),
    }, _run_rsw),
    "duality": ({
        "tower": ("main", "tower"),
        "n": _BOUND,
        "m": _BOUND,
        "b": (None, lambda v: _is_int(v) and v >= 0, "needs a non-negative integer 'b'"),
    }, _run_duality),
    "reciprocity": ({
        "character": _CHARACTER,
        "samples": (100, lambda v: _is_int(v) and v > 0, "needs a positive integer 'samples'"),
    }, _run_reciprocity),
    "conductor-change": ({
        "character": _CHARACTER,
        "expect": (None, lambda v: v in ("PASS", "FAIL", "NOT_APPLICABLE"),
                   "needs 'expect' to be one of 'PASS', 'FAIL', 'NOT_APPLICABLE'"),
        "expect_sw": (None, _is_int, "needs 'expect_sw' to be an integer"),
        "extension": (..., "extension"),
    }, _run_conductor_change),
    "thmB": ({
        "t_values": (
            (3, 5, 7), _positive_ints, "needs 't_values' to be a nonempty list of positive integers",
            lambda v: max(v) <= _THMB_MAX_T,
            f"needs 't_values' of at most {_THMB_MAX_T}: the family pulls u t^-2 back "
            f"to w^(-2t), and exponents stop at {_ORD_FLOOR}",
        ),
        "expect_ratios": _EXPECT_RATIOS,
    }, _run_thmB),
    "thmC": ({
        "exponents": ((2, 4, 8), _positive_ints, "needs 'exponents' to be a nonempty list of positive integers"),
        "expect_ratios": _EXPECT_RATIOS,
        "f": (..., _exponent_literals, "needs a nonempty 'f' object of exponent -> literal, "
              "each exponent an integer in canonical ASCII form such as '-3'"),
        "x0": (0, _is_int, "needs an integer 'x0'"),
    }, _run_thmC),
    "exp-congruences": ({
        "p": (None, lambda v: _is_int(v) and v in (2, 3, 5), "needs 'p' to be one of 2, 3, 5"),
    }, _run_exp_congruences),
}
TASK_NAMES = tuple(_KINDS)


def _get(task: dict, field: str):
    """A task's ``field``, or the default that ``_KINDS`` declares for it."""
    return task.get(field, _KINDS[task["task"]][0][field][0])


def run(config: RunConfig, seed: int = 0) -> dict:
    """Execute every task; FAIL and ERROR records never abort the run.

    The returned report carries the deterministic body fields (``version``,
    ``conventions``, ``tasks``) plus a ``meta`` block with wall times, which
    is excluded from the determinism contract.
    """
    records = []
    timings = []
    for idx, task in enumerate(config.tasks):
        started = time.perf_counter()
        try:
            records.extend(_KINDS[task["task"]][1](config, task, _task_seed(seed, idx)))
        except Exception as exc:  # noqa: BLE001 - becomes a structured record
            error = {"type": type(exc).__name__, "message": str(exc)}
            if getattr(exc, "exponent", None) is not None:
                error["exponent"] = exc.exponent
            records.append(_record(task, "ERROR", {}, None, error=error))
        timings.append(round(time.perf_counter() - started, 6))
    return {
        "version": REPORT_VERSION,
        "conventions": dict(CONVENTIONS),
        "tasks": records,
        "meta": {
            "seed": seed,
            "wall_time_s": {"total": round(sum(timings), 6), "per_task": timings},
        },
    }


def report_body_bytes(report: dict) -> bytes:
    """The deterministic portion of a report, canonically serialized."""
    body = {k: report[k] for k in ("version", "conventions", "tasks")}
    return json.dumps(body, sort_keys=True, indent=2).encode("utf-8")


# ------------------------------------------------------------------ console

def _describe_record(rec: dict) -> str:
    bits = [rec["task"]]
    inputs = rec.get("inputs", {})
    for field in ("character", "extension", "tower", "congruence"):
        if field in inputs:
            bits.append(f"{field}={inputs[field]}")
    if "congruence" in rec.get("values", {}):
        bits.append(f"congruence={rec['values']['congruence']}")
    if rec["task"] == "duality" and "n" in inputs:
        bits.append(f"window=({inputs['n']},{inputs['m']})")
    if rec["status"] == "ERROR":
        err = rec.get("error", {})
        bits.append(f"{err.get('type')}: {err.get('message')}")
    return " ".join(bits)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rswan",
        description=(
            "Exact ramification invariants of Artin-Schreier-Witt characters "
            "over iterated Laurent series fields"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute a JSON run configuration")
    run_parser.add_argument("config", help="path to the configuration JSON file")
    check_parser = sub.add_parser(
        "check-all", help="run the canned verification catalog for one prime"
    )
    check_parser.add_argument(
        "--p", type=int, required=True, choices=CATALOG_PRIMES, help="the prime"
    )
    for sp in (run_parser, check_parser):
        sp.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
        sp.add_argument(
            "--precision",
            type=int,
            default=None,
            help="override every tower's precision budget",
        )
        sp.add_argument("--out", default=None, help="write the full report JSON here")
    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read configuration: {exc}", file=sys.stderr)
            return 2
    else:
        doc = canned_config(args.p)

    try:
        config = load_config(doc, precision=args.precision)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    report = run(config, seed=args.seed)
    counts = {"PASS": 0, "FAIL": 0, "NOT_APPLICABLE": 0, "ERROR": 0}
    for rec in report["tasks"]:
        counts[rec["status"]] = counts.get(rec["status"], 0) + 1
        print(f"[{rec['status']}] {_describe_record(rec)}")
    total = len(report["tasks"])
    print(
        f"summary: {total} records, {counts['PASS']} PASS, {counts['FAIL']} FAIL, "
        f"{counts['NOT_APPLICABLE']} NOT_APPLICABLE, {counts['ERROR']} ERROR "
        f"({report['meta']['wall_time_s']['total']:.3f}s)"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"report written to {args.out}")
    failing = sum(counts.get(s, 0) for s in _FAILING_STATUSES)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
