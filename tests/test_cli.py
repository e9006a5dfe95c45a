"""Run configurations, reports, form literals, and the console entry point.

Oracles: canonical form-literal strings are pinned by hand; configuration
validation errors must name the offending identifier; run reports are
checked for structure, determinism (byte-identical bodies at equal seeds),
and the exit-code contract (nonzero on any FAIL or ERROR record).
"""

import copy
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rswan import cli
from rswan.catalog import canned_config
from rswan.cli import (
    CONVENTIONS,
    MAX_GRAM_ROWS,
    MAX_SAMPLES,
    REPORT_VERSION,
    TASK_NAMES,
    _KINDS,
    load_config,
    main,
    report_body_bytes,
    run,
)
from rswan.errors import ConfigError, ParseError, TowerMismatch
from rswan.logdiff import LogForm, WindowedForm, d, wedge
from rswan.parser import parse_rat_func, parse_series, parse_windowed_form, render_form
from rswan.ratfunc import RatFuncDomain, rat_func_domain
from rswan.rsw import rsw_char_p, rsw_form_at
from rswan.scalars import DEFINING_POLYNOMIALS
from rswan.series import NestedSeries
from rswan.tower import FieldTower
from rswan.witt import WittVector, asw_reduce, swan_conductor

K2 = FieldTower(2, 1, 1, ("t",))
K3 = FieldTower(3, 1, 1, ("t",))
K4 = FieldTower(2, 2, 1, ("t",))
KD = FieldTower(2, 1, 1, ("u", "t"))

SRC = Path(__file__).resolve().parents[1] / "src"

MAIN2 = {"p": 2, "k": 1, "s": 1, "variables": ["t"]}
MAIN3 = {"p": 3, "k": 1, "s": 1, "variables": ["t"]}


def config_doc(**overrides):
    doc = {"version": 1, "tower": MAIN2, "characters": {}, "tasks": []}
    doc.update(overrides)
    return doc


# ------------------------------------------------------------- form literals

def test_render_form_pinned_literals():
    chi = asw_reduce(WittVector.from_print_order(K3, (parse_series("t^-2", K3),)))
    assert render_form(rsw_char_p(chi)) == "2*t^-2 dlog(t) | window(2,0)"
    chi2 = asw_reduce(WittVector.from_print_order(KD, (parse_series("u*t^-2", KD),)))
    assert render_form(rsw_char_p(chi2)) == "u*t^-2 dlog(u) | window(2,1)"
    zero = WindowedForm(LogForm.zero(1, K2.field_domain, 1), 4, 2)
    assert render_form(zero, K2) == "0 | window(4,2)"


def test_render_form_without_a_tower_is_a_tower_mismatch():
    """A bare windowed form carries no variable names."""
    zero = WindowedForm(LogForm.zero(1, K2.field_domain, 1), 4, 2)
    with pytest.raises(TowerMismatch, match="needs the tower"):
        render_form(zero)


def test_form_literal_round_trips():
    for text, tower in [
        ("2*t^-2 dlog(t) | window(2,0)", K3),
        ("u*t^-2 dlog(u) | window(2,1)", KD),
        ("0 | window(4,2)", K2),
        ("(t^-3 + t^-2) dlog(t) | window(3,1)", K2),
        ("t^-3 dlog(t) | window(3,1)", K2),
        ("(u^-1*t^-2 + u*t^-2) dlog(u) | window(2,1)", KD),
        ("u^-1*t^-2 dlog(u)^dlog(t) | window(2,1)", KD),
        ("0 dlog(u)^dlog(t) | window(2,1)", KD),
        ("((1 + g)*t^-3 + g*t^-2) dlog(t) | window(3,1)", K4),
    ]:
        parsed = parse_windowed_form(text, tower)
        assert render_form(parsed, tower) == text


def test_zero_forms_of_every_degree_round_trip():
    pinned = {0: "0 dlog() | window(2,0)", 1: "0 | window(2,0)",
              2: "0 dlog(u)^dlog(t) | window(2,0)"}
    for tower in (K2, KD):
        for degree in range(tower.d + 1):
            zero = WindowedForm(LogForm.zero(tower.d, tower.field_domain, degree), 2, 0)
            text = render_form(zero, tower)
            assert text == pinned[degree]
            assert parse_windowed_form(text, tower) == zero
    # a chainless zero body keeps its old meaning, the zero form of degree 1
    assert parse_windowed_form("0 | window(2,0)", K2).form.degree == 1
    assert parse_windowed_form("t^-1 dlog() | window(2,0)", K2) == parse_windowed_form(
        "t^-1 | window(2,0)", K2
    )


def test_form_literal_errors():
    with pytest.raises(ParseError):
        parse_windowed_form("t^-2 dlog(t)", K2)  # no window tail
    with pytest.raises(ParseError):
        parse_windowed_form("t^-2 + t^-1 dlog(t) | window(2,0)", K2)  # mixed degrees
    with pytest.raises(ParseError):
        parse_windowed_form("t^-2 dlog(t) dlog(t) | window(2,0)", K2)  # repeated factor
    with pytest.raises(TowerMismatch):
        parse_windowed_form("t^-2 dlog(q) | window(2,0)", K2)  # unknown variable
    with pytest.raises(ParseError):
        parse_windowed_form("0 dlog(t)^dlog() | window(2,0)", K2)  # empty chain in a chain
    with pytest.raises(ParseError):
        parse_windowed_form("0 dlog()^dlog(t) | window(2,0)", K2)
    with pytest.raises(ParseError, match="mixed-degree"):
        parse_windowed_form("0 dlog() + t^-1 dlog(t) | window(2,0)", K2)


def test_form_literal_signs_follow_the_series_grammar():
    with pytest.raises(ParseError, match="mixed-degree"):
        parse_windowed_form("t^-3 - t^-2 dlog(t) | window(3,1)", K2)
    canonical = parse_windowed_form("(t^-3 + t^-2) dlog(t) | window(3,1)", K3)
    assert parse_windowed_form("t^-3 dlog(t) - 2*t^-2 dlog(t) | window(3,1)", K3) == canonical


def test_form_literals_are_whitespace_insensitive():
    canonical = parse_windowed_form("(t^-3 + t^-2) dlog(t) | window(3,1)", K2)
    for text in (
        "t^-3 dlog(t)+t^-2 dlog(t) | window(3,1)",
        "(t^-3 + t^-2) dlog(t) | window(3, 1)",
        "(t^-3 + t^-2)dlog(t) | window(3,1)",
    ):
        assert parse_windowed_form(text, K2) == canonical


def test_random_refined_invariants_round_trip():
    rng = random.Random(20261018)
    towers = [FieldTower(p, k, s, vs) for p in (2, 3) for k in (1, 2) for s in (1, 2)
              for vs in (("t",), ("u", "t"))]
    checked = 0
    for _ in range(4):
        for tower in towers:
            dom = tower.field_domain
            comps = [
                NestedSeries.from_monomials(tower.d, dom, [
                    (tuple(rng.randint(-2, 2) for _ in range(tower.d - 1)) + (rng.randint(-4, 2),),
                     dom.random_nonzero(rng))
                    for _ in range(rng.randint(1, 3))
                ])
                for _ in range(tower.s)
            ]
            chi = asw_reduce(WittVector(tower, tuple(comps)))
            n = swan_conductor(chi)
            if not n:
                continue
            value = rsw_form_at(chi.vector, n)
            forms = [value]
            if tower.d == 2:  # degree 2: d of the invariant (zero: it is closed) and wedges
                forms.append(WindowedForm(d(value.form), n, value.m))
                one = NestedSeries.one(2, dom)
                forms += [WindowedForm(wedge(value.form, LogForm(2, dom, 1, {(lam,): one})), n, value.m)
                          for lam in (1, 2)]
            for form in forms:
                text = render_form(form, tower)
                parsed = parse_windowed_form(text, tower)
                assert parsed == form
                assert render_form(parsed, tower) == text
                checked += 1
    assert checked >= 40


def test_bare_dlog_coefficient_is_one():
    parsed = parse_windowed_form("dlog(t) | window(0,-1)", K2)
    assert parsed.form.coefficient((1,)) == parse_series("t^0", K2)


# --------------------------------------------------- rational-function literals

def test_parse_rat_func_pins():
    dom = rat_func_domain(3)
    assert parse_rat_func("x", dom) == dom.variable()
    assert parse_rat_func("(1 + x)/x", dom) == dom.from_polys([1, 1], [0, 1])
    assert parse_rat_func("1 - x", dom) == dom.from_polys([1, 2])
    assert parse_rat_func("2*x + x^2", dom) == dom.from_polys([0, 2, 1])
    assert parse_rat_func("4", dom) == dom.one()


def test_parse_rat_func_errors():
    dom = rat_func_domain(2)
    with pytest.raises(ParseError):
        parse_rat_func("x/x/x", dom)
    with pytest.raises(ParseError):
        parse_rat_func("y + 1", dom)
    with pytest.raises(ParseError):
        parse_rat_func("", dom)


def test_rat_func_literals_follow_the_series_grammar():
    dom = rat_func_domain(3)
    for text in ("1-+x", "x - - 1", "2 x", "x^-1", "(1 + x)^-1"):
        with pytest.raises(ParseError):
            parse_rat_func(text, dom)
    with pytest.raises(ParseError, match="zero denominator"):
        parse_rat_func("x/(3 + 3*x)", dom)
    assert parse_rat_func(" ( 1+x ) / x^2 ", dom) == dom.from_polys([1, 1], [0, 0, 1])


# ---------------------------------------------------------------- validation

def test_load_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown configuration fields"):
        load_config(config_doc(extra=1))


def test_load_config_requires_main_tower():
    with pytest.raises(ConfigError, match="main 'tower'"):
        load_config({"version": 1, "tasks": []})


def test_load_config_rejects_bad_version():
    with pytest.raises(ConfigError, match="version"):
        load_config(config_doc(version=99))


def test_load_config_reserves_main():
    with pytest.raises(ConfigError, match="reserved"):
        load_config(config_doc(towers={"main": MAIN3}))


def test_character_validation_names_the_label():
    with pytest.raises(ConfigError, match="'X'"):
        load_config(config_doc(characters={"X": ["t^-1", "t^-2"]}))
    with pytest.raises(ConfigError, match="'X' does not parse"):
        load_config(config_doc(characters={"X": ["t^-$"]}))
    with pytest.raises(ConfigError, match="undefined tower 'S'"):
        load_config(config_doc(characters={"X": {"tower": "S", "components": ["t^-1"]}}))


def test_task_validation_names_the_identifier():
    with pytest.raises(ConfigError, match=r"task #0 \(swan\) references undefined character 'Y'"):
        load_config(config_doc(tasks=[{"task": "swan", "character": "Y"}]))
    with pytest.raises(ConfigError, match="unknown kind 'volume'"):
        load_config(config_doc(tasks=[{"task": "volume"}]))
    with pytest.raises(ConfigError, match="undefined extension 'E'"):
        load_config(
            config_doc(
                characters={"X": ["t^-3"]},
                tasks=[{"task": "conductor-change", "character": "X", "extension": "E"}],
            )
        )
    with pytest.raises(ConfigError, match="integer window bounds"):
        load_config(config_doc(tasks=[{"task": "duality", "n": 2}]))
    with pytest.raises(ConfigError, match="n > m"):
        load_config(config_doc(tasks=[{"task": "duality", "n": 2, "m": 2}]))
    with pytest.raises(ConfigError, match="nonempty 'f'"):
        load_config(config_doc(tasks=[{"task": "thmC"}]))


def test_extension_validation_is_a_config_error():
    doc = config_doc(
        towers={"L": {"p": 2, "k": 1, "s": 1, "variables": ["u"]}},
        extensions={"phi": {"target": "L", "images": {"t": "1 + u"}}},
    )
    with pytest.raises(ConfigError, match="extension 'phi' is invalid"):
        load_config(doc)


def test_conductor_change_needs_a_one_variable_source(tmp_path, capsys):
    """The torsion depth is defined over a one-variable source field, so a
    conductor-change task along a two-variable source is refused at load
    time, naming the task and the extension."""
    doc = config_doc(
        tower={"p": 2, "k": 1, "s": 1, "variables": ["u", "t"]},
        towers={"L": {"p": 2, "k": 1, "s": 1, "variables": ["v", "w"]}},
        characters={"X": ["u*t^-3"]},
        extensions={"phi": {"target": "L", "images": {"u": "v^2 + w", "t": "w^3"}}},
        tasks=[{"task": "conductor-change", "character": "X", "extension": "phi"}],
    )
    message = (r"task #0 \(conductor-change\) needs a one-variable source field; "
               r"extension 'phi' has 2 source variables")
    with pytest.raises(ConfigError, match=message):
        load_config(doc)
    assert main(["run", write_config(tmp_path, doc)]) == 2
    assert "extension 'phi' has 2 source variables" in capsys.readouterr().err
    load_config({**doc, "tasks": []})  # the extension itself stays valid


@pytest.mark.parametrize("tower, components", [
    ({"p": 3, "k": 1, "s": 1, "variables": ["t"]}, ["2*t^-5"]),
    ({"p": 2, "k": 1, "s": 2, "variables": ["t"]}, ["t^-5", "t^-3"]),
])
def test_conductor_change_needs_a_character_over_the_source(tmp_path, capsys, tower, components):
    """A conductor change of a character over another tower than the
    extension's source is refused at load time, naming the task, the
    character and the extension (an F_3 character along an F_2 map was
    a FAIL record read off F_3 coefficients taken as F_2 ones)."""
    doc = config_doc(
        towers={"L": {"p": 2, "k": 1, "s": 1, "variables": ["u"]}, "Q": tower},
        characters={"X": {"tower": "Q", "components": components}},
        extensions={"phi": {"target": "L", "images": {"t": "u^2 + u^3"}}},
        tasks=[{"task": "conductor-change", "character": "X", "extension": "phi"}],
    )
    with pytest.raises(ConfigError, match=r"^task #0 \(conductor-change\) needs character"):
        load_config(doc)
    assert_config_error(tmp_path, capsys, doc,
                        "needs character 'X' over the source tower of extension 'phi'")
    load_config({**doc, "tasks": []})  # the character and the extension stay valid


def test_reciprocity_needs_one_or_two_variables(tmp_path, capsys):
    """The characterization check covers one- and two-variable towers, so a
    reciprocity task over three variables is refused at load time, naming
    the task, the character and the tower's number of variables."""
    doc = config_doc(
        tower={"p": 2, "k": 1, "s": 1, "variables": ["v", "u", "t"]},
        characters={"X": ["v*t^-3"]},
        tasks=[{"task": "swan", "character": "X"},
               {"task": "reciprocity", "character": "X", "samples": 5}],
    )
    message = (r"task #1 \(reciprocity\) checks the identity over one or two variables; "
               r"character 'X' is over 3 variables")
    with pytest.raises(ConfigError, match=message):
        load_config(doc)
    assert main(["run", write_config(tmp_path, doc)]) == 2
    assert "character 'X' is over 3 variables" in capsys.readouterr().err
    load_config({**doc, "tasks": doc["tasks"][:1]})  # the character itself stays valid


def test_load_config_rejects_lift_length_above_four(tmp_path, capsys):
    doc = config_doc(tower={"p": 2, "s": 5, "variables": ["t"]})
    with pytest.raises(ConfigError, match="lift length s = 5"):
        load_config(doc)
    assert main(["run", write_config(tmp_path, doc)]) == 2
    assert "lift length s = 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value", [("p", 2.0), ("k", 1.0), ("s", 2.0), ("s", True), ("precision", 64.0)]
)
def test_tower_integer_fields_must_be_ints(tmp_path, capsys, field, value):
    """A float or bool would load: ``"s": 2.0`` once gave a float lift
    modulus and a run-time TypeError, ``"s": true`` loaded as s = 1."""
    doc = config_doc(tower={**MAIN2, field: value})
    message = f"field '{field}' must be an integer"
    with pytest.raises(ConfigError, match=message):
        load_config(doc)
    assert main(["run", write_config(tmp_path, doc)]) == 2
    assert message in capsys.readouterr().err


def test_load_config_rejects_variables_that_are_not_a_list_of_names():
    for variables in ("ut", [1]):
        with pytest.raises(ConfigError, match="'variables' must be a list of names"):
            load_config(config_doc(tower={"p": 2, "variables": variables}))


def test_reciprocity_samples_must_be_a_positive_int(tmp_path, capsys):
    for samples in (0, -3, True, 2.5, "3"):
        doc = config_doc(
            characters={"X": ["t^-3"]},
            tasks=[{"task": "reciprocity", "character": "X", "samples": samples}],
        )
        with pytest.raises(ConfigError, match=r"task #0 \(reciprocity\) needs a positive"):
            load_config(doc)
    assert main(["run", write_config(tmp_path, doc)]) == 2
    assert "positive integer 'samples'" in capsys.readouterr().err
    doc["tasks"][0]["samples"] = 1
    assert load_config(doc).tasks[0]["samples"] == 1


def test_reciprocity_samples_are_capped(tmp_path, capsys):
    """10,000 samples load, 10,001 are a ConfigError with exit 2; neither
    config is run."""
    doc = config_doc(
        characters={"X": ["t^-3"]},
        tasks=[{"task": "reciprocity", "character": "X", "samples": MAX_SAMPLES}],
    )
    assert load_config(doc).tasks[0]["samples"] == MAX_SAMPLES == 10_000
    doc["tasks"][0]["samples"] = MAX_SAMPLES + 1
    assert_config_error(tmp_path, capsys, doc, "'samples' 10001 is above the cap 10000")


def test_duality_tasks_are_sized_at_load_time(tmp_path, capsys):
    """A ``b`` too small for the window, and a largest Gram matrix above
    ``MAX_GRAM_ROWS`` rows, are ConfigErrors that name the task; tasks at
    the cap load.  None of these configs is run."""
    towers = {"D": {"p": 2, "k": 1, "s": 1, "variables": ["u", "t"]}}
    wide = "has p^b = 2^1 below the window width n - m = 4"
    rows = "builds a Gram matrix of comb(d, d // 2) (n - m) p^(b (d - 1)) rows, more than 10000"
    bad_tasks = [
        ({"task": "duality", "tower": "D", "n": 5, "m": 1, "b": 1}, wide),
        ({"task": "duality", "n": 5, "m": 1, "b": 1}, wide),
        ({"task": "duality", "tower": "D", "n": 2, "m": 1, "b": 100}, rows),
        ({"task": "duality", "tower": "D", "n": 2, "m": 1, "b": 30}, rows),
        ({"task": "duality", "tower": "D", "n": 2, "m": 1, "b": 10**18}, rows),
        ({"task": "duality", "tower": "D", "n": 2, "m": 1, "b": 13}, rows),  # 16,384 rows
        ({"task": "duality", "tower": "D", "n": 65, "m": 0}, rows),  # b = 7: 16,640 rows
        ({"task": "duality", "n": MAX_GRAM_ROWS + 1, "m": 0}, rows),
        ({"task": "duality", "n": 10**40, "m": 0, "b": 10**9}, rows),
    ]
    for task, message in bad_tasks:
        doc = config_doc(towers=towers, tasks=[{"task": "swan", "character": "X"}, task],
                         characters={"X": ["t^-3"]})
        with pytest.raises(ConfigError, match=re.escape(f"task #1 (duality) {message}")):
            load_config(doc)
    doc = config_doc(tasks=[{"task": "duality", "n": 5, "m": 1, "b": 1}])
    assert_config_error(tmp_path, capsys, doc, "below the window width n - m = 4")
    at_cap = [
        {"task": "duality", "tower": "D", "n": 2, "m": 1, "b": 12},  # 8,192 rows
        {"task": "duality", "tower": "D", "n": 60, "m": -4},  # b = 6: 8,192 rows
        {"task": "duality", "n": MAX_GRAM_ROWS, "m": 0},
        {"task": "duality", "n": 2, "m": 1, "b": 10**18},
    ]
    assert load_config(config_doc(towers=towers, tasks=at_cap)).tasks == at_cap
    assert MAX_GRAM_ROWS == 10_000


def test_out_of_range_literal_exponents_exit_two(tmp_path, capsys):
    deep_character = config_doc(characters={"X": ["t^-20000"]})
    deep_image = config_doc(
        towers={"L": {"p": 2, "k": 1, "s": 1, "variables": ["u"]}},
        extensions={"phi": {"target": "L", "images": {"t": "u^-20000"}}},
    )
    for doc, label in ((deep_character, "character 'X'"), (deep_image, "extension 'phi'")):
        assert main(["run", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert label in err and "below the supported range" in err


@pytest.mark.parametrize("literal", [
    "((1+u)^-1 - (1+u)^-1 + u*t)^-1",  # a lowest coefficient zero within its window
    "((1+u)^-1 - (1+u)^-1)^-1",  # zero within its window, inverted
])
def test_a_literal_that_refuses_exits_two(tmp_path, capsys, literal):
    """A literal whose reading raises (here ``PrecisionExhausted``: the
    order of what is inverted is not known within the window) is a
    ``ConfigError`` naming the character, never a traceback."""
    doc = config_doc(tower={"p": 2, "variables": ["u", "t"]}, characters={"a": [literal]},
                     tasks=[{"task": "swan", "character": "a"}])
    with pytest.raises(ConfigError, match="character 'a' does not parse"):
        load_config(doc)
    assert main(["run", write_config(tmp_path, doc)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("configuration error: character 'a' does not parse")
    assert "Traceback" not in err


def test_a_window_zero_inverse_exits_two(tmp_path, capsys):
    """Over F_2((t)) the difference of two equal inverses is zero only
    within its window, so its inverse is unknown: ``PrecisionExhausted``
    from the reader, a ``ConfigError`` naming the character from the loader."""
    doc = config_doc(characters={"a": ["((1+t)^-1 - (1+t)^-1)^-1"]},
                     tasks=[{"task": "swan", "character": "a"}])
    with pytest.raises(ConfigError, match="character 'a' does not parse: cannot invert"):
        load_config(doc)
    assert main(["run", write_config(tmp_path, doc)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "zero below its window ceiling 64" in err and "Traceback" not in err


def test_task_fields_are_checked_at_load_time(tmp_path, capsys):
    fields = {
        "towers": {"L": {"p": 2, "k": 1, "s": 1, "variables": ["u"]}},
        "characters": {"X": ["t^-3"]},
        "extensions": {"phi": {"target": "L", "images": {"t": "u^2 + u^3"}}},
    }
    change = {"task": "conductor-change", "character": "X", "extension": "phi"}
    bad_tasks = [
        ({"task": "thmC", "f": {"-20000": "x"}}, "below the supported range"),
        ({"task": "thmC", "f": {"-3": "x/0"}}, "zero denominator"),
        ({"task": "thmC", "f": {"-3": "2 x"}}, "does not parse"),
        ({"task": "thmC", "f": {"x": "1"}}, "nonempty 'f'"),
        ({"task": "thmC", "f": {"\u0663": "x"}}, "nonempty 'f'"),
        ({"task": "thmC", "f": {"-3": "x", "-03": "1"}}, "nonempty 'f'"),
        ({"task": "thmC", "f": {"-0": "x"}}, "nonempty 'f'"),
        ({"task": "thmC", "f": {"-3": "x"}, "exponents": [0]}, "'exponents'"),
        ({"task": "thmC", "f": {"-3": "x"}, "exponents": [-2]}, "'exponents'"),
        ({"task": "thmC", "f": {"-3": "x"}, "x0": "a"}, "integer 'x0'"),
        ({"task": "thmC", "f": {"-3": "x"}, "x0": True}, "integer 'x0'"),
        ({"task": "thmB", "t_values": "ab"}, "'t_values'"),
        ({"task": "thmB", "t_values": [True]}, "'t_values'"),
        ({"task": "duality", "n": 2, "m": 0, "b": "x"}, "non-negative integer 'b'"),
        ({"task": "duality", "n": 2, "m": 0, "b": True}, "non-negative integer 'b'"),
        ({"task": "duality", "n": True, "m": False}, "integer window bounds"),
        # an expectation that could never be compared with the answer
        ({"task": "swan", "character": "X", "expect": True}, "'expect' to be an integer"),
        ({"task": "swan", "character": "X", "expect": 1.0}, "'expect' to be an integer"),
        ({"task": "swan", "character": "X", "expect": "3"}, "'expect' to be an integer"),
        ({"task": "rsw", "character": "X", "expect": 3}, "'expect' to be a form literal"),
        ({**change, "expect": "pass"}, "'expect' to be one of 'PASS', 'FAIL', 'NOT_APPLICABLE'"),
        ({**change, "expect": ["PASS"]}, "'expect' to be one of 'PASS', 'FAIL', 'NOT_APPLICABLE'"),
        ({**change, "expect_sw": 99}, "has 'expect_sw' but no 'expect'"),
        ({**change, "expect": "PASS", "expect_sw": "x"}, "'expect_sw' to be an integer"),
        ({**change, "expect": "PASS", "expect_sw": True}, "'expect_sw' to be an integer"),
        # a field no runner reads: a misspelling would silently run the default
        ({"task": "swan", "character": "X", "sample": 9}, "task #0 (swan) has unknown fields ['sample']"),
        ({"task": "rsw", "character": "X", "expected": "0"}, "task #0 (rsw) has unknown fields ['expected']"),
        ({"task": "reciprocity", "character": "X", "sample": 5000},
         "task #0 (reciprocity) has unknown fields ['sample']"),
        ({"task": "duality", "n": 2, "m": 0, "window": 2}, "task #0 (duality) has unknown fields ['window']"),
        ({**change, "expect": "PASS", "expect_SW": 3},
         "task #0 (conductor-change) has unknown fields ['expect_SW']"),
        ({"task": "thmB", "t_value": [1]}, "task #0 (thmB) has unknown fields ['t_value']"),
        ({"task": "thmC", "f": {"-3": "x"}, "x_0": 1}, "task #0 (thmC) has unknown fields ['x_0']"),
        ({"task": "exp-congruences", "p": 3, "q": 3}, "task #0 (exp-congruences) has unknown fields ['q']"),
        ({"task": "swan", "character": "X", "tower": "main"}, "task #0 (swan) has unknown fields ['tower']"),
        ({**change, "extension": 3}, "task #0 (conductor-change) needs an extension name, got 3"),
    ]
    for task, message in bad_tasks:
        doc = config_doc(**fields, tasks=[task])
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(doc)
        assert main(["run", write_config(tmp_path, doc)]) == 2
        assert message in capsys.readouterr().err
    # towers, characters and extensions: an unknown field, a missing field, a
    # value that is not an object, no variables or no components
    wild = {"target": "L", "images": {"t": "u^2 + u^3"}}
    no_variables = "is invalid: a tower needs at least one variable"
    no_components = "character 'X' needs 1 components (tower lift length), got 0"
    bad_objects = [
        ({"towers": {"L": {"p": 2, "variables": ["u"], "q": 1}}}, "tower 'L' has unknown fields ['q']"),
        ({"towers": {"L": {"variables": ["u"]}}}, "tower 'L' is missing field 'p'"),
        ({"towers": {"L": {"p": 2}}}, "tower 'L' is missing field 'variables'"),
        ({"towers": {"L": ["u"]}}, "tower 'L' must be an object"),
        ({"towers": {"L": {"p": 2, "variables": []}}}, f"tower 'L' {no_variables}"),
        ({"tower": {"p": 2, "variables": []}}, f"tower 'main' {no_variables}"),
        ({"characters": {"X": {"components": ["t^-3"], "lift": 1}}}, "character 'X' has unknown fields ['lift']"),
        ({"characters": {"X": {"tower": "main"}}}, "character 'X' components must be a list of literals"),
        ({"characters": {"X": "t^-3"}}, "character 'X' components must be a list of literals"),
        ({"characters": {"X": []}}, no_components),
        ({"characters": {"X": {"components": []}}}, no_components),
        ({"extensions": {"phi": {**wild, "image": {}}}}, "extension 'phi' has unknown fields ['image']"),
        ({"extensions": {"phi": {"images": wild["images"]}}}, "extension 'phi' needs a tower name, got None"),
        ({"extensions": {"phi": {"target": "L"}}}, "extension 'phi' needs an 'images' object of series literals"),
        ({"extensions": {"phi": ["L"]}}, "extension 'phi' must be an object"),
    ]
    for overrides, message in bad_objects:
        doc = config_doc(**{**fields, **overrides})
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(doc)
        assert main(["run", write_config(tmp_path, doc)]) == 2
        assert message in capsys.readouterr().err
    with pytest.raises(ConfigError, match="nonempty 'f'"):  # JSON keys are strings; a dict's need not be
        load_config(config_doc(tasks=[{"task": "thmC", "f": {-3: "x"}}]))
    good = config_doc(**fields, tasks=[
        {"task": "thmC", "f": {"-3": "x"}, "exponents": [2, 4], "x0": 1},
        {"task": "duality", "n": 2, "m": 0, "b": 1},
        {"task": "swan", "character": "X", "expect": 3},
    ])
    assert [r["status"] for r in run(load_config(good))["tasks"]] == ["PASS"] * 3


def assert_config_error(tmp_path, capsys, doc, message):
    with pytest.raises(ConfigError, match=message):
        load_config(doc)
    assert main(["run", write_config(tmp_path, doc)]) == 2
    assert message in capsys.readouterr().err


def _first_task(doc, kind):
    return next(task for task in doc["tasks"] if task["task"] == kind)


# name -> where in the canned p = 2 configuration: (the object, its key)
WRONG_TYPE_SITES = {
    "character tower": lambda doc: (doc["characters"]["Y_13"], "tower"),
    "extension source": lambda doc: (doc["extensions"]["phi_wild"], "source"),
    "extension target": lambda doc: (doc["extensions"]["phi_wild"], "target"),
    "task character": lambda doc: (_first_task(doc, "swan"), "character"),
    "task extension": lambda doc: (_first_task(doc, "conductor-change"), "extension"),
    "task tower": lambda doc: (_first_task(doc, "duality"), "tower"),
    "extension image": lambda doc: (doc["extensions"]["phi_wild"]["images"], "t"),
}
WRONG_TYPES = [pytest.param(site, value, id=f"{site} {json.dumps(value)}")
               for site in WRONG_TYPE_SITES
               for value in ((7, 1.5, True, None, ["x"], {"a": 1}) if site == "extension image"
                             else (["x"], {"a": 1}))]


@pytest.mark.parametrize("site,value", WRONG_TYPES)
def test_a_name_or_literal_that_is_not_a_string_exits_two(tmp_path, capsys, site, value):
    """A name is looked up, and a literal parsed, only once it is a string."""
    doc = copy.deepcopy(canned_config(2))
    holder, key = WRONG_TYPE_SITES[site](doc)
    holder[key] = value
    with pytest.raises(ConfigError):
        load_config(doc)
    assert main(["run", write_config(tmp_path, doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("configuration error: ") and "Traceback" not in err


def test_expect_ratios_are_checked_at_load_time(tmp_path, capsys):
    for ratios in (5, "5/2", [5], ["10/4"], ["x"], ["1/0"], [" 5/2"]):
        for task in ({"task": "thmB"}, {"task": "thmC", "f": {"-3": "x"}}):
            doc = config_doc(tasks=[{**task, "expect_ratios": ratios}])
            assert_config_error(tmp_path, capsys, doc, "'expect_ratios'")
    good = config_doc(tasks=[{"task": "thmB", "expect_ratios": ["5/3", "9/5", "13/7"]}])
    assert [r["status"] for r in run(load_config(good))["tasks"]] == ["PASS"]


def test_thmB_t_values_must_be_prime_to_p(tmp_path, capsys):
    assert_config_error(tmp_path, capsys, config_doc(tasks=[{"task": "thmB", "t_values": [2]}]),
                        "prime to p = 2")
    # the default family (3, 5, 7) is not prime to 3
    assert_config_error(tmp_path, capsys, config_doc(tower=MAIN3, tasks=[{"task": "thmB"}]),
                        "prime to p = 3")
    good = config_doc(tower=MAIN3, tasks=[{"task": "thmB", "t_values": [2, 5]}])
    assert [r["status"] for r in run(load_config(good))["tasks"]] == ["PASS"]


THMB_CAP = "task #0 (thmB) needs 't_values' of at most 5000"


@pytest.mark.parametrize("p, t, message", [
    (2, 4999, None), (2, 5000, "task #0 (thmB) needs 't_values' prime to p = 2"), (2, 5001, THMB_CAP),
    (3, 4999, None), (3, 5000, None), (3, 5001, THMB_CAP),  # 5001 is 3 * 1667 too
    (5, 4999, None), (5, 5000, "task #0 (thmB) needs 't_values' prime to p = 5"), (5, 5001, THMB_CAP),
])
def test_thmB_t_values_are_capped(tmp_path, capsys, p, t, message):
    """The family pulls ``u t^-2`` back to ``w^(-2t)``, so a ``t`` above
    5,000 takes the exponent below the floor -10,000 at every p: the task
    alone decides, and the loader refuses it, naming the task."""
    doc = config_doc(tower={"p": p, "variables": ["t"]}, tasks=[{"task": "thmB", "t_values": [t]}])
    if message is None:
        assert [r["status"] for r in run(load_config(doc))["tasks"]] == ["PASS"]
    else:
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(doc)
        assert main(["run", write_config(tmp_path, doc)]) == 2
        assert message in capsys.readouterr().err


THMC_CAP = ("task #0 (thmC) needs 'exponents' e with e * k + ord_x0(a_k) at least -10000 for "
            "each term a_k t^k of 'f': the curve of e = {} pulls the term of t^{} back to u^{}")
ORDER_AT_0 = {"1": 0, "1 + x": 0, "x": 1, "x^2": 2}  # the order at x = 0 of each literal below


def thmC_refusal(f, e, orders):
    """The loader's message for the term of ``f`` that the curve of ``e``
    sends lowest, ``orders`` giving each coefficient's order at ``x0``."""
    landing, k = min((e * int(k) + orders[text], int(k)) for k, text in f.items())
    return THMC_CAP.format(e, k, landing)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("f, e, refused", [
    ({"-4": "1 + x", "-1": "x"}, 2499, False),
    ({"-4": "1 + x", "-1": "x"}, 2500, False),  # t^-4 lands on u^-10000, the floor
    ({"-4": "1 + x", "-1": "x"}, 2501, True),
    ({"-3": "x"}, 3333, False),
    ({"-3": "x"}, 3334, True),  # ran into an ExponentOutOfRange ERROR record
    ({"-1": "x", "2": "x^2"}, 10000, False),
    ({"-1": "x"}, 10001, False),  # x vanishes at 0: u^-10001 times u
    ({"-1": "x^2"}, 10002, False),
    ({"-1": "x^2"}, 10003, True),
    ({"-2": "x", "-1": "1"}, 5000, False),
    ({"-2": "x", "-1": "1"}, 5001, True),
])
def test_thmC_exponents_are_capped(tmp_path, capsys, p, f, e, refused):
    """The curve ``t -> u^e, x -> x0 + u`` (here ``x0 = 0``) pulls ``a_k(x)
    t^k`` back to ``u^(e k + ord_x0 a_k)`` times a unit; the order of
    ``a_k`` at ``x0`` is its numerator's, and is positive where ``a_k``
    vanishes there (a denominator that vanishes there is the run's refusal,
    ``test_thmC_pole_at_x0_stays_a_run_time_record``).  So an ``e`` that
    sends some term below the floor -10,000 is decided by the task alone:
    the loader refuses it, naming the task and that term; a task that loads
    runs and passes."""
    doc = config_doc(tower={"p": p, "variables": ["t"]},
                     tasks=[{"task": "thmC", "f": f, "exponents": [e]}])
    if refused:
        message = thmC_refusal(f, e, ORDER_AT_0)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(doc)
        assert main(["run", write_config(tmp_path, doc)]) == 2
        assert message in capsys.readouterr().err
    else:
        assert [r["status"] for r in run(load_config(doc))["tasks"]] == ["PASS"]


@pytest.mark.parametrize("p", (2, 3, 5))
def test_thmC_exponent_cap_reads_the_order_at_x0(tmp_path, capsys, p):
    """``x t^-1`` at e = 10,001: at ``x0 = 0`` the coefficient vanishes to
    order 1 and the term lands on u^-10000, which runs and passes; at
    ``x0 = 1`` it is a unit and the term lands on u^-10001, below the floor
    (it ran into an ``ExponentOutOfRange`` ERROR record before the loader
    read the order), so the loader refuses it."""
    def doc(x0):
        return config_doc(tower={"p": p, "variables": ["t"]},
                          tasks=[{"task": "thmC", "f": {"-1": "x"}, "x0": x0, "exponents": [10001]}])
    assert [r["status"] for r in run(load_config(doc(0)))["tasks"]] == ["PASS"]
    message = thmC_refusal({"-1": "x"}, 10001, {"x": 0})
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(doc(1))
    assert main(["run", write_config(tmp_path, doc(1))]) == 2
    assert message in capsys.readouterr().err


def test_thmC_pole_at_x0_stays_a_run_time_record():
    """A coefficient whose denominator vanishes at ``x0`` is not an exponent
    the loader bounds: the task loads (its numerator 1 lands on u^-10000 at
    e = 10,000) and the run writes the ``NonEmbedding`` ERROR record."""
    for e in (3, 10000):
        doc = config_doc(tasks=[{"task": "thmC", "f": {"-1": "1/x"}, "exponents": [e]}])
        (record,) = run(load_config(doc))["tasks"]
        assert record["error"] == {
            "type": "NonEmbedding",
            "message": "coefficient denominator vanishes at x = 0; "
                       "the curve meets a pole of the character",
        }


def test_thmC_reduces_by_adding_rational_functions(monkeypatch):
    """``f = x t^-3 + x^2 t^-2 + x t^-1`` over F_2(x): the root ``x t^-1``
    of ``x^2 t^-2`` lands on the stored ``x t^-1``, so the reduction at
    s = 1 adds two rational functions, which no canned task does.  The
    generic conductor is 3; the curves ``x -> 1 + u, t -> u^e`` give 5/2
    and 11/4."""
    added = []
    add = RatFuncDomain.add
    monkeypatch.setattr(RatFuncDomain, "add", lambda self, x, y: added.append(1) or add(self, x, y))
    doc = config_doc(tasks=[{"task": "thmC", "f": {"-3": "x", "-2": "x^2", "-1": "x"},
                             "x0": 1, "exponents": [2, 4]}])
    (record,) = run(load_config(doc))["tasks"]
    assert record["status"] == "PASS"
    assert record["values"]["sw_generic"] == 3
    assert [row["ratio"] for row in record["values"]["rows"]] == ["5/2", "11/4"]
    assert added


def test_thmC_curves_take_the_main_budget(tmp_path, capsys):
    """The curves' tower F_2((u)) takes the main tower's budget, so
    ``--precision`` reaches thmC: the curve ``t -> u^30`` of ``f =
    1/(1+x) t^-3`` is known only below order -26 at the default budget 64
    (an ERROR record) and answers Sw = 89 at 512; the record keeps its
    fields."""
    doc = config_doc(tasks=[{"task": "thmC", "f": {"-3": "1/(1+x)"}, "exponents": [30]}])
    (record,) = run(load_config(doc))["tasks"]
    assert record["status"] == "ERROR" and record["error"]["exponent"] == -26
    (record,) = run(load_config(doc, precision=512))["tasks"]
    assert record["status"] == "PASS" and set(record) == {"inputs", "status", "task", "values"}
    assert record["values"] == {"sw_generic": 3, "all_bounded": True,
                                "rows": [{"e": 30, "sw": 89, "ratio": "89/30"}]}
    path = write_config(tmp_path, doc)
    assert main(["run", path]) == 1
    assert main(["run", path, "--precision", "512"]) == 0
    capsys.readouterr()


def test_exp_congruences_p_is_checked_at_load_time(tmp_path, capsys):
    for p in (4, "x", True, 7, 2.0):
        doc = config_doc(tasks=[{"task": "exp-congruences", "p": p}])
        assert_config_error(tmp_path, capsys, doc, "'p' to be one of 2, 3, 5")
    good = config_doc(tasks=[{"task": "exp-congruences", "p": 5}])
    assert {r["status"] for r in run(load_config(good))["tasks"]} == {"PASS"}


def test_cli_precision_override_wins():
    doc = config_doc(tower={**MAIN2, "precision": 32})
    assert load_config(doc).main_tower.precision == 32
    assert load_config(doc, precision=16).main_tower.precision == 16


def test_precision_budget_is_capped(tmp_path, capsys):
    """The budget sizes every fresh window; 4096 loads, 4097 is a
    ConfigError from the file and from ``--precision`` (nothing is run)."""
    assert load_config(config_doc(tower={**MAIN2, "precision": 4096})).main_tower.precision == 4096
    assert load_config(config_doc(tower=MAIN2), precision=4096).main_tower.precision == 4096
    doc = config_doc(tower={**MAIN2, "precision": 4097})
    assert_config_error(tmp_path, capsys, doc, "above the cap 4096")
    with pytest.raises(ConfigError, match="above the cap 4096"):
        load_config(config_doc(tower=MAIN2), precision=4097)
    assert main(["run", write_config(tmp_path, config_doc(tower=MAIN2)), "--precision", "4097"]) == 2
    assert "above the cap 4096" in capsys.readouterr().err


# ------------------------------------------------------------------- running

def test_swan_task_record_shape():
    doc = config_doc(
        characters={"X": ["t^-3"]},
        tasks=[{"task": "swan", "character": "X", "expect": 3}],
    )
    report = run(load_config(doc))
    assert report["version"] == REPORT_VERSION
    assert report["conventions"] == CONVENTIONS
    (rec,) = report["tasks"]
    assert rec["status"] == "PASS"
    assert rec["values"]["Sw"] == 3
    assert rec["inputs"] == {"character": "X", "expect": 3}


def test_exp_congruences_yields_three_records():
    doc = {"version": 1, "tower": MAIN3, "tasks": [{"task": "exp-congruences"}]}
    report = run(load_config(doc))
    recs = report["tasks"]
    assert len(recs) == 3
    assert all(r["status"] == "PASS" for r in recs)
    assert {r["values"]["congruence"] for r in recs} == {
        "product_rule_mod_degree_p",
        "moebius_product_mod_Tp",
        "dlog_normalization_mod_Tp",
    }
    assert all(r["values"]["p"] == 3 for r in recs)


def test_task_errors_become_records_and_never_abort():
    doc = config_doc(
        characters={"X": ["t"], "Y": ["t^-3"]},  # X is unramified
        tasks=[
            {"task": "rsw", "character": "X"},
            {"task": "swan", "character": "Y", "expect": 3},
        ],
    )
    report = run(load_config(doc))
    first, second = report["tasks"]
    assert first["status"] == "ERROR"
    assert first["error"]["type"] == "UnramifiedCharacter"
    assert second["status"] == "PASS"


# Sw = 125: the weight-p^3 slot of a length-4 character over F_5((t)).
SW125 = config_doc(
    tower={"p": 5, "k": 1, "s": 4, "variables": ["t"]},
    characters={"X": ["t^-1", "0", "0", "0"]},
    tasks=[{"task": "reciprocity", "character": "X", "samples": 3}],
)


def test_error_records_keep_the_exponent():
    (rec,) = run(load_config(SW125))["tasks"]
    assert rec["status"] == "ERROR"
    assert rec["error"]["type"] == "PrecisionExhausted"
    assert rec["error"]["exponent"] == 0


def test_symbol_refusal_names_the_width_that_would_answer():
    """theta = t^-125 opens windows of width 126; at the default budget 64
    the record says so, and at budget 126 the same task passes."""
    (rec,) = run(load_config(SW125))["tasks"]
    assert rec["error"] == {
        "type": "PrecisionExhausted",
        "message": "the symbol opens windows of width 126; "
                   "its residue is not certified within the budget 64",
        "exponent": 0,
    }
    (rec,) = run(load_config(SW125, precision=126))["tasks"]
    assert rec["status"] == "PASS", rec
    assert rec["values"]["n"] == 125 and rec["precision"] == 126


def test_conductor_change_error_records_keep_the_exponent():
    """u^2 + u^4 is a square over F_2: its derivative is exactly zero, so
    the depth is undefined and the record has no exponent.  Along u^2 + u^3
    at budget 8, t^-5 pulls back known below 8 - 2 * 5."""
    doc = config_doc(
        towers={
            "L": {"p": 2, "k": 1, "s": 1, "variables": ["u"]},
            "L8": {"p": 2, "k": 1, "s": 1, "variables": ["u"], "precision": 8},
        },
        characters={"X": ["t^-5"]},
        extensions={
            "square": {"target": "L", "images": {"t": "u^2 + u^4"}},
            "narrow": {"target": "L8", "images": {"t": "u^2 + u^3"}},
        },
        tasks=[
            {"task": "conductor-change", "character": "X", "extension": "square"},
            {"task": "conductor-change", "character": "X", "extension": "narrow"},
        ],
    )
    square, narrow = run(load_config(doc))["tasks"]
    assert square["error"] == {
        "type": "NonEmbedding",
        "message": "dlog of the uniformizer image vanishes identically "
                   "(the image is a p-th power); the torsion depth is undefined",
    }
    assert narrow["error"] == {
        "type": "PrecisionExhausted",
        "message": "component 0 is only known below order -2; "
                   "its polar part cannot be certified",
        "exponent": -2,
    }


def test_rsw_task_checks_expected_literal():
    doc = config_doc(
        characters={"X": ["t^-3"]},
        tasks=[{"task": "rsw", "character": "X", "expect": "t^-3 dlog(t) | window(3,1)"}],
    )
    (rec,) = run(load_config(doc))["tasks"]
    assert rec["status"] == "PASS"
    assert rec["values"]["form"] == "t^-3 dlog(t) | window(3,1)"
    assert rec["values"]["closed"] and rec["values"]["round_trip"]
    assert rec["values"]["sw_from_rsw"] == 3
    doc["tasks"][0]["expect"] = "t^-2 dlog(t) | window(3,1)"
    (rec,) = run(load_config(doc))["tasks"]
    assert rec["status"] == "FAIL"


@pytest.mark.parametrize("check, planted", [
    ("sw_from_rsw", lambda value: value.n + 1),
    ("rsw_is_closed", lambda value: False),
], ids=["sw_from_rsw", "rsw_is_closed"])
def test_rsw_task_fails_when_a_check_of_its_form_fails(monkeypatch, check, planted):
    """An rsw record checks its form twice: the conductor read off the
    form's top order equals ``n``, and the form is closed.  With either
    check planted to fail, the record is a FAIL."""
    doc = config_doc(characters={"X": ["t^-3"]}, tasks=[{"task": "rsw", "character": "X"}])
    (rec,) = run(load_config(doc))["tasks"]
    assert rec["status"] == "PASS"
    monkeypatch.setattr(cli, check, planted)
    (rec,) = run(load_config(doc))["tasks"]
    assert rec["status"] == "FAIL"


def test_report_bodies_are_seed_deterministic():
    doc = config_doc(
        characters={"X": ["t^-3"]},
        tasks=[
            {"task": "reciprocity", "character": "X", "samples": 5},
            {"task": "swan", "character": "X"},
        ],
    )
    a = run(load_config(doc), seed=0)
    b = run(load_config(doc), seed=0)
    assert report_body_bytes(a) == report_body_bytes(b)
    assert a["meta"]["seed"] == 0
    assert json.loads(report_body_bytes(a)) is not None  # body is valid JSON


def test_check_all_bodies_do_not_depend_on_the_hash_seed(tmp_path):
    """``check-all --p 2`` in two processes, with ``PYTHONHASHSEED`` 0 and
    1, writes equal report bodies: no set or dict order that string
    hashing decides reaches a record."""
    bodies = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"report-{hash_seed}.json"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "rswan.cli", "check-all", "--p", "2", "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        bodies.append(report_body_bytes(json.loads(out.read_text())))
    assert bodies[0] == bodies[1]


def readme_task_fields():
    """kind -> (required, optional) field names of the task table of
    README.md: the backquoted names of a row's second cell, before and
    after the word "optional"."""
    rows = {}
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        row = re.match(r"\| `([\w-]+)` \| (.*?) \|", line)
        if row and row[1] in TASK_NAMES:
            required, _, optional = row[2].partition("optional")
            rows[row[1]] = (set(re.findall(r"`(\w+)`", required)), set(re.findall(r"`(\w+)`", optional)))
    return rows


def test_readme_task_table_names_the_declared_fields():
    """Each README task row names exactly the fields that ``cli._KINDS``
    declares for its kind, the required ones (default ``...``) first."""
    declared = {
        kind: ({f for f, spec in fields.items() if spec[0] is ...},
               {f for f, spec in fields.items() if spec[0] is not ...})
        for kind, (fields, _) in _KINDS.items()
    }
    assert readme_task_fields() == declared


def test_task_vocabulary_is_pinned():
    assert set(TASK_NAMES) == {
        "swan",
        "rsw",
        "duality",
        "reciprocity",
        "conductor-change",
        "thmB",
        "thmC",
        "exp-congruences",
    }


# ------------------------------------------------------------- console entry

def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_main_run_exit_zero_and_report_file(tmp_path, capsys):
    doc = config_doc(
        characters={"X": ["t^-3"]},
        tasks=[{"task": "swan", "character": "X", "expect": 3}],
    )
    out = tmp_path / "report.json"
    rc = main(["run", write_config(tmp_path, doc), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "[PASS]" in printed and "summary:" in printed
    saved = json.loads(out.read_text())
    assert saved["tasks"][0]["values"]["Sw"] == 3


def test_main_run_exit_one_on_fail(tmp_path, capsys):
    doc = config_doc(
        characters={"X": ["t^-3"]},
        tasks=[{"task": "swan", "character": "X", "expect": 4}],
    )
    rc = main(["run", write_config(tmp_path, doc)])
    assert rc == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_main_run_exit_one_on_error_records(tmp_path, capsys):
    doc = config_doc(
        characters={"X": ["t"]},
        tasks=[{"task": "rsw", "character": "X"}],
    )
    rc = main(["run", write_config(tmp_path, doc)])
    assert rc == 1
    assert "[ERROR]" in capsys.readouterr().out


def test_main_config_errors_exit_two(tmp_path, capsys):
    rc = main(["run", write_config(tmp_path, {"version": 1, "tasks": []})])
    assert rc == 2
    rc = main(["run", str(tmp_path / "missing.json")])
    assert rc == 2


def test_main_seed_changes_only_sampled_tasks(tmp_path):
    doc = config_doc(
        characters={"X": ["t^-3"]},
        tasks=[{"task": "swan", "character": "X"}],
    )
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["run", write_config(tmp_path, doc), "--seed", "0", "--out", str(out_a)]) == 0
    assert main(["run", write_config(tmp_path, doc), "--seed", "9", "--out", str(out_b)]) == 0
    body = lambda p: {k: json.loads(p.read_text())[k] for k in ("version", "conventions", "tasks")}
    assert body(out_a) == body(out_b)  # no sampling in this config


def test_main_check_all_smoke(capsys):
    rc = main(["check-all", "--p", "5"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "summary:" in printed and "FAIL" in printed  # the counter line mentions FAIL count


# ------------------------------------------------------ every accepted ring

def sweep_config(p, k, s, d):
    """swan, rsw, reciprocity (20 samples), duality (n = 4, m = 1) and, over
    one variable, a conductor change along t -> w^2 + w^3, for a character
    with poles t^-3 and t^-1 in its weight-1 slot (a u in front of t^-3
    over two variables) and, for s > 1, a pole-free t in its heaviest slot,
    so that Sw <= 3 fits the default budget at every p and s."""
    variables = ["t"] if d == 1 else ["u", "t"]
    pole = "t^-3 + t^-1" if d == 1 else "u*t^-3 + t^-1"
    tower = {"p": p, "k": k, "s": s, "variables": variables}
    tasks = [{"task": "swan", "character": "X"}, {"task": "rsw", "character": "X"},
             {"task": "reciprocity", "character": "X", "samples": 20},
             {"task": "duality", "n": 4, "m": 1}]
    doc = config_doc(tower=tower, characters={"X": ["t"][:s - 1] + ["0"] * (s - 2) + [pole]},
                     tasks=tasks)
    if d == 1:
        doc["towers"] = {"L": {**tower, "variables": ["w"]}}
        doc["extensions"] = {"phi": {"target": "L", "images": {"t": "w^2 + w^3"}}}
        tasks.append({"task": "conductor-change", "character": "X", "extension": "phi"})
    return doc


def test_every_accepted_ring_runs_end_to_end():
    """Every (p, k) with a defining polynomial, s = 1..4 and d = 1, 2: each
    record is PASS or NOT_APPLICABLE, so the symbol residues run on all 48
    coefficient rings."""
    records = 0
    for p, k in DEFINING_POLYNOMIALS:
        for s in (1, 2, 3, 4):
            for d in (1, 2):
                for rec in run(load_config(sweep_config(p, k, s, d)))["tasks"]:
                    assert rec["status"] in ("PASS", "NOT_APPLICABLE"), (p, k, s, d, rec)
                    records += 1
    assert records == 48 * 2 * 4 + 48
