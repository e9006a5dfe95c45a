"""The literal reader against its specification (``rswan.parser``).

* **The error table.** Every raise site of the module, pinned as the
  refusal's type, message and position (``None`` where the error has no
  position).
* **The differential test.** Random expression trees, drawn as the
  grammar allows them and rendered with random whitespace, must read as
  the ``NestedSeries`` arithmetic over the tree computes them, in the
  grammar's order: the same value, windows included, or the same
  refusal.  The forms read as the public ``LogForm`` and ``WindowedForm``
  constructors build them from those coefficients.
"""

from __future__ import annotations

import random

import pytest

from rswan.errors import (
    ExponentOutOfRange,
    InconsistentValue,
    ParseError,
    PrecisionExhausted,
    RswanError,
    TowerMismatch,
    UnknownVariable,
    ZeroInput,
)
from rswan.logdiff import LogForm, WindowedForm
from rswan.parser import parse_rat_func, parse_series, parse_windowed_form, render_form, render_series
from rswan.ratfunc import rat_func_domain
from rswan.series import NestedSeries
from rswan.tower import FieldTower

T1 = FieldTower(2, 1, 1, ("t",))
T2 = FieldTower(3, 1, 1, ("u", "t"))


def _refusal(call):
    with pytest.raises(RswanError) as info:
        call()
    exc = info.value
    return type(exc), str(exc), getattr(exc, "position", None)


def _p(message, position):
    return f"{message} (at position {position})"


# (rule, text, type, message, position): the rule reads text over T1 ("series"
# and "form"), over T2 ("series2" and "form2"), or over F_2(x) ("ratfunc").
ERRORS = [
    # the tokenizer: the position is where the failed token would start
    ("series", "t + $", ParseError, _p("unexpected character '$'", 3), 3),
    ("series", "t  é", ParseError, _p("unexpected character 'é'", 1), 1),
    # trailing input: a name, an operator, and an integer shown as its value
    ("series", "t t", ParseError, _p("unexpected trailing input 't'", 2), 2),
    ("series", "(t))", ParseError, _p("unexpected trailing input ')'", 3), 3),
    ("series", "t 007", ParseError, _p("unexpected trailing input 7", 2), 2),
    # expected tokens
    ("series", "(t + 1", ParseError, _p("expected ')'", 6), 6),
    ("form", "t dlog(t) window(1,0)", ParseError, _p("expected '|'", 10), 10),
    ("form", "t dlog(t) | wind(1,0)", ParseError, _p("expected 'window'", 12), 12),
    ("form", "t dlog(t) | window 1,0)", ParseError, _p("expected '('", 19), 19),
    ("form", "t dlog(t) | window(1 0)", ParseError, _p("expected ','", 21), 21),
    ("form", "t dlog(t) | window(1,0", ParseError, _p("expected ')'", 22), 22),
    ("form", "t dlog t | window(1,0)", ParseError, _p("expected '('", 7), 7),
    ("form", "t dlog(t | window(1,0)", ParseError, _p("expected ')'", 9), 9),
    ("form2", "t dlog(u)^t | window(1,0)", ParseError, _p("expected 'dlog'", 10), 10),
    # atoms and integers
    ("series", "+ t", ParseError, _p("expected a number, name, or '(' (got '+')", 0), 0),
    ("series", "t +", ParseError, _p("expected a number, name, or '(' (got '')", 3), 3),
    ("series", "t^x", ParseError, _p("expected an integer", 2), 2),
    ("series", "(t + 1)^ -", ParseError, _p("expected an integer", 10), 10),
    ("form", "t dlog(t) | window(-,0)", ParseError, _p("expected an integer", 20), 20),
    ("series", "2*x + t", UnknownVariable, _p("unknown variable 'x'", 2), 2),
    ("form", "dlog(3) | window(1,0)", ParseError, _p("expected a variable name", 5), 5),
    ("form", "dlog(x) | window(1,0)", TowerMismatch, "variable 'x' not in tower ('t',)", None),
    # a negative power of something that is not invertible, at its '^'
    ("series", "(t - t)^-1", ParseError,
     _p("cannot raise a non-invertible expression to a negative power", 7), 7),
    ("series", "1 + 0 ^ -2", ParseError,
     _p("cannot raise a non-invertible expression to a negative power", 6), 6),
    ("series", "(2*t)^-1", ParseError,
     _p("cannot raise a non-invertible expression to a negative power", 5), 5),
    # zero only within its window: unknown, so the inverse is refused at the ceiling
    ("series", "((1+t)^-1 - (1+t)^-1)^-1", PrecisionExhausted,
     "cannot invert: the series is zero below its window ceiling 64", None),
    # the supported range of exponents, as the read, a product, a power or an
    # inverse leaves it: at once, before the unknown name after it is read
    ("series", "t^-10001", ExponentOutOfRange,
     "exponent -10001 below the supported range (>= -10000)", None),
    ("series", "t^-6000*t^-6000*t^7000", ExponentOutOfRange,
     "exponent -12000 below the supported range (>= -10000)", None),
    ("series", "(t^-3000)^4", ExponentOutOfRange,
     "exponent -12000 below the supported range (>= -10000)", None),
    ("series", "(t^10001)^-1 + x", ExponentOutOfRange,
     "exponent -10001 below the supported range (>= -10000)", None),
    ("series2", "(u^-6000 + t)*u^-6000 + x", ExponentOutOfRange,
     "exponent -12000 below the supported range (>= -10000)", None),
    # forms: degrees and chains
    ("form2", "t dlog(t) + t dlog(u)^dlog(t) | window(1,0)", ParseError,
     _p("mixed-degree terms in one form literal", 12), 12),
    ("form2", "t dlog(t)^dlog(u) | window(1,0)", ParseError,
     _p("dlog variables must appear in strictly increasing tower order", 10), 10),
    ("form2", "t dlog(u)^dlog(u) | window(1,0)", ParseError,
     _p("dlog variables must appear in strictly increasing tower order", 10), 10),
    ("form2", "t dlog(u)^dlog() | window(1,0)", ParseError,
     _p("the empty chain dlog() stands alone", 10), 10),
    # the first offending dlog, the empty chain before the order
    ("form2", "t dlog(u)^dlog(t)^dlog(t) | window(1,0)", ParseError,
     _p("dlog variables must appear in strictly increasing tower order", 18), 18),
    ("form2", "t dlog(t)^dlog(u)^dlog() | window(1,0)", ParseError,
     _p("the empty chain dlog() stands alone", 18), 18),
    # forms: the window's own checks, after the literal is read
    ("form", "t^-1 dlog(t) | window(1,1)", InconsistentValue, "window needs n > m, got (1, 1)", None),
    ("form", "t^-3 dlog(t) | window(2,1)", InconsistentValue,
     "representative has a term of order -3 below the window floor -2", None),
    ("form", "(1 + t)^-1 dlog(t) | window(-2,-80)", PrecisionExhausted,
     "series window ends at 64, below the quotient bound 80", None),
    # rational functions
    ("ratfunc", "x / 0", ParseError, _p("zero denominator in a rational literal", 2), 2),
    ("ratfunc", "x / (x - x)", ParseError, _p("zero denominator in a rational literal", 2), 2),
    ("ratfunc", "1 / x^-1", ParseError,
     _p("a rational literal is a quotient of polynomials in x", 4), 4),
    ("ratfunc", "(1 + x)^-1", ParseError,
     _p("a rational literal is a quotient of polynomials in x", 0), 0),
    ("ratfunc", "x + t", UnknownVariable, _p("unknown variable 't'", 4), 4),
]


def _read(rule: str, text: str):
    if rule == "ratfunc":
        return parse_rat_func(text, rat_func_domain(2))
    tower = T2 if rule.endswith("2") else T1
    if rule.startswith("form"):
        return parse_windowed_form(text, tower)
    return parse_series(text, tower)


@pytest.mark.parametrize("rule, text, kind, message, position", ERRORS,
                         ids=[f"{rule}:{text}" for rule, text, *_ in ERRORS])
def test_every_refusal_keeps_its_type_message_and_position(rule, text, kind, message, position):
    assert _refusal(lambda: _read(rule, text)) == (kind, message, position)


def test_the_renderers_refuse_values_of_another_tower():
    x = parse_series("t", T1)
    assert _refusal(lambda: render_series(x, T2)) == (
        ParseError, "series does not belong to the given tower", None)
    w = parse_windowed_form("t^-1 dlog(t) | window(1,0)", T1)
    assert _refusal(lambda: render_form(w)) == (
        TowerMismatch, "render_form needs the tower for variable names", None)


# ----------------------------------------------------------- differential

NAMES = ("w", "u", "t")
DRAWS = 700


class _Draw:
    """One random literal and the series arithmetic over its tree.

    ``text`` grows as the tree is drawn, so each ``^`` knows its position.
    Each drawing method returns the value of its subtree, computed at once,
    in the order the grammar reads it; the first refusal of that arithmetic
    is kept in ``error``, and every value after it is None.
    """

    def __init__(self, rng: random.Random, tower: FieldTower):
        self.rng = rng
        self.tower = tower
        self.domain = tower.field_domain
        self.text = ""
        self.error = None
        self.opened = 0  # the powers that opened a window

    def emit(self, piece: str):
        self.text += " " * self.rng.choice((0, 0, 0, 1, 2)) + piece

    def run(self, thunk):
        """``thunk()``, or None once anything in the draw has raised; the
        first refusal is the one the reader must meet."""
        if self.error is not None:
            return None
        try:
            return thunk()
        except ZeroInput as exc:
            raise AssertionError("a ZeroInput escaped its power") from exc
        except RswanError as exc:
            self.error = exc
            return None

    def expr(self, depth: int):
        rng = self.rng
        negate = rng.random() < 0.2
        if negate:
            self.emit("-")
        acc = self.term(depth)
        if negate:
            acc = self.run(lambda: -acc)
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            op = rng.choice("+-")
            self.emit(op)
            rhs = self.term(depth)
            acc = self.run(lambda: acc + rhs if op == "+" else acc - rhs)
        return acc

    def term(self, depth: int):
        acc = self.factor(depth)
        for _ in range(self.rng.choice((0, 0, 1, 2))):
            self.emit("*")
            rhs = self.factor(depth)
            acc = self.run(lambda: acc * rhs)
        return acc

    def factor(self, depth: int):
        rng, tower, dom, d = self.rng, self.tower, self.domain, self.tower.d
        kind = rng.choice(("int", "g", "var", "var", "var", "paren", "paren") if depth else
                          ("int", "g", "var", "var"))
        if kind == "var":
            level = rng.randint(1, d)
            self.emit(tower.variables[level - 1])
            if rng.random() < 0.6:
                n = self.exponent()
                exps = tuple(n if j == level else 0 for j in range(1, d + 1))
                return self.run(lambda: NestedSeries.from_monomials(d, dom, [(exps, dom.one())]))
            return self.run(lambda: NestedSeries.variable(d, dom, level))
        if kind == "paren":
            self.emit("(")
            base = self.expr(depth - 1)
            self.emit(")")
        elif kind == "int":
            value = rng.choice((0, 1, 2, 3, 4, 5, 7, 10))
            self.emit(str(value))
            base = self.run(lambda: NestedSeries.constant(d, dom, dom.from_int(value)))
        else:
            self.emit("g")
            base = self.run(lambda: NestedSeries.constant(d, dom, dom.generator()))
        if rng.random() < (0.6 if kind == "paren" else 0.2):
            self.emit("^")
            caret = len(self.text) - 1
            n = rng.choice((-2, -1, -1, -1, 0, 1, 2, 3))
            self.emit(str(n))

            def raised():
                try:
                    out = base.pow(n, tower.precision)
                except ZeroInput:
                    raise ParseError(
                        "cannot raise a non-invertible expression to a negative power",
                        position=caret,
                    ) from None
                self.opened += base.is_exact() and not out.is_exact()
                return out

            return self.run(raised)
        return base

    def exponent(self) -> int:
        """A variable's exponent: mostly small, now and then near the end of
        the supported range, on either side of it."""
        rng = self.rng
        n = rng.choice((-6000, 5000, -10001)) if rng.random() < 0.06 else rng.randint(-3, 3)
        self.emit("^")
        self.emit(str(n))
        return n


def _tower(rng: random.Random) -> FieldTower:
    d = rng.randint(1, 3)
    return FieldTower(rng.choice((2, 3, 5)), rng.randint(1, 2), 1, NAMES[3 - d:],
                      precision=rng.randint(4, 8))


def _outcome(call):
    """The value, or the refusal as its type, message and position."""
    try:
        return "value", call()
    except RswanError as exc:
        return "refusal", (type(exc), str(exc), getattr(exc, "position", None))


def _expected(draw: _Draw, value):
    if draw.error is not None:
        exc = draw.error
        return "refusal", (type(exc), str(exc), getattr(exc, "position", None))
    return "value", value


def test_a_series_literal_reads_as_the_series_arithmetic_over_its_tree():
    rng = random.Random(4801)
    tally = {"windowed": 0, "refused": 0, "value": 0}
    for _ in range(DRAWS):
        tower = _tower(rng)
        draw = _Draw(rng, tower)
        value = draw.expr(depth=2)
        want = _expected(draw, value)
        assert _outcome(lambda: parse_series(draw.text, tower)) == want, draw.text
        kind = "refused" if want[0] == "refusal" else "windowed" if draw.opened else "value"
        tally[kind] += 1
    assert min(tally.values()) >= 40, tally


def _form_draw(rng: random.Random, tower: FieldTower):
    """A form literal, drawn term by term, and the windowed form that the
    public constructors build from the drawn coefficients.  Every term has
    the drawn degree (the error table covers mixed degrees); at degree 0 a
    term may have no chain, ``dlog()`` or both."""
    draw = _Draw(rng, tower)
    d, dom = tower.d, tower.field_domain
    degree = rng.randint(0, d)
    chains = [key for key in _keys(d) if len(key) == degree]
    styles = ("term", "term", "term chain", "chain") if not degree else (
        "term chain", "term chain", "chain")
    coeffs: dict = {}
    chained = False
    op = rng.choice("++-")
    if op == "-":
        draw.emit("-")
    for index in range(rng.randint(1, 3)):
        if index:
            draw.emit(op)
        key = rng.choice(chains)
        style = rng.choice(styles)
        coeff = NestedSeries.one(d, dom) if style == "chain" else draw.term(depth=2)
        if style != "term":
            chained = True
            draw.emit(" " + ("^".join(f"dlog({tower.variables[lam - 1]})" for lam in key)
                             or "dlog()"))
        if op == "-":
            coeff = draw.run(lambda: -coeff)
        coeffs[key] = draw.run(lambda: coeffs[key] + coeff) if key in coeffs else coeff
        op = rng.choice("+-")
    n = rng.randint(-1, 8)
    m = n - rng.choice((1, 2, 3, 5, 8, 12, 0))
    draw.emit(f"| window({n}, {m})")

    def built():
        if not chained and all(c.is_zero() for c in coeffs.values()):
            return WindowedForm(LogForm.zero(d, dom, 1), n, m)
        return WindowedForm(LogForm(d, dom, degree, coeffs), n, m)

    return draw, draw.run(built)


def _keys(d: int) -> list:
    keys = [()]
    for level in range(1, d + 1):
        keys += [key + (level,) for key in keys]
    return keys


def test_a_form_literal_reads_as_the_constructors_build_it():
    rng = random.Random(4802)
    tally = {"windowed": 0, "refused": 0, "value": 0}
    for _ in range(DRAWS):
        tower = _tower(rng)
        draw, value = _form_draw(rng, tower)
        want = _expected(draw, value)
        assert _outcome(lambda: parse_windowed_form(draw.text, tower)) == want, draw.text
        kind = "refused" if want[0] == "refusal" else "windowed" if draw.opened else "value"
        tally[kind] += 1
    assert min(tally.values()) >= 40, tally
