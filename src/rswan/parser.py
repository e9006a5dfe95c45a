"""Text form of series, windowed forms and F_p(x) coefficients: one grammar.

Grammar (whitespace-insensitive)::

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := atom ['^' sint]
    atom    := INT | 'g' | NAME | '(' expr ')'
    sint    := ['-'] INT

    form    := ['-'] fterm (('+'|'-') fterm)* '|' 'window' '(' sint ',' sint ')'
    fterm   := term [chain] | chain
    chain   := 'dlog' '(' NAME ')' ('^' 'dlog' '(' NAME ')')*

    ratfunc := expr ['/' expr]

``g`` denotes the fixed multiplicative generator of the coefficient field;
any other NAME must be a variable of the tower.  Multiplication is always
explicit (``2*g*t^-1``).  A rational function is read over the one-variable
tower in ``x``; both sides must be exact polynomials.  The renderers emit a
canonical member of this grammar: monomials sorted by exponents (outermost
variable first), scalar coefficients as polynomials in ``g`` with
nonnegative representatives, parenthesised when they multiply a variable
part.
"""

from __future__ import annotations

import re

from .errors import ParseError, TowerMismatch, UnknownVariable, ZeroInput
from .logdiff import LogForm, WindowedForm
from .ratfunc import RatFuncDomain
from .rsw import RswValue
from .series import NestedSeries
from .tower import FieldTower

__all__ = [
    "parse_series",
    "render_series",
    "parse_windowed_form",
    "render_form",
    "parse_rat_func",
]

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*^()/|,]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", position=pos)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, tower: FieldTower):
        self.tower = tower
        self.domain = tower.field_domain
        self.level = tower.d
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at(self, val: str, kind: str = "op") -> bool:
        tok_kind, tok_val, _ = self.peek()
        return tok_kind == kind and tok_val == val

    def accept(self, op: str) -> bool:
        if self.at(op):
            self.i += 1
            return True
        return False

    def expect(self, val: str, kind: str = "op"):
        if not self.at(val, kind):
            raise ParseError(f"expected {val!r}", position=self.peek()[2])
        return self.advance()

    # ------------------------------------------------------------------
    def parse(self, rule, *args):
        out = rule(self, *args)
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", position=pos)
        return out

    def expr(self) -> NestedSeries:
        negate = self.accept("-")
        acc = self.term()
        if negate:
            acc = -acc
        while self.at("+") or self.at("-"):
            _, op, _ = self.advance()
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> NestedSeries:
        acc = self.factor()
        while self.accept("*"):
            acc = acc * self.factor()
        return acc

    def factor(self) -> NestedSeries:
        base_series, var_level = self.atom()
        pos = self.peek()[2]
        if self.accept("^"):
            n = self.signed_int()
            if var_level is not None:
                exps = tuple(n if j == var_level else 0 for j in range(1, self.level + 1))
                return NestedSeries.from_monomials(self.level, self.domain, [(exps, self.domain.one())])
            try:
                return base_series.pow(n, self.tower.precision)
            except ZeroInput:
                raise ParseError("cannot raise a non-invertible expression to a negative power", position=pos)
        return base_series

    def atom(self):
        """Returns (series, var_level or None); var_level lets ^ build a monomial."""
        kind, val, pos = self.advance()
        if kind == "int":
            return NestedSeries.constant(self.level, self.domain, self.domain.from_int(val)), None
        if kind == "name":
            if val == "g":
                return NestedSeries.constant(self.level, self.domain, self.domain.generator()), None
            try:
                lvl = self.tower.level_of(val)
            except TowerMismatch:
                raise UnknownVariable(f"unknown variable {val!r}", position=pos) from None
            return NestedSeries.variable(self.level, self.domain, lvl), lvl
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect(")")
            return inner, None
        raise ParseError(f"expected a number, name, or '(' (got {val!r})", position=pos)

    def signed_int(self) -> int:
        sign = -1 if self.accept("-") else 1
        kind, val, pos = self.advance()
        if kind != "int":
            raise ParseError("expected an integer", position=pos)
        return sign * val

    # ------------------------------------------------------------ forms
    def form(self) -> WindowedForm:
        coeffs: dict = {}
        op = "-" if self.accept("-") else "+"
        while True:
            pos = self.peek()[2]
            coeff, key = self.fterm()
            if coeffs and len(key) != len(next(iter(coeffs))):
                raise ParseError("mixed-degree terms in one form literal", position=pos)
            if op == "-":
                coeff = -coeff
            coeffs[key] = coeffs[key] + coeff if key in coeffs else coeff
            if not (self.at("+") or self.at("-")):
                break
            _, op, _ = self.advance()
        self.expect("|")
        self.expect("window", "name")
        self.expect("(")
        n = self.signed_int()
        self.expect(",")
        m = self.signed_int()
        self.expect(")")
        degree = len(next(iter(coeffs)))
        if degree == 0 and all(c.is_zero() for c in coeffs.values()):
            return WindowedForm(LogForm.zero(self.level, self.domain, 1), n, m)
        return WindowedForm(LogForm(self.level, self.domain, degree, coeffs), n, m)

    def fterm(self):
        coeff = NestedSeries.one(self.level, self.domain)
        if not self.at("dlog", "name"):
            coeff = self.term()
            if not self.at("dlog", "name"):
                return coeff, ()
        key = [self.dlog()]
        while self.accept("^"):
            key.append(self.dlog())
        if any(b <= a for a, b in zip(key, key[1:])):
            raise ParseError("dlog variables must appear in strictly increasing tower order")
        return coeff, tuple(key)

    def dlog(self) -> int:
        self.expect("dlog", "name")
        self.expect("(")
        kind, val, pos = self.advance()
        if kind != "name":
            raise ParseError("expected a variable name", position=pos)
        self.expect(")")
        return self.tower.level_of(val)

    # ------------------------------------------------- rational functions
    def rat_func(self, domain: RatFuncDomain):
        num = self.polynomial()
        pos = self.peek()[2]
        den = self.polynomial() if self.accept("/") else [1]
        if not any(den):
            raise ParseError("zero denominator in a rational literal", position=pos)
        return domain.from_polys(num, den)

    def polynomial(self) -> list:
        pos = self.peek()[2]
        sr = self.expr()
        if not sr.is_exact() or any(e < 0 for e in sr.coeffs):
            raise ParseError("a rational literal is a quotient of polynomials in x", position=pos)
        coeffs = [0] * (max(sr.coeffs, default=0) + 1)
        for (e,), raw in sr.iter_monomials():
            coeffs[e] = raw
        return coeffs


def parse_series(text: str, tower: FieldTower) -> NestedSeries:
    """Parse ``text`` into a series over ``tower``'s residue field.

    A negative power of a sum opens a window of ``tower.precision`` terms.

    Unknown variable names raise :class:`UnknownVariable`; other syntax
    problems raise :class:`ParseError` with a character position.
    """
    return _Parser(text, tower).parse(_Parser.expr)


def parse_windowed_form(text: str, tower: FieldTower) -> WindowedForm:
    """Inverse of :func:`render_form`.

    A ``dlog`` name outside the tower raises :class:`TowerMismatch`.  A body
    of degree 0 that is zero (such as ``0``) is the zero form, of degree 1;
    a zero body with a ``dlog`` chain is the zero form of the chain's degree.
    """
    return _Parser(text, tower).parse(_Parser.form)


def parse_rat_func(text: str, domain: RatFuncDomain):
    """``"num/den"`` (or just ``"num"``): polynomials in ``x`` over F_p."""
    return _Parser(text, FieldTower(domain.p, 1, 1, ("x",))).parse(_Parser.rat_func, domain)


def _render_monomial(tower: FieldTower, exps, raw) -> str:
    domain = tower.field_domain
    var_bits = []
    for idx in range(tower.d):  # innermost variable first, as in the examples
        e = exps[idx]
        if e == 0:
            continue
        name = tower.variables[idx]
        var_bits.append(name if e == 1 else f"{name}^{e}")
    coeff = domain.render(raw)
    if not var_bits:
        return coeff
    if coeff == "1":
        return "*".join(var_bits)
    if " + " in coeff:
        coeff = f"({coeff})"
    return "*".join([coeff] + var_bits)


def render_series(series: NestedSeries, tower: FieldTower) -> str:
    """Canonical text for the stored support of ``series``.

    Monomials are sorted by exponent vectors, outermost variable first.  A
    finite top-level window is shown as a trailing ``O(T^c)`` marker (the
    marker is informational; :func:`parse_series` reads only exact data).
    """
    if series.level != tower.d or series.domain is not tower.field_domain:
        # Render against the tower the data actually lives in.
        raise ParseError("series does not belong to the given tower")
    monomials = sorted(series.iter_monomials(), key=lambda m: tuple(reversed(m[0])))
    parts = [_render_monomial(tower, exps, raw) for exps, raw in monomials]
    body = " + ".join(parts) if parts else "0"
    if series.ceiling is not None:
        body += f" + O({tower.uniformizer}^{series.ceiling})"
    return body


def render_form(value, tower: FieldTower | None = None) -> str:
    """Canonical text of a windowed form: ``coeff dlog(v)^... | window(n,m)``.

    Accepts an :class:`RswValue` (tower inferred) or a :class:`WindowedForm`
    with an explicit tower.  Terms are ordered by their dlog keys,
    coefficients render in the series-literal grammar (parenthesized when
    they have several terms).  The zero form of degree 1 renders as ``0``;
    one of higher degree as ``0`` times the chain of the first variables,
    such as ``0 dlog(u)^dlog(t)``, so that it parses back at its degree.
    """
    if isinstance(value, RswValue):
        if tower is None:
            tower = value.character.tower
        value = value.window
    if tower is None:
        raise ValueError("render_form needs the tower for variable names")
    form = value.form
    parts = []
    for key in sorted(form.coeffs):
        coeff = form.coeffs[key]
        if coeff.is_zero():
            continue
        text = render_series(coeff, tower)
        dlogs = _dlog_chain(tower, key)
        if not key:
            parts.append(text)
        elif text == "1":
            parts.append(dlogs)
        else:
            if " + " in text:
                text = f"({text})"
            parts.append(f"{text} {dlogs}")
    if not parts and form.degree > 1:
        parts.append(f"0 {_dlog_chain(tower, range(1, form.degree + 1))}")
    body = " + ".join(parts) if parts else "0"
    return f"{body} | window({value.n},{value.m})"


def _dlog_chain(tower: FieldTower, key) -> str:
    return "^".join(f"dlog({tower.variables[lam - 1]})" for lam in key)
