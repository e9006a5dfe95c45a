"""Text form of series: a small expression grammar and a canonical renderer.

Grammar (whitespace-insensitive)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' sint]
    atom   := INT | 'g' | NAME | '(' expr ')'
    sint   := ['-'] INT

``g`` denotes the fixed multiplicative generator of the coefficient field;
any other NAME must be a variable of the tower.  Multiplication is always
explicit (``2*g*t^-1``).  The renderer emits a canonical member of this
grammar: monomials sorted by exponents (outermost variable first), scalar
coefficients as polynomials in ``g`` with nonnegative representatives,
parenthesised when they multiply a variable part.
"""

from __future__ import annotations

import re

from .errors import ParseError, TowerMismatch, UnknownVariable, ZeroInput
from .series import NestedSeries
from .tower import FieldTower

__all__ = ["parse_series", "render_series"]

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*^()]))")


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
        self.text = text
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

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", position=pos)
        return self.advance()

    # ------------------------------------------------------------------
    def parse(self) -> NestedSeries:
        out = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", position=pos)
        return out

    def expr(self) -> NestedSeries:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val == "-":
            self.advance()
            negate = True
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def term(self) -> NestedSeries:
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                acc = acc * self.factor()
            else:
                return acc

    def factor(self) -> NestedSeries:
        base_series, var_level = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
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
            self.expect_op(")")
            return inner, None
        raise ParseError(f"expected a number, name, or '(' (got {val!r})", position=pos)

    def signed_int(self) -> int:
        kind, val, pos = self.advance()
        sign = 1
        if kind == "op" and val == "-":
            sign = -1
            kind, val, pos = self.advance()
        if kind != "int":
            raise ParseError("expected an integer exponent", position=pos)
        return sign * val


def parse_series(text: str, tower: FieldTower) -> NestedSeries:
    """Parse ``text`` into a series over ``tower``'s residue field.

    A negative power of a sum opens a window of ``tower.precision`` terms.

    Unknown variable names raise :class:`UnknownVariable`; other syntax
    problems raise :class:`ParseError` with a character position.
    """
    return _Parser(text, tower).parse()


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
