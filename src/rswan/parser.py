"""Text form of series, windowed forms and F_p(x) coefficients: one grammar.

Grammar (whitespace-insensitive)::

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := atom ['^' sint]
    atom    := INT | 'g' | NAME | '(' expr ')'
    sint    := ['-'] INT

    form    := ['-'] fterm (('+'|'-') fterm)* '|' 'window' '(' sint ',' sint ')'
    fterm   := term [chain] | chain
    chain   := 'dlog' '(' NAME ')' ('^' 'dlog' '(' NAME ')')* | 'dlog' '(' ')'

    ratfunc := expr ['/' expr]

``g`` denotes the fixed multiplicative generator of the coefficient field;
any other NAME must be a variable of the tower.  Multiplication is always
explicit (``2*g*t^-1``).  A rational function is read over the one-variable
tower in ``x``; both sides must be exact polynomials.  The renderers emit a
canonical member of this grammar: monomials sorted by exponents (outermost
variable first), scalar coefficients as polynomials in ``g`` with
nonnegative representatives, parenthesised when they multiply a variable
part.

Reading
-------
One regex pass splits a literal into token strings; the character
positions that error messages carry are worked out again only when a
literal is refused.  The grammar is evaluated on monomial maps ``{exps:
raw}`` (``exps[i]`` the exponent of the level-``i+1`` variable, no zero
raw stored): ``term`` multiplies maps and ``expr`` sums them.  A
coefficient becomes a series once, at the end, through ``series._exact``;
a form is built by ``logdiff._form`` and cut to its window by
:class:`~rswan.logdiff.WindowedForm`.

A window opens only where a sum of several terms is raised to a negative
power: that subexpression becomes a series, ``x.pow(n, tower.precision)``,
and everything it meets from there on is series arithmetic.  A positive
power of a sum also runs on the series kernels and comes back as a map,
since it stays exact.

The refusals are those of the series arithmetic, in the order the parse
meets them.  A negative power of zero is the "non-invertible"
:class:`ParseError` at its ``^``.  A variable power below the supported
range raises :class:`ExponentOutOfRange` as it is read; a product, power
or inverse whose map leaves that range is done again on series, which
raises as it would have.  The window's own checks (``n > m``, the
representative's floor and, for a series coefficient, its ceiling) run
last, in :class:`~rswan.logdiff.WindowedForm`.
"""

from __future__ import annotations

import re

from .errors import ParseError, TowerMismatch, UnknownVariable, ZeroInput
from .logdiff import LogForm, WindowedForm, _form
from .ratfunc import RatFuncDomain
from .rsw import RswValue
from .scalars import power
from .series import _ORD_FLOOR, NestedSeries, _exact, _refuse_below_floor
from .tower import FieldTower

__all__ = [
    "parse_series",
    "render_series",
    "parse_windowed_form",
    "render_form",
    "parse_rat_func",
]

# a name is tried first; \S is an operator once _STRAY has found nothing
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|\S")
# a character that starts no token
_STRAY = re.compile(r"[^\s\dA-Za-z_+\-*^()/|,]")
_OPS = frozenset("+-*^()/|,")


def _tokenize(text: str) -> list:
    """The token strings of ``text``, then ``""`` for the end."""
    if _STRAY.search(text):
        _positions(text)  # raises at the first stray character
    tokens = _TOKEN.findall(text)
    tokens.append("")
    return tokens


def _positions(text: str) -> list:
    """The start of every token of ``text``, then ``len(text)`` for the
    end.  A stray character raises, at the end of the token before it.
    Only a refusal needs them."""
    stray = _STRAY.search(text)
    end = len(text) if stray is None else stray.start()
    starts, last = [], 0
    for m in _TOKEN.finditer(text, 0, end):
        starts.append(m.start())
        last = m.end()
    if stray is not None:
        raise ParseError(f"unexpected character {text[end]!r}", position=last)
    starts.append(end)
    return starts


class _Reader:
    """Recursive descent over the tokens of one literal (module docstring,
    "Reading").  A value is a monomial map or, past a window, a series."""

    def __init__(self, text: str, tower: FieldTower):
        self.text = text
        self.tower = tower
        self.domain = domain = tower.field_domain
        self.variables = tower.variables
        self.level = len(self.variables)
        self.tokens = _tokenize(text)
        self.i = 0
        self.zero = domain.zero()
        self.one = domain.one()
        self.origin = (0,) * self.level

    def position(self, index: int) -> int:
        return _positions(self.text)[index]

    def accept(self, token: str) -> bool:
        if self.tokens[self.i] == token:
            self.i += 1
            return True
        return False

    def expect(self, *expected: str):
        """Read the tokens ``expected``, in order."""
        tokens, i = self.tokens, self.i
        for token in expected:
            if tokens[i] != token:
                raise ParseError(f"expected {token!r}", position=self.position(i))
            i += 1
        self.i = i

    def parse(self, rule, *args):
        out = rule(self, *args)
        token = self.tokens[self.i]
        if token:
            shown = int(token) if token.isdecimal() else token
            raise ParseError(f"unexpected trailing input {shown!r}", position=self.position(self.i))
        return out

    # ------------------------------------------------------------- values
    def series(self, value) -> NestedSeries:
        """``value`` as a series: a map is built through ``series._exact``."""
        if type(value) is not dict:
            return value
        return _exact(self.level, self.domain, value)

    def plus(self, a, b):
        if type(a) is not dict or type(b) is not dict:
            return self.series(a) + self.series(b)
        add, zero = self.domain.add, self.zero
        out = dict(a)
        for e, c in b.items():
            if e in out:
                c = add(out[e], c)
                if c == zero:
                    del out[e]
                    continue
            out[e] = c
        return out

    def negate(self, a):
        if type(a) is not dict:
            return -a
        neg = self.domain.neg
        return {e: neg(c) for e, c in a.items()}

    def times(self, a, b):
        if type(a) is not dict or type(b) is not dict:
            return self.series(a) * self.series(b)
        mul, add = self.domain.mul, self.domain.add
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple([x + y for x, y in zip(ea, eb)])
                c = mul(ca, cb)
                out[e] = add(out[e], c) if e in out else c
        if len(out) < len(a) * len(b):  # terms collided: some may cancel
            zero = self.zero
            out = {e: c for e, c in out.items() if c != zero}
        # not a refusal of its own: a map that leaves the range is multiplied
        # again on series, which raises where and as it always has
        if out and min(map(min, out)) < _ORD_FLOOR:
            return self.series(a) * self.series(b)
        return out

    def raised(self, base, n: int, caret: int):
        """``base^n``, ``caret`` the index of the ``^`` token."""
        if type(base) is dict:
            if n == 0:
                return {self.origin: self.one}
            if n > 0 and len(base) < 2:
                return power(base, n, self.times)
            if n < 0 and len(base) == 1:
                ((exps, c),) = base.items()
                exps = tuple([-e for e in exps])
                if min(exps) >= _ORD_FLOOR:  # else the series inverse raises below
                    return power({exps: self.domain.inv(c)}, -n, self.times)
        try:
            out = self.series(base).pow(n, self.tower.precision)
        except ZeroInput:
            raise ParseError("cannot raise a non-invertible expression to a negative power",
                             position=self.position(caret)) from None
        if type(base) is dict and n > 0:  # a positive power of an exact sum is exact
            return dict(out.iter_monomials())
        return out

    # ------------------------------------------------------------- series
    def expr(self):
        tokens = self.tokens
        negate = self.accept("-")
        acc = self.term()
        if negate:
            acc = self.negate(acc)
        while True:
            op = tokens[self.i]
            if op != "+" and op != "-":
                return acc
            self.i += 1
            rhs = self.term()
            acc = self.plus(acc, rhs if op == "+" else self.negate(rhs))

    def term(self):
        acc = self.factor()
        while self.tokens[self.i] == "*":
            self.i += 1
            acc = self.times(acc, self.factor())
        return acc

    def factor(self):
        tokens = self.tokens
        token = tokens[self.i]
        self.i += 1
        if token in self.variables:  # a variable: its power is one monomial
            n = 1
            if tokens[self.i] == "^":
                self.i += 1
                n = self.signed_int()
                _refuse_below_floor(n)
            exps = list(self.origin)
            exps[self.variables.index(token)] = n
            return {tuple(exps): self.one}
        base = self.atom(token)
        caret = self.i
        if tokens[caret] != "^":
            return base
        self.i += 1
        return self.raised(base, self.signed_int(), caret)

    def atom(self, token: str):
        """The value of the atom ``token`` (just read), a variable aside."""
        if token.isdecimal():
            raw = self.domain.from_int(int(token))
            return {} if raw == self.zero else {self.origin: raw}
        if token == "g":
            return {self.origin: self.domain.generator()}
        if token == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if token and token not in _OPS:
            raise UnknownVariable(f"unknown variable {token!r}", position=self.position(self.i - 1))
        raise ParseError(f"expected a number, name, or '(' (got {token!r})",
                         position=self.position(self.i - 1))

    def signed_int(self) -> int:
        tokens, i = self.tokens, self.i
        sign = 1
        if tokens[i] == "-":
            sign, i = -1, i + 1
        token = tokens[i]
        self.i = i + 1
        if not token.isdecimal():
            raise ParseError("expected an integer", position=self.position(i))
        return sign * int(token)

    # ------------------------------------------------------------ forms
    def form(self) -> WindowedForm:
        tokens = self.tokens
        coeffs: dict = {}
        chained = False
        op = "-" if self.accept("-") else "+"
        while True:
            start = self.i
            coeff, key = self.fterm()
            chained = chained or key is not None
            key = key or ()
            if coeffs and len(key) != len(next(iter(coeffs))):
                raise ParseError("mixed-degree terms in one form literal",
                                 position=self.position(start))
            if op == "-":
                coeff = self.negate(coeff)
            coeffs[key] = self.plus(coeffs[key], coeff) if key in coeffs else coeff
            op = tokens[self.i]
            if op != "+" and op != "-":
                break
            self.i += 1
        self.expect("|", "window", "(")
        n = self.signed_int()
        self.expect(",")
        m = self.signed_int()
        self.expect(")")
        return self.windowed(coeffs, chained, n, m)

    def windowed(self, coeffs: dict, chained: bool, n: int, m: int) -> WindowedForm:
        """The form of the coefficients ``{key: value}`` in the window ``(n, m)``."""
        level, domain = self.level, self.domain
        if not chained and all(not c if type(c) is dict else c.is_zero() for c in coeffs.values()):
            return WindowedForm(LogForm.zero(level, domain, 1), n, m)
        series = {key: self.series(c) for key, c in coeffs.items()}
        return WindowedForm(_form(level, domain, len(next(iter(coeffs))), series), n, m)

    def fterm(self):
        """(coefficient, dlog key); the key is None for a term without a
        chain and () for the empty chain ``dlog()``."""
        tokens = self.tokens
        if tokens[self.i] != "dlog":
            coeff = self.term()
            if tokens[self.i] != "dlog":
                return coeff, None
        else:
            coeff = {self.origin: self.one}
        first = self.dlog()
        if first is None:
            return coeff, ()
        key = [first]
        while self.accept("^"):
            key.append(self.dlog())
        if None in key:
            raise ParseError("the empty chain dlog() stands alone")
        if any(b <= a for a, b in zip(key, key[1:])):
            raise ParseError("dlog variables must appear in strictly increasing tower order")
        return coeff, tuple(key)

    def dlog(self) -> int | None:
        """The level of ``dlog(NAME)``, or None for the empty ``dlog()``."""
        self.expect("dlog", "(")
        tokens, i = self.tokens, self.i
        token = tokens[i]
        self.i = i + 1
        if token == ")":
            return None
        if not token or token in _OPS or token.isdecimal():
            raise ParseError("expected a variable name", position=self.position(i))
        self.expect(")")
        return self.tower.level_of(token)

    # ------------------------------------------------- rational functions
    def rat_func(self, domain: RatFuncDomain):
        num = self.polynomial()
        slash = self.i
        den = self.polynomial() if self.accept("/") else [1]
        if not any(den):
            raise ParseError("zero denominator in a rational literal", position=self.position(slash))
        return domain.from_polys(num, den)

    def polynomial(self) -> list:
        start = self.i
        value = self.expr()
        if type(value) is not dict:
            value = dict(value.iter_monomials()) if value.is_exact() else None
        if value is None or any(e < 0 for (e,) in value):
            raise ParseError("a rational literal is a quotient of polynomials in x",
                             position=self.position(start))
        coeffs = [0] * (max(value, default=(0,))[0] + 1)
        for (e,), raw in value.items():
            coeffs[e] = raw
        return coeffs


def parse_series(text: str, tower: FieldTower) -> NestedSeries:
    """Parse ``text`` into a series over ``tower``'s residue field.

    A negative power of a sum opens a window of ``tower.precision`` terms.

    Unknown variable names raise :class:`UnknownVariable`; other syntax
    problems raise :class:`ParseError` with a character position.
    """
    reader = _Reader(text, tower)
    return reader.series(reader.parse(_Reader.expr))


def parse_windowed_form(text: str, tower: FieldTower) -> WindowedForm:
    """Inverse of :func:`render_form`.

    A ``dlog`` name outside the tower raises :class:`TowerMismatch`.  A zero
    body without a ``dlog`` chain (such as ``0``) is the zero form of
    degree 1; a zero body with a chain is the zero form of the chain's
    degree, and ``0 dlog()``, with the empty chain, is the one of degree 0.
    """
    return _Reader(text, tower).parse(_Reader.form)


def parse_rat_func(text: str, domain: RatFuncDomain):
    """``"num/den"`` (or just ``"num"``): polynomials in ``x`` over F_p."""
    return _Reader(text, FieldTower(domain.p, 1, 1, ("x",))).parse(_Reader.rat_func, domain)


def _render_monomial(names, exps, coeff: str) -> str:
    """``coeff`` times the variables ``names`` to the powers ``exps``."""
    # innermost variable first, as in the examples
    var_bits = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
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
    domain = tower.field_domain
    if series.level != tower.d or series.domain is not domain:
        # Render against the tower the data actually lives in.
        raise ParseError("series does not belong to the given tower")
    names, render = tower.variables, domain.render
    # iter_monomials walks each level's exponents in order, the top level's
    # first: the order of the exponent vectors read outermost variable first
    parts = [_render_monomial(names, exps, render(raw)) for exps, raw in series.iter_monomials()]
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
    one of another degree as ``0`` times the chain of the first variables,
    such as ``0 dlog(u)^dlog(t)``, or the empty chain ``0 dlog()`` at
    degree 0, so that it parses back at its degree.
    """
    if isinstance(value, RswValue):
        if tower is None:
            tower = value.character.tower
        value = value.window
    if tower is None:
        raise TowerMismatch("render_form needs the tower for variable names")
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
    if not parts and form.degree != 1:
        parts.append(f"0 {_dlog_chain(tower, range(1, form.degree + 1)) or 'dlog()'}")
    body = " + ".join(parts) if parts else "0"
    return f"{body} | window({value.n},{value.m})"


def _dlog_chain(tower: FieldTower, key) -> str:
    return "^".join(f"dlog({tower.variables[lam - 1]})" for lam in key)
