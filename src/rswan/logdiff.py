"""Logarithmic differential forms over nested series, and their operators.

A degree-``r`` form over a level-``d`` series ring is stored on the basis
``dlog T_{i_1} ^ ... ^ dlog T_{i_r}`` (``i_1 < ... < i_r``), i.e. as a map
from sorted ``r``-subsets of ``{1..d}`` to coefficient series.  Degree-0
forms are plain series under the empty key.

Implemented here: the exterior derivative ``d`` (in the log basis), wedge
products, the Cartier operator on top-degree forms, the one-step residue
``Res`` (coefficient of ``T_d^0 dlog T_d``), the full residue-plus-trace map
to the prime field, windowed forms (classes modulo a power of the maximal
ideal of the top variable), the window collapse ``r_b = C^b(omega_0)``,
and the Gram matrix of the pairing ``(x, y) -> r_b(x ^ y)`` on twisted
monomial bases as sparse ``{column: entry}`` rows (one entry per dlog key
and residue monomial, computed from raw exponents and scalars once per
distinct exponent-sum pattern, each row and its partner column placed by
arithmetic on basis positions), whose invertibility is decided column by
column.  ``r_b`` takes ``C^b`` of the residue slot as ``b`` Cartier roots
of its one coefficient and builds a single form.

Construction
------------
Forms, ``log_derivative`` and ``dlog`` take ``(Z/p^s)[g]/(f)`` scalars:
over ``F_p(x)`` they raise ``TowerMismatch`` (:mod:`rswan.ratfunc`).  The
public constructor ``LogForm(...)`` validates: the degree lies in
``0..level``, every basis key is a sorted tuple of distinct levels of the
right length, and every coefficient is a series over the form's ring.  An
operation on valid forms cannot break any of that, so ``+``, ``-``,
``scale``, ``mul_int``, ``wedge``, ``d``, ``dlog``, ``cartier``,
``residue_step`` and the representative of a :class:`WindowedForm` build
their results through ``_form``, which only drops exactly zero
coefficients (a coefficient zero only within a window stays, as in
``series._make``); the series they build go through ``series._make`` for
the same reason.  Like ``series._make``, ``_form`` fills a private draft
twin of ``LogForm`` (the same ``__slots__``, plain stores) and then
assigns it the public class, so every form it returns is a ``LogForm``
whose ``__setattr__`` and ``__delattr__`` raise (``scalars._Frozen``); the
validating ``__init__``s of ``LogForm`` and :class:`WindowedForm` store
through ``object.__setattr__``.  ``_windowed_form`` wraps, with no
truncation pass, a form whose terms are exact and inside its window
``(n, m)``, ``n > m``: that of the flat path of
:func:`rswan.rsw.rsw_form_at`.

Gram matrices
-------------
:func:`duality_matrix` pairs each basis class with its one partner, so its
Gram matrix holds one entry per row, in distinct columns.  It computes a
class's entry from the raw sign, exponents and scalar through the ``C^b``
walk ``_monomial_root``, and builds no basis form, wedge or ``r_b`` form;
acceptance criterion 4 checks the entries against the operators.  The
entry depends only on the key's sign and the exponent sums, each of which
is 0 or ``p^b``, so within one call the walk runs once per key and
distinct sum pattern, and the classes of a pattern share its entry.  The
walk takes ``C^b`` of one exact monomial over its exponents and raw
scalar (no exponents over one variable, where :func:`r_b` runs it on the
residue, a raw scalar): step ``j`` drops the monomial when ``p^j`` does
not divide one of its exponents, and otherwise roots its scalar; the
exponents are divided once at the end.  It roots the scalar at each step
that reaches it, as ``b`` Cartier steps do, so a lift ring refuses there,
also when an exponent is divisible by ``p`` but not by ``p^b``.

The Gram matrix is a monomial matrix, invertible exactly when each
column's one entry is a unit.  :func:`gram_is_invertible` decides only
that shape and refuses any other with :class:`InconsistentValue`.  It
checks the columns in order and answers ``False`` at the first one that no
row holds or whose entry is an exact zero; an entry zero only within its
window raises :class:`PrecisionExhausted`, since its unknown tail decides.
A series pivot that is the very object checked just before (the classes
of one sum pattern share their entry) is not checked again.
Over a field (the tower's coefficient field, or nested Laurent series over
it) a nonzero entry is a unit and nothing is inverted.  Over a lift ring
``Z/p^s`` with ``s > 1`` a nonzero entry need not be a unit, so each entry
is inverted, which raises on a non-unit.  The general elimination that
decided any sparse matrix stays in the tests as the reference
(``tests/test_logdiff.py::gram_by_elimination``).
"""

from __future__ import annotations

import operator
from itertools import combinations, product

from .errors import (
    DegreeMismatch,
    DegreeOverflow,
    InconsistentValue,
    NotTopDegree,
    PrecisionExhausted,
    TowerMismatch,
    WindowTooWide,
    ZeroInput,
)
from .ratfunc import _algebra_refused
from .scalars import _Frozen, _QuotientDomain, _draft_of
from .series import NestedSeries, _make, _set

__all__ = [
    "LogForm",
    "WindowedForm",
    "d",
    "wedge",
    "dlog",
    "log_derivative",
    "cartier",
    "residue_step",
    "residue_to_prime_field",
    "r_b",
    "minimal_b",
    "wedge_windowed",
    "duality_matrix",
    "gram_is_invertible",
]


def log_derivative(sr: NestedSeries, var_level: int) -> NestedSeries:
    """T d/dT in the level-``var_level`` variable: T^e -> e T^e monomialwise."""
    if var_level < 1 or var_level > sr.level:
        raise TowerMismatch(f"no variable at level {var_level}")
    if not isinstance(sr.domain, _QuotientDomain):
        raise _algebra_refused()
    return _log_derivative(sr, var_level)


def _log_derivative(sr: NestedSeries, var_level: int) -> NestedSeries:
    if sr.level == var_level:
        if sr.level == 1:
            out = {e: sr.domain.mul_int(c, e) for e, c in sr.coeffs.items()}
        else:
            out = {e: c.mul_int(e) for e, c in sr.coeffs.items()}
    else:
        out = {e: _log_derivative(c, var_level) for e, c in sr.coeffs.items()}
    return _make(sr.level, sr.domain, out, sr.ceiling)


def _form(level: int, domain, degree: int, coeffs: dict) -> "LogForm":
    """Trusted constructor for the result of an operation on valid forms
    (module docstring, "Construction"): ``coeffs`` is a new map from sorted
    key tuples to series over the form's ring, which the form keeps when
    none of them is exactly zero; otherwise only those are dropped."""
    for c in coeffs.values():
        if c.is_exact_zero():
            coeffs = {k: c for k, c in coeffs.items() if not c.is_exact_zero()}
            break
    out = _FormDraft()
    out.level = level
    out.domain = domain
    out.degree = degree
    out.coeffs = coeffs
    out.__class__ = LogForm
    return out


class LogForm(_Frozen):
    __slots__ = ("level", "domain", "degree", "coeffs")

    def __init__(self, level: int, domain, degree: int, coeffs: dict):
        if not isinstance(domain, _QuotientDomain):
            raise _algebra_refused()
        if degree < 0 or degree > level:
            raise DegreeOverflow(f"degree {degree} outside 0..{level}")
        clean = {}
        for key, c in coeffs.items():
            key = tuple(key)
            if len(key) != degree or list(key) != sorted(set(key)):
                raise DegreeMismatch(f"bad basis key {key} for degree {degree}")
            if any(i < 1 or i > level for i in key):
                raise TowerMismatch(f"basis key {key} outside levels 1..{level}")
            if not isinstance(c, NestedSeries) or c.level != level or c.domain is not domain:
                raise TowerMismatch("coefficient series does not match the form's ring")
            if c.is_exact_zero():
                continue
            clean[key] = c
        _set(self, "level", level)
        _set(self, "domain", domain)
        _set(self, "degree", degree)
        _set(self, "coeffs", clean)

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, level: int, domain, degree: int) -> "LogForm":
        return cls(level, domain, degree, {})

    @classmethod
    def from_series(cls, sr: NestedSeries) -> "LogForm":
        return cls(sr.level, sr.domain, 0, {(): sr})

    def coefficient(self, key) -> NestedSeries:
        c = self.coeffs.get(tuple(key))
        return NestedSeries.zero(self.level, self.domain) if c is None else c

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs.values())

    def _peer(self, other: "LogForm"):
        if not isinstance(other, LogForm):
            raise TowerMismatch("expected a form")
        if other.level != self.level or other.domain is not self.domain:
            raise TowerMismatch("forms over different rings")

    def __add__(self, other):
        self._peer(other)
        if other.degree != self.degree:
            raise DegreeMismatch("cannot add forms of different degrees")
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out[key] + c if key in out else c
        return _form(self.level, self.domain, self.degree, out)

    def __neg__(self):
        return _form(self.level, self.domain, self.degree, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, sr: NestedSeries) -> "LogForm":
        """Multiply every coefficient by the series ``sr``."""
        return _form(
            self.level, self.domain, self.degree, {k: c * sr for k, c in self.coeffs.items()}
        )

    def mul_int(self, n: int) -> "LogForm":
        return _form(
            self.level, self.domain, self.degree, {k: c.mul_int(n) for k, c in self.coeffs.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, LogForm):
            return NotImplemented
        return (
            self.level == other.level
            and self.domain is other.domain
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.level, id(self.domain), self.degree, tuple(sorted(self.coeffs))))

    def __repr__(self):
        bits = [f"[{','.join(map(str, k))}]: {c!r}" for k, c in sorted(self.coeffs.items())]
        return f"<form deg {self.degree} L{self.level}: " + ("; ".join(bits) or "0") + ">"


_FormDraft = _draft_of(LogForm)


def _merge_sign(a: tuple, b: tuple):
    """Sign of sorting the concatenation a+b; None when an index repeats."""
    if set(a) & set(b):
        return None, ()
    inversions = sum(1 for x in a for y in b if x > y)
    return (-1) ** inversions, tuple(sorted(a + b))


def wedge(alpha: LogForm, beta: LogForm) -> LogForm:
    """Exterior product."""
    alpha._peer(beta)
    degree = alpha.degree + beta.degree
    if degree > alpha.level:
        raise DegreeOverflow(
            f"wedge of degrees {alpha.degree} and {beta.degree} exceeds top degree {alpha.level}"
        )
    out: dict = {}
    for ka, ca in alpha.coeffs.items():
        for kb, cb in beta.coeffs.items():
            sign, key = _merge_sign(ka, kb)
            if sign is None:
                continue
            term = (ca * cb).mul_int(sign)
            out[key] = out[key] + term if key in out else term
    return _form(alpha.level, alpha.domain, degree, out)


def d(omega) -> LogForm:
    """Exterior derivative; accepts a series (degree-0 form) or a LogForm."""
    if isinstance(omega, NestedSeries):
        # d f = sum_i (T_i df/dT_i) dlog T_i, keys (i,) and signs +1
        out = {(i,): log_derivative(omega, i) for i in range(1, omega.level + 1)}
        return _form(omega.level, omega.domain, 1, out)
    if omega.degree >= omega.level:
        raise DegreeOverflow("the derivative of a top-degree form leaves the module")
    out: dict = {}
    for key, c in omega.coeffs.items():
        for i in range(1, omega.level + 1):
            if i in key:
                continue
            dc = log_derivative(c, i)
            if dc.is_exact_zero():
                continue
            sign, new_key = _merge_sign((i,), key)
            term = dc.mul_int(sign)
            out[new_key] = out[new_key] + term if new_key in out else term
    return _form(omega.level, omega.domain, omega.degree + 1, out)


def dlog(f: NestedSeries, precision: int | None = None) -> LogForm:
    """dlog f = df / f as a degree-1 form; f must be invertible.  A series
    zero only within its window raises :class:`PrecisionExhausted`."""
    if f.is_exact_zero():
        raise ZeroInput("dlog of zero")
    if f.is_zero():
        raise PrecisionExhausted("dlog of a series zero within its window", exponent=f.low())
    f_inv = f.inv(precision)
    out = {(i,): log_derivative(f, i) * f_inv for i in range(1, f.level + 1)}
    return _form(f.level, f.domain, 1, out)


# ------------------------------------------------------------------ Cartier

def cartier(omega: LogForm) -> LogForm:
    """Cartier operator on a top-degree form: C(c T^{pe} dlog base) = c^{1/p} T^e dlog base."""
    if omega.degree != omega.level:
        raise NotTopDegree(
            f"Cartier acts on top-degree forms (degree {omega.degree} != {omega.level})"
        )
    key = tuple(range(1, omega.level + 1))
    c = omega.coeffs.get(key)
    coeffs = {} if c is None else {key: c.pth_root(skip_prime_to_p=True)}
    return _form(omega.level, omega.domain, omega.degree, coeffs)


# ------------------------------------------------------------------ residues

def residue_step(omega: LogForm):
    """Coefficient of T_top^0 dlog T_top: a form one level down (a raw scalar
    from level 1)."""
    if omega.degree != omega.level:
        raise NotTopDegree(
            f"residue needs a top-degree form (degree {omega.degree} != {omega.level})"
        )
    level = omega.level
    key = tuple(range(1, level + 1))
    c = omega.coeffs.get(key)
    if level == 1:
        if c is None:
            return omega.domain.zero()
        return c.coefficient(0)
    coeffs = {} if c is None else {key[:-1]: c.coefficient(0)}
    return _form(level - 1, omega.domain, level - 1, coeffs)


def residue_to_prime_field(omega, domain=None) -> int:
    """Iterated residues down the tower, then the trace to the prime field.

    Accepts a top-degree form (over any level) or a raw scalar with its
    ``domain``.  Returns an integer mod p (mod p^s over a lift ring).
    """
    if isinstance(omega, LogForm):
        domain = omega.domain
        cur = omega
        while isinstance(cur, LogForm):
            cur = residue_step(cur)
        raw = cur
    else:
        if domain is None:
            raise TowerMismatch("a raw scalar needs its domain")
        raw = omega
    return domain.trace(raw) % domain.modulus


# ------------------------------------------------------------------ windows

def _window_truncate(sr: NestedSeries, upper: int, lower: int) -> NestedSeries:
    """Canonical representative: stored exponents in [lower, upper), exact."""
    if sr.ceiling is not None and sr.ceiling < upper:
        raise PrecisionExhausted(
            f"series window ends at {sr.ceiling}, below the quotient bound {upper}",
            exponent=sr.ceiling,
        )
    if sr.coeffs and min(sr.coeffs) < lower:
        raise InconsistentValue(
            f"representative has a term of order {min(sr.coeffs)} below the window floor {lower}"
        )
    # a subset of a valid series' terms, with no ceiling left to cut at
    return _make(sr.level, sr.domain, {e: c for e, c in sr.coeffs.items() if e < upper}, None,
                 clean=True)


class WindowedForm(_Frozen):
    """A class in m^{-n}/m^{-m} tensor (degree-``r`` log forms).

    ``m`` is the ideal of the top variable; stored representatives keep the
    top-variable exponents in ``[-n, -m-1]`` and are exact there.
    """

    __slots__ = ("form", "n", "m")

    def __init__(self, form: LogForm, n: int, m: int):
        if n <= m:
            raise InconsistentValue(f"window needs n > m, got ({n}, {m})")
        coeffs = {k: _window_truncate(c, -m, -n) for k, c in form.coeffs.items()}
        _set(self, "form", _form(form.level, form.domain, form.degree, coeffs))
        _set(self, "n", n)
        _set(self, "m", m)

    @property
    def width(self) -> int:
        return self.n - self.m

    def __eq__(self, other):
        if not isinstance(other, WindowedForm):
            return NotImplemented
        return (self.n, self.m) == (other.n, other.m) and self.form == other.form

    def __hash__(self):
        return hash((self.n, self.m, self.form))

    def __repr__(self):
        return f"<windowed ({self.n},{self.m}) {self.form!r}>"


def _windowed_form(form: LogForm, n: int, m: int) -> WindowedForm:
    """Trusted constructor (module docstring, "Construction")."""
    out = object.__new__(WindowedForm)
    _set(out, "form", form)
    _set(out, "n", n)
    _set(out, "m", m)
    return out


def wedge_windowed(x: WindowedForm, y: WindowedForm) -> WindowedForm:
    """Pairing-side wedge: x in m^{-n}/m^{-m}, y in m^{m+1}/m^{n+1} (windows
    (n, m) and (-m-1, -n-1)) land in m^{1-a}/m, window (a-1, -1)."""
    if y.n != -x.m - 1 or y.m != -x.n - 1:
        raise DegreeMismatch(
            f"windows ({x.n},{x.m}) and ({y.n},{y.m}) are not dual to each other"
        )
    return WindowedForm(wedge(x.form, y.form), x.width - 1, -1)


def minimal_b(p: int, a: int) -> int:
    """The smallest b with p^b >= a: the least r_b that collapses width a."""
    b = 0
    while p**b < a:
        b += 1
    return b


def r_b(x: WindowedForm, b: int):
    """Collapse a window (a-1, -1) top form to C^b of its residue slot.

    Returns a top form one level down (a raw scalar over a one-variable
    ring).  Requires p^b >= a = n - m; otherwise the class admits no
    well-defined collapse and :class:`WindowTooWide` is raised.  ``C^b``
    roots the residue slot's coefficient ``b`` times, as ``b`` calls of
    :func:`cartier` would, and builds the form once.
    """
    if x.m != -1:
        raise InconsistentValue(
            f"r_b needs a window of shape (a-1, -1); got ({x.n}, {x.m})"
        )
    form = x.form
    if form.degree != form.level:
        raise NotTopDegree("r_b needs a top-degree windowed form")
    a = x.width
    p = form.domain.p
    if b < 0 or p**b < a:
        raise WindowTooWide(f"p^{b} < {a}: the window is too wide for r_{b}")
    level = form.level
    if level == 1:
        return _monomial_root(form.domain, (), residue_step(form), b)
    c = form.coeffs.get(tuple(range(1, level + 1)))
    coeffs = {}
    if c is not None:
        root = c.coefficient(0)
        for _ in range(b):
            root = root.pth_root(skip_prime_to_p=True)
        coeffs[tuple(range(1, level))] = root
    return _form(level - 1, form.domain, level - 1, coeffs)


def _monomial_root(domain, exps, raw, b: int):
    """``C^b`` of the exact monomial ``raw T^exps`` (exponents from level 1
    up) in one walk: the rooted raw scalar when ``exps`` is empty, else a
    series (module docstring, "Gram matrices")."""
    p, q = domain.p, 1
    for _ in range(b):
        q *= p
        for e in exps:
            if e % q:  # this step drops the monomial
                return NestedSeries.zero(len(exps), domain)
        raw = domain.pth_root(raw)
    for lvl, e in enumerate(exps, 1):
        raw = _make(lvl, domain, {e // q: raw}, None, clean=True)
    return raw


# ---------------------------------------------------------------- duality

def duality_matrix(n: int, m: int, b: int, K, i: int, j: int):
    """Gram matrix of (x, y) -> r_b(x ^ y) on the twisted monomial bases.

    ``x`` runs over the window (n, m) in degree ``j``; ``y`` over the dual
    window (-m-1, -n-1) in degree ``i``; ``i + j`` must be the top degree.
    Entries are the coefficient series of the resulting top form over the
    residue ring (raw scalars when the tower has one variable).  The matrix
    is a list of sparse ``{column: entry}`` rows.  Rows number the basis of
    the window and columns that of the dual window, each in one order: the
    dlog keys (sorted subsets) in ``combinations`` order, then the top
    exponent, lowest first, then the lower exponents, each in
    ``range(p^b)``, in ``product`` order.

    Zero pattern: each row has exactly one nonzero entry, and the rows'
    entries sit in distinct columns.  For ``x = u^alpha t^e dlog_K`` the
    only partner is ``y = u^beta t^f dlog_K'`` with

    * ``K'`` the complement of ``K``, since the wedge kills a repeated dlog;
    * ``f = -e``, since the residue reads the ``t^0`` coefficient;
    * ``beta_l = (-alpha_l) mod p^b`` for every lower variable, since
      ``C^b`` keeps only exponents divisible by ``p^b`` and
      ``alpha_l + beta_l`` lies in ``[0, 2 p^b - 2]``.

    One pairing per class: the partner entry depends on the row's dlog key
    ``K`` and lower exponents ``alpha`` only, not on its top exponent ``e``,
    since

    * ``t^e t^(-e) = t^0`` for every ``e``;
    * the sign of the wedge depends only on ``K`` and its complement;
    * the window ``(a-1, -1)`` and ``r_b`` read only the ``t^0`` slot.

    So the loop runs over the keys ``K``, then the residue monomials
    ``alpha``, then the top exponents ``e``: each ``(K, alpha)`` class has
    one entry, stored in the partner column of each of the class's
    ``a = n - m`` rows, the row's only entry.  No form is built: the sign
    ``sgn(K, K')`` of :func:`_merge_sign` becomes a raw scalar once per
    key, and the exponent sums ``alpha_l + beta_l`` and that scalar go
    through the ``C^b`` walk ``_monomial_root`` (module docstring, "Gram
    matrices").  Each sum is 0 when ``alpha_l = 0`` and ``p^b`` otherwise,
    so a key has at most ``min(2, p^b)^(d-1)`` sum patterns: a table kept
    for the key within this call walks each pattern once, and every class
    of the pattern stores that one immutable entry.  That is the value of
    ``r_b(wedge_windowed(x, y), b)``: the wedge of the two basis monomials
    has the residue slot ``sgn(K, K') T^(alpha + beta)``, and
    ``K.field_domain`` is always ``F_q``, so no root refuses as it would
    over a lift ring.  Each entry is ``sgn(K, K') T^delta`` with
    ``delta_l = 1`` exactly when ``alpha_l != 0``, which the tests keep as
    an oracle.

    Rows and columns are placed by their position in that order, with
    ``P = p^(b(d-1))`` residue monomials per top exponent:

    * row ``idx(K)·a·P + (e + n)·P + idx(alpha)``;
    * column ``idx(K')·a·P + (-e - m - 1)·P + idx(beta)``;

    where ``idx`` is the position in ``combinations`` order (keys) or
    ``product`` order (residue monomials).  The complements list the
    degree-``i`` keys in the reverse order of the degree-``j`` keys, so
    ``idx(K') = comb(d, j) - 1 - idx(K)``.
    """
    level = K.d
    domain = K.field_domain
    if i + j != level:
        raise DegreeMismatch(f"degrees {i} + {j} != top degree {level}")
    a = n - m
    if a < 1:
        raise InconsistentValue("empty window")
    if b < 0 or domain.p**b < a:
        raise WindowTooWide(f"p^{b} < {a}: the window is too wide for r_{b}")
    pb = domain.p**b
    block = pb ** (level - 1)  # residue monomials per top exponent
    keys = list(combinations(range(1, level + 1), j))
    rows = [None] * (len(keys) * a * block)
    for key_pos, key in enumerate(keys):
        partner_key = tuple(v for v in range(1, level + 1) if v not in key)
        sign = _merge_sign(key, partner_key)[0]
        raw = domain.one() if sign == 1 else domain.from_int(sign)
        row_base = key_pos * a * block
        col_base = (len(keys) - 1 - key_pos) * a * block
        entries = {}  # exponent sums -> entry: one walk per pattern
        for alpha_pos, alpha in enumerate(product(range(pb), repeat=level - 1)):
            beta = tuple(-e % pb for e in alpha)
            beta_pos = 0
            for e in beta:
                beta_pos = beta_pos * pb + e
            sums = tuple(map(operator.add, alpha, beta))
            entry = entries.get(sums)
            if entry is None:
                entry = entries[sums] = _monomial_root(domain, sums, raw, b)
            for e in range(-n, -m):
                rows[row_base + (e + n) * block + alpha_pos] = {
                    col_base + (-e - m - 1) * block + beta_pos: entry
                }
    return rows


def gram_is_invertible(rows, domain=None, precision: int | None = None) -> bool:
    """Whether a Gram matrix of sparse ``{column: entry}`` rows is
    invertible; entries are series, or raw scalars of ``domain``.

    Each row holds at most one stored entry, and no two rows hold one
    column: the shape :func:`duality_matrix` builds.  Any other shape
    raises :class:`InconsistentValue`.  The columns are checked in order
    (module docstring, "Gram matrices"): a column that no row holds, an
    exactly zero entry or a column outside ``range(len(rows))`` gives
    ``False``; an entry zero only within its window raises
    :class:`PrecisionExhausted`; over a lift ring each entry is inverted.
    """
    size = len(rows)
    if size == 0:
        return True
    first = next((v for row in rows for v in row.values()), None)
    if first is None:
        return False
    series = isinstance(first, NestedSeries)
    if not series and domain is None:
        raise TowerMismatch("raw-scalar matrices need their domain")
    # over a field a nonzero entry is a unit (module docstring, "Gram matrices")
    lift = getattr(first.domain if series else domain, "s", 1) > 1
    columns = range(size)
    pivots = [None] * size
    outside = False
    for row in rows:
        if len(row) > 1:
            raise InconsistentValue("a Gram row holds more than one entry")
        for c, v in row.items():
            if c not in columns:
                outside = True
            elif pivots[c] is not None:
                raise InconsistentValue(f"two Gram rows hold column {c}")
            else:
                pivots[c] = v
    if outside:
        return False
    last = None
    for v in pivots:
        if v is None:
            return False
        if series:
            if v is last:
                continue
            last = v
            if v.is_exact_zero():
                return False
            if v.is_zero():
                raise PrecisionExhausted(
                    "pivot is zero within its window; rank is ambiguous", exponent=v.low()
                )
            if lift:
                v.inv(precision)
        elif domain.is_zero(v):
            return False
        elif lift:
            domain.inv(v)
    return True
