"""Logarithmic differential forms over nested series, and their operators.

A degree-``r`` form over a level-``d`` series ring is stored on the basis
``dlog T_{i_1} ^ ... ^ dlog T_{i_r}`` (``i_1 < ... < i_r``), i.e. as a map
from sorted ``r``-subsets of ``{1..d}`` to coefficient series.  Degree-0
forms are plain series under the empty key.

Implemented here: the exterior derivative ``d`` (in the log basis), wedge
products, the Cartier operator on top-degree forms, the one-step residue
``Res`` (coefficient of ``T_d^0 dlog T_d``), the full residue-plus-trace map
to the prime field (also of a form scaled by a series, without the
product: :func:`residue_of_product`), windowed forms (classes modulo a
power of the maximal ideal of the top variable), the window collapse
``r_b = C^b(omega_0)``, and the Gram matrix of the pairing
``(x, y) -> r_b(x ^ y)`` on twisted monomial bases as sparse
``{column: entry}`` rows (one pairing per dlog key and residue monomial),
with exact sparse elimination over a column index to decide
invertibility.

Construction
------------
The public constructor ``LogForm(...)`` validates: the degree lies in
``0..level``, every basis key is a sorted tuple of distinct levels of the
right length, and every coefficient is a series over the form's ring.  An
operation on valid forms cannot break any of that, so ``+``, ``-``,
``scale``, ``mul_int``, ``wedge``, ``d``, ``dlog``, ``cartier``,
``residue_step``, ``scale_windowed`` and the representative of a
:class:`WindowedForm` build their results through ``_form``, which only
drops exactly zero coefficients (a coefficient zero only within a window
stays, as in ``series._make``); the series they build go through
``series._make`` for the same reason.  A windowed form whose representative
already lies in its window and is exact there (a basis monomial, a scaled
representative) is stored without truncating it again.

The Gram elimination checks every pivot (a pivot zero only within its
window raises), but inverts one only when another remaining row holds its
column.  Over a field (the tower's coefficient field, ``F_p(x)``, or nested
Laurent series over either) a nonzero entry is a unit, so a pivot that no
row is reduced by decides nothing beyond being nonzero, and a
partner-matched Gram (one entry per row, in distinct columns) is decided
without any inverse.  Over a lift ring ``Z/p^s`` with ``s > 1`` a nonzero
entry need not be a unit, so every pivot is still inverted there, which
raises on a non-unit.
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
from .scalars import _QuotientDomain
from .series import _ORD_FLOOR, NestedSeries, _make, _new, _set

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
    "residue_of_product",
    "r_b",
    "minimal_b",
    "wedge_windowed",
    "scale_windowed",
    "duality_matrix",
    "gram_is_invertible",
    "window_basis",
]


def log_derivative(sr: NestedSeries, var_level: int) -> NestedSeries:
    """T d/dT in the level-``var_level`` variable: T^e -> e T^e monomialwise."""
    if var_level < 1 or var_level > sr.level:
        raise TowerMismatch(f"no variable at level {var_level}")
    if sr.level == var_level:
        if sr.level == 1:
            out = {e: sr.domain.mul_int(c, e) for e, c in sr.coeffs.items()}
        else:
            out = {e: c.mul_int(e) for e, c in sr.coeffs.items()}
    else:
        out = {e: log_derivative(c, var_level) for e, c in sr.coeffs.items()}
    return _make(sr.level, sr.domain, out, sr.ceiling)


def _form(level: int, domain, degree: int, coeffs: dict) -> "LogForm":
    """Trusted constructor for the result of an operation on valid forms
    (module docstring, "Construction"): ``coeffs`` maps sorted key tuples to
    series over the form's ring, and only its exactly zero coefficients are
    dropped."""
    out = _new(LogForm)
    _set(out, "level", level)
    _set(out, "domain", domain)
    _set(out, "degree", degree)
    _set(out, "coeffs", {k: c for k, c in coeffs.items() if not c.is_exact_zero()})
    return out


class LogForm:
    __slots__ = ("level", "domain", "degree", "coeffs")

    def __init__(self, level: int, domain, degree: int, coeffs: dict):
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

    def __setattr__(self, *a):
        raise AttributeError("forms are immutable")

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

    def agrees_with(self, other: "LogForm") -> bool:
        self._peer(other)
        if other.degree != self.degree:
            return False
        for key in set(self.coeffs) | set(other.coeffs):
            if not self.coefficient(key).agrees_with(other.coefficient(key)):
                return False
        return True

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


def _merge_sign(a: tuple, b: tuple):
    """Sign of sorting the concatenation a+b; None when an index repeats."""
    if set(a) & set(b):
        return None, ()
    inversions = sum(1 for x in a for y in b if x > y)
    return (-1) ** inversions, tuple(sorted(a + b))


def wedge(alpha: LogForm, beta: LogForm) -> LogForm:
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
    """dlog f = df / f as a degree-1 form; f must be invertible."""
    if f.is_zero():
        raise ZeroInput("dlog of zero")
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


def residue_of_product(omega: LogForm, g: NestedSeries) -> int:
    """``residue_to_prime_field(omega.scale(g))``, without the product.

    The residue reads one coefficient at each level: the ``T_l^0`` slot of
    a sum of products ``a_j b_j`` is the sum of the products of the slots
    whose exponents cancel, ``a_j[e] b_j[-e]``.  So the pairs are followed
    down the tower from ``(c, g)``, with ``c`` the top coefficient of
    ``omega``, and only the last level's scalars are multiplied.

    The refusals are those of the product.  At each level the slot's sum
    has the least ceiling of its products, and a product ``a b`` has the
    ceiling ``min(ceil(a) + low(b), ceil(b) + low(a))`` (``NestedSeries``
    multiplication); a ceiling at or below 0 raises the
    :class:`PrecisionExhausted` of ``coefficient(0)``.  A slot that the
    product drops as an exact zero has only exact pairs below it, so
    following them changes no refusal.  Anything else goes through the
    product itself: a form that is not top-degree, a ``g`` over another
    ring, and exponent sums that could reach below the supported range
    (where the product raises :class:`ExponentOutOfRange`).
    """
    c = omega.coeffs.get(tuple(range(1, omega.level + 1)))
    if (c is None or omega.degree != omega.level or not isinstance(g, NestedSeries)
            or g.level != omega.level or g.domain is not omega.domain
            or _may_leave_the_floor(c, g)):
        return residue_to_prime_field(omega.scale(g))
    domain = omega.domain
    pairs = [(c, g)]
    for level in range(omega.level, 0, -1):
        least = None
        for a, b in pairs:
            for ceiling in (None if a.ceiling is None else a.ceiling + b.low(),
                            None if b.ceiling is None else b.ceiling + a.low()):
                if ceiling is not None and (least is None or ceiling < least):
                    least = ceiling
        if least is not None and least <= 0:
            raise PrecisionExhausted(
                f"coefficient at exponent 0 is beyond the window ceiling {least}", exponent=0
            )
        if level > 1:
            pairs = [(a.coeffs[e], b.coeffs[-e]) for a, b in pairs for e in a.coeffs
                     if -e in b.coeffs]
    if isinstance(domain, _QuotientDomain) and domain.k == 1:
        raw = sum(x * b.coeffs[-e] for a, b in pairs for e, x in a.coeffs.items()
                  if -e in b.coeffs) % domain.modulus
    else:
        raw = domain.zero()
        for a, b in pairs:
            for e, x in a.coeffs.items():
                if -e in b.coeffs:
                    raw = domain.add(raw, domain.mul(x, b.coeffs[-e]))
    return domain.trace(raw) % domain.modulus


def _may_leave_the_floor(a: NestedSeries, b: NestedSeries) -> bool:
    """Whether some level's least exponents of ``a`` and ``b`` sum below the
    supported range, so that their product may raise."""
    lows_a, lows_b = _level_lows(a, {}), _level_lows(b, {})
    return any(lows_a[level] + lows_b[level] < _ORD_FLOOR
               for level in lows_a.keys() & lows_b.keys())


def _level_lows(sr: NestedSeries, lows: dict) -> dict:
    """``{level: least stored exponent}`` over every level of ``sr``."""
    if sr.coeffs:
        low = min(sr.coeffs)
        if sr.level not in lows or low < lows[sr.level]:
            lows[sr.level] = low
        if sr.level > 1:
            for c in sr.coeffs.values():
                _level_lows(c, lows)
    return lows


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


class WindowedForm:
    """A class in m^{-n}/m^{-m} tensor (degree-``r`` log forms).

    ``m`` is the ideal of the top variable; stored representatives keep the
    top-variable exponents in ``[-n, -m-1]`` and are exact there.
    """

    __slots__ = ("form", "n", "m")

    def __init__(self, form: LogForm, n: int, m: int):
        if n <= m:
            raise InconsistentValue(f"window needs n > m, got ({n}, {m})")
        coeffs = {k: _window_truncate(c, -m, -n) for k, c in form.coeffs.items()}
        _windowed(_form(form.level, form.domain, form.degree, coeffs), n, m, self)

    def __setattr__(self, *a):
        raise AttributeError("windowed forms are immutable")

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


def _windowed(form: LogForm, n: int, m: int, out=None) -> WindowedForm:
    """Trusted constructor: ``form`` is already a representative of the
    window ``(n, m)``, exact with top exponents in ``[-n, -m)``."""
    if out is None:
        out = _new(WindowedForm)
    _set(out, "form", form)
    _set(out, "n", n)
    _set(out, "m", m)
    return out


def scale_windowed(x: WindowedForm, c_raw, power: int = 1) -> WindowedForm:
    """Act by the residue constant c through the degree-``p^power`` twist:
    multiply the representative by the constant c^(p^power)."""
    form = x.form
    scalar = form.domain.pow(c_raw, form.domain.p**power)
    # a constant multiple of the representative is still one
    coeffs = {k: s.scalar_mul(scalar) for k, s in form.coeffs.items()}
    return _windowed(_form(form.level, form.domain, form.degree, coeffs), x.n, x.m)


def wedge_windowed(x: WindowedForm, y: WindowedForm) -> WindowedForm:
    """Pairing-side wedge: x in m^{-n}/m^{-m}, y in m^{m+1}/m^{n+1} (windows
    (n, m) and (-m-1, -n-1)) land in m^{1-a}/m, window (a-1, -1)."""
    if y.n != -x.m - 1 or y.m != -x.n - 1:
        raise DegreeMismatch(
            f"windows ({x.n},{x.m}) and ({y.n},{y.m}) are not dual to each other"
        )
    a = x.width
    return WindowedForm(wedge(x.form, y.form), a - 1, -1)


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
    well-defined collapse and :class:`WindowTooWide` is raised.
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
    omega0 = residue_step(form)
    if isinstance(omega0, LogForm):
        for _ in range(b):
            omega0 = cartier(omega0)
        return omega0
    raw = omega0
    for _ in range(b):
        raw = form.domain.pth_root(raw)
    return raw


# ---------------------------------------------------------------- duality

def _basis_monomials(level: int, degree: int, n: int, m: int, lower_bound: int):
    """The ``(key, exponents)`` of :func:`window_basis`, in its order."""
    for key in combinations(range(1, level + 1), degree):
        for top_e in range(-n, -m):
            for lower in product(range(lower_bound), repeat=level - 1):
                yield key, lower + (top_e,)


def _basis_form(level: int, domain, key, exps, n: int, m: int) -> WindowedForm:
    """The basis form ``T^exps dlog_key``; its top exponent lies in
    ``[-n, -m)`` (:func:`_basis_monomials`), so it is its own representative."""
    mono = domain.one()
    for lvl, e in enumerate(exps, 1):
        mono = _make(lvl, domain, {e: mono}, None, clean=True)
    return _windowed(_form(level, domain, len(key), {key: mono}), n, m)


def window_basis(level: int, domain, degree: int, n: int, m: int, b: int):
    """Monomial basis of m^{-n}/m^{-m} tensor degree-``degree`` forms, as a
    twisted vector space over the residue ring: top exponents -n..-m-1,
    one dlog key per sorted subset, residue monomials with exponents
    0..p^b-1 in each lower variable."""
    return [
        _basis_form(level, domain, key, exps, n, m)
        for key, exps in _basis_monomials(level, degree, n, m, domain.p**b)
    ]


def duality_matrix(n: int, m: int, b: int, K, i: int, j: int):
    """Gram matrix of (x, y) -> r_b(x ^ y) on the twisted monomial bases.

    ``x`` runs over the window (n, m) in degree ``j``; ``y`` over the dual
    window (-m-1, -n-1) in degree ``i``; ``i + j`` must be the top degree.
    Entries are the coefficient series of the resulting top form over the
    residue ring (raw scalars when the tower has one variable).  The matrix
    is a list of sparse ``{column: entry}`` rows, columns numbered in
    :func:`window_basis` order of the dual window.

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

    So the pairing is evaluated once per ``(K, alpha)``, through
    :func:`wedge_windowed` and :func:`r_b`, and its value is stored in the
    partner column of each of the class's ``a = n - m`` rows, the row's
    only entry.
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
    columns = {
        monomial: col
        for col, monomial in enumerate(_basis_monomials(level, i, -m - 1, -n - 1, pb))
    }
    res_key = tuple(range(1, level))
    pairings = {}
    rows = []
    for key, exps in _basis_monomials(level, j, n, m, pb):
        partner_key = tuple(v for v in range(1, level + 1) if v not in key)
        partner_exps = tuple(-e % pb for e in exps[:-1]) + (-exps[-1],)
        cls = key, exps[:-1]
        if cls not in pairings:
            x = _basis_form(level, domain, key, exps, n, m)
            y = _basis_form(level, domain, partner_key, partner_exps, -m - 1, -n - 1)
            val = r_b(wedge_windowed(x, y), b)
            pairings[cls] = val.coefficient(res_key) if isinstance(val, LogForm) else val
        rows.append({columns[partner_key, partner_exps]: pairings[cls]})
    return rows


def gram_is_invertible(rows, domain=None, precision: int | None = None) -> bool:
    """Exact sparse elimination of sparse ``{column: entry}`` rows; entries
    are series or raw scalars.

    The rows are copied without their exact zeros, beside an index from
    each column to the remaining rows that hold it.  Columns are eliminated
    in order: the pivot is the lowest-index remaining row holding the
    column, and only the other rows holding it are reduced, so the cost
    follows the stored entries, not the square of the size.  A column that
    no remaining row holds makes the matrix singular, and so does a column
    outside ``range(len(rows))``.

    A pivot candidate or a factor that is zero within a finite window (but
    not exactly zero) raises :class:`PrecisionExhausted` rather than
    guessing.  A pivot is inverted only when another remaining row holds
    its column, unless the entries lie in a lift ring ``Z/p^s`` with
    ``s > 1``, where every pivot is inverted (module docstring,
    "Construction").
    """
    size = len(rows)
    if size == 0:
        return True
    first = next((v for row in rows for v in row.values()), None)
    if first is None:
        return False
    if isinstance(first, NestedSeries):
        ring = first.domain
        exact_zero = NestedSeries.is_exact_zero

        def known(v):
            # exact zeros are never stored, so a zero here is one within a window
            if v.is_zero():
                raise PrecisionExhausted(
                    "pivot is zero within its window; rank is ambiguous", exponent=v.low()
                )
            return v

        def inv(v):
            return v.inv(precision)

        mul, sub, neg = operator.mul, operator.sub, operator.neg
    elif domain is None:
        raise TowerMismatch("raw-scalar matrices need their domain")
    else:
        ring = domain
        exact_zero = domain.is_zero
        inv, mul, sub, neg = domain.inv, domain.mul, domain.sub, domain.neg

        def known(v):
            return v

    # over a field a nonzero entry is a unit (module docstring, "Construction")
    over_field = getattr(ring, "s", 1) == 1
    work = []
    holders = [set() for _ in range(size)]
    for r, row in enumerate(rows):
        kept = {}
        for c, v in row.items():
            if c not in range(size):
                return False
            if not exact_zero(v):
                kept[c] = v
                holders[c].add(r)
        work.append(kept)

    for col in range(size):
        if not holders[col]:
            return False
        pivot_row = min(holders[col])
        pivot = work[pivot_row]
        for c in pivot:
            holders[c].discard(pivot_row)
        pivot_entry = known(pivot[col])
        if over_field and not holders[col]:
            continue
        pivot_inv = inv(pivot_entry)
        for r in holders[col]:
            row = work[r]
            quot = mul(known(row.pop(col)), pivot_inv)
            for c, v in pivot.items():
                if c == col:
                    continue
                term = mul(v, quot)
                new = sub(row[c], term) if c in row else neg(term)
                if exact_zero(new):
                    row.pop(c, None)
                    holders[c].discard(r)
                else:
                    row[c] = new
                    holders[c].add(r)
    return True
