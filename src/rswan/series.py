"""Nested truncated Laurent series with explicit precision windows.

An element of F_q((T_1))...((T_d)) is stored recursively: a series at level
``l`` is a sparse map ``exponent -> coefficient`` in the level-``l`` variable,
whose coefficients are series at level ``l - 1`` (raw scalars at level 1).
The same container carries lift-ring series (Galois-ring scalars) and the
curve experiment's series over ``F_p(x)``, whose products, powers,
quotients and linear combinations raise ``TowerMismatch``
(:mod:`rswan.ratfunc`); the ``domain`` object decides the scalar arithmetic.

Precision model
---------------
``ceiling = None`` means the series is *exact*: every unstored exponent is
exactly zero.  A finite ``ceiling`` means exponents ``>= ceiling`` are
unknown; unstored exponents below it are exactly zero.  Exact data stays
exact through ring operations; finite windows appear where they must
(inversion, substitution through non-monomial images) and propagate by
window intersection.  Operations that cannot certify a result raise
:class:`PrecisionExhausted` instead of truncating silently.

Multiplication
--------------
Products and the division recurrence run on the raw coefficient maps of
:mod:`rswan._kernels`, whose docstring gives the kernels and the choice
among them, ``_FLAT_MIN_PAIRS`` aside, which stays here with ``__mul__``.

Construction
------------
Results of ring operations are built by ``_make``, which skips the
per-entry checks of ``__init__`` but still drops zeros, cuts at the ceiling
and refuses exponents below the supported range before it builds anything;
the kernels and :func:`linear_combination` return maps that are already
clean, which it takes as they are (``clean=True``), and the Witt layer
builds its lifts, reductions and divisions through it as well.  It never
stores an exactly zero inner coefficient (``is_exact_zero`` relies on it).
The literal reader builds its exact coefficients from flat monomial maps
through ``_exact``, which nests them for ``_build``.
It fills a private draft twin of ``NestedSeries`` (``scalars._draft_of``:
the same ``__slots__``, plain stores) and then assigns the public class to
the object, which CPython allows between classes of one layout; the result
is a ``NestedSeries`` whose ``__setattr__`` and ``__delattr__`` raise like
any other's (``scalars._Frozen``).  Four stores through
``object.__setattr__`` cost about twice as much, and only ``__init__``
(which ``_make`` fills through ``out``) still pays them.  It is the one
route that validates: int exponents and ceiling, inner series over the same
domain, reduced raws over ``(Z/p^s)[g]/(f)`` (``F_p(x)`` raws unchecked).

Linear combinations
-------------------
:func:`linear_combination` computes ``sum_j n_j x_j`` in one pass.  It takes
the least ceiling of all the ``x_j`` and cuts at it.  A multiplier that
vanishes mod ``p^s`` adds only that ceiling, as ``x.mul_int(n)`` does.  At
level 1 every exponent is summed in plain ints (one int per ``g``-coordinate
at ``k > 1``) and reduced once.  At levels >= 2 the terms are grouped by top
exponent and each group is combined one level down, with the least inner
ceiling of the group; an inner result is dropped only when it is exactly
zero.  The value and every ceiling equal those of folding ``acc +
x.mul_int(n)``, which the tests keep as the reference; ``__add__`` itself
still makes one domain call per colliding entry.

Division
--------
One routine, ``_divide_by_power``, decides every quotient ``q / x^n``
(``n >= 1``) and hands its factors to the power-series division recurrence of
:mod:`rswan._kernels` ("Division"): ``inv`` is its case ``q = 1, n = 1``; a
substitution (:mod:`rswan.substitution`) divides the Horner sum of its poles
by ``img^n``; and the curve restriction of :mod:`rswan.extensions` divides by
a denominator.  It computes ``q / x^n`` on the window that ``q *
(x^n).inv(precision)`` has.  With ``v = n ord(x)`` and ``w`` the width of
``x^n`` (its own window, or ``precision`` when it is exact), the quotient is
known below ``min(ceil(q), low(q) + w) - v``.  A zero ``x`` raises
``ZeroInput``; an exact ``x^n`` of several terms with no ``precision`` raises
``PrecisionExhausted`` at ``-v``; ``-v`` below the supported range raises
``ExponentOutOfRange`` unless ``w <= 0``; a one-term ``x^n`` scales and shifts
``q``, exact where ``q`` is.  The factors:

* **Characteristic p** (``F_q``).  With ``n = sum_j d_j
  p^j``, ``(1 + h)^(p^j) = 1 + F^j(h)``, where ``F^j`` raises each
  coefficient to the ``p^j`` and multiplies each exponent by ``p^j``; so
  ``x^n`` is the product of the twists ``F^j(x^(d_j))``, one per nonzero
  digit, each with the few terms of ``x^(d_j)``, and ``x^n`` is never
  formed.  Over ``F_{p^k}`` a coefficient's ``p^j``-th power is its
  ``p^(j mod k)``-th, so over ``F_p`` a twist only spreads the exponents.
  A twist of a windowed ``x^(d_j)`` is known on ``p^j (w - 1) + 1 >= w``
  coefficients.
* **A lift ring** ``Z/p^s`` (``s > 1``) has characteristic ``p^s``, where
  ``(1 + h)^p`` keeps the cross terms, so the one factor is ``x^n``
  itself; when that power is one term, the quotient is exact, as the
  inverse was.
* **A product with the inverse** stays in two cases.  A lift ``x`` whose
  lowest coefficient is not a unit gives ``q * (x^n)^-1``: ``x^-1`` is
  taken past the nilpotent head as the next paragraph says, and ``x^n``
  by ``inv``.  At levels >= 2 the routine divides only ``1 / x``: a
  quotient there would take its inner windows from the division, not
  from the inverted inner leads of ``(x^n)^-1``, so a substitution
  through a level-2 image keeps that product.

Over a lift ring ``(Z/p^s)[g]/(f)`` a level-1 series is a unit as soon as
one coefficient is, even when the lowest is not.  Split ``a = N + H``: ``H``
holds the terms from the lowest unit coefficient on, with the ceiling, and
``N`` the terms below it, all in ``p R``.  Then ``(N H^-1)^s = 0`` and
``a^-1 = H^-1 sum_{k<s} (-N H^-1)^k``, computed by the ring operations, so
the windows propagate by the usual rules.  With no unit coefficient stored,
an exact input raises ``ZeroInput`` (it is nilpotent) and a windowed one
``PrecisionExhausted`` (its unknown tail decides).
"""

from __future__ import annotations

import operator
import sys

from ._kernels import _divide_by_recurrence, _flat_mul, _level_one_mul, _schoolbook_mul
from .errors import ExponentOutOfRange, NoPthRoot, PrecisionExhausted, TowerMismatch, ZeroInput
from .ratfunc import _algebra_refused
from .scalars import _Frozen, _QuotientDomain, _draft_of, power

__all__ = [
    "NestedSeries",
    "linear_combination",
]

_ORD_FLOOR = -10_000
# Series and forms are immutable (scalars._Frozen), so the validating
# __init__s store through this.  The trusted constructors build a draft
# twin instead (module docstring, "Construction").
_set = object.__setattr__


def _min_ceiling(*cs):
    finite = [c for c in cs if c is not None]
    return min(finite) if finite else None


def _make(level: int, domain, coeffs: dict, ceiling: int | None, out=None, *,
          clean: bool = False) -> "NestedSeries":
    """Trusted constructor for the result of an operation on valid series.

    The operands passed ``_check_compatible`` (or there is one operand), so
    the per-entry type and level checks of ``NestedSeries.__init__`` are
    skipped; zeros are still dropped, the ceiling still cuts and an exponent
    below the supported range still raises :class:`ExponentOutOfRange`.
    ``__init__`` passes itself as ``out`` once it has made those checks.
    ``clean`` says that ``coeffs`` holds no zero and nothing at or above the
    ceiling, as the product kernels return it; it is then stored as it is.
    """
    if not clean:
        kept = {}
        if level > 1:
            # Only an *exactly* zero coefficient may be dropped.  A slot that
            # is zero merely within a finite window stays stored: absent slots
            # read back as exact zeros, so pruning it would claim knowledge
            # beyond the slot's inner ceiling.
            for e, c in coeffs.items():
                if (ceiling is None or e < ceiling) and not c.is_exact_zero():
                    kept[e] = c
        elif isinstance(domain, _QuotientDomain):
            # Raw ints and tuples: comparing with the raw zero is the zero
            # test, without a method call per entry.
            zero = domain.zero()
            for e, c in coeffs.items():
                if c != zero and (ceiling is None or e < ceiling):
                    kept[e] = c
        else:
            is_zero = domain.is_zero
            for e, c in coeffs.items():
                if (ceiling is None or e < ceiling) and not is_zero(c):
                    kept[e] = c
        coeffs = kept
    if coeffs and min(coeffs) < _ORD_FLOOR:
        _refuse_below_floor(min(coeffs))
    if out is not None:
        _set(out, "level", level)
        _set(out, "domain", domain)
        _set(out, "coeffs", coeffs)
        _set(out, "ceiling", ceiling)
        return out
    out = _SeriesDraft()
    out.level = level
    out.domain = domain
    out.coeffs = coeffs
    out.ceiling = ceiling
    out.__class__ = NestedSeries
    return out


def _is_lift_non_unit(domain, c) -> bool:
    """Whether the raw scalar ``c`` lies in ``p (Z/p^s)[g]/(f)`` for a lift
    ring (``s > 1``): a non-unit, nilpotent since ``p^s = 0``."""
    return domain.s > 1 and domain.is_zero(domain.reduce_mod_p(c))


def _refuse_below_floor(e: int):
    """Raise :class:`ExponentOutOfRange` when ``e`` is below the supported
    range of exponents."""
    if e < _ORD_FLOOR:
        raise ExponentOutOfRange(f"exponent {e} below the supported range (>= {_ORD_FLOOR})")


# Below this many term pairs a product at level >= 2 keeps the loop over
# them; measured with bench/series_mul.py (BENCH_11.json).
_FLAT_MIN_PAIRS = 4


def _level_lows(sr: "NestedSeries", lows: dict) -> dict:
    """``{level: least stored exponent}`` over every level of ``sr``."""
    if sr.coeffs:
        low = min(sr.coeffs)
        if sr.level not in lows or low < lows[sr.level]:
            lows[sr.level] = low
        if sr.level > 1:
            for c in sr.coeffs.values():
                _level_lows(c, lows)
    return lows


def _build(level: int, domain, nested: dict) -> dict:
    """Coefficient map at ``level`` of exact inner series from nested dicts."""
    if level == 2:
        return {e: _make(1, domain, inner, None, clean=True) for e, inner in nested.items()}
    return {e: _make(level - 1, domain, _build(level - 1, domain, inner), None, clean=True)
            for e, inner in nested.items()}


def _exact(level: int, domain, monomials: dict) -> "NestedSeries":
    """Trusted constructor of the exact series of ``{exps: raw}``, with
    ``exps[i]`` the level-``i+1`` exponent and no zero raw stored."""
    if level == 1:
        return _make(1, domain, {e: c for (e,), c in monomials.items()}, None, clean=True)
    nested: dict = {}
    for exps, raw in monomials.items():
        node = nested
        for e in exps[:0:-1]:  # the top exponent first
            inner = node.get(e)
            if inner is None:
                inner = node[e] = {}
            node = inner
        node[exps[0]] = raw
    return _make(level, domain, _build(level, domain, nested), None, clean=True)



def _divide_by_power(q, x, n, precision, powers=None):
    """``q / x^n`` for ``n >= 1``, or ``1 / x^n`` for ``q = None``, on the
    window of ``q * (x^n).inv(precision)`` (module docstring, "Division").

    ``powers[d]`` is the exact power ``x^d`` (``n = 1`` looks up none), from
    a table the caller keeps.  At levels >= 2 only ``1 / x`` is divided.
    """
    domain = x.domain
    if not isinstance(domain, _QuotientDomain):
        raise _algebra_refused()
    if not x.coeffs:
        raise ZeroInput("cannot invert a (window-)zero series")
    m = x.ord() if x.level > 1 else min(x.coeffs)
    lead = x.coeffs[m]
    if x.level == 1 and _is_lift_non_unit(domain, lead):  # inverted past the nilpotent head
        inverse = (x._inv_past_a_nilpotent_head if n == 1 else powers[n].inv)(precision)
        return inverse if q is None else q * inverse
    v, shape, twists = n * m, x, None
    if n > 1:
        if domain.s > 1:
            shape = powers[n]  # characteristic p^s keeps the cross terms: one divisor x^n
        else:
            if v < _ORD_FLOOR:  # a negative order: x^n raises where it leaves the range
                powers[n]
            twists, j, rest = [], 0, n
            while rest:
                rest, digit = divmod(rest, domain.p)
                if digit:
                    twists.append((powers[digit], j))
                j += 1
    if x.level > 1:  # an inner lead refuses before the width does
        lead_inv = lead.inv(precision)
    elif not twists:  # the one divisor's lead
        lead_inv = domain.inv(shape.coeffs[v])
    if shape.ceiling is not None:
        width = shape.ceiling - min(shape.coeffs)
    elif len(shape.coeffs) == 1:
        width = None
    elif precision is None:
        raise PrecisionExhausted(
            "the inverse of an exact series with several terms needs a width",
            exponent=-v,
        )
    else:
        width = precision
    low, ceiling = -v, None
    if q is not None:  # 1 / x^n refuses in _make, where its lead lands
        if width is None or width > 0:
            _refuse_below_floor(-v)
        low, ceiling = q.low() - v, None if q.ceiling is None else q.ceiling - v
    if width is not None and (ceiling is None or low + width < ceiling):
        ceiling = low + width
    if len(shape.coeffs) == 1:  # a monomial x^n: the quotient is exact where q is
        scale = domain.inv(domain.pow(lead, n)) if twists else lead_inv
        return _make(x.level, domain, {-v: scale} if q is None else
                     {e - v: domain.mul(c, scale) for e, c in q.coeffs.items()}, ceiling)
    size = ceiling - low
    if twists is None:  # the one divisor, its lead at v and inverted above at any level
        tail = sorted((e - v, c) for e, c in shape.coeffs.items() if v < e < v + size)
        factors = [(lead_inv, tail)]
    else:
        factors = [_twisted_factor(y, j, size) for y, j in twists]
    quotient = _divide_by_recurrence(domain, factors, size, low, None if q is None else
                                     {e - v - low: c for e, c in q.coeffs.items()})
    return _make(x.level, domain, quotient, ceiling, clean=True)


def _twisted_factor(x, j, size):
    """``(c^-1, tail)`` for ``F^j(x) = c T^w (1 + sum b_i T^i)``, with
    ``tail`` listing ``(i, c b_i)`` for ``0 < i < size``: the factor
    :func:`_divide_by_recurrence` takes.  Over ``F_{p^k}`` a coefficient's
    ``p^j``-th power is its ``p^(j mod k)``-th."""
    domain = x.domain
    spread = domain.p**j
    raise_to = domain.p ** (j % domain.k)
    low = min(x.coeffs)
    tail = []
    for e, c in sorted(x.coeffs.items()):
        i = (e - low) * spread
        if tail and i >= size:
            break
        tail.append((i, c if raise_to == 1 else domain.pow(c, raise_to)))
    return domain.inv(tail[0][1]), tail[1:]


class NestedSeries(_Frozen):
    __slots__ = ("level", "domain", "coeffs", "ceiling")

    def __init__(self, level: int, domain, coeffs: dict, ceiling: int | None = None):
        if level < 1:
            raise TowerMismatch("series level must be >= 1")
        if ceiling is not None and type(ceiling) is not int:
            raise TowerMismatch(f"ceiling {ceiling!r} is not an int")
        for e in coeffs:
            if type(e) is not int:
                raise TowerMismatch(f"exponent {e!r} is not an int")
        if level > 1:
            for c in coeffs.values():
                if not isinstance(c, NestedSeries) or c.level != level - 1:
                    raise TowerMismatch("coefficient level does not match series level")
                if c.domain is not domain:
                    raise TowerMismatch("coefficient ring does not match the series' ring")
        elif isinstance(domain, _QuotientDomain) and not domain.are_reduced(coeffs.values()):
            raise TowerMismatch("a coefficient is not a reduced raw scalar of the ring")
        _make(level, domain, coeffs, ceiling, self)

    # ------------------------------------------------------------------ build
    @classmethod
    def zero(cls, level: int, domain, ceiling: int | None = None) -> "NestedSeries":
        return cls(level, domain, {}, ceiling)

    @classmethod
    def constant(cls, level: int, domain, raw) -> "NestedSeries":
        cur = raw
        for lvl in range(1, level + 1):
            cur = _make(lvl, domain, {0: cur}, None)
        return cur

    @classmethod
    def one(cls, level: int, domain) -> "NestedSeries":
        return cls.constant(level, domain, domain.one())

    @classmethod
    def from_monomials(cls, level: int, domain, monomials) -> "NestedSeries":
        """Build an exact series from ``[(exponent_tuple, raw_scalar), ...]``.

        ``exponent_tuple[i]`` is the exponent of the level-``i+1`` variable.
        """
        if level == 1:
            acc: dict = {}
            for exps, raw in monomials:
                (e,) = exps
                acc[e] = domain.add(acc[e], raw) if e in acc else raw
            return cls(1, domain, acc)
        grouped: dict[int, list] = {}
        for exps, raw in monomials:
            grouped.setdefault(exps[-1], []).append((exps[:-1], raw))
        coeffs = {e: cls.from_monomials(level - 1, domain, ms) for e, ms in grouped.items()}
        for e in coeffs:
            if type(e) is not int:
                raise TowerMismatch(f"exponent {e!r} is not an int")
        return _make(level, domain, coeffs, None)

    @classmethod
    def variable(cls, level: int, domain, var_level: int) -> "NestedSeries":
        """The monomial T_{var_level}, as an exact series at ``level``."""
        exps = tuple(1 if i == var_level else 0 for i in range(1, level + 1))
        return cls.from_monomials(level, domain, [(exps, domain.one())])

    # ------------------------------------------------------------- inspection
    def is_zero(self) -> bool:
        """Zero within the window (exactly zero when the series is exact)."""
        if self.level == 1:
            return not self.coeffs
        return all(c.is_zero() for c in self.coeffs.values())

    def is_exact_zero(self) -> bool:
        """Exactly zero: no stored coefficient and no ceiling (``_make``
        never stores an exactly zero inner coefficient)."""
        return not self.coeffs and self.ceiling is None

    def is_exact(self) -> bool:
        if self.ceiling is not None:
            return False
        if self.level == 1:
            return True
        return all(c.is_exact() for c in self.coeffs.values())

    def low(self) -> int:
        """Best known lower bound for the valuation (ceiling when window-zero)."""
        if self.coeffs:
            return min(self.coeffs)
        return self.ceiling if self.ceiling is not None else 0

    def ord(self) -> int:
        """Valuation in the top variable.  An exact zero raises
        :class:`ZeroInput`; a series zero only within its window, or whose
        lowest stored coefficient is, raises :class:`PrecisionExhausted`
        naming that window, as its unknown terms decide."""
        if not self.coeffs:
            if self.ceiling is None:
                raise ZeroInput("ord of zero is undefined")
            raise PrecisionExhausted(
                f"order is unknown: the series is zero below its window ceiling {self.ceiling}",
                exponent=self.ceiling,
            )
        e = min(self.coeffs)
        if self.level > 1 and self.coeffs[e].is_zero():
            raise PrecisionExhausted(
                "order is ambiguous: the lowest stored coefficient "
                f"(exponent {e}) is zero only within a finite window",
                exponent=e,
            )
        return e

    def coefficient(self, e: int):
        """Level-(l-1) coefficient at exponent ``e`` (raw scalar at level 1)."""
        if self.ceiling is not None and e >= self.ceiling:
            raise PrecisionExhausted(
                f"coefficient at exponent {e} is beyond the window ceiling {self.ceiling}",
                exponent=e,
            )
        if e in self.coeffs:
            return self.coeffs[e]
        return self._zero_coeff()

    def _zero_coeff(self):
        return self.domain.zero() if self.level == 1 else NestedSeries.zero(self.level - 1, self.domain)

    def iter_monomials(self):
        """Yield ``(exponent_tuple, raw_scalar)`` over the stored support."""
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if self.level == 1:
                yield (e,), c
            else:
                for exps, raw in c.iter_monomials():
                    yield exps + (e,), raw

    # ------------------------------------------------------------------- ring
    def _check_compatible(self, other: "NestedSeries"):
        if not isinstance(other, NestedSeries):
            raise TowerMismatch(f"expected a series, got {type(other).__name__}")
        if other.level != self.level or other.domain is not self.domain:
            raise TowerMismatch("series belong to different towers or coefficient rings")

    def __add__(self, other):
        self._check_compatible(other)
        ceiling = _min_ceiling(self.ceiling, other.ceiling)
        add = self.domain.add if self.level == 1 else operator.add
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = add(out[e], c) if e in out else c
        return _make(self.level, self.domain, out, ceiling)

    def __neg__(self):
        neg = self.domain.neg if self.level == 1 else operator.neg
        return _make(self.level, self.domain, {e: neg(c) for e, c in self.coeffs.items()},
                     self.ceiling)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        ceiling = _min_ceiling(
            None if self.ceiling is None else self.ceiling + other.low(),
            None if other.ceiling is None else other.ceiling + self.low(),
        )
        a, b, domain, level = self.coeffs, other.coeffs, self.domain, self.level
        if not isinstance(domain, _QuotientDomain):
            raise _algebra_refused()
        pairs = len(a) * len(b)
        if pairs > 1:
            if level == 1:
                return _make(1, domain, _level_one_mul(domain, a, b, ceiling), ceiling, clean=True)
            if pairs >= _FLAT_MIN_PAIRS:
                out = _flat_mul(level, domain, a, b, ceiling)
                if out is not None:
                    return _make(level, domain, _build(level, domain, out), ceiling, clean=True)
        if level == 1:
            out = _schoolbook_mul(a, b, ceiling, domain.mul, domain.add)
        else:
            out = _schoolbook_mul(a, b, ceiling, operator.mul, operator.add)
        return _make(level, domain, out, ceiling)

    def scalar_mul(self, raw) -> "NestedSeries":
        """Multiply by a raw scalar of the coefficient domain."""
        if self.domain.is_zero(raw):
            return NestedSeries.zero(self.level, self.domain, self.ceiling)
        if self.level == 1:
            out = {e: self.domain.mul(c, raw) for e, c in self.coeffs.items()}
        else:
            out = {e: c.scalar_mul(raw) for e, c in self.coeffs.items()}
        return _make(self.level, self.domain, out, self.ceiling)

    def mul_int(self, n: int) -> "NestedSeries":
        return self if n == 1 else self.scalar_mul(self.domain.from_int(n))

    def shift(self, n: int) -> "NestedSeries":
        """Multiply by T^n in the top variable."""
        return _make(
            self.level,
            self.domain,
            {e + n: c for e, c in self.coeffs.items()},
            None if self.ceiling is None else self.ceiling + n,
        )

    def shift_at(self, var_level: int, n: int) -> "NestedSeries":
        """Multiply by T_{var_level}^n (any level, not just the top)."""
        if var_level == self.level:
            return self.shift(n)
        if var_level > self.level or var_level < 1:
            raise TowerMismatch(f"no variable at level {var_level}")
        return _make(
            self.level,
            self.domain,
            {e: c.shift_at(var_level, n) for e, c in self.coeffs.items()},
            self.ceiling,
        )

    def truncate(self, ceiling: int | None) -> "NestedSeries":
        new = _min_ceiling(self.ceiling, ceiling)
        if new == self.ceiling:
            return self
        return _make(self.level, self.domain, self.coeffs, new)

    def pow(self, n: int, precision: int | None = None) -> "NestedSeries":
        if not isinstance(self.domain, _QuotientDomain):
            raise _algebra_refused()  # x^0 and x^1 as well, though they take no product
        if n < 0:
            return self.inv(precision).pow(-n)
        return power(self, n, operator.mul) if n else NestedSeries.one(self.level, self.domain)

    def inv(self, precision: int | None = None) -> "NestedSeries":
        """Multiplicative inverse in the top variable (module docstring,
        "Division").

        The result window is exactly what the input window supports: for an
        input known on [v, v + w) the inverse is known on [-v, -v + w).  An
        exact single-term input inverts exactly; otherwise ``precision``
        bounds a fresh window, and without it the inverse raises
        :class:`PrecisionExhausted`.
        """
        return _divide_by_power(None, self, 1, precision)

    def _inv_past_a_nilpotent_head(self, precision):
        """Inverse at level 1 over a lift ring ``(Z/p^s)[g]/(f)`` whose
        lowest stored coefficient is not a unit (module docstring,
        "Division")."""
        domain = self.domain
        split = next((e for e in sorted(self.coeffs)
                      if not _is_lift_non_unit(domain, self.coeffs[e])), None)
        if split is None:
            if self.ceiling is None:
                raise ZeroInput("not a unit in the lift ring: no coefficient is a unit")
            raise PrecisionExhausted(
                "no stored coefficient is a unit; the unknown tail decides whether "
                "the series is one",
                exponent=self.ceiling,
            )
        head = _make(1, domain, {e: c for e, c in self.coeffs.items() if e < split}, None,
                     clean=True)
        rest_inv = (self - head).inv(precision)
        step = -(head * rest_inv)
        total = term = NestedSeries.one(1, domain)
        for _ in range(1, domain.s):
            term = term * step
            total = total + term
        return rest_inv * total

    # --------------------------------------------------- characteristic-p maps
    def frobenius(self, times: int = 1) -> "NestedSeries":
        """Raise to the p-th power ``times`` times (field coefficients only)."""
        if times == 0:
            return self
        p_t = self.domain.p**times
        if self.level == 1:
            out = {e * p_t: self.domain.pow(c, p_t) for e, c in self.coeffs.items()}
        else:
            out = {e * p_t: c.frobenius(times) for e, c in self.coeffs.items()}
        ceiling = None if self.ceiling is None else (self.ceiling - 1) * p_t + 1
        return _make(self.level, self.domain, out, ceiling)

    def pth_root(
        self, *, skip_prime_to_p: bool = False, skip_non_powers: bool = False
    ) -> "NestedSeries":
        """p-th root, taken monomial by monomial at every level.

        A monomial ``c * T^e`` has the root ``c^(1/p) * T^(e/p)`` when p
        divides every exponent and the scalar ``c`` is a p-th power.  A
        monomial that fails raises :class:`NoPthRoot` unless its flag leaves
        it out: ``skip_prime_to_p`` gives the series action of the Cartier
        operator; both flags give the root of the largest removable part
        (character reduction), which also leaves out coefficients with
        nothing left in them.
        """
        p = self.domain.p
        out = {}
        for e, c in self.coeffs.items():
            if e % p:
                if skip_prime_to_p:
                    continue
                raise NoPthRoot(f"exponent {e} is not divisible by p = {p}")
            if self.level == 1:
                if not self.domain.is_pth_power(c):
                    if skip_non_powers:
                        continue
                    raise NoPthRoot("coefficient is not a p-th power at the scalar level")
                out[e // p] = self.domain.pth_root(c)
                continue
            root = c.pth_root(skip_prime_to_p=skip_prime_to_p, skip_non_powers=skip_non_powers)
            if root.coeffs or not skip_non_powers:
                out[e // p] = root
        ceiling = None if self.ceiling is None else (self.ceiling - 1) // p + 1
        return _make(self.level, self.domain, out, ceiling)

    # ------------------------------------------------------------- comparison
    def agrees_with(self, other: "NestedSeries") -> bool:
        """Equality on the common window, recursively at every level."""
        self._check_compatible(other)
        ceiling = _min_ceiling(self.ceiling, other.ceiling)
        keys = set(self.coeffs) | set(other.coeffs)
        if ceiling is not None:
            keys = {e for e in keys if e < ceiling}
        for e in keys:
            a = self.coeffs.get(e)
            b = other.coeffs.get(e)
            if a is None:
                a = self._zero_coeff()
            if b is None:
                b = self._zero_coeff()
            if self.level == 1:
                if a != b:
                    return False
            elif not a.agrees_with(b):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, NestedSeries):
            return NotImplemented
        return (
            self.level == other.level
            and self.domain is other.domain
            and self.ceiling == other.ceiling
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.level, id(self.domain), self.ceiling, tuple(sorted(self.coeffs))))

    def __repr__(self):
        return f"<series L{self.level}: {self._repr_body()}>"

    def _repr_body(self, suffix: str = "") -> str:
        """Monomials ``raw*T1^e1*...*suffix``, then the window ``O(T_l^c)``;
        an inner coefficient with a window prints as one group ``(...)``."""
        bits = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            mono = (f"*T{self.level}^{e}" if e else "") + suffix
            if self.level == 1:
                bits.append(f"{c!r}{mono}")
            else:
                bits.append(c._repr_body(mono) if c.is_exact() else f"({c._repr_body()}){mono}")
        body = " + ".join(bits) or "0"
        return body if self.ceiling is None else f"{body} + O(T{self.level}^{self.ceiling})"


_SeriesDraft = _draft_of(NestedSeries)


# ---------------------------------------------------------------- module ops

def linear_combination(level: int, domain, pairs) -> NestedSeries:
    """``sum_j n_j * x_j`` over ``(n_j, x_j)`` pairs of ints and series at
    ``level`` over ``domain``, in one pass (module docstring, "Linear
    combinations"); the empty sum is the exact zero."""
    if not isinstance(domain, _QuotientDomain):
        raise _algebra_refused()
    for _, x in pairs:
        if not isinstance(x, NestedSeries) or x.level != level or x.domain is not domain:
            raise TowerMismatch("combined series belong to different towers or coefficient rings")
    m = domain.modulus
    terms = [(n % m, x) for n, x in pairs if n % m]
    return _combination(level, domain, terms, _least_ceiling(pairs))


def _least_ceiling(pairs) -> int | None:
    """The least finite ceiling of the series of ``(n, x)`` pairs (a plain
    loop: this runs once per coefficient group)."""
    least = None
    for _, x in pairs:
        c = x.ceiling
        if c is not None and (least is None or c < least):
            least = c
    return least


def _combination(level: int, domain, terms: list, ceiling: int | None) -> NestedSeries:
    """:func:`linear_combination` of ``terms``, whose multipliers are reduced
    and nonzero, cut at ``ceiling``."""
    cut = sys.maxsize if ceiling is None else ceiling
    if level > 1:
        groups: dict = {}
        for n, x in terms:
            for e, c in x.coeffs.items():
                if e < cut:
                    if e in groups:
                        groups[e].append((n, c))
                    else:
                        groups[e] = [(n, c)]
        out = {}
        for e, group in groups.items():
            if len(group) == 1 and group[0][0] == 1:
                out[e] = group[0][1]  # stored, so not an exact zero
                continue
            c = _combination(level - 1, domain, group, _least_ceiling(group))
            # only an exact zero is dropped: a window-zero one keeps its window
            if not c.is_exact_zero():
                out[e] = c
        return _make(level, domain, out, ceiling, clean=True)
    acc: dict = {}
    m = domain.modulus
    out = {}
    if domain.k == 1:
        for n, x in terms:
            for e, c in x.coeffs.items():
                if e < cut:
                    if e in acc:
                        acc[e] += n * c
                    else:
                        acc[e] = n * c
        for e, v in acc.items():
            v %= m
            if v:
                out[e] = v
        return _make(1, domain, out, ceiling, clean=True)
    # one int per g-coordinate
    for n, x in terms:
        for e, c in x.coeffs.items():
            if e < cut:
                if e in acc:
                    acc[e] = [a + n * b for a, b in zip(acc[e], c)]
                else:
                    acc[e] = [n * b for b in c]
    for e, v in acc.items():
        coeff = tuple([a % m for a in v])
        if any(coeff):
            out[e] = coeff
    return _make(1, domain, out, ceiling, clean=True)
