"""Substitution of series into the variables of a series.

:func:`series_substitute` evaluates ``sum_e a_e T^e`` at ``T = img`` by
Horner's rule (Knuth, TAOCP vol. 2, sec. 4.6.4) over the stored exponents
in descending order, ``q <- q * img^(e' - e) + a_e``, with exact gap powers
kept per level (at levels >= 2 each ``a_e`` is substituted first); then
``q * img^e_min`` for ``e_min > 0``, or ``q / img^n`` for ``e_min = -n``.
The poles are evaluated apart from the other exponents, so that the
quotient's window stays off the exact polynomial part.  The unknown tail of
a source with ceiling ``c`` cuts the result at ``c * low(img)``, or at
``c * ord(img)`` when ``c < 0`` (a negative power needs the order itself);
an image of order below 1 raises ``PrecisionExhausted``, but an exactly
zero one passes when ``c >= 1``, as every tail term is then zero.

Poles
-----
Write ``img = c T^m (1 + h)``.  The quotient ``q / img^n`` is computed on
the window that ``q * (img^n).inv(precision)`` has, and a quotient on a
window is unique, so the two give the same series.  With ``w`` the width
of ``img^n``'s inverse (``img``'s own width when it has a window,
``precision`` when it is exact), the result is known below
``min(ceil(q), low(q) + w) - n m``.  An exact image of one term gives an
exact quotient, a scaled and shifted ``q``; an exact image of several terms
with no ``precision`` raises ``PrecisionExhausted`` at ``-n m``.

* **Characteristic p** (``F_q`` and ``F_p(x)``).  With ``n = sum_j d_j
  p^j``, ``(1 + h)^(p^j) = 1 + F^j(h)``, where ``F^j`` raises each
  coefficient to the ``p^j`` and multiplies each exponent by ``p^j``; so
  ``img^n`` is the product of the factors ``F^j(img^(d_j))``, each with the
  few terms of ``img^(d_j)``.  The division recurrence
  (:mod:`rswan.series`, "Division") divides ``q`` by one factor after the
  other, ``O(w * terms)`` each on the same ``w`` coefficients, and
  ``img^n`` is never formed.  Over ``F_{p^k}`` a coefficient's ``p^j``-th
  power is its ``p^(j mod k)``-th, so over ``F_p`` a twist only spreads
  the exponents.  A twist of a windowed ``img^(d_j)`` is known on
  ``p^j (w - 1) + 1 >= w`` coefficients.
* **A lift ring** ``Z/p^s`` (``s > 1``) has characteristic ``p^s``, where
  ``(1 + h)^p`` keeps the cross terms, so ``q`` is divided by ``img^n``
  itself; when that power is one term, the quotient is exact, as the
  inverse was.
* **Kept as a product with the inverse**, ``q * (img^n).inv(precision)``:
  an image at level >= 2, whose inverse takes inner windows from inverting
  inner leads that a division would not take in the same way; and a lift
  ring image whose lowest coefficient is not a unit, which ``inv`` inverts
  past that nilpotent head.
"""

from __future__ import annotations

from .errors import PrecisionExhausted, TowerMismatch, ZeroInput
from .scalars import _QuotientDomain
from .series import (
    _ORD_FLOOR,
    NestedSeries,
    _divide_by_recurrence,
    _is_lift_non_unit,
    _make,
    _refuse_below_floor,
)

__all__ = ["series_substitute"]


def series_substitute(a: NestedSeries, images: dict[int, NestedSeries],
                      precision: int | None = None) -> NestedSeries:
    """Evaluate ``a`` with each level-``j`` variable replaced by ``images[j]``,
    series of one common level and domain (module docstring)."""
    targets = list(images.values())
    if not targets:
        raise TowerMismatch("no images supplied")
    out_level, domain = targets[0].level, targets[0].domain
    for img in targets:
        if img.level != out_level or img.domain is not domain:
            raise TowerMismatch("substitution images live in different targets")
    return _substitute(a, images, {level: {} for level in images}, out_level, domain, precision)


def _substitute(a, images, powers, out_level, domain, precision):
    img = images.get(a.level)
    if img is None:
        raise TowerMismatch(f"no image supplied for level {a.level}")
    poles = {e: c for e, c in a.coeffs.items() if e < 0}
    if poles and len(poles) < len(a.coeffs):  # keeps the quotient's window off the rest
        rest = _make(a.level, a.domain, {e: c for e, c in a.coeffs.items() if e >= 0}, a.ceiling,
                     clean=True)
        return (_substitute(rest, images, powers, out_level, domain, precision)
                + _substitute(_make(a.level, a.domain, poles, None, clean=True),
                              images, powers, out_level, domain, precision))
    table = powers[a.level]
    q = None
    for e, c in sorted(a.coeffs.items(), reverse=True):
        piece = (NestedSeries.constant(out_level, domain, c) if a.level == 1
                 else _substitute(c, images, powers, out_level, domain, precision))
        q = piece if q is None else q * _exact_power(img, table, last - e) + piece
        last = e
    if q is None:
        q = NestedSeries.zero(out_level, domain)
    elif last > 0:
        q = q * _exact_power(img, table, last)
    elif last:
        q = _divide_by_power(q, img, table, -last, precision)
    if a.ceiling is None:
        return q
    if img.is_exact_zero() and a.ceiling >= 1:
        return q  # each tail term is a multiple of 0^e = 0
    m = img.low() if a.ceiling >= 0 or img.is_exact_zero() else img.ord()  # c < 0: the order
    if m < 1:
        raise PrecisionExhausted(
            "cannot bound the unknown tail of a windowed series through an image of order < 1",
            exponent=a.ceiling,
        )
    return q.truncate(m * a.ceiling)


def _exact_power(img: NestedSeries, table: dict, n: int) -> NestedSeries:
    """``img^n`` for ``n >= 1``, kept in the power table of its level."""
    if n not in table:
        table[n] = img.pow(n)
    return table[n]


def _divide_by_power(q: NestedSeries, img: NestedSeries, table: dict, n: int,
                     precision: int | None) -> NestedSeries:
    """``q / img^n`` for ``n >= 1``, on the window of
    ``q * (img^n).inv(precision)`` (module docstring, "Poles")."""
    domain = img.domain
    lift = isinstance(domain, _QuotientDomain) and domain.s > 1
    if img.level > 1 or (lift and img.coeffs
                         and _is_lift_non_unit(domain, img.coeffs[min(img.coeffs)])):
        return q * _exact_power(img, table, n).inv(precision)
    if not img.coeffs:
        raise ZeroInput("cannot invert a (window-)zero series")
    v = n * min(img.coeffs)
    if lift:  # characteristic p^s: no Frobenius split, the one divisor img^n
        twists = [(_exact_power(img, table, n), 0)]
        shape = twists[0][0]
    else:
        if v < _ORD_FLOOR:  # an image of negative order: the power raises where it leaves the range
            _exact_power(img, table, n)
        twists, j, rest = [], 0, n
        while rest:
            rest, digit = divmod(rest, domain.p)
            if digit:
                twists.append((_exact_power(img, table, digit), j))
            j += 1
        shape = img
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
    if width is None or width > 0:
        _refuse_below_floor(-v)
    ceiling = None if q.ceiling is None else q.ceiling - v
    if width is None:  # a monomial img^n: the quotient is exact where q is
        lead = shape.coeffs[min(shape.coeffs)]
        scale = domain.inv(lead if lift else domain.pow(lead, n))
        return _make(1, domain, {e - v: domain.mul(c, scale) for e, c in q.coeffs.items()},
                     ceiling)
    low = q.low() - v
    if ceiling is None or low + width < ceiling:
        ceiling = low + width
    size = ceiling - low
    factors = [_twisted_factor(x, j, size) for x, j in twists]
    quotient = _divide_by_recurrence(domain, factors, size, low,
                                     {e - v - low: c for e, c in q.coeffs.items()})
    return _make(1, domain, quotient, ceiling, clean=True)


def _twisted_factor(x: NestedSeries, j: int, size: int) -> tuple:
    """``(c^-1, tail)`` for ``F^j(x) = c T^w (1 + sum b_i T^i)``, with
    ``tail`` listing ``(i, c b_i)`` for ``0 < i < size``: the factor
    :func:`rswan.series._divide_by_recurrence` takes.  Over ``F_{p^k}`` a
    coefficient's ``p^j``-th power is its ``p^(j mod k)``-th."""
    domain = x.domain
    spread = domain.p**j
    raise_to = domain.p ** (j % domain.k) if isinstance(domain, _QuotientDomain) else spread
    low = min(x.coeffs)
    tail = []
    for e, c in sorted(x.coeffs.items()):
        i = (e - low) * spread
        if tail and i >= size:
            break
        tail.append((i, c if raise_to == 1 else domain.pow(c, raise_to)))
    return domain.inv(tail[0][1]), tail[1:]
