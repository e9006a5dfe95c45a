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
zero one passes when ``c >= 1``, as every tail term is then zero.  A
source or images over ``F_p(x)`` raise ``TowerMismatch`` before any
power is formed (:mod:`rswan.ratfunc`).

Poles
-----
The quotient ``q / img^n`` is the one division routine of
:mod:`rswan.series` ("Division"): on the window that ``q *
(img^n).inv(precision)`` has, by the Frobenius twists of ``img`` in
characteristic p and by ``img^n`` over a lift ring, with the gap powers'
table lending it the powers ``img^d`` it takes.  An image at level >= 2
keeps the product ``q * (img^n).inv(precision)``.
"""

from __future__ import annotations

from .errors import PrecisionExhausted, TowerMismatch
from .ratfunc import _algebra_refused
from .scalars import _QuotientDomain
from .series import NestedSeries, _divide_by_power, _make

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
    if not (isinstance(domain, _QuotientDomain) and isinstance(a.domain, _QuotientDomain)):
        raise _algebra_refused()
    tables = {level: _PowerTable({1: img}) for level, img in images.items()}
    return _substitute(a, images, tables, out_level, domain, precision)


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
        q = piece if q is None else q * table[last - e] + piece
        last = e
    if q is None:
        q = NestedSeries.zero(out_level, domain)
    elif last > 0:
        q = q * table[last]
    elif last and img.level > 1:  # inner windows from inverted inner leads (module docstring)
        q = q * table[-last].inv(precision)
    elif last:
        q = _divide_by_power(q, img, -last, precision, table)
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


class _PowerTable(dict):
    """``{n: img^n}``, made as ``_PowerTable({1: img})``: each exact power of
    the image is formed on its first lookup and kept."""

    def __missing__(self, n: int) -> NestedSeries:
        self[n] = power = self[1].pow(n)
        return power
