"""The refined ramification invariant mod p of a character.

For a reduced length-``s`` vector with components ``a_i`` (internal order,
weight ``p^i``) and Swan conductor ``n >= 1``, the invariant is the class of

    -sum_i a_i^(p^i - 1) d(a_i)

in the window ``(n, m)`` with ``m = floor(n/p)``: degree-1 log forms with
top-variable orders in ``[-n, -m-1]``.  The class does not depend on the
reduced representative (this is checked by tests, not assumed), recovers
``n`` as minus the top order of the representative, and splits as
``pi^(-n) (sum_lambda a_lambda db_lambda + c dlog pi)`` for the
conductor-change experiments.

The flat path
-------------
An exact vector runs on the raw maps of :func:`rswan.witt._flat_components`
(:mod:`rswan.witt`, "Arithmetic"), each component cut as on the series path.
Their digit bounds ``B_l`` hold every product formed here, as each is a
product of ``p^i`` monomials of ``a_i`` ("No digit carries"), so a top
exponent is below ``-m`` exactly when the flat one is below ``-m W_d -
sum_{l<d} B_l W_l``.  Per dlog key ``lambda``, ``D_lambda`` (each
coefficient times minus its level-``lambda`` digit, mod ``p``) times ``P =
a_i^(p^i-1)`` (``D_lambda`` alone at ``i = 0``) is cut there, summed in
plain ints and reduced once; each key's series is built once, in the key
order ``1 .. d`` of the series path.  A window, the ``ExponentOutOfRange``
of ``_flat_components`` or a term below ``-n`` hands the call to the series
path, which raises every refusal; an exact vector meets no
``PrecisionExhausted`` there, as each product has the ceiling ``-m``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .errors import ExponentOutOfRange, InconsistentValue, UnramifiedCharacter
from .logdiff import LogForm, WindowedForm, _form, _windowed_form, d
from .scalars import power
from .series import NestedSeries, _make
from .witt import (Character, WittVector, _digit_offset, _flat_components, _flat_series,
                   swan_conductor)

__all__ = [
    "RswValue",
    "RswDecomposition",
    "rsw_form_at",
    "rsw_char_p",
    "rsw_is_closed",
    "sw_from_rsw",
    "rsw_decompose",
]


@dataclass(frozen=True)
class RswValue:
    character: Character
    window: WindowedForm

    @property
    def n(self) -> int:
        return self.window.n

    @property
    def m(self) -> int:
        return self.window.m


def rsw_form_at(vec: WittVector, n: int) -> WindowedForm:
    """The raw invariant formula on *any* representative, windowed at depth n.

    ``-sum_i a_i^(p^i-1) d(a_i)`` as a class in the window ``(n, n // p)``.
    The vector must lie in the depth-``n`` filtration step (weighted orders
    at least ``-n``); the value on two representatives of the same character
    within that step agrees — that invariance is what the well-definedness
    tests exercise.

    Only the window is computed: every term of ``a_i^(p^i-1) d(a_i)`` that
    uses a term of ``a_i`` at ``e >= -m - (p^i - 1) v`` (``v = a_i.low()``,
    a lower bound for its order) has order ``>= -m``, so ``a_i`` is cut
    there before the power, and a component with ``cut <= v`` is left out.
    An exact vector takes the flat path (module docstring); on the series
    path the sum is of ``d(-a_0)`` and ``d(a_i) * (-a_i^(p^i-1))``: nothing
    is multiplied by the constant 1 and no pass negates the total.  Only an
    exactly zero component is skipped: one zero only within a window keeps
    its windows through the formula, which refuses or carries them into
    the form, as its unknown terms may reach the window.
    """
    tower = vec.tower
    p = tower.p
    if n < 1:
        raise UnramifiedCharacter("the invariant lives at conductor >= 1")
    m = n // p
    flat = _flat_form_at(vec, n, m)
    if flat is not None:
        return flat
    total = LogForm.zero(tower.d, tower.field_domain, 1)
    for i, a_i in enumerate(vec.comps):
        if a_i.is_exact_zero():
            continue
        v = a_i.low()
        cut = -m - (p**i - 1) * v
        if cut <= v:
            continue
        a_i = a_i.truncate(cut)
        total = total + (d(-a_i) if i == 0 else d(a_i).scale(-a_i.pow(p**i - 1)))
    return WindowedForm(total, n, m)


def _flat_form_at(vec: WittVector, n: int, m: int) -> WindowedForm | None:
    """:func:`rsw_form_at` of an exact vector on flat raw maps (module
    docstring, "The flat path"); None hands the call to the series path."""
    comps = vec.comps
    level = comps[0].level
    for a_i in comps:  # a window at any level keeps the series path
        if a_i.ceiling is not None or level > 1 and not a_i.is_exact():
            return None
    tower = vec.tower
    p, field = tower.p, tower.field_domain
    xs, survivors = [], []
    for i, a_i in enumerate(comps):  # cut as on the series path; one cut to nothing is zero
        v = min(a_i.coeffs, default=0)
        cut = -m - (p**i - 1) * v
        if a_i.coeffs and cut > v:
            survivors.append(i)
            if max(a_i.coeffs) >= cut:
                a_i = _make(level, field, {e: c for e, c in a_i.coeffs.items() if e < cut},
                            None, clean=True)
        elif a_i.coeffs:
            a_i = _make(level, field, {}, None)
        xs.append(a_i)
    try:  # exact components: no None
        [(_, flats)], weights, lows = _flat_components([(1, xs[::-1])], len(xs), p, level)
    except ExponentOutOfRange:
        return None
    flats.reverse()  # internal order again
    top = weights[level] if weights else 1
    half = _digit_offset(level, weights)
    ceiling = -m * top - half  # a flat exponent below it has top exponent < -m
    k = field.k
    sums = [{} for _ in range(level)]  # per dlog key, in plain ints
    for i in survivors:
        x = flats[i]
        cofactor = _cut_pow(field, x, p**i - 1, ceiling) if i else None  # P
        for lam, acc in enumerate(sums, 1):
            terms = _negated_derivative(x, lam, weights, half, p, k)
            if terms and cofactor is not None:
                terms = _kernels._level_one_mul(field, terms, cofactor, ceiling)
            if not acc:
                acc.update(terms)
            elif k == 1:
                for e, c in terms.items():
                    acc[e] = acc[e] + c if e in acc else c
            else:
                for e, c in terms.items():
                    acc[e] = [a + b for a, b in zip(acc[e], c)] if e in acc else c
    coeffs = {}
    for lam, acc in enumerate(sums, 1):  # reduced once, read with plain digits
        if k == 1:
            out = {e + half: r for e, c in acc.items() if (r := c % p)}
        else:
            out = {e + half: r for e, c in acc.items() if any(r := tuple([a % p for a in c]))}
        if out:
            if min(out) < -n * top:  # a term below the window floor
                return None  # the series path raises the refusal
            coeffs[(lam,)] = _flat_series(level, field, out, weights, lows)
    return _windowed_form(_form(level, field, 1, coeffs), n, m)


def _cut_pow(field, x: dict, q: int, ceiling: int) -> dict:
    """``x^q`` by :func:`rswan.scalars.power` over
    :func:`rswan._kernels._level_one_mul`, each partial power ``x^j`` cut
    where the rest of a product with ``x``'s terms, at least ``(q - j + 1)
    min(x)``, would take every term to the flat ``ceiling`` or above."""
    low = min(x)

    def mul(a, b):
        j = a[1] + b[1]
        return _kernels._level_one_mul(field, a[0], b[0], ceiling - (q - j + 1) * low), j

    return power((x, 1), q, mul)[0]


def _negated_derivative(x: dict, lam: int, weights, half: int, p: int, k: int) -> dict:
    """The flat map of ``-T_lam d/dT_lam x``: each coefficient of ``x``
    times minus its level-``lam`` digit, mod ``p``."""
    place = weights[lam] if weights else 1
    radix = weights[lam + 1] // place if weights and lam + 1 < len(weights) else 0
    out = {}
    for e, c in x.items():
        digit = (e + half) // place
        if radix:  # a balanced lower digit
            digit = digit % radix - radix // 2
        if r := -digit % p:
            out[e] = c * r % p if k == 1 else tuple([a * r % p for a in c])
    return out


def rsw_char_p(char: Character) -> RswValue:
    """Refined invariant of a reduced, ramified character.

    Non-reduced input is refused (the raw formula is representative-
    dependent outside the window; forcing an explicit reduction keeps the
    provenance auditable).  Unramified characters (conductor 0) are refused
    with :class:`UnramifiedCharacter`.
    """
    if not isinstance(char, Character):
        raise InconsistentValue("expected a Character (wrap the vector and reduce it first)")
    if not char.reduced:
        raise InconsistentValue(
            "the refined invariant needs a reduced character; reduce it first"
        )
    n = swan_conductor(char)
    if n == 0:
        raise UnramifiedCharacter("the character is unramified (conductor 0)")
    return RswValue(char, rsw_form_at(char.vector, n))


def rsw_is_closed(value: RswValue) -> bool:
    """d of the representative vanishes within the degree-2 window.

    Each term ``a^(p^i-1) da`` is exactly closed, so this holds on the nose;
    the check truncates ``d(representative)`` to the window before testing,
    since canonicalization may already have dropped tail terms.  Over a
    one-variable field the degree-2 module is zero and the answer is
    trivially True.
    """
    form = value.window.form
    if form.degree >= form.level:
        return True
    der = d(form)
    windowed = WindowedForm(der, value.n, value.m)
    return all(c.is_zero() for c in windowed.form.coeffs.values())


def sw_from_rsw(value: RswValue) -> int:
    """Recover the conductor as minus the top order of the representative."""
    depth = None
    for c in value.window.form.coeffs.values():
        if c.coeffs:
            v = -c.ord()
            depth = v if depth is None else max(depth, v)
    if depth is None or not (value.m < depth <= value.n):
        raise InconsistentValue(
            f"representative has no leading order in ({value.m}, {value.n}]"
        )
    return depth


@dataclass(frozen=True)
class RswDecomposition:
    """pi^n * representative = sum_lambda residual[lambda] db_lambda + c dlog pi."""

    residual: dict
    c: NestedSeries
    c_is_unit: bool
    residual_units: dict


def rsw_decompose(value: RswValue) -> RswDecomposition:
    tower = value.character.tower
    n = value.n
    form = value.window.form
    residual = {}
    residual_units = {}
    c = NestedSeries.zero(tower.d, tower.field_domain)
    for key, coeff in form.coeffs.items():
        (lam,) = key
        scaled = coeff.shift(n)  # multiply by pi^n (top variable)
        if lam == tower.d:
            c = scaled
        else:
            name = tower.variables[lam - 1]
            a_lam = scaled.shift_at(lam, -1)  # db_lambda = T_lambda dlog T_lambda
            residual[name] = a_lam
            residual_units[name] = bool(a_lam.coeffs) and a_lam.ord() == 0
    c_is_unit = bool(c.coeffs) and c.ord() == 0
    return RswDecomposition(residual, c, c_is_unit, residual_units)
