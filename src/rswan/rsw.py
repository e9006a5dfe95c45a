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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InconsistentValue, UnramifiedCharacter
from .logdiff import LogForm, WindowedForm, d
from .series import NestedSeries
from .witt import Character, WittVector, swan_conductor

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
    uses a term of ``a_i`` at ``e >= -m - (p^i - 1) v`` (``v`` the lowest
    stored exponent of ``a_i``) has order ``>= -m``, so ``a_i`` is cut there
    before the power, and a component cut to nothing is left out.
    """
    tower = vec.tower
    p = tower.p
    if n < 1:
        raise UnramifiedCharacter("the invariant lives at conductor >= 1")
    m = n // p
    total = LogForm.zero(tower.d, tower.field_domain, 1)
    for i, a_i in enumerate(vec.comps):
        if a_i.is_zero():
            continue
        v = a_i.low()
        cut = -m - (p**i - 1) * v
        if cut <= v:
            continue
        a_i = a_i.truncate(cut)
        weight = a_i.pow(p**i - 1)
        total = total + d(a_i).scale(weight)
    total = -total
    return WindowedForm(total, n, m)


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
