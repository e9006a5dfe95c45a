"""Series and forms are immutable, whichever route built them.

The trusted constructors (``series._make``, ``logdiff._form``) fill a
private draft class made by ``scalars._draft_of`` (the public class's base
and ``__slots__``, plain stores) and then give the object the public
class.  These tests pin what that relies on: every object that leaves a
constructor or an operation is of the public type and refuses every store
and every deletion, no draft is left alive, and a refusal below the
exponent floor builds nothing.  The one guard is ``scalars._Frozen``, the
base of every immutable class.
"""

import gc

import pytest

from rswan import logdiff, series
from rswan.errors import ExponentOutOfRange
from rswan.extensions import ExtensionMap
from rswan.logdiff import (
    LogForm,
    WindowedForm,
    _form,
    r_b,
    wedge,
    wedge_windowed,
)
from rswan.parser import parse_series
from rswan.ratfunc import rat_func_domain
from rswan.ratfunc import RatFuncDomain
from rswan.reciprocity import theta_lift
from rswan.scalars import _Frozen
from rswan.series import _ORD_FLOOR, NestedSeries, _make, linear_combination
from rswan.tower import FieldTower
from rswan.witt import WittVector, witt_combine
from test_logdiff import window_basis

K1 = FieldTower(2, 1, 1, ("t",))
K2 = FieldTower(2, 1, 1, ("u", "t"))
KW = FieldTower(2, 1, 3, ("t",))
F2 = K1.field_domain

DRAFTS = {
    series._SeriesDraft: NestedSeries,
    logdiff._FormDraft: LogForm,
}


def _live_drafts():
    return [o for o in gc.get_objects() if type(o) in DRAFTS]


def _routes():
    """``(route, object)`` for every way the library builds a series or a form."""
    a = parse_series("t^-2 + 1 + t", K1)
    b = parse_series("t + t^3", K1)
    u = parse_series("u^-1*t^-1 + t", K2)
    v = parse_series("u + u^2*t^-2", K2)
    one_form = LogForm(2, K2.field_domain, 1, {(1,): u})
    two_form = LogForm(2, K2.field_domain, 1, {(2,): v})
    wa = WindowedForm(LogForm(1, F2, 1, {(1,): a}), 3, 0)
    wb = WindowedForm(LogForm(1, F2, 0, {(): b}), -1, -4)
    basis_x = window_basis(2, K2.field_domain, 1, 2, 0, 1)
    basis_y = window_basis(2, K2.field_domain, 1, -1, -3, 1)
    exact = WittVector.from_print_order(KW, [parse_series(x, KW) for x in ("t^-3", "t^-1", "t^-2")])
    windowed = WittVector.from_print_order(
        KW, [parse_series("t^-1", KW).truncate(4), parse_series("t^-1", KW), parse_series("1", KW)]
    )
    yield "NestedSeries()", NestedSeries(1, F2, {-1: 1, 2: 1}, 5)
    yield "NestedSeries.zero", NestedSeries.zero(2, K2.field_domain, 3)
    yield "NestedSeries.constant", NestedSeries.constant(2, K2.field_domain, 1)
    yield "NestedSeries.from_monomials", NestedSeries.from_monomials(
        2, K2.field_domain, [((1, -2), 1), ((0, 3), 1)]
    )
    yield "LogForm()", one_form
    yield "LogForm.zero", LogForm.zero(2, K2.field_domain, 2)
    yield "WindowedForm()", wa
    yield "_make", _make(1, F2, {0: 1, 3: 0}, None)
    yield "_make clean", _make(1, F2, {0: 1}, 2, clean=True)
    yield "_form", _form(1, F2, 1, {(1,): a})
    yield "series +", a + b
    yield "series *", a * b
    yield "series * level 2", u * v
    yield "series inv", a.inv(8)
    yield "series inv level 2", u.inv(8)
    yield "series pow", a.pow(3)
    yield "series pow negative", b.pow(-2, 8)
    yield "linear_combination", linear_combination(1, F2, [(1, a), (3, b)])
    yield "form +", one_form + LogForm(2, K2.field_domain, 1, {(1,): v})
    yield "wedge", wedge(one_form, two_form)
    yield "wedge monomials", wedge(basis_x[0].form, basis_y[-1].form)
    yield "wedge_windowed", wedge_windowed(wa, wb)
    for i, (x, y) in enumerate(zip(basis_x, reversed(basis_y))):
        yield f"wedge_windowed basis {i}", wedge_windowed(x, y)
        collapsed = r_b(wedge_windowed(x, y), 1)
        yield f"r_b basis {i}", collapsed
        yield f"r_b basis {i} coefficient", collapsed.coefficient((1,))
    yield "witt_combine flat", witt_combine([exact.comps, exact.comps], [1, 1], 2)
    yield "witt_combine series", witt_combine([windowed.comps, exact.comps], [1, 1], 2)
    yield "theta_lift", theta_lift(exact)
    yield "theta_lift windowed", theta_lift(windowed)


def _members(obj):
    """The object and every series or form reachable through its slots."""
    if isinstance(obj, tuple):
        for x in obj:
            yield from _members(x)
        return
    yield obj
    if isinstance(obj, NestedSeries) and obj.level > 1:
        for c in obj.coeffs.values():
            yield from _members(c)
    elif isinstance(obj, LogForm):
        for c in obj.coeffs.values():
            yield from _members(c)
    elif isinstance(obj, WindowedForm):
        yield from _members(obj.form)


def test_every_route_returns_an_immutable_object_of_the_public_class():
    seen = set()
    for route, obj in _routes():
        for x in _members(obj):
            assert type(x) in (NestedSeries, LogForm, WindowedForm), (route, type(x))
            seen.add(type(x))
            for slot in type(x).__slots__:
                before = getattr(x, slot)
                with pytest.raises(AttributeError):
                    setattr(x, slot, before)
                assert getattr(x, slot) is before
                with pytest.raises(AttributeError):
                    delattr(x, slot)
                assert getattr(x, slot) is before
            with pytest.raises(AttributeError):
                x.extra = 1
    assert seen == {NestedSeries, LogForm, WindowedForm}
    assert _live_drafts() == []


def test_the_routes_reach_both_sides_of_each_kernel():
    routes = dict(_routes())
    assert routes["witt_combine flat"] and routes["witt_combine series"]
    assert all(c.ceiling is None for c in routes["witt_combine flat"])
    assert any(c.ceiling is not None for c in routes["witt_combine series"])
    assert any(isinstance(v, LogForm) for k, v in routes.items() if k.startswith("r_b"))


@pytest.mark.parametrize("clean", [False, True])
def test_make_below_the_floor_raises_and_builds_nothing(clean):
    gc.collect()
    before = _live_drafts()
    with pytest.raises(ExponentOutOfRange):
        _make(1, F2, {_ORD_FLOOR - 1: 1, 0: 1}, None, clean=clean)
    with pytest.raises(ExponentOutOfRange):
        NestedSeries(1, F2, {_ORD_FLOOR - 1: 1})
    assert before == [] and _live_drafts() == []


def test_each_draft_has_its_public_class_slots():
    """A draft shares its public class's base and slots, so ``__class__``
    assignment is legal, and takes ``object``'s stores; the public class
    takes ``_Frozen``'s guard and defines none of its own."""
    for draft, public in DRAFTS.items():
        assert draft.__slots__ == public.__slots__
        assert draft.__bases__ == public.__bases__ == (_Frozen,)
        assert vars(draft)["__setattr__"] is object.__setattr__
        assert vars(draft)["__delattr__"] is object.__delattr__
        for name in ("__setattr__", "__delattr__"):
            assert name not in vars(public)
            assert getattr(public, name) is getattr(_Frozen, name)


def test_one_guard_serves_every_immutable_class():
    """The five immutable classes take their guard from ``_Frozen``, whose
    refusal names the class, and none keeps an instance ``__dict__``."""
    for cls in (NestedSeries, LogForm, WindowedForm, ExtensionMap, RatFuncDomain):
        assert cls.__bases__ == (_Frozen,)
        assert not {"__setattr__", "__delattr__", "__dict__"} & set(vars(cls))
    series = NestedSeries.one(1, F2)
    with pytest.raises(AttributeError, match="NestedSeries objects are immutable"):
        series.ceiling = 3
    with pytest.raises(AttributeError, match="RatFuncDomain objects are immutable"):
        del rat_func_domain(2).p


def test_the_other_immutable_classes_refuse_stores_and_deletions():
    """``ExtensionMap`` and ``RatFuncDomain`` refuse ``del`` as they refuse
    stores, and keep every attribute."""
    ext = ExtensionMap(K1, K1, {"t": parse_series("t^2 + t^3", K1)})
    domain = rat_func_domain(3)
    for obj, names in ((ext, ("source", "target", "images")), (domain, ("p",))):
        for name in names:
            before = getattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, name, before)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            assert getattr(obj, name) is before
