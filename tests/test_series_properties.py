"""Property tests of series products and inverses (skipped without
Hypothesis).

For a random level-1 or level-2 series ``a`` of order ``v`` and a width
``w``: ``a * a.inv(w)`` agrees with 1 below ``T^w``; ``a.inv(w)`` is
windowed at ``-v + w`` unless ``a`` is one exact term.  At level 1,
``a.pow(-n, w)`` is ``a.inv(w).pow(n)``, and the one division routine
gives ``q / x^n`` as ``q * (x^n).inv(w)``, on the window its rule states,
or refuses as that product does.  Any product of two level-2
series, exact or cut at either level, equals the schoolbook dict product,
and any integer combination of level-2 series equals the fold of ``+`` and
``mul_int``.  On windowed series at levels 1 and 2 the product is
commutative and associative and distributes over ``+``, within both
windows; over a field the two sides of the first two have one window, and
``x * (y + z)`` a window at least as high as ``x * y + x * z`` (``y + z``
may cancel), except where a factor is an exact zero: such a product keeps a
window (the strict ``xfail`` below).  The public constructor accepts exactly the inputs that lie in
its ring, and builds what the trusted ``_make`` builds from them.
"""

import operator

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rswan.scalars import fq_domain, galois_ring_domain  # noqa: E402
from rswan.substitution import _PowerTable  # noqa: E402
from rswan._kernels import _schoolbook_mul  # noqa: E402
from rswan.errors import ExponentOutOfRange, RswanError, TowerMismatch  # noqa: E402
from rswan.series import (  # noqa: E402
    _ORD_FLOOR,
    NestedSeries,
    _divide_by_power,
    _is_lift_non_unit,
    _make,
    linear_combination,
)

DOMAINS = {
    "F_2": fq_domain(2, 1),
    "F_9": fq_domain(3, 2),
    "Z/16": galois_ring_domain(2, 1, 4),
}


def _scalar(domain, digits):
    """A raw scalar from small integers: coordinates over (Z/p^s)[g]/(f)."""
    cs = [x % domain.modulus for x in digits[: domain.k]]
    cs += [0] * (domain.k - len(cs))
    return cs[0] if domain.k == 1 else tuple(cs)


@st.composite
def level_one_series(draw, name=None, max_width=64):
    name = name or draw(st.sampled_from(sorted(DOMAINS)))
    domain = DOMAINS[name]
    width = draw(st.integers(1, max_width))
    v = draw(st.integers(-20, 20))
    digits = st.lists(st.integers(0, 15), min_size=1, max_size=3)
    lead = _scalar(domain, draw(digits))
    if domain.is_zero(domain.reduce_mod_p(lead)):
        lead = domain.add(lead, domain.one())  # a unit
    offsets = draw(st.dictionaries(st.integers(1, width + 4), digits, max_size=6))
    coeffs = {v: lead, **{v + i: _scalar(domain, d) for i, d in offsets.items()}}
    windowed = draw(st.booleans())
    ceiling = v + width if windowed else None
    a = NestedSeries(1, domain, {e: c for e, c in coeffs.items()
                                 if ceiling is None or e < ceiling}, ceiling)
    return a, width


@st.composite
def level_two_unit_series(draw):
    """A level-1 series of ``level_one_series`` as the lowest coefficient at
    ``T^v``, and up to 4 more above it, each exact or windowed; the top level
    windowed at ``v + w``, or exact with terms past it."""
    name = draw(st.sampled_from(sorted(DOMAINS)))
    width = draw(st.integers(1, 12))
    v = draw(st.integers(-6, 6))
    offsets = draw(st.lists(st.integers(1, width + 2), max_size=4, unique=True))
    coeffs = {v + i: draw(level_one_series(name, 8))[0] for i in [0, *offsets]}
    ceiling = v + width if draw(st.booleans()) else None
    a = NestedSeries(2, DOMAINS[name], {e: c for e, c in coeffs.items()
                                        if ceiling is None or e < ceiling}, ceiling)
    return a, width


invertible_series = st.one_of(level_one_series(), level_two_unit_series())


@settings(max_examples=250, deadline=None)
@given(invertible_series)
def test_inverse_agrees_with_one_below_the_width(case):
    a, width = case
    product = (a * a.inv(width)).truncate(width)
    assert product.ceiling == width
    assert product.agrees_with(NestedSeries.one(a.level, a.domain))


@settings(max_examples=250, deadline=None)
@given(invertible_series)
def test_inverse_window_is_the_input_window(case):
    a, width = case
    v = a.ord()
    exact_term = len(a.coeffs) == 1 and a.ceiling is None
    assert a.inv(width).ceiling == (None if exact_term else -v + width)


@settings(max_examples=100, deadline=None)
@given(level_one_series(), st.integers(1, 4))
def test_negative_power_is_the_power_of_the_inverse(case, n):
    a, width = case
    assert a.pow(-n, width) == a.inv(width).pow(n)


@st.composite
def quotient_case(draw):
    """``(q, x, n, w)`` at level 1 over one ring of ``DOMAINS``: ``q`` exact,
    windowed or zero; ``x`` exact or windowed, of several terms or one, of
    negative order too, now and then shifted far enough that ``x^n`` or its
    inverse leaves the exponent range, and over Z/16 now and then with a
    lowest coefficient that is not a unit; ``n`` up to ``2p + 1``, so that
    several base-``p`` digits occur; ``w`` a width from -2 up, or none."""
    name = draw(st.sampled_from(sorted(DOMAINS)))
    domain = DOMAINS[name]
    q = draw(st.one_of(level_one_series(name, 24).map(lambda case: case[0]),
                       st.sampled_from([None, -3, 4]).map(
                           lambda c: NestedSeries.zero(1, domain, c))))
    x, _ = draw(level_one_series(name, 12))
    v = min(x.coeffs)
    terms = dict(x.coeffs)
    if draw(st.integers(0, 3)) == 0:
        terms = {v: terms[v]}
    elif len(terms) == 1:
        terms[v + draw(st.integers(1, 12))] = domain.one()
    if name == "Z/16" and draw(st.integers(0, 3)) == 0:
        terms[v] = 2 * terms[v] % 16
    x = NestedSeries(1, domain, {e: c for e, c in terms.items()
                                 if x.ceiling is None or e < x.ceiling}, x.ceiling)
    x = x.shift(draw(st.sampled_from([0, 0, 0, 0, 2_100, -2_100])))
    n = draw(st.integers(1, 2 * domain.p + 1))
    w = draw(st.one_of(st.none(), st.integers(-2, 24)))
    return q, x, n, w


def _outcome(fn):
    """The series ``fn()`` returns, or the refusal it raises by kind, message
    and exponent."""
    try:
        return fn()
    except RswanError as exc:
        return type(exc), str(exc), getattr(exc, "exponent", None)


@settings(max_examples=300, deadline=None)
@given(quotient_case())
def test_the_quotient_is_the_product_with_the_inverse(case):
    q, x, n, w = case
    got = _outcome(lambda: _divide_by_power(q, x, n, w, _PowerTable({1: x})))
    assert got == _outcome(lambda: q * x.pow(n).inv(w))
    if isinstance(got, NestedSeries) and not _is_lift_non_unit(x.domain, x.coeffs[min(x.coeffs)]):
        # the window by its rule, apart from inv's: x^n's width w_n, or w
        # when x^n is exact and not one term, cuts q's window shifted by -v
        xn = x.pow(n)
        v = xn.ord()
        w_n = xn.ceiling - v if xn.ceiling is not None else None if len(xn.coeffs) == 1 else w
        bounds = [c - v for c in (q.ceiling, None if w_n is None else q.low() + w_n)
                  if c is not None]
        assert got.ceiling == (min(bounds) if bounds else None)


LEVEL_TWO_DOMAINS = {
    "F_2": fq_domain(2, 1),
    "F_4": fq_domain(2, 2),
    "Z/4": galois_ring_domain(2, 1, 2),
    "(Z/16)[g]": galois_ring_domain(2, 2, 4),
}


def schoolbook(x, y):
    """The reference product: the dict loop over term pairs at every level."""
    bounds = [c + o.low() for c, o in ((x.ceiling, y), (y.ceiling, x)) if c is not None]
    ceiling = min(bounds) if bounds else None
    if x.level == 1:
        out = _schoolbook_mul(x.coeffs, y.coeffs, ceiling, x.domain.mul, x.domain.add)
    else:
        out = _schoolbook_mul(x.coeffs, y.coeffs, ceiling, schoolbook, operator.add)
    return NestedSeries(x.level, x.domain, out, ceiling)


@st.composite
def level_two_series(draw, domain):
    """Up to 6 top exponents over up to 5 inner terms, exponents in
    ``[-6, 6]``; a random outer ceiling, and now and then an inner one."""
    exps = st.integers(-6, 6)
    digits = st.lists(st.integers(0, 15), min_size=1, max_size=3)
    ceilings = st.one_of(st.none(), st.integers(-6, 7))
    terms = draw(st.dictionaries(exps, st.dictionaries(exps, digits, min_size=1, max_size=5),
                                 max_size=6))
    coeffs = {}
    for top, inner in terms.items():
        cut = draw(ceilings) if draw(st.integers(0, 9)) == 0 else None
        coeffs[top] = NestedSeries(1, domain, {e: _scalar(domain, d) for e, d in inner.items()
                                               if cut is None or e < cut}, cut)
    cut = draw(ceilings)
    return NestedSeries(2, domain, {e: c for e, c in coeffs.items() if cut is None or e < cut}, cut)


@st.composite
def level_two_pair(draw):
    domain = LEVEL_TWO_DOMAINS[draw(st.sampled_from(sorted(LEVEL_TWO_DOMAINS)))]
    return draw(level_two_series(domain)), draw(level_two_series(domain))


@settings(max_examples=200, deadline=None)
@given(level_two_pair())
def test_level_two_product_is_the_schoolbook_product(pair):
    x, y = pair
    assert x * y == schoolbook(x, y)


@st.composite
def level_two_combination(draw):
    domain = LEVEL_TWO_DOMAINS[draw(st.sampled_from(sorted(LEVEL_TWO_DOMAINS)))]
    pairs = draw(st.lists(st.tuples(st.integers(-40, 40), level_two_series(domain)),
                          max_size=5))
    return domain, pairs


@settings(max_examples=200, deadline=None)
@given(level_two_combination())
def test_level_two_combination_is_the_fold(case):
    domain, pairs = case
    acc = NestedSeries.zero(2, domain)
    for n, x in pairs:
        acc = acc + x.mul_int(n)
    assert linear_combination(2, domain, pairs) == acc


@st.composite
def level_one_windowed(draw, domain):
    """Up to 5 terms with exponents in ``[-6, 6]``, now and then none, and
    a random ceiling or none."""
    digits = st.lists(st.integers(0, 15), min_size=1, max_size=3)
    terms = draw(st.dictionaries(st.integers(-6, 6), digits, max_size=5))
    cut = draw(st.one_of(st.none(), st.integers(-6, 7)))
    return NestedSeries(1, domain, {e: _scalar(domain, d) for e, d in terms.items()
                                    if cut is None or e < cut}, cut)


@st.composite
def windowed_triple(draw):
    """Whether the ring is a field, and three series over it at level 1 or
    2, each exact or windowed, zero now and then."""
    name = draw(st.sampled_from(sorted(LEVEL_TWO_DOMAINS)))
    domain = LEVEL_TWO_DOMAINS[name]
    series = draw(st.sampled_from((level_one_windowed, level_two_series)))(domain)
    return domain.s == 1, draw(series), draw(series), draw(series)


def _at_least(c, floor):
    """Whether the ceiling ``c`` is at least ``floor`` (``None`` is exact)."""
    return c is None or floor is not None and c >= floor


def _windows_compare(field, *factors):
    """Whether the windows of both sides are compared: over a field, when no
    factor is an exact zero (``test_a_product_with_an_exact_zero_is_an_exact_zero``)."""
    return field and not any(f.is_exact_zero() for f in factors)


@settings(max_examples=300, deadline=None)
@given(windowed_triple())
def test_products_commute(case):
    field, x, y, z = case
    assert (x * y).agrees_with(y * x)
    if field:
        assert (x * y).ceiling == (y * x).ceiling


@settings(max_examples=300, deadline=None)
@given(windowed_triple())
def test_products_associate(case):
    field, x, y, z = case
    left, right = (x * y) * z, x * (y * z)
    assert left.agrees_with(right)
    if _windows_compare(field, x, y, z):
        assert left.ceiling == right.ceiling


@settings(max_examples=300, deadline=None)
@given(windowed_triple())
def test_products_distribute_over_sums(case):
    field, x, y, z = case
    left, right = x * (y + z), x * y + x * z
    assert left.agrees_with(right)
    if _windows_compare(field, x, y, z, y + z):
        assert _at_least(left.ceiling, right.ceiling)


@pytest.mark.xfail(strict=True, reason="a product with an exact zero keeps a window")
@pytest.mark.parametrize("level", (1, 2))
def test_a_product_with_an_exact_zero_is_an_exact_zero(level):
    """A product with an exact zero should be the exact zero.  It is
    windowed instead, at the other factor's ceiling plus 0 (``low()`` of
    an exact zero), so the window of a product over a field depends on
    the order of the factors: ``(O(T^7) * y) * 0`` and ``O(T^7) * (y * 0)``
    are zero below ``T^1`` and ``T^9`` for ``y = T^-6 + O(T^2)``."""
    domain = LEVEL_TWO_DOMAINS["F_4"]
    x = NestedSeries.zero(level, domain, 7)
    y = NestedSeries.from_monomials(level, domain, [((-6,) * level, domain.one())]).truncate(2)
    zero = NestedSeries.zero(level, domain)
    assert ((x * y) * zero).ceiling == (x * (y * zero)).ceiling
    assert all(product.is_exact_zero() for product in (x * zero, zero * x, (x * y) * zero))


CONSTRUCTOR_DOMAINS = {
    "F_2": fq_domain(2, 1),
    "F_4": fq_domain(2, 2),
    "Z/16": galois_ring_domain(2, 1, 4),
    "(Z/16)[g]": galois_ring_domain(2, 2, 4),
}


def _in_ring(level, domain, c):
    """Whether ``c`` may stand as a coefficient of a level-``level`` series
    over ``domain``: an inner series one level down over ``domain``, or at
    level 1 an int in ``[0, p^s)`` (a ``k``-tuple of them when ``k > 1``)."""
    if level > 1:
        return isinstance(c, NestedSeries) and c.level == level - 1 and c.domain is domain
    parts = (c,) if domain.k == 1 else c if type(c) is tuple and len(c) == domain.k else None
    return parts is not None and all(type(x) is int and 0 <= x < domain.modulus for x in parts)


@st.composite
def constructor_input(draw):
    """A level, a domain and a small coefficient map and ceiling, with
    entries in and out of the ring: unreduced and negative ints, bools,
    floats, short and long tuples, inner series over another ring or at
    another level, non-int exponents and exponents below the floor."""
    level = draw(st.integers(1, 2))
    domain = CONSTRUCTOR_DOMAINS[draw(st.sampled_from(sorted(CONSTRUCTOR_DOMAINS)))]
    ints = st.integers(-2, 17)
    digit = st.integers(0, domain.modulus - 1)
    reduced = digit if domain.k == 1 else st.tuples(*[digit] * domain.k)
    raws = st.one_of(reduced, ints, st.booleans(), st.just(1.0),
                     st.lists(ints, min_size=1, max_size=3).map(tuple))
    if level == 1:
        values = st.one_of(reduced, raws)
    else:
        inner = st.sampled_from(sorted(CONSTRUCTOR_DOMAINS)).flatmap(
            lambda name: st.builds(
                lambda coeffs, d=CONSTRUCTOR_DOMAINS[name]: _make(1, d, coeffs, None),
                st.dictionaries(st.integers(-3, 3), st.integers(0, 15).map(
                    lambda x, d=CONSTRUCTOR_DOMAINS[name]: d.from_int(x)), max_size=3)))
        own = st.dictionaries(st.integers(-3, 3), reduced, max_size=3).map(
            lambda coeffs: _make(1, domain, coeffs, None))
        values = st.one_of(own, inner, raws, st.just(NestedSeries.one(2, domain)))
    exponents = st.one_of(st.integers(-5, 5), st.integers(_ORD_FLOOR - 3, _ORD_FLOOR + 1),
                          st.booleans(), st.just(0.5))
    coeffs = draw(st.dictionaries(exponents, values, max_size=4))
    ceiling = draw(st.one_of(st.none(), st.integers(-5, 6), st.booleans(), st.just(2.0)))
    return level, domain, coeffs, ceiling


@settings(max_examples=400, deadline=None)
@given(constructor_input())
def test_the_constructor_builds_what_make_builds_or_refuses(case):
    level, domain, coeffs, ceiling = case
    valid = (
        (ceiling is None or type(ceiling) is int)
        and all(type(e) is int for e in coeffs)
        and all(_in_ring(level, domain, c) for c in coeffs.values())
    )
    if not valid:
        with pytest.raises(TowerMismatch):
            NestedSeries(level, domain, coeffs, ceiling)
        return
    kept = [e for e, c in coeffs.items() if (ceiling is None or e < ceiling)
            and not (c == domain.zero() if level == 1 else c.is_exact_zero())]
    if kept and min(kept) < _ORD_FLOOR:
        with pytest.raises(ExponentOutOfRange):
            NestedSeries(level, domain, coeffs, ceiling)
        return
    assert NestedSeries(level, domain, coeffs, ceiling) == _make(level, domain, coeffs, ceiling)
