"""Property tests of series products and inverses (skipped without
Hypothesis).

For a random level-1 or level-2 series ``a`` of order ``v`` and a width
``w``: ``a * a.inv(w)`` agrees with 1 below ``T^w``; ``a.inv(w)`` is
windowed at ``-v + w`` unless ``a`` is one exact term.  At level 1,
``a.pow(-n, w)`` is ``a.inv(w).pow(n)``.  Any product of two level-2
series, exact or cut at either level, equals the schoolbook dict product,
and any integer combination of level-2 series equals the fold of ``+`` and
``mul_int``.
"""

import operator

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rswan.ratfunc import rat_func_domain  # noqa: E402
from rswan.scalars import fq_domain, galois_ring_domain  # noqa: E402
from rswan.series import NestedSeries, _schoolbook_mul, linear_combination  # noqa: E402

DOMAINS = {
    "F_2": fq_domain(2, 1),
    "F_9": fq_domain(3, 2),
    "Z/16": galois_ring_domain(2, 1, 4),
    "F_3(x)": rat_func_domain(3),
}
MAX_WIDTH = {"F_3(x)": 8}


def _scalar(domain, digits):
    """A raw scalar from small integers: coordinates over (Z/p^s)[g]/(f),
    a polynomial over F_p(x)."""
    if hasattr(domain, "k"):
        cs = [x % domain.modulus for x in digits[: domain.k]]
        cs += [0] * (domain.k - len(cs))
        return cs[0] if domain.k == 1 else tuple(cs)
    return domain.from_polys(digits)


@st.composite
def level_one_series(draw, name=None, max_width=64):
    name = name or draw(st.sampled_from(sorted(DOMAINS)))
    domain = DOMAINS[name]
    width = draw(st.integers(1, min(max_width, MAX_WIDTH.get(name, 64))))
    v = draw(st.integers(-20, 20))
    digits = st.lists(st.integers(0, 15), min_size=1, max_size=3)
    lead = _scalar(domain, draw(digits))
    if domain.is_zero(domain.reduce_mod_p(lead) if hasattr(domain, "k") else lead):
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
    width = draw(st.integers(1, 4 if name == "F_3(x)" else 12))
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


LEVEL_TWO_DOMAINS = {
    "F_2": fq_domain(2, 1),
    "F_4": fq_domain(2, 2),
    "Z/4": galois_ring_domain(2, 1, 2),
    "(Z/16)[g]": galois_ring_domain(2, 2, 4),
    "F_3(x)": rat_func_domain(3),
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
