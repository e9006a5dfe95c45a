"""Nested truncated Laurent series: exact arithmetic and window tracking.

Oracles used here:
  * the inverse of 1 - t is compared against the geometric sum 1 + t + ...;
  * substitution is checked against hand-expanded polynomials, and on a
    seeded grid against the table of powers (``power_table_substitute_oracle``),
    which stays as the reference; the division of its poles is checked
    against the product with the inverse of the exact power
    (``inverse_product_substitute_oracle``), which stays as the reference
    too;
  * random-series arithmetic identities certify the ring structure;
  * window propagation rules are asserted with exact expected ceilings;
  * the product kernels (Kronecker, the plain-int loop and the flat
    product at levels 2 and 3) are compared against the schoolbook dict
    product, which stays as the reference;
  * the inverse by recurrence is compared at levels 1, 2 and 3 against
    the Newton loop (``newton_inverse_oracle``), which stays as the
    reference;
  * ``linear_combination`` is compared at levels 1, 2 and 3 against the
    fold of ``+`` and ``mul_int`` (``fold_combination_oracle``), which
    stays as the reference.
"""

import operator
import random
from collections import Counter
from itertools import product

import pytest

import rswan._kernels
import rswan.series

from rswan._kernels import (
    _KRONECKER_MIN_PAIRS,
    _flat_mul,
    _g_reducer,
    _g_width,
    _int_mul,
    _kronecker_applies,
    _kronecker_mul,
    _pack_g,
    _schoolbook_mul,
)
from rswan.errors import (
    ExponentOutOfRange,
    InconsistentValue,
    NoPthRoot,
    ParseError,
    PrecisionExhausted,
    RswanError,
    TowerMismatch,
    UnknownVariable,
    ZeroInput,
)
from rswan.parser import parse_series, render_series
from rswan.ratfunc import rat_func_domain
from rswan.scalars import fq_domain, galois_ring_domain
from rswan.series import _FLAT_MIN_PAIRS, NestedSeries, linear_combination
from rswan.substitution import series_substitute
from rswan.tower import FieldTower

F2 = fq_domain(2, 1)
F3 = fq_domain(3, 1)
F4 = fq_domain(2, 2)

K2 = FieldTower(2, 1, 1, ("t",))
K3 = FieldTower(3, 1, 1, ("t",))
KD = FieldTower(2, 1, 1, ("u", "t"))
K4 = FieldTower(2, 2, 1, ("t",))


def mono(level, domain, exps, c=1):
    raw = domain.from_int(c) if isinstance(c, int) else c
    return NestedSeries.from_monomials(level, domain, [(tuple(exps), raw)])


def random_series(rng, level, domain, lo=-4, hi=5, terms=4):
    monos = []
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(lo, hi) for _ in range(level))
        c = domain.random_nonzero(rng)
        monos.append((exps, c))
    return NestedSeries.from_monomials(level, domain, monos)


# ------------------------------------------------------------- ring structure

@pytest.mark.parametrize("level,domain", [(1, F2), (1, F3), (2, F2), (1, F4)])
def test_ring_axioms_random(level, domain):
    rng = random.Random(23)
    zero = NestedSeries.zero(level, domain)
    one = NestedSeries.one(level, domain)
    for _ in range(60):
        a = random_series(rng, level, domain)
        b = random_series(rng, level, domain)
        c = random_series(rng, level, domain)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + zero == a
        assert a - a == zero
        assert a * one == a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_characteristic_p_addition():
    a = mono(1, F3, (2,))
    assert a + a + a == NestedSeries.zero(1, F3)
    b = mono(1, F2, (-1,))
    assert b + b == NestedSeries.zero(1, F2)


def test_ord_low_and_leading():
    f = mono(1, F2, (-3,)) + mono(1, F2, (5,))
    assert f.ord() == -3
    assert f.low() == -3
    with pytest.raises(PrecisionExhausted, match="zero below its window ceiling 7"):
        NestedSeries.zero(1, F2, ceiling=7).ord()
    with pytest.raises(ZeroInput):
        NestedSeries.zero(1, F2).ord()
    assert NestedSeries.zero(1, F2, ceiling=7).low() == 7
    assert NestedSeries.zero(1, F2).is_zero()


# ---------------------------------------------------------------- inversion

def test_geometric_series_oracle():
    """(1 - t)^{-1} = 1 + t + t^2 + ... up to the requested window."""
    one = NestedSeries.one(1, F3)
    t = NestedSeries.variable(1, F3, 1)
    f = one - t
    inv = f.inv(12)
    geom = NestedSeries.from_monomials(1, F3, [((i,), F3.one()) for i in range(12)])
    assert inv.agrees_with(geom)
    assert inv.ceiling == 12
    assert f * inv == NestedSeries.one(1, F3).truncate(12)


def test_inverse_of_shifted_unit():
    t = NestedSeries.variable(1, F2, 1)
    f = t.shift(-2) + t  # t^{-1} + t
    inv = f.inv(10)
    prod = f * inv
    assert prod.agrees_with(NestedSeries.one(1, F2))


def test_inverse_without_width_refuses_a_fresh_window():
    """An exact sum has no window of its own; its inverse needs a width."""
    f = parse_series("1 + t", K2)
    with pytest.raises(PrecisionExhausted):
        f.inv()
    assert f.inv(8).ceiling == 8
    assert parse_series("t^-3", K2).inv() == parse_series("t^3", K2)


def test_inverse_of_zero_refused():
    """An exact zero has no inverse; a series zero only within its window
    is unknown, so its inverse is refused at the window's ceiling."""
    with pytest.raises(ZeroInput):
        NestedSeries.zero(1, F2).inv(8)
    with pytest.raises(PrecisionExhausted, match="zero below its window ceiling 3") as info:
        NestedSeries.zero(1, F2, ceiling=3).inv(8)
    assert info.value.exponent == 3


def test_inverse_random_certified():
    rng = random.Random(31)
    for level, domain in [(1, F3), (2, F2)]:
        one = NestedSeries.one(level, domain)
        for _ in range(25):
            f = random_series(rng, level, domain)
            if f.is_zero():
                continue
            inv = f.inv(24)
            assert (f * inv).agrees_with(one)


def test_lift_ring_inverse_past_a_non_unit_lead():
    """Over a lift ring a series with a unit coefficient is a unit even when
    its lowest coefficient is not: ``(2u + u^2)^-1 = u^-2 + 6u^-3 + 4u^-4``
    over Z/8, and seeded series with a nilpotent head over Z/8, Z/9[g] and
    Z/16[g] invert on their windows."""
    z8 = galois_ring_domain(2, 1, 3)
    a = NestedSeries(1, z8, {1: 2, 2: 1})
    inv = a.inv(8)
    assert inv.agrees_with(NestedSeries(1, z8, {-2: 1, -3: 6, -4: 4}))
    assert (a * inv).agrees_with(NestedSeries.one(1, z8))
    rng = random.Random("nilpotent head")
    for dom in (z8, galois_ring_domain(3, 2, 2), galois_ring_domain(2, 2, 4)):
        one = NestedSeries.one(1, dom)
        for _ in range(8):
            v = rng.randint(-4, 2)
            coeffs = {e: dom.mul_int(dom.random_nonzero(rng), dom.p) for e in range(v, v + 3)}
            u = v + 3
            for e in [u] + rng.sample(range(u + 1, u + 5), rng.randint(0, 2)):
                coeffs[e] = dom.lift_from_field(fq_domain(dom.p, dom.k).random_nonzero(rng))
            f = NestedSeries(1, dom, coeffs, rng.choice((None, u + 6)))
            prod = f * f.inv(24)
            assert prod.agrees_with(one)
            if f.ceiling is None:
                assert prod.ceiling is None or prod.ceiling > 0


def test_lift_ring_inverse_without_a_unit_coefficient_refuses():
    """No stored unit coefficient: an exact series is nilpotent, and a
    windowed one leaves it to the unknown tail."""
    z8 = galois_ring_domain(2, 1, 3)
    with pytest.raises(ZeroInput):
        NestedSeries(1, z8, {1: 2, 3: 4}).inv(8)
    with pytest.raises(PrecisionExhausted):
        NestedSeries(1, z8, {1: 2, 3: 4}, 5).inv(8)


def newton_inverse_oracle(a, precision=None):
    """The inverse by Newton iteration ``x <- x (2 - a x)`` at every width
    and level, inner leads included, as ``NestedSeries.inv`` computed it
    at levels >= 2 before the recurrence ran at every level."""
    if not a.coeffs:
        raise ZeroInput("cannot invert a (window-)zero series")
    v = a.ord()
    lead = a.coeffs[v]
    lead_inv = a.domain.inv(lead) if a.level == 1 else newton_inverse_oracle(lead, precision)
    if len(a.coeffs) == 1:
        out = NestedSeries(a.level, a.domain, {-v: lead_inv})
        return out if a.ceiling is None else out.truncate(-v + (a.ceiling - v))
    if a.ceiling is not None:
        width = a.ceiling - v
    elif precision is not None:
        width = precision
    else:
        raise PrecisionExhausted("the inverse of an exact series with several terms needs a width")
    two = NestedSeries.one(a.level, a.domain).mul_int(2)
    x = NestedSeries(a.level, a.domain, {-v: lead_inv}, -v + width)
    a = a.truncate(v + width)
    for _ in range(max(1, (width - 1).bit_length() + 1)):
        x = (x * (two - a * x)).truncate(-v + width)
    return x


F9 = fq_domain(3, 2)
Z16 = galois_ring_domain(2, 1, 4)
Z16G = galois_ring_domain(2, 2, 4)
FX = rat_func_domain(3)  # a series over F_p(x) is built, added and read, and refuses the rest


def unit_coefficient(rng, domain, level, inner_window):
    """A unit of the level-``level`` ring (a raw scalar at level 0): a unit
    lead and up to two more terms, windowed when ``inner_window``."""
    if level == 0:
        x = domain.random_nonzero(rng)
        while domain.is_zero(domain.reduce_mod_p(x)):
            x = domain.random_nonzero(rng)
        return x
    v = rng.randint(-3, 3)
    coeffs = {v + j: unit_coefficient(rng, domain, level - 1, inner_window)
              for j in [0] + rng.sample(range(1, 4), rng.randint(0, 2))}
    return NestedSeries(level, domain, coeffs, v + rng.randint(1, 4) if inner_window else None)


def test_single_term_inverse_matches_the_old_body(monkeypatch):
    """A single-term series inverts to one term, windowed exactly as its
    input: equal, ceilings included, to the Newton oracle, whose
    single-term branch is the body ``NestedSeries.inv`` had before it built
    through ``_make``; and a monomial's inverse calls no validating
    constructor."""
    rng = random.Random("single term")
    for domain in (F2, F9, Z16, galois_ring_domain(3, 1, 2)):
        for level in (1, 2, 3):
            for window in ("exact", "top", "inner"):
                for _ in range(4):
                    v = rng.randint(-6, 6)
                    lead = unit_coefficient(rng, domain, level - 1, window == "inner")
                    ceiling = v + rng.randint(1, 5) if window == "top" else None
                    f = NestedSeries(level, domain, {v: lead}, ceiling)
                    assert f.inv(8) == newton_inverse_oracle(f, 8), (f, window)
    monos = [mono(level, F9, range(-level, 0)) for level in (1, 2, 3)]
    built = []
    init = NestedSeries.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NestedSeries, "__init__", counting)
    for f in monos:
        f.inv()
    assert built == []


def random_invertible(rng, domain, width, terms, windowed):
    """``terms`` stored terms in ``[v, v + width)``, a unit lead at ``v``;
    windowed at ``v + width``, or exact with terms past the window too."""
    v = rng.randint(-12, 12)
    lead = domain.random_nonzero(rng)
    while domain in (Z16, Z16G) and domain.is_zero(domain.reduce_mod_p(lead)):
        lead = domain.random_nonzero(rng)
    coeffs = {v: lead}
    for e in rng.sample(range(v + 1, v + width), terms - 1):
        coeffs[e] = domain.random_nonzero(rng)
    if windowed:
        return NestedSeries(1, domain, coeffs, v + width)
    for _ in range(rng.randint(0, 2)):
        coeffs[v + width + rng.randint(0, 4)] = domain.random_nonzero(rng)
    return NestedSeries(1, domain, coeffs)


@pytest.mark.parametrize("name,domain,widths", [
    ("F_2", F2, (1, 80)), ("F_9", F9, (1, 80)), ("Z/16", Z16, (1, 80)),
    ("(Z/16)[g]", Z16G, (1, 80)),
])
def test_level_one_inverse_matches_the_newton_oracle(name, domain, widths):
    """Equal, window and values, from one term to a full window.  Every
    coefficient ring but ``Z/p^s`` at ``k = 1`` runs the recurrence on its
    domain's operations: ``F_9`` and ``(Z/16)[g]`` (k = 2, s = 4)."""
    rng = random.Random(f"inverse:{name}")
    cases = [(w, t) for w in (1, 2, widths[1]) for t in (1, w)]
    cases += [(w, rng.randint(1, w)) for w in (rng.randint(*widths) for _ in range(36))]
    if domain is F2:  # wide and dense
        cases += [(200, 194)] * 2
    for i, (width, terms) in enumerate(cases):
        a = random_invertible(rng, domain, width, terms, windowed=i % 2 == 1)
        assert a.inv(width) == newton_inverse_oracle(a, width)


def random_nested_unit(rng, level, domain, inner_windowed, top_windowed):
    """1-4 top terms in a span of 6 (1-3 at level 1), the lowest exponent's
    coefficient with a unit lead at every level.  Inner levels are windowed
    when ``inner_windowed``: cut 0-4 above their lead, where a cut at 0
    leaves a coefficient zero within its window.  The top level is windowed
    when ``top_windowed``: cut 1-6 above its lead."""
    if level == 1:
        lead = domain.random_nonzero(rng)
        while domain is Z16 and lead % 2 == 0:
            lead = domain.random_nonzero(rng)
        v = rng.randint(-3, 3)
        coeffs = {v: lead}
        for i in rng.sample(range(1, 6), rng.randint(0, 2)):
            coeffs[v + i] = domain.random_nonzero(rng)
        if not inner_windowed:
            return NestedSeries(1, domain, coeffs)
        cut = v + rng.choice((0, 1, 1, 2, 4))
        return NestedSeries(1, domain, {e: c for e, c in coeffs.items() if e < cut}, cut)
    v = rng.randint(-3, 3)
    exps = [v] + [v + i for i in rng.sample(range(1, 6), rng.randint(0, 3))]
    coeffs = {e: random_nested_unit(rng, level - 1, domain, inner_windowed, inner_windowed)
              for e in exps}
    if not top_windowed:
        return NestedSeries(level, domain, coeffs)
    cut = v + rng.randint(1, 6)
    return NestedSeries(level, domain, {e: c for e, c in coeffs.items() if e < cut}, cut)


def inverse_or_error(invert, a, precision):
    """The inverse, or the type of the library error it raised."""
    try:
        return invert(a, precision)
    except (PrecisionExhausted, ZeroInput) as exc:
        return type(exc)


@pytest.mark.parametrize("name,domain", [("F_2", F2), ("F_9", F9), ("Z/16", Z16)])
def test_nested_inverse_matches_the_newton_oracle(name, domain):
    """Levels 2 and 3: equal values and ceilings at every level, or the
    same error, over exact and windowed inner and top levels, at precisions
    4-16."""
    rng = random.Random(f"nested inverse:{name}")
    seen = set()
    for level in (2, 3):
        for inner_windowed in (False, True):
            for top_windowed in (False, True):
                for _ in range(5):
                    a = random_nested_unit(rng, level, domain, inner_windowed, top_windowed)
                    precision = rng.randint(4, 16)
                    got = inverse_or_error(NestedSeries.inv, a, precision)
                    assert got == inverse_or_error(newton_inverse_oracle, a, precision)
                    seen.add(got if isinstance(got, type) else (level, got.is_exact()))
    assert PrecisionExhausted in seen
    assert {(2, False), (3, False)} <= seen


# ----------------------------------------------------------- window algebra

def power_cases():
    """Exact and windowed series at levels 1 and 2 over F_2 and F_9, the
    level-2 windowed one with an inner window."""
    for dom in (F2, F9):
        g = dom.generator()
        inner = NestedSeries(1, dom, {0: dom.one(), 1: g}, 3)
        yield NestedSeries(1, dom, {0: dom.one(), 1: g})
        yield NestedSeries(1, dom, {-1: g, 0: dom.one(), 2: g}, 3)
        yield NestedSeries(2, dom, {-1: mono(1, dom, (1,)), 1: mono(1, dom, (-1,), g)})
        yield NestedSeries(2, dom, {0: inner, 1: mono(1, dom, (-1,))}, 4)


def test_series_power_is_repeated_multiplication():
    """``pow`` (square-and-multiply) equals n - 1 products for n = 1..40,
    ceilings at every level included."""
    for x in power_cases():
        acc = x
        for n in range(1, 41):
            if n > 1:
                acc = acc * x
            assert x.pow(n) == acc, (x, n)
        assert x.pow(0) == NestedSeries.one(x.level, x.domain)


def test_mul_ceiling_rule():
    """ceiling(a*b) = min(ceil_a + low_b, ceil_b + low_a)."""
    a = (mono(1, F2, (2,)) + mono(1, F2, (4,))).truncate(6)
    b = mono(1, F2, (-1,)) + mono(1, F2, (3,))
    prod = a * b
    assert prod.ceiling == 6 + (-1)
    prod2 = b * a
    assert prod2.ceiling == 5
    c = b.truncate(10)
    assert (a * c).ceiling == min(6 + (-1), 10 + 2)


def test_add_ceiling_rule():
    a = mono(1, F2, (1,)).truncate(5)
    b = mono(1, F2, (2,)).truncate(9)
    assert (a + b).ceiling == 5
    assert (a + mono(1, F2, (2,))).ceiling == 5


def test_truncate_drops_terms_and_mins():
    f = mono(1, F2, (1,)) + mono(1, F2, (8,))
    g = f.truncate(4)
    assert g.ceiling == 4
    with pytest.raises(PrecisionExhausted):
        g.coefficient(8)  # beyond the window: unknown, not zero
    assert g.coefficient(1) == F2.one()
    assert g.truncate(10).ceiling == 4  # never widens


def test_exact_equality_vs_agreement():
    f = mono(1, F2, (1,))
    g = f.truncate(5)
    assert f != g  # ceilings differ
    assert f.agrees_with(g)
    h = f + mono(1, F2, (7,))
    assert h.agrees_with(g)  # difference hidden above the window
    assert not h.agrees_with(f)


# --------------------------------------------------------------- frobenius

@pytest.mark.parametrize("level,domain,p", [(1, F2, 2), (1, F3, 3), (2, F2, 2), (1, F4, 2)])
def test_frobenius_is_pth_power_map(level, domain, p):
    rng = random.Random(41)
    for _ in range(20):
        f = random_series(rng, level, domain)
        assert f.frobenius() == f.pow(p)
        assert f.frobenius().pth_root() == f


def test_pth_root_refuses_non_powers():
    t = NestedSeries.variable(1, F2, 1)
    with pytest.raises(NoPthRoot):
        t.pth_root()


def test_pth_root_multivariate():
    f = mono(2, F2, (2, -4)) + mono(2, F2, (0, 2))
    root = f.pth_root()
    assert root == mono(2, F2, (1, -2)) + mono(2, F2, (0, 1))


# ------------------------------------------------------------- substitution

def test_substitution_polynomial_oracle():
    """f = t^2 + t at t -> u + u^2 expands to u + 2u^2 + 2u^3 + u^4 = u + u^4 mod 2."""
    t = NestedSeries.variable(1, F2, 1)
    f = t * t + t
    u = NestedSeries.variable(1, F2, 1)
    g = u + u * u
    out = series_substitute(f, {1: g})
    assert out == u + u.pow(4)


def test_substitution_laurent_tail():
    """t^{-1} at t -> u^2(1+u): hand-inverted 2-adic tail."""
    t = NestedSeries.variable(1, F2, 1)
    f = t.shift(-2)  # t^{-1}
    img = mono(1, F2, (2,)) + mono(1, F2, (3,))
    out = series_substitute(f, {1: img}, precision=8)
    # (u^2 + u^3)^{-1} = u^{-2} (1 + u)^{-1} = u^{-2} (1 + u + u^2 + ...)
    expect = NestedSeries.from_monomials(1, F2, [((i,), F2.one()) for i in range(-2, 6)])
    assert out.agrees_with(expect)


def test_substitution_power_table_matches_fresh_powers():
    """Dense exponents of both signs, exact and windowed: Horner's rule
    (gap powers, then one power and one inverse) gives the sum of fresh
    powers ``img.pow(e)`` term by term, windows included."""
    dom = fq_domain(3, 2)
    rng = random.Random(17)
    img = NestedSeries.from_monomials(
        1, dom, [((2,), dom.one()), ((3,), dom.random_nonzero(rng)), ((5,), dom.random_nonzero(rng))]
    )
    for ceiling in (None, 4):
        f = NestedSeries.from_monomials(
            1, dom, [((e,), dom.random_nonzero(rng)) for e in range(-6, 7) if e != -3]
        ).truncate(ceiling)
        inv = img.inv(12)
        want = NestedSeries.zero(1, dom)
        for e, c in f.coeffs.items():
            power = img.pow(e) if e >= 0 else inv.pow(-e)
            want = want + power.scalar_mul(c)
        if ceiling is not None:
            want = want.truncate(2 * ceiling)
        assert series_substitute(f, {1: img}, precision=12) == want


def power_table_substitute_oracle(a, images, precision=None):
    """``series_substitute`` as a sum of ``piece_e * img^e`` over a table of
    powers: ``img^e`` from its neighbour in the table, or ``img.pow(e)``,
    and ``inv(img)^|e|`` for ``e < 0``; the tail is bounded by ``ord(img)``
    and passes untouched through a zero image (the evaluation before
    Horner's rule)."""
    out_level = next(iter(images.values())).level
    domain = next(iter(images.values())).domain
    powers = {level: {} for level in images}

    def power(img, table, e):
        if e < 0 and -1 not in table:
            table[-1] = img.inv(precision)
        if e not in table:
            if e - 1 in table and e not in (0, 1):
                table[e] = table[e - 1] * img
            elif e + 1 in table and e < -1:
                table[e] = table[e + 1] * table[-1]
            else:
                table[e] = img.pow(e) if e >= 0 else table[-1].pow(-e)
        return table[e]

    def substitute(a):
        img = images[a.level]
        result = NestedSeries.zero(out_level, domain)
        for e in sorted(a.coeffs):
            c = a.coeffs[e]
            piece = NestedSeries.constant(out_level, domain, c) if a.level == 1 else substitute(c)
            result = result + piece * power(img, powers[a.level], e)
        if a.ceiling is not None and not img.is_zero():
            m = img.ord()
            if m < 1:
                raise PrecisionExhausted("windowed series through a unit-order image")
            result = result.truncate(m * a.ceiling)
        return result

    return substitute(a)


# The substitution grid: F_2, F_9, F_5 and the lift ring Z/8.
GRID_DOMAINS = (F2, fq_domain(3, 2), fq_domain(5, 1), galois_ring_domain(2, 1, 3))


def grid_series(rng, level, domain, tops, windows):
    """A series at ``level`` with top exponents ``tops`` (lower ones in
    -2..2); with ``windows``, some level-1 coefficients of a level-2 series
    take a window."""
    if level == 1:
        return NestedSeries(1, domain, {e: domain.random_nonzero(rng) for e in tops})
    coeffs = {}
    for e in tops:
        c = grid_series(rng, 1, domain, rng.sample(range(-2, 3), rng.randint(1, 3)), False)
        if windows and rng.random() < 0.3:
            c = c.truncate(min(c.coeffs) + rng.randint(0, 3))
        coeffs[e] = c
    return NestedSeries(2, domain, coeffs)


def grid_cell(rng, domain, d_src, d_tgt):
    """``(source, images, precision)``: a source over ``d_src`` variables with
    top exponents in -8..6, exact or windowed; images over ``d_tgt``
    variables, exact or windowed, the top one of order 1..3 and the lower
    one of order 0."""
    windows = rng.random() < 0.5
    f = grid_series(rng, d_src, domain, rng.sample(range(-8, 7), rng.randint(1, 5)), windows)
    if windows:
        f = f.truncate(max(f.coeffs) + rng.randint(-1, 3))
    images = {}
    for j in range(1, d_src + 1):
        order = rng.randint(1, 3) if j == d_src else 0
        tops = [order] + rng.sample(range(order + 1, order + 5), rng.randint(0, 3))
        img_windows = rng.random() < 0.4
        img = grid_series(rng, d_tgt, domain, tops, img_windows)
        if img_windows:
            img = img.truncate(order + rng.randint(1, 5))
        images[j] = img
    return f, images, rng.randint(4, 10)


def substitution_outcome(fn, *args):
    """The series ``fn`` returns, or the type of the library error it raises."""
    try:
        return fn(*args)
    except (PrecisionExhausted, ZeroInput) as exc:
        return type(exc)


@pytest.mark.parametrize("d_src,d_tgt", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_substitution_matches_the_power_table_oracle(d_src, d_tgt):
    """Horner's rule against the table of powers.  One-variable sources into
    one-variable targets over fields give the oracle's answers with ``==``
    (errors included); every other answer agrees, on the common window,
    with the oracle and with the oracle at four times the precision.  Over
    Z/8 the oracle refuses ``inv(img)`` for a non-unit lead, while a power
    of the image can have a unit lead and invert; such an answer ``r`` for a
    one-variable source with least exponent ``-k`` is checked by
    ``r * img^k = sum_e a_e img^(e + k)``."""
    rng = random.Random(f"substitution grid {d_src} {d_tgt}")
    answered = 0
    for domain in GRID_DOMAINS:
        field = domain.s == 1
        for _ in range(30):
            f, images, precision = grid_cell(rng, domain, d_src, d_tgt)
            got = substitution_outcome(series_substitute, f, images, precision)
            want = substitution_outcome(power_table_substitute_oracle, f, images, precision)
            if field and d_src == d_tgt == 1:
                assert got == want, (f, images)
            if not isinstance(got, NestedSeries):
                continue
            answered += 1
            k = -min(f.coeffs, default=0)
            if not isinstance(want, NestedSeries) and d_src == 1 and k > 0:
                img = images[1]
                poly = NestedSeries.zero(d_tgt, domain)
                for e, c in f.coeffs.items():
                    poly = poly + img.pow(e + k).scalar_mul(c)
                if f.ceiling is not None:
                    poly = poly.truncate(img.low() * (f.ceiling + k))
                assert (got * img.pow(k)).agrees_with(poly), (f, images, got)
            wide = substitution_outcome(power_table_substitute_oracle, f, images, 4 * precision)
            for ref in (want, wide):
                if isinstance(ref, NestedSeries):
                    assert got.agrees_with(ref), (f, images, got, ref)
    assert answered >= 40


def inverse_product_substitute_oracle(a, images, precision=None):
    """``series_substitute`` with the poles' step ``q * (img^n).inv(precision)``:
    the product with the inverse of one exact power, which the division
    replaced, stays as the reference.  Horner's rule, the split of the poles
    from the rest and the bound on the tail are the library's."""
    img = images[a.level]
    poles = {e: c for e, c in a.coeffs.items() if e < 0}
    if poles and len(poles) < len(a.coeffs):
        rest = NestedSeries(a.level, a.domain, {e: c for e, c in a.coeffs.items() if e >= 0},
                            a.ceiling)
        return (inverse_product_substitute_oracle(rest, images, precision)
                + inverse_product_substitute_oracle(NestedSeries(a.level, a.domain, poles),
                                                    images, precision))
    q = NestedSeries.zero(img.level, img.domain)
    last = None
    for e, c in sorted(a.coeffs.items(), reverse=True):
        piece = (NestedSeries.constant(img.level, img.domain, c) if a.level == 1
                 else inverse_product_substitute_oracle(c, images, precision))
        q = piece if last is None else q * img.pow(last - e) + piece
        last = e
    if last is not None and last > 0:
        q = q * img.pow(last)
    elif last is not None and last < 0:
        q = q * img.pow(-last).inv(precision)
    if a.ceiling is None or (img.is_exact_zero() and a.ceiling >= 1):
        return q
    m = img.low() if a.ceiling >= 0 or img.is_exact_zero() else img.ord()
    if m < 1:
        raise PrecisionExhausted("tail through an image of order < 1", exponent=a.ceiling)
    return q.truncate(m * a.ceiling)


def refusal_or_series(fn, *args):
    """The series ``fn`` returns, or the kind, message and exponent of the
    library error it raises."""
    try:
        return fn(*args)
    except RswanError as exc:
        return type(exc), str(exc), getattr(exc, "exponent", None)


# F_2, F_3, F_5, F_4, F_9 and the lift ring Z/9.
Z9 = galois_ring_domain(3, 1, 2)
DIVISION_DOMAINS = (F2, F3, fq_domain(5, 1), F4, fq_domain(3, 2), Z9)


def division_cell(rng, domain):
    """``(source, images, precision)``: a level-1 source with a deepest pole
    of order 1..40 and up to four more exponents in -40..5, exact or windowed,
    through an exact, windowed or monomial image of order 1..5; over Z/9 the
    image's other terms are sometimes multiples of 3, so that its power can
    be one term.  Sometimes a level-2 source goes through a unit image of
    ``T1`` into the same level-1 target, which makes the Horner sum
    windowed.  The width is 1..128, or None."""
    order = rng.randint(1, 5)
    kind = rng.choice(("exact", "windowed", "monomial"))
    terms = {order: domain.random_nonzero(rng)}
    if kind != "monomial":
        for e in rng.sample(range(order + 1, order + 9), rng.randint(1, 3)):
            c = domain.random_nonzero(rng)
            terms[e] = domain.mul_int(c, 3) if domain is Z9 and rng.random() < 0.5 else c
    img = NestedSeries(1, domain, terms)
    if kind == "windowed" or rng.random() < 0.2:
        img = img.truncate(order + rng.randint(1, 12))
    deepest = rng.randint(1, 40)
    exps = {-deepest, *rng.sample(range(-deepest, 6), rng.randint(0, 4))}
    source = NestedSeries(1, domain, {e: domain.random_nonzero(rng) for e in exps})
    if rng.random() < 0.3:
        source = source.truncate(max(source.coeffs) + rng.randint(-1, 4))
    images = {1: img}
    if rng.random() < 0.15:
        inner = {e: NestedSeries(1, domain, {rng.randint(-3, 2): domain.random_nonzero(rng)})
                 for e in exps}
        source = NestedSeries(2, domain, inner)
        images = {1: NestedSeries(1, domain, {0: domain.one(), 1: domain.random_nonzero(rng)}),
                  2: img}
    precision = None if rng.random() < 0.1 else rng.randint(1, 128)
    return source, images, precision


def test_substitution_divides_as_the_inverse_product_and_the_power_table_did():
    """The division of the poles against two oracles: every outcome equals
    the product with the inverse of the exact power (series with ``==``,
    refusals by kind, message and exponent); and a level-1 source over a
    field gives the power table's outcome with ``==`` (its refusals by
    kind), while over Z/9 a series that both give agrees on the common
    window (one power of the image can be a single exact term)."""
    rng = random.Random("substitution against two oracles")
    seen = Counter()
    for i in range(420):
        domain = DIVISION_DOMAINS[i % len(DIVISION_DOMAINS)]
        source, images, precision = division_cell(rng, domain)
        got = refusal_or_series(series_substitute, source, images, precision)
        assert got == refusal_or_series(inverse_product_substitute_oracle, source, images,
                                        precision), (source, images, precision)
        table = substitution_outcome(power_table_substitute_oracle, source, images, precision)
        if isinstance(got, NestedSeries):
            seen["answered", images[1].ceiling is None, len(images[1].coeffs) == 1] += 1
            if source.level == 1 and domain is not Z9:
                assert got == table, (source, images, precision)
            elif isinstance(table, NestedSeries):
                assert got.agrees_with(table), (source, images, precision)
        else:
            seen["refused"] += 1
            if source.level == 1 and domain is not Z9:
                assert got[0] is table, (source, images, precision)
    # answers through exact, windowed and monomial images, and refusals
    assert min(seen.values()) >= 10, seen


def test_poles_past_the_exponent_floor_refuse_as_the_inverse_product_did():
    """Deep poles through images of order 5 and of negative order, at widths
    that keep or drop the inverse's lowest term, over F_2, F_5, F_4 and Z/9,
    from level-1 sources and from ``T1 T2^-3000`` with ``T1 -> t``, whose
    Horner sum starts at ``t``: every refusal (``ExponentOutOfRange`` at
    ``-n m`` or inside the power) and every answer equals the product with
    the inverse."""
    seen = Counter()
    for domain in (F2, fq_domain(5, 1), F4, Z9):
        t = NestedSeries.variable(1, domain, 1)
        sources = [NestedSeries(1, domain, {e: domain.one() for e in poles})
                   for poles in ((-3000,), (-2500, -2499, 3), (-9999,))]
        sources.append(NestedSeries(2, domain, {-3000: t}))
        for source in sources:
            for exps, ceiling in (((5, 6), None), ((5, 6), 9), ((5,), None), ((-3, -2), None),
                                  ((-2, 0, 1), None)):
                img = NestedSeries(1, domain, {e: domain.one() for e in exps}, ceiling)
                images = {1: img} if source.level == 1 else {1: t, 2: img}
                for precision in (None, -3, 0, 1, 64):
                    got = refusal_or_series(series_substitute, source, images, precision)
                    assert got == refusal_or_series(inverse_product_substitute_oracle, source,
                                                    images, precision), (source, img, precision)
                    seen[got[0] if isinstance(got, tuple) else "answered"] += 1
    assert seen[ExponentOutOfRange] and seen["answered"], seen


def test_substitution_tail_through_zero_images():
    """The unknown tail of a windowed source is bounded through a zero image
    too: a window-zero image bounds it by its own ceiling, and an exactly
    zero one drops it only when no tail exponent is below 1."""
    one = NestedSeries.one(1, F2)
    window_zero = NestedSeries.zero(1, F2, 5)
    assert series_substitute(one.truncate(2), {1: window_zero}) == one.truncate(10)
    exact_zero = NestedSeries.zero(1, F2)
    with pytest.raises(PrecisionExhausted):
        series_substitute(NestedSeries.zero(1, F2, 0), {1: exact_zero})
    f = (one + NestedSeries.variable(1, F2, 1)).truncate(3)
    assert series_substitute(f, {1: exact_zero}) == one
    # a negative tail exponent needs the image's order, which a window-zero
    # image leaves unknown
    with pytest.raises(PrecisionExhausted, match="order is unknown"):
        series_substitute(NestedSeries.zero(1, F2, -2), {1: window_zero})


def test_substitution_without_images_is_a_tower_mismatch():
    with pytest.raises(TowerMismatch, match="no images supplied"):
        series_substitute(NestedSeries.one(1, F2), {})


def test_repr_shows_every_window():
    """Inner windows print, so a coefficient that is zero only within its
    window no longer prints like the exact zero."""
    inner = mono(1, F2, (1,)).truncate(5)
    f = NestedSeries(2, F2, {-2: NestedSeries.zero(1, F2, 3), 1: inner}, 4)
    assert repr(f) == "<series L2: (0 + O(T1^3))*T2^-2 + (1*T1^1 + O(T1^5))*T2^1 + O(T2^4)>"
    assert repr(NestedSeries.zero(2, F2)) == "<series L2: 0>"
    assert repr(mono(2, F2, (1, -2)) + mono(2, F2, (0, 3))) == "<series L2: 1*T1^1*T2^-2 + 1*T2^3>"


def test_substitution_identity_images():
    rng = random.Random(47)
    for _ in range(15):
        f = random_series(rng, 2, F2)
        images = {j: NestedSeries.variable(2, F2, j) for j in (1, 2)}
        assert series_substitute(f, images) == f


def test_substitution_tail_guard():
    """A windowed input through a unit-order image must refuse."""
    f = mono(1, F2, (1,)).truncate(3)
    unit_img = NestedSeries.one(1, F2) + NestedSeries.variable(1, F2, 1)
    with pytest.raises(PrecisionExhausted):
        series_substitute(f, {1: unit_img})
    ok = series_substitute(f, {1: mono(1, F2, (2,))})
    assert ok.ceiling == 6  # 2 * old ceiling


def test_substitution_missing_image():
    f = mono(2, F2, (1, 1))
    with pytest.raises(TowerMismatch):
        series_substitute(f, {2: mono(1, F2, (1,))})


# -------------------------------------------------------------------- parser

def test_parse_basic_literals():
    t = NestedSeries.variable(1, F2, 1)
    assert parse_series("t^-3", K2) == t.shift(-4)
    assert parse_series("0", K2) == NestedSeries.zero(1, F2)
    assert parse_series("1 + t", K2) == NestedSeries.one(1, F2) + t
    assert parse_series("t^-5 + t^-2", K2) == t.shift(-6) + t.shift(-3)


def test_parse_two_variables_and_coefficients():
    f = parse_series("u*t^-2", KD)
    assert f == mono(2, F2, (1, -2))
    g = parse_series("u^-1*t^-2 + t", KD)
    assert g == mono(2, F2, (-1, -2)) + mono(2, F2, (0, 1))
    h = parse_series("2*t^-2", K3)
    assert h == mono(1, F3, (-2,), 2)


def test_parse_generator_symbol():
    f = parse_series("g*t^-3", K4)
    assert f == mono(1, F4, (-3,), F4.generator())


def test_parse_parenthesized_products():
    f = parse_series("u^2*(1+u)", FieldTower(2, 1, 1, ("u",)))
    assert f == mono(1, F2, (2,)) + mono(1, F2, (3,))


def test_parse_rejects_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_series("v^2", K2)


def test_parse_rejects_garbage():
    for bad in ("t^", "t +", "* t", "t^-", "((t)", ""):
        with pytest.raises(ParseError):
            parse_series(bad, K2)


def test_render_round_trip_random():
    rng = random.Random(59)
    for tower in (K2, K3, KD, K4):
        domain = tower.field_domain
        for _ in range(40):
            f = random_series(rng, tower.d, domain)
            text = render_series(f, tower)
            assert parse_series(text, tower) == f


def test_render_canonical_examples():
    assert render_series(parse_series("t^-2 + t^-5", K2), K2) == "t^-5 + t^-2"
    assert render_series(mono(2, F2, (1, -2)), KD) == "u*t^-2"
    assert render_series(mono(1, F3, (-2,), 2), K3) == "2*t^-2"
    assert render_series(NestedSeries.zero(1, F2), K2) == "0"


def test_shift_at_lower_variable():
    f = mono(2, F2, (1, -2))
    assert f.shift_at(1, -1) == mono(2, F2, (0, -2))
    assert f.shift_at(2, 3) == mono(2, F2, (1, 1))


def test_cross_domain_operations_refused():
    a = mono(1, F2, (1,))
    b = mono(1, F3, (1,))
    with pytest.raises((TowerMismatch, InconsistentValue)):
        a + b


# ------------------------------------------------------ multiplication kernel

def schoolbook(x, y):
    """The reference product at any level: the dict loop over term pairs
    with the domain's ops at level 1 and this same product above it, and the
    validating constructor."""
    bounds = [c + o.low() for c, o in ((x.ceiling, y), (y.ceiling, x)) if c is not None]
    ceiling = min(bounds) if bounds else None
    if x.level == 1:
        out = _schoolbook_mul(x.coeffs, y.coeffs, ceiling, x.domain.mul, x.domain.add)
    else:
        out = _schoolbook_mul(x.coeffs, y.coeffs, ceiling, schoolbook, operator.add)
    return NestedSeries(x.level, x.domain, out, ceiling)


def uses_kernel(x, y):
    pairs = len(x.coeffs) * len(y.coeffs)
    return pairs >= _KRONECKER_MIN_PAIRS and _kronecker_applies(x.coeffs, y.coeffs)


def random_window(rng, domain, width, density=1.0):
    """Up to ``width`` terms from a random (often negative) exponent; a window
    or exact."""
    low = rng.randint(-40, 10)
    coeffs = {e: domain.random_nonzero(rng) for e in range(low, low + width)
              if rng.random() < density} or {low: domain.one()}
    ceiling = None if rng.random() < 0.4 else low + width + rng.randint(0, 4)
    return NestedSeries(1, domain, coeffs, ceiling)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_kronecker_product_matches_the_schoolbook_oracle(p, k, s):
    domain = fq_domain(p, k) if s == 1 else galois_ring_domain(p, k, s)
    rng = random.Random(1000 * p + 100 * k + s)
    sides = {"below": 0, "kernel": 0}
    for i in range(24):
        # alternate small and large widths: term-pair counts on both sides
        # of the cutoff
        widths = (1, 5) if i % 2 else (8, 40)
        x = random_window(rng, domain, rng.randint(*widths), rng.choice((0.5, 1.0)))
        y = random_window(rng, domain, rng.randint(*widths), rng.choice((0.5, 1.0)))
        assert x * y == schoolbook(x, y)
        # the kernel itself agrees on every size, the cutoff aside
        ceiling = (x * y).ceiling
        direct = NestedSeries(1, domain, _kronecker_mul(domain, x.coeffs, y.coeffs, ceiling), ceiling)
        assert direct == schoolbook(x, y)
        sides["kernel" if uses_kernel(x, y) else "below"] += 1
    assert sides["below"] and sides["kernel"]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kronecker_worst_case_slot_sums(p):
    """Every coordinate at p^s - 1 makes the largest slot sum reach its
    bound, min(len) * k * (p^s - 1)^2; widths on both sides of each slot-size
    boundary (2^8, 2^16, 2^32)."""
    for k in (1, 2):
        for s in (1, 2, 3, 4):
            domain = fq_domain(p, k) if s == 1 else galois_ring_domain(p, k, s)
            top = domain.modulus - 1 if k == 1 else (domain.modulus - 1,) * k
            per_pair = k * (domain.modulus - 1) ** 2
            for bits in (8, 16, 32):
                n = -(-(1 << bits) // per_pair)  # the first width past the boundary
                for width in {max(1, n - 1), n}:
                    if width > 300:
                        continue
                    x = NestedSeries(1, domain, {e: top for e in range(-width, 0)})
                    assert x * x == schoolbook(x, x)


def test_a_product_too_wide_for_every_slot_goes_through_the_int_loop(monkeypatch):
    """With only one-byte slots on offer, a dense 8-term by 8-term product
    over Z/16 needs ``(8 * 15^2).bit_length() = 11`` bits a slot, so the
    Kronecker kernel hands it to the int loop, which gives the schoolbook
    product."""
    domain = galois_ring_domain(2, 1, 4)
    calls = []
    int_mul = rswan._kernels._int_mul

    def counting_int_mul(*args):
        calls.append(1)
        return int_mul(*args)

    monkeypatch.setattr(rswan._kernels, "_SLOT_CODES", {1: "B"})
    monkeypatch.setattr(rswan._kernels, "_int_mul", counting_int_mul)
    rng = random.Random(31)
    x = NestedSeries(1, domain, {e: domain.random_nonzero(rng) for e in range(8)})
    y = NestedSeries(1, domain, {e: domain.random_nonzero(rng) for e in range(-3, 5)})
    assert len(x.coeffs) * len(y.coeffs) >= _KRONECKER_MIN_PAIRS and uses_kernel(x, y)
    for ceiling in (None, 6):
        got = _kronecker_mul(domain, x.coeffs, y.coeffs, ceiling)
        assert calls == [1]
        assert got == {e: c for e, c in _schoolbook_mul(x.coeffs, y.coeffs, ceiling, domain.mul,
                                                        domain.add).items() if c}
        calls.clear()
    assert x * y == schoolbook(x, y)
    assert calls == [1]


def test_kronecker_cancellation_and_full_square():
    rng = random.Random(7)
    for domain in (F2, F4, galois_ring_domain(3, 1, 4)):
        x = random_window(rng, domain, 24)
        assert uses_kernel(x, -x)
        assert (x * x - x * x).is_zero()
        assert x * (-x) == -schoolbook(x, x)
    # (sum of t^i, i < 16)^2 over F_2 keeps only the even exponents
    ones = NestedSeries(1, F2, {e: 1 for e in range(16)})
    assert ones * ones == NestedSeries(1, F2, {e: 1 for e in range(0, 31, 2)})


def test_a_square_is_packed_and_flattened_once(monkeypatch):
    """``x * x`` packs its operand once for the Kronecker kernel (and, at
    levels 2 and 3, flattens it once) and equals the product with a copy of
    ``x`` held in another dict, which packs and flattens both; the kernel
    called on one dict at ceilings that trim it packs it once too.  Over
    F_2, F_4 and (Z/16)[g]."""
    packs, flattens = [], []
    pack, flatten = rswan._kernels._pack, rswan._kernels._flatten

    def counting_pack(*args):
        packs.append(1)
        return pack(*args)

    def counting_flatten(coeffs, level, *args):
        flattens.append(level)
        return flatten(coeffs, level, *args)

    monkeypatch.setattr(rswan._kernels, "_pack", counting_pack)
    monkeypatch.setattr(rswan._kernels, "_flatten", counting_flatten)
    rng = random.Random(26)
    seen = Counter()
    for domain in (F2, F4, galois_ring_domain(2, 2, 4)):
        squares = [random_window(rng, domain, 20) for _ in range(3)]
        for level, n in ((2, 4), (3, 3)):
            grid = NestedSeries.from_monomials(level, domain, [
                (exps, domain.random_nonzero(rng)) for exps in product(range(-1, n - 1), repeat=level)
            ])
            squares += [grid, grid.truncate(n - 2), random_nested(rng, level, domain, 4, 3)]
        for x in squares:
            copy = NestedSeries(x.level, x.domain, dict(x.coeffs), x.ceiling)
            packs.clear()
            flattens.clear()
            want = x * copy
            counts = len(packs), flattens.count(x.level)
            packs.clear()
            flattens.clear()
            assert x * x == want == schoolbook(x, x)
            assert (len(packs), flattens.count(x.level)) == tuple((n + 1) // 2 for n in counts)
            seen[x.level, counts] += 1
        a = random_window(rng, domain, 20).coeffs
        for ceiling in (None, 2 * min(a) + 5, min(a) + max(a)):
            packs.clear()
            got = _kronecker_mul(domain, a, a, ceiling)
            assert len(packs) == 1
            assert got == _kronecker_mul(domain, a, dict(a), ceiling)
    # the kernel ran on squares at every level
    assert seen[1, (2, 0)] >= 9 and seen[2, (2, 2)] >= 6 and seen[3, (2, 2)] >= 6, seen


def test_a_square_below_the_kronecker_cut_packs_each_coefficient_once(monkeypatch):
    """``x * x`` of a 6-term series over F_4 (36 term pairs, below the
    Kronecker cut-off) packs each of its 6 coefficients once in the int
    loop; the product with a copy of ``x`` held in another dict packs 12.
    Both equal the schoolbook product, at ceilings too, and over
    (Z/16)[g]."""
    packs = []
    pack_g = rswan._kernels._pack_g

    def counting_pack_g(*args):
        packs.append(1)
        return pack_g(*args)

    monkeypatch.setattr(rswan._kernels, "_pack_g", counting_pack_g)
    rng = random.Random(27)
    for domain in (F4, galois_ring_domain(2, 2, 4)):
        for ceiling in (None, 4):
            x = NestedSeries(1, domain, {e: domain.random_nonzero(rng) for e in range(-3, 3)}, ceiling)
            assert len(x.coeffs) ** 2 < _KRONECKER_MIN_PAIRS
            copy = NestedSeries(1, domain, dict(x.coeffs), ceiling)
            rows = len(domain._red_rows)  # the reducer packs each row of f once
            packs.clear()
            want = x * copy
            assert len(packs) == 12 + rows
            packs.clear()
            assert x * x == want == schoolbook(x, x)
            assert len(packs) == 6 + rows


def test_sparse_and_rational_function_products_keep_the_dict_loop():
    """A sparse product keeps the dict loop.  F_p(x) products, which it
    alone served, refuse before any loop runs."""
    sparse = NestedSeries(1, F3, {e: 1 for e in range(0, 8000, 1000)})
    assert len(sparse.coeffs) ** 2 >= _KRONECKER_MIN_PAIRS
    assert not uses_kernel(sparse, sparse)
    assert sparse * sparse == schoolbook(sparse, sparse)
    x = NestedSeries(1, FX, {e: FX.from_polys([1, e % 3], [e % 2, 1]) for e in range(-6, 6)}, 6)
    with pytest.raises(TowerMismatch, match="only parsing"):
        x * x


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_int_loop_matches_the_domain_loop(p, k, s):
    """Small products summed in plain ints, exact and cut, random and with
    every coordinate at p^s - 1 (the largest slot sums of the packed k > 1
    loop)."""
    domain = fq_domain(p, k) if s == 1 else galois_ring_domain(p, k, s)
    top = domain.modulus - 1 if k == 1 else (domain.modulus - 1,) * k
    rng = random.Random(f"int:{p}:{k}:{s}")
    for i in range(30):
        na, nb = rng.randint(1, 7), rng.randint(1, 7)
        if i % 3 == 2:
            a = {e: top for e in range(-na, 0)}
            b = {e: top for e in range(nb)}
        else:
            a = {e: domain.random_nonzero(rng) for e in rng.sample(range(-10, 10), na)}
            b = {e: domain.random_nonzero(rng) for e in rng.sample(range(-10, 10), nb)}
        ceiling = None if i % 2 else rng.randint(-8, 12)
        got = _int_mul(domain, a, b, ceiling)
        want = NestedSeries(1, domain, _schoolbook_mul(a, b, ceiling, domain.mul, domain.add), ceiling)
        assert NestedSeries(1, domain, got, ceiling) == want
        assert not any(domain.is_zero(c) for c in got.values())


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_packed_sums_reduce_like_the_domain(p, k, s):
    """The largest sums the int loop and the k > 1 inverse recurrence form:
    ``terms`` products with every coordinate at p^s - 1, packed at the width
    ``_g_width(domain, terms)``, reduce to the domain's own sum."""
    domain = fq_domain(p, k) if s == 1 else galois_ring_domain(p, k, s)
    top = domain.modulus - 1 if k == 1 else (domain.modulus - 1,) * k
    square = domain.mul(top, top)
    for terms in (1, 2, 7, 64, 300):
        w = _g_width(domain, terms)
        packed = _pack_g(top, w)
        want = domain.zero()
        for _ in range(terms):
            want = domain.add(want, square)
        assert _g_reducer(domain, w)(terms * packed * packed) == want


def random_nested(rng, level, domain, top_terms, inner_terms, ceiling=False):
    """``top_terms`` top exponents in ``[-5, 5)``, each over up to
    ``inner_terms`` monomials with inner exponents in ``[-5, 5)``; cut above
    a random top exponent when ``ceiling``."""
    tops = rng.sample(range(-5, 5), top_terms)
    monos = [(tuple(rng.randint(-5, 4) for _ in range(level - 1)) + (t,), domain.random_nonzero(rng))
             for t in tops for _ in range(rng.randint(1, inner_terms))]
    x = NestedSeries.from_monomials(level, domain, monos)
    return x.truncate(rng.randint(min(tops) + 1, 6)) if ceiling else x


def uses_flat(x, y):
    return len(x.coeffs) * len(y.coeffs) >= _FLAT_MIN_PAIRS and all(
        c.is_exact() for c in (*x.coeffs.values(), *y.coeffs.values())
    )


NESTED_RINGS = {
    "F_2": F2, "F_4": F4, "Z/4": galois_ring_domain(2, 1, 2),
    "Z/27": galois_ring_domain(3, 1, 3), "(Z/16)[g]": galois_ring_domain(2, 2, 4),
}


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("ring", sorted(NESTED_RINGS))
def test_nested_product_matches_the_schoolbook_oracle(ring, level):
    """Exact operands and operands cut at an outer ceiling, negative inner
    exponents, term-pair counts on both sides of the flat-path gate."""
    domain = NESTED_RINGS[ring]
    rng = random.Random(f"nested:{ring}:{level}")
    sides = {"flat": 0, "loop": 0}
    for i in range(40):
        inner = 3 if level == 2 else 2
        x = random_nested(rng, level, domain, rng.randint(1, 5), inner, ceiling=i % 3 == 0)
        y = random_nested(rng, level, domain, rng.randint(1, 5), inner, ceiling=i % 4 == 0)
        assert x * y == schoolbook(x, y)
        sides["flat" if uses_flat(x, y) else "loop"] += 1
    assert sides["flat"] and sides["loop"]


def test_nested_inner_sums_that_cancel_leave_no_entry():
    """Outer entries whose inner sums cancel to an exact zero are not stored."""
    x = NestedSeries.from_monomials(2, F2, [((u, t), 1) for u in (0, 1) for t in range(4)])
    assert uses_flat(x, x)
    # (1 + u)^2 (1 + t + t^2 + t^3)^2 = (1 + u^2)(1 + t^2 + t^4 + t^6) over F_2
    square = x * x
    assert square == schoolbook(x, x)
    assert sorted(square.coeffs) == [0, 2, 4, 6]
    assert all(c == NestedSeries(1, F2, {0: 1, 2: 1}) for c in square.coeffs.values())
    z4 = galois_ring_domain(2, 1, 2)
    x = NestedSeries.from_monomials(2, z4, [((e, t), 2) for e in (-1, 2) for t in range(3)])
    assert uses_flat(x, x)
    assert (x * x).coeffs == {} and (x * x).ceiling is None  # 2 * 2 = 0 in Z/4
    level3 = NestedSeries.from_monomials(3, F2, [((v, u, t), 1) for v in (0, 1) for u in (0, 1)
                                                 for t in (0, 1)])
    assert uses_flat(level3, level3)
    assert level3 * level3 == schoolbook(level3, level3)
    assert sorted((level3 * level3).coeffs) == [0, 2]


def test_nested_fallbacks_give_the_oracle_product():
    """Inner windows keep the loop over term pairs; F_p(x) coefficients
    refuse the product at every level."""
    rng = random.Random(17)
    for domain in (F2, F4, galois_ring_domain(2, 2, 4)):
        for _ in range(10):
            x = random_nested(rng, 2, domain, 4, 3)
            y = random_nested(rng, 2, domain, 3, 3)
            cut = min(x.coeffs)
            x = NestedSeries(2, domain, {**x.coeffs, cut: x.coeffs[cut].truncate(2)})
            assert len(x.coeffs) * len(y.coeffs) >= _FLAT_MIN_PAIRS
            assert _flat_mul(2, domain, x.coeffs, y.coeffs, None) is None
            assert x * y == schoolbook(x, y)
            assert y * x == schoolbook(y, x)
    x = NestedSeries(2, FX, {-1: NestedSeries(1, FX, {0: FX.variable()}, 2)}, 3)
    with pytest.raises(TowerMismatch, match="only parsing"):
        x * x


def test_trusted_results_store_no_zero_and_nothing_at_the_ceiling():
    rng = random.Random(13)
    for domain in (F2, F3, F4, galois_ring_domain(2, 1, 3)):
        for _ in range(10):
            x = random_window(rng, domain, rng.randint(1, 30))
            y = random_window(rng, domain, rng.randint(1, 30))
            results = [x + y, x - y, -x, x * y, x * x, x.shift(-3), x.truncate(2),
                       x.scalar_mul(domain.random_nonzero(rng))]
            if domain.s == 1:
                results.append(x.frobenius())
            for r in results:
                assert not any(domain.is_zero(c) for c in r.coeffs.values())
                assert r.ceiling is None or all(e < r.ceiling for e in r.coeffs)
            assert (x - x).coeffs == {}


def test_exponent_floor_guards_the_operations_that_move_exponents():
    deep = mono(1, F2, (-6000,))
    with pytest.raises(ValueError, match="below the supported range"):
        deep * deep
    wide = NestedSeries(1, F2, {e: 1 for e in range(-6000, -5990)})
    assert uses_kernel(wide, wide)
    with pytest.raises(ValueError, match="below the supported range"):
        wide * wide
    with pytest.raises(ValueError, match="below the supported range"):
        deep.shift(-6000)
    with pytest.raises(ValueError, match="below the supported range"):
        mono(1, F3, (-4000,)).frobenius()


# ------------------------------------------------------- linear combinations

def fold_combination_oracle(level, domain, pairs):
    """``sum n * x`` one series addition at a time: the reference."""
    acc = NestedSeries.zero(level, domain)
    for n, x in pairs:
        acc = acc + x.mul_int(n)
    return acc


COMBINATION_RINGS = {
    "F_2": F2, "F_9": F9, "Z/4": galois_ring_domain(2, 1, 2),
    "Z/27": galois_ring_domain(3, 1, 3), "(Z/16)[g]": galois_ring_domain(2, 2, 4),
}


def random_windowed(rng, level, domain, exps=(-3, 3)):
    """Up to 4 top exponents in ``exps``; every level exact or cut at a
    random exponent, which can leave an inner coefficient zero within its
    window (a cut at or below its lowest exponent)."""
    coeffs = {}
    for e in rng.sample(range(exps[0], exps[1] + 1), rng.randint(0, 4)):
        coeffs[e] = (domain.random_nonzero(rng) if level == 1
                     else random_windowed(rng, level - 1, domain, (-2, 2)))
    ceiling = rng.choice((None, None, rng.randint(exps[0] - 1, exps[1] + 1)))
    return NestedSeries(level, domain, coeffs, ceiling)


def multiplier(rng, modulus):
    return rng.choice((1, 1, -1, 2, -3, modulus, -modulus, 2 * modulus + 1, 0,
                       rng.randint(-50, 50)))


def has_window_zero_inner(x):
    return x.level > 1 and any(
        (not c.coeffs and c.ceiling is not None) or has_window_zero_inner(c)
        for c in x.coeffs.values()
    )


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("ring", sorted(COMBINATION_RINGS))
def test_linear_combination_matches_the_fold_oracle(ring, level):
    """Exact and windowed top and inner levels, 1-5 pairs over a narrow
    exponent range (so that entries collide), multipliers that are negative
    or vanish in the ring: equal values and ceilings at every level."""
    domain = COMBINATION_RINGS[ring]
    modulus = domain.modulus
    rng = random.Random(f"combination:{ring}:{level}")
    seen = {"window_zero_inner": 0, "windowed": 0}
    for _ in range(60):
        xs = [random_windowed(rng, level, domain) for _ in range(rng.randint(1, 5))]
        pairs = [(multiplier(rng, modulus), x) for x in xs]
        if rng.random() < 0.3:  # exact cancellation of a random pair
            pairs.append((-pairs[0][0], pairs[0][1]))
        got = linear_combination(level, domain, pairs)
        assert got == fold_combination_oracle(level, domain, pairs)
        seen["window_zero_inner"] += has_window_zero_inner(got)
        seen["windowed"] += got.ceiling is not None
    assert seen["windowed"]
    assert level == 1 or seen["window_zero_inner"]


def test_linear_combination_edge_cases():
    z4 = galois_ring_domain(2, 1, 2)
    x = NestedSeries(1, z4, {-2: 1, 0: 3, 5: 2}, 7)
    assert linear_combination(1, z4, []) == NestedSeries.zero(1, z4)
    # cancellation leaves the window
    assert linear_combination(1, z4, [(1, x), (-1, x)]) == NestedSeries.zero(1, z4, 7)
    # a multiplier that vanishes mod 4 adds only its ceiling
    y = NestedSeries(1, z4, {0: 1})
    assert linear_combination(1, z4, [(1, y), (4, x)]) == NestedSeries(1, z4, {0: 1}, 7)
    # 2 * 2 = 0: an entry that vanishes is not stored
    assert linear_combination(1, z4, [(2, x)]).coeffs == {-2: 2, 0: 2}
    # the least ceiling cuts every pair
    w = NestedSeries(1, z4, {0: 1, 3: 1}, 2)
    assert linear_combination(1, z4, [(1, x), (1, w)]) == NestedSeries(1, z4, {-2: 1}, 2)
    # an inner coefficient zero within its window keeps the window
    window_zero = NestedSeries(2, z4, {-2: NestedSeries(1, z4, {}, 3)})
    assert linear_combination(2, z4, [(1, window_zero)]) == window_zero
    assert linear_combination(2, z4, [(2, window_zero)]) == window_zero
    inner = NestedSeries(2, z4, {-2: NestedSeries(1, z4, {1: 1}, 3)})
    assert linear_combination(2, z4, [(1, inner), (-1, inner)]) == window_zero
    # an exact inner sum that cancels is dropped
    exact = NestedSeries(2, z4, {-2: NestedSeries(1, z4, {1: 1}), 1: NestedSeries(1, z4, {0: 2})})
    assert linear_combination(2, z4, [(1, exact), (-1, exact)]) == NestedSeries.zero(2, z4)
    assert linear_combination(2, z4, [(2, exact)]) == NestedSeries(
        2, z4, {-2: NestedSeries(1, z4, {1: 2})})


def test_the_exponent_floor_error_is_typed():
    """Below the floor the library raises ``ExponentOutOfRange``, one of its
    own errors and still a ``ValueError``."""
    deep = mono(1, F2, (-6000,))
    with pytest.raises(ExponentOutOfRange, match="below the supported range") as caught:
        deep * deep
    assert isinstance(caught.value, RswanError) and isinstance(caught.value, ValueError)


def test_a_series_below_level_one_is_a_tower_mismatch():
    with pytest.raises(TowerMismatch, match="level must be >= 1"):
        NestedSeries(0, F2, {})


def test_the_constructor_refuses_coefficients_outside_its_ring():
    """``NestedSeries(...)`` refuses a raw that its ring does not reduce to
    (the inverse of ``{0: 2}`` over F_2 came back as a unit), an inner series
    over another ring, and an exponent or a ceiling that is not an int;
    ``F_p(x)`` raws are not checked."""
    not_reduced = [
        (F2, {0: 2}), (F2, {0: -1}), (F2, {0: True}), (F2, {0: 1.0}), (F2, {0: (1,)}),
        (Z16, {3: 16}), (F4, {0: 1}), (F4, {0: (1,)}), (F4, {0: (1, 2)}), (F4, {0: [1, 0]}),
        (F4, {0: (1, True)}), (Z16G, {0: (15, 16)}),
    ]
    for domain, coeffs in not_reduced:
        with pytest.raises(TowerMismatch, match="not a reduced raw scalar"):
            NestedSeries(1, domain, coeffs)
    assert NestedSeries(1, Z16, {3: 15, 4: 0}).coeffs == {3: 15}
    assert NestedSeries(1, Z16G, {0: (15, 1)}).coeffs == {0: (15, 1)}
    with pytest.raises(TowerMismatch, match="ring does not match"):
        NestedSeries(2, F2, {-1: mono(1, F4, (1,))})
    with pytest.raises(TowerMismatch, match="ring does not match"):
        NestedSeries(3, F2, {0: NestedSeries(2, F4, {})})
    for exponent in (1.5, True, 2.0):
        with pytest.raises(TowerMismatch, match="is not an int"):
            NestedSeries(1, F2, {exponent: 1})
        with pytest.raises(TowerMismatch, match="is not an int"):
            NestedSeries(2, F2, {exponent: mono(1, F2, (0,))})
        with pytest.raises(TowerMismatch, match="is not an int"):
            NestedSeries(1, F2, {0: 1}, exponent)
    assert NestedSeries(1, FX, {0: FX.from_polys([1, 2])}).coeffs


def test_from_monomials_refuses_an_exponent_that_is_not_an_int():
    """``from_monomials`` builds its outer levels through the trusted
    ``_make`` once their exponents are checked: a ``float`` or ``bool``
    exponent at any level raises the constructor's message, and monomials
    that cancel leave no inner coefficient."""
    for exponent in (1.5, True, 2.0):
        for exps in ((0, exponent), (exponent, 0), (0, 0, exponent)):
            with pytest.raises(TowerMismatch, match=f"exponent {exponent!r} is not an int"):
                NestedSeries.from_monomials(len(exps), F2, [(exps, 1)])
    built = NestedSeries.from_monomials(2, F2, [((1, -2), 1), ((0, -2), 1), ((3, 4), 1), ((3, 4), 1)])
    assert built == NestedSeries(2, F2, {-2: NestedSeries(1, F2, {0: 1, 1: 1})})
    assert built.coeffs.keys() == {-2}


def test_linear_combination_refuses_mixed_rings_and_the_exponent_floor(monkeypatch):
    z4 = galois_ring_domain(2, 1, 2)
    with pytest.raises(TowerMismatch):
        linear_combination(1, z4, [(1, mono(1, F2, (0,)))])
    with pytest.raises(TowerMismatch):
        linear_combination(2, F2, [(1, mono(1, F2, (0,)))])
    deep = mono(1, F2, (-8,))
    monkeypatch.setattr(rswan.series, "_ORD_FLOOR", -5)
    with pytest.raises(ValueError, match="below the supported range"):
        linear_combination(1, F2, [(1, deep)])
