"""Nested truncated Laurent series: exact arithmetic and window tracking.

Oracles used here:
  * the inverse of 1 - t is compared against the geometric sum 1 + t + ...;
  * substitution and reversion are checked against hand-expanded
    polynomials and the defining identity f(g) = t;
  * random-series arithmetic identities certify the ring structure;
  * window propagation rules are asserted with exact expected ceilings;
  * the Kronecker product kernel is compared against the schoolbook dict
    product, which stays as the reference.
"""

import random

import pytest

from rswan.errors import (
    InconsistentValue,
    NoPthRoot,
    ParseError,
    PrecisionExhausted,
    TowerMismatch,
    UnknownVariable,
    ZeroInput,
)
from rswan.parser import parse_series, render_series
from rswan.ratfunc import rat_func_domain
from rswan.scalars import fq_domain, galois_ring_domain
from rswan.series import (
    _KRONECKER_MIN_PAIRS,
    NestedSeries,
    _kronecker_applies,
    _kronecker_mul,
    _schoolbook_mul,
    identity_images,
    series_reverse,
    series_substitute,
)
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
    with pytest.raises(ZeroInput):
        NestedSeries.zero(1, F2, ceiling=7).ord()
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
    with pytest.raises(PrecisionExhausted):
        series_reverse(parse_series("t + t^2", K2))
    assert f.inv(8).ceiling == 8
    assert parse_series("t^-3", K2).inv() == parse_series("t^3", K2)


def test_inverse_of_zero_refused():
    with pytest.raises(ZeroInput):
        NestedSeries.zero(1, F2).inv(8)
    with pytest.raises(ZeroInput):
        NestedSeries.zero(1, F2, ceiling=3).inv(8)


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


# ----------------------------------------------------------- window algebra

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
        assert f.frobenius().is_pth_power()
        assert f.frobenius().pth_root() == f


def test_pth_root_refuses_non_powers():
    t = NestedSeries.variable(1, F2, 1)
    assert not t.is_pth_power()
    with pytest.raises(NoPthRoot):
        t.pth_root()


def test_pth_root_multivariate():
    f = mono(2, F2, (2, -4)) + mono(2, F2, (0, 2))
    assert f.is_pth_power()
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


def test_substitution_identity_images():
    rng = random.Random(47)
    for _ in range(15):
        f = random_series(rng, 2, F2)
        assert series_substitute(f, identity_images(2, F2)) == f


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


# ---------------------------------------------------------------- reversion

def test_reversion_defining_identity():
    t = NestedSeries.variable(1, F3, 1)
    f = t + t * t  # ord 1
    g = series_reverse(f, 16)
    back = series_substitute(f, {1: g}, precision=16)
    assert back.agrees_with(t)
    # and the other composition order
    forth = series_substitute(g, {1: f}, precision=16)
    assert forth.agrees_with(t)


def test_reversion_random_certified():
    rng = random.Random(53)
    t = NestedSeries.variable(1, F3, 1)
    for _ in range(10):
        tail = random_series(rng, 1, F3, lo=2, hi=6)
        f = t + tail
        g = series_reverse(f, 20)
        assert series_substitute(f, {1: g}, precision=20).agrees_with(t)


def test_reversion_needs_order_one():
    t2 = mono(1, F2, (2,))
    with pytest.raises(ZeroInput):
        series_reverse(t2)


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
    """The reference product: dict loop and the validating constructor."""
    ceiling = (x * y).ceiling
    out = _schoolbook_mul(x.coeffs, y.coeffs, ceiling, x.domain.mul, x.domain.add)
    return NestedSeries(1, x.domain, out, ceiling)


def uses_kernel(x, y):
    pairs = len(x.coeffs) * len(y.coeffs)
    return pairs >= _KRONECKER_MIN_PAIRS and _kronecker_applies(x.domain, x.coeffs, y.coeffs)


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
            top = domain.from_coeffs([domain.modulus - 1] * k)
            per_pair = k * (domain.modulus - 1) ** 2
            for bits in (8, 16, 32):
                n = -(-(1 << bits) // per_pair)  # the first width past the boundary
                for width in {max(1, n - 1), n}:
                    if width > 300:
                        continue
                    x = NestedSeries(1, domain, {e: top for e in range(-width, 0)})
                    assert x * x == schoolbook(x, x)


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


def test_sparse_and_rational_function_products_keep_the_dict_loop():
    sparse = NestedSeries(1, F3, {e: 1 for e in range(0, 8000, 1000)})
    assert len(sparse.coeffs) ** 2 >= _KRONECKER_MIN_PAIRS
    assert not uses_kernel(sparse, sparse)
    assert sparse * sparse == schoolbook(sparse, sparse)
    dom = rat_func_domain(3)
    rng = random.Random(11)
    x = NestedSeries(1, dom, {e: dom.random_nonzero(rng) for e in range(-6, 6)}, 6)
    assert not uses_kernel(x, x)
    assert x * x == schoolbook(x, x)


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
