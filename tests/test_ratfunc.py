"""The rational function field F_p(x) as a coefficient domain.

Oracles: field axioms are sampled with a seeded generator and checked
against the axioms themselves (associativity, distributivity, inverses);
normalization pins (lowest terms, monic denominator) are computed by hand.
"""

import random

import pytest

from rswan.errors import NoPthRoot, RswanError, ZeroInput
from rswan.ratfunc import RatFuncDomain, poly_from_coeffs, rat_func_domain
from rswan.series import NestedSeries


def test_poly_from_coeffs_normalizes_mod_p():
    assert poly_from_coeffs([5, 3, 6], 3) == (2,)
    assert poly_from_coeffs([0, 0], 2) == ()


def test_lowest_terms_and_monic_denominator():
    dom = rat_func_domain(3)
    # (2 + 4x)/2 = 1 + 2x
    assert dom.from_polys([2, 4], [2]) == dom.from_polys([1, 2])
    # (x^2 - 1)/(x - 1) = x + 1
    assert dom.from_polys([-1, 0, 1], [-1, 1]) == dom.from_polys([1, 1])
    # denominators come out monic
    num, den = dom.from_polys([1], [0, 2])
    assert den[-1] == 1


def test_zero_and_one():
    dom = rat_func_domain(5)
    assert dom.zero() == ((), (1,))
    assert dom.one() == ((1,), (1,))
    assert dom.is_zero(dom.zero()) and not dom.is_zero(dom.one())
    assert dom.from_int(10) == dom.zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_field_axioms_sampled(p):
    dom = rat_func_domain(p)
    rng = random.Random(p * 100 + 7)
    xs = [dom.random(rng) for _ in range(8)]
    for a in xs:
        assert dom.add(a, dom.zero()) == a
        assert dom.mul(a, dom.one()) == a
        assert dom.is_zero(dom.add(a, dom.neg(a)))
        if not dom.is_zero(a):
            assert dom.mul(a, dom.inv(a)) == dom.one()
    for a in xs[:4]:
        for b in xs[:4]:
            assert dom.add(a, b) == dom.add(b, a)
            assert dom.mul(a, b) == dom.mul(b, a)
            for c in xs[:4]:
                assert dom.mul(a, dom.add(b, c)) == dom.add(dom.mul(a, b), dom.mul(a, c))
                assert dom.add(dom.add(a, b), c) == dom.add(a, dom.add(b, c))
                assert dom.mul(dom.mul(a, b), c) == dom.mul(a, dom.mul(b, c))


def test_pow_and_negative_exponents():
    dom = rat_func_domain(3)
    x = dom.variable()
    assert dom.pow(x, 4) == dom.from_polys([0, 0, 0, 0, 1])
    assert dom.mul(dom.pow(x, -2), dom.pow(x, 2)) == dom.one()
    with pytest.raises(ZeroInput):
        dom.pow(dom.zero(), -1)


def test_inv_of_zero_refused():
    dom = rat_func_domain(2)
    with pytest.raises(ZeroInput):
        dom.inv(dom.zero())


def test_zero_denominator_refused():
    dom = rat_func_domain(2)
    with pytest.raises(ZeroDivisionError):
        dom.from_polys([1], [0])


def test_pth_power_detection_and_roots():
    dom = rat_func_domain(2)
    x = dom.variable()
    sq = dom.mul(x, x)
    assert dom.is_pth_power(sq) and dom.pth_root(sq) == x
    assert not dom.is_pth_power(x)
    with pytest.raises(NoPthRoot):
        dom.pth_root(x)
    # quotients of squares are squares
    q = dom.from_polys([0, 0, 1], [1, 0, 1])  # x^2/(1 + x^2) = (x/(1+x))^2
    assert dom.is_pth_power(q)
    assert dom.pth_root(q) == dom.from_polys([0, 1], [1, 1])


def test_no_trace_structure():
    dom = rat_func_domain(3)
    with pytest.raises(RswanError):
        dom.trace(dom.one())


def test_render_pins():
    dom = rat_func_domain(3)
    assert dom.render(dom.variable()) == "x"
    assert dom.render(dom.from_polys([1, 1], [0, 1])) == "(1 + x)/x"
    assert dom.render(dom.from_polys([0, 1], [1, 1])) == "x/(1 + x)"
    assert dom.render(dom.zero()) == "0"
    assert dom.render(dom.from_polys([0, 2, 1])) == "2*x + x^2"


def test_domain_is_cached_per_prime():
    """Series compare domains by identity, so one prime gives one domain."""
    assert rat_func_domain(2) is rat_func_domain(2)
    assert rat_func_domain(2) is not rat_func_domain(3)


def test_unsupported_prime_refused():
    with pytest.raises(RswanError):
        RatFuncDomain(7)


def test_series_arithmetic_over_rational_coefficients():
    """F_p(x)((t)) series: inversion certifies against multiplication."""
    dom = rat_func_domain(2)
    x = dom.variable()
    f = NestedSeries.from_monomials(1, dom, [((-1,), x), ((1,), dom.one())])
    g = f.inv(12)
    prod = f * g
    assert prod.coefficient(0) == dom.one()
    assert all(dom.is_zero(prod.coefficient(e)) for e in range(1, 8))
