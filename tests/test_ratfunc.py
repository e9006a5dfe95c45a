"""The rational function field F_p(x) as a coefficient domain.

Oracles: field axioms are sampled with a seeded generator and checked
against the axioms themselves (associativity, distributivity, inverses);
normalization pins (lowest terms, monic denominator) are computed by hand.
Past parsing, the reduction at s = 1 and the Swan conductor, every series,
form and Witt operation over F_p(x) raises one ``TowerMismatch``.
"""

import random
import re
from pathlib import Path

import pytest

import rswan
from rswan.errors import NoPthRoot, RswanError, TowerMismatch, ZeroInput
from rswan.logdiff import LogForm, d, dlog, log_derivative, residue_to_prime_field
from rswan.ratfunc import RatFuncDomain, poly_from_coeffs, rat_func_domain
from rswan.scalars import fq_domain
from rswan.series import NestedSeries, _divide_by_power, linear_combination
from rswan.substitution import series_substitute
from rswan.witt import asw_reduce_components, witt_combine

REFUSAL = "over F_p(x) only parsing, the reduction at s = 1 and the Swan conductor are supported"


def random_rat_func(dom, rng):
    """A numerator of degree below 3 over a monic denominator of degree at
    most 1, in lowest terms."""
    num = [rng.randrange(dom.p) for _ in range(rng.randint(1, 3))]
    den = [rng.randrange(dom.p) for _ in range(rng.randint(0, 1))] + [1]
    return dom.from_polys(num, den)


def random_nonzero_rat_func(dom, rng):
    while True:
        x = random_rat_func(dom, rng)
        if not dom.is_zero(x):
            return x


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
    assert dom.from_polys([10]) == dom.zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_field_axioms_sampled(p):
    dom = rat_func_domain(p)
    rng = random.Random(p * 100 + 7)
    xs = [random_rat_func(dom, rng) for _ in range(8)]
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
    with pytest.raises(TowerMismatch, match=re.escape(REFUSAL)):
        dom.trace(dom.one())


def test_domain_is_cached_per_prime():
    """Series compare domains by identity, so one prime gives one domain."""
    assert rat_func_domain(2) is rat_func_domain(2)
    assert rat_func_domain(2) is not rat_func_domain(3)


def test_unsupported_prime_refused():
    with pytest.raises(RswanError):
        RatFuncDomain(7)


def test_series_arithmetic_over_rational_coefficients():
    """F_p(x)((t)) series add, negate and shift, and take Frobenius powers
    and p-th roots term by term, as the reduction at s = 1 does; products
    and inverses refuse (``test_every_other_operation_refuses``)."""
    dom = rat_func_domain(2)
    x = dom.variable()
    f = NestedSeries.from_monomials(1, dom, [((-1,), x), ((1,), dom.one())])
    assert f - f == NestedSeries.zero(1, dom)
    assert (f + f.shift(2)).coeffs == {-1: x, 1: dom.add(dom.one(), x), 3: dom.one()}
    assert f.frobenius().pth_root() == f
    with pytest.raises(NoPthRoot):
        f.pth_root()
    with pytest.raises(TowerMismatch, match=re.escape(REFUSAL)):
        f.inv(12)


def _operations(p):
    """Every refused operation over F_p(x), by name, on small series."""
    dom = rat_func_domain(p)
    x = dom.variable()
    f = NestedSeries.from_monomials(1, dom, [((-1,), x), ((1,), dom.one())])
    nested = NestedSeries.from_monomials(2, dom, [((0, -1), x), ((1, 2), dom.one())])
    img = NestedSeries.from_monomials(1, dom, [((1,), dom.one()), ((2,), x)])
    fp = fq_domain(p, 1)
    # x_0 = x^p t^-p has a removable term, so the s = 2 reduction combines
    slots = (NestedSeries.zero(1, dom), NestedSeries(1, dom, {-p: dom.pow(x, p)}))
    return {
        "product": lambda: f * f,
        "level-2 product": lambda: nested * nested,
        "power": lambda: f.pow(2),
        "first power": lambda: f.pow(1),
        "zeroth power": lambda: f.pow(0),
        "negative power": lambda: f.pow(-1, 8),
        "integer multiple": lambda: f.mul_int(2),
        "inverse": lambda: f.inv(8),
        "exact inverse of a monomial": lambda: NestedSeries(1, dom, {-1: x}).inv(),
        "quotient": lambda: _divide_by_power(f, img, 2, 8),
        "level-2 inverse": lambda: nested.inv(8),
        "substitution": lambda: series_substitute(f, {1: img}, 8),
        "substitution through F_p": lambda: series_substitute(
            f, {1: NestedSeries.variable(1, fp, 1)}, 8),
        "linear combination": lambda: linear_combination(1, dom, [(1, f), (2, f)]),
        "form": lambda: LogForm(1, dom, 1, {(1,): f}),
        "zero form": lambda: LogForm.zero(2, dom, 1),
        "d": lambda: d(f),
        "dlog": lambda: dlog(f, 8),
        "log derivative": lambda: log_derivative(nested, 1),
        "length-1 Witt combination": lambda: witt_combine([(f,), (f,)], [1, 1], p),
        "length-2 Witt combination": lambda: witt_combine([(f, f)], [-1], p),
        "length-2 reduction": lambda: asw_reduce_components(slots, p),
        "trace": lambda: residue_to_prime_field(x, dom),
    }


@pytest.mark.parametrize("p", [2, 3])
def test_every_other_operation_refuses(p):
    """Each operation past the curve experiment's raises the one
    ``TowerMismatch``, whose message the package writes once."""
    for name, operation in _operations(p).items():
        with pytest.raises(TowerMismatch) as caught:
            operation()
        assert str(caught.value) == REFUSAL, name
    sources = [path.read_text() for path in Path(rswan.__file__).parent.glob("*.py")]
    assert sum(text.count(REFUSAL) for text in sources) == 1


def test_a_deep_pole_substitution_refuses_before_any_scalar_product(monkeypatch):
    """A 26-pole source through a 5-term image at width 124 took tens of
    seconds over F_3(x), its coefficients growing with every power; it now
    refuses before one scalar is multiplied."""
    dom = rat_func_domain(3)

    def no_product(*args):
        raise AssertionError("a scalar product ran")

    monkeypatch.setattr(RatFuncDomain, "mul", no_product)
    monkeypatch.setattr(RatFuncDomain, "inv", no_product)
    for seed in range(4):
        rng = random.Random(seed)
        source = NestedSeries(1, dom, {e: random_nonzero_rat_func(dom, rng) for e in range(-26, 3)})
        img = NestedSeries(1, dom, {e: random_nonzero_rat_func(dom, rng) for e in range(1, 6)})
        with pytest.raises(TowerMismatch, match=re.escape(REFUSAL)):
            series_substitute(source, {1: img}, 124)
