"""Finite fields F_{p^k} and their length-s lift rings.

Oracles used here:
  * irreducibility of each tabulated modulus is re-proved by brute-force
    root/ factor search over F_p;
  * the trace is recomputed independently as sum of Frobenius conjugates
    via repeated squaring on the raw representation;
  * lift-ring inverses are certified by multiplying back.
"""

import random

import pytest

from rswan.errors import ConfigError, NoPthRoot, TowerMismatch, ZeroInput
from rswan.ratfunc import rat_func_domain
from rswan.scalars import DEFINING_POLYNOMIALS, fq_domain, galois_ring_domain, power, render_poly
from test_ratfunc import random_nonzero_rat_func


def all_elements(dom):
    """Enumerate F_{p^k} via k-tuples of base coefficients."""
    p, k = dom.p, dom.k
    elems = []

    def rec(prefix):
        if len(prefix) == k:
            elems.append(prefix[0] if k == 1 else tuple(prefix))
            return
        for c in range(p):
            rec(prefix + [c])

    rec([])
    return elems


def poly_eval_mod_p(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return out


def is_irreducible_brute_force(coeffs, p):
    """No monic factor of degree 1..deg/2 divides the modulus."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True

    def all_polys(degree):
        def rec(prefix):
            if len(prefix) == degree:
                yield prefix + [1]  # monic
                return
            for c in range(p):
                yield from rec(prefix + [c])

        yield from rec([])

    def poly_mod(a, b):
        a = list(a)
        while len(a) >= len(b):
            if a[-1] == 0:
                a.pop()
                continue
            lead = a[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - lead * c) % p
            while a and a[-1] == 0:
                a.pop()
        return a

    for degree in range(1, deg // 2 + 1):
        for candidate in all_polys(degree):
            if not poly_mod(coeffs, candidate):
                return False
    return True


TABLED = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]


@pytest.mark.parametrize("p,k", TABLED)
def test_modulus_is_irreducible(p, k):
    dom = fq_domain(p, k)
    coeffs = list(dom.poly)
    assert len(coeffs) == k + 1 and coeffs[-1] == 1
    assert is_irreducible_brute_force(coeffs, p)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
def test_field_axioms_exhaustive(p, k):
    dom = fq_domain(p, k)
    elems = all_elements(dom)
    assert len(set(map(dom.coeffs, elems))) == p**k
    zero, one = dom.zero(), dom.one()
    for a in elems:
        assert dom.coeffs(dom.add(a, zero)) == dom.coeffs(a)
        assert dom.coeffs(dom.mul(a, one)) == dom.coeffs(a)
        assert dom.is_zero(dom.add(a, dom.neg(a)))
        if not dom.is_zero(a):
            assert dom.coeffs(dom.mul(a, dom.inv(a))) == dom.coeffs(one)
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert dom.coeffs(dom.mul(a, dom.add(b, c))) == dom.coeffs(
            dom.add(dom.mul(a, b), dom.mul(a, c))
        )
        assert dom.coeffs(dom.mul(a, b)) == dom.coeffs(dom.mul(b, a))


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_trace_matches_frobenius_sum(p, k):
    dom = fq_domain(p, k)
    for a in all_elements(dom):
        acc = dom.zero()
        power = a
        for _ in range(k):
            acc = dom.add(acc, power)
            power = dom.pow(power, p)
        expected = dom.coeffs(acc)
        assert expected[1:] == (0,) * (k - 1), "trace must land in the prime field"
        assert dom.trace(a) == expected[0]


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (5, 1)])
def test_trace_is_additive_and_frobenius_invariant(p, k):
    dom = fq_domain(p, k)
    elems = all_elements(dom)
    rng = random.Random(11)
    for _ in range(100):
        a, b = rng.choice(elems), rng.choice(elems)
        assert dom.trace(dom.add(a, b)) == (dom.trace(a) + dom.trace(b)) % p
        assert dom.trace(dom.pow(a, p)) == dom.trace(a)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
def test_pth_root_inverts_pth_power(p, k):
    dom = fq_domain(p, k)
    for a in all_elements(dom):
        assert dom.is_pth_power(a)
        root = dom.pth_root(a)
        assert dom.coeffs(dom.pow(root, p)) == dom.coeffs(a)


def test_inverse_of_zero_is_refused():
    dom = fq_domain(3, 2)
    with pytest.raises(ZeroInput):
        dom.inv(dom.zero())


@pytest.mark.parametrize("p,k,s", [(2, 1, 2), (2, 1, 3), (2, 2, 2), (3, 1, 2), (5, 1, 4)])
def test_lift_ring_arithmetic(p, k, s):
    big = galois_ring_domain(p, k, s)
    rng = random.Random(5)
    mod = p**s
    for _ in range(200):
        a = big.random(rng)
        b = big.random(rng)
        assert big.coeffs(big.add(a, b)) == tuple(
            (x + y) % mod for x, y in zip(big.coeffs(a), big.coeffs(b))
        )
        assert big.is_zero(big.sub(big.mul(a, b), big.mul(b, a)))
        assert big.is_zero(big.mul_int(a, mod))


@pytest.mark.parametrize("p,k,s", [(2, 1, 2), (2, 2, 2), (3, 1, 3), (5, 1, 2)])
def test_lift_ring_units_invert(p, k, s):
    """Every element with unit residue is invertible: certified by product."""
    big = galois_ring_domain(p, k, s)
    rng = random.Random(13)
    found = 0
    while found < 60:
        a = big.random(rng)
        if big.is_zero(big.reduce_mod_p(a)):
            continue
        found += 1
        inv = big.inv(a)
        assert big.is_zero(big.sub(big.mul(a, inv), big.one()))


def test_lift_ring_non_unit_is_refused():
    big = galois_ring_domain(3, 1, 2)
    three = big.from_int(3)
    with pytest.raises(ZeroInput):
        big.inv(three)


@pytest.mark.parametrize("p,k,s", [(2, 1, 2), (3, 1, 2), (5, 1, 3)])
def test_residue_and_lift_round_trip(p, k, s):
    big = galois_ring_domain(p, k, s)
    small = fq_domain(p, k)
    rng = random.Random(3)
    for _ in range(100):
        a = small.random(rng)
        assert small.coeffs(big.reduce_mod_p(big.lift_from_field(a))) == small.coeffs(a)


@pytest.mark.parametrize("p,k,s", [(2, 1, 2), (2, 2, 2), (3, 1, 2)])
def test_lift_trace_reduces_to_field_trace(p, k, s):
    big = galois_ring_domain(p, k, s)
    small = fq_domain(p, k)
    rng = random.Random(17)
    for _ in range(100):
        a = small.random(rng)
        t_big = big.trace(big.lift_from_field(a))
        assert t_big % p == small.trace(a)


def test_quotient_domain_misuse_raises_typed_errors():
    """A p-th root in a lift ring is refused with the library's own error."""
    big = galois_ring_domain(3, 1, 2)
    with pytest.raises(TowerMismatch, match="residue-field operation"):
        big.pth_root(big.one())


def test_domains_are_cached():
    assert fq_domain(2, 3) is fq_domain(2, 3)
    assert galois_ring_domain(3, 1, 2) is galois_ring_domain(3, 1, 2)


def test_the_field_is_the_length_one_lift_ring():
    """One class and one cache: F_q is the length-1 Galois ring."""
    for p, k in DEFINING_POLYNOMIALS:
        assert fq_domain(p, k) is galois_ring_domain(p, k, 1)
        assert fq_domain(p, k).is_pth_power(fq_domain(p, k).generator())
        for s in (2, 3, 4):
            big = galois_ring_domain(p, k, s)
            with pytest.raises(TowerMismatch, match="residue-field operation"):
                big.is_pth_power(big.one())


def test_unknown_rings_are_config_errors():
    with pytest.raises(ConfigError, match="no defining polynomial"):
        galois_ring_domain(7, 1, 1)
    with pytest.raises(ConfigError, match="no defining polynomial"):
        fq_domain(2, 5)
    with pytest.raises(ConfigError, match="out of the supported range"):
        galois_ring_domain(2, 1, 5)


POWER_DOMAINS = {
    "F_9": fq_domain(3, 2), "Z/16": galois_ring_domain(2, 1, 4),
    "(Z/16)[g]": galois_ring_domain(2, 2, 4), "F_3(x)": rat_func_domain(3),
}


def random_unit(dom, rng):
    while True:
        if dom is POWER_DOMAINS["F_3(x)"]:
            x = random_nonzero_rat_func(dom, rng)
        else:
            x = dom.random_nonzero(rng)
        try:
            dom.inv(x)
        except ZeroInput:
            continue
        return x


@pytest.mark.parametrize("name", POWER_DOMAINS)
def test_power_is_repeated_multiplication(name):
    """``power`` and each domain's ``pow`` against n - 1 products, n = 1..40."""
    dom = POWER_DOMAINS[name]
    rng = random.Random(name)
    for _ in range(3):
        x = random_unit(dom, rng)
        acc = x
        for n in range(1, 41):
            if n > 1:
                acc = dom.mul(acc, x)
            assert power(x, n, dom.mul) == acc, n
            assert dom.pow(x, n) == acc, n
        assert dom.pow(x, 0) == dom.one()
        assert dom.mul(dom.pow(x, -3), dom.pow(x, 3)) == dom.one()


def test_polynomials_render_alike_in_every_domain():
    assert render_poly((0, 1, 0, 2), "g") == "g + 2*g^3"
    assert render_poly((3, 0, 1), "x") == "3 + x^2"
    assert render_poly((0, 0), "g") == "0" == render_poly((), "x")
    assert galois_ring_domain(2, 2, 4).render((3, 1)) == "3 + g"
