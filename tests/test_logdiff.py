"""Logarithmic differential forms: d, dlog, Cartier, residues, pairing.

Oracles used here:
  * d and dlog are checked against hand-expanded monomial identities and
    the Leibniz/product rules on random series;
  * the residue's coordinate independence is certified by substituting a
    reparameterized uniformizer and comparing exact values;
  * Cartier annihilation of exact forms follows from e * c = 0 whenever
    p | e, and is asserted on random exact forms;
  * ``residue_of_product`` is compared, values and refusals, with the
    residue of the scaled form, the product it does not build.
"""

import operator
import random
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest

from rswan import logdiff
from rswan.errors import (
    DegreeMismatch,
    DegreeOverflow,
    InconsistentValue,
    NoPthRoot,
    NotTopDegree,
    PrecisionExhausted,
    RswanError,
    TowerMismatch,
    WindowTooWide,
    ZeroInput,
)
from rswan.logdiff import (
    LogForm,
    WindowedForm,
    cartier,
    d,
    dlog,
    duality_matrix,
    gram_is_invertible,
    log_derivative,
    minimal_b,
    r_b,
    residue_of_product,
    residue_step,
    residue_to_prime_field,
    wedge,
    wedge_windowed,
)
from rswan.parser import parse_series
from rswan.ratfunc import rat_func_domain
from rswan.scalars import fq_domain, galois_ring_domain
from rswan.series import NestedSeries
from rswan.substitution import series_substitute
from rswan.tower import FieldTower

F2 = fq_domain(2, 1)
F3 = fq_domain(3, 1)
F4 = fq_domain(2, 2)

K2 = FieldTower(2, 1, 1, ("t",))
K3 = FieldTower(3, 1, 1, ("t",))
KD = FieldTower(2, 1, 1, ("u", "t"))
KD3 = FieldTower(3, 1, 1, ("u", "t"))
K4 = FieldTower(2, 2, 1, ("t",))


def mono(level, domain, exps, c=1):
    raw = domain.from_int(c) if isinstance(c, int) else c
    return NestedSeries.from_monomials(level, domain, [(tuple(exps), raw)])


def random_series(rng, level, domain, lo=-4, hi=5, terms=4):
    monos = []
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(lo, hi) for _ in range(level))
        monos.append((exps, domain.random_nonzero(rng)))
    return NestedSeries.from_monomials(level, domain, monos)


# ------------------------------------------------------------ construction

def random_form(rng, level, domain, degree, lo=-4, hi=5):
    keys = list(combinations(range(1, level + 1), degree))
    chosen = rng.sample(keys, rng.randint(1, len(keys)))
    return LogForm(level, domain, degree,
                   {key: random_series(rng, level, domain, lo, hi, terms=3) for key in chosen})


def window_basis(level, domain, degree, n, m, b):
    """The twisted monomial basis of the window ``(n, m)`` in degree
    ``degree``, in the order that numbers the rows and columns of
    ``duality_matrix``: dlog keys in ``combinations`` order, then the top
    exponents ``-n .. -m-1``, then the residue monomials (exponents in
    ``range(p^b)`` per lower variable) in ``product`` order."""
    pb = domain.p**b
    return [logdiff._basis_form(level, domain, key, lower + (top,), n, m)
            for key in combinations(range(1, level + 1), degree)
            for top in range(-n, -m)
            for lower in product(range(pb), repeat=level - 1)]


def forms_agree(alpha, beta):
    """Whether two forms of one degree agree key by key, each pair of
    coefficients within both windows (``NestedSeries.agrees_with``)."""
    return alpha.degree == beta.degree and all(
        alpha.coefficient(key).agrees_with(beta.coefficient(key))
        for key in set(alpha.coeffs) | set(beta.coeffs))


def test_trusted_construction_builds_only_valid_forms():
    """Every form an operation builds through the trusted constructor is the
    form the validating one builds from the same data: valid keys and
    coefficients, and no exactly zero coefficient kept.  The draws include
    cancellations (``x - x``, ``x ^ x``, ``d(d f)``, ``mul_int(0)``, scaling
    by zero, Cartier of prime-to-p exponents, residues of absent slots), and
    the one-term paths: wedges of monomial forms, products of dual windows
    stored without a cut, and ``r_b`` of them."""
    rng = random.Random(107)
    z4 = galois_ring_domain(2, 1, 2)
    domains = (F2, fq_domain(3, 2), z4, rat_func_domain(3))
    checked = Counter()

    def check(name, fn, *args):
        try:
            r = fn(*args)
        except RswanError:  # a non-unit to invert, a coefficient with no p-th root
            return
        valid(name, r)

    def valid(name, r):
        if isinstance(r, WindowedForm):
            assert r == WindowedForm(r.form, r.n, r.m), name
            r = r.form
        if not isinstance(r, LogForm):  # a level-1 residue is a raw scalar
            return
        assert r == LogForm(r.level, r.domain, r.degree, r.coeffs), name
        checked[name] += 1

    for domain in domains:
        for level in (1, 2, 3):
            zero = NestedSeries.zero(level, domain)
            for _ in range(3):
                deg = rng.randint(0, level)
                x = random_form(rng, level, domain, deg)
                y = random_form(rng, level, domain, deg)
                f = random_series(rng, level, domain, terms=3)
                check("+", operator.add, x, y)
                check("+", operator.add, x, -x)
                check("-", operator.sub, x, y)
                check("-", operator.sub, x, x)
                check("scale", x.scale, f)
                check("scale", x.scale, zero)
                for n in (0, 1, 2, domain.p):
                    check("mul_int", x.mul_int, n)
                if deg + 1 <= level:
                    one = random_form(rng, level, domain, 1)
                    check("wedge", wedge, x, one)
                    check("wedge", wedge, one, one)
                if deg < level:
                    check("d", d, x)
                check("d", d, f)
                if level >= 2:
                    check("d", d, d(f))
                check("dlog", dlog, f, 6)
                top = random_form(rng, level, domain, level)
                if getattr(domain, "s", 1) == 1:  # Cartier is a characteristic-p operation
                    check("cartier", cartier, top)
                    check("cartier", cartier, top.mul_int(0))
                check("residue_step", residue_step, top)
                check("residue_step", residue_step, top.mul_int(0))
                n, m = 3, rng.randint(-2, 1)
                w = random_form(rng, level, domain, deg, lo=-n, hi=2)
                check("WindowedForm", WindowedForm, w, n, m)
                check("WindowedForm", WindowedForm, w - w, n, m)
                xw = WindowedForm(w, n, m)
                # the one-term paths: monomial wedges, in-window products, r_b walks
                ka = tuple(sorted(rng.sample(range(1, level + 1), rng.randint(0, level))))
                kb = tuple(v for v in range(1, level + 1) if v not in ka)
                monos = [LogForm(level, domain, len(key), {key: mono(
                    level, domain, [rng.randint(-2, 2) for _ in range(level)],
                    domain.random_nonzero(rng))}) for key in (ka, kb)]
                check("one-term wedge", wedge, *monos)
                check("one-term wedge", wedge, monos[1], monos[0])
                check("one-term wedge", wedge, monos[0], monos[0])
                y = WindowedForm(random_form(rng, level, domain, level - deg, lo=m + 1, hi=n + 1),
                                 -m - 1, -n - 1)
                pairs = [(xw, y), (rng.choice(window_basis(level, domain, len(ka), n, m, 1)),
                                   rng.choice(window_basis(level, domain, len(kb), -m - 1, -n - 1, 1)))]
                for left, right in pairs:
                    check("wedge_windowed", wedge_windowed, left, right)
                    for b in range(minimal_b(domain.p, n - m), 3):
                        check("r_b", lambda: r_b(wedge_windowed(left, right), b))
            for deg in range(level + 1):
                for r in window_basis(level, domain, deg, 2, 0, 1):
                    valid("window_basis", r)
    names = ("+", "-", "scale", "mul_int", "wedge", "d", "dlog", "cartier", "residue_step",
             "WindowedForm", "window_basis", "one-term wedge",
             "wedge_windowed", "r_b")
    assert all(checked[name] >= 6 for name in names), checked


# ------------------------------------------------------------- derivations

def test_log_derivative_monomials():
    t3 = mono(1, F2, (3,))
    assert log_derivative(t3, 1) == t3  # 3 = 1 mod 2
    assert log_derivative(mono(1, F3, (3,)), 1).is_zero()  # 3 = 0 mod 3
    f = mono(2, F3, (2, -4))
    assert log_derivative(f, 1) == f.mul_int(2)
    assert log_derivative(f, 2) == f.mul_int(-4)


def test_d_monomial_expansion():
    """d(t^k) = k t^k dlog t."""
    form = d(mono(1, F3, (4,)))
    assert form.degree == 1
    assert form.coefficient((1,)) == mono(1, F3, (4,)).mul_int(4)


def test_d_squared_is_zero():
    rng = random.Random(101)
    for _ in range(20):
        f = random_series(rng, 2, F2)
        ddf = d(d(f))
        assert ddf.is_zero()
    for _ in range(10):
        f = random_series(rng, 2, F3)
        assert d(d(f)).is_zero()


def test_d_of_top_degree_overflows():
    omega = LogForm(1, F2, 1, {(1,): mono(1, F2, (2,))})
    with pytest.raises(DegreeOverflow):
        d(omega)


def window_zero_inner(e, ceiling):
    """``0 + O(u^ceiling)`` at ``t^e``: top-exact, zero only within its inner window."""
    return NestedSeries(2, F2, {e: NestedSeries(1, F2, {}, ceiling)})


def test_a_form_keeps_a_coefficient_zero_within_an_inner_window():
    x = window_zero_inner(-2, 3)
    assert LogForm(2, F2, 1, {(1,): x}).coeffs == {(1,): x}
    assert LogForm(2, F2, 1, {(1,): NestedSeries.zero(2, F2)}).coeffs == {}


def test_d_keeps_a_derivative_zero_within_an_inner_window():
    """Over F_2, u d/du of u^2 t^-3 + O(u^3) is 0 + O(u^3): its dlog u term stays."""
    y = NestedSeries(2, F2, {-3: NestedSeries(1, F2, {2: 1}, 3)})
    assert d(y).coeffs == {(1,): window_zero_inner(-3, 3), (2,): y}


def test_adding_a_non_form_is_a_tower_mismatch():
    with pytest.raises(TowerMismatch):
        LogForm.from_series(mono(1, F2, (1,))) + mono(1, F2, (1,))
    with pytest.raises(TowerMismatch):
        mono(1, F2, (1,)) + 1


def test_leibniz_rule_random():
    rng = random.Random(103)
    for level, domain in [(1, F3), (2, F2)]:
        for _ in range(25):
            f = random_series(rng, level, domain)
            g = random_series(rng, level, domain)
            lhs = d(f * g)
            rhs = d(f).scale(g) + d(g).scale(f)
            assert lhs == rhs


def test_dlog_is_logarithmic():
    rng = random.Random(107)
    for level, domain in [(1, F3), (2, F2)]:
        for _ in range(20):
            f = random_series(rng, level, domain)
            if f.is_zero():
                continue
            assert forms_agree(dlog(f, 32).scale(f), d(f))


def test_dlog_of_product():
    rng = random.Random(109)
    for level, domain, tower in [(1, F3, K3), (2, F2, KD)]:
        for _ in range(20):
            f = random_series(rng, level, domain)
            g = random_series(rng, level, domain)
            if f.is_zero() or g.is_zero():
                continue
            assert forms_agree(dlog(f * g, 24), dlog(f, 24) + dlog(g, 24))


def test_dlog_of_uniformizer_and_powers():
    t = mono(1, F3, (1,))
    omega = dlog(t)
    assert omega.coefficient((1,)) == NestedSeries.one(1, F3)
    omega5 = dlog(t.pow(5))
    assert omega5.coefficient((1,)) == NestedSeries.one(1, F3).mul_int(5)


# ------------------------------------------------------------------- wedge

def test_wedge_antisymmetry_and_square_zero():
    rng = random.Random(113)
    for _ in range(15):
        f = random_series(rng, 2, F3)
        g = random_series(rng, 2, F3)
        if f.is_zero() or g.is_zero():
            continue
        a = dlog(f, 16)
        b = dlog(g, 16)
        assert forms_agree(wedge(a, b), -wedge(b, a))
        assert wedge(a, a).is_zero() or forms_agree(wedge(a, a), LogForm.zero(2, F3, 2))


def test_wedge_concrete_keys():
    alpha = LogForm(2, F2, 1, {(1,): mono(2, F2, (0, 0))})
    beta = LogForm(2, F2, 1, {(2,): mono(2, F2, (1, -2))})
    out = wedge(alpha, beta)
    assert out.degree == 2
    assert out.coefficient((1, 2)) == mono(2, F2, (1, -2))
    swapped = wedge(beta, alpha)
    assert swapped.coefficient((1, 2)) == mono(2, F2, (1, -2)).mul_int(-1)


def wedge_by_term_pairs(alpha, beta):
    """The exterior product over every pair of terms, each product through
    ``NestedSeries.__mul__`` and ``mul_int``: the oracle of the one-term
    path of :func:`wedge`."""
    if alpha.degree + beta.degree > alpha.level:
        raise DegreeOverflow(f"wedge of degrees {alpha.degree} and {beta.degree} "
                             f"exceeds top degree {alpha.level}")
    out = {}
    for ka, ca in alpha.coeffs.items():
        for kb, cb in beta.coeffs.items():
            if set(ka) & set(kb):
                continue
            sign = (-1) ** sum(x > y for x in ka for y in kb)
            key = tuple(sorted(ka + kb))
            term = (ca * cb).mul_int(sign)
            out[key] = out[key] + term if key in out else term
    return LogForm(alpha.level, alpha.domain, alpha.degree + beta.degree, out)


ONE_TERM_DOMAINS = (F2, F3, F4, fq_domain(3, 2), galois_ring_domain(2, 1, 2),
                    galois_ring_domain(2, 2, 2), rat_func_domain(3))


def one_term_coefficient(rng, level, domain, kind, lo=-3, hi=3):
    """A coefficient at ``level``: one exact monomial (``"monomial"``; over a
    lift ring its scalar is a multiple of p half of the time), the same cut
    at a top ceiling above it (``"windowed"``), an inner coefficient zero
    within a window (``"inner"``, level >= 2), two monomials
    (``"two-term"``), or a monomial near the exponent floor (``"deep"``)."""
    def scalar():
        c = domain.random_nonzero(rng)
        if getattr(domain, "s", 1) > 1 and rng.random() < 0.5:
            c = domain.mul_int(c, domain.p)
        return c

    def exps():
        return tuple(rng.randint(lo, hi) for _ in range(level))

    if kind == "deep":
        return NestedSeries.from_monomials(level, domain, [((-5200,) * level, scalar())])
    if kind == "inner" and level > 1:
        inner = NestedSeries.zero(level - 1, domain, rng.randint(-2, 3))
        return NestedSeries(level, domain, {rng.randint(lo, hi): inner})
    monos = [(exps(), scalar()) for _ in range(2 if kind == "two-term" else 1)]
    sr = NestedSeries.from_monomials(level, domain, monos)
    if kind == "windowed" and sr.coeffs:
        return sr.truncate(max(sr.coeffs) + rng.randint(1, 3))
    return sr


def test_one_term_wedge_matches_the_term_pair_loop():
    """Seeded property: :func:`wedge` equals the loop over term pairs,
    values and refusals (type, message, exponent), on one-term forms at
    levels 1-3 over F_q, Z/4, (Z/4)[g] and F_3(x): exact monomials (the
    one-term path), windowed, inner-window-zero and two-term coefficients
    (which it declines), repeated keys, sign -1, lift-ring scalars whose
    product is 0, and exponent sums below the supported range."""
    rng = random.Random(2601)
    kinds = ("monomial",) * 8 + ("windowed", "inner", "two-term", "deep", "deep")
    seen = Counter()
    for _ in range(2400):
        domain = rng.choice(ONE_TERM_DOMAINS)
        level = rng.randint(1, 3)
        coeffs = [one_term_coefficient(rng, level, domain, rng.choice(kinds)) for _ in "ab"]
        if any(c.is_exact_zero() for c in coeffs):
            continue
        ka = tuple(sorted(rng.sample(range(1, level + 1), rng.randint(0, level))))
        rest = [v for v in range(1, level + 1) if v not in ka]
        if rng.random() < 0.1:  # too many dlogs
            kb = tuple(sorted(rng.sample(range(1, level + 1), min(level, len(rest) + 1))))
        else:  # mostly dlogs that ka lacks, else repeated ones
            pool = rest if rng.random() < 0.7 else range(1, level + 1)
            kb = tuple(sorted(rng.sample(pool, rng.randint(0, len(rest)))))
        alpha = LogForm(level, domain, len(ka), {ka: coeffs[0]})
        beta = LogForm(level, domain, len(kb), {kb: coeffs[1]})
        want = outcome(wedge_by_term_pairs, alpha, beta)
        assert outcome(wedge, alpha, beta) == want, (alpha, beta)
        # the one-term path takes exactly the exact single monomials
        monomial = [c.is_exact() and len(list(c.iter_monomials())) == 1 for c in coeffs]
        assert [logdiff._monomial(c) is not None for c in coeffs] == monomial
        if isinstance(want, tuple):
            seen[want[0]] += 1
        elif not all(monomial):
            seen["declined"] += 1
        elif set(ka) & set(kb):
            seen["repeated key"] += 1
        elif not want.coeffs:
            seen["zero product"] += 1
        elif sum(x > y for x in ka for y in kb) % 2 and domain.p > 2:
            seen["sign -1"] += 1
        else:
            seen["product"] += 1
    assert min(seen[k] for k in ("declined", "repeated key", "zero product", "sign -1",
                                 "product", "ExponentOutOfRange", "DegreeOverflow")) >= 20, seen


# ----------------------------------------------------------------- Cartier

def test_cartier_fixes_dlog_basis():
    omega = LogForm(1, F3, 1, {(1,): NestedSeries.one(1, F3)})
    assert cartier(omega) == omega
    top = LogForm(2, F2, 2, {(1, 2): NestedSeries.one(2, F2)})
    assert cartier(top) == top


def test_cartier_frozen_monomial():
    """C(c^p T^{pe} dlog T) = c T^e dlog T."""
    g = F4.generator()
    gp = F4.pow(g, 2)
    omega = LogForm(1, F4, 1, {(1,): mono(1, F4, (6,), gp)})
    out = cartier(omega)
    assert out.coefficient((1,)) == mono(1, F4, (3,), g)


def test_cartier_drops_prime_to_p_exponents():
    omega = LogForm(1, F2, 1, {(1,): mono(1, F2, (3,))})
    assert cartier(omega).is_zero()


def test_cartier_kills_exact_forms():
    rng = random.Random(127)
    for _ in range(20):
        f = random_series(rng, 1, F3)
        assert cartier(d(f)).is_zero()
    for _ in range(20):
        g = random_series(rng, 2, F2)
        omega = d(LogForm(2, F2, 1, {(2,): g}))  # d(g dlog t)
        assert cartier(omega).is_zero()


def test_cartier_semilinear():
    rng = random.Random(131)
    for _ in range(15):
        f = random_series(rng, 1, F3)
        g = random_series(rng, 1, F3)
        if f.is_zero():
            continue
        omega = LogForm(1, F3, 1, {(1,): g})
        lhs = cartier(LogForm(1, F3, 1, {(1,): f.pow(3) * g}))
        rhs = cartier(omega).scale(f)
        assert lhs == rhs


def test_cartier_needs_top_degree():
    omega = LogForm(2, F2, 1, {(1,): mono(2, F2, (0, 0))})
    with pytest.raises(NotTopDegree):
        cartier(omega)


def test_cartier_no_root_over_imperfect_scalars():
    """Over F_p(x) the scalar x has no p-th root: the operator must refuse."""
    dom = rat_func_domain(2)
    x = dom.variable()
    omega = LogForm(1, dom, 1, {(1,): mono(1, dom, (2,), x)})
    with pytest.raises(NoPthRoot):
        cartier(omega)


# ---------------------------------------------------------------- residues

def test_residue_frozen_values():
    t = mono(1, F3, (1,))
    assert residue_to_prime_field(dlog(t)) == 1
    assert residue_to_prime_field(dlog(t).scale(mono(1, F3, (2,)))) == 0
    assert residue_to_prime_field(dlog(t).mul_int(2)) == 2


def test_residue_of_exact_forms_vanishes():
    rng = random.Random(137)
    for _ in range(25):
        f = random_series(rng, 1, F3)
        assert residue_to_prime_field(d(f)) == 0


def test_residue_iterates_down_the_tower():
    top = LogForm(2, F2, 2, {(1, 2): mono(2, F2, (0, 0))})
    assert residue_to_prime_field(top) == 1
    shifted = LogForm(2, F2, 2, {(1, 2): mono(2, F2, (1, 0))})
    assert residue_to_prime_field(shifted) == 0
    step = residue_step(top)
    assert isinstance(step, LogForm) and step.level == 1


def test_residue_traces_the_coefficient_field():
    g = F4.generator()
    omega = LogForm(1, F4, 1, {(1,): mono(1, F4, (0,), g)})
    # trace of the generator of F_4 over F_2: g + g^2 = 1
    assert residue_to_prime_field(omega) == 1
    one_form = LogForm(1, F4, 1, {(1,): NestedSeries.one(1, F4)})
    assert residue_to_prime_field(one_form) == 0  # trace of 1 = 2 = 0 mod 2
    assert residue_to_prime_field(g, F4) == 1
    with pytest.raises(TowerMismatch, match="needs its domain"):
        residue_to_prime_field(g)


def test_residue_is_coordinate_free():
    """Res(f dlog t) is unchanged under t -> t(1 + t)."""
    rng = random.Random(139)
    phi = parse_series("t*(1+t)", K3)
    for _ in range(20):
        f = random_series(rng, 1, F3, lo=-5, hi=5)
        if f.is_zero():
            continue
        lhs = residue_to_prime_field(dlog(mono(1, F3, (1,)), 48).scale(f))
        pulled = series_substitute(f, {1: phi}, precision=48)
        rhs = residue_to_prime_field(dlog(phi, 48).scale(pulled))
        assert lhs == rhs


def test_residue_needs_top_degree():
    omega = LogForm(2, F2, 1, {(1,): mono(2, F2, (0, 0))})
    with pytest.raises(NotTopDegree):
        residue_step(omega)


# ------------------------------------------------ residues of products

PRODUCT_DOMAINS = (
    F2, F3, F4, fq_domain(5, 1),
    galois_ring_domain(2, 1, 2), galois_ring_domain(3, 1, 2), galois_ring_domain(2, 1, 3),
    galois_ring_domain(2, 2, 2), galois_ring_domain(3, 2, 2),
)


def random_factor(rng, level, domain, windows):
    """A series at ``level`` with 1-3 stored exponents in [-2, 2].

    ``windows`` is ``None`` (exact), ``"top"`` (a top ceiling a third of the
    time) or ``"inner"`` (ceilings and window-zero coefficients at every
    level).  Over a lift ring a third of the scalars are multiples of p,
    so that products of stored scalars can vanish."""
    coeffs = {}
    for e in rng.sample(range(-2, 3), rng.randint(1, 3)):
        if level == 1:
            c = domain.random_nonzero(rng)
            if domain.s > 1 and rng.random() < 0.33:
                c = domain.mul_int(c, domain.p)
        elif windows == "inner" and rng.random() < 0.15:
            c = NestedSeries.zero(level - 1, domain, rng.randint(-2, 3))
        else:
            c = random_factor(rng, level - 1, domain, "inner" if windows == "inner" else None)
        coeffs[e] = c
    ceiling = rng.randint(-2, 5) if windows and rng.random() < 0.35 else None
    return NestedSeries(level, domain, coeffs, ceiling)


def outcome(fn, *args):
    """The value, or the refusal's type, message and exponent."""
    try:
        return fn(*args)
    except RswanError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "exponent", None)


def test_residue_of_product_is_the_residue_of_the_scaled_form():
    """``residue_of_product(omega, g)`` equals ``residue_to_prime_field(
    omega.scale(g))``, values and refusals (type, message, exponent), over
    F_q, Z/p^s and (Z/p^s)[g] at levels 1-3, on exact, top-windowed and
    inner-windowed inputs."""
    rng = random.Random(2201)
    seen = Counter()
    for _ in range(2400):
        domain = rng.choice(PRODUCT_DOMAINS)
        level = rng.randint(1, 3)
        windows = rng.choice((None, "top", "inner"))
        top = tuple(range(1, level + 1))
        omega = LogForm(level, domain, level, {top: random_factor(rng, level, domain, windows)})
        g = random_factor(rng, level, domain, windows)
        want = outcome(lambda: residue_to_prime_field(omega.scale(g)))
        assert outcome(residue_of_product, omega, g) == want, (omega, g)
        seen[want[0] if isinstance(want, tuple) else "zero" if want == 0 else "value"] += 1
    assert seen["value"] > 300 and seen["zero"] > 300 and seen["PrecisionExhausted"] > 300, seen


def test_residue_of_product_refuses_as_the_product_does():
    """The cases the kernel hands to the product itself: an empty or
    non-top form, a ``g`` over another ring, and exponents whose sums leave
    the supported range (at the top level and one level down)."""
    t, one = mono(1, F2, (1,)), NestedSeries.one(1, F2)
    deep = [mono(1, F2, (-6000,)), mono(1, F2, (-5000,))]
    inner = [NestedSeries(2, F2, {1: mono(1, F2, (-6000,))}), NestedSeries(2, F2, {-1: deep[1]})]
    cases = [
        (LogForm.zero(1, F2, 1), t),
        (LogForm(2, F2, 1, {(1,): mono(2, F2, (0, 0))}), mono(2, F2, (0, 0))),
        (LogForm(1, F2, 1, {(1,): t}), mono(1, F3, (1,))),
        (LogForm(1, F2, 1, {(1,): t}), mono(2, F2, (0, 0))),
        (LogForm(1, F2, 1, {(1,): deep[0]}), deep[1]),
        (LogForm(2, F2, 2, {(1, 2): inner[0]}), inner[1]),
        (LogForm(1, F2, 1, {(1,): deep[0] + one}), mono(1, F2, (-3000,))),
    ]
    got = [outcome(residue_of_product, omega, g) for omega, g in cases]
    assert got == [outcome(lambda: residue_to_prime_field(omega.scale(g))) for omega, g in cases]
    assert [r if r == 0 else r[0] for r in got] == [
        0, "NotTopDegree", "TowerMismatch", "TowerMismatch",
        "ExponentOutOfRange", "ExponentOutOfRange", 0,
    ]


def test_residue_of_product_reads_only_the_cancelling_pairs():
    """Res((t^-2 + t) dlog t * (1 + t + t^2 + O(t^3))) over F_3 reads
    t^-2 * t^2 only; at g's ceiling 2 the slot is unknown."""
    omega = LogForm(1, F3, 1, {(1,): parse_series("t^-2 + t", K3)})
    assert residue_of_product(omega, parse_series("1 + t + 2*t^2", K3).truncate(3)) == 2
    with pytest.raises(PrecisionExhausted) as err:
        residue_of_product(omega, parse_series("1 + t", K3).truncate(2))
    assert str(err.value) == "coefficient at exponent 0 is beyond the window ceiling 0"
    assert err.value.exponent == 0


# ----------------------------------------------------------------- windows

def test_windowed_form_canonicalizes():
    f = mono(1, F2, (-3,)) + mono(1, F2, (-1,)) + mono(1, F2, (4,))
    w = WindowedForm(LogForm(1, F2, 1, {(1,): f}), 3, 1)
    kept = w.form.coefficient((1,))
    assert kept == mono(1, F2, (-3,))  # -1 and 4 are above the window


def test_windowed_form_refuses_deep_terms():
    f = mono(1, F2, (-5,))
    with pytest.raises(InconsistentValue):
        WindowedForm(LogForm(1, F2, 1, {(1,): f}), 3, 1)


def test_windowed_form_refuses_short_windows():
    foggy = NestedSeries.zero(1, F2, ceiling=-3)
    with pytest.raises(PrecisionExhausted):
        WindowedForm(LogForm(1, F2, 1, {(1,): foggy}), 4, 1)
    with pytest.raises(InconsistentValue):
        WindowedForm(LogForm.zero(1, F2, 1), 1, 1)  # n must exceed m


def test_wedge_windowed_requires_dual_windows():
    x = WindowedForm(LogForm(2, F2, 1, {(2,): mono(2, F2, (0, -2))}), 2, 1)
    y_good = WindowedForm(LogForm(2, F2, 1, {(1,): mono(2, F2, (0, 2))}), -2, -3)
    out = wedge_windowed(x, y_good)
    assert (out.n, out.m) == (0, -1)
    y_bad = WindowedForm(LogForm(2, F2, 1, {(1,): mono(2, F2, (0, 1))}), -1, -3)
    with pytest.raises(DegreeMismatch):
        wedge_windowed(x, y_bad)


def test_wedge_windowed_duality_is_symmetric():
    """The dual-window relation is an involution: both orders are legal."""
    x = WindowedForm(LogForm(2, F2, 1, {(2,): mono(2, F2, (0, -2))}), 2, 1)
    y = WindowedForm(LogForm(2, F2, 1, {(1,): mono(2, F2, (0, 2))}), -2, -3)
    a = wedge_windowed(x, y)
    b = wedge_windowed(y, x)
    assert (a.n, a.m) == (b.n, b.m) == (0, -1)
    assert a.form == -b.form or a.form == b.form  # antisymmetry up to sign


def test_wedge_windowed_stores_an_in_window_product_as_it_is(monkeypatch):
    """Seeded property: ``wedge_windowed`` equals the product of the
    representatives cut to the window ``(a-1, -1)`` by the validating
    ``WindowedForm``, on dual windows at levels 1-3 over F_q, Z/4 and
    F_3(x), with one-term monomials and representatives of several terms
    and inner windows; a product whose top exponents already lie in the
    window is not cut again."""
    cuts = []
    cut = logdiff._window_truncate

    def counting(*args):
        cuts.append(1)
        return cut(*args)

    rng = random.Random(2603)
    seen = Counter()
    for _ in range(600):
        domain = rng.choice(ONE_TERM_DOMAINS)
        level = rng.randint(1, 3)
        n = rng.randint(-2, 3)
        m = n - rng.randint(1, 4)
        i = rng.randint(0, level)
        windowed = []
        for (hi, lo), degree in (((n, m), i), ((-m - 1, -n - 1), level - i)):
            keys = list(combinations(range(1, level + 1), degree))
            coeffs = {}
            for key in rng.sample(keys, 1 if rng.random() < 0.6 else rng.randint(1, len(keys))):
                monos = []
                for _ in range(1 if rng.random() < 0.6 else rng.randint(1, 3)):
                    exps = tuple(rng.randint(-3, 3) for _ in range(level - 1))
                    monos.append((exps + (rng.randint(-hi, -lo - 1),), domain.random_nonzero(rng)))
                coeffs[key] = NestedSeries.from_monomials(level, domain, monos)
                if level > 1 and rng.random() < 0.15:
                    top = min(coeffs[key].coeffs or [-hi])
                    coeffs[key] = coeffs[key] + NestedSeries(
                        level, domain, {top: NestedSeries.zero(level - 1, domain, 2)})
            windowed.append(WindowedForm(LogForm(level, domain, degree, coeffs), hi, lo))
        x, y = windowed
        want = WindowedForm(wedge_by_term_pairs(x.form, y.form), n - m - 1, -1)
        monkeypatch.setattr(logdiff, "_window_truncate", counting)
        cuts.clear()
        got = wedge_windowed(x, y)
        monkeypatch.setattr(logdiff, "_window_truncate", cut)
        assert got == want, (x, y)
        product = wedge(x.form, y.form)
        inside = all(c.ceiling is None and -(n - m - 1) <= min(c.coeffs) and max(c.coeffs) < 1
                     for c in product.coeffs.values())
        assert (cuts == []) == inside
        seen["stored" if inside else "cut"] += 1
    assert seen["stored"] > 100 and seen["cut"] > 100, seen


# --------------------------------------------------------------------- r_b

def test_r_b_frozen_example():
    """Window (1,-1), a=2, p=2, b=1: residue slot then one Cartier root."""
    f = mono(1, F2, (0,)) + mono(1, F2, (-1,))
    x = WindowedForm(LogForm(1, F2, 1, {(1,): f}), 1, -1)
    val = r_b(x, 1)
    assert val == F2.one()  # constant slot 1, C(1) = 1


def test_r_b_rejects_wide_windows():
    f = mono(1, F2, (-2,))
    x = WindowedForm(LogForm(1, F2, 1, {(1,): f}), 2, -1)
    with pytest.raises(WindowTooWide):
        r_b(x, 0)  # 2^0 = 1 < 3
    assert r_b(x, 2) == F2.zero()


def test_minimal_b_is_the_least_collapsing_b():
    cases = {(2, 0): 0, (2, 1): 0, (2, 2): 1, (2, 3): 2, (2, 5): 3, (3, 9): 2, (3, 10): 3, (5, 6): 2}
    for (p, a), b in cases.items():
        assert minimal_b(p, a) == b
    f = mono(1, F2, (-2,))
    x = WindowedForm(LogForm(1, F2, 1, {(1,): f}), 2, -1)  # width 3
    r_b(x, minimal_b(2, 3))
    with pytest.raises(WindowTooWide):
        r_b(x, minimal_b(2, 3) - 1)


def test_r_b_needs_residue_shaped_window():
    f = mono(1, F2, (-2,))
    x = WindowedForm(LogForm(1, F2, 1, {(1,): f}), 3, 1)
    with pytest.raises(InconsistentValue):
        r_b(x, 2)


def test_r_b_two_variables_returns_residue_form():
    x = WindowedForm(LogForm(2, F2, 2, {(1, 2): mono(2, F2, (2, 0))}), 1, -1)
    out = r_b(x, 1)
    assert isinstance(out, LogForm) and out.level == 1
    assert out.coefficient((1,)) == mono(1, F2, (1,))


def r_b_by_cartier_steps(x, b):
    """The collapse as one residue step and then ``b`` calls of
    :func:`cartier` (``b`` roots of the raw scalar over a one-variable
    ring), each building its form: the oracle of the one-pass ``r_b``."""
    if x.m != -1:
        raise InconsistentValue(f"r_b needs a window of shape (a-1, -1); got ({x.n}, {x.m})")
    form = x.form
    if form.degree != form.level:
        raise NotTopDegree("r_b needs a top-degree windowed form")
    if b < 0 or form.domain.p**b < x.width:
        raise WindowTooWide(f"p^{b} < {x.width}: the window is too wide for r_{b}")
    omega0 = residue_step(form)
    for _ in range(b):
        omega0 = cartier(omega0) if isinstance(omega0, LogForm) else form.domain.pth_root(omega0)
    return omega0


R_B_DOMAINS = (F2, F3, F4, fq_domain(3, 2), galois_ring_domain(2, 1, 2), rat_func_domain(3))


def random_slot(rng, level, domain):
    """A level-``level`` coefficient: zero within a window, exactly zero,
    or 1-3 monomials whose exponents are often divisible by a power of p,
    a third of them with a ceiling above their stored terms."""
    kind = rng.random()
    if kind < 0.15:
        return NestedSeries.zero(level, domain, rng.randint(-2, 6))
    if kind < 0.25:
        return NestedSeries.zero(level, domain)
    p = domain.p
    monos = [
        (tuple(rng.randint(-3, 3) * p ** rng.randint(0, 3) for _ in range(level)),
         domain.random_nonzero(rng))
        for _ in range(rng.randint(1, 3))
    ]
    sr = NestedSeries.from_monomials(level, domain, monos)
    if sr.coeffs and rng.random() < 0.33:
        return sr.truncate(max(sr.coeffs) + rng.randint(1, 4))
    return sr


def test_r_b_one_pass_matches_the_cartier_steps():
    """Seeded property: ``r_b`` equals one residue step and ``b`` Cartier
    calls, values and refusals (type, message, exponent), on random top
    forms in windows (a-1, -1) at levels 1-3 over F_q, Z/4 and F_3(x), for
    b = 0..3; the residue slot is often zero within a window or exactly
    zero, and the top key is sometimes absent."""
    rng = random.Random(2501)
    seen = Counter()
    for _ in range(1500):
        domain = rng.choice(R_B_DOMAINS)
        level = rng.randint(1, 3)
        a = rng.randint(1, 5)
        top = {}
        for e in rng.sample(range(1 - a, 1), rng.randint(0, a)):
            if level == 1:
                top[e] = domain.random_nonzero(rng)
            else:
                top[e] = random_slot(rng, level - 1, domain)
        key = tuple(range(1, level + 1))
        form = LogForm(level, domain, level, {key: NestedSeries(level, domain, top)})
        x = WindowedForm(form, a - 1, -1)
        for b in range(4):
            want = outcome(r_b_by_cartier_steps, x, b)
            assert outcome(r_b, x, b) == want, (x, b)
            if isinstance(want, tuple) and isinstance(want[0], str):
                seen[want[0]] += 1
            elif isinstance(want, LogForm):
                seen["zero form" if not want.coeffs else "form"] += 1
            else:
                seen["scalar"] += 1
    assert min(seen[kind] for kind in (
        "form", "zero form", "scalar", "WindowTooWide", "NoPthRoot", "TowerMismatch"
    )) > 50, seen


def test_one_term_r_b_walk_matches_the_cartier_steps():
    """Seeded property: on windows whose residue slot is one exact monomial,
    ``r_b`` (one walk over the slot's exponents) equals one residue step
    and ``b`` Cartier calls, values and refusals (type, message, exponent),
    at levels 2 and 3 for b = 0..3.  The slot exponents are divisible by
    ``p^j`` for j = 0..3, so the steps drop the monomial at every step or
    root it through; the scalars include p-th powers and non-powers of
    F_3(x) and lift-ring scalars (Z/4), which refuse at the first step that
    reaches them, also when an exponent is divisible by p but not by
    ``p^b``."""
    rng = random.Random(2602)
    seen = Counter()
    for _ in range(1200):
        domain = rng.choice(R_B_DOMAINS)
        level = rng.randint(2, 3)
        p = domain.p
        a = rng.randint(1, 5)
        exps = tuple(rng.randint(-3, 3) * p ** rng.randint(0, 3) for _ in range(level - 1))
        raw = domain.random_nonzero(rng)
        if isinstance(domain, type(rat_func_domain(3))) and rng.random() < 0.5:
            raw = domain.pow(raw, p)
        slot = mono(level - 1, domain, exps, raw)
        top = {0: slot}
        for e in rng.sample(range(1 - a, 0), rng.randint(0, a - 1)):
            top[e] = random_slot(rng, level - 1, domain)
        form = LogForm(level, domain, level, {tuple(range(1, level + 1)): NestedSeries(level, domain, top)})
        x = WindowedForm(form, a - 1, -1)
        assert logdiff._monomial(slot) is not None
        for b in range(4):
            want = outcome(r_b_by_cartier_steps, x, b)
            assert outcome(r_b, x, b) == want, (x, b)
            steps = min((v for v in range(4) if any(e % p ** (v + 1) for e in exps)), default=3)
            if isinstance(want, tuple):
                seen[want[0]] += 1
                if want[0] != "WindowTooWide" and 0 < steps < b:
                    seen["refused past a step that roots"] += 1
            elif not want.coeffs:
                seen["dropped after a root" if 0 < steps < b else "zero form"] += 1
            else:
                seen["form"] += 1
    assert min(seen[kind] for kind in (
        "form", "zero form", "dropped after a root", "refused past a step that roots",
        "WindowTooWide", "NoPthRoot", "TowerMismatch"
    )) > 20, seen


# ----------------------------------------------------------------- duality

def test_window_basis_dimensions():
    basis = window_basis(2, F2, 1, 2, 1, 1)
    # degree 1 on 2 variables: 2 keys; width 1; 2^1 lower exponents
    assert len(basis) == 2 * 1 * 2
    assert all(isinstance(x, WindowedForm) for x in basis)


def test_duality_one_variable():
    rows = duality_matrix(2, 0, 1, K2, 0, 1)
    assert gram_is_invertible(rows, domain=F2)
    rows2 = duality_matrix(2, 0, 1, K2, 1, 0)
    assert gram_is_invertible(rows2, domain=F2)


def test_duality_two_variables_small():
    KD_ = KD
    for i in range(3):
        rows = duality_matrix(2, 1, 1, KD_, i, 2 - i)
        assert gram_is_invertible(rows, domain=F2, precision=KD_.precision)


def test_gram_elimination_rules():
    """One decision for series and raw-scalar entries, one entry per row in
    distinct columns; an entry that is zero only within a window, a raw
    matrix without its domain, a row with two entries and two rows in one
    column are refused."""
    def s(text):
        return parse_series(text, K3)

    assert gram_is_invertible([{1: s("t")}, {0: s("1 + t")}], precision=K3.precision)
    assert not gram_is_invertible([{1: s("t")}, {0: s("0")}], precision=K3.precision)
    assert gram_is_invertible([{1: 2}, {0: 1}], domain=F3)
    assert not gram_is_invertible([{0: 0}, {1: 1}], domain=F3)
    with pytest.raises(PrecisionExhausted, match="pivot is zero within its window") as err:
        gram_is_invertible([{0: s("t^2").truncate(1)}, {1: s("1")}])
    assert err.value.exponent == 1  # the entry's ceiling
    with pytest.raises(TowerMismatch, match="need their domain"):
        gram_is_invertible([{0: 1}])
    for rows in (
        [{0: s("t"), 1: s("1")}, {0: s("1"), 1: s("0")}],
        [{0: 1, 1: 2}, {0: 1, 1: 1}],
        [{0: 1}, {1: 0, 0: 1}],
    ):
        with pytest.raises(InconsistentValue, match="more than one entry"):
            gram_is_invertible(rows, domain=F3)
    with pytest.raises(InconsistentValue, match="two Gram rows hold column 0"):
        gram_is_invertible([{0: 1}, {0: 2}], domain=F3)
    with pytest.raises(InconsistentValue, match="two Gram rows hold column 1"):
        gram_is_invertible([{1: s("t")}, {1: s("0")}])


def test_gram_entry_zero_within_an_inner_window_is_not_dropped():
    """A top-exact entry whose coefficient is zero only within an inner
    window is unknown: it is not dropped as an exact zero (which would make
    the matrix singular) but refused as a pivot."""
    entry = NestedSeries(2, F2, {-2: NestedSeries.zero(1, F2, 3)})
    with pytest.raises(PrecisionExhausted, match="pivot is zero within its window") as err:
        gram_is_invertible([{0: entry}])
    assert err.value.exponent == -2  # the top exponent of the unknown coefficient


def test_gram_columns_outside_the_matrix_and_empty_rows():
    """A column outside ``range(len(rows))`` makes the matrix singular, as
    a wrong-length dense row did, and so does an empty row; a matrix with
    no stored entry is singular without a domain, and the empty matrix is
    invertible.  A row with two entries is refused even beside a column
    outside the matrix."""
    assert not gram_is_invertible([{0: 1}, {2: 1}], domain=F3)
    assert not gram_is_invertible([{0: 1}, {-1: 1}], domain=F3)
    assert not gram_is_invertible([{0: 1}, {}], domain=F3)
    assert not gram_is_invertible([{}, {}])
    assert gram_is_invertible([])
    with pytest.raises(InconsistentValue, match="more than one entry"):
        gram_is_invertible([{2: 1}, {-1: 1, 1: 1}], domain=F3)


def to_dense(rows, zero):
    """Sparse ``{column: entry}`` rows as a square list of lists."""
    return [[row.get(c, zero) for c in range(len(rows))] for row in rows]


def zero_of(K):
    """The exact zero of the residue ring: Gram entries of a ``K.d`` tower."""
    return NestedSeries.zero(K.d - 1, K.field_domain) if K.d > 1 else K.field_domain.zero()


def dense_gram_oracle(rows, domain=None, precision=None):
    """The dense Gaussian elimination: for each column, swap in the first
    remaining row whose entry is nonzero and clear the column below it."""
    size = len(rows)
    if size == 0:
        return True
    if any(len(r) != size for r in rows):
        return False
    if isinstance(rows[0][0], NestedSeries):
        def is_zero(v):
            if v.is_zero() and v.ceiling is not None:
                raise PrecisionExhausted("pivot is zero within its window; rank is ambiguous")
            return v.is_zero()

        def inv(v):
            return v.inv(precision)

        mul, sub = operator.mul, operator.sub
    else:
        is_zero, inv, mul, sub = domain.is_zero, domain.inv, domain.mul, domain.sub

    work = [list(r) for r in rows]
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if not is_zero(work[r][col])), None)
        if pivot_row is None:
            return False
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot_inv = inv(work[col][col])
        for r in range(col + 1, size):
            factor = work[r][col]
            if is_zero(factor):
                continue
            quot = mul(factor, pivot_inv)
            for c in range(col, size):
                work[r][c] = sub(work[r][c], mul(work[col][c], quot))
    return True


def random_gram(rng, size, shape, entry):
    """Sparse rows of a square matrix of the given zero pattern; ``entry()``
    draws a nonzero entry.  ``monomial`` is a permutation pattern and
    ``partial`` one with some rows emptied (singular); ``repeated`` moves a
    row into another row's column, and ``banded`` and ``dense`` hold several
    entries per row, the shapes :func:`gram_is_invertible` refuses."""
    if shape in ("monomial", "partial", "repeated"):
        perm = rng.sample(range(size), size)
        rows = [{perm[r]: entry()} for r in range(size)]
        if shape == "partial":
            for r in rng.sample(range(size), rng.randint(1, size)):
                rows[r] = {}
        elif shape == "repeated" and size > 1:
            src, dst = rng.sample(range(size), 2)
            rows[dst] = {next(iter(rows[src])): entry()}
    elif shape == "banded":
        width = rng.randint(0, 2)
        rows = [
            {c: entry() for c in range(size) if abs(r - c) <= width and rng.random() < 0.8}
            for r in range(size)
        ]
    else:
        rows = [{c: entry() for c in range(size) if rng.random() < 0.7} for _ in range(size)]
    return rows


def monomial_shape(rows):
    """Whether every row holds at most one entry and no two rows hold one
    column of the matrix: the shape :func:`gram_is_invertible` decides."""
    held = [c for row in rows for c in row if c in range(len(rows))]
    return all(len(row) <= 1 for row in rows) and len(held) == len(set(held))


def graded(rng, raw, K):
    """``c_ij T^(r_i + s_j)`` for the sparse scalar matrix ``c``: every
    quotient in the elimination is then a monomial, so the arithmetic stays
    exact and the matrix is invertible exactly when ``c`` is."""
    dom = K.field_domain
    shifts = [[tuple(rng.randint(-3, 3) for _ in range(K.d)) for _ in raw] for _ in "rs"]
    return [
        {c: NestedSeries.from_monomials(
            K.d, dom, [(tuple(x + y for x, y in zip(shifts[0][r], shifts[1][c])), v)])
         for c, v in row.items()}
        for r, row in enumerate(raw)
    ]


def gram_outcome(fn, rows, **kw):
    try:
        return fn(rows, **kw)
    except PrecisionExhausted:
        return "exhausted"


GRAM_TOWERS = (
    K2, K3, K4,
    FieldTower(2, 1, 1, ("u", "t")),
    FieldTower(3, 1, 1, ("u", "t")),
)


@pytest.mark.parametrize("seed", range(4))
def test_sparse_gram_matches_dense_oracle(seed):
    """Seeded property: on random square matrices of sizes 1..10 with one
    entry per row (permutation and partial patterns) over F_2, F_3, F_4 as
    raw scalars, and over exact one- and two-variable series, the decision
    agrees with the dense oracle; every matrix with a repeated column or
    several entries in a row (repeated, banded and dense patterns) is
    refused with :class:`InconsistentValue`.

    On graded series (see :func:`graded`) both stay exact and must agree.
    On general series the two pivot orders may meet a zero-within-window
    entry at different steps, so there one side may raise
    :class:`PrecisionExhausted`; the two never return different answers.
    """
    rng = random.Random(seed)
    answered, refused = 0, 0
    for _ in range(30):
        K = rng.choice(GRAM_TOWERS)
        dom = K.field_domain
        zero = NestedSeries.zero(K.d, dom)
        shape = rng.choice(("repeated", "banded", "dense"))
        size = rng.randint(2, 10)
        raw = random_gram(rng, size, shape, lambda: dom.random_nonzero(rng))
        if not monomial_shape(raw):
            refused += 1
            for rows, kw in ((raw, {"domain": dom}), (graded(rng, raw, K), {})):
                with pytest.raises(InconsistentValue):
                    gram_is_invertible(rows, **kw)

        shape = rng.choice(("monomial", "partial"))
        size = rng.randint(1, 10)
        raw = random_gram(rng, size, shape, lambda: dom.random_nonzero(rng))
        want = dense_gram_oracle(to_dense(raw, dom.zero()), domain=dom)
        assert gram_is_invertible(raw, domain=dom) == want == (shape == "monomial"), raw
        series = graded(rng, raw, K)
        assert gram_is_invertible(series, precision=K.precision) == want
        assert dense_gram_oracle(to_dense(series, zero), precision=K.precision) == want

        size = min(size, 8 if K.d == 1 else 3)
        rows = random_gram(
            rng, size, shape, lambda: random_series(rng, K.d, dom, lo=-2, hi=2, terms=2)
        )
        kw = {"precision": 16}
        got = gram_outcome(gram_is_invertible, rows, **kw)
        oracle = gram_outcome(dense_gram_oracle, to_dense(rows, zero), **kw)
        if "exhausted" not in (got, oracle):
            assert got == oracle, (shape, rows)
            answered += 1
    assert answered >= 15 and refused >= 15, (answered, refused)


def gram_by_elimination(rows, domain=None, precision=None):
    """The sparse elimination with holder sets, for any matrix: the oracle
    of the column-by-column decision in :func:`gram_is_invertible`.  Each
    pivot is checked (one zero within its window raises), and inverted
    only when another remaining row holds its column or, over a lift ring,
    always."""
    size = len(rows)
    if size == 0:
        return True
    first = next((v for row in rows for v in row.values()), None)
    if first is None:
        return False
    if isinstance(first, NestedSeries):
        ring, exact_zero = first.domain, NestedSeries.is_exact_zero

        def known(v):
            if v.is_zero():
                raise PrecisionExhausted(
                    "pivot is zero within its window; rank is ambiguous", exponent=v.low()
                )
            return v

        def inv(v):
            return v.inv(precision)

        mul, sub, neg = operator.mul, operator.sub, operator.neg
    elif domain is None:
        raise TowerMismatch("raw-scalar matrices need their domain")
    else:
        ring, exact_zero = domain, domain.is_zero
        inv, mul, sub, neg = domain.inv, domain.mul, domain.sub, domain.neg

        def known(v):
            return v

    over_field = getattr(ring, "s", 1) == 1
    work, holders = [], [set() for _ in range(size)]
    for r, row in enumerate(rows):
        kept = {}
        for c, v in row.items():
            if c not in range(size):
                return False
            if not exact_zero(v):
                kept[c] = v
                holders[c].add(r)
        work.append(kept)
    for col in range(size):
        if not holders[col]:
            return False
        pivot_row = min(holders[col])
        pivot = work[pivot_row]
        for c in pivot:
            holders[c].discard(pivot_row)
        pivot_entry = known(pivot[col])
        if over_field and not holders[col]:
            continue
        pivot_inv = inv(pivot_entry)
        for r in holders[col]:
            row = work[r]
            quot = mul(known(row.pop(col)), pivot_inv)
            for c, v in pivot.items():
                if c == col:
                    continue
                term = mul(v, quot)
                new = sub(row[c], term) if c in row else neg(term)
                if exact_zero(new):
                    row.pop(c, None)
                    holders[c].discard(r)
                else:
                    row[c] = new
                    holders[c].add(r)
    return True


def test_monomial_grams_are_decided_as_the_elimination_decides():
    """Seeded property: matrices with one stored entry per row, in distinct
    columns, are decided as the full elimination decides them, answers and
    refusals (type, message, exponent): raw scalars over F_3, F_4 and Z/4
    and series at levels 1 and 2 over F_2, F_3 and Z/4, as permutations and
    with empty rows, out-of-range columns, exact zeros, entries zero within
    a window and lift-ring non-units.  A row moved into another row's
    column, or given a second entry, is refused with
    :class:`InconsistentValue`."""
    rng = random.Random(2604)
    z4 = galois_ring_domain(2, 1, 2)
    seen = Counter()
    for _ in range(1500):
        domain = rng.choice((F2, F3, F4, z4))
        level = rng.choice((0, 1, 2)) if domain is not F2 else rng.choice((1, 2))
        size = rng.randint(1, 8)

        def entry():
            c = domain.random_nonzero(rng)
            if domain is z4 and rng.random() < 0.2:
                c = 2  # a non-unit
            if level == 0:
                return c
            kind = rng.random()
            if kind < 0.05:
                return NestedSeries.zero(level, domain, rng.randint(-2, 3))
            if kind < 0.1 and level == 2:
                return NestedSeries(2, domain, {rng.randint(-2, 2): NestedSeries.zero(1, domain, 1)})
            return mono(level, domain, [rng.randint(-2, 2) for _ in range(level)], c)

        perm = rng.sample(range(size), size)
        rows = [{perm[r]: entry()} for r in range(size)]
        for _ in range(rng.choice((0, 0, 1, 2))):
            r = rng.randrange(size)
            change = rng.choice(("duplicate", "outside", "zero", "second", "empty"))
            c, v = next(iter(rows[r].items()), (rng.randrange(size), None))
            v = entry() if v is None else v
            if change == "duplicate":
                rows[r] = {rng.randrange(size): v}
            elif change == "outside":
                rows[r] = {rng.choice((-1, size, size + 2)): v}
            elif change == "zero":
                rows[r] = {c: domain.zero() if level == 0 else NestedSeries.zero(level, domain)}
            elif change == "empty":
                rows[r] = {}
            else:
                rows[r] = {c: v, rng.randrange(size): entry()}
        kw = {"domain": domain} if level == 0 else {"precision": 8}
        got = outcome(lambda: gram_is_invertible(rows, **kw))
        if monomial_shape(rows):
            assert got == outcome(lambda: gram_by_elimination(rows, **kw)), rows
        else:
            assert got[0] == "InconsistentValue", rows
        seen[got if isinstance(got, bool) else got[0]] += 1
    kinds = (True, False, "PrecisionExhausted", "ZeroInput", "InconsistentValue")
    assert min(seen[k] for k in kinds) > 50, seen


def dense_duality_oracle(n, m, b, K, i, j):
    """The N^2 builder: r_b(x ^ y) evaluated on every pair of basis forms."""
    level = K.d
    xs = window_basis(level, K.field_domain, j, n, m, b)
    ys = window_basis(level, K.field_domain, i, -m - 1, -n - 1, b)
    res_key = tuple(range(1, level))
    rows = []
    for x in xs:
        row = []
        for y in ys:
            val = r_b(wedge_windowed(x, y), b)
            row.append(val.coefficient(res_key) if isinstance(val, LogForm) else val)
        rows.append(row)
    return rows


def test_duality_matrix_pairs_once_per_class(monkeypatch):
    """``r_b`` and ``wedge_windowed`` run once per ``(dlog key, residue
    monomial)`` class: ``len(rows) / (n - m)`` times per split, on the
    workload windows (p = 2 and 3, d = 2), at d = 1 and on the d = 3 tower."""
    calls = {"r_b": 0, "wedge_windowed": 0}

    def counted(name):
        inner = getattr(logdiff, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(logdiff, name, counted(name))
    windows = [
        (KD if p == 2 else KD3, m + width, m, minimal_b(p, width))
        for p, widths in ((2, range(1, 7)), (3, range(1, 6)))
        for width in widths
        for m in range(4)
    ]
    windows += [
        (FieldTower(p, 1, 1, ("t",)), width, 0, minimal_b(p, width))
        for p in (2, 3) for width in range(1, 5)
    ]
    K3D = FieldTower(2, 1, 1, ("v", "u", "t"))
    windows += [(K3D, width + 1, 1, minimal_b(2, width)) for width in (1, 2)]
    for K, n, m, b in windows:
        for i in range(K.d + 1):
            calls.update(r_b=0, wedge_windowed=0)
            rows = duality_matrix(n, m, b, K, i, K.d - i)
            classes, rest = divmod(len(rows), n - m)
            assert rest == 0
            assert calls == {"r_b": classes, "wedge_windowed": classes}


def assert_partner_matched(K, n, m, b):
    """Every split equals the N^2 oracle and is a monomial matrix: one
    stored nonzero entry per row, in distinct columns."""
    dom = K.field_domain
    for i in range(K.d + 1):
        rows = duality_matrix(n, m, b, K, i, K.d - i)
        assert to_dense(rows, zero_of(K)) == dense_duality_oracle(n, m, b, K, i, K.d - i)
        assert all(len(row) == 1 for row in rows)
        assert not any(v.is_zero() if isinstance(v, NestedSeries) else dom.is_zero(v)
                       for row in rows for v in row.values())
        assert len({c for row in rows for c in row}) == len(rows)


# The windows of perfbench's duality workload: widths per prime, m = 0..3.
@pytest.mark.parametrize(
    "p, width", [(2, a) for a in range(1, 7)] + [(3, a) for a in range(1, 6)]
)
def test_duality_matrix_matches_dense_oracle_on_workload_windows(p, width):
    K = KD if p == 2 else KD3
    for m in range(4):
        assert_partner_matched(K, m + width, m, minimal_b(p, width))


def test_duality_matrix_matches_dense_oracle_off_the_workload():
    for p in (2, 3, 5):
        K = FieldTower(p, 1, 1, ("t",))
        for width in range(1, 6):
            for m in (-2, 0, 1):
                assert_partner_matched(K, m + width, m, minimal_b(p, width))
    K4D = FieldTower(2, 2, 1, ("u", "t"))  # F_4((u))((t))
    for width in (1, 2, 3):
        assert_partner_matched(K4D, width + 1, 1, minimal_b(2, width))
    K3D = FieldTower(2, 1, 1, ("v", "u", "t"))  # F_2((v))((u))((t))
    assert_partner_matched(K3D, 2, 0, 1)
    # b above the minimal one: p^b = 4 and 9 for width 2
    assert_partner_matched(KD, 2, 0, 2)
    assert_partner_matched(KD3, 3, 1, 2)


def test_duality_matrix_matches_dense_oracle_where_positions_matter():
    """The cases the row and column arithmetic of ``duality_matrix`` turns
    on: tuple entries with ``P = 3^b`` residue monomials (F_9((u))((t))),
    three keys per split with ``b`` above the minimal one (``P = 16``), and
    d = 2 windows with ``m < 0``, whose top exponents reach 0 and above."""
    K9D = FieldTower(3, 2, 1, ("u", "t"))  # F_9((u))((t))
    for width in (1, 2, 3):
        for m in (0, 1, 2):
            assert_partner_matched(K9D, m + width, m, minimal_b(3, width))
    K3D = FieldTower(2, 1, 1, ("v", "u", "t"))  # F_2((v))((u))((t))
    assert_partner_matched(K3D, 2, 0, 2)
    for K in (KD, KD3):
        for width in (1, 2, 3):
            for m in (-3, -2, -1):
                assert_partner_matched(K, m + width, m, minimal_b(K.p, width))


def closed_form_gram(n, m, b, K, i, j):
    """The Gram matrix from the closed form of its entries: the row of
    ``x = T^alpha t^e dlog_K`` holds ``sgn(K, K') T^delta`` in the column of
    ``y = T^beta t^-e dlog_K'``, with ``K'`` the complement of ``K``,
    ``beta_l = -alpha_l mod p^b``, ``sgn`` the parity of sorting ``K``
    followed by ``K'`` and ``delta_l = 1`` exactly when ``alpha_l != 0``
    (``(alpha_l + beta_l) / p^b``, after ``C^b`` roots the coefficient 1);
    a raw +-1 when the tower has one variable.  Rows and columns follow
    :func:`window_basis` order."""
    d, dom = K.d, K.field_domain
    pb = K.p**b

    def basis(degree, hi, lo):
        return [(key, lower, top) for key in combinations(range(1, d + 1), degree)
                for top in range(-hi, -lo) for lower in product(range(pb), repeat=d - 1)]

    column = {monomial: c for c, monomial in enumerate(basis(i, -m - 1, -n - 1))}
    rows = []
    for key, alpha, e in basis(j, n, m):
        partner = tuple(v for v in range(1, d + 1) if v not in key)
        sign = dom.from_int((-1) ** sum(x > y for x in key for y in partner))
        delta = tuple(1 if a else 0 for a in alpha)
        entry = sign if d == 1 else NestedSeries.from_monomials(d - 1, dom, [(delta, sign)])
        rows.append({column[partner, tuple(-a % pb for a in alpha), -e]: entry})
    return rows


def test_duality_matrix_matches_the_closed_form():
    """Every split of 368 cells equals :func:`closed_form_gram`: p = 2, 3,
    5; k = 1, 2; d = 1-3 (no d = 3 at p = 5); widths 1-4; m = 0, 1; the
    minimal ``b``."""
    cells = 0
    for p in (2, 3, 5):
        for k in (1, 2):
            for d in (1, 2, 3) if p < 5 else (1, 2):
                K = FieldTower(p, k, 1, ("v", "u", "t")[3 - d:])
                for width in range(1, 5):
                    b = minimal_b(p, width)
                    for m in (0, 1):
                        for i in range(d + 1):
                            want = closed_form_gram(m + width, m, b, K, i, d - i)
                            assert duality_matrix(m + width, m, b, K, i, d - i) == want
                            cells += 1
    assert cells == 368


def test_duality_wider_windows_are_invertible():
    """p = 5 over F_5((u))((t)), and a d = 3 tower F_2((v))((u))((t))."""
    towers = [
        (FieldTower(5, 1, 1, ("u", "t")), range(1, 6)),
        (FieldTower(2, 1, 1, ("v", "u", "t")), range(1, 3)),
    ]
    for K, widths in towers:
        for width in widths:
            for m in (0, 2):
                b = minimal_b(K.p, width)
                for i in range(K.d + 1):
                    rows = duality_matrix(m + width, m, b, K, i, K.d - i)
                    assert len(rows) == comb(K.d, i) * width * K.p ** (b * (K.d - 1))
                    assert gram_is_invertible(rows, domain=K.field_domain, precision=K.precision)


def test_duality_rejects_wrong_degrees():
    with pytest.raises(DegreeMismatch):
        duality_matrix(2, 1, 1, KD, 1, 2)


def test_singular_matrix_detected():
    """A column that no row holds or whose entry is an exact zero makes the
    matrix singular; a repeated column is refused."""
    one = NestedSeries.one(1, F2)
    assert not gram_is_invertible([{0: one}, {}])
    with pytest.raises(InconsistentValue):
        gram_is_invertible([{0: one}, {0: one}])
    zero_entry = [{0: F2.zero()}, {1: F2.one()}]
    assert not gram_is_invertible(zero_entry, domain=F2)


def counted_inverses(monkeypatch, domain_class=None):
    """Record the entries the Gram decision inverts: through series ``inv``,
    or, as ``(domain, entry)``, through a raw domain's ``inv`` when its
    class is given."""
    calls = []
    owner = domain_class or NestedSeries
    inner = owner.inv

    def counting(self, *args):
        calls.append((self, args[0]) if domain_class else self)
        return inner(self, *args)

    monkeypatch.setattr(owner, "inv", counting)
    return calls


def test_partner_matched_workload_grams_take_no_inverse(monkeypatch):
    """On the windows of the benchmark's duality workload every split's Gram
    is decided invertible without inverting a single entry: over a field a
    nonzero entry is a unit."""
    grams = [
        (K, duality_matrix(m + width, m, minimal_b(K.p, width), K, i, K.d - i))
        for K, widths in ((KD, range(1, 7)), (KD3, range(1, 6)))
        for width in widths
        for m in range(4)
        for i in range(K.d + 1)
    ]
    calls = counted_inverses(monkeypatch)
    for K, rows in grams:
        assert gram_is_invertible(rows, domain=K.field_domain, precision=K.precision)
    assert len(grams) == 132 and calls == []


def test_gram_entries_are_inverted_only_over_a_lift_ring(monkeypatch):
    """Over a field no entry is inverted, only checked: a window-zero one
    still raises.  Over Z/4 each entry is inverted once, in column order,
    as series and as raw scalars."""
    one, t = NestedSeries.one(1, F2), mono(1, F2, (1,))
    calls = counted_inverses(monkeypatch)
    assert gram_is_invertible([{1: t}, {0: one}], precision=8)
    assert calls == []
    with pytest.raises(PrecisionExhausted, match="pivot is zero within its window"):
        gram_is_invertible([{0: one}, {1: NestedSeries.zero(1, F2, 3)}])
    assert calls == []
    z4 = galois_ring_domain(2, 1, 2)
    one4, t4 = NestedSeries.one(1, z4), mono(1, z4, (1,), 3)
    assert gram_is_invertible([{1: t4}, {0: one4}], precision=8)
    assert calls == [one4, t4]
    raw_calls = counted_inverses(monkeypatch, type(F3))
    assert gram_is_invertible([{1: 2}, {0: 1}], domain=F3)
    assert raw_calls == []
    assert gram_is_invertible([{1: 3}, {0: 1}, {2: 3}], domain=z4)
    assert [x for dom, x in raw_calls if dom is z4] == [1, 3, 3]


def test_every_pivot_over_a_lift_ring_is_inverted():
    """Over Z/4 a nonzero entry need not be a unit: the lone pivot 2 is
    still inverted, which refuses it."""
    z4 = galois_ring_domain(2, 1, 2)
    with pytest.raises(ZeroInput):
        gram_is_invertible([{0: 2}], domain=z4)
    assert gram_is_invertible([{0: 3}], domain=z4)
