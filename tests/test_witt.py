"""Witt vectors of series, coboundary reduction, and the conductor.

Oracles used here:
  * length-2 addition is recomputed from the closed-form textbook law
    S_1 = x_1 + y_1 - sum_i (1/p) C(p,i) x_0^i y_0^{p-i} (standard order);
  * reduction steps are replayed by hand on frozen examples;
  * the conductor's class invariance is certified by perturbing vectors
    with explicit coboundaries (phi - 1)E;
  * one-variable conductors are recomputed by local class field theory from
    symbol values, a path that runs neither ``asw_reduce`` nor
    ``witt_combine`` (``swan_oracle``);
  * the one-sweep slot reduction is compared against the rescan loop it
    replaced (``rescan_reduce_slot_oracle``);
  * each ghost index's one linear combination is compared against the
    ghost recursion run one series addition at a time
    (``uncombined_witt_oracle``);
  * a windowed reduction and conductor are compared, inside the result's
    window, with those of random exact completions of the input
    (``completions``).
"""

import functools
import random
from collections import Counter
from math import comb

import pytest

from rswan import _kernels, witt
import rswan.series
from rswan.errors import (
    ExponentOutOfRange,
    InconsistentValue,
    PrecisionExhausted,
    RswanError,
    TowerMismatch,
)
from rswan.extensions import ExtensionMap, conductor_change, pullback_series
from rswan.parser import parse_series
from rswan.ratfunc import rat_func_domain
from rswan.reciprocity import _symbol_value, theta_lift
from rswan.scalars import DEFINING_POLYNOMIALS, _QuotientDomain, fq_domain, galois_ring_domain
from rswan.series import NestedSeries
from rswan.tower import FieldTower
from rswan.witt import (
    Character,
    WittVector,
    asw_reduce,
    asw_reduce_components,
    swan_conductor,
    swan_of_components,
    witt_combine,
    witt_frobenius,
)
from test_ratfunc import random_nonzero_rat_func
from test_reciprocity import completed

K2s2 = FieldTower(2, 1, 2, ("t",))
K2s3 = FieldTower(2, 1, 3, ("t",))
K3s2 = FieldTower(3, 1, 2, ("t",))
K5s2 = FieldTower(5, 1, 2, ("t",))
K2 = FieldTower(2, 1, 1, ("t",))
K3 = FieldTower(3, 1, 1, ("t",))


def vec(tower, *printed):
    return WittVector.from_print_order(
        tower, [parse_series(text, tower) for text in printed]
    )


def random_vector(rng, tower, lo=-3, hi=3):
    domain = tower.field_domain
    comps = []
    for _ in range(tower.s):
        monos = []
        for _ in range(rng.randint(0, 3)):
            e = rng.randint(lo, hi)
            monos.append(((e,) * 0 + (e,), domain.random_nonzero(rng)))
        comps.append(NestedSeries.from_monomials(tower.d, domain, monos))
    return WittVector(tower, tuple(comps))


def w2_add_oracle(a, b, p):
    """Textbook closed form for length-2 addition, in standard print order."""
    x0, x1 = a
    y0, y1 = b
    s0 = x0 + y0
    s1 = x1 + y1
    for i in range(1, p):
        c = comb(p, i) // p
        s1 = s1 - (x0.pow(i) * y0.pow(p - i)).mul_int(c)
    return (s0, s1)


# ------------------------------------------------------------ textbook oracle

@pytest.mark.parametrize("tower", [K2s2, K3s2, K5s2])
def test_length_two_addition_matches_textbook_formula(tower):
    rng = random.Random(61)
    p = tower.p
    for _ in range(40):
        a = random_vector(rng, tower)
        b = random_vector(rng, tower)
        got = (a + b).print_order
        want = w2_add_oracle(a.print_order, b.print_order, p)
        assert got[0] == want[0]
        assert got[1] == want[1]


def test_frozen_length_two_sum():
    """(t^-1, 0) + (t^-1, 0) = (0, t^-2) over W_2(F_2((t)))."""
    a = vec(K2s2, "t^-1", "0")
    total = (a + a).print_order
    assert total[0].is_zero()
    assert total[1] == parse_series("t^-2", K2s2)


# ------------------------------------------------------------- group axioms

@pytest.mark.parametrize("tower", [K2s2, K2s3, K3s2])
def test_group_axioms_random(tower):
    rng = random.Random(67)
    zero = WittVector.zero(tower)
    for _ in range(25):
        a = random_vector(rng, tower)
        b = random_vector(rng, tower)
        c = random_vector(rng, tower)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + zero == a
        assert a + (-a) == zero
        assert a - b == a + (-b)


@pytest.mark.parametrize("tower", [K2s2, K2s3, K3s2])
def test_frobenius_verschiebung_give_multiplication_by_p(tower):
    rng = random.Random(71)
    p = tower.p
    zero = NestedSeries.zero(tower.d, tower.field_domain)

    def verschiebung(a):
        return WittVector(tower, a.comps[1:] + (zero,))

    for _ in range(25):
        a = random_vector(rng, tower)
        p_a = WittVector(tower, witt_combine([a.comps], [p], p))
        assert verschiebung(a).frobenius() == p_a
        assert verschiebung(a.frobenius()) == p_a


def test_frobenius_is_additive():
    rng = random.Random(73)
    for tower in (K2s2, K3s2):
        for _ in range(20):
            a = random_vector(rng, tower)
            b = random_vector(rng, tower)
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()


def test_multiplication_by_p_to_the_s_kills():
    rng = random.Random(79)
    for tower in (K2s2, K2s3, K3s2):
        p, s = tower.p, tower.s
        for _ in range(10):
            a = random_vector(rng, tower)
            killed = WittVector(tower, witt_combine([a.comps], [p**s], p))
            assert killed == WittVector.zero(tower)


def test_combine_linear_in_integers():
    rng = random.Random(83)
    tower = K3s2
    for _ in range(15):
        a = random_vector(rng, tower)
        b = random_vector(rng, tower)
        lhs = WittVector(tower, witt_combine([a.comps, b.comps], [2, 3], 3))
        rhs = a + a + b + b + b
        assert lhs == rhs


def test_mismatched_lengths_refused():
    a = vec(K2s2, "t^-1", "0")
    b = vec(K2, "t^-1")
    with pytest.raises(TowerMismatch):
        witt_combine([a.comps, b.comps], [1, 1], 2)


# ------------------------------------------------- double-length ghost oracle

class _DoubleLengthRing(_QuotientDomain):
    """``(Z/p^m)[g]/(f)`` for any ``m``, ``k <= 2``: the lift rings are capped at
    length 4, and the oracle below needs length ``2s``."""

    def __init__(self, p, k, m):
        assert k <= 2
        super().__init__(p, k, 1)
        self.s, self.modulus = m, p**m
        self.poly = tuple(c % self.modulus for c in DEFINING_POLYNOMIALS[(p, k)])
        self._red_rows = (tuple((-c) % self.modulus for c in self.poly[:k]),) if k == 2 else ()


def double_length_combine(comps_list, ints, p):
    """The ghost recursion over ``Z/p^(2s)``, where every ``z_n`` is accurate
    mod ``p^(2s-n)``: an independent check that length ``s`` loses nothing."""
    s = len(comps_list[0])
    domain, level = comps_list[0][0].domain, comps_list[0][0].level
    big = _DoubleLengthRing(p, domain.k, 2 * s)
    lifted = [[witt.lift_series(x, big) for x in reversed(comps)] for comps in comps_list]
    z = []
    for n in range(s):
        acc = NestedSeries.zero(level, big)
        for cj, lx in zip(ints, lifted):
            if cj % big.modulus == 0:
                continue
            for i in range(n + 1):
                acc = acc + lx[i].pow(p ** (n - i)).mul_int(cj * p**i)
        for i in range(n):
            acc = acc - z[i].pow(p ** (n - i)).mul_int(p**i)
        z.append(witt._divide_by_int(acc, p**n))
    return tuple(reversed([witt.reduce_series(zi, domain) for zi in z]))


def window_not_narrower(a, b):
    """Whether every window of ``a``, at every level, reaches at least as far
    as the matching window of ``b``."""
    if a.ceiling is not None and (b.ceiling is None or a.ceiling < b.ceiling):
        return False
    if a.level == 1:
        return True
    exact_zero = NestedSeries.zero(a.level - 1, a.domain)
    return all(
        window_not_narrower(c, b.coeffs.get(e, exact_zero))
        for e, c in a.coeffs.items()
        if b.ceiling is None or e < b.ceiling
    )


GHOST_CELLS = [
    (p, k, s, d)
    for p in (2, 3, 5) for k in (1, 2) for s in (2, 3, 4) for d in (1, 2)
    if p != 5 or s == 2
]


@pytest.mark.parametrize("p,k,s,d", GHOST_CELLS)
def test_combine_matches_double_length_oracle(p, k, s, d):
    """Seeded combinations of two or three vectors, half of them windowed:
    equal on the common window, and no result window narrower."""
    dom = fq_domain(p, k)
    rng = random.Random(f"ghost:{p}:{k}:{s}:{d}")
    for _ in range(8):
        ceiling = rng.choice((None, rng.randint(-1, 4)))
        vecs = [
            tuple(
                NestedSeries.from_monomials(d, dom, [
                    ((rng.randint(0, 1),) * (d - 1) + (rng.randint(-2, 2),), dom.random_nonzero(rng))
                    for _ in range(rng.randint(0, 2))
                ]).truncate(ceiling)
                for _ in range(s)
            )
            for _ in range(rng.randint(2, 3))
        ]
        ints = [rng.choice((-1, 1, rng.randint(-(p**s), p**s))) for _ in vecs]
        got = witt_combine(vecs, ints, p)
        want = double_length_combine(vecs, ints, p)
        for a, b in zip(got, want):
            assert a.agrees_with(b), (ints, str(a), str(b))
            assert window_not_narrower(a, b), (ints, str(a), str(b))


# ---------------------------------------------- one combination per ghost index

def _map_raw_oracle(x, fn, domain):
    """``fn`` on every raw scalar, through the checked constructor."""
    if x.level == 1:
        out = {e: fn(c) for e, c in x.coeffs.items()}
    else:
        out = {e: _map_raw_oracle(c, fn, domain) for e, c in x.coeffs.items()}
    return NestedSeries(x.level, domain, out, x.ceiling)


def _fold_ghost(xs, n, p, zero):
    acc = zero
    for i, x in enumerate(xs[: n + 1]):
        if not x.coeffs and x.ceiling is None:
            continue
        acc = acc + x.pow(p ** (n - i)).mul_int(p**i)
    return acc


def uncombined_witt_oracle(comps_list, ints, p):
    """``witt_combine`` with every ghost sum folded one series addition and
    one ``mul_int`` at a time, the lift through ``lift_from_field`` and the
    division through the domain's coefficient tuples."""
    s = len(comps_list[0])
    domain, level = comps_list[0][0].domain, comps_list[0][0].level
    if s == 1:
        acc = NestedSeries.zero(level, domain)
        for n, (comp,) in zip(ints, comps_list):
            acc = acc + comp.mul_int(n)
        return (acc,)
    lift = galois_ring_domain(p, domain.k, s)
    zero = NestedSeries.zero(level, lift)
    terms = [
        (cj, [_map_raw_oracle(x, lift.lift_from_field, lift) for x in reversed(comps)])
        for cj, comps in zip(ints, comps_list)
        if cj % lift.modulus
    ]
    z = []
    for n in range(s):
        acc = zero
        for cj, lx in terms:
            acc = acc + _fold_ghost(lx, n, p, zero).mul_int(cj)
        acc = acc - _fold_ghost(z, n, p, zero)

        def divide(c, q=p**n):
            assert all(x % q == 0 for x in lift.coeffs(c))
            quotient = tuple([x // q for x in lift.coeffs(c)])
            return quotient[0] if lift.k == 1 else quotient

        z.append(_map_raw_oracle(acc, divide, lift))
    return tuple(reversed([_map_raw_oracle(zi, lift.reduce_mod_p, domain) for zi in z]))


# The cells of perfbench's ``witt`` workload, (p, k, s, d).
WORKLOAD_CELLS = tuple(
    (p, k, s, d)
    for p in (2, 3, 5) for k in (1, 2) for s in (1, 2) for d in (1, 2)
    if (p, k, s, d) != (5, 2, 2, 2)
) + ((2, 1, 3, 1), (2, 2, 3, 1), (2, 1, 3, 2), (3, 1, 3, 1), (2, 1, 4, 1), (2, 2, 4, 1))


def workload_vector(rng, tower):
    """0..4 monomials per component, top exponents in -4..2, lower ones in
    -2..2: the shape the workload draws."""
    dom = tower.field_domain
    return WittVector(tower, tuple(
        NestedSeries.from_monomials(tower.d, dom, [
            (tuple(rng.randint(-2, 2) for _ in range(tower.d - 1)) + (rng.randint(-4, 2),),
             dom.random_nonzero(rng))
            for _ in range(rng.randint(0, 4))
        ])
        for _ in range(tower.s)
    ))


def assert_combinations_match_the_oracle(monkeypatch, vectors):
    """Sums, differences and negations of consecutive vectors ``a, b``, and
    every combination made by reducing ``a`` and its coboundary shift
    ``a + (F(b) - b)``, equal the oracle's."""
    p = vectors[0].tower.p
    made = []

    def recording(comps_list, ints, q):
        out = witt_combine(comps_list, ints, q)
        made.append((comps_list, ints, out))
        return out

    monkeypatch.setattr(witt, "witt_combine", recording)
    for a, b in zip(vectors, vectors[1:]):
        for comps_list, ints in (([a.comps, b.comps], [1, 1]), ([a.comps, b.comps], [1, -1]),
                                 ([a.comps], [-1])):
            assert witt_combine(comps_list, ints, p) == uncombined_witt_oracle(comps_list, ints, p)
        for v in (a, a + (b.frobenius() - b)):
            try:
                asw_reduce(v)
            except PrecisionExhausted:
                pass
    for comps_list, ints, out in made:
        assert out == uncombined_witt_oracle(comps_list, ints, p)
    monkeypatch.undo()
    return sum(ints == [1, -1, 1] for _, ints, _ in made)


@pytest.mark.parametrize("p,k,s,d", WORKLOAD_CELLS)
def test_combinations_match_the_uncombined_oracle(monkeypatch, p, k, s, d):
    tower = FieldTower(p, k, s, ("u", "t")[2 - d:])
    rng = random.Random(f"uncombined:{p}:{k}:{s}:{d}")
    reductions = assert_combinations_match_the_oracle(
        monkeypatch, [workload_vector(rng, tower) for _ in range(12)]
    )
    assert reductions or s == 1


def test_windowed_combinations_match_the_uncombined_oracle(monkeypatch):
    """Pulled-back vectors (windowed at the top) and two-variable vectors
    with inner windows, some of them zero within their window."""
    rng = random.Random("uncombined:windowed")
    reductions = 0
    for p, image in ((2, "u^3 + u^5 + u^6"), (3, "u^2 + 2*u^3"), (2, "u^6 + u^7")):
        source = FieldTower(p, 1, 2, ("t",))
        target = FieldTower(p, 1, 2, ("u",))
        ext = ExtensionMap(source, target, {"t": parse_series(image, target)})
        pulled = [
            WittVector(target, tuple(pullback_series(ext, c) for c in workload_vector(rng, source).comps))
            for _ in range(6)
        ]
        assert any(c.ceiling is not None for v in pulled for c in v.comps)
        reductions += assert_combinations_match_the_oracle(monkeypatch, pulled)
    tower = FieldTower(2, 1, 2, ("u", "t"))
    dom = tower.field_domain
    nested = []
    for _ in range(10):
        comps = []
        for _ in range(2):
            coeffs = {}
            for e in rng.sample(range(-4, 3), rng.randint(0, 3)):
                inner = {f: 1 for f in rng.sample(range(-2, 3), rng.randint(0, 2))}
                cut = rng.choice((None, rng.randint(-2, 3)))
                coeffs[e] = NestedSeries(1, dom, {f: c for f, c in inner.items()
                                                  if cut is None or f < cut}, cut)
            comps.append(NestedSeries(2, dom, coeffs, rng.choice((None, 4))))
        nested.append(WittVector(tower, tuple(comps)))
    assert_combinations_match_the_oracle(monkeypatch, nested)
    assert reductions


def edge_vector(rng, tower):
    """Every component holds a monomial with every inner exponent -2 and
    one with every inner exponent +2, plus 0..2 others: the last ghost
    power of each slot reaches the flat engine's digit bound at every
    inner level."""
    dom, d = tower.field_domain, tower.d
    comps = []
    for _ in range(tower.s):
        inner = [(-2,) * (d - 1), (2,) * (d - 1)]
        inner += [tuple(rng.randint(-2, 2) for _ in range(d - 1)) for _ in range(rng.randint(0, 2))]
        comps.append(NestedSeries.from_monomials(d, dom, [
            (exps + (rng.randint(-3, 2),), dom.random_nonzero(rng)) for exps in inner
        ]))
    return tuple(comps)


EDGE_CELLS = [(2, s, ("v", "u", "t")) for s in (2, 3, 4)] + [(3, s, ("u", "t")) for s in (2, 3)]


def edge_combinations():
    """Seeded two- and three-vector combinations over the edge cells."""
    for p, s, names in EDGE_CELLS:
        tower = FieldTower(p, 1, s, names)
        rng = random.Random(f"flat edge:{p}:{s}:{len(names)}")
        for _ in range(3):
            vecs = [edge_vector(rng, tower) for _ in range(rng.randint(2, 3))]
            yield vecs, [rng.choice((1, -1, 3, 5, -7)) for _ in vecs], p


def combine_or_error(combine, comps_list, ints, p):
    try:
        return combine(comps_list, ints, p)
    except RswanError as exc:
        return type(exc)


def test_the_flattening_bound_is_tight(monkeypatch):
    """At the digit bound ``B_l`` of every inner level the flat engine
    equals the series oracle; with radix ``2 B_l``, one too small, some
    combination comes out different, so this test has power."""
    cases = list(edge_combinations())
    for comps_list, ints, p in cases:
        assert witt_combine(comps_list, ints, p) == uncombined_witt_oracle(comps_list, ints, p)
    monkeypatch.setattr(witt, "_digit_radix", lambda bound: 2 * bound)
    differ = sum(
        combine_or_error(witt_combine, comps_list, ints, p)
        != uncombined_witt_oracle(comps_list, ints, p)
        for comps_list, ints, p in cases
    )
    assert differ


def test_the_flat_engine_refuses_what_the_series_path_refuses(monkeypatch):
    """With the exponent floor raised to -20, a combination refuses with
    ``ExponentOutOfRange`` exactly when the series oracle does: when some
    slot's last ghost power, ``p^(s-1-i)`` times its lowest exponent at
    some level, reaches below the floor."""
    monkeypatch.setattr(rswan.series, "_ORD_FLOOR", -20)
    rng = random.Random("flat floor")
    outcomes = set()
    for p, s, d in ((2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 2)):
        tower = FieldTower(p, 1, s, ("u", "t")[2 - d:])
        dom = tower.field_domain
        for _ in range(12):
            vecs = [
                tuple(
                    NestedSeries.from_monomials(d, dom, [
                        (tuple(rng.randint(-12, 2) for _ in range(d)), dom.random_nonzero(rng))
                        for _ in range(rng.randint(0, 2))
                    ])
                    for _ in range(s)
                )
                for _ in range(2)
            ]
            got = combine_or_error(witt_combine, vecs, [1, 1], p)
            assert got == combine_or_error(uncombined_witt_oracle, vecs, [1, 1], p)
            outcomes.add(got if isinstance(got, type) else tuple)
    assert outcomes == {ExponentOutOfRange, tuple}
    assert issubclass(ExponentOutOfRange, ValueError)


def test_the_flat_engine_checks_each_division(monkeypatch):
    """A dense ghost sum off by one at the lowest exponent of a ghost power
    is a sum that ``p`` does not divide: the packed kernel reports it, and
    the sum raises an internal error, not a wrong answer."""
    packed_ghost_sum = _kernels._packed_ghost_sum
    perturbed = []

    def off_by_one(domain, terms, q, mod):
        powered = [(x, e) for _, x, e in terms if e > 1 and x]
        if powered and not perturbed:
            x, e = powered[0]
            perturbed.append(e * min(x))
            terms = terms + [(1, {e * min(x): domain.one()}, 1)]
        return packed_ghost_sum(domain, terms, q, mod)

    monkeypatch.setattr(_kernels, "_packed_ghost_sum", off_by_one)
    with pytest.raises(RswanError, match="not divisible"):
        vec(K3s2, "t^-1", "t^-3") + vec(K3s2, "t^-2", "t^-1")
    assert perturbed


def test_a_component_zero_within_an_inner_window_keeps_its_window():
    """A top-exact component whose only coefficient is zero within its
    inner window is not an exact zero: the sum keeps that window."""
    tower = FieldTower(2, 1, 2, ("u", "t"))
    dom = tower.field_domain
    x = NestedSeries(2, dom, {-2: NestedSeries(1, dom, {}, 3)})
    v = WittVector(tower, (x, parse_series("t^-1", tower)))
    total = v + WittVector.zero(tower)
    assert total.comps[0] == x
    assert total == v
    assert total.comps == uncombined_witt_oracle([v.comps, WittVector.zero(tower).comps], [1, 1], 2)


def test_combination_errors_are_library_errors():
    with pytest.raises(InconsistentValue):
        witt_combine([], [], 2)
    with pytest.raises(TowerMismatch):
        vec(K2s2, "t^-1", "0") + 1


# ----------------------------------------------------------------- ordering

def test_weighted_order_examples():
    a = vec(K2s2, "t^-1", "t^-3")  # weights: a_1 at p^1, a_0 at p^0
    # internal comps = (a_0, a_1) = (t^-3, t^-1): min(1*(-3), 2*(-1)) = -3
    assert swan_of_components(a.comps, 2) == 3
    b = vec(K2s2, "t^-2", "t^-3")
    assert swan_of_components(b.comps, 2) == 4
    assert swan_of_components(WittVector.zero(K2s2).comps, 2) == 0


def test_weighted_order_window_guard():
    """A window tail below the stored order, or a vector zero within its
    windows, leaves the weighted order undetermined."""
    dom = K2s2.field_domain
    unknown = NestedSeries.zero(1, dom, ceiling=-5)
    known = parse_series("t^-3", K2s2)
    with pytest.raises(PrecisionExhausted):
        swan_of_components((known, unknown), 2)
    with pytest.raises(PrecisionExhausted) as info:
        swan_of_components((unknown, NestedSeries.zero(1, dom)), 2)
    assert info.value.exponent == -5


def test_swan_window_guard_names_the_weighted_bound():
    """A tail at or above min_i p^i * ceiling_i could carry a deeper pole
    than the stored t^-3: the refusal names that bound, 2 * -5."""
    dom = K2s2.field_domain
    unknown = NestedSeries.zero(1, dom, ceiling=-5)
    known = parse_series("t^-3", K2s2)
    with pytest.raises(PrecisionExhausted) as info:
        swan_of_components((known, unknown), 2)
    assert info.value.exponent == -10


# ---------------------------------------------------------------- reduction

def test_reduce_single_frobenius_power():
    """t^-2 = (t^-1)^2 over F_2: one step replaces it by t^-1."""
    chi = asw_reduce(vec(K2, "t^-2"))
    assert chi.reduced
    assert chi.vector.print_order[0] == parse_series("t^-1", K2)
    assert swan_conductor(chi) == 1


def test_reduce_two_steps_replayed_by_hand():
    """t^-4 + t^-3 -> t^-3 + t^-2 -> t^-3 + t^-1 over F_2."""
    chi = asw_reduce(vec(K2, "t^-4 + t^-3"))
    assert chi.vector.print_order[0] == parse_series("t^-3 + t^-1", K2)
    assert swan_conductor(chi) == 3


def test_reduce_keeps_prime_to_p_poles():
    chi = asw_reduce(vec(K3, "t^-4 + t^-1"))
    assert swan_conductor(chi) == 4
    assert chi.vector.print_order[0].coefficient(-4) == K3.field_domain.one()


def rescan_reduce_slot_oracle(x):
    """``witt._reduce_slot`` as a rescan: after each removal, scan the
    negative exponents again from the deepest and cancel the first
    removable term not cancelled yet by ``x <- x - u^p + u``.  A term is
    removable when its root is not exactly zero; once cancelled, its root
    is exactly zero, or zero within the window it had, and cancelling it
    again would change nothing."""
    total, cancelled = None, set()
    while True:
        for e in sorted(k for k in x.coeffs if k < 0 and k not in cancelled):
            term = NestedSeries(x.level, x.domain, {e: x.coeffs[e]})
            u = term.pth_root(skip_prime_to_p=True, skip_non_powers=True)
            if not u.is_exact_zero():
                break
        else:
            return x, total
        cancelled.add(e)
        x = x - u.frobenius() + u
        total = u if total is None else total + u


def _random_scalar(rng, domain, p):
    """A nonzero scalar; over F_p(x) a p-th power half of the time."""
    if isinstance(domain, _QuotientDomain):
        c = domain.random_nonzero(rng)
    else:
        c = random_nonzero_rat_func(domain, rng)
    return domain.pow(c, p) if rng.random() < 0.5 else c


def _random_slot(rng, level, domain, p, windowed, top=True):
    """Poles at multiples of p, p^2 and p^3 (chains of removals), some
    prime-to-p ones and a few non-negative terms; windows at every level
    when ``windowed``, the top one above 0 (the polar part covered)."""
    coeffs = {}
    for _ in range(rng.randint(1, 5)):
        e = rng.choice((-rng.randint(1, 3) * p ** rng.randint(1, 3), -rng.randint(1, 7),
                        rng.randint(0, 3)))
        if level == 1:
            coeffs[e] = _random_scalar(rng, domain, p)
        else:
            coeffs[e] = _random_slot(rng, level - 1, domain, p, windowed, top=False)
    ceiling = max(coeffs) + rng.randint(1, 3)
    if windowed:
        return NestedSeries(level, domain, coeffs, max(ceiling, 1) if top else ceiling)
    return NestedSeries(level, domain, coeffs)


@pytest.mark.parametrize("name,p,domain", [
    ("F_2", 2, fq_domain(2, 1)), ("F_3", 3, fq_domain(3, 1)), ("F_4", 2, fq_domain(2, 2)),
    ("F_5", 5, fq_domain(5, 1)), ("F_2(x)", 2, rat_func_domain(2)),
    ("F_3(x)", 3, rat_func_domain(3)),
])
def test_slot_sweep_matches_the_rescan_oracle(name, p, domain):
    """Equal ``(reduced, U)`` at levels 1 and 2, exact and windowed."""
    rng = random.Random(f"slot:{name}")
    moved = 0
    for level in (1, 2):
        for i in range(60):
            x = _random_slot(rng, level, domain, p, windowed=i % 2 == 1)
            got = witt._reduce_slot(x)
            assert got == rescan_reduce_slot_oracle(x)
            moved += got[1] is not None
    # a chain: each removal leaves a new removable pole one step up
    x = NestedSeries(1, domain, {-p**3: domain.one()})
    assert witt._reduce_slot(x) == rescan_reduce_slot_oracle(x)
    assert witt._reduce_slot(x)[0] == NestedSeries(1, domain, {-1: domain.one()})
    assert moved > 30


def test_reduce_is_idempotent():
    rng = random.Random(89)
    for tower in (K2, K3, K2s2, K3s2):
        for _ in range(20):
            a = random_vector(rng, tower)
            red = asw_reduce(Character(a))
            again = asw_reduce(Character(red.vector))
            assert red.vector == again.vector


def test_conductor_is_a_class_invariant():
    """Sw(reduce(v + (phi - 1)E)) = Sw(reduce(v)) for explicit coboundaries."""
    rng = random.Random(97)
    for tower in (K2, K2s2, K3s2):
        p = tower.p
        for _ in range(25):
            v = random_vector(rng, tower)
            e = random_vector(rng, tower)
            coboundary = e.frobenius() - e
            perturbed = v + coboundary
            assert swan_conductor(Character(perturbed)) == swan_conductor(Character(v))


def test_conductor_examples_at_depth():
    assert swan_conductor(vec(K2s2, "t^-1", "t^-3")) == 3
    assert swan_conductor(vec(K2s2, "t^-1", "0")) == 2
    assert swan_conductor(vec(K2s2, "0", "t^-1")) == 1
    assert swan_conductor(vec(K2s2, "t^-1", "t^-4")) == 2
    assert swan_conductor(vec(K3s2, "t^-2", "t^-1")) == 6


def test_teichmueller_conductors():
    t_inv = parse_series("t^-1", K2s2)
    zero = NestedSeries.zero(1, K2s2.field_domain)
    assert swan_conductor(WittVector.from_print_order(K2s2, (t_inv, zero))) == 2
    unit = parse_series("1 + t", K2s2)
    assert swan_conductor(WittVector.from_print_order(K2s2, (unit, zero))) == 0


def test_unramified_and_positive_order_vectors():
    assert swan_conductor(vec(K2, "t^2 + t^5")) == 0
    assert swan_conductor(WittVector.zero(K2s3)) == 0
    assert swan_conductor(vec(K2, "1")) == 0


def test_reduction_refuses_uncovered_polar_window():
    dom = K2.field_domain
    foggy = NestedSeries.zero(1, dom, ceiling=-2)
    with pytest.raises(PrecisionExhausted):
        asw_reduce_components((foggy,), 2)


def test_two_variable_reduction():
    KD = FieldTower(2, 1, 1, ("u", "t"))
    chi = asw_reduce(vec(KD, "u^2*t^-2"))
    assert chi.vector.print_order[0] == parse_series("u*t^-1", KD)
    assert swan_conductor(chi) == 1
    chi2 = asw_reduce(vec(KD, "u*t^-2"))
    assert chi2.vector.print_order[0] == parse_series("u*t^-2", KD)
    assert swan_conductor(chi2) == 2


def test_character_wrapper_tracks_reducedness():
    raw = Character(vec(K2, "t^-2"))
    assert not raw.reduced
    red = asw_reduce(raw)
    assert red.reduced
    assert asw_reduce(red) is red


# ------------------------------------------------- the reciprocity oracle

def swan_oracle(vector):
    """Sw by local class field theory (Serre, Local Fields, ch. XV), d = 1.

    Sw is the largest ``i >= 1`` with ``chi(1 + a*T^i) != 0`` for some ``a``
    in an F_p-basis of F_q, or 0 if there is none.  ``chi(y)`` is
    ``Res(theta(chi) dlog y~)`` on the *unreduced* vector, so neither
    ``asw_reduce`` nor ``witt_combine`` runs; ``i`` starts at the weighted
    pole depth, which bounds the conductor of any representative.
    """
    tower = vector.tower
    dom, p = tower.field_domain, tower.p
    theta = theta_lift(vector)
    depth = max([-(p**i) * c.ord() for i, c in enumerate(vector.comps) if c.coeffs] + [0])
    basis = [1] if tower.k == 1 else [tuple(int(j == b) for j in range(tower.k))
                                      for b in range(tower.k)]
    for i in range(depth, 0, -1):
        for a in basis:
            y = NestedSeries(1, dom, {0: dom.one(), i: a})
            if _symbol_value(theta, tower, [y]) % p**tower.s:
                return i
    return 0


ORACLE_CELLS = [
    (p, k, s)
    for k in (1, 2)
    for p, s in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2))
] + [(3, 1, 3)]


@pytest.mark.parametrize("p,k,s", ORACLE_CELLS)
def test_conductor_matches_reciprocity_oracle(p, k, s):
    """Seeded draws with poles down to -6, a third of them windowed.  The
    draws at (2,1,4), (2,2,3), (2,2,4) and (3,1,3) include vectors on which
    the former cross-slot greedy reduction raised "polar part worse"."""
    tower = FieldTower(p, k, s, ("t",))
    dom = tower.field_domain
    rng = random.Random(f"oracle:{p}:{k}:{s}")
    compared = 0
    for _ in range(20):
        ceiling = rng.choice((None, None, rng.randint(1, 6)))
        comps = tuple(
            NestedSeries.from_monomials(1, dom, [
                ((rng.randint(-6, 2),), dom.random_nonzero(rng))
                for _ in range(rng.randint(0, 3))
            ]).truncate(ceiling)
            for _ in range(s)
        )
        v = WittVector(tower, comps)
        try:
            want = swan_oracle(v)
            got = swan_conductor(v)
        except PrecisionExhausted:
            continue
        assert got == want, [str(c) for c in v.print_order]
        compared += 1
    assert compared >= 10


# ----------------------------------------- reductions the greedy scan refused

def test_roadmap_example_reduces_slot_by_slot():
    chi = asw_reduce(vec(K2s2, "t^-9 + t^-2 + t^-1", "t^-12 + t + t^2"))
    assert chi.vector == vec(K2s2, "t^-9", "t^-11 + t^-5 + t^-1 + t + t^2")
    assert swan_conductor(chi) == 18 == swan_oracle(vec(K2s2, "t^-9 + t^-2 + t^-1", "t^-12 + t + t^2"))


# ``chi`` literals of the witt-workload reproducers in perfbench/baseline.json
WITT_REPRODUCERS = [
    ((2, 1, 3, ("u", "t")),
     ("u^-1*t^-4 + u^2*t^-4 + u^2*t^-3 + u^-1*t^2", "t^-4", "u^-2*t^-1"), 16),
    ((2, 2, 4, ("t",)),
     ("(1 + g)*t^-4 + g*t^-2", "(1 + g)*t^-4 + (1 + g)*t + g*t^2", "t^-4 + t^-1", "0"), 15),
    ((2, 2, 4, ("t",)),
     ("g*t^-3 + (1 + g)*t^-2 + 1", "g*t^-3 + g*t^-1 + t", "(1 + g)*t^2", "0"), 24),
]


@pytest.mark.parametrize("cell,printed,sw", WITT_REPRODUCERS)
def test_witt_reproducers_have_pinned_conductors(cell, printed, sw):
    tower = FieldTower(*cell)
    v = vec(tower, *printed)
    assert swan_conductor(v) == sw
    if tower.d == 1:
        assert swan_oracle(v) == sw
    else:
        # no d = 2 oracle yet: the conductor must survive coboundary shifts
        for printed_e in (("u*t^-2", "t^-1", "0"), ("0", "u^-1*t^-1", "u^2*t^-3 + t")):
            e = vec(tower, *printed_e)
            assert swan_conductor(v + (e.frobenius() - e)) == sw


# The embed-workload reproducers: (p, chi over F_p((t)), t -> image in
# F_p((u)), (Sw source, Sw target) or None when the target runs out of
# precision, and whether the oracle's own windows decide the target).
EMBED_REPRODUCERS = [
    (2, ("t^-9 + t^-2 + t^-1", "t^-12 + t + t^2"), "u^3 + u^5 + u^6", (18, 54), True),
    (3, ("2*t^-11 + 2*t^-6 + 2*t^-2", "2*t^-7 + t^-5 + t^-1"), "u^6 + 2*u^7 + 2*u^8 + 2*u^9",
     None, False),
    (2, ("t^-10 + t^-8 + t^-1", "t^-11 + t^-2"), "u^6 + u^7", (10, 59), True),
]


@pytest.mark.parametrize("p,printed,image,sws,target_oracle", EMBED_REPRODUCERS)
def test_embed_reproducers_have_pinned_conductors(p, printed, image, sws, target_oracle):
    source = FieldTower(p, 1, 2, ("t",))
    target = FieldTower(p, 1, 2, ("u",))
    ext = ExtensionMap(source, target, {"t": parse_series(image, target)})
    v = vec(source, *printed)
    if sws is None:
        assert swan_conductor(v) == swan_oracle(v)
        with pytest.raises(PrecisionExhausted):
            conductor_change(ext, v)
        return
    report = conductor_change(ext, v)
    assert (report.sw_source, report.sw_target) == sws
    assert report.status == "PASS"
    assert swan_oracle(v) == sws[0]
    pulled = WittVector(target, tuple(pullback_series(ext, c) for c in v.comps))
    if target_oracle:
        assert swan_oracle(pulled) == sws[1]
    else:
        with pytest.raises(PrecisionExhausted):
            swan_oracle(pulled)


def test_windowed_repro_reduces_exactly():
    """Each slot's combination runs on the slots it moves, so the heavier
    slots' windows no longer narrow the tail below its polar part: at
    window 3 the vector reduces, with the conductor of its exact and
    window-12 forms, and its components agree with theirs on the common
    window."""
    K = FieldTower(2, 1, 4, ("t",))

    def reduced(window):
        series = [parse_series(c, K) for c in ("t^-1", "t", "t^-2", "0")]
        if window is not None:
            series = [c.truncate(window) for c in series]
        return asw_reduce(WittVector.from_print_order(K, series))

    exact, wide, narrow = reduced(None), reduced(12), reduced(3)
    assert [swan_conductor(chi) for chi in (exact, wide, narrow)] == [8, 8, 8]
    for other in (exact, wide):
        assert all(a.agrees_with(b) for a, b in zip(narrow.vector.comps, other.vector.comps))


def test_one_combination_per_slot_at_most(monkeypatch):
    calls = []

    def counting(comps_list, ints, p):
        calls.append(len(comps_list[0]))
        return witt_combine(comps_list, ints, p)

    monkeypatch.setattr(witt, "witt_combine", counting)
    rng = random.Random(61)
    for tower in (K2, K3, K2s2, K3s2, K2s3, FieldTower(2, 2, 4, ("t",))):
        for _ in range(15):
            calls.clear()
            asw_reduce(random_vector(rng, tower, lo=-8))
            assert len(calls) <= tower.s - 1
    calls.clear()
    dom = rat_func_domain(3)
    x = dom.variable()
    f = NestedSeries.from_monomials(1, dom, [((-9,), dom.pow(x, 3)), ((-6,), x), ((-3,), dom.one())])
    reduced = asw_reduce_components([f], 3)
    assert calls == []
    assert reduced[0] != f


# The s >= 3 cells (p, k, s, d) of the benchmark's witt workload.
TAIL_CELLS = (
    (2, 1, 3, 1), (2, 2, 3, 1), (2, 1, 3, 2), (3, 1, 3, 1), (2, 1, 4, 1), (2, 2, 4, 1),
)


@pytest.mark.parametrize("cell", TAIL_CELLS)
def test_slot_reduction_tail_combination_equals_the_full_one(cell):
    """For E nonzero only in internal slot i, ``a - F(E) + E`` is the
    combination of the length-(i + 1) tails followed by a's heavier slots
    (module docstring, "Reduction"), on exact inputs."""
    p, k, s, d = cell
    tower = FieldTower(p, k, s, ("u", "t")[2 - d:])
    dom = tower.field_domain
    rng = random.Random(f"tail:{cell}")

    def draw(terms):
        return NestedSeries.from_monomials(d, dom, [
            (tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (rng.randint(-6, 2),),
             dom.random_nonzero(rng))
            for _ in range(terms)
        ])

    zero = NestedSeries.zero(d, dom)
    for _ in range(4):
        a = tuple(draw(rng.randint(0, 3)) for _ in range(s))
        for i in range(1, s):
            total = draw(rng.randint(1, 2))
            full = tuple(total if j == i else zero for j in range(s))
            tail = full[:i + 1]
            want = witt_combine([a, witt_frobenius(full), full], [1, -1, 1], p)
            got = witt_combine([a[:i + 1], witt_frobenius(tail), tail], [1, -1, 1], p)
            assert got + a[i + 1:] == want


def test_internal_check_fires_when_the_reduced_slot_moves(monkeypatch):
    """The per-slot check is live.  The combination for internal slot i
    receives only the slots it moves, ``comps[:i + 1]`` (the finished,
    heavier slots never reach it), so the patch below disturbs its last
    slot, the one being reduced, and the slot-i agreement check fires."""
    received = []

    def disturbing(comps_list, ints, p):
        received.append(comps_list)
        out = witt_combine(comps_list, ints, p)
        return out[:-1] + (out[-1] + NestedSeries.constant(1, out[-1].domain, 1),)

    vector = vec(K2s3, "t^-1", "t^-4", "0")
    monkeypatch.setattr(witt, "witt_combine", disturbing)
    with pytest.raises(RswanError, match="internal error"):
        asw_reduce(vector)
    # x_0 = t^-1 needs no step; x_1 = t^-4 is internal slot 1, the first to move
    assert len(received) == 1
    assert [len(comps) for comps in received[0]] == [2, 2, 2]
    assert received[0][0] == vector.comps[:2]


def always_combine_reduce_oracle(comps, p, combine=witt_combine):
    """The reduction loop without the ceiling plan: every moved slot takes
    its combination first, and the check after it refuses."""
    witt._check_windows_cover_polar_part(comps)
    comps = tuple(comps)
    for i in reversed(range(len(comps))):
        reduced, total = witt._reduce_slot(comps[i])
        if i == 0 or total is None:
            comps = comps[:i] + (reduced,) + comps[i + 1:]
            continue
        zero = NestedSeries.zero(total.level, total.domain)
        e = (zero,) * i + (total,)
        moved = combine([comps[:i + 1], witt_frobenius(e), e], [1, -1, 1], p)
        if not moved[i].agrees_with(reduced):
            raise RswanError("a coboundary moved a slot unpredictably (internal error)")
        comps = moved + comps[i + 1:]
        witt._check_windows_cover_polar_part(comps)
    return comps


def reduce_outcome(reduce, comps, p):
    """The reduced components, or the refusal's (type, message, exponent)."""
    try:
        return reduce(comps, p)
    except RswanError as exc:
        return type(exc), str(exc), getattr(exc, "exponent", None)


def plan_sweep_slot(rng, level, dom, p, top=True):
    """0..3 top terms (0..2 at level 2), poles at multiples of p (and of
    p^2 for p < 5) among them, over inner series of 1..2 terms in
    ``[-2, 2]``; a window three times in five, the top one above 0 and
    reaching from just past the terms to past ``(1 - p) low``, where the
    plan stops refusing."""
    coeffs = {}
    for _ in range(rng.randint(0, 3 if level == 1 else 2) if top else rng.randint(1, 2)):
        if top:
            e = rng.choice((-rng.randint(1, 2) * p ** rng.randint(1, 2 if p < 5 else 1),
                            -rng.randint(1, 6), rng.randint(0, 3)))
        else:
            e = rng.randint(-2, 2)
        coeffs[e] = (dom.random_nonzero(rng) if level == 1
                     else plan_sweep_slot(rng, level - 1, dom, p, top=False))
    if rng.random() < 0.4:
        return NestedSeries(level, dom, coeffs)
    reach = (p - 1) * max(0, -min(coeffs, default=0)) + 2
    ceiling = max(coeffs, default=0) + 1 + rng.randint(0, reach if top else 3)
    return NestedSeries(level, dom, coeffs, max(ceiling, 1) if top else ceiling)


PLAN_CELLS = [(p, k, s, d) for p in (2, 3, 5) for k in (1, 2) for s in (2, 3, 4) for d in (1, 2)]


def counting_combinations(monkeypatch):
    """Patch ``witt.witt_combine`` to record the tail length of each
    combination the reduction runs; returns the record."""
    calls = []

    def counting(comps_list, ints, p):
        calls.append(len(comps_list[0]))
        return witt_combine(comps_list, ints, p)

    monkeypatch.setattr(witt, "witt_combine", counting)
    return calls


def test_the_ceiling_plan_matches_the_always_combine_oracle(monkeypatch):
    """Every outcome equals the oracle's, by ``==`` (ceilings included) or
    by the refusal's type, message and exponent.  On every combination the
    oracle runs, a refusal the plan decides is the one the check after the
    combination raises, and the plan decides none where the check passes.
    Planned refusals occur at every length, and the reduction then runs one
    combination fewer than the oracle.  The floor-edge cases combine and
    keep the combination's ExponentOutOfRange; over F_p(x) the plan raises
    the refusal the combination raises."""
    decided = {"refused": 0, "planned": 0}
    oracle_calls = []

    def checking(comps_list, ints, p):
        oracle_calls.append(len(comps_list[0]))
        out = witt_combine(comps_list, ints, p)
        plan = reduce_outcome(witt._refuse_if_planned, comps_list, p)
        check = reduce_outcome(lambda c, q: witt._check_windows_cover_polar_part(c), out, p)
        if check is None:
            assert plan is None
        else:
            decided["refused"] += 1
            if plan is not None:
                decided["planned"] += 1
                assert plan == check
        return out

    cases = []
    for p, k, s, d in PLAN_CELLS:
        rng = random.Random(f"plan:{p}:{k}:{s}:{d}")
        dom = fq_domain(p, k)
        for _ in range(12 if s < 4 else 6):
            cases.append((tuple(plan_sweep_slot(rng, d, dom, p) for _ in range(s)), p))
    dom2 = fq_domain(2, 1)
    at_floor = NestedSeries(1, dom2, {-5000: 1})
    below_floor = at_floor.shift(-2)
    edges = [
        ((NestedSeries.zero(1, dom2), NestedSeries(1, dom2, {-6000: 1}, 100)), 2),
        ((NestedSeries.zero(1, dom2), below_floor.truncate(3)), 2),
        ((NestedSeries.zero(2, dom2), NestedSeries(2, dom2, {-4: below_floor}, 3)), 2),
        ((NestedSeries.zero(2, dom2), NestedSeries(2, dom2, {-2: below_floor}, 1)), 2),
        ((NestedSeries.zero(1, dom2),) * 2 + (below_floor.truncate(3),), 2),
    ]
    calls = counting_combinations(monkeypatch)
    outcomes = []
    planned_at = set()
    for comps, p in cases + edges:
        oracle_calls.clear()
        want = reduce_outcome(
            lambda c, q: always_combine_reduce_oracle(c, q, checking), comps, p)
        calls.clear()
        got = reduce_outcome(asw_reduce_components, comps, p)
        assert got == want
        outcomes.append(got)
        assert len(calls) in (len(oracle_calls), len(oracle_calls) - 1)
        if len(calls) < len(oracle_calls):
            planned_at.add(len(comps))
    for got in outcomes[len(cases):]:
        assert got[0] is ExponentOutOfRange
    # at the floor itself the plan refuses, as the combination does
    for comps in ((NestedSeries.zero(1, dom2), NestedSeries(1, dom2, {-5000: 1}, 3)),
                  (NestedSeries.zero(2, dom2), NestedSeries(2, dom2, {-4: at_floor}, 3))):
        want = reduce_outcome(always_combine_reduce_oracle, comps, 2)
        assert want[0] is PrecisionExhausted
        calls.clear()
        assert reduce_outcome(asw_reduce_components, comps, 2) == want
        assert calls == []
    # over F_p(x) the plan raises the combination's refusal of the coefficients
    fx = rat_func_domain(3)
    comps = (NestedSeries(1, fx, {}, 1), NestedSeries(1, fx, {-9: fx.one()}, 2))
    want = reduce_outcome(always_combine_reduce_oracle, comps, 3)
    assert want[0] is TowerMismatch
    assert reduce_outcome(asw_reduce_components, comps, 3) == want
    assert planned_at == {2, 3, 4}
    assert decided["refused"] > 50 and decided["planned"] > decided["refused"] // 2
    assert any(isinstance(o, tuple) and o[0] is PrecisionExhausted for o in outcomes)


def test_a_planned_refusal_runs_no_combination(monkeypatch):
    """The first conductor change of the benchmark's embed workload (seed 0,
    cycle 0) that the plan refuses: over F_5 with s = 2, t -> u^3 + 2 u^4
    pulls the reduced character back to a target vector whose x_0 has the
    pole u^-24 and the window u^40, so the lighter slot's ceiling is
    4 * (-24) + 40 = -56.  The target reduction raises the refusal the
    combination's check raises, with no call to ``witt_combine``; so does a
    vector at the boundary ``K = 0``."""
    source = FieldTower(5, 1, 2, ("t",))
    target = FieldTower(5, 1, 2, ("u",))
    ext = ExtensionMap(source, target, {"t": parse_series("u^3 + 2*u^4", target)})
    char = asw_reduce(vec(source, "4*t^-8 + 2*t^-6", "3*t"))
    pulled = tuple(pullback_series(ext, c) for c in char.vector.comps)
    assert (min(pulled[1].coeffs), pulled[1].ceiling) == (-24, 40)
    want = reduce_outcome(always_combine_reduce_oracle, pulled, 5)
    assert want == (PrecisionExhausted, str(witt._uncovered_polar_part(0, -56)), -56)
    # at the boundary K = 0: x_0 = t^-4 + O(t^4) over F_2
    boundary = WittVector(K2s2, (NestedSeries.zero(1, K2s2.field_domain),
                                 parse_series("t^-4", K2s2).truncate(4)))
    at_zero = reduce_outcome(always_combine_reduce_oracle, boundary.comps, 2)
    assert at_zero == (PrecisionExhausted, str(witt._uncovered_polar_part(0, 0)), 0)
    calls = counting_combinations(monkeypatch)
    with pytest.raises(PrecisionExhausted) as refused:
        asw_reduce(WittVector(target, pulled))
    assert (type(refused.value), str(refused.value), refused.value.exponent) == want
    assert reduce_outcome(asw_reduce_components, boundary.comps, 2) == at_zero
    assert calls == []


def test_a_length_four_refusal_is_planned(monkeypatch):
    """The length-4 vector of ``bench/witt_combine.py`` over
    ``F_25((v))((t))``: x_0 has the pole t^-5 and the window t^16, so x_0's
    last ghost power x_0^(5^3) gives the lightest slot the ceiling
    (5^3 - 1) * (-5) + 16 = -604.  The reduction refuses there with no
    call to ``witt_combine``, as the oracle's combination does."""
    tower = FieldTower(5, 2, 4, ("v", "t"))
    dom = tower.field_domain
    exact = NestedSeries.from_monomials(
        2, dom, [((-25, -5), (1, 4)), ((-4, -5), (3, 3)), ((-2, -5), (1, 2))])
    zero = NestedSeries.zero(2, dom)
    vector = WittVector.from_print_order(
        tower, (NestedSeries(2, dom, dict(exact.coeffs), 16), zero, zero, zero))
    want = (PrecisionExhausted, str(witt._uncovered_polar_part(0, -604)), -604)
    calls = counting_combinations(monkeypatch)
    assert reduce_outcome(asw_reduce_components, vector.comps, 5) == want
    assert calls == []


def test_an_undercut_ceiling_is_left_to_the_combination(monkeypatch):
    """Over F_2((t)) with s = 3 and print order ``(t^-4, t^-1 + O(t),
    t^-4)``, the input terms alone give the lightest slot the ceiling
    ``(2 - 1) * (-1) + 1 = 0``, but ``z_1``'s power undercuts it: the
    combination refuses at -5.  The plan's interval does not decide that
    slot, so the reduction runs the combination and raises its refusal."""
    vector = vec(K2s3, "t^-4", "t^-1", "t^-4")
    comps = (vector.comps[0], vector.comps[1].truncate(1), vector.comps[2])
    want = reduce_outcome(always_combine_reduce_oracle, comps, 2)
    assert want == (PrecisionExhausted, str(witt._uncovered_polar_part(0, -5)), -5)
    calls = counting_combinations(monkeypatch)
    assert reduce_outcome(asw_reduce_components, comps, 2) == want
    assert calls == [3]


# ------------------------------------------------------ merged ghost terms

def unmerged_ghost_recursion(vectors, s, p, ghost_sum, merge):
    """The ghost recursion with every term summed as it comes: no equal
    terms merged (``merge`` is not consulted)."""
    z = []
    for n in range(s):
        terms = []
        for cj, xs in vectors:
            terms += [(cj * p**i, x, p ** (n - i)) for i, x in enumerate(xs[: n + 1])]
        terms += [(-(p**i), x, p ** (n - i)) for i, x in enumerate(z[: n + 1])]
        z.append(ghost_sum(terms, p**n))
    return z


def unmerged_combine(comps_list, ints, p):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witt, "_ghost_recursion", unmerged_ghost_recursion)
        return witt_combine(comps_list, ints, p)


def one_input_sum(tower, rng, terms=3):
    """``a + b`` where ``b``'s standard slot 0 is zero, so that ``a``'s
    ``x_0`` alone fills it."""
    dom, d = tower.field_domain, tower.d

    def comp():
        return NestedSeries.from_monomials(d, dom, [
            (tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (rng.randint(-4, 2),),
             dom.random_nonzero(rng))
            for _ in range(terms)
        ])

    a = tuple(comp() for _ in range(tower.s))
    b = tuple(comp() for _ in range(tower.s - 1)) + (NestedSeries.zero(d, dom),)
    return [a, b]


def test_a_one_input_slot_cancels_against_z_before_any_power(monkeypatch):
    """When one input alone fills standard slot 0, ``+x_0^(p^n)`` and
    ``-z_0^(p^n)`` merge to nothing: on the flat engine four fewer terms
    with a power above 1 reach the ghost sums at ``s = 3`` (``x_0^p``,
    ``z_0^p``, ``x_0^(p^2)``, ``z_0^(p^2)``), on the packed kernel (dense
    ``d = 1`` maps) and on the dict loop alike; the series path (a window
    in another slot) merges nothing and forms the unmerged recursion's
    powers.  The sums equal the unmerged recursion's."""
    raw_pows, series_pows, gates = [], [], set()
    flat_ghost_sum, series_pow = witt._flat_ghost_sum, NestedSeries.pow

    def counting_flat_ghost_sum(lift, terms, q, mod, packed):
        raw_pows.extend(e for c, x, e in terms if e > 1 and x and c % mod)
        gates.add(packed)
        return flat_ghost_sum(lift, terms, q, mod, packed)

    def counting_series_pow(self, n, precision=None):
        series_pows.append((self.ceiling, n))
        return series_pow(self, n, precision)

    monkeypatch.setattr(witt, "_flat_ghost_sum", counting_flat_ghost_sum)
    monkeypatch.setattr(NestedSeries, "pow", counting_series_pow)
    rng = random.Random("one input")
    for p, k, d in ((2, 1, 1), (3, 2, 2), (5, 1, 2)):
        tower = FieldTower(p, k, 3, ("u", "t")[2 - d:])
        comps_list = one_input_sum(tower, rng)
        raw_pows.clear()
        gates.clear()
        want = unmerged_combine(comps_list, [1, 1], p)
        unmerged = len(raw_pows)
        raw_pows.clear()
        assert witt_combine(comps_list, [1, 1], p) == want
        assert len(raw_pows) == unmerged - 4
        assert gates == {d == 1}  # packed at d = 1, the dict loop at d = 2
        # a window in b's last standard slot sends the sum to the series path
        a, b = comps_list
        windowed = [a, (b[0].truncate(6),) + b[1:]]
        series_pows.clear()
        want = unmerged_combine(windowed, [1, 1], p)
        unmerged = list(series_pows)
        series_pows.clear()
        assert witt_combine(windowed, [1, 1], p) == want
        assert series_pows == unmerged and any(n == p**2 for _, n in unmerged)


# ------------------------------------------------- the completion oracle

def completions(x, rng, k):
    """``k`` exact completions of the series ``x``: each fills every open
    window, at every level, with one to three random terms within four
    exponents above its ceiling (exact inner series of one or two terms in
    ``[-2, 2]`` above a top ceiling), and completes every stored
    coefficient in turn."""
    return [_completion(x, rng) for _ in range(k)]


def _completion(x, rng):
    level, dom = x.level, x.domain
    coeffs = {e: c if level == 1 else _completion(c, rng) for e, c in x.coeffs.items()}
    if x.ceiling is not None:
        for e in rng.sample(range(x.ceiling, x.ceiling + 4), rng.randint(1, 3)):
            coeffs[e] = dom.random_nonzero(rng) if level == 1 else NestedSeries.from_monomials(
                level - 1, dom, [(tuple(rng.randint(-2, 2) for _ in range(level - 1)),
                                  dom.random_nonzero(rng)) for _ in range(rng.randint(1, 2))])
    return NestedSeries(level, dom, coeffs)


def exact_inner(x):
    """``x`` with every coefficient below the top level cut to its stored
    terms: its top window, if any, is its only one."""
    if x.level == 1:
        return x
    return NestedSeries(x.level, x.domain, {e: completed(c) for e, c in x.coeffs.items()}, x.ceiling)


# the cells of PLAN_CELLS whose exact reductions stay cheap: p^(s-1) <= 9
COMPLETION_CELLS = [(p, k, s, d) for p, k, s, d in PLAN_CELLS if p ** (s - 1) <= 9]


@functools.cache
def completion_cases(windows):
    """``[(tower, windowed comps, reductions of three completions)]`` for
    ``plan_sweep_slot`` vectors over ``COMPLETION_CELLS``, with every
    window (``windows == "inner"``) or the top ones only (``"top"``); exact
    vectors are left out.  The completions' reductions are the costly part,
    so the two properties below share them."""
    cases = []
    for p, k, s, d in COMPLETION_CELLS:
        rng = random.Random(f"completion:{windows}:{p}:{k}:{s}:{d}")
        tower = FieldTower(p, k, s, ("u", "t")[2 - d:])
        for _ in range(12):
            comps = tuple(plan_sweep_slot(rng, d, tower.field_domain, p) for _ in range(s))
            if windows == "top":
                comps = tuple(exact_inner(c) for c in comps)
            if all(c.is_exact() for c in comps):
                continue
            cases.append((tower, comps, [asw_reduce(WittVector(tower, full))
                                         for full in zip(*[completions(c, rng, 3) for c in comps])]))
    return cases


@pytest.mark.parametrize("windows", ["top", "inner"])
def test_windowed_reductions_agree_with_every_completion(windows):
    """Seeded property: ``asw_reduce`` of a windowed vector either refuses
    with ``PrecisionExhausted`` or gives components that agree, inside
    their windows, with the reduction of each of three completions.  The
    answers are counted, so a change that turns answers into refusals
    shows.  With inner windows it needs a polar coefficient at a
    p-divisible exponent whose root is zero only within an inner window
    to be moved with that window, not skipped as an exact zero."""
    seen = Counter()
    for tower, comps, filled in completion_cases(windows):
        try:
            reduced = asw_reduce(WittVector(tower, comps)).vector.comps
        except PrecisionExhausted:
            seen["refused"] += 1
            continue
        for full in filled:
            assert all(a.agrees_with(b) for a, b in zip(reduced, full.vector.comps)), \
                (comps, full.vector.comps)
        seen["answered"] += 1
    assert seen["answered"] >= 160 and seen["refused"], seen


def test_windowed_conductors_agree_with_every_completion():
    """Seeded property, over top and inner windows: ``swan_conductor`` of
    a windowed vector either refuses with ``PrecisionExhausted`` or equals
    the conductor of each of three completions; the answers are counted.
    Moving roots that are zero only within an inner window refuses 19
    inner-window vectors at d = 2 that skipping them answered."""
    seen = Counter()
    for windows in ("top", "inner"):
        for tower, comps, filled in completion_cases(windows):
            try:
                sw = swan_conductor(WittVector(tower, comps))
            except PrecisionExhausted:
                seen["refused"] += 1
                continue
            assert all(swan_conductor(full) == sw for full in filled), comps
            seen["answered"] += 1
    assert seen["answered"] >= 314 and seen["refused"], seen
