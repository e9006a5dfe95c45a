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
    (``uncombined_witt_oracle``).
"""

import random
from math import comb

import pytest

from rswan import witt
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
    """A ghost power off by one at one exponent leaves a ghost sum that
    ``p`` does not divide: an internal error, not a wrong answer."""
    raw_pow = witt._raw_pow
    perturbed = []

    def off_by_one(domain, x, n):
        out = raw_pow(domain, x, n)
        if n > 1 and not perturbed:
            e = min(out)
            perturbed.append(e)
            out = {**out, e: domain.add(out[e], domain.one())}
        return out

    monkeypatch.setattr(witt, "_raw_pow", off_by_one)
    with pytest.raises(RswanError, match="not divisible"):
        vec(K2s2, "t^-1", "t^-3") + vec(K2s2, "t^-2", "t^-1")
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
    removable term by ``x <- x - u^p + u``."""
    total = None
    while True:
        for e in sorted(k for k in x.coeffs if k < 0):
            term = NestedSeries(x.level, x.domain, {e: x.coeffs[e]})
            u = term.pth_root(skip_prime_to_p=True, skip_non_powers=True)
            if u.coeffs:
                break
        else:
            return x, total
        x = x - u.frobenius() + u
        total = u if total is None else total + u


def _random_scalar(rng, domain, p):
    """A nonzero scalar; over F_p(x) a p-th power half of the time."""
    c = domain.random_nonzero(rng)
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
