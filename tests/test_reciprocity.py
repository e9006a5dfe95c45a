"""Symbols, the theta lift, truncated exponentials, and the pairing identity.

Oracles used here:
  * truncated exponential coefficients are frozen from 1/i! mod p computed
    by hand (1/2 = 3, 1/6 = 1, 1/24 = 4 over F_5);
  * the theta lift of a length-2 vector is frozen from the definition
    sum_i p^(s-1-i) lift(a_i)^(p^i) expanded by hand;
  * one- and two-variable symbol values are frozen from hand expansions of
    Res(theta dlog y_1 ^ ... ), and the one-variable case is cross-checked
    against the classical trace-of-residue symbol;
  * multiplicativity in each entry and antisymmetry are exact consequences
    of dlog(yy') = dlog y + dlog y' and wedge antisymmetry, so they hold on
    the nose and serve as representation-independent oracles;
  * the characterization checker is compared with its own loop without the
    per-call dict of terms, which pairs each sample's whole summed alpha
    (``uncached_characterization_oracle``): a check of additivity;
  * symbol values are compared with the residue through full ``dlog``
    forms (``dlog_route_symbol``) and with that route on exact completions
    at a wide budget, and the term draws with the ``randint`` draws they
    replace (``randint_draw_oracle``).
"""

import random

import pytest

from rswan import catalog, cli, reciprocity
from rswan.errors import (
    InconsistentValue,
    NotTopological,
    PrecisionExhausted,
    RswanError,
    UnramifiedCharacter,
    ZeroEntry,
)
from rswan.logdiff import (
    LogForm,
    WindowedForm,
    dlog,
    minimal_b,
    r_b,
    residue_to_prime_field,
    wedge,
    wedge_windowed,
)
from rswan.parser import parse_series, render_series
from rswan.reciprocity import (
    CharacterizationReport,
    _residue_of_symbol,
    check_exp_congruences,
    eval_symbol,
    schmid_symbol,
    theta_lift,
    truncated_exp,
    verify_rsw_characterization,
)
from rswan.rsw import RswValue
from rswan.series import NestedSeries
from rswan.tower import FieldTower
from rswan.witt import Character, WittVector, asw_reduce, lift_series

K2 = FieldTower(2, 1, 1, ("t",))
K3 = FieldTower(3, 1, 1, ("t",))
K5 = FieldTower(5, 1, 1, ("t",))
K2s2 = FieldTower(2, 1, 2, ("t",))
K2s3 = FieldTower(2, 1, 3, ("t",))
K3s2 = FieldTower(3, 1, 2, ("t",))
KD = FieldTower(2, 1, 1, ("u", "t"))


def char_of(tower, texts):
    printed = tuple(parse_series(s, tower) for s in texts)
    return asw_reduce(WittVector.from_print_order(tower, printed))


# ------------------------------------------------------------ truncated exp

def test_truncated_exp_frozen_coefficients():
    assert render_series(truncated_exp(parse_series("t", K2)), K2) == "1 + t"
    assert render_series(truncated_exp(parse_series("t", K3)), K3) == "1 + t + 2*t^2"
    assert (
        render_series(truncated_exp(parse_series("t", K5)), K5)
        == "1 + t + 3*t^2 + t^3 + 4*t^4"
    )


def test_truncated_exp_needs_positive_order():
    with pytest.raises(NotTopological):
        truncated_exp(parse_series("1 + t", K2))
    with pytest.raises(NotTopological):
        truncated_exp(parse_series("t^-1", K3))


def test_truncated_exp_window_zero_argument():
    """The refusal names the ceiling of the window-zero argument."""
    for ceiling in (0, -3):
        x = parse_series("t", K2).truncate(ceiling)  # window-zero, everything unknown
        with pytest.raises(PrecisionExhausted) as err:
            truncated_exp(x)
        assert err.value.exponent == ceiling


def test_truncated_exp_of_exact_zero_is_one():
    z = NestedSeries.zero(1, K3.field_domain)
    assert truncated_exp(z) == NestedSeries.one(1, K3.field_domain)


# ------------------------------------------------------------- congruences

@pytest.mark.parametrize("p", [2, 3, 5])
def test_exp_congruences_all_pass(p):
    report = check_exp_congruences(p)
    assert set(report.results) == {
        "product_rule_mod_degree_p",
        "moebius_product_mod_Tp",
        "dlog_normalization_mod_Tp",
    }
    assert all(report.results.values())
    assert report.notes


def test_exp_congruences_reject_unsupported_prime():
    with pytest.raises(InconsistentValue):
        check_exp_congruences(7)


def test_exp_congruence_product_oracle_p3():
    """Independent hand expansion at p = 3: (1-T)^-1 (1-T^2)^(1/2) = E mod T^3.

    (1+T+T^2)(1 - T^2/2) = 1 + T + T^2/2 exactly matches 1 + T + T^2/2.
    """
    from fractions import Fraction

    lhs = {0: Fraction(1), 1: Fraction(1), 2: Fraction(1) - Fraction(1, 2)}
    assert lhs == {0: Fraction(1), 1: Fraction(1), 2: Fraction(1, 2)}


# ---------------------------------------------------------------- theta map

def test_theta_frozen_length2():
    """Printed (t^-1, t^-3) over W_2(F_2): theta = 2 t^-3 + t^-2 in Z/4."""
    vec = WittVector.from_print_order(
        K2s2, (parse_series("t^-1", K2s2), parse_series("t^-3", K2s2))
    )
    th = theta_lift(vec)
    assert th.domain is K2s2.lift_domain
    assert th.coefficient(-3) == 2
    assert th.coefficient(-2) == 1
    assert set(th.coeffs) == {-3, -2}


def test_theta_of_teichmuller_is_lifted_power():
    zero = NestedSeries.zero(1, K2s2.field_domain)
    vec = WittVector.from_print_order(K2s2, (parse_series("t^-1", K2s2), zero))
    th = theta_lift(vec)
    assert set(th.coeffs) == {-2} and th.coefficient(-2) == 1


@pytest.mark.parametrize(
    "tower", [K2s2, K2s3, K3s2], ids=["p2s2", "p2s3", "p3s2"]
)
def test_theta_is_additive_in_the_lift_ring(tower):
    rng = random.Random(99)
    dom = tower.field_domain

    def rnd():
        monos = []
        for e in range(-4, 3):
            c = rng.randrange(tower.p)
            if c:
                monos.append(((e,), dom.from_int(c)))
        return NestedSeries.from_monomials(1, dom, monos)

    for _ in range(60):
        a = WittVector(tower, tuple(rnd() for _ in range(tower.s)))
        b = WittVector(tower, tuple(rnd() for _ in range(tower.s)))
        assert theta_lift(a + b).agrees_with(theta_lift(a) + theta_lift(b))


def test_theta_of_frobenius_minus_one_has_zero_residue():
    """Coboundaries pair to zero: Res(theta((phi-1)E) dlog y) = 0."""
    rng = random.Random(5)
    dom = K2s2.field_domain
    for _ in range(20):
        monos = []
        for e in range(-3, 3):
            c = rng.randrange(2)
            if c:
                monos.append(((e,), dom.from_int(c)))
        comp = NestedSeries.from_monomials(1, dom, monos)
        e_vec = WittVector(K2s2, (comp, comp.frobenius()))
        cob = e_vec.frobenius() - e_vec
        theta = theta_lift(cob)
        y = parse_series("t", K2s2)
        omega = dlog(lift_series(y, K2s2.lift_domain), 32).scale(theta)
        assert residue_to_prime_field(omega) == 0


# ------------------------------------------------------------------ symbols

def test_symbol_frozen_one_variable():
    """{1 + t} for t^-1 over F_2: Res(t^-1 (t - t^2 + ...) dlog t) = 1."""
    chi = char_of(K2, ["t^-1"])
    y = parse_series("1 + t", K2)
    assert eval_symbol(chi, [y]) == 1
    assert schmid_symbol(parse_series("t^-1", K2), y) == 1


def test_symbol_frozen_uniformizer_misses():
    """{t} for t^-1: the residue slot of t^-1 dlog t is empty."""
    chi = char_of(K2, ["t^-1"])
    assert eval_symbol(chi, [parse_series("t", K2)]) == 0


def test_symbol_frozen_two_variables():
    """{1 + u^-1 t, t} for u t^-1 over F_2((u))((t)): hand expansion gives 1."""
    chi = char_of(KD, ["u*t^-1"])
    y1 = parse_series("1 + u^-1*t", KD)
    y2 = parse_series("t", KD)
    assert eval_symbol(chi, [y1, y2]) == 1


def test_symbol_widens_to_the_budget_when_lower_poles_need_it():
    """theta = u^-1 t^-2 asks for dlog windows of width 3, but the u^-2 in
    the first entry pushes the residue past them; the budget answers."""
    chi = char_of(KD, ["u^-1*t^-2"])
    ys = [parse_series("1 + u + u^-2*t", KD), parse_series("t", KD)]
    with pytest.raises(PrecisionExhausted):
        _residue_of_symbol(theta_lift(chi), KD, ys, 3)
    assert eval_symbol(chi, ys) == 1


def test_symbol_is_multiplicative_per_entry():
    chi = char_of(KD, ["u*t^-1"])
    t = parse_series("t", KD)
    y1 = parse_series("1 + u^-1*t", KD)
    y2 = parse_series("u", KD)
    lhs = eval_symbol(chi, [y1 * y2, t])
    rhs = (eval_symbol(chi, [y1, t]) + eval_symbol(chi, [y2, t])) % 2
    assert lhs == rhs


def test_symbol_antisymmetry_two_variables():
    chi = char_of(KD, ["u*t^-1"])
    y1 = parse_series("1 + u^-1*t", KD)
    y2 = parse_series("t", KD)
    a = eval_symbol(chi, [y1, y2])
    b = eval_symbol(chi, [y2, y1])
    assert (a + b) % 2 == 0


def test_symbol_entry_validation():
    chi = char_of(K2, ["t^-1"])
    with pytest.raises(InconsistentValue):
        eval_symbol(chi, [parse_series("t", K2), parse_series("t", K2)])
    with pytest.raises(ZeroEntry):
        eval_symbol(chi, [NestedSeries.zero(1, K2.field_domain)])
    for ceiling in (0, -2):
        with pytest.raises(PrecisionExhausted, match="zero within its window") as err:
            eval_symbol(chi, [parse_series("t", K2).truncate(ceiling)])
        assert err.value.exponent == ceiling


def test_symbol_entry_zero_within_an_inner_window_is_not_a_zero_entry():
    """An entry whose only coefficient is zero within an inner window is
    unknown, not zero."""
    dom = KD.field_domain
    y = NestedSeries(2, dom, {-1: NestedSeries.zero(1, dom, 3)})
    with pytest.raises(PrecisionExhausted, match="zero within its window") as err:
        eval_symbol(char_of(KD, ["t^-1"]), [parse_series("t", KD), y])
    assert err.value.exponent == -1  # the top exponent of the unknown coefficient


def test_schmid_symbol_refusals():
    with pytest.raises(InconsistentValue):
        schmid_symbol(parse_series("u*t^-1", KD), parse_series("t", KD))
    with pytest.raises(ZeroEntry):
        schmid_symbol(parse_series("t^-1", K2), NestedSeries.zero(1, K2.field_domain))


def test_symbol_accepts_raw_witt_vectors():
    vec = WittVector.from_print_order(K2, (parse_series("t^-1", K2),))
    assert eval_symbol(vec, [parse_series("1 + t", K2)]) == 1


def test_symbol_refusal_names_the_width_it_opens_and_the_budget():
    """Sw = 125 at p = 5, s = 4: theta = t^-125, so the symbol opens
    windows of width 126, above the default budget 64; the refusal says
    so, at the exponent the residue reads.  At budget 126 it answers
    Res(t^-125 dlog(1 + t)) = (-1)^126 = 1."""
    tower = FieldTower(5, 1, 4, ("t",))
    chi = char_of(tower, ["t^-1", "0", "0", "0"])
    y = parse_series("1 + t", tower)
    with pytest.raises(PrecisionExhausted) as err:
        eval_symbol(chi, [y])
    assert str(err.value) == (
        "the symbol opens windows of width 126; its residue is not certified within the budget 64"
    )
    assert err.value.exponent == 0
    wide = FieldTower(5, 1, 4, ("t",), precision=126)
    assert eval_symbol(char_of(wide, ["t^-1", "0", "0", "0"]), [parse_series("1 + t", wide)]) == 1


# ------------------------------------- the symbol route against dlog forms

def dlog_route_symbol(theta, tower, ys):
    """The symbol through full windowed ``dlog`` forms and their wedges, as
    the library computed it before ``logdiff.residue_of_product``: the same
    widths (the width theta opens, then the budget), the same residue."""
    low = min((min(exps) for exps, _ in theta.iter_monomials()), default=0)
    width = min(max(1, 1 - low), tower.precision)

    def residue(width):
        omega = LogForm.from_series(theta)
        for y in ys:
            omega = wedge(omega, dlog(lift_series(y, tower.lift_domain), width))
        return residue_to_prime_field(omega)

    try:
        return residue(width)
    except PrecisionExhausted:
        if width == tower.precision:
            raise
        return residue(tower.precision)


def completed(sr):
    """The exact series with the stored terms of ``sr`` at every level: one
    completion of each of its windows."""
    if sr.level == 1:
        return NestedSeries(1, sr.domain, dict(sr.coeffs))
    return NestedSeries(sr.level, sr.domain, {e: completed(c) for e, c in sr.coeffs.items()})


def random_windowed(rng, level, domain, tops, windowed):
    """1-3 monomials with top exponents in ``tops`` and lower ones in
    [-2, 2]; when ``windowed``, cut at a top ceiling above the lowest one
    half the time, and give an inner coefficient a window half the time."""
    monos = [(tuple(rng.randint(-2, 2) for _ in range(level - 1)) + (rng.choice(tops),),
              domain.random_nonzero(rng)) for _ in range(rng.randint(1, 3))]
    sr = NestedSeries.from_monomials(level, domain, monos)
    if not windowed or sr.is_zero():
        return sr
    if level > 1 and rng.random() < 0.5:
        e = rng.choice(sorted(sr.coeffs))
        inner = sr.coeffs[e].truncate(rng.randint(-1, 3))
        sr = NestedSeries(level, domain, {**sr.coeffs, e: inner}, sr.ceiling)
    if rng.random() < 0.5:
        sr = sr.truncate(min(sr.coeffs) + rng.randint(1, 6))
    return sr


def random_entry(rng, tower, windowed):
    """A symbol entry: E(x) of a monomial of positive order, a variable, or
    a unit ``c T^v (1 + ...)``, possibly windowed."""
    d, dom = tower.d, tower.field_domain
    kind = rng.randrange(3)
    if kind == 0:
        exps = tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (rng.randint(1, 4),)
        y = truncated_exp(NestedSeries.from_monomials(d, dom, [(exps, dom.random_nonzero(rng))]))
    elif kind == 1:
        y = NestedSeries.variable(d, dom, rng.randint(1, d))
    else:
        v = rng.randint(-2, 2)
        lead = tuple(rng.randint(-1, 1) for _ in range(d - 1)) + (v,)
        y = NestedSeries.from_monomials(d, dom, [(lead, dom.random_nonzero(rng))])
        y = y + random_windowed(rng, d, dom, range(v + 1, v + 4), False)
    if windowed and rng.random() < 0.5 and not y.is_zero():
        y = y.truncate(min(y.coeffs) + rng.randint(1, 4))
    return y


def test_symbol_falls_back_to_dlog_forms_where_a_window_meets_a_cancellation():
    """theta = (1 + O(u)) t^-5 on {1 + u^-1 t^3, t^-1 + t} over
    F_2((u))((t)): in ``(theta dy~_1 ^ dy~_2) * prod_i y~_i^-1`` the window
    O(u) multiplies terms that cancel only inside ``dlog y~ = dy~ y~^-1``,
    so the product-free residue refuses at both widths.  The dlog forms
    answer, with the value of the exact completion."""
    dom = KD.lift_domain
    theta = NestedSeries(2, dom, {-5: NestedSeries(1, dom, {0: 1}, 1)})
    ys = [parse_series("1 + u^-1*t^3", KD), parse_series("t^-1 + t", KD)]
    for width in (6, KD.precision):
        with pytest.raises(PrecisionExhausted):
            _residue_of_symbol(theta, KD, ys, width)
    wide = FieldTower(2, 1, 1, ("u", "t"), precision=512)
    assert reciprocity._symbol_value(theta, KD, ys) == 0
    assert dlog_route_symbol(completed(theta), wide, ys) == 0


def test_symbol_width_reads_window_zero_coefficients(monkeypatch):
    """theta = (0 + O(u^2)) t^-2 over F_2((u))((t)) stores no monomial, yet
    its pole at t^-2 needs width 3: width 1 refuses, width 3 answers 0."""
    dom = KD.lift_domain
    theta = NestedSeries(2, dom, {-2: NestedSeries.zero(1, dom, 2)})
    ys = [parse_series("1 + u*t", KD), parse_series("t", KD)]
    with pytest.raises(PrecisionExhausted):
        _residue_of_symbol(theta, KD, ys, 1)
    widths = []

    def recording(theta, tower, ys, width):
        widths.append(width)
        return _residue_of_symbol(theta, tower, ys, width)

    monkeypatch.setattr(reciprocity, "_residue_of_symbol", recording)
    assert reciprocity._symbol_value(theta, KD, ys) == 0
    assert widths == [3]


SYMBOL_TOWER_CELLS = [
    (p, k, s, d) for p in (2, 3, 5) for k in (1, 2) for s in (1, 2, 3) for d in (1, 2)
]


def symbol_outcome(fn, *args):
    try:
        return fn(*args)
    except RswanError as exc:
        return type(exc).__name__


def test_symbol_route_answers_what_the_dlog_route_answers():
    """Random symbols over p = 2, 3, 5, k = 1, 2, s = 1-3, d = 1, 2, exact
    and windowed, at budgets 6, 12 and 64.  Wherever the dlog route
    answers, ``_symbol_value`` (the product-free residue, then its dlog
    fallback) gives the same value; every answer equals the dlog route's
    on an exact completion of the inputs at budget 512, and some symbols
    the dlog route refused now answer."""
    rng = random.Random(2202)
    seen = {"both": 0, "new only": 0, "refused": 0}
    for idx in range(480):
        p, k, s, d = SYMBOL_TOWER_CELLS[idx % len(SYMBOL_TOWER_CELLS)]
        budget = rng.choice((6, 12, 64))
        variables = ("t",) if d == 1 else ("u", "t")
        tower = FieldTower(p, k, s, variables, precision=budget)
        windowed = rng.random() < 0.5
        theta = random_windowed(rng, d, tower.lift_domain, range(-8, 1), windowed)
        ys = [random_entry(rng, tower, windowed) for _ in range(d)]
        old = symbol_outcome(dlog_route_symbol, theta, tower, ys)
        new = symbol_outcome(reciprocity._symbol_value, theta, tower, ys)
        if isinstance(old, int):
            assert new == old, (theta, ys, budget)
        if isinstance(new, int):
            wide = FieldTower(p, k, s, variables, precision=512)
            assert dlog_route_symbol(completed(theta), wide, [completed(y) for y in ys]) == new
        seen["both" if isinstance(old, int) else "new only" if isinstance(new, int)
             else "refused"] += 1
    assert seen["both"] > 200 and seen["new only"] > 0 and seen["refused"] > 50, seen


# ----------------------------------------------- characterizing identity

@pytest.mark.parametrize(
    "tower,texts,expected_b,schmid",
    [
        (K2, ["t^-3"], 1, True),
        (K3, ["t^-2"], 1, True),
        (K2s2, ["t^-1", "t^-3"], 1, False),
        (KD, ["u*t^-2"], 0, False),
    ],
    ids=["p2s1", "p3s1", "p2s2", "p2d2"],
)
def test_characterization_small_runs(tower, texts, expected_b, schmid):
    chi = char_of(tower, texts)
    report = verify_rsw_characterization(chi, samples=20, seed=3)
    assert report.all_equal
    assert report.samples == report.agreements == 20
    assert report.b == expected_b
    assert report.mismatches == ()
    assert (report.schmid_checked > 0) == schmid
    assert report.embedding == "F_p -> Z/p^s, 1 |-> p^(s-1)"


def test_characterization_is_seed_deterministic():
    chi = char_of(K2, ["t^-3"])
    a = verify_rsw_characterization(chi, samples=10, seed=42)
    b = verify_rsw_characterization(chi, samples=10, seed=42)
    assert a == b


def test_characterization_refuses_unramified():
    with pytest.raises(UnramifiedCharacter):
        verify_rsw_characterization(char_of(K2, ["t"]), samples=1)


def test_characterization_covers_low_dimensions_only():
    K3d = FieldTower(2, 1, 1, ("v", "u", "t"))
    chi = char_of(K3d, ["t^-1"])
    with pytest.raises(InconsistentValue):
        verify_rsw_characterization(chi, samples=1)


# ---------------------------------------------------------- the term draws

def randint_draw_oracle(tower, rng, m, n):
    """The term draw through ``randint`` and ``random_nonzero``, as the
    library drew it before ``reciprocity._below``."""
    d_level = tower.d
    terms = []
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(m + 1, n)
        c = tower.field_domain.random_nonzero(rng)
        lower = tuple(rng.randint(-2, 2) for _ in range(d_level - 1))
        key = () if d_level == 1 else (rng.randint(1, d_level),)
        terms.append((lower + (i,), c, key))
    return terms


@pytest.mark.parametrize("p", (2, 3, 5))
def test_term_draws_take_the_bits_of_the_randint_draws(p):
    """Same terms and the same generator state after every call, over 200
    seeds, k = 1, 2, 3, d = 1, 2 and windows of width 1 (n - m = 1) up."""
    for k in (1, 2, 3):
        for variables in (("t",), ("u", "t")):
            tower = FieldTower(p, k, 1, variables)
            for seed in range(200):
                ours, theirs = random.Random(seed), random.Random(seed)
                for m, n in ((0, 1), (3, 4), (1, 5), (4, 40)):
                    assert (reciprocity._random_window_terms(tower, ours, m, n)
                            == randint_draw_oracle(tower, theirs, m, n)), (k, variables, seed)
                    assert ours.getstate() == theirs.getstate(), (k, variables, seed, m, n)


# ------------------------------------- the unmemoized characterization loop

def uncached_characterization_oracle(char, samples, seed=0):
    """The characterization loop without its per-call dict of terms and
    without additivity: every term's series, symbol and Schmid oracle value
    built afresh, and every sample's whole summed alpha paired at once, so
    the library's per-term pairings are checked against the pairing of the
    sum.  Helpers are looked up on the module, so a monkeypatched one
    reaches both this loop and the library's."""
    char = asw_reduce(char)
    tower = char.tower
    p, s = tower.p, tower.s
    n = reciprocity.swan_conductor(char)
    value = reciprocity.rsw_char_p(char)
    m = value.m
    b = minimal_b(p, n - m)
    theta = theta_lift(char.vector)
    rng = random.Random(seed)
    agreements = schmid_checked = 0
    mismatches = []
    modulus = p**s
    for idx in range(samples):
        terms = [
            (NestedSeries.from_monomials(tower.d, tower.field_domain, [(exps, c)]), key)
            for exps, c, key in reciprocity._random_window_terms(tower, rng, m, n)
        ]
        lhs = 0
        for x, key in terms:
            ys = [truncated_exp(x)]
            for lam in key:
                ys.append(NestedSeries.variable(tower.d, tower.field_domain, lam))
            val = reciprocity._symbol_value(theta, tower, ys)
            lhs = (lhs + val) % modulus
            if s == 1 and tower.d == 1:
                oracle = reciprocity.schmid_symbol(char.vector.comps[0], ys[0])
                if oracle % modulus != val % modulus:
                    mismatches.append(
                        {"sample": idx, "kind": "schmid-oracle", "symbol": val, "oracle": oracle}
                    )
                schmid_checked += 1
        form_coeffs: dict = {}
        for x, key in terms:
            form_coeffs[key] = form_coeffs[key] + x if key in form_coeffs else x
        alpha = WindowedForm(
            LogForm(tower.d, tower.field_domain, tower.d - 1, form_coeffs), -m - 1, -n - 1
        )
        collapsed = r_b(wedge_windowed(value.window, alpha), b)
        if isinstance(collapsed, LogForm):
            res_val = residue_to_prime_field(collapsed)
        else:
            res_val = residue_to_prime_field(collapsed, tower.field_domain)
        rhs = (res_val * p ** (s - 1)) % modulus
        if lhs == rhs:
            agreements += 1
        else:
            mismatches.append({"sample": idx, "kind": "identity", "lhs": lhs, "rhs": rhs})
    return CharacterizationReport(
        n=n, m=m, b=b, samples=samples, agreements=agreements,
        schmid_checked=schmid_checked, mismatches=tuple(mismatches[:10]),
    )


def catalog_reciprocity_cells(p):
    """(label, character, samples) for every check-all reciprocity task at p."""
    config = cli.load_config(catalog.canned_config(p))
    return [
        (task["character"], config.characters[task["character"]], task["samples"])
        for task in config.tasks
        if task["task"] == "reciprocity"
    ]


@pytest.mark.parametrize("p", catalog.CATALOG_PRIMES)
def test_characterization_matches_uncached_oracle_on_the_catalog(p):
    for label, char, samples in catalog_reciprocity_cells(p):
        for seed in range(5):
            report = verify_rsw_characterization(char, samples, seed=seed)
            assert report == uncached_characterization_oracle(char, samples, seed), (label, seed)
            assert report.all_equal


def _zero_invariant(rsw_char_p):
    def corrupted(char):
        window = rsw_char_p(char).window
        form = window.form
        zero = LogForm.zero(form.level, form.domain, form.degree)
        return RswValue(char, WindowedForm(zero, window.n, window.m))

    return corrupted


@pytest.mark.parametrize("p", catalog.CATALOG_PRIMES)
def test_characterization_mismatches_match_uncached_oracle(p, monkeypatch):
    """A zero invariant breaks the identity and an off-by-one Schmid value
    breaks the oracle check; both kinds of entry, recorded per occurrence of
    a repeated symbol, equal the unmemoized loop's."""
    monkeypatch.setattr(reciprocity, "rsw_char_p", _zero_invariant(reciprocity.rsw_char_p))
    schmid = reciprocity.schmid_symbol
    monkeypatch.setattr(reciprocity, "schmid_symbol", lambda f, y: schmid(f, y) + 1)
    kinds = set()
    for label, char, samples in catalog_reciprocity_cells(p):
        for seed, count in ((0, 3), (1, samples)):
            report = verify_rsw_characterization(char, count, seed=seed)
            assert report == uncached_characterization_oracle(char, count, seed), (label, seed)
            kinds |= {entry["kind"] for entry in report.mismatches}
        assert not report.all_equal, label
    assert kinds == {"identity", "schmid-oracle"}


@pytest.mark.parametrize("p", catalog.CATALOG_PRIMES)
def test_characterization_evaluates_each_distinct_symbol_once(p, monkeypatch):
    """One symbol and one pairing (one ``r_b``) per distinct drawn term."""
    drawn = set()
    calls = {"_symbol_value": 0, "r_b": 0}
    draw = reciprocity._random_window_terms

    def recording_draw(*args):
        terms = draw(*args)
        drawn.update(terms)
        return terms

    def counting(name):
        original = getattr(reciprocity, name)

        def call(*args):
            calls[name] += 1
            return original(*args)

        return call

    monkeypatch.setattr(reciprocity, "_random_window_terms", recording_draw)
    for name in calls:
        monkeypatch.setattr(reciprocity, name, counting(name))
    for label, char, samples in catalog_reciprocity_cells(p):
        drawn.clear()
        calls.update(dict.fromkeys(calls, 0))
        verify_rsw_characterization(char, samples, seed=3)
        assert calls["_symbol_value"] == calls["r_b"] == len(drawn) < samples, label


# ----------------------------------------- additivity beyond the catalog

# Towers that no catalog reciprocity cell reaches: F_4 residues (k = 2, one
# and two variables), lift length 3, and p = 5 over two variables.
ADDITIVITY_CELLS = [
    (FieldTower(2, 2, 1, ("t",)), ["g*t^-3 + t^-1"]),
    (FieldTower(2, 2, 1, ("u", "t")), ["g*u*t^-3"]),
    (FieldTower(2, 1, 3, ("t",)), ["t^-1", "0", "t^-3"]),
    (FieldTower(3, 1, 3, ("t",)), ["t^-1", "0", "t^-2"]),
    (FieldTower(5, 1, 1, ("u", "t")), ["u*t^-2"]),
    (FieldTower(5, 1, 1, ("u", "t")), ["u^-1*t^-3 + t^-1"]),
]


def _repeating_and_cancelling(draw):
    """Wrap the term draw so that every sample also holds the negative of
    its first term (the two cancel in alpha), a second term on the first
    term's dlog key at another exponent, the first term once more and, over
    two variables, the first term's monomial on the other dlog key."""

    def wrapped(tower, rng, m, n):
        terms = draw(tower, rng, m, n)
        exps, c, key = terms[0]
        top = m + 1 + (exps[-1] - m) % (n - m)  # another exponent in [m+1, n] when n > m + 1
        terms += [(exps, tower.field_domain.neg(c), key), (exps[:-1] + (top,), c, key), terms[0]]
        if key:
            terms.append((exps, c, (3 - key[0],)))
        return terms

    return wrapped


@pytest.mark.parametrize(
    "tower,texts", ADDITIVITY_CELLS,
    ids=["F4", "F4d2", "p2s3", "p3s3", "p5d2", "p5d2pole"],
)
def test_characterization_is_additive_beyond_the_catalog(tower, texts, monkeypatch):
    """Per-term pairings summed equal the pairing of the summed alpha, on
    towers the catalog does not sample, with repeated dlog keys, repeated
    terms and terms that cancel in alpha."""
    chi = char_of(tower, texts)
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(
                reciprocity, "_random_window_terms",
                _repeating_and_cancelling(reciprocity._random_window_terms),
            )
        for seed in range(3):
            report = verify_rsw_characterization(chi, 30, seed=seed)
            assert report == uncached_characterization_oracle(chi, 30, seed), (forced, seed)
            assert report.all_equal, (forced, seed)


# ------------------------------------------------ the orientation at d = 2

@pytest.mark.parametrize("p", (3, 5))
@pytest.mark.parametrize("s", (1, 2))
def test_characterization_holds_over_two_variables_at_odd_p(p, s):
    """chi(E(alpha)) = Res(Rsw(chi) ^ alpha) (docstring of
    ``verify_rsw_characterization``): at d = 2 the order of the wedge is a
    sign, which odd p sees.  Each character sits in the weight-1 slot."""
    tower = FieldTower(p, 1, s, ("u", "t"))
    for text in ("u*t^-2", "u^-1*t^-3 + t^-1", "t^-2 + u^2*t^-1", "u*t^-4"):
        chi = char_of(tower, ["0"] * (s - 1) + [text])
        for seed in range(3):
            report = verify_rsw_characterization(chi, 60, seed=seed)
            assert report.all_equal, (text, seed, report.mismatches)
