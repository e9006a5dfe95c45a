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
    and draws through ``randint`` (``uncached_characterization_oracle``): a
    check of additivity and of the terms the checker pairs;
  * symbols of global characters of ``F_q(t)`` sum to 0 over the places of
    P^1 (Artin reciprocity, k = 1 and 2): the value at t = 0 is read off
    the components' values at the other places;
  * symbol values are compared with the residue through full ``dlog``
    forms (``dlog_route_symbol``) and with that route on exact completions
    at a wide budget, and the term draws with the ``randint`` draws they
    replace (``randint_draw_oracle``); the term codes are checked
    injective on every term of small windows, drawn from scripted bits.
"""

import itertools
import random
import re
from collections import Counter

import pytest

import rswan.series
from rswan import catalog, cli, reciprocity, witt
from rswan.errors import (
    ExponentOutOfRange,
    InconsistentValue,
    NotTopological,
    PrecisionExhausted,
    RswanError,
    TowerMismatch,
    UnramifiedCharacter,
    ZeroEntry,
    ZeroInput,
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
FLOOR = rswan.series._ORD_FLOOR


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


def theta_by_series_oracle(vec):
    """The series path: :func:`witt.ghost_component` over the lifted
    components."""
    tower = vec.tower
    lift = tower.lift_domain
    xs = [lift_series(x, lift) for x in vec.print_order]
    return witt.ghost_component(xs, tower.s - 1, tower.p, NestedSeries.zero(tower.d, lift))


def theta_vector(rng, tower, kind):
    """0..3 monomials per component with inner exponents in -2..2 and top
    ones in -4..2.  ``windowed``: a top window, inner windows, or both, some
    coefficients zero within theirs.  ``floor``: at one random level of
    some components, a monomial whose exponent times the component's last
    ghost power ``q`` lands one below, at or one above the exponent floor,
    or (``q >= p^2``) whose ``q / p``-th power is already below it, so that
    the series path refuses at a partial power."""
    p, s, d = tower.p, tower.s, tower.d
    dom = tower.field_domain
    comps = []
    for i in range(s):  # internal slot i enters theta as a_i^(p^i)
        monos = [
            (tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (rng.randint(-4, 2),),
             dom.random_nonzero(rng))
            for _ in range(rng.randint(0, 3))
        ]
        if kind == "floor" and rng.random() < 0.6:
            q = p**i
            edge = -(-FLOOR // q)  # the least e with q e >= FLOOR
            exps = [rng.randint(-2, 2) for _ in range(d)]
            steps = (0, 1) if q == 1 else (-1, 0, 1)
            if q >= p * p:
                steps += (-(-FLOOR // (q // p)) - 1 - edge,)
            exps[rng.randrange(d)] = edge + rng.choice(steps)
            monos.append((tuple(exps), dom.random_nonzero(rng)))
        x = NestedSeries.from_monomials(d, dom, monos)
        if kind == "windowed":
            coeffs = x.coeffs
            if d > 1 and rng.random() < 0.6:
                coeffs = {e: c.truncate(rng.randint(-2, 3)) if rng.random() < 0.5 else c
                          for e, c in coeffs.items()}
            ceiling = rng.choice((None, rng.randint(-3, 4)))
            x = NestedSeries(d, dom, {e: c for e, c in coeffs.items()
                                      if ceiling is None or e < ceiling}, ceiling)
        comps.append(x)
    return WittVector(tower, tuple(comps))


def theta_outcome(fn, vec):
    try:
        return fn(vec)
    except RswanError as exc:
        return type(exc), str(exc), getattr(exc, "exponent", None)


# (p, s) where a draw is cheap, for every k in 1, 2 and d in 1..3
THETA_CELLS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]


def test_theta_matches_the_series_path(monkeypatch):
    """``theta_lift`` equals the series-path oracle on random exact,
    windowed and near-floor vectors, by value or by (type, message,
    exponent), ExponentOutOfRange included; an exact vector within the
    floor runs no series ghost sum at ``s > 1``."""
    series_sums = []
    ghost_component = witt.ghost_component

    def counting(*args):
        series_sums.append(1)
        return ghost_component(*args)

    monkeypatch.setattr(witt, "ghost_component", counting)
    rng = random.Random("theta flat")
    seen = Counter()
    for p, s in THETA_CELLS:
        for k in (1, 2):
            for d in (1, 2, 3):
                tower = FieldTower(p, k, s, ("v", "u", "t")[3 - d:])
                for kind in ("exact", "windowed", "floor"):
                    for _ in range(3 if d == 3 and p ** (s - 1) > 4 else 6):
                        vec = theta_vector(rng, tower, kind)
                        series_sums.clear()
                        got = theta_outcome(theta_lift, vec)
                        ran_series = bool(series_sums)
                        assert got == theta_outcome(theta_by_series_oracle, vec), (tower, kind, vec)
                        if isinstance(got, tuple):
                            seen["refused", got[0].__name__] += 1
                            continue
                        assert got.domain is tower.lift_domain
                        exact = all(c.is_exact() for c in vec.comps)
                        if exact and s > 1:
                            assert not ran_series
                        seen["answered", kind, exact] += 1
    assert seen["refused", "ExponentOutOfRange"] >= 20, seen
    assert set(seen) == {("refused", "ExponentOutOfRange"), ("answered", "exact", True),
                         ("answered", "windowed", False), ("answered", "windowed", True),
                         ("answered", "floor", True)}, seen
    assert min(seen.values()) >= 20, seen


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
    # An entry of another tower, level or coefficient ring, or one that is
    # not a series, raises TowerMismatch in the words of
    # NestedSeries._check_compatible, as schmid_symbol does on the same F_3
    # entries.
    chi = char_of(K2, ["t^-3"])
    other = "series belong to different towers or coefficient rings"
    lift = FieldTower(2, 1, 2, ("t",)).lift_domain
    rows = [
        (parse_series("1 + 2*t", K3), other),
        (parse_series("1 + t", K3), other),
        (parse_series("1 + t", FieldTower(2, 2, 1, ("t",))), other),
        (parse_series("1 + t", KD), other),
        (NestedSeries.from_monomials(1, lift, [((0,), 1), ((1,), 1)]), other),
        (5, "expected a series, got int"),
        ("1 + t", "expected a series, got str"),
    ]
    for y, message in rows:
        with pytest.raises(TowerMismatch, match=re.escape(message)):
            eval_symbol(chi, [y])
    for y, _ in rows[:2]:
        with pytest.raises(TowerMismatch, match=re.escape(other)):
            schmid_symbol(parse_series("t^-3", K2), y)
    assert eval_symbol(chi, [parse_series("1 + t", K2)]) == 1


def test_symbol_entry_zero_within_an_inner_window_is_not_a_zero_entry():
    """An entry whose only coefficient is zero within an inner window is
    unknown, not zero."""
    dom = KD.field_domain
    y = NestedSeries(2, dom, {-1: NestedSeries.zero(1, dom, 3)})
    with pytest.raises(PrecisionExhausted, match="zero within its window") as err:
        eval_symbol(char_of(KD, ["t^-1"]), [parse_series("t", KD), y])
    assert err.value.exponent == -1  # the top exponent of the unknown coefficient


def test_zero_within_a_window_is_unknown_and_an_exact_zero_is_zero():
    """A series zero only within a window raises ``PrecisionExhausted``
    naming its window, where an exact zero keeps ``ZeroInput`` or
    ``ZeroEntry``: the conductor (through ``NestedSeries.ord``), ``dlog``
    and the Schmid oracle, each on both kinds of zero."""
    kd3 = FieldTower(3, 1, 1, ("u", "t"))
    dom, dom3 = K2.field_domain, kd3.field_domain
    unknown = NestedSeries(2, dom3, {-5: NestedSeries.zero(1, dom3, 1)}, 1)  # (0 + O(u)) t^-5 + O(t)
    window, zero = NestedSeries.zero(1, dom, 5), NestedSeries.zero(1, dom)
    ambiguous = "order is ambiguous: the lowest stored coefficient (exponent -5)"
    rows = [
        (lambda: witt.swan_conductor(WittVector(kd3, (unknown,))), PrecisionExhausted, ambiguous, -5),
        (lambda: witt.swan_conductor(WittVector(kd3, (unknown + parse_series("t^-2", kd3),))),
         PrecisionExhausted, ambiguous, -5),
        (lambda: window.ord(), PrecisionExhausted, "zero below its window ceiling 5", 5),
        (lambda: NestedSeries.zero(2, dom3, 3).ord(), PrecisionExhausted, "ceiling 3", 3),
        (lambda: zero.ord(), ZeroInput, "ord of zero", None),
        (lambda: dlog(window, 8), PrecisionExhausted, "zero within its window", 5),
        (lambda: dlog(zero, 8), ZeroInput, "dlog of zero", None),
        (lambda: schmid_symbol(parse_series("t^-3", K2), window), PrecisionExhausted,
         "zero within its window", 5),
        (lambda: schmid_symbol(parse_series("t^-3", K2), zero), ZeroEntry, "must be nonzero", None),
    ]
    for call, kind, message, exponent in rows:
        with pytest.raises(kind, match=re.escape(message)) as err:
            call()
        assert getattr(err.value, "exponent", None) == exponent, message


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
    the library computed it before it read the residue of the scaled form
    ``(theta ^ dy~_1 ^ ... ^ dy~_d) * prod_i y~_i^-1``: the same widths (the
    width theta opens, then the budget), the same residue."""
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
    so the residue of the scaled form refuses at both widths.  The dlog
    forms answer, with the value of the exact completion."""
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


def refusal_outcome(fn, *args):
    """The value of ``fn(*args)``, or the type, message and exponent of
    what it raised."""
    try:
        return fn(*args)
    except RswanError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "exponent", None)


def symbol_outcome(fn, *args):
    try:
        return fn(*args)
    except RswanError as exc:
        return type(exc).__name__


def test_symbol_route_answers_what_the_dlog_route_answers():
    """Random symbols over p = 2, 3, 5, k = 1, 2, s = 1-3, d = 1, 2, exact
    and windowed, at budgets 6, 12 and 64.  Wherever the dlog route
    answers, ``_symbol_value`` (the residue of the scaled form, then its
    dlog fallback) gives the same value; every answer equals the dlog
    route's on an exact completion of the inputs at budget 512, and some
    symbols the dlog route refused now answer."""
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


# ----------------------------------------------- Artin reciprocity on P^1

def teichmueller_weight(values, p, s):
    """``w(x_0, ..., x_{s-1}) = sum_i p^i [x_i] mod p^s`` for components in
    print order, ``[x] = x~^(p^(s-1)) mod p^s`` the Teichmueller lift."""
    modulus = p**s
    return sum(p**i * pow(x, p ** (s - 1), modulus) for i, x in enumerate(values)) % modulus


def test_symbols_obey_reciprocity_on_the_projective_line():
    """A vector ``f`` with components in ``F_p[t^-1]`` is a global
    character of ``F_p(t)``, unramified away from t = 0; for ``y = t^a
    prod_alpha (t - alpha)^m_alpha``, alpha in ``F_p^x``, the local symbols
    sum to 0 over the places, and at a place v other than 0 ``chi_v(y) =
    ord_v(y) w(f(v))`` (``teichmueller_weight``), so

        eval_symbol(chi, [y]) = -sum_alpha m_alpha w(f(alpha)) + deg(y) w(f(oo))

    in Z/p^s (H. L. Schmid and E. Witt, J. reine angew. Math. 176 (1936);
    J.-P. Serre, Algebraic Groups and Class Fields, the residue theorem).
    The right side needs only the components' values at points of ``F_p``:
    no series, window or Witt sum.  Over p = 2, 3, 5 and s = 1-3 at k = 1,
    on entries with roots and bare powers ``t^a``; some expected values are
    nonzero and some units, at s >= 2 too."""
    rng = random.Random(2501)
    seen = Counter()
    for p, s in itertools.product((2, 3, 5), (1, 2, 3)):
        tower = FieldTower(p, 1, s, ("t",), precision=4 * p ** (s - 1) + 2)
        dom = tower.field_domain
        modulus = p**s
        for idx in range(80):
            printed = [{j: rng.randrange(p) for j in range(rng.randint(0, 4))} for _ in range(s)]
            chi = WittVector.from_print_order(tower, tuple(
                NestedSeries.from_monomials(1, dom, [((-j,), c) for j, c in comp.items() if c])
                for comp in printed))
            if witt.swan_conductor(asw_reduce(chi)) == 0:
                continue

            def w_at(alpha):  # w(f(alpha)), alpha = None for the place at infinity
                return teichmueller_weight([
                    comp.get(0, 0) if alpha is None
                    else sum(c * pow(alpha, -j, p) for j, c in comp.items()) % p
                    for comp in printed], p, s)

            a = rng.randint(1, 2 * p + 1)
            roots = {} if idx % 4 == 0 else {
                alpha: rng.randint(1, 3) for alpha in rng.sample(range(1, p), rng.randint(1, p - 1))}
            y = NestedSeries.from_monomials(1, dom, [((a,), 1)])
            for alpha, mult in roots.items():
                y = y * NestedSeries.from_monomials(1, dom, [((1,), 1), ((0,), p - alpha)]).pow(mult)
            degree = a + sum(roots.values())
            want = (degree * w_at(None) - sum(m * w_at(alpha) for alpha, m in roots.items()))
            assert eval_symbol(chi, [y]) == want % modulus, (p, s, printed, a, roots)
            kind = "monomial" if not roots else "roots"
            seen[kind] += 1
            seen[kind, "nonzero" if want % modulus else "zero"] += 1
            if want % p:
                seen[kind, "unit"] += 1
                seen["unit at s >= 2"] += s >= 2
    assert seen["roots", "nonzero"] > 250 and seen["roots", "unit"] > 150, seen
    assert seen["monomial", "nonzero"] > 80 and seen["monomial", "unit"] > 40, seen
    assert seen["unit at s >= 2"] > 150, seen


def test_symbols_obey_reciprocity_on_the_projective_line_over_f_q():
    """The reciprocity law of ``test_symbols_obey_reciprocity_on_the_projective_line``
    at k = 2: ``f`` has components in ``F_q[t^-1]`` and ``y = t^a
    prod_alpha (t - alpha)^m_alpha`` has its roots ``alpha`` in ``F_q^x``.
    The local symbol at a place of degree 1 is now the trace to Z/p^s of
    ``sum_i p^i [x_i^(p^-i)]`` in the Galois ring, and the trace is
    Frobenius-invariant, so the p-th roots drop out:

        eval_symbol(chi, [y]) = Tr(deg(y) w(f(oo)) - sum_alpha m_alpha w(f(alpha)))

    with ``w(x) = sum_i p^i [x_i]`` (components in print order) and ``[x] =
    x~^(q^(s-1))`` the Teichmueller lift in the tower's lift ring.  Over p =
    2, 3, 5 and s = 1-4, on entries with roots and bare powers ``t^a``; the
    theta lift's ghost sums run on the packed kernel here."""
    rng = random.Random(2502)
    seen = Counter()
    for p, s in itertools.product((2, 3, 5), (1, 2, 3, 4)):
        tower = FieldTower(p, 2, s, ("t",), precision=4 * p ** (s - 1) + 2)
        dom, big = tower.field_domain, tower.lift_domain
        modulus, q = p**s, p * p
        nonzero = [x for x in itertools.product(range(p), repeat=2) if any(x)]
        for idx in range(40):
            printed = [{j: dom.random(rng) for j in range(rng.randint(0, 4))} for _ in range(s)]
            chi = WittVector.from_print_order(tower, tuple(
                NestedSeries.from_monomials(1, dom, [((-j,), c) for j, c in comp.items() if any(c)])
                for comp in printed))
            if witt.swan_conductor(asw_reduce(chi)) == 0:
                continue

            def w_at(alpha):  # w(f(alpha)) in the lift ring, alpha = None for infinity
                w = big.zero()
                for i, comp in enumerate(printed):
                    if alpha is None:
                        x = comp.get(0, dom.zero())
                    else:
                        x = dom.zero()
                        for j, c in comp.items():
                            x = dom.add(x, dom.mul(c, dom.pow(alpha, -j)))
                    teich = big.pow(big.lift_from_field(x), q ** (s - 1))
                    w = big.add(w, big.mul_int(teich, p**i))
                return w

            a = rng.randint(1, 2 * p + 1)
            roots = {} if idx % 4 == 0 else {
                alpha: rng.randint(1, 3) for alpha in rng.sample(nonzero, rng.randint(1, p))}
            y = NestedSeries.from_monomials(1, dom, [((a,), dom.one())])
            for alpha, mult in roots.items():
                y = y * NestedSeries.from_monomials(
                    1, dom, [((1,), dom.one()), ((0,), dom.neg(alpha))]).pow(mult)
            total = big.mul_int(w_at(None), a + sum(roots.values()))
            for alpha, mult in roots.items():
                total = big.sub(total, big.mul_int(w_at(alpha), mult))
            want = big.trace(total) % modulus
            assert eval_symbol(chi, [y]) == want, (p, s, printed, a, roots)
            seen["symbols"] += 1
            seen["nonzero"] += want != 0
            seen["unit"] += want % p != 0
            seen["unit at s >= 2"] += s >= 2 and want % p != 0
            seen["monomial" if not roots else "roots"] += 1
    assert seen["symbols"] > 350 and seen["nonzero"] > 280 and seen["unit"] > 150, seen
    assert seen["unit at s >= 2"] > 100 and seen["monomial"] > 80, seen


def monomial_symbol(p, s, printed, a):
    """``eval_symbol`` of the vector with print-order components ``sum_j
    c t^-j`` (``printed``, one ``{j: c}`` per component) on ``[t^a]``."""
    tower = FieldTower(p, 1, s, ("t",))
    dom = tower.field_domain
    chi = WittVector.from_print_order(tower, tuple(
        NestedSeries.from_monomials(1, dom, [((-j,), c) for j, c in comp.items()])
        for comp in printed))
    return eval_symbol(chi, [NestedSeries.from_monomials(1, dom, [((a,), 1)])])


@pytest.mark.parametrize("p,s,printed,a,floor", [
    (2, 1, [{5001: 1}], -5999, -11000),
    (3, 1, [{4000: 1}], -7001, -11001),
    (5, 1, [{9001: 1}], -2003, -11004),
    (2, 1, [{5: 1, 0: 1}], -7, None),
    (3, 2, [{5: 1, 0: 1}, {}], -7, None),
    (5, 1, [{3: 2, 0: 3}], -7, None),
    (5, 2, [{5: 1, 1: 2, 0: 1}, {2: 1}], -2, None),
    (2, 1, [{4001: 1, 0: 1}], -5999, None),
    (3, 1, [{3000: 1, 0: 2}], -7000, None),
])
def test_one_monomial_entries_keep_the_exponent_floor(p, s, printed, a, floor):
    """A one-monomial entry ``t^a`` (a < 0) is lifted, differentiated,
    wedged and inverted like any other entry: a wedge with theta below the
    supported range refuses, naming the exponent, as every other product
    does, and in range, the floor -10000 itself included (``t^-4001`` on
    ``[t^-5999]``), the symbol equals the oracle of
    ``test_symbols_obey_reciprocity_on_the_projective_line``, ``deg(y)
    w(f(oo)) = a w(f(oo))``, nonzero on every case here."""
    if floor is not None:
        with pytest.raises(ExponentOutOfRange, match=f"exponent {floor} below"):
            monomial_symbol(p, s, printed, a)
        return
    want = a * teichmueller_weight([comp.get(0, 0) for comp in printed], p, s) % p**s
    assert want
    assert monomial_symbol(p, s, printed, a) == want


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


def partner_sampler(value, drawn):
    """Stand-ins for ``reciprocity._random_window_terms`` and
    ``reciprocity._window_term`` that draw one term per sample, appended to
    ``drawn``, from the partners of the monomials of ``Rsw(chi)``, by the
    partner rule of ``duality_matrix``: the monomial ``c u^a t^e dlog_K`` of
    the invariant pairs with ``c' u^-a t^-e dlog_K'``, ``K'`` the complement
    of ``K`` and ``c'`` a random nonzero scalar.  The product is ``c c'``
    times ``u^0 t^0 dlog u ^ dlog t`` up to sign, which ``r_b`` and the
    residue read; every other monomial of the invariant leaves the ``u^0
    t^0`` slot.  A partner's lower exponent can leave the sampler's range
    -2..2, so a code is the term's index in order of first draw, which the
    stand-in decoder reads back."""
    domain = value.window.form.domain
    monomials = [
        (key, exps)
        for key, coeff in sorted(value.window.form.coeffs.items())
        for exps, _ in coeff.iter_monomials()
    ]
    codes: dict = {}  # term -> code

    def draw(tower, rng, m, n, samples):
        batch = []
        for _ in range(samples):
            (lam,), (a, e) = rng.choice(monomials)
            drawn.append(((-a, -e), domain.random_nonzero(rng), (3 - lam,)))
            batch.append([codes.setdefault(drawn[-1], len(codes))])
        return batch

    def window_term(code, tower, m):
        return list(codes)[code]

    return draw, window_term


PARTNER_CELLS = [(p, s) for p in (3, 5) for s in (1, 2)]


@pytest.mark.parametrize("p,s", PARTNER_CELLS)
def test_partner_sampled_identity_checks_are_nonzero(monkeypatch, p, s):
    """The characterizing identity over F_p((u))((t)) on terms drawn from
    the partners of ``Rsw(chi)``'s monomials: every sample agrees, and more
    than 90% of the samples check a nonzero value (the catalog sampler
    checks a nonzero value on 4 of its 50 distinct d = 2 terms)."""
    tower = FieldTower(p, 1, s, ("u", "t"))
    dom = tower.field_domain
    rng = random.Random(f"partners:{p}:{s}")
    values = []
    symbol = reciprocity._LeftSide.symbol

    def recording(left, term):
        values.append(symbol(left, term))
        return values[-1]

    monkeypatch.setattr(reciprocity._LeftSide, "symbol", recording)
    checks = []  # the symbol value of each sample's one term
    while len(checks) < 200:
        printed = [
            NestedSeries.from_monomials(2, dom, [
                ((rng.randint(-2, 2), rng.randint(-4, 1)), dom.random_nonzero(rng))
                for _ in range(rng.randint(1, 3))
            ])
            for _ in range(s)
        ]
        chi = asw_reduce(WittVector.from_print_order(tower, printed))
        if witt.swan_conductor(chi) == 0:
            continue
        drawn = []
        values.clear()
        draw, window_term = partner_sampler(reciprocity.rsw_char_p(chi), drawn)
        monkeypatch.setattr(reciprocity, "_random_window_terms", draw)
        monkeypatch.setattr(reciprocity, "_window_term", window_term)
        report = verify_rsw_characterization(chi, 40, seed=len(checks))
        assert report.all_equal, report
        # each distinct term's symbol is evaluated once, at its first draw
        value_of = dict(zip(dict.fromkeys(drawn), values))
        checks += [value_of[term] for term in drawn]
    nonzero = sum(v != 0 for v in checks)
    assert nonzero > 0.9 * len(checks), (nonzero, len(checks))


def test_characterization_refuses_unramified():
    with pytest.raises(UnramifiedCharacter):
        verify_rsw_characterization(char_of(K2, ["t"]), samples=1)


@pytest.mark.parametrize("samples", [-5, 0, True, 2.5])
def test_characterization_refuses_a_sample_count_that_is_not_a_positive_int(samples):
    """A negative or zero count, a bool and a float are refused, as the
    loader refuses them; before, -5 reported -5 agreements as all equal, 0
    passed with nothing checked, True ran one sample and 2.5 raised a bare
    TypeError."""
    with pytest.raises(InconsistentValue, match="samples must be a positive integer"):
        verify_rsw_characterization(char_of(K2, ["t^-3"]), samples)


def test_characterization_covers_low_dimensions_only():
    K3d = FieldTower(2, 1, 1, ("v", "u", "t"))
    chi = char_of(K3d, ["t^-1"])
    with pytest.raises(InconsistentValue):
        verify_rsw_characterization(chi, samples=1)


# ---------------------------------------------------------- the term draws

def randint_draw_oracle(tower, rng, m, n):
    """The term draw of one sample through ``randint`` and
    ``random_nonzero``, as the library drew it before ``reciprocity._below``."""
    d_level = tower.d
    terms = []
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(m + 1, n)
        c = tower.field_domain.random_nonzero(rng)
        lower = tuple(rng.randint(-2, 2) for _ in range(d_level - 1))
        key = () if d_level == 1 else (rng.randint(1, d_level),)
        terms.append((lower + (i,), c, key))
    return terms


def decoded(tower, m, batch):
    """The raw terms of a batch of term codes, sample by sample."""
    return [[reciprocity._window_term(code, tower, m) for code in codes] for codes in batch]


@pytest.mark.parametrize("p", (2, 3, 5))
def test_term_draws_take_the_bits_of_the_randint_draws(p):
    """One batch call, decoded, gives the terms of as many successive
    per-sample ``randint`` draws and leaves the generator in their state,
    over 200 seeds, k = 1, 2, 3, d = 1, 2, windows of width 1 (n - m = 1)
    up and 1 to 4 samples a call."""
    for k in (1, 2, 3):
        for variables in (("t",), ("u", "t")):
            tower = FieldTower(p, k, 1, variables)
            for seed in range(200):
                ours, theirs = random.Random(seed), random.Random(seed)
                samples = 1 + seed % 4
                for m, n in ((0, 1), (3, 4), (1, 5), (4, 40)):
                    batch = reciprocity._random_window_terms(tower, ours, m, n, samples)
                    assert decoded(tower, m, batch) == [
                        randint_draw_oracle(tower, theirs, m, n) for _ in range(samples)
                    ], (k, variables, seed, m, n)
                    assert ours.getstate() == theirs.getstate(), (k, variables, seed, m, n)


class ScriptedBits:
    """A generator whose ``getrandbits`` returns the values of a script in
    turn, each checked to fit the bits asked for."""

    def __init__(self, script):
        self.script = list(script)

    def getrandbits(self, k):
        value = self.script.pop(0)
        assert 0 <= value < 2**k, (value, k)
        return value


def window_code(draw, tower, m, n, term):
    """The code that the batch draw ``draw`` gives the raw term ``term`` of
    the window ``(m, n]``: one sample drawn from the bits that pick it (a
    count of one term, its top offset, its coefficient's digits, each lower
    exponent plus 2 and its key minus 1), so no radix is restated here."""
    exps, c, key = term
    digits = [c] if tower.k == 1 else list(c)
    rng = ScriptedBits([0, exps[-1] - m - 1, *digits,
                        *(e + 2 for e in exps[:-1]), *(lam - 1 for lam in key)])
    (code,), = draw(tower, rng, m, n, 1)
    assert not rng.script, term
    return code


def every_window_term(tower, m, n):
    """Every raw term the sampler can draw in the window ``(m, n]``."""
    p, k, d_level = tower.p, tower.k, tower.d
    scalars = range(1, p) if k == 1 else [
        c for c in itertools.product(range(p), repeat=k) if any(c)
    ]
    keys = [()] if d_level == 1 else [(lam,) for lam in range(1, d_level + 1)]
    for top in range(m + 1, n + 1):
        for lower in itertools.product(range(-2, 3), repeat=d_level - 1):
            for c in scalars:
                for key in keys:
                    yield lower + (top,), c, key


def test_term_codes_are_injective_and_decode_to_their_terms():
    """Every term of small windows (p = 2, 3, 5; k = 1, 2; d = 1, 2; n - m =
    1 to 4) drawn from scripted bits: distinct terms get distinct codes, and
    each code decodes to its term, so no two terms share an entry of the
    check's table, drawn by a seed or not."""
    for p, k, variables in itertools.product((2, 3, 5), (1, 2), (("t",), ("u", "t"))):
        tower = FieldTower(p, k, 1, variables)
        for width in range(1, 5):
            m, n = width + 1, 2 * width + 1
            terms = list(every_window_term(tower, m, n))
            codes = [window_code(reciprocity._random_window_terms, tower, m, n, term)
                     for term in terms]
            assert len(set(codes)) == len(terms), (p, k, variables, width)
            assert [reciprocity._window_term(code, tower, m) for code in codes] == terms, \
                (p, k, variables, width)


def recording_draw(drawn):
    """Wrap ``reciprocity._random_window_terms`` so that every call adds the
    raw terms it drew to the set ``drawn``, after checking them against
    ``randint_draw_oracle`` on a twin of the generator."""
    draw = reciprocity._random_window_terms

    def recording(tower, rng, m, n, samples):
        twin = random.Random()
        twin.setstate(rng.getstate())
        batch = draw(tower, rng, m, n, samples)
        terms = decoded(tower, m, batch)
        assert terms == [randint_draw_oracle(tower, twin, m, n) for _ in range(samples)]
        drawn.update(term for sample in terms for term in sample)
        return batch

    return recording


def recording_pairings(monkeypatch):
    """The list to which every ``reciprocity._pairing`` call appends its term."""
    paired = []
    pairing = reciprocity._pairing

    def recording(window, term):
        paired.append(term)
        return pairing(window, term)

    monkeypatch.setattr(reciprocity, "_pairing", recording)
    return paired


# ------------------------------------- the unmemoized characterization loop

def uncached_characterization_oracle(char, samples, seed=0, reshape=None):
    """The characterization loop without its per-call dict of terms and
    without additivity: every term's series, symbol and Schmid oracle value
    built afresh, and every sample's whole summed alpha paired at once, so
    the library's per-term pairings are checked against the pairing of the
    sum.  The samples are drawn one by one through ``randint_draw_oracle``,
    each passed through ``reshape(tower, m, n, terms)`` when given, so the
    loop shares no sampler with the library; the other helpers are looked
    up on the module, so a monkeypatched one reaches both this loop and the
    library's.  Returns the report and the distinct terms in order of first
    draw, which the library must pair one by one in that order."""
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
    drawn = []
    for idx in range(samples):
        raw = randint_draw_oracle(tower, rng, m, n)
        if reshape is not None:
            raw = reshape(tower, m, n, raw)
        drawn += raw
        terms = [
            (NestedSeries.from_monomials(tower.d, tower.field_domain, [(exps, c)]), key)
            for exps, c, key in raw
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
    report = CharacterizationReport(
        n=n, m=m, b=b, samples=samples, agreements=agreements,
        schmid_checked=schmid_checked, mismatches=tuple(mismatches[:10]),
    )
    return report, list(dict.fromkeys(drawn))


def catalog_reciprocity_cells(p):
    """(label, character, samples) for every check-all reciprocity task at p."""
    config = cli.load_config(catalog.canned_config(p))
    return [
        (task["character"], config.characters[task["character"]], task["samples"])
        for task in config.tasks
        if task["task"] == "reciprocity"
    ]


@pytest.mark.parametrize("p", catalog.CATALOG_PRIMES)
def test_characterization_matches_uncached_oracle_on_the_catalog(p, monkeypatch):
    paired = recording_pairings(monkeypatch)
    for label, char, samples in catalog_reciprocity_cells(p):
        for seed in range(5):
            paired.clear()
            report = verify_rsw_characterization(char, samples, seed=seed)
            assert (report, paired) == uncached_characterization_oracle(char, samples, seed), \
                (label, seed)
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
    paired = recording_pairings(monkeypatch)
    kinds = set()
    for label, char, samples in catalog_reciprocity_cells(p):
        for seed, count in ((0, 3), (1, samples)):
            paired.clear()
            report = verify_rsw_characterization(char, count, seed=seed)
            assert (report, paired) == uncached_characterization_oracle(char, count, seed), \
                (label, seed)
            kinds |= {entry["kind"] for entry in report.mismatches}
        assert not report.all_equal, label
    assert kinds == {"identity", "schmid-oracle"}


@pytest.mark.parametrize("p", catalog.CATALOG_PRIMES)
def test_characterization_reports_schmid_mismatches_alone(p, monkeypatch):
    """An off-by-one Schmid value with the identity intact: every sample
    agrees, yet the report lists the oracle mismatches, equal to the
    unmemoized loop's."""
    schmid = reciprocity.schmid_symbol
    monkeypatch.setattr(reciprocity, "schmid_symbol", lambda f, y: schmid(f, y) + 1)
    paired = recording_pairings(monkeypatch)
    checked = 0
    for label, char, samples in catalog_reciprocity_cells(p):
        paired.clear()
        report = verify_rsw_characterization(char, samples, seed=1)
        assert (report, paired) == uncached_characterization_oracle(char, samples, 1), label
        assert report.agreements == samples, label
        if report.schmid_checked:
            checked += 1
            assert {entry["kind"] for entry in report.mismatches} == {"schmid-oracle"}, label
    assert checked


@pytest.mark.parametrize("p", catalog.CATALOG_PRIMES)
def test_characterization_evaluates_each_distinct_symbol_once(p, monkeypatch):
    """One symbol (one ``_LeftSide.symbol``) and one pairing (one
    ``_pairing``) per distinct drawn term."""
    drawn = set()
    calls = {"symbol": 0, "_pairing": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def call(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, call)

    monkeypatch.setattr(reciprocity, "_random_window_terms", recording_draw(drawn))
    counting(reciprocity._LeftSide, "symbol")
    counting(reciprocity, "_pairing")
    for label, char, samples in catalog_reciprocity_cells(p):
        drawn.clear()
        calls.update(dict.fromkeys(calls, 0))
        verify_rsw_characterization(char, samples, seed=3)
        assert calls["symbol"] == calls["_pairing"] == len(drawn) < samples, label



# ------------------------------------- the right side off Rsw's coefficients

def operator_pairing(window, term, b):
    """``Res_F(r_b(window ^ alpha))`` for the raw term ``(exps, c, key)``,
    through ``wedge_windowed``, ``r_b`` and the residue-plus-trace map."""
    exps, c, key = term
    form = window.form
    x = NestedSeries.from_monomials(form.level, form.domain, [(exps, c)])
    alpha = WindowedForm(LogForm(form.level, form.domain, form.level - 1, {key: x}),
                         -window.m - 1, -window.n - 1)
    return residue_to_prime_field(r_b(wedge_windowed(window, alpha), b), form.domain)


def window_terms(window, scalars, beyond=0):
    """Every term ``(exps, c, key)`` of the dual window of ``window`` with
    ``c`` in ``scalars``, a top exponent in ``[m + 1, n]`` (widened by
    ``beyond`` on each side) and lower exponents that meet each stored
    monomial of the representative and miss it (``-3 .. 3`` and the
    negated stored ones)."""
    level = window.form.level
    lower = set(range(-3, 4))
    for series in window.form.coeffs.values():
        for exps, _ in series.iter_monomials():
            lower.update(-e for e in exps[:-1])
    keys = [()] if level == 1 else [(lam,) for lam in range(1, level + 1)]
    for top in range(window.m + 1 - beyond, window.n + 1 + beyond):
        for rest in ([()] if level == 1 else [(e,) for e in sorted(lower)]):
            for c in scalars:
                for key in keys:
                    yield rest + (top,), c, key


def test_pairing_matches_the_operators_on_random_characters():
    """``_pairing`` equals ``r_b`` through the operators on every term of
    the window of ``Rsw(chi)``, for random characters over p = 2, 3, 5,
    k = 1, 2, s = 1-3 and d = 1, 2 (conductors up to 30), at the minimal
    ``b``: keys the invariant lacks, coefficients it lacks and nonzero
    values all occur."""
    rng = random.Random(4301)
    seen = Counter()
    for p, k, s, d_level in SYMBOL_TOWER_CELLS:
        tower = FieldTower(p, k, s, ("t",) if d_level == 1 else ("u", "t"))
        dom = tower.field_domain
        chars = 0
        while chars < 2:
            printed = [
                NestedSeries.from_monomials(d_level, dom, [
                    (tuple(rng.randint(-2, 2) for _ in range(d_level - 1)) + (rng.randint(-6, 1),),
                     dom.random_nonzero(rng))
                    for _ in range(rng.randint(1, 3))
                ])
                for _ in range(s)
            ]
            chi = asw_reduce(WittVector.from_print_order(tower, printed))
            if not 0 < witt.swan_conductor(chi) <= 30:  # a wider window only runs longer
                continue
            chars += 1
            window = reciprocity.rsw_char_p(chi).window
            b = minimal_b(p, window.width)
            for term in window_terms(window, [dom.random_nonzero(rng)]):
                want = operator_pairing(window, term, b)
                assert reciprocity._pairing(window, term) == want, (chi, term)
                partner = tuple(v for v in range(1, d_level + 1) if v not in term[2])
                seen["nonzero" if want else "absent key" if partner not in window.form.coeffs
                     else "zero"] += 1
    assert seen["nonzero"] > 100 and seen["absent key"] > 100 and seen["zero"] > 1000, seen


def test_pairing_gives_the_operators_refusals_on_inner_windows():
    """A representative built through the API, with inner windows on the
    coefficients read and an inner exponent next to the supported floor,
    paired at the minimal ``b`` with every term of its dual window:
    ``_pairing`` gives the operators' value, raises
    :class:`PrecisionExhausted` where they do (a window on the path decides
    it; the message names the coefficient's own ceiling, not the
    product's), and answers where their product leaves the supported range
    and raises :class:`ExponentOutOfRange`, as it forms no product."""
    rng = random.Random(4302)
    seen = Counter()
    for p in (2, 3, 5):
        dom = FieldTower(p, 1, 1, ("u", "t")).field_domain

        def inner(coeffs, ceiling=None):
            return NestedSeries(1, dom, {e: dom.from_int(c) for e, c in coeffs.items()}, ceiling)

        form = LogForm(2, dom, 1, {
            (1,): NestedSeries(2, dom, {-4: inner({-1: 1, 0: 2}, 2), -3: inner({2: 1}, 3),
                                        -2: inner({}, 1)}),
            (2,): NestedSeries(2, dom, {-4: inner({FLOOR + 1: 1}), -3: inner({0: 1, 1: 2}),
                                        -2: inner({-1: 1}, 4)}),
        })
        window = WindowedForm(form, 4, 1)
        b = minimal_b(p, window.width)
        scalars = [dom.from_int(rng.randint(1, p - 1)) for _ in range(2)]
        for term in window_terms(window, scalars):
            want = refusal_outcome(operator_pairing, window, term, b)
            got = refusal_outcome(reciprocity._pairing, window, term)
            if not isinstance(want, tuple):
                assert got == want, term
                seen["nonzero" if want else "zero"] += 1
            elif want[0] == "PrecisionExhausted":
                assert isinstance(got, tuple) and got[0] == want[0], (term, got)
                seen[want[0]] += 1
            else:
                assert want[0] == "ExponentOutOfRange" and isinstance(got, int), (term, want, got)
                seen["answered past the operators' floor"] += 1
    assert seen["nonzero"] and seen["zero"] and seen["PrecisionExhausted"], seen
    assert seen["answered past the operators' floor"], seen


@pytest.mark.parametrize("p", catalog.CATALOG_PRIMES)
def test_characterization_inverts_each_exponential_once_per_width(p, monkeypatch):
    """On the catalog cell of most variables and samples at p, over seeds
    0-29, with every term handed off to ``_symbol_value``: inside each
    symbol, its entries, ``E(x)`` and then its ``T_lambda``, are inverted
    in order once per width tried (every catalog symbol answers at the
    first width, so once) and nothing else is; and the report equals the
    unmemoized loop's.  Each symbol is evaluated on its own, so an ``E(x)``
    that two symbols hold (one term on both dlog keys at d = 2) is inverted
    in each."""
    label, char, samples = max(
        catalog_reciprocity_cells(p), key=lambda cell: (cell[1].tower.d, cell[2])
    )
    big = char.tower.lift_domain
    symbol_value, inv = reciprocity._symbol_value, NestedSeries.inv
    state = {"recording": False, "inside": False, "depth": 0}
    entries = []  # the entries of each evaluated symbol, in order
    inverted = []  # the series of each outermost inverse inside a symbol

    def recording_symbol(theta, tower, ys):
        if not state["recording"]:
            return symbol_value(theta, tower, ys)
        entries.extend(ys)
        state["inside"] = True
        try:
            return symbol_value(theta, tower, ys)
        finally:
            state["inside"] = False

    def recording_inv(self, precision=None):
        if state["inside"] and state["depth"] == 0:
            inverted.append(self)
        state["depth"] += 1
        try:
            return inv(self, precision)
        finally:
            state["depth"] -= 1

    monkeypatch.setattr(reciprocity, "_symbol_value", recording_symbol)
    monkeypatch.setattr(reciprocity._LeftSide, "reads", lambda left, exps: False)
    monkeypatch.setattr(NestedSeries, "inv", recording_inv)
    paired = recording_pairings(monkeypatch)
    for seed in range(30):
        entries.clear()
        inverted.clear()
        paired.clear()
        state["recording"] = True
        report = verify_rsw_characterization(char, samples, seed=seed)
        state["recording"] = False
        assert inverted and inverted == [lift_series(y, big) for y in entries], (label, seed)
        assert (report, paired) == uncached_characterization_oracle(char, samples, seed), \
            (label, seed)


def test_characterization_builds_each_exponential_once(monkeypatch):
    """One left-side sum ``sum_j Q_j theta[-j exps]`` (one ``_left_sum``)
    per distinct ``(exps, c)``, shared by its dlog keys, and no ``E(x)``
    built, as no term is handed off and no Schmid oracle runs: on the d = 2
    catalog characters some monomial is drawn with both keys."""
    drawn = set()
    calls = []
    built = []
    left_sum, exp = reciprocity._left_sum, reciprocity.truncated_exp

    def counting_sum(theta, tower, exps, c):
        calls.append((exps, c))
        return left_sum(theta, tower, exps, c)

    monkeypatch.setattr(reciprocity, "_random_window_terms", recording_draw(drawn))
    monkeypatch.setattr(reciprocity, "_left_sum", counting_sum)
    monkeypatch.setattr(reciprocity, "truncated_exp", lambda x: built.append(x) or exp(x))
    paired = recording_pairings(monkeypatch)
    shared = 0
    for p in catalog.CATALOG_PRIMES:
        for label, char, samples in catalog_reciprocity_cells(p):
            if char.tower.d != 2:
                continue
            drawn.clear()
            calls.clear()
            paired.clear()
            report = verify_rsw_characterization(char, samples, seed=0)
            assert (report, paired) == uncached_characterization_oracle(char, samples, 0), label
            monomials = {(exps, c) for exps, c, _ in drawn}
            assert len(calls) == len(monomials) == len(set(calls)), label
            assert not built, label
            shared += len(drawn) - len(monomials)
    assert shared > 0


# ------------------------------------ the left side off theta's coefficients

def test_left_side_matches_the_symbols_on_random_characters():
    """``_LeftSide.symbol`` equals ``_symbol_value`` on ``{E(x), T_key}``
    for the sampler's terms of random characters over p = 2, 3, 5, k = 1, 2,
    s = 1-3 and d = 1, 2, with poles down to -8 in the components, at the
    default budget: every term is read off theta (a theta whose poles,
    ``p^i`` times a component's, open more than the budget is redrawn), and
    nonzero values at both dlog keys and zero values all occur."""
    rng = random.Random(4601)
    seen = Counter()
    for p, k, s, d_level in SYMBOL_TOWER_CELLS:
        tower = FieldTower(p, k, s, ("t",) if d_level == 1 else ("u", "t"))
        dom = tower.field_domain
        chars = 0
        while chars < 3 * d_level:
            printed = [
                NestedSeries.from_monomials(d_level, dom, [
                    (tuple(rng.randint(-2, 2) for _ in range(d_level - 1)) + (rng.randint(-8, 1),),
                     dom.random_nonzero(rng))
                    for _ in range(rng.randint(1, 3))
                ])
                for _ in range(s)
            ]
            chi = asw_reduce(WittVector.from_print_order(tower, printed))
            theta, n = theta_lift(chi), witt.swan_conductor(chi)
            left = reciprocity._LeftSide(theta, tower)
            if n == 0 or left.opened > tower.precision:
                continue
            chars += 1
            m = n // p
            draws = reciprocity._random_window_terms(tower, rng, m, n, 8)
            for code in sorted({code for codes in draws for code in codes}):
                term = exps, c, key = reciprocity._window_term(code, tower, m)
                x = NestedSeries.from_monomials(d_level, dom, [(exps, c)])
                ys = [truncated_exp(x)] + [NestedSeries.variable(d_level, dom, lam) for lam in key]
                want = reciprocity._symbol_value(theta, tower, ys)
                assert left.reads(exps) and left.symbol(term) == want, (chi, term)
                seen[f"nonzero {key}" if want else "zero"] += 1
    assert seen["nonzero ()"] > 100 and seen["nonzero (1,)"] > 20, seen
    assert seen["nonzero (2,)"] > 20 and seen["zero"] > 1000, seen


LEFT_SIDE_CASES = [
    # (p, variables, budget, components, ceiling, handed off)
    (3, ("t",), 5, ["t^-4"], None, False),  # least exponent 1 - budget
    (3, ("t",), 5, ["t^-5"], None, True),  # least exponent -budget
    (3, ("t",), 4, ["t^-8"], None, True),  # the general path refuses
    (3, ("u", "t"), 5, ["u^-4*t^-1 + t^-2"], None, False),
    (3, ("u", "t"), 5, ["u^-5*t^-1 + t^-2"], None, True),
    (2, ("t",), 5, ["t^-1", "t^-3"], None, False),
    (3, ("t",), 5, ["t^-4 + t"], 3, True),  # a windowed character
    (3, ("u", "t"), 64, ["u*t^-4 + t^-1"], 2, True),
]


@pytest.mark.parametrize("p,variables,budget,texts,ceiling,handed_off", LEFT_SIDE_CASES)
def test_left_side_hands_off_windows_and_widths_past_the_budget(
        monkeypatch, p, variables, budget, texts, ceiling, handed_off):
    """On towers with a small budget, a ``theta`` whose least exponent is
    ``1 - budget`` is read off its coefficients, and every term of one at
    ``-budget`` or below, or of a windowed character, is handed to
    ``_symbol_value``; each check gives the report, or the refusal (type,
    message, exponent), of the unmemoized loop, which evaluates every
    symbol through ``_symbol_value`` as the check did before it read
    symbols off ``theta``."""
    tower = FieldTower(p, 1, len(texts), variables, precision=budget)
    printed = [parse_series(text, tower) for text in texts]
    if ceiling is not None:
        printed = [sr.truncate(ceiling) for sr in printed]
    chi = Character(WittVector.from_print_order(tower, printed))
    calls = Counter()
    symbol, symbol_value = reciprocity._LeftSide.symbol, reciprocity._symbol_value
    monkeypatch.setattr(reciprocity._LeftSide, "symbol",
                        lambda *args: calls.update(["site"]) or symbol(*args))
    monkeypatch.setattr(reciprocity, "_symbol_value",
                        lambda *args: calls.update(["handed"]) or symbol_value(*args))
    got = refusal_outcome(verify_rsw_characterization, chi, 30, 4)
    assert calls["site"] and calls["handed"] == (calls["site"] if handed_off else 0), calls
    want = refusal_outcome(uncached_characterization_oracle, chi, 30, 4)
    assert got == (want if isinstance(want[0], str) else want[0])


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


def _repeat_and_cancel(tower, m, n, terms):
    """A sample's raw terms, then the negative of its first term (the two
    cancel in alpha), a second term on the first term's dlog key at another
    exponent, the first term once more and, over two variables, the first
    term's monomial on the other dlog key."""
    exps, c, key = terms[0]
    top = m + 1 + (exps[-1] - m) % (n - m)  # another exponent in [m+1, n] when n > m + 1
    terms = terms + [(exps, tower.field_domain.neg(c), key), (exps[:-1] + (top,), c, key),
                     terms[0]]
    if key:
        terms.append((exps, c, (3 - key[0],)))
    return terms


def _repeating_and_cancelling(draw):
    """Wrap the batch draw so that every sample holds the terms of
    ``_repeat_and_cancel``, each coded by ``draw`` itself."""

    def wrapped(tower, rng, m, n, samples):
        return [
            [window_code(draw, tower, m, n, term) for term in _repeat_and_cancel(tower, m, n, terms)]
            for terms in decoded(tower, m, draw(tower, rng, m, n, samples))
        ]

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
    paired = recording_pairings(monkeypatch)
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(
                reciprocity, "_random_window_terms",
                _repeating_and_cancelling(reciprocity._random_window_terms),
            )
        reshape = _repeat_and_cancel if forced else None
        for seed in range(3):
            paired.clear()
            report = verify_rsw_characterization(chi, 30, seed=seed)
            assert (report, paired) == uncached_characterization_oracle(chi, 30, seed, reshape), \
                (forced, seed)
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
