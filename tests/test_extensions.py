"""Embeddings between towers: pullbacks, torsion depth, conductor change.

Oracles used here:
  * pullback values on monomials are frozen from hand-expanded images
    (t^2 under t -> u^2(1+u) is u^4 + u^6 over F_2);
  * torsion depths are hand-computed from dlog of the uniformizer image
    (2 dlog u dies mod 2, so t -> u^2(1+u) leaves u/(1+u) dlog u, depth 1);
  * conductor-change rows replay the pinned catalog examples end to end;
  * the ratio families are checked against the closed forms n - 1/t and
    n - 1/e that the decomposition gate predicts, not just boundedness.
"""

import random
from fractions import Fraction

import pytest

from rswan import extensions, logdiff
from rswan.errors import (
    ExponentOutOfRange,
    NonEmbedding,
    NonPerfectBase,
    PrecisionExhausted,
    RswanError,
    TowerMismatch,
)
from rswan.extensions import (
    ConductorChangeReport,
    ExtensionMap,
    _planned_ceilings,
    conductor_change,
    curve_restriction_ratios,
    delta_tor,
    imperfect_residue_family,
    perfect_residue_ratios,
    pullback_character,
    pullback_series,
    ramification_index,
)
from rswan.logdiff import LogForm, WindowedForm, dlog, log_derivative, wedge
from rswan.parser import parse_series
from rswan.ratfunc import rat_func_domain
from rswan.rsw import rsw_char_p
from rswan.series import NestedSeries
from rswan.substitution import series_substitute
from rswan.tower import FieldTower
from rswan.witt import Character, WittVector, asw_reduce, swan_conductor

K2 = FieldTower(2, 1, 1, ("t",))
L2 = FieldTower(2, 1, 1, ("u",))
K3 = FieldTower(3, 1, 1, ("t",))
L3 = FieldTower(3, 1, 1, ("u",))
K2s2 = FieldTower(2, 1, 2, ("t",))
L2s2 = FieldTower(2, 1, 2, ("u",))
KD = FieldTower(2, 1, 1, ("u", "t"))
LD = FieldTower(2, 1, 1, ("v", "w"))


def wild_map():
    return ExtensionMap(K2, L2, {"t": parse_series("u^2*(1+u)", L2)})


def tame_map():
    return ExtensionMap(K2, L2, {"t": parse_series("u^3", L2)})


def char_of(tower, texts):
    printed = tuple(parse_series(s, tower) for s in texts)
    return asw_reduce(WittVector.from_print_order(tower, printed))


# ----------------------------------------------------------------- validation

def test_extension_requires_matching_parameters():
    with pytest.raises(TowerMismatch):
        ExtensionMap(K2, L3, {"t": parse_series("u^2", L3)})
    with pytest.raises(TowerMismatch):
        ExtensionMap(K2s2, L2, {"t": parse_series("u^2", L2)})


def test_extension_requires_every_variable_image():
    with pytest.raises(NonEmbedding):
        ExtensionMap(KD, LD, {"t": parse_series("w^2", LD)})


def test_extension_rejects_unknown_images():
    with pytest.raises(NonEmbedding):
        ExtensionMap(
            K2, L2, {"t": parse_series("u^2", L2), "q": parse_series("u", L2)}
        )


def test_extension_rejects_wrong_tower_series():
    with pytest.raises(NonEmbedding):  # wrong level
        ExtensionMap(K2, L2, {"t": parse_series("w^2", LD)})
    K4 = FieldTower(2, 2, 1, ("u",))
    with pytest.raises(NonEmbedding):  # wrong coefficient field
        ExtensionMap(K2, L2, {"t": parse_series("u^2", K4)})


def test_extension_rejects_bad_orders():
    with pytest.raises(NonEmbedding):  # uniformizer must move into the maximal ideal
        ExtensionMap(K2, L2, {"t": parse_series("1 + u", L2)})
    with pytest.raises(NonEmbedding):  # lower variables must stay units
        ExtensionMap(
            KD, LD, {"u": parse_series("w", LD), "t": parse_series("w^2", LD)}
        )


def test_extension_rejects_zero_and_window_zero_images():
    with pytest.raises(NonEmbedding):
        ExtensionMap(K2, L2, {"t": NestedSeries.zero(1, L2.field_domain)})
    with pytest.raises(PrecisionExhausted) as info:
        ExtensionMap(K2, L2, {"t": parse_series("u", L2).truncate(0)})
    assert info.value.exponent == 0
    # zero only within an inner window: unknown, not zero
    dom = LD.field_domain
    with pytest.raises(PrecisionExhausted):
        ExtensionMap(K2, LD, {"t": NestedSeries(2, dom, {1: NestedSeries.zero(1, dom, 3)})})


def test_ramification_index():
    assert ramification_index(wild_map()) == 2
    assert ramification_index(tame_map()) == 3


# ------------------------------------------------------------------ pullbacks

def test_pullback_frozen_monomial():
    """t^2 under t -> u^2(1+u): u^4 (1+u)^2 = u^4 + u^6 over F_2."""
    out = pullback_series(wild_map(), parse_series("t^2", K2))
    assert out == parse_series("u^4 + u^6", L2)


def test_pullback_scales_windows_by_e():
    src = parse_series("t^2", K2).truncate(5)
    out = pullback_series(wild_map(), src)
    assert out.ceiling == 10


def test_pullback_is_a_ring_map():
    rng = random.Random(11)
    ext = wild_map()
    dom = K2.field_domain

    def rnd():
        monos = []
        for e in range(-2, 4):
            if rng.random() < 0.5:
                monos.append(((e,), dom.one()))
        return NestedSeries.from_monomials(1, dom, monos)

    for _ in range(15):
        f, g = rnd(), rnd()
        lhs = pullback_series(ext, f * g)
        rhs = pullback_series(ext, f) * pullback_series(ext, g)
        assert lhs.agrees_with(rhs)
        assert pullback_series(ext, f + g).agrees_with(
            pullback_series(ext, f) + pullback_series(ext, g)
        )


def test_pullback_refuses_windowed_lower_coefficients():
    """(1+u)^-1 mod u^4 * t^-3 along u -> v^2 + w: the unknown u^4 tail of
    the coefficient meets every power of the unit image v^2 + w, so no
    target coefficient can be certified."""
    _, (ext,) = imperfect_residue_family(2, (3,))
    fd = KD.field_domain
    inner = parse_series("1 + u", KD).coefficient(0).inv(4)
    assert inner.ceiling == 4
    src = NestedSeries(2, fd, {-3: inner})
    with pytest.raises(PrecisionExhausted):
        pullback_series(ext, src)


def test_pullback_through_unit_order_lower_image():
    """u^2 t^-1 + t^2 along u -> v^2 + w, t -> w^3: (v^4 + w^2) w^-3 + w^6."""
    _, (ext,) = imperfect_residue_family(2, (3,))
    src = parse_series("u^2*t^-1 + t^2", KD)
    out = pullback_series(ext, src)
    assert out == parse_series("v^4*w^-3 + w^-1 + w^6", LD)
    images = {1: ext.images["u"], 2: ext.images["t"]}
    assert out == series_substitute(src, images, LD.precision)


@pytest.mark.parametrize("tower, texts", [
    (K3, ["2*t^-5"]),  # F_3 coefficients are not F_2 raws
    (K2s2, ["t^-5", "t^-3"]),  # two components where the source has one
    (FieldTower(2, 1, 1, ("x",)), ["x^-5"]),
])
def test_a_character_over_another_tower_is_refused(tower, texts):
    """Along t -> u^2 + u^3 over F_2, a character whose tower is not the
    source tower in p, k, s or variables is a ``TowerMismatch``, never a
    report read off reinterpreted coefficients."""
    ext = ExtensionMap(K2, L2, {"t": parse_series("u^2 + u^3", L2)})
    chi = char_of(tower, texts)
    for call in (conductor_change, pullback_character):
        with pytest.raises(TowerMismatch, match="the character does not live over the source"):
            call(ext, chi)
    if tower.p != K2.p:
        with pytest.raises(TowerMismatch, match="series does not live over the source tower"):
            pullback_series(ext, chi.vector.comps[0])


def test_a_character_over_another_budget_passes():
    """Only the budget differs: the plan and the pullback read the target's."""
    ext = ExtensionMap(K2, L2, {"t": parse_series("u^2 + u^3", L2)})
    k8 = FieldTower(2, 1, 1, ("t",), precision=8)
    report = conductor_change(ext, char_of(k8, ["t^-5"]))
    assert report == conductor_change(ext, char_of(K2, ["t^-5"]))
    assert (report.sw_target, report.predicted, report.status) == (9, 9, "PASS")


def test_pullback_character_reduces_on_the_target():
    """t^-2 pulls back through t -> u^3 to u^-6, which reduces to u^-3."""
    chi = char_of(K2, ["t^-2"])  # reduces to t^-1 on the source already
    out = pullback_character(tame_map(), chi)
    assert out.reduced
    assert swan_conductor(out) == 3


# --------------------------------------------------------------- torsion depth

def test_delta_frozen_wild():
    """dlog(u^2(1+u)) = (u/(1+u)) dlog u over F_2: depth 1."""
    assert delta_tor(wild_map()) == 1


def test_delta_windows_follow_the_target_budget():
    """A small target budget still gives the depth: it is read from orders."""
    l8 = FieldTower(2, 1, 1, ("u",), precision=8)
    ext = ExtensionMap(K2, l8, {"t": parse_series("u^2*(1+u)", l8)})
    assert delta_tor(ext) == 1


def test_delta_frozen_tame():
    """dlog(u^3) = 3 dlog u = dlog u over F_2: depth 0."""
    assert delta_tor(tame_map()) == 0


def test_delta_frozen_p3():
    """dlog(u^2(1+u)) = (2 + u/(1+u)) dlog u over F_3: depth 0."""
    ext = ExtensionMap(K3, L3, {"t": parse_series("u^2*(1+u)", L3)})
    assert delta_tor(ext) == 0


def test_delta_rejects_pth_power_images():
    ext = ExtensionMap(K2, L2, {"t": parse_series("u^2", L2)})
    with pytest.raises(NonEmbedding):
        delta_tor(ext)


def test_delta_needs_one_variable_source():
    _chi, family = imperfect_residue_family(2, (3,))
    with pytest.raises(NonPerfectBase):
        delta_tor(family[0])


def test_delta_window_zero_coefficient_is_ambiguous():
    """(u^2 + O(u^9))^-1 is known below 5, and 0 + O(u^9) times it below 7."""
    img = parse_series("u^2", L2) + NestedSeries.zero(1, L2.field_domain, 9)
    ext = ExtensionMap(K2, L2, {"t": img})
    with pytest.raises(PrecisionExhausted) as info:
        delta_tor(ext)
    assert info.value.exponent == 7
    # w (1 + O(v^3)): the db(v) coefficient is zero only within an inner
    # window, at the top exponent 1 - 1
    dom = LD.field_domain
    unit = NestedSeries.one(1, dom).truncate(3)
    ext = ExtensionMap(K2, LD, {"t": NestedSeries(2, dom, {1: unit})})
    with pytest.raises(PrecisionExhausted) as info:
        delta_tor(ext)
    assert info.value.exponent == 0


def pullback_form(ext, form):
    """Image of a log form: coefficients pull back as series, each
    ``dlog T_lambda`` maps to ``dlog(image of T_lambda)``."""
    target = ext.target
    dlog_images = {
        idx + 1: dlog(ext.images[name], target.precision)
        for idx, name in enumerate(ext.source.variables)
    }
    acc = LogForm.zero(target.d, target.field_domain, form.degree)
    for key, c in form.coeffs.items():
        term = LogForm.from_series(pullback_series(ext, c))
        for lam in key:
            term = wedge(term, dlog_images[lam])
        acc = acc + term
    return acc


# ------------------------------------------------------------ conductor change

def test_conductor_change_wild_pass():
    rep = conductor_change(wild_map(), char_of(K2, ["t^-3"]))
    assert (rep.e, rep.delta, rep.sw_source, rep.sw_target) == (2, 1, 3, 5)
    assert rep.predicted == 5 and rep.status == "PASS"
    assert rep.hypothesis_lhs == Fraction(3) and rep.hypothesis_rhs == Fraction(1)
    assert rep.hypothesis_holds


def test_conductor_change_not_applicable():
    rep = conductor_change(wild_map(), char_of(K2, ["t^-1"]))
    assert rep.status == "NOT_APPLICABLE"
    assert not rep.hypothesis_holds
    assert rep.hypothesis_lhs == rep.hypothesis_rhs == Fraction(1)


def test_conductor_change_tame_pass():
    rep = conductor_change(tame_map(), char_of(K2, ["t^-2"]))
    assert (rep.e, rep.delta, rep.sw_source, rep.sw_target) == (3, 0, 1, 3)
    assert rep.status == "PASS"


def test_conductor_change_p3_pass():
    ext = ExtensionMap(K3, L3, {"t": parse_series("u^2*(1+u)", L3)})
    rep = conductor_change(ext, char_of(K3, ["t^-2"]))
    assert (rep.e, rep.delta, rep.sw_target, rep.predicted) == (2, 0, 4, 4)
    assert rep.status == "PASS"


def test_conductor_change_randomized_hypothesis_cases():
    """Random units and indices: whenever the hypothesis holds, the formula
    must hold; and the target conductor never exceeds e*Sw."""
    rng = random.Random(2026)
    dom = L2.field_domain
    passes = 0
    for _ in range(25):
        e = rng.randint(2, 5)
        unit_tail = [((e + k,), dom.one()) for k in range(1, 4) if rng.random() < 0.5]
        img = NestedSeries.from_monomials(1, dom, [((e,), dom.one())] + unit_tail)
        try:
            ext = ExtensionMap(K2, L2, {"t": img})
            delta_tor(ext)
        except (NonEmbedding, PrecisionExhausted):
            continue
        sw = rng.choice([3, 5, 7])
        chi = char_of(K2, [f"t^-{sw}"])
        rep = conductor_change(ext, chi)
        assert rep.sw_target <= rep.e * rep.sw_source
        if rep.hypothesis_holds:
            assert rep.status == "PASS", rep
            passes += 1
    assert passes >= 5


def test_rsw_functoriality_on_the_guaranteed_window():
    """The refined invariant pulls back compatibly above the torsion floor.

    For t -> u^2(1+u) and chi = t^-3: n' = e n - delta = 5 and both sides
    agree on the window (n', m'') with m'' = delta + (n' - delta)//p = 3.
    """
    ext = wild_map()
    chi = char_of(K2, ["t^-3"])
    value = rsw_char_p(chi)
    chi_l = pullback_character(ext, chi)
    value_l = rsw_char_p(chi_l)
    n_prime = value_l.n
    assert n_prime == 5
    delta = delta_tor(ext)
    m_floor = delta + (n_prime - delta) // K2.p
    pulled = pullback_form(ext, value.window.form)
    assert WindowedForm(value_l.window.form, n_prime, m_floor) == WindowedForm(
        pulled, n_prime, m_floor
    )


# ------------------------------------------- conductor change, computed lean

# F_2, F_3, F_5 and F_9, as (p, k).
FIELDS = ((2, 1), (3, 1), (5, 1), (3, 2))


def embed_unit(rng, p, k, s, precision=64):
    """A unit drawn as the ``embed`` workload draws it: an image u^e (1 + ...)
    with e in 2..6, never a p-th power, and 0..4 monomials per component at
    exponents -12..2."""
    source = FieldTower(p, k, s, ("t",))
    target = FieldTower(p, k, s, ("u",), precision)
    dom = target.field_domain
    e = rng.randint(2, 6)
    terms = [((e,), dom.random_nonzero(rng))]
    terms += [((e + j,), dom.random_nonzero(rng)) for j in range(1, 4) if rng.random() < 0.5]
    if all(x % p == 0 for (x,), _ in terms):
        x = next(x for x in range(e + 1, e + p + 1) if x % p)
        terms.append(((x,), dom.random_nonzero(rng)))
    comps = tuple(
        NestedSeries.from_monomials(
            1, dom, [((rng.randint(-12, 2),), dom.random_nonzero(rng))
                     for _ in range(rng.randint(0, 4))])
        for _ in range(s)
    )
    ext = ExtensionMap(source, target, {"t": NestedSeries.from_monomials(1, dom, terms)})
    return ext, WittVector(source, comps)


def random_unit(rng, p, k, s):
    """Any exact d = 1 unit: 1..4 image terms at exponents 1..12 (p-th
    powers and monomials included), poles down to -30, budgets 4..64."""
    source = FieldTower(p, k, s, ("t",))
    target = FieldTower(p, k, s, ("u",), rng.choice((4, 7, 16, 64)))
    dom = target.field_domain
    image = NestedSeries.from_monomials(
        1, dom, [((rng.randint(1, 12),), dom.random_nonzero(rng))
                 for _ in range(rng.randint(1, 4))])
    if image.is_zero():
        image = NestedSeries.variable(1, dom, 1)
    comps = tuple(
        NestedSeries.from_monomials(
            1, dom, [((rng.randint(-30, 3),), dom.random_nonzero(rng))
                     for _ in range(rng.randint(0, 3))])
        for _ in range(s)
    )
    return ExtensionMap(source, target, {"t": image}), WittVector(source, comps)


def outcome(fn):
    """``fn()``, or the type, message and exponent of the error it raises."""
    try:
        return fn()
    except RswanError as exc:
        return type(exc), str(exc), getattr(exc, "exponent", None)


def full_pullback(ext, char):
    """Every component pulled back, then the target reduction: the path
    without planning."""
    comps = tuple(pullback_series(ext, c) for c in char.vector.comps)
    return asw_reduce(Character(WittVector(ext.target, comps))).vector.comps


def test_planned_ceilings_are_the_pullback_ceilings():
    rng = random.Random(21)
    planned = refused = 0
    for p, k in FIELDS:
        for s in (1, 2):
            for draw in (embed_unit, random_unit):
                for _ in range(25):
                    if draw is embed_unit:
                        ext, vec = embed_unit(rng, p, k, s, rng.choice((8, 16, 64)))
                    else:
                        ext, vec = random_unit(rng, p, k, s)
                    char = asw_reduce(vec)
                    ceilings = _planned_ceilings(ext, char)
                    if ceilings is None:
                        assert len(ext.images["t"].coeffs) == 1  # exact, above the floor
                        continue
                    for c, ceiling in zip(char.vector.comps, ceilings):
                        assert ceiling == pullback_series(ext, c).ceiling
                        planned += ceiling is not None
                        refused += ceiling is not None and ceiling <= 0
    assert planned >= 200 and refused >= 20


def sized_unit(rng, p, s, budget):
    """An exact unit for the sized pullback: an image of order e in 1..6
    with 1..4 terms (wild, tame or monomial; never a p-th power) and 0..3
    monomials per component, with poles on both sides of the budget edge
    ``e L = budget`` and of the weight-p slot's ``(p - 1) e L + 1``."""
    source = FieldTower(p, 1, s, ("t",))
    target = FieldTower(p, 1, s, ("u",), budget)
    dom = target.field_domain
    e = rng.randint(1, 6)
    exps = [e] + sorted(rng.sample(range(e + 1, e + 6), rng.randint(0, 3)))
    if all(x % p == 0 for x in exps):
        exps.append(next(x for x in range(e + 1, e + p + 1) if x % p))
    image = NestedSeries.from_monomials(1, dom, [((x,), dom.random_nonzero(rng)) for x in exps])
    deepest = budget // e + 2
    comps = tuple(
        NestedSeries.from_monomials(
            1, dom, [((rng.randint(-deepest, 3),), dom.random_nonzero(rng))
                     for _ in range(rng.randint(0, 3))])
        for _ in range(s)
    )
    return ExtensionMap(source, target, {"t": image}), WittVector(source, comps)


def test_sized_conductor_change_is_the_full_budget_oracle():
    """``conductor_change`` reads ``Sw_L`` off windows cut to what the
    conductor reads; the full-budget pullback must give the same conductor,
    or the same refusal (type, message and exponent)."""
    rng = random.Random(53)
    counts = {"sized": 0, "fallback": 0, "refused": 0}
    for p in (2, 3, 5):
        for s in (1, 2, 3):
            for _ in range(30 if s == 3 else 60):
                ext, vec = sized_unit(rng, p, s, rng.choice((16, 24, 32, 48, 64)))
                char = asw_reduce(vec)
                want = outcome(lambda: swan_conductor(pullback_character(ext, char)))
                assert outcome(lambda: conductor_change(ext, char).sw_target) == want
                ceilings = _planned_ceilings(ext, char)
                if ceilings is not None and any(c is not None and c <= 0 for c in ceilings):
                    counts["refused"] += 1
                elif ceilings is not None and any(extensions._sized_widths(ext, ceilings)):
                    counts["sized"] += 1  # some window was cut
                else:
                    counts["fallback"] += 1
    assert counts["sized"] >= 130 and counts["fallback"] >= 150 and counts["refused"] >= 100, counts


def dlog_depth(ext, budget, skip_zero_derivatives=False):
    """The torsion depth from the coefficients of ``dlog`` of the image at
    ``budget``, each shifted to ``db_lambda``: the computation that
    ``delta_tor`` ran before it read orders."""
    img = ext.images[ext.source.variables[-1]]
    depths = []
    for (lam,), c in dlog(img, budget).coeffs.items():
        if lam < img.level:
            c = c.shift_at(lam, -1)
        if c.is_exact_zero() or (
                skip_zero_derivatives and log_derivative(img, lam).is_exact_zero()):
            continue
        if c.is_zero():
            raise PrecisionExhausted("a dlog coefficient is zero within its window",
                                     exponent=c.ceiling)
        depths.append(c.ord())
    if not depths:
        raise NonEmbedding("dlog of the uniformizer image vanishes identically")
    return min(depths)


def random_image(rng, p, k, d, budget):
    """An embedding of F_q((t)) along an image of order 1..6 with up to six
    terms, over one or two target variables, p-th powers and top and inner
    windows included."""
    source = FieldTower(p, k, 1, ("t",))
    target = FieldTower(p, k, 1, ("v", "u")[2 - d:], budget)
    dom = target.field_domain
    windowed = rng.random() < 0.5
    e = rng.randint(1, 6)
    terms = {x: None for x in [e] + [e + j for j in range(1, 6) if rng.random() < 0.4]}
    for x in terms:
        if d == 1:
            terms[x] = dom.random_nonzero(rng)
            continue
        c = NestedSeries.from_monomials(1, dom, [((rng.randint(-3, 3),), dom.random_nonzero(rng))
                                                 for _ in range(rng.randint(1, 3))])
        c = c if c.coeffs else NestedSeries.one(1, dom)
        if windowed and rng.random() < 0.3:
            c = c.truncate(min(c.coeffs) + rng.randint(0, 3))
        terms[x] = c
    if d == 1:
        img = NestedSeries.from_monomials(1, dom, [((x,), c) for x, c in terms.items()])
    else:
        img = NestedSeries(2, dom, terms)
    if rng.random() < 0.15:
        img = img.frobenius()
    if windowed and rng.random() < 0.6:
        img = img.truncate(img.ord() + rng.randint(1, 7))
    return ExtensionMap(source, target, {"t": img})


def test_delta_tor_agrees_with_the_dlog_oracle():
    """Wherever ``dlog`` at the budget answers, the orders give the same
    depth; every depth they give equals ``dlog`` on the exact completion of
    the image at budget 64, where exactly zero derivatives are skipped."""
    fixed = [("u^2*(1+u)", None), ("u^3", None), ("u", None), ("u^5 + u^6", None),
             ("u^2", None), ("u^2 + u^4", None), ("u^4*(1+u^2)", None),
             ("u^2 + u^3", 5), ("u^2", 3)]
    exts = [ExtensionMap(K2, L2, {"t": parse_series(text, L2).truncate(ceiling)})
            for text, ceiling in fixed]
    rng = random.Random(23)
    for p, k in FIELDS:
        for d in (1, 2):
            while len(exts) < len(fixed) + 30 * (2 * FIELDS.index((p, k)) + d):
                try:
                    exts.append(random_image(rng, p, k, d, rng.choice((8, 16))))
                except RswanError:
                    pass
    answers = new_answers = 0
    kinds = set()
    for ext in exts:
        img = ext.images["t"]
        depth = outcome(lambda: delta_tor(ext))
        old = outcome(lambda: dlog_depth(ext, ext.target.precision))
        if isinstance(old, int):
            assert depth == old
        if isinstance(depth, int):
            exact = NestedSeries.from_monomials(img.level, img.domain, list(img.iter_monomials()))
            completion = ExtensionMap(ext.source, ext.target, {"t": exact})
            assert depth == dlog_depth(completion, 64, skip_zero_derivatives=True)
            answers += 1
            new_answers += not isinstance(old, int)
        kinds.add(depth[0] if isinstance(depth, tuple) else int)
    assert answers >= 150 and new_answers >= 1
    assert kinds == {int, NonEmbedding, PrecisionExhausted}


def test_torsion_depth_from_orders_is_delta_tor():
    """Tame, monomial, p-th-power, windowed and imperfect-residue images:
    wherever ``dlog`` at the budget answers, the orders give the same depth,
    and every refusal kind is reached."""
    fixed = [("u^2*(1+u)", None), ("u^3", None), ("u", None), ("u^5 + u^6", None),
             ("u^2", None), ("u^2 + u^4", None), ("u^4*(1+u^2)", None),
             ("u^2 + u^3", 5), ("u^2", 3)]
    exts = [ExtensionMap(K2, L2, {"t": parse_series(text, L2).truncate(ceiling)})
            for text, ceiling in fixed]
    rng = random.Random(22)
    for p, k in FIELDS:
        for _ in range(40):
            exts.append(random_unit(rng, p, k, 1)[0])
    exts.append(imperfect_residue_family(2, (3,))[1][0])
    kinds = set()
    compared = 0
    for ext in exts:
        depth = outcome(lambda: delta_tor(ext))
        if len(ext.source.variables) == 1:
            old = outcome(lambda: dlog_depth(ext, ext.target.precision))
            if isinstance(old, int):
                assert depth == old
                compared += 1
        kinds.add(depth[0] if isinstance(depth, tuple) else int)
    assert compared >= 100
    assert kinds == {int, NonEmbedding, PrecisionExhausted, NonPerfectBase}


def test_conductor_change_reads_the_depth_without_delta_tor(monkeypatch):
    """The depth ``conductor_change`` reports is read from orders: the
    ``dlog`` computation that ``delta_tor`` once ran is never reached, and
    the depth itself takes no inverse (the pullback of ``t^-3`` does)."""
    def refuse(*args, **kwargs):
        raise AssertionError("dlog or an inverse was computed")

    monkeypatch.setattr(logdiff, "dlog", refuse)
    with monkeypatch.context() as inside:
        inside.setattr(NestedSeries, "inv", refuse)
        assert (delta_tor(wild_map()), delta_tor(tame_map())) == (1, 0)
    rep = conductor_change(wild_map(), char_of(K2, ["t^-3"]))
    assert (rep.delta, rep.status) == (1, "PASS")
    assert conductor_change(tame_map(), char_of(K2, ["t^-2"])).delta == 0


def test_pth_power_image_raises_the_same_non_embedding():
    """The derivative of a p-th power vanishes exactly, whatever the number
    of its terms."""
    for text in ("u^2", "u^2 + u^4"):
        ext = ExtensionMap(K2, L2, {"t": parse_series(text, L2)})
        want = outcome(lambda: delta_tor(ext))
        assert want[0] is NonEmbedding
        assert outcome(lambda: conductor_change(ext, char_of(K2, ["t^-3"]))) == want


def test_early_refusal_is_the_target_reductions_refusal():
    rng = random.Random(23)
    refusals = 0
    for p, k in FIELDS:
        for s in (1, 2):
            for _ in range(25):
                ext, vec = embed_unit(rng, p, k, s, rng.choice((8, 16, 64)))
                char = asw_reduce(vec)
                want = outcome(lambda: full_pullback(ext, char))
                assert outcome(lambda: pullback_character(ext, char).vector.comps) == want
                refusals += want[0] is PrecisionExhausted
    assert refusals >= 20


def test_early_refusal_computes_no_pullback(monkeypatch):
    """t^-5 along u^2 + u^3 at budget 8 is known below 8 - 10 = -2."""
    l8 = FieldTower(2, 1, 1, ("u",), precision=8)
    ext = ExtensionMap(K2, l8, {"t": parse_series("u^2 + u^3", l8)})
    chi = char_of(K2, ["t^-5"])
    want = outcome(lambda: full_pullback(ext, chi))
    assert want == (PrecisionExhausted,
                    "component 0 is only known below order -2; "
                    "its polar part cannot be certified", -2)

    def refuse(ext, sr):
        raise AssertionError("a pullback was computed")

    monkeypatch.setattr(extensions, "pullback_series", refuse)
    assert outcome(lambda: pullback_character(ext, chi)) == want
    assert outcome(lambda: conductor_change(ext, chi)) == want


def test_windowed_first_component_stops_the_planning():
    """t^-3 + O(t) leaves the weight-1 pullback's window to the
    substitution; the weight-2 t^-7 alone would be refused at -6."""
    l8 = FieldTower(2, 1, 2, ("u",), precision=8)
    ext = ExtensionMap(K2s2, l8, {"t": parse_series("u^2 + u^3", l8)})
    dom = K2s2.field_domain
    first = parse_series("t^-3", K2s2).truncate(1)
    chi = asw_reduce(WittVector(K2s2, (first, parse_series("t^-7", K2s2))))
    assert _planned_ceilings(ext, chi) is None
    want = outcome(lambda: full_pullback(ext, chi))
    assert want[2] == -6
    assert outcome(lambda: pullback_character(ext, chi).vector.comps) == want
    exact = asw_reduce(WittVector(K2s2, (NestedSeries.zero(1, dom), parse_series("t^-7", K2s2))))
    assert _planned_ceilings(ext, exact) == [None, -6]


def test_substitution_past_the_floor_still_raises_exponent_out_of_range():
    """Along u^2000 + u^2001, t^-1 alone would be refused early, but the
    weight-2 t^-7 needs the exponent -14000, below the floor."""
    ext = ExtensionMap(K2s2, L2s2, {"t": parse_series("u^2000 + u^2001", L2s2)})
    chi = char_of(K2s2, ["t^-7", "t^-1"])
    assert _planned_ceilings(ext, chi) is None
    with pytest.raises(ExponentOutOfRange):
        full_pullback(ext, chi)
    with pytest.raises(ExponentOutOfRange):
        pullback_character(ext, chi)
    assert _planned_ceilings(ext, char_of(K2s2, ["t^-5", "t^-1"])) == [64 - 2000, 64 - 10000]


# ------------------------------------------------------------- ratio families

def test_imperfect_residue_family_ratios_exact():
    chi, family = imperfect_residue_family(2, (3, 5, 7))
    out = perfect_residue_ratios(chi, family)
    assert out["sw_source"] == 2
    assert out["formula_applies"] is True
    assert out["c_is_unit"] is False
    assert out["residual_units"] == {"u": True}  # source-side variable name
    ratios = [row["ratio"] for row in out["rows"]]
    assert ratios == [Fraction(2) - Fraction(1, t) for t in (3, 5, 7)]
    assert out["max_ratio"] == Fraction(13, 7)
    assert out["all_bounded"] is True


def test_imperfect_residue_family_rejects_p_divisible_exponents():
    with pytest.raises(NonEmbedding):
        imperfect_residue_family(2, (4,))


def test_curve_restriction_ratios_exact():
    dom = rat_func_domain(2)
    f = NestedSeries.from_monomials(1, dom, [((-3,), dom.variable())])
    out = curve_restriction_ratios(2, f, 0, (2, 4, 8))
    assert out["sw_generic"] == 3
    ratios = [row["ratio"] for row in out["rows"]]
    assert ratios == [Fraction(3) - Fraction(1, e) for e in (2, 4, 8)]
    assert out["all_bounded"] is True


def test_curve_restriction_rejects_poles_on_the_curve():
    dom = rat_func_domain(2)
    f = NestedSeries.from_monomials(1, dom, [((-3,), dom.inv(dom.variable()))])
    with pytest.raises(NonEmbedding):
        curve_restriction_ratios(2, f, 0, (2,))


def _curve_rows_per_exponent(p, f, x0, exponents):
    """The rows of ``curve_restriction_ratios``, every exponent's quotients
    computed again from ``f``, as the loop did before its quotient table."""
    target = FieldTower(p, 1, 1, ("u",))
    fd = target.field_domain
    base = extensions._curve_x(x0, fd)
    rows = []
    for e in exponents:
        acc = NestedSeries.zero(1, fd)
        for (te,), (num, den) in f.iter_monomials():
            num_s = extensions._eval_poly_at(base, num, fd)
            den_s = extensions._eval_poly_at(base, den, fd)
            if den_s.is_zero() or den_s.ord() > 0:
                raise NonEmbedding(
                    f"coefficient denominator vanishes at x = {x0}; the curve "
                    "meets a pole of the character"
                )
            quotient = extensions._divide_by_power(num_s, den_s, 1, target.precision)
            acc = acc + quotient.shift(e * te)
        sw_e = swan_conductor(asw_reduce(Character(WittVector(target, (acc,)))))
        rows.append({"e": e, "sw": sw_e, "ratio": Fraction(sw_e, e)})
    return rows


def _outcome(call):
    try:
        return call()
    except RswanError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_curve_rows_equal_a_per_exponent_recomputation(p):
    """``f = x t^-n + x^p t^-(p n2)`` as the ``embed`` curve units draw it,
    alone and with a term ``c/(x - x0) t^-j`` that has a pole at ``x0``,
    placed before, between or after the others; exponents as the units
    take them, one whose shift leaves the supported range, and none."""
    dom = rat_func_domain(p)
    x = dom.variable()
    rng = random.Random(f"curve rows {p}")
    cases = 0
    for _ in range(6):
        n, n2 = rng.sample([n for n in range(1, 8) if n % p], 2)
        x0 = rng.randrange(p)
        terms = [((-n,), x), ((-p * n2,), dom.pow(x, p))]
        pole = dom.from_polys([1], [-x0 % p, 1])
        for extra in [[]] + [[((-j,), pole)] for j in (1, n, p * n2 + 1)]:
            f = NestedSeries.from_monomials(1, dom, terms + extra)
            for exponents in ((p, p * p), (1, 5000), (5000, p), ()):
                got = _outcome(lambda: curve_restriction_ratios(p, f, x0, exponents))
                want = _outcome(lambda: _curve_rows_per_exponent(p, f, x0, exponents))
                if isinstance(got, dict):
                    got = got["rows"]
                assert got == want, (n, n2, x0, extra, exponents)
                cases += 1
    assert cases == 6 * 4 * 4


def test_curve_restriction_requires_rational_coefficients():
    with pytest.raises(TowerMismatch):
        curve_restriction_ratios(2, parse_series("t^-3", K2), 0, (2,))
