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

from rswan.errors import (
    NonEmbedding,
    NonPerfectBase,
    PrecisionExhausted,
    TowerMismatch,
)
from rswan.extensions import (
    ConductorChangeReport,
    ExtensionMap,
    conductor_change,
    curve_restriction_ratios,
    delta_tor,
    imperfect_residue_family,
    perfect_residue_ratios,
    pullback_character,
    pullback_form,
    pullback_series,
    ramification_index,
)
from rswan.logdiff import WindowedForm
from rswan.parser import parse_series
from rswan.ratfunc import rat_func_domain
from rswan.rsw import rsw_char_p
from rswan.series import NestedSeries, series_substitute
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
    with pytest.raises(PrecisionExhausted):
        ExtensionMap(K2, L2, {"t": parse_series("u", L2).truncate(0)})
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


def test_pullback_character_reduces_on_the_target():
    """t^-2 pulls back through t -> u^3 to u^-6, which reduces to u^-3."""
    chi = char_of(K2, ["t^-2"])  # reduces to t^-1 on the source already
    out = pullback_character(tame_map(), chi)
    assert out.reduced
    assert swan_conductor(out) == 3


# --------------------------------------------------------------- torsion depth

def test_delta_frozen_wild():
    """dlog(u^2(1+u)) = (u/(1+u)) dlog u over F_2: depth 1."""
    report = delta_tor(wild_map())
    assert report.delta == 1
    assert set(report.coefficients) == {"dlog(u)"}
    c = report.coefficients["dlog(u)"]
    assert c.ord() == 1 and c.coefficient(1) == L2.field_domain.one()


def test_delta_windows_follow_the_target_budget():
    """The dlog window of the uniformizer image is the target tower's budget."""
    l8 = FieldTower(2, 1, 1, ("u",), precision=8)
    ext = ExtensionMap(K2, l8, {"t": parse_series("u^2*(1+u)", l8)})
    report = delta_tor(ext)
    assert report.delta == 1
    assert all(c.ceiling <= 9 for c in report.coefficients.values())


def test_delta_frozen_tame():
    """dlog(u^3) = 3 dlog u = dlog u over F_2: depth 0."""
    assert delta_tor(tame_map()).delta == 0


def test_delta_frozen_p3():
    """dlog(u^2(1+u)) = (2 + u/(1+u)) dlog u over F_3: depth 0."""
    ext = ExtensionMap(K3, L3, {"t": parse_series("u^2*(1+u)", L3)})
    assert delta_tor(ext).delta == 0


def test_delta_rejects_pth_power_images():
    ext = ExtensionMap(K2, L2, {"t": parse_series("u^2", L2)})
    with pytest.raises(NonEmbedding):
        delta_tor(ext)


def test_delta_needs_one_variable_source():
    _chi, family = imperfect_residue_family(2, (3,))
    with pytest.raises(NonPerfectBase):
        delta_tor(family[0])


def test_delta_window_zero_coefficient_is_ambiguous():
    img = parse_series("u^2", L2) + NestedSeries.zero(1, L2.field_domain, 9)
    ext = ExtensionMap(K2, L2, {"t": img})
    with pytest.raises(PrecisionExhausted):
        delta_tor(ext)
    # w (1 + O(v^3)): the db(v) coefficient is zero only within an inner window
    dom = LD.field_domain
    unit = NestedSeries.one(1, dom).truncate(3)
    ext = ExtensionMap(K2, LD, {"t": NestedSeries(2, dom, {1: unit})})
    with pytest.raises(PrecisionExhausted):
        delta_tor(ext)


# ------------------------------------------------------------ conductor change

def test_conductor_change_wild_pass():
    rep = conductor_change(wild_map(), char_of(K2, ["t^-3"]))
    assert (rep.e, rep.delta, rep.sw_source, rep.sw_target) == (2, 1, 3, 5)
    assert rep.predicted == 5 and rep.status == "PASS"
    assert rep.hypothesis_lhs == Fraction(3) and rep.hypothesis_rhs == Fraction(1)
    assert rep.hypothesis_holds
    assert "PASS" in rep.describe()


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
            assert rep.status == "PASS", rep.describe()
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
    delta = delta_tor(ext).delta
    m_floor = delta + (n_prime - delta) // K2.p
    pulled = pullback_form(ext, value.window.form)
    assert WindowedForm(value_l.window.form, n_prime, m_floor) == WindowedForm(
        pulled, n_prime, m_floor
    )


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


def test_curve_restriction_requires_rational_coefficients():
    with pytest.raises(TowerMismatch):
        curve_restriction_ratios(2, parse_series("t^-3", K2), 0, (2,))
