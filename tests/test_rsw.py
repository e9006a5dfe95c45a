"""The refined mod-p ramification invariant.

Oracles used here:
  * the three pinned rendered values are recomputed by hand from the raw
    formula -sum_i a_i^(p^i-1) d(a_i) and frozen as explicit monomial forms;
  * representative independence is witnessed by a hand-replayed coboundary
    example (the perturbation cancels mod 2 / falls outside the window) and
    then sampled with seeded random coboundaries (phi - 1)E;
  * the conductor recovered from the invariant is checked against the
    independently pinned catalog conductors.
"""

import random

import pytest

from rswan.catalog import catalog_characters
from rswan.parser import render_form
from rswan.errors import InconsistentValue, UnramifiedCharacter
from rswan.logdiff import LogForm, WindowedForm, d
from rswan.rsw import (
    RswValue,
    rsw_char_p,
    rsw_decompose,
    rsw_form_at,
    rsw_is_closed,
    sw_from_rsw,
)
from rswan.scalars import fq_domain
from rswan.series import NestedSeries
from rswan.tower import FieldTower
from rswan.witt import Character, WittVector, asw_reduce, swan_conductor

K2 = FieldTower(2, 1, 1, ("t",))
K3 = FieldTower(3, 1, 1, ("t",))
K2s2 = FieldTower(2, 1, 2, ("t",))
K3s2 = FieldTower(3, 1, 2, ("t",))
KD = FieldTower(2, 1, 1, ("u", "t"))
KD3 = FieldTower(3, 1, 1, ("u", "t"))


def mono(tower, exps, c=1):
    dom = tower.field_domain
    raw = dom.from_int(c)
    return NestedSeries.from_monomials(tower.d, dom, [(tuple(exps), raw)])


def char_of(tower, printed_texts):
    from rswan.parser import parse_series

    printed = tuple(parse_series(txt, tower) for txt in printed_texts)
    return asw_reduce(WittVector.from_print_order(tower, printed))


# ------------------------------------------------------------- frozen values

def test_frozen_p3_teichmuller_t_minus_2():
    """-d(t^-2) = 2 t^-2 dlog t over F_3, window (2, 0)."""
    chi = char_of(K3, ["t^-2"])
    value = rsw_char_p(chi)
    expected = WindowedForm(LogForm(1, K3.field_domain, 1, {(1,): mono(K3, (-2,), 2)}), 2, 0)
    assert value.window == expected
    assert render_form(value) == "2*t^-2 dlog(t) | window(2,0)"


def test_frozen_p2_length2_vector():
    """Printed (t^-1, t^-3): weight-1 slot t^-3, weight-2 slot t^-1.

    -[d(t^-3) + t^-1 d(t^-1)] = (t^-3 + t^-2) dlog t over F_2.
    """
    chi = char_of(K2s2, ["t^-1", "t^-3"])
    value = rsw_char_p(chi)
    form = LogForm(1, K2s2.field_domain, 1, {(1,): mono(K2s2, (-3,)) + mono(K2s2, (-2,))})
    assert value.window == WindowedForm(form, 3, 1)
    assert render_form(value) == "(t^-3 + t^-2) dlog(t) | window(3,1)"


def test_frozen_p3_length2_vector():
    """Printed (t^-1, t^-2): -[d(t^-2) + t^-2 d(t^-1)] = (t^-3 + 2 t^-2) dlog t."""
    chi = char_of(K3s2, ["t^-1", "t^-2"])
    value = rsw_char_p(chi)
    coeff = mono(K3s2, (-3,)) + mono(K3s2, (-2,), 2)
    assert value.window == WindowedForm(LogForm(1, K3s2.field_domain, 1, {(1,): coeff}), 3, 1)


def test_frozen_two_variable_value():
    """-d(u t^-2) = u t^-2 dlog u over F_2((u))((t)) (the dlog t term is even)."""
    chi = char_of(KD, ["u*t^-2"])
    value = rsw_char_p(chi)
    form = LogForm(2, KD.field_domain, 1, {(1,): mono(KD, (1, -2))})
    assert value.window == WindowedForm(form, 2, 1)
    assert render_form(value) == "u*t^-2 dlog(u) | window(2,1)"


def test_frozen_two_variable_dlog_t_survives_odd_pole():
    """-d(t^-3) = 3 t^-3 dlog t = t^-3 dlog t over F_2((u))((t))."""
    chi = char_of(KD, ["t^-3"])
    value = rsw_char_p(chi)
    form = LogForm(2, KD.field_domain, 1, {(2,): mono(KD, (0, -3))})
    assert value.window == WindowedForm(form, 3, 1)


# ------------------------------------------------- representative invariance

def test_invariance_hand_replayed_coboundary():
    """v = t^-3, E = t^-1 over F_2: (phi-1)E = t^-2 + t^-1.

    -d(v + t^-2 + t^-1) = (t^-3 + t^-1) dlog t; the t^-2 term cancels mod 2
    and t^-1 falls outside the window (3, 1), leaving t^-3 dlog t exactly.
    """
    v = WittVector.from_print_order(K2, (mono(K2, (-3,)),))
    e = WittVector.from_print_order(K2, (mono(K2, (-1,)),))
    shifted = v + (e.frobenius() - e)
    assert rsw_form_at(shifted, 3) == rsw_form_at(v, 3)
    # and the shifted raw form really had the extra t^-1 term before windowing
    raw = d(mono(K2, (-3,)) + mono(K2, (-2,)) + mono(K2, (-1,)))
    assert not raw.is_zero()


@pytest.mark.parametrize(
    "tower",
    [K2, K2s2, K3, K3s2, KD, KD3],
    ids=["p2s1", "p2s2", "p3s1", "p3s2", "p2d2", "p3d2"],
)
def test_invariance_under_random_coboundaries(tower):
    rng = random.Random(20260818)
    p = tower.p
    dom = tower.field_domain

    def rand_series(low):
        monos = []
        for e in range(low, 3):
            if rng.random() < 0.5:
                continue
            c = rng.randrange(1, p)
            if tower.d == 1:
                monos.append(((e,), dom.from_int(c)))
            else:
                monos.append(((rng.randrange(-2, 3), e), dom.from_int(c)))
        return NestedSeries.from_monomials(tower.d, dom, monos)

    checked = 0
    for _ in range(40):
        comps = tuple(rand_series(-4) for _ in range(tower.s))
        vec = WittVector(tower, comps)
        chi = asw_reduce(vec)
        n = swan_conductor(chi)
        if n == 0:
            continue
        m = n // p
        # slot i carries weight p^i, so ord >= -(m // p^i) keeps E at depth m
        e_comps = tuple(rand_series(-(m // p**i) if m else 0) for i in range(tower.s))
        e_vec = WittVector(tower, e_comps)
        shifted = chi.vector + (e_vec.frobenius() - e_vec)
        assert rsw_form_at(shifted, n) == rsw_form_at(chi.vector, n)
        checked += 1
    assert checked >= 10


def untruncated_form_at(vec, n):
    """``-sum_i a_i^(p^i-1) d(a_i)`` on the whole components, then windowed."""
    p = vec.tower.p
    total = LogForm.zero(vec.tower.d, vec.tower.field_domain, 1)
    for i, a_i in enumerate(vec.comps):
        if not a_i.is_zero():
            total = total + d(a_i).scale(a_i.pow(p**i - 1))
    return WindowedForm(-total, n, n // p)


# (p, k, s, d) of the perfbench witt workload.
WITT_CELLS = tuple(
    (p, k, s, d)
    for p in (2, 3, 5) for k in (1, 2) for s in (1, 2) for d in (1, 2)
    if (p, k, s, d) != (5, 2, 2, 2)
) + ((2, 1, 3, 1), (2, 2, 3, 1), (2, 1, 3, 2), (3, 1, 3, 1), (2, 1, 4, 1), (2, 2, 4, 1))


@pytest.mark.parametrize("cell", WITT_CELLS, ids=lambda c: "p{}k{}s{}d{}".format(*c))
def test_windowed_form_is_the_untruncated_form(cell):
    """Cutting each component before the power changes nothing in the
    window: on reduced characters drawn as the witt workload draws them, and
    on their coboundary shifts."""
    p, k, s, dd = cell
    tower = FieldTower(p, k, s, ("u", "t")[2 - dd:])
    dom = tower.field_domain
    rng = random.Random(f"window:{cell}")

    def component(low):
        return NestedSeries.from_monomials(dd, dom, [
            (tuple(rng.randint(-2, 2) for _ in range(dd - 1)) + (rng.randint(low, 2),),
             dom.random_nonzero(rng))
            for _ in range(rng.randint(0, 4))
        ])

    checked = 0
    for _ in range(12):
        chi = asw_reduce(WittVector(tower, tuple(component(-4) for _ in range(s))))
        n = swan_conductor(chi)
        if n == 0:
            continue
        m = n // p
        e_vec = WittVector(tower, tuple(component(-(m // p**i) if m else 0) for i in range(s)))
        shifted = chi.vector + (e_vec.frobenius() - e_vec)
        for vec in (chi.vector, shifted):
            assert rsw_form_at(vec, n) == untruncated_form_at(vec, n)
        checked += 1
    assert checked


# ------------------------------------------------------------------ refusals

def test_rsw_needs_a_character():
    vec = WittVector.from_print_order(K2, (mono(K2, (-3,)),))
    with pytest.raises(InconsistentValue, match="expected a Character"):
        rsw_char_p(vec)


def test_rsw_refuses_unreduced_characters():
    vec = WittVector.from_print_order(K2, (mono(K2, (-4,)),))
    with pytest.raises(InconsistentValue):
        rsw_char_p(Character(vec, reduced=False))


def test_rsw_refuses_unramified_characters():
    chi = char_of(K2, ["t"])
    assert swan_conductor(chi) == 0
    with pytest.raises(UnramifiedCharacter):
        rsw_char_p(chi)


def test_rsw_form_at_needs_positive_depth():
    vec = WittVector.from_print_order(K2, (mono(K2, (-1,)),))
    with pytest.raises(UnramifiedCharacter):
        rsw_form_at(vec, 0)


# ------------------------------------------------------- derived quantities

def test_catalog_conductor_recovery_and_closedness():
    for p in (2, 3, 5):
        for label, tower, comps, sw, _rendered in catalog_characters(p):
            chi = char_of(tower, comps)
            if sw == 0:
                continue
            value = rsw_char_p(chi)
            assert sw_from_rsw(value) == sw == swan_conductor(chi), label
            assert rsw_is_closed(value), label


def test_leading_term_window():
    chi = char_of(K2s2, ["t^-1", "t^-3"])
    value = rsw_char_p(chi)
    lead = WindowedForm(value.window.form, value.n, value.n - 1)
    assert (lead.n, lead.m) == (3, 2)
    # only the order -3 part survives the single-slot window
    assert lead.form.coefficient((1,)) == mono(K2s2, (-3,))


def test_sw_from_rsw_rejects_empty_window():
    chi = char_of(K2, ["t^-3"])
    value = rsw_char_p(chi)
    hollow = RswValue(chi, WindowedForm(LogForm(1, K2.field_domain, 1, {}), 3, 1))
    assert sw_from_rsw(value) == 3
    with pytest.raises(InconsistentValue):
        sw_from_rsw(hollow)


def test_decompose_one_variable_unit_dlog_part():
    """t^-3 dlog t at n = 3: pi^3 * value = 1 * dlog(pi), a unit c-part."""
    value = rsw_char_p(char_of(K2, ["t^-3"]))
    dec = rsw_decompose(value)
    assert dec.residual == {}
    assert dec.c == NestedSeries.one(1, K2.field_domain)
    assert dec.c_is_unit and not dec.residual_units


def test_decompose_two_variable_residual_part():
    """u t^-2 dlog u at n = 2: pi^2 * value = 1 * db_u, unit residual, c = 0."""
    value = rsw_char_p(char_of(KD, ["u*t^-2"]))
    dec = rsw_decompose(value)
    assert set(dec.residual) == {"u"}
    assert dec.residual["u"] == NestedSeries.one(2, KD.field_domain)
    assert dec.residual_units == {"u": True}
    assert dec.c.is_zero() and not dec.c_is_unit


def test_decompose_reconstructs_the_representative():
    """pi^n * rep = sum_lambda residual_lambda db_lambda + c dlog pi."""
    for tower, comps in [(KD, ["u*t^-2"]), (KD, ["t^-3"]), (K2, ["t^-3"]), (K3s2, ["t^-1", "t^-2"])]:
        value = rsw_char_p(char_of(tower, comps))
        dec = rsw_decompose(value)
        level, dom = tower.d, tower.field_domain
        total = LogForm.zero(level, dom, 1)
        for name, a_lam in dec.residual.items():
            lam = tower.variables.index(name) + 1
            db = LogForm(level, dom, 1, {(lam,): NestedSeries.variable(level, dom, lam)})
            total = total + db.scale(a_lam)
        total = total + LogForm(level, dom, 1, {(level,): dec.c})
        pi_n = NestedSeries.variable(level, dom, level).pow(value.n)
        assert total == value.window.form.scale(pi_n)
