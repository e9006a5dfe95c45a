"""Acceptance gate: ten criteria, one printed pass/fail line each.

Every criterion carries a pinned wall-clock budget and is checked by exact
arithmetic — no tolerances anywhere.  The printed line is emitted outside
pytest's capture so a plain ``pytest -v`` run shows all ten verdicts.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from rswan import reciprocity
from rswan.catalog import catalog_characters, canned_config, CATALOG_PRIMES
from rswan.cli import load_config, report_body_bytes, run
from rswan.errors import NonEmbedding, PrecisionExhausted
from rswan.extensions import (
    ExtensionMap,
    conductor_change,
    curve_restriction_ratios,
    delta_tor,
    imperfect_residue_family,
    perfect_residue_ratios,
    pullback_series,
)
from rswan.logdiff import (
    LogForm,
    WindowedForm,
    duality_matrix,
    gram_is_invertible,
    minimal_b,
    r_b,
    wedge_windowed,
)
from rswan.parser import parse_series
from rswan.ratfunc import rat_func_domain
from rswan.reciprocity import check_exp_congruences, theta_lift, verify_rsw_characterization
from rswan.rsw import rsw_char_p, rsw_form_at, rsw_is_closed, sw_from_rsw
from rswan.series import NestedSeries
from rswan.tower import FieldTower
from rswan.witt import Character, WittVector, asw_reduce, swan_conductor


def conclude(capsys, num, detail, ok, elapsed, budget=None):
    """Print the single verdict line for one criterion, then assert it."""
    verdict = "PASS" if ok and (budget is None or elapsed < budget) else "FAIL"
    budget_note = f", budget {budget:.0f}s" if budget is not None else ""
    with capsys.disabled():
        print(f"[criterion {num:2d}] {verdict} — {detail} ({elapsed:.2f}s{budget_note})")
    assert ok, f"criterion {num}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s >= {budget}s"


def catalog_character(p, label):
    for row_label, tower, comps, sw, rendered in catalog_characters(p):
        if row_label == label:
            vec = WittVector.from_print_order(
                tower, tuple(parse_series(c, tower) for c in comps)
            )
            return asw_reduce(vec), sw
    raise KeyError(label)


def random_witt(tower, rng, min_ord=-4, max_ord=2):
    dom = tower.field_domain
    comps = []
    for _ in range(tower.s):
        terms = []
        for _ in range(rng.randint(0, 4)):
            top = rng.randint(min_ord, max_ord)
            lower = tuple(rng.randint(-2, 2) for _ in range(tower.d - 1))
            terms.append((lower + (top,), dom.random_nonzero(rng)))
        comps.append(NestedSeries.from_monomials(tower.d, dom, terms))
    return WittVector(tower, tuple(comps))


def test_criterion_01_truncated_exp_congruences(capsys):
    t0 = time.perf_counter()
    ok = True
    for p in (2, 3, 5):
        report = check_exp_congruences(p)
        ok = ok and all(report.results.values())
    conclude(
        capsys, 1,
        "truncated-exp congruences hold for p = 2, 3, 5",
        ok, time.perf_counter() - t0, budget=1.0,
    )


def test_criterion_02_rsw_well_definedness(capsys):
    """The windowed invariant is constant on cosets of (phi - 1) applied to
    the depth-(n//p) filtration: 500 usable random (character, coboundary)
    pairs per (p, s, tower) cell."""
    t0 = time.perf_counter()
    cells = 0
    total = 0
    ok = True
    for p in (2, 3):
        for s in (1, 2):
            for variables in (("t",), ("u", "t")):
                tower = FieldTower(p, 1, s, variables)
                rng = random.Random(10_000 * p + 100 * s + len(variables))
                usable = 0
                while usable < 500:
                    chi = asw_reduce(random_witt(tower, rng))
                    vec = chi.vector
                    n = swan_conductor(chi)
                    if n == 0:
                        continue
                    m = n // p
                    # slot i carries weight p^i, so its pole depth is m // p^i
                    e_comps = tuple(
                        NestedSeries.from_monomials(
                            tower.d,
                            tower.field_domain,
                            [
                                (
                                    tuple(rng.randint(-2, 2) for _ in range(tower.d - 1))
                                    + (rng.randint(-(m // p**i) if m else 0, 2),),
                                    tower.field_domain.random_nonzero(rng),
                                )
                                for _ in range(rng.randint(0, 3))
                            ],
                        )
                        for i in range(tower.s)
                    )
                    e_vec = WittVector(tower, e_comps)
                    shifted = vec + (e_vec.frobenius() - e_vec)
                    if rsw_form_at(vec, n) != rsw_form_at(shifted, n):
                        ok = False
                    usable += 1
                total += usable
                cells += 1
    conclude(
        capsys, 2,
        f"windowed invariant unchanged by coboundaries: {total} pairs over {cells} cells",
        ok, time.perf_counter() - t0, budget=30.0,
    )


def test_criterion_03_closedness_and_conductor_recovery(capsys):
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for p in CATALOG_PRIMES:
        for label, tower, comps, sw, rendered in catalog_characters(p):
            chi = asw_reduce(
                WittVector.from_print_order(
                    tower, tuple(parse_series(c, tower) for c in comps)
                )
            )
            if swan_conductor(chi) != sw:
                ok = False
                continue
            value = rsw_char_p(chi)
            if not (rsw_is_closed(value) and sw_from_rsw(value) == sw):
                ok = False
            checked += 1
    conclude(
        capsys, 3,
        f"d(invariant) = 0 and conductor recovered for {checked} catalog characters",
        ok, time.perf_counter() - t0, budget=10.0,
    )


# Criterion 4's towers F_(p^k)((...))((t)) with d variables, and its windows
# (n, m), each paired with the minimal b.
DUALITY_TOWERS = [(p, k, d) for p in (2, 3, 5) for k in (1, 2) for d in (1, 2, 3)]
DUALITY_WINDOWS = ((2, 1), (3, 1), (4, 2), (4, 1))
DENSE_ROWS = 40  # Gram matrices up to this size also have every other pair checked


def basis_forms(tower, degree, n, m, b):
    """The twisted monomial basis of the window (n, m) in degree ``degree``,
    built through the public constructors, in the order that numbers the
    rows (the columns, for the dual window) of ``duality_matrix``."""
    d, dom = tower.d, tower.field_domain
    return [
        WindowedForm(LogForm(d, dom, degree, {
            key: NestedSeries.from_monomials(d, dom, [(lower + (top,), dom.one())])
        }), n, m)
        for key in combinations(range(1, d + 1), degree)
        for top in range(-n, -m)
        for lower in product(range(tower.p**b), repeat=d - 1)
    ]


def pairing(x, y, b):
    """``r_b(x ^ y)`` through the operators, read as a Gram entry: the
    residue coefficient series, or a raw scalar over one variable."""
    val = r_b(wedge_windowed(x, y), b)
    return val.coefficient(tuple(range(1, x.form.level))) if isinstance(val, LogForm) else val


def test_criterion_04_window_duality(capsys):
    """Every split of every window's Gram matrix is invertible, each row's
    one entry is ``r_b(x ^ y)`` of its basis form ``x`` and the dual basis
    form ``y`` of its column, and on matrices of at most ``DENSE_ROWS`` rows
    every other pair pairs to zero."""
    t0 = time.perf_counter()
    ok = True
    matrices = dense = 0
    for p, k, d in DUALITY_TOWERS:
        tower = FieldTower(p, k, 1, ("v", "u", "t")[3 - d:])
        dom = tower.field_domain

        def is_zero(v):
            return v.is_zero() if d > 1 else dom.is_zero(v)

        for n, m in DUALITY_WINDOWS:
            b = minimal_b(p, n - m)
            for i in range(d + 1):
                rows = duality_matrix(n, m, b, tower, i, d - i)
                xs = basis_forms(tower, d - i, n, m, b)
                ys = basis_forms(tower, i, -m - 1, -n - 1, b)
                ok = ok and len(rows) == len(xs) == len(ys) and all(len(row) == 1 for row in rows)
                ok = ok and gram_is_invertible(rows, domain=dom, precision=tower.precision)
                ok = ok and all(
                    entry == pairing(x, ys[c], b)
                    for x, row in zip(xs, rows) for c, entry in row.items()
                )
                if len(rows) <= DENSE_ROWS:
                    ok = ok and all(
                        is_zero(pairing(x, y, b))
                        for x, row in zip(xs, rows) for c, y in enumerate(ys) if c not in row
                    )
                    dense += 1
                matrices += 1
    conclude(
        capsys, 4,
        f"{matrices} residue-pairing Gram matrices (p = 2, 3, 5; k = 1, 2; d = 1-3) "
        f"invertible, each entry r_b(x ^ y) of its pair, {dense} zero off the pairs",
        ok, time.perf_counter() - t0, budget=30.0,
    )


# d = 2 characters at odd p, where the sign of the pairing shows: (p, the
# components in print order) over F_p((u))((t)).  The catalog's p = 3 "Z_ut2"
# is the first.
ODD_D2_CHARACTERS = (
    (3, ["u*t^-2"]),
    (3, ["2*u^2*t^-5 + u*t^-2"]),
    (5, ["u*t^-2"]),
    (5, ["3*u*t^-4 + u^-2*t^-1"]),
)


def criterion_05_reports():
    """``(tower, report)`` per character that criterion 5 checks, each on
    100 samples at seed 2026 with the library's draws: the catalog's d = 1
    cells with s = 1, 2 at p = 2, 3, its d = 2 cells with s = 1 at p = 2,
    then :data:`ODD_D2_CHARACTERS`."""
    chars = [
        (tower, comps)
        for p in (2, 3)
        for label, tower, comps, sw, rendered in catalog_characters(p)
        if (tower.d == 1 and tower.s in (1, 2)) or (tower.d == 2 and tower.s == 1 and p == 2)
    ]
    chars += [(FieldTower(p, 1, 1, ("u", "t")), comps) for p, comps in ODD_D2_CHARACTERS]
    reports = []
    for tower, comps in chars:
        chi = asw_reduce(
            WittVector.from_print_order(tower, tuple(parse_series(c, tower) for c in comps))
        )
        reports.append((tower, verify_rsw_characterization(chi, 100, seed=2026)))
    return reports


def test_criterion_05_reciprocity_characterization(capsys):
    """chi(E(alpha)) equals the residue pairing against the refined invariant
    on 100 sampled alpha per eligible character; the one-variable depth-1
    cells are additionally checked against the f*dlog(y) residue oracle,
    and the d = 2 characters at p = 3 and 5 see the sign of the pairing."""
    t0 = time.perf_counter()
    reports = criterion_05_reports()
    ok = all(report.all_equal for _, report in reports)
    schmid_cells = 0
    for tower, report in reports:
        if tower.s == 1 and tower.d == 1:
            ok = ok and report.schmid_checked > 0
            schmid_cells += 1
    conclude(
        capsys, 5,
        f"identity holds on 100 samples x {len(reports)} characters "
        f"({schmid_cells} also against the residue oracle, "
        f"{len(ODD_D2_CHARACTERS)} of d = 2 at p = 3, 5)",
        ok, time.perf_counter() - t0, budget=120.0,
    )


@pytest.mark.parametrize("factor", (-1, 0), ids=("negated", "zero"))
def test_criterion_05_sees_a_wrong_d2_right_side(monkeypatch, factor):
    """A d = 2 right side planted negated, or forced to 0, fails criterion
    5's check on every d = 2 character at p = 3 and 5.  At p = 2 the
    negation cannot show; the plant leaves d = 1 alone."""
    pairing = reciprocity._pairing

    def planted(window, term):
        value = pairing(window, term)
        return value * factor % window.form.domain.p if window.form.level == 2 else value

    monkeypatch.setattr(reciprocity, "_pairing", planted)
    reports = criterion_05_reports()
    assert not all(report.all_equal for _, report in reports)
    odd = [report for tower, report in reports if tower.d == 2 and tower.p > 2]
    assert len(odd) == len(ODD_D2_CHARACTERS)
    assert not any(report.all_equal for report in odd)


def test_criterion_06_conductor_change(capsys):
    t0 = time.perf_counter()
    K = FieldTower(2, 1, 1, ("t",))
    L = FieldTower(2, 1, 1, ("u",))
    dom = L.field_domain
    wild = ExtensionMap(K, L, {"t": parse_series("u^2*(1+u)", L)})
    chi = asw_reduce(WittVector.from_print_order(K, (parse_series("t^-3", K),)))
    anchor = conductor_change(wild, chi)
    ok = (
        anchor.delta == 1
        and anchor.predicted == 5
        and anchor.sw_target == 5
        and anchor.status == "PASS"
    )
    rng = random.Random(2026)
    confirmed = 0
    attempts = 0
    while confirmed < 50 and attempts < 2000:
        attempts += 1
        e = rng.randint(2, 5)
        unit_tail = [((e + k,), dom.one()) for k in range(1, 4) if rng.random() < 0.5]
        img = NestedSeries.from_monomials(1, dom, [((e,), dom.one())] + unit_tail)
        try:
            ext = ExtensionMap(K, L, {"t": img})
            delta_tor(ext)
        except (NonEmbedding, PrecisionExhausted):
            continue
        sw = rng.choice([3, 5, 7, 9])
        case = conductor_change(
            ext, asw_reduce(WittVector.from_print_order(K, (parse_series(f"t^-{sw}", K),)))
        )
        if not case.hypothesis_holds:
            continue
        if case.status != "PASS":
            ok = False
        confirmed += 1
    ok = ok and confirmed == 50
    windowed = windowed_conductor_changes(K, L, random.Random(2034), 300)
    ok = ok and windowed["wrong"] == 0 and windowed["answered"] >= 20 and windowed["refused"] >= 20
    conclude(
        capsys, 6,
        f"anchor case gives delta=1, Sw=5 twice over; {confirmed} randomized "
        f"hypothesis-satisfied cases all PASS; through windowed images {windowed}",
        ok, time.perf_counter() - t0, budget=60.0,
    )


def windowed_conductor_changes(K, L, rng, cases):
    """Conductor changes of ``t^-sw`` through windowed images ``u^e (1 +
    ...) + O(u^c)``, counted as answered, refused or wrong.  The pullback of
    ``t^-sw`` is known below ``-sw e + c - e``, the window of ``img^-sw``
    (``series``, "Division"), and agrees there with its pullback through each
    of 4 random exact completions of the image past ``c``.  An answered
    conductor change equals the one along each completion; a refusal is a
    ``PrecisionExhausted`` (any other exception propagates)."""
    dom = L.field_domain
    seen = {"answered": 0, "refused": 0, "wrong": 0}
    for _ in range(cases):
        e = rng.randint(1, 5)
        c = e + rng.randint(1, 8)
        terms = {e: dom.one(), **{j: dom.one() for j in range(e + 1, c) if rng.random() < 0.5}}
        sw = rng.choice([1, 3, 5, 7, 9])
        pole = parse_series(f"t^-{sw}", K)
        chi = asw_reduce(WittVector.from_print_order(K, (pole,)))
        completions = [
            ExtensionMap(K, L, {"t": NestedSeries(1, dom, {**terms, **{
                j: dom.one() for j in range(c, c + 8) if rng.random() < 0.5}})})
            for _ in range(4)
        ]
        ext = ExtensionMap(K, L, {"t": NestedSeries(1, dom, terms, c)})
        pulled = pullback_series(ext, pole)
        if pulled.ceiling != -sw * e + c - e or not all(
                pulled.agrees_with(pullback_series(full, pole)) for full in completions):
            seen["wrong"] += 1
        try:
            report = conductor_change(ext, chi)
        except PrecisionExhausted:
            seen["refused"] += 1
            continue
        seen["answered"] += 1
        got = (report.e, report.delta, report.sw_target, report.status)
        for full in completions:
            other = conductor_change(full, chi)
            if (other.e, other.delta, other.sw_target, other.status) != got:
                seen["wrong"] += 1
    return seen


def test_criterion_07_imperfect_residue_ratios(capsys):
    t0 = time.perf_counter()
    chi, family = imperfect_residue_family(2, (3, 5, 7))
    out = perfect_residue_ratios(chi, family)
    ratios = [row["ratio"] for row in out["rows"]]
    expected = [Fraction(2) - Fraction(1, t) for t in (3, 5, 7)]
    ok = (
        ratios == expected
        and all(r <= 2 for r in ratios)
        and all(a < b for a, b in zip(ratios, ratios[1:]))
        and out["all_bounded"]
        and out["formula_applies"]
    )
    conclude(
        capsys, 7,
        "family ratios are exactly 2 - 1/t for t = 3, 5, 7, bounded and increasing",
        ok, time.perf_counter() - t0, budget=30.0,
    )


def test_criterion_08_curve_restriction_ratios(capsys):
    t0 = time.perf_counter()
    dom = rat_func_domain(2)
    f = NestedSeries.from_monomials(1, dom, [((-3,), dom.variable())])
    out = curve_restriction_ratios(2, f, 0, (2, 4, 8))
    ratios = [row["ratio"] for row in out["rows"]]
    expected = [Fraction(3) - Fraction(1, e) for e in (2, 4, 8)]
    ok = (
        out["sw_generic"] == 3
        and ratios == expected
        and out["all_bounded"]
        and all(r <= out["sw_generic"] for r in ratios)
    )
    conclude(
        capsys, 8,
        "curve ratios are exactly 3 - 1/e for e = 2, 4, 8, all bounded by the generic conductor",
        ok, time.perf_counter() - t0, budget=30.0,
    )


def test_criterion_09_lift_additivity(capsys):
    t0 = time.perf_counter()
    ok = True
    total = 0
    # F_4 and F_9 at s = 2 run the g-packed products and the flat ghost sum
    # at k > 1.
    for p, k, s in ((2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 2, 2)):
        tower = FieldTower(p, k, s, ("t",))
        rng = random.Random(90_000 + 100 * (k - 1) + 10 * p + s)
        for _ in range(1000):
            a = random_witt(tower, rng, min_ord=-5, max_ord=4)
            b = random_witt(tower, rng, min_ord=-5, max_ord=4)
            if not theta_lift(a + b).agrees_with(theta_lift(a) + theta_lift(b)):
                ok = False
            total += 1
    conclude(
        capsys, 9,
        f"lift of a Witt sum matches the sum of lifts mod p^s on {total} pairs",
        ok, time.perf_counter() - t0, budget=30.0,
    )


def test_criterion_10_check_all_determinism(capsys):
    t0 = time.perf_counter()
    ok = True
    for p in CATALOG_PRIMES:
        config_a = load_config(canned_config(p))
        config_b = load_config(canned_config(p))
        first = run(config_a, seed=0)
        second = run(config_b, seed=0)
        if report_body_bytes(first) != report_body_bytes(second):
            ok = False
        statuses = {rec["status"] for rec in first["tasks"]}
        if statuses - {"PASS", "NOT_APPLICABLE"}:
            ok = False
    conclude(
        capsys, 10,
        "canned verification runs twice with seed 0 are byte-identical and all-PASS "
        "for p = 2, 3, 5",
        ok, time.perf_counter() - t0,
    )
