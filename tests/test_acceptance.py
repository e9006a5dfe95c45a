"""Acceptance gate: ten criteria, one printed pass/fail line each.

Every criterion carries a pinned wall-clock budget and is checked by exact
arithmetic — no tolerances anywhere.  The printed line is emitted outside
pytest's capture so a plain ``pytest -v`` run shows all ten verdicts.
"""

import random
import time
from fractions import Fraction

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
)
from rswan.logdiff import duality_matrix, gram_is_invertible
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


def test_criterion_04_window_duality(capsys):
    t0 = time.perf_counter()
    tower = FieldTower(2, 1, 1, ("u", "t"))
    ok = True
    checked = []
    for n, m in ((2, 1), (3, 1), (4, 2)):
        b = 0
        while tower.p**b < n - m:
            b += 1
        for i in range(tower.d + 1):
            j = tower.d - i
            rows = duality_matrix(n, m, b, tower, i, j)
            if not gram_is_invertible(
                rows, domain=tower.field_domain, precision=tower.precision
            ):
                ok = False
        checked.append(f"({n},{m})")
    conclude(
        capsys, 4,
        f"residue-pairing Gram matrices invertible over F_2((u))((t)) at {', '.join(checked)}",
        ok, time.perf_counter() - t0, budget=30.0,
    )


def test_criterion_05_reciprocity_characterization(capsys):
    """chi(E(alpha)) equals the residue pairing against the refined invariant
    on 100 sampled alpha per eligible catalog character; the one-variable
    depth-1 cells are additionally checked against the f*dlog(y) residue
    oracle."""
    t0 = time.perf_counter()
    ok = True
    chars = 0
    schmid_cells = 0
    for p in (2, 3):
        for label, tower, comps, sw, rendered in catalog_characters(p):
            if tower.d == 1 and tower.s in (1, 2):
                pass  # d = 1 cells for p in {2, 3}
            elif tower.d == 2 and tower.s == 1 and p == 2:
                pass  # the two-variable cell
            else:
                continue
            chi = asw_reduce(
                WittVector.from_print_order(
                    tower, tuple(parse_series(c, tower) for c in comps)
                )
            )
            report = verify_rsw_characterization(chi, 100, seed=2026)
            if not report.all_equal:
                ok = False
            if tower.s == 1 and tower.d == 1:
                if report.schmid_checked == 0:
                    ok = False
                schmid_cells += 1
            chars += 1
    conclude(
        capsys, 5,
        f"identity holds on 100 samples x {chars} characters "
        f"({schmid_cells} also against the residue oracle)",
        ok, time.perf_counter() - t0, budget=120.0,
    )


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
    conclude(
        capsys, 6,
        f"anchor case gives delta=1, Sw=5 twice over; {confirmed} randomized "
        "hypothesis-satisfied cases all PASS",
        ok, time.perf_counter() - t0, budget=60.0,
    )


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
    for p, s in ((2, 2), (2, 3), (3, 2)):
        tower = FieldTower(p, 1, s, ("t",))
        rng = random.Random(90_000 + 10 * p + s)
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
