"""The four rswan workloads: seeded inputs, one unit of work, exact checks.

Every workload is a closed loop over *cycles*: cycle ``i`` is a fixed list of
unit kinds whose inputs are drawn from ``random.Random`` seeded by
``(workload, seed, i)``, so the mix is the same in every cycle and the same
seed always gives the same inputs.  The library is reached only through its
public modules, always as ``module.function`` so that a tracer's rebinding
takes effect.

``run(unit)`` returns a fingerprint of the answers (compared between traced
and untraced passes), raises :class:`WrongAnswer` when an answer fails its
exact check, and lets the library's own exceptions through: the harness
counts those as failed units.

Why these four (see also ``BENCHMARK.json``):

* ``catalog`` is the end-to-end ``check-all`` path; reciprocity and Newton
  inversion through ``dlog`` dominate it.
* ``witt`` is Witt-vector algebra on short exact series (``witt_combine``)
  with no inversion; it includes lift lengths 3 and 4.
* ``duality`` is windowed-form algebra on many single-monomial forms:
  object construction with no Newton inversion and no Witt algebra.
* ``embed`` pulls characters back along wild embeddings (dense, wide
  windows) and covers ``rswan.extensions`` and ``rswan.ratfunc``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from rswan import catalog, cli, extensions, logdiff, parser, ratfunc, reciprocity, rsw, witt
from rswan.series import NestedSeries
from rswan.tower import FieldTower

# sha256 of report_body_bytes(run(load_config(canned_config(p)), seed=0)),
# pinned from the commit that introduced this benchmark.
CATALOG_DIGESTS = {
    2: "97abaff667b42ffa68317df03334cf70310e3b8040339516dc0757cc431f3120",
    3: "4ebf23b0a4d9d8ab4322586218b838bb08c86cef6ffa8731256f0e5e058434da",
    5: "2eabb984bafcf3ea2409996d938e012fc6ca7f7f18a53c5cd3e9248820d3b5e7",
}


# Unit seed of every warm-up unit: fixed, so that set-up does the same work
# at every run seed (some seeds draw an embedding whose pullback raises
# PrecisionExhausted, which is a failed unit, not a failed set-up).
WARMUP_SEED = 0


class WrongAnswer(Exception):
    """An answer the library returned failed its exact check."""


class ReportedError(Exception):
    """A catalog task came back as an ERROR record."""


@dataclass(frozen=True)
class Unit:
    kind: str
    params: tuple
    seed: int = 0


def _rng(*parts) -> random.Random:
    return random.Random(":".join(map(str, parts)))


def _tower(p, k, s, d) -> FieldTower:
    return FieldTower(p, k, s, ("u", "t")[2 - d:])


def random_vector(tower, rng, min_ord=-4, max_ord=2) -> witt.WittVector:
    """0..4 random monomials per component, as the acceptance suite draws them."""
    dom = tower.field_domain
    comps = []
    for _ in range(tower.s):
        terms = []
        for _ in range(rng.randint(0, 4)):
            top = rng.randint(min_ord, max_ord)
            lower = tuple(rng.randint(-2, 2) for _ in range(tower.d - 1))
            terms.append((lower + (top,), dom.random_nonzero(rng)))
        comps.append(NestedSeries.from_monomials(tower.d, dom, terms))
    return witt.WittVector(tower, tuple(comps))


def vector_literal(vec) -> str:
    """Print-order component literals, as a run configuration writes them."""
    parts = ", ".join(f'"{parser.render_series(c, vec.tower)}"' for c in vec.print_order)
    return f"[{parts}]"


def tower_literal(tower) -> str:
    return f"p={tower.p} k={tower.k} s={tower.s} variables={list(tower.variables)}"


# ------------------------------------------------------------------ catalog

class Catalog:
    """One unit is one prime's ``check-all`` run at a unit seed."""

    name = "catalog"
    PRIMES = (2, 3, 5)

    def __init__(self, seed: int):
        self.seed = seed
        self.configs = {p: cli.load_config(catalog.canned_config(p)) for p in self.PRIMES}

    def warmup(self) -> Unit:
        return Unit("check-all", (5,), WARMUP_SEED)

    def cycle(self, index: int) -> list[Unit]:
        unit_seed = self.seed * 1009 + index
        return [Unit("check-all", (p,), unit_seed) for p in self.PRIMES]

    def run(self, unit: Unit):
        (p,) = unit.params
        report = cli.run(self.configs[p], seed=unit.seed)
        for rec in report["tasks"]:
            if rec["status"] == "ERROR":
                err = rec["error"]
                raise ReportedError(f"{err['type']}: {err['message']}")
            if rec["status"] not in ("PASS", "NOT_APPLICABLE"):
                raise WrongAnswer(f"{rec['task']} returned {rec['status']}")
        return hashlib.sha256(cli.report_body_bytes(report)).hexdigest()

    def literal(self, unit: Unit) -> str:
        return f"check-all --p {unit.params[0]} with run seed {unit.seed}"

    def check_pinned_digests(self) -> list[str]:
        """Seed-0 report digests that differ from the pinned ones."""
        bad = []
        for p, want in CATALOG_DIGESTS.items():
            report = cli.run(cli.load_config(catalog.canned_config(p)), seed=0)
            got = hashlib.sha256(cli.report_body_bytes(report)).hexdigest()
            if got != want:
                bad.append(f"p={p}: {got} != pinned {want}")
        return bad


# --------------------------------------------------------------------- witt

# (p, k, s, d).  Lift lengths 1 and 2 take every cell but (5, 2, 2, 2);
# lengths 3 and 4 take the cells where one unit stays well under a second
# (at p = 3, s = 4 and at p = 5, s >= 3 single units take seconds to
# minutes, which would make the run length a lottery).
WITT_CELLS = tuple(
    (p, k, s, d)
    for p in (2, 3, 5) for k in (1, 2) for s in (1, 2) for d in (1, 2)
    if (p, k, s, d) != (5, 2, 2, 2)
) + ((2, 1, 3, 1), (2, 2, 3, 1), (2, 1, 3, 2), (3, 1, 3, 1), (2, 1, 4, 1), (2, 2, 4, 1))


class Witt:
    """Reduce, conductor, refined invariant on a coboundary shift, and lift
    additivity, on random sparse characters (acceptance criteria 2 and 9)."""

    name = "witt"

    def __init__(self, seed: int):
        self.seed = seed
        self.towers = {cell: _tower(*cell) for cell in WITT_CELLS}
        self.draws = 0
        self.ramified = 0

    def warmup(self) -> Unit:
        return Unit("witt", WITT_CELLS[0], WARMUP_SEED)

    def cycle(self, index: int) -> list[Unit]:
        rng = _rng(self.name, self.seed, index)
        return [Unit("witt", cell, rng.getrandbits(48)) for cell in WITT_CELLS]

    def _inputs(self, unit: Unit):
        tower = self.towers[unit.params]
        rng = random.Random(unit.seed)
        return tower, rng, random_vector(tower, rng), random_vector(tower, rng)

    def _coboundary(self, tower, rng, n):
        """E with slot i of pole depth at most (n // p) // p^i (criterion 2)."""
        p = tower.p
        m = n // p
        dom = tower.field_domain
        return witt.WittVector(tower, tuple(
            NestedSeries.from_monomials(tower.d, dom, [
                (
                    tuple(rng.randint(-2, 2) for _ in range(tower.d - 1))
                    + (rng.randint(-(m // p**i) if m else 0, 2),),
                    dom.random_nonzero(rng),
                )
                for _ in range(rng.randint(0, 3))
            ])
            for i in range(tower.s)
        ))

    def run(self, unit: Unit):
        tower, rng, vec, other = self._inputs(unit)
        self.draws += 1
        chi = witt.asw_reduce(vec)
        n = witt.swan_conductor(chi)
        form = None
        if n:
            self.ramified += 1
            e_vec = self._coboundary(tower, rng, n)
            shifted = chi.vector + (e_vec.frobenius() - e_vec)
            if witt.swan_conductor(witt.asw_reduce(shifted)) != n:
                raise WrongAnswer("the conductor moved under a coboundary shift")
            form = rsw.rsw_form_at(chi.vector, n)
            if rsw.rsw_form_at(shifted, n) != form:
                raise WrongAnswer("the refined invariant moved under a coboundary shift")
        lifted = reciprocity.theta_lift(vec + other)
        if not lifted.agrees_with(reciprocity.theta_lift(vec) + reciprocity.theta_lift(other)):
            raise WrongAnswer("theta lift is not additive")
        return (n, form)

    def literal(self, unit: Unit) -> str:
        tower, rng, vec, other = self._inputs(unit)
        return f"{tower_literal(tower)} chi={vector_literal(vec)} second={vector_literal(other)}"


# ----------------------------------------------------------------- duality

# Widths a = n - m per prime: the middle-degree Gram matrix has
# 2 * a * p^b rows (b minimal with p^b >= a), so these keep it at or
# below 96 (p = 2) and 90 (p = 3) rows.
DUALITY_WIDTHS = {2: (1, 2, 3, 4, 5, 6), 3: (1, 2, 3, 4, 5)}


class Duality:
    """Residue-pairing Gram matrices of windows over F_p((u))((t))."""

    name = "duality"

    def __init__(self, seed: int):
        self.seed = seed
        self.towers = {p: _tower(p, 1, 1, 2) for p in DUALITY_WIDTHS}

    def warmup(self) -> Unit:
        return Unit("window", (2, 2, 1))

    def cycle(self, index: int) -> list[Unit]:
        rng = _rng(self.name, self.seed, index)
        units = []
        for p, widths in DUALITY_WIDTHS.items():
            for a in widths:
                m = rng.randint(0, 3)
                units.append(Unit("window", (p, m + a, m)))
        return units

    def run(self, unit: Unit):
        p, n, m = unit.params
        tower = self.towers[p]
        b = 0
        while p**b < n - m:
            b += 1
        sizes = []
        for i in range(tower.d + 1):
            j = tower.d - i
            rows = logdiff.duality_matrix(n, m, b, tower, i, j)
            want = comb(tower.d, j) * (n - m) * p ** (b * (tower.d - 1))
            if len(rows) != want:
                raise WrongAnswer(f"degree ({i},{j}) Gram has {len(rows)} rows, expected {want}")
            if not logdiff.gram_is_invertible(
                rows, domain=tower.field_domain, precision=tower.precision
            ):
                raise WrongAnswer(f"degree ({i},{j}) Gram matrix is singular")
            sizes.append(len(rows))
        return tuple(sizes)

    def literal(self, unit: Unit) -> str:
        p, n, m = unit.params
        return f"window (n, m) = ({n}, {m}) over F_{p}((u))((t))"


# -------------------------------------------------------------------- embed

EMBED_CELLS = tuple((p, s) for p in (2, 3, 5) for s in (1, 2))


def _wild_image(tower, rng):
    """u^e * (unit) with e in 2..6, never a p-th power."""
    p = tower.p
    dom = tower.field_domain
    e = rng.randint(2, 6)
    terms = [((e,), dom.random_nonzero(rng))]
    for j in range(1, 4):
        if rng.random() < 0.5:
            terms.append(((e + j,), dom.random_nonzero(rng)))
    if all(exps[0] % p == 0 for exps, _ in terms):
        j = next(j for j in range(1, p + 1) if (e + j) % p)
        terms.append(((e + j,), dom.random_nonzero(rng)))
    return NestedSeries.from_monomials(1, dom, terms)


def fp_conductor(terms: dict, p: int) -> int:
    """Swan conductor of a length-1 character of F_p((u)) given as
    ``{exponent: coefficient}``: strip p-divisible poles (c u^(pe) ~ c u^e
    over F_p), then take the deepest pole left."""
    terms = {e: c % p for e, c in terms.items() if c % p}
    while True:
        poles = [e for e in terms if e < 0 and e % p == 0]
        if not poles:
            return max((-e for e in terms if e < 0), default=0)
        e = min(poles)
        c = terms.pop(e)
        folded = (terms.get(e // p, 0) + c) % p
        if folded:
            terms[e // p] = folded
        else:
            terms.pop(e // p, None)


class Embed:
    """Conductor change along random wild embeddings t -> u^e (1 + ...),
    plus one imperfect-residue and one curve-restriction family per cycle."""

    name = "embed"

    def __init__(self, seed: int):
        self.seed = seed
        self.pairs = {
            (p, s): (_tower(p, 1, s, 1), FieldTower(p, 1, s, ("u",))) for p, s in EMBED_CELLS
        }
        self.ratfunc_domains = {p: ratfunc.rat_func_domain(p) for p in (2, 3, 5)}

    def warmup(self) -> Unit:
        return Unit("conductor-change", EMBED_CELLS[0], WARMUP_SEED)

    def cycle(self, index: int) -> list[Unit]:
        rng = _rng(self.name, self.seed, index)
        units = [
            Unit("conductor-change", cell, rng.getrandbits(48))
            for cell in EMBED_CELLS for _ in range(2)
        ]
        units.append(Unit("imperfect-residue", (rng.choice((2, 3, 5)),), rng.getrandbits(48)))
        units.append(Unit("curve-restriction", (rng.choice((2, 3, 5)),), rng.getrandbits(48)))
        return units

    def _inputs(self, unit: Unit):
        rng = random.Random(unit.seed)
        if unit.kind == "conductor-change":
            source, target = self.pairs[unit.params]
            return source, target, _wild_image(target, rng), random_vector(source, rng, -12, 2)
        (p,) = unit.params
        if unit.kind == "imperfect-residue":
            t_values = tuple(sorted(rng.sample([t for t in range(3, 16) if t % p], rng.randint(1, 3))))
            return p, t_values
        n, n2 = rng.sample([n for n in range(1, 8) if n % p], 2)
        return p, n, n2, rng.randrange(p), (p, p * p)

    def run(self, unit: Unit):
        if unit.kind == "conductor-change":
            return self._conductor_change(unit)
        if unit.kind == "imperfect-residue":
            return self._imperfect_residue(unit)
        return self._curve_restriction(unit)

    def _conductor_change(self, unit):
        source, target, image, vec = self._inputs(unit)
        ext = extensions.ExtensionMap(source, target, {"t": image})
        report = extensions.conductor_change(ext, vec)
        if report.status == "FAIL":
            raise WrongAnswer(
                f"Sw after pullback {report.sw_target} != predicted {report.predicted}"
            )
        if report.e != image.ord() or report.predicted != report.e * report.sw_source - report.delta:
            raise WrongAnswer("inconsistent conductor-change report")
        return (report.e, report.delta, report.sw_source, report.sw_target, report.status)

    def _imperfect_residue(self, unit):
        p, t_values = self._inputs(unit)
        chi, family = extensions.imperfect_residue_family(p, t_values)
        out = extensions.perfect_residue_ratios(chi, family)
        n = out["sw_source"]
        ratios = [row["ratio"] for row in out["rows"]]
        if [row["e"] for row in out["rows"]] != list(t_values) or not out["all_bounded"]:
            raise WrongAnswer("imperfect-residue rows are out of order or unbounded")
        if out["formula_applies"] and ratios != [n - Fraction(1, t) for t in t_values]:
            raise WrongAnswer(f"ratios {ratios} differ from n - 1/t")
        return (n, tuple(ratios))

    def _curve_restriction(self, unit):
        """f = x t^-n + x^p t^-(p n2): the second term reduces to x t^-n2 over
        F_p(x), so the generic conductor is max(n, n2)."""
        p, n, n2, x0, exponents = self._inputs(unit)
        dom = self.ratfunc_domains[p]
        x = dom.variable()
        f = NestedSeries.from_monomials(1, dom, [((-n,), x), ((-p * n2,), dom.pow(x, p))])
        out = extensions.curve_restriction_ratios(p, f, x0, exponents)
        want = []
        for e in exponents:
            # x -> x0 + u, t -> u^e; over F_p, (x0 + u)^p = x0 + u^p.
            terms: dict = {}
            for exp, coeff in ((-n * e, x0), (1 - n * e, 1), (-p * n2 * e, x0), (p - p * n2 * e, 1)):
                terms[exp] = terms.get(exp, 0) + coeff
            want.append(Fraction(fp_conductor(terms, p), e))
        got = [row["ratio"] for row in out["rows"]]
        if out["sw_generic"] != max(n, n2) or got != want or not out["all_bounded"]:
            raise WrongAnswer(f"curve ratios {got} (generic {out['sw_generic']}) != {want}")
        return (out["sw_generic"], tuple(got))

    def literal(self, unit: Unit) -> str:
        if unit.kind == "conductor-change":
            source, target, image, vec = self._inputs(unit)
            return (
                f"{tower_literal(source)} chi={vector_literal(vec)} "
                f"t -> {parser.render_series(image, target)}"
            )
        if unit.kind == "imperfect-residue":
            p, t_values = self._inputs(unit)
            return f"imperfect_residue_family(p={p}, t_values={t_values})"
        p, n, n2, x0, exponents = self._inputs(unit)
        return (f"curve_restriction_ratios(p={p}, f=x*t^-{n} + x^{p}*t^-{p * n2}, "
                f"x0={x0}, exponents={exponents})")


WORKLOADS = {cls.name: cls for cls in (Catalog, Witt, Duality, Embed)}
